"""Scenario configuration: schema, validation, defaults and presets.

A scenario file is JSON with the sections below. Every monetary field
is an integer in minor units (hundredths of the declared unit scale);
every fraction, rate or price is an integer in micro units
(1_000_000 == 1.0 == par == 100%); basis points are written as micro
values too (1bp == 100).

  unit_scale      label documenting what one major unit means, e.g.
                  "USD" (minor unit = cent) or "USD_bn" (minor unit =
                  0.01 billion). Outputs are reported in minor units of
                  this scale. (default "USD")
  horizon_days    number of simulated business days (>= 1)
  seed            64-bit seed for the fixed SplitMix64 generator
  agents:
    banks         [{name}]
    issuers       [{name, bank, chain, coins, assets,
                    allocation: {deposits, bills, repo},
                    bill_maturity_days (45), genius_compliant (true),
                    mint_invest_frac (0), operating_cost_per_day (0),
                    count_excess_collateral (false)}]
    dealers       [{name, bank, capital, base_assets, exposures (0),
                    gsib (true), reserve_access, deposits,
                    treasuries_bill (0), treasuries_long (0)}], at least one
    intermediaries[{name, bank, deposits}]
    holders       [{name, bank, deposits (0), coins: {issuer: amount}}]
    treasury_buyers[{name, bank, deposits, treasuries_bill (0),
                    treasuries_long (0)}]
  policies:
    access_mode               "direct" | "intermediated"
    par_policy                {mode: "rigorous_fixed" | "corridor" |
                               "best_effort", corridor_bp}
    srf_enabled               false
    issuer_reserve_access     false   (issuers may hold central bank
                                       reserves; redemptions can then
                                       settle from reserves same-day)
    eslr_reform               false
    intermediary_mode         "redeem" | "warehouse"
    negative_carry_refusal    true
    slr_bound_bp              null    (override; else 3% / 5% by gsib)
  market:
    depth, impact_coeff_long (15000), impact_coeff_bill (5000),
    max_dislocation_bp (500), retention_frac (335648 micro,
    i.e. 72.5/216), flight_to_safety (false), bill_safety_lift (0),
    replacement_frac (0), offload_frac (250000), eslr_capacity_add (0)
  run_model:
    baseline_rate, deviation_threshold_bp (300), shifted_rate,
    recovery_days (5), delay_trigger_days (2), smooth (false)
  price_model:
    overdue_coeff (100000), failure_coeff (100000), reversion (500000),
    min_price (100000), supply_incident_dip (5000)
  rates:
    treasury_rate_daily (0), deposit_rate_daily (0),
    repo_rate_daily (0), haircut (20000 = 2%)
  mint_demand:
    daily_rate (0)  micro fraction of coins minted per day by buyers
  diagnostics:
    attack_cost (null)  when set, the summary reports each issuer's
                        attack-incentive ratio: peak daily transacted
                        value (redemptions plus mints) over this cost,
                        in micro units
  shocks:
    [{day, class: "liveness_fault" | "uncontrolled_supply" |
      "confidence_only" | "correlated_liveness", likelihood
      ("least"), systemic ("medium"), magnitude (null -> sampled),
      duration (0), chain ("main")}]

Agent lists are canonicalized by name at load time, so declaration
order never changes results. load_config accepts a preset name (see
PRESETS) or a file path; a path is never read as a preset name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .dynamics import LikelihoodBand, PriceParams, RunModel, ShockClass, ShockSpec, SystemicBand
from .instruments import GENIUS_MAX_BILL_DAYS
from .money import BP
from .settlement import AccessMode, ParMode, ParPolicy


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


@dataclass(frozen=True)
class IssuerConfig:
    name: str
    bank: str
    coins: int
    assets: int
    allocation: dict
    chain: str = "main"
    bill_maturity_days: int = 45
    genius_compliant: bool = True
    mint_invest_frac: int = 0
    operating_cost_per_day: int = 0
    count_excess_collateral: bool = False


@dataclass(frozen=True)
class DealerConfig:
    name: str
    bank: str
    capital: int
    base_assets: int
    reserve_access: int
    deposits: int
    exposures: int = 0
    gsib: bool = True
    treasuries_bill: int = 0
    treasuries_long: int = 0


@dataclass(frozen=True)
class SimpleAgentConfig:
    name: str
    bank: str
    deposits: int = 0
    coins: dict = field(default_factory=dict)
    treasuries_bill: int = 0
    treasuries_long: int = 0


@dataclass(frozen=True)
class PolicyConfig:
    access_mode: AccessMode = AccessMode.DIRECT
    par_policy: ParPolicy = ParPolicy(ParMode.BEST_EFFORT)
    srf_enabled: bool = False
    issuer_reserve_access: bool = False
    eslr_reform: bool = False
    intermediary_mode: str = "redeem"
    negative_carry_refusal: bool = True
    slr_bound_bp: int | None = None


@dataclass(frozen=True)
class MarketConfig:
    depth: int
    impact_coeff_long: int = 15_000
    impact_coeff_bill: int = 5_000
    max_dislocation_bp: int = 500
    retention_frac: int = 335_648
    flight_to_safety: bool = False
    bill_safety_lift: int = 0
    replacement_frac: int = 0
    offload_frac: int = 250_000
    eslr_capacity_add: int = 0


@dataclass(frozen=True)
class RatesConfig:
    treasury_rate_daily: int = 0
    deposit_rate_daily: int = 0
    repo_rate_daily: int = 0
    haircut: int = 20_000


@dataclass(frozen=True)
class RunModelConfig:
    baseline_rate: int = 1_000
    deviation_threshold_bp: int = 300
    shifted_rate: int = 100_000
    recovery_days: int = 5
    delay_trigger_days: int = 2
    smooth: bool = False

    def build(self) -> RunModel:
        return RunModel(
            baseline_redemption_rate=self.baseline_rate,
            deviation_threshold=self.deviation_threshold_bp * BP,
            shifted_rate=self.shifted_rate,
            recovery_days=self.recovery_days,
            delay_trigger_days=self.delay_trigger_days,
            smooth=self.smooth,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    horizon_days: int
    seed: int
    banks: tuple
    issuers: tuple
    dealers: tuple
    intermediaries: tuple
    holders: tuple
    treasury_buyers: tuple
    policies: PolicyConfig
    market: MarketConfig
    run_model: RunModelConfig
    price_model: PriceParams
    rates: RatesConfig
    shocks: tuple
    mint_daily_rate: int = 0
    attack_cost: int | None = None
    unit_scale: str = "USD"

    def canonical_dict(self) -> dict:
        """Stable rendering used for config hashing in summaries."""
        return json.loads(json.dumps(self, default=_encode, sort_keys=True))


def _encode(obj):
    if hasattr(obj, "__dataclass_fields__"):
        return {k: getattr(obj, k) for k in obj.__dataclass_fields__}
    if hasattr(obj, "value"):
        return obj.value
    raise TypeError(f"cannot encode {type(obj)}")


def _require(condition: bool, constraint: str) -> None:
    if not condition:
        raise ValidationError(constraint)


def _get(section: dict, key: str, default=None, required: bool = False):
    if key in section:
        return section[key]
    if required:
        raise ValidationError(f"missing field: {key}")
    return default


def load_raw(path: str | Path) -> dict:
    """The unparsed scenario of a preset name or a JSON file."""
    if isinstance(path, str) and path in PRESETS:
        return PRESETS[path]()
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such config file or preset: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ParseError(f"{p}: line {err.lineno} column {err.colno}: {err.msg}") from err


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file or named preset."""
    return parse_config(load_raw(path))


def parse_config(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ParseError("scenario must be a JSON object")
    horizon = _get(raw, "horizon_days", required=True)
    _require(isinstance(horizon, int) and horizon >= 1, "horizon_days>=1")
    seed = _get(raw, "seed", 0)
    _require(isinstance(seed, int) and 0 <= seed < 2 ** 64, "seed is a 64-bit integer")

    agents = _get(raw, "agents", required=True)
    banks = _sorted_named(_get(agents, "banks", []), "banks")
    bank_names = {b["name"] for b in banks}
    _require(len(bank_names) > 0, "at least one bank")

    issuers = []
    for entry in _sorted_named(_get(agents, "issuers", []), "issuers"):
        allocation = _get(entry, "allocation", required=True)
        for k in allocation:
            _require(k in ("deposits", "bills", "repo"), f"unknown allocation key: {k}")
        alloc = {k: int(allocation.get(k, 0)) for k in ("deposits", "bills", "repo")}
        _require(all(v >= 0 for v in alloc.values()), "allocation values>=0")
        assets = _get(entry, "assets", required=True)
        _require(sum(alloc.values()) == assets, "allocations≠assets")
        coins = _get(entry, "coins", required=True)
        _require(coins > 0, "coins>0")
        bank = _get(entry, "bank", required=True)
        _require(bank in bank_names, f"unknown bank: {bank}")
        maturity = _get(entry, "bill_maturity_days", 45)
        if _get(entry, "genius_compliant", True):
            _require(maturity <= GENIUS_MAX_BILL_DAYS,
                     f"compliant issuers hold bills of {GENIUS_MAX_BILL_DAYS} days or less")
        issuers.append(IssuerConfig(
            name=entry["name"], bank=bank, coins=coins, assets=assets,
            allocation=alloc, chain=_get(entry, "chain", "main"),
            bill_maturity_days=maturity,
            genius_compliant=_get(entry, "genius_compliant", True),
            mint_invest_frac=_get(entry, "mint_invest_frac", 0),
            operating_cost_per_day=_get(entry, "operating_cost_per_day", 0),
            count_excess_collateral=_get(entry, "count_excess_collateral", False),
        ))
    _require(len(issuers) > 0, "at least one issuer")

    dealers = []
    for entry in _sorted_named(_get(agents, "dealers", []), "dealers"):
        bank = _get(entry, "bank", required=True)
        _require(bank in bank_names, f"unknown bank: {bank}")
        dealers.append(DealerConfig(
            name=entry["name"], bank=bank,
            capital=_get(entry, "capital", required=True),
            base_assets=_get(entry, "base_assets", required=True),
            reserve_access=_get(entry, "reserve_access", required=True),
            deposits=_get(entry, "deposits", 0),
            exposures=_get(entry, "exposures", 0),
            gsib=_get(entry, "gsib", True),
            treasuries_bill=_get(entry, "treasuries_bill", 0),
            treasuries_long=_get(entry, "treasuries_long", 0),
        ))
    _require(len(dealers) > 0, "at least one dealer")

    def simple(section: str) -> list:
        out = []
        for entry in _sorted_named(_get(agents, section, []), section):
            bank = _get(entry, "bank", required=True)
            _require(bank in bank_names, f"unknown bank: {bank}")
            out.append(SimpleAgentConfig(
                name=entry["name"], bank=bank,
                deposits=_get(entry, "deposits", 0),
                coins=dict(_get(entry, "coins", {})),
                treasuries_bill=_get(entry, "treasuries_bill", 0),
                treasuries_long=_get(entry, "treasuries_long", 0),
            ))
        return out

    intermediaries = simple("intermediaries")
    holders = simple("holders")
    buyers = simple("treasury_buyers")
    _require(len(buyers) > 0, "at least one treasury buyer")

    issuer_names = {i.name for i in issuers}
    for group in (intermediaries, holders):
        for agent in group:
            for issuer_name in agent.coins:
                _require(issuer_name in issuer_names, f"unknown issuer: {issuer_name}")
    for issuer in issuers:
        held = sum(a.coins.get(issuer.name, 0) for a in holders + intermediaries)
        _require(held == issuer.coins,
                 f"coins held ({held}) must equal coins outstanding "
                 f"({issuer.coins}) for {issuer.name}")

    pol = _get(raw, "policies", {})
    par_raw = _get(pol, "par_policy", {"mode": "best_effort"})
    mode = _parse_enum(ParMode, _get(par_raw, "mode", "best_effort"), "par mode")
    policy = ParPolicy(mode, _get(par_raw, "corridor_bp", 0) * BP)
    policies = PolicyConfig(
        access_mode=_parse_enum(AccessMode, _get(pol, "access_mode", "direct"),
                                "access mode"),
        par_policy=policy,
        srf_enabled=_get(pol, "srf_enabled", False),
        issuer_reserve_access=_get(pol, "issuer_reserve_access", False),
        eslr_reform=_get(pol, "eslr_reform", False),
        intermediary_mode=_get(pol, "intermediary_mode", "redeem"),
        negative_carry_refusal=_get(pol, "negative_carry_refusal", True),
        slr_bound_bp=_get(pol, "slr_bound_bp", None),
    )
    _require(policies.intermediary_mode in ("redeem", "warehouse"),
             "intermediary_mode in {redeem, warehouse}")
    if policies.access_mode is AccessMode.INTERMEDIATED:
        _require(len(intermediaries) > 0, "intermediated access needs an intermediary")

    market_raw = _get(raw, "market", {})
    market = MarketConfig(
        depth=_get(market_raw, "depth", required=True),
        impact_coeff_long=_get(market_raw, "impact_coeff_long", 15_000),
        impact_coeff_bill=_get(market_raw, "impact_coeff_bill", 5_000),
        max_dislocation_bp=_get(market_raw, "max_dislocation_bp", 500),
        retention_frac=_get(market_raw, "retention_frac", 335_648),
        flight_to_safety=_get(market_raw, "flight_to_safety", False),
        bill_safety_lift=_get(market_raw, "bill_safety_lift", 0),
        replacement_frac=_get(market_raw, "replacement_frac", 0),
        offload_frac=_get(market_raw, "offload_frac", 250_000),
        eslr_capacity_add=_get(market_raw, "eslr_capacity_add", 0),
    )
    _require(market.depth > 0, "market depth>0")
    _require(market.impact_coeff_long >= market.impact_coeff_bill,
             "impact_coeff_long>=impact_coeff_bill")
    _require(0 <= market.retention_frac < 1_000_000, "retention_frac in [0,1)")

    run_raw = _get(raw, "run_model", {})
    run_model = RunModelConfig(
        baseline_rate=_get(run_raw, "baseline_rate", 1_000),
        deviation_threshold_bp=_get(run_raw, "deviation_threshold_bp", 300),
        shifted_rate=_get(run_raw, "shifted_rate", 100_000),
        recovery_days=_get(run_raw, "recovery_days", 5),
        delay_trigger_days=_get(run_raw, "delay_trigger_days", 2),
        smooth=_get(run_raw, "smooth", False),
    )
    _require(run_model.shifted_rate > run_model.baseline_rate,
             "shifted_rate>baseline_rate")
    _require(run_model.deviation_threshold_bp > 0, "deviation_threshold_bp>0")

    price_raw = _get(raw, "price_model", {})
    price_model = PriceParams(
        overdue_coeff=_get(price_raw, "overdue_coeff", 100_000),
        failure_coeff=_get(price_raw, "failure_coeff", 100_000),
        reversion=_get(price_raw, "reversion", 500_000),
        min_price=_get(price_raw, "min_price", 100_000),
        supply_incident_dip=_get(price_raw, "supply_incident_dip", 5_000),
    )

    rates_raw = _get(raw, "rates", {})
    rates = RatesConfig(
        treasury_rate_daily=_get(rates_raw, "treasury_rate_daily", 0),
        deposit_rate_daily=_get(rates_raw, "deposit_rate_daily", 0),
        repo_rate_daily=_get(rates_raw, "repo_rate_daily", 0),
        haircut=_get(rates_raw, "haircut", 20_000),
    )
    _require(rates.haircut >= 0, "haircut>=0")

    shocks = []
    for entry in _get(raw, "shocks", []):
        shocks.append(ShockSpec(
            klass=_parse_shock_class(_get(entry, "class", required=True)),
            likelihood_band=_parse_enum(LikelihoodBand,
                                        _get(entry, "likelihood", "least"),
                                        "likelihood band"),
            systemic_band=_parse_enum(SystemicBand, _get(entry, "systemic", "medium"),
                                      "systemic band"),
            magnitude=_get(entry, "magnitude", None),
            duration=_get(entry, "duration", 0),
            chain=_get(entry, "chain", "main"),
            day=_get(entry, "day", required=True),
        ))
    shocks.sort(key=lambda s: (s.day, s.klass.value, s.chain))
    for shock in shocks:
        _require(0 <= shock.day < horizon, "shock day within horizon")

    mint_raw = _get(raw, "mint_demand", {})
    diag_raw = _get(raw, "diagnostics", {})
    attack_cost = _get(diag_raw, "attack_cost", None)
    if attack_cost is not None:
        _require(attack_cost > 0, "attack_cost>0")
    return ScenarioConfig(
        horizon_days=horizon, seed=seed,
        banks=tuple(b["name"] for b in banks),
        issuers=tuple(issuers), dealers=tuple(dealers),
        intermediaries=tuple(intermediaries), holders=tuple(holders),
        treasury_buyers=tuple(buyers),
        policies=policies, market=market, run_model=run_model,
        price_model=price_model, rates=rates, shocks=tuple(shocks),
        mint_daily_rate=_get(mint_raw, "daily_rate", 0),
        attack_cost=attack_cost,
        unit_scale=_get(raw, "unit_scale", "USD"),
    )


def _sorted_named(entries: list, section: str) -> list:
    names = [e.get("name") for e in entries]
    _require(all(isinstance(n, str) and n for n in names),
             f"every {section} entry needs a name")
    _require(len(set(names)) == len(names), f"duplicate names in {section}")
    return sorted(entries, key=lambda e: e["name"])


def _parse_enum(enum_cls, value, label):
    for member in enum_cls:
        if member.value == value:
            return member
    raise ValidationError(f"unknown {label}: {value}")


def _parse_shock_class(value) -> ShockClass:
    for member in ShockClass:
        if member.value == value:
            return member
    from .dynamics import UnknownShockClass

    raise UnknownShockClass(str(value))


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _base_agents(coins: int, deposits: int, bills: int, repo: int,
                 dealer_capital: int, dealer_base: int, dealer_ra: int,
                 dealer_deposits: int, dealer_long: int, dealer_bills: int,
                 holder_deposits: int = 0) -> dict:
    return {
        "banks": [{"name": "bank_a"}],
        "issuers": [{
            "name": "usdx", "bank": "bank_a", "chain": "main",
            "coins": coins, "assets": deposits + bills + repo,
            "allocation": {"deposits": deposits, "bills": bills, "repo": repo},
        }],
        "dealers": [
            {"name": "dealer_1", "bank": "bank_a", "capital": dealer_capital,
             "base_assets": dealer_base, "reserve_access": dealer_ra,
             "deposits": dealer_deposits, "gsib": True,
             "treasuries_long": dealer_long, "treasuries_bill": dealer_bills},
            {"name": "dealer_2", "bank": "bank_a", "capital": dealer_capital,
             "base_assets": dealer_base, "reserve_access": dealer_ra,
             "deposits": dealer_deposits, "gsib": True,
             "treasuries_long": dealer_long, "treasuries_bill": dealer_bills},
        ],
        "intermediaries": [{"name": "im_1", "bank": "bank_a",
                            "deposits": coins}],
        "holders": [{"name": "h_1", "bank": "bank_a",
                     "deposits": holder_deposits, "coins": {"usdx": coins}}],
        "treasury_buyers": [{"name": "tb_1", "bank": "bank_a",
                             "deposits": coins * 10,
                             "treasuries_bill": coins * 2}],
    }


def preset_calm() -> dict:
    """Ample deposits, baseline demand, no shocks: par every day."""
    coins = 1_000_000_00
    return {
        "unit_scale": "USD",
        "horizon_days": 10,
        "seed": 7,
        "agents": _base_agents(coins=coins, deposits=60_000_000, bills=30_000_000,
                               repo=12_000_000, dealer_capital=60_000_00,
                               dealer_base=100_000_000, dealer_ra=50_000_000,
                               dealer_deposits=50_000_000, dealer_long=40_000_000,
                               dealer_bills=10_000_000),
        "policies": {"access_mode": "direct",
                     "par_policy": {"mode": "best_effort"}},
        "market": {"depth": 50_000_000},
        "run_model": {"baseline_rate": 2_000, "shifted_rate": 100_000},
        "shocks": [],
    }


def preset_march2020() -> dict:
    """Dash-for-cash stress at desk scale: one minor unit is 0.01bn USD.

    Coins of 324 units face a two-thirds redemption surge over three
    days; the issuer holds no deposits, so every redeemed dollar routes
    through bill sales or repo non-rollover, pushing roughly 216 units
    of selling at a dealer sector pinned to its leverage bound. Long
    off-the-run paper absorbs the gap sales while bills catch the
    flight-to-safety bid.
    """
    coins = 32_400
    return {
        "unit_scale": "USD_bn",
        "horizon_days": 3,
        "seed": 2020,
        "agents": {
            "banks": [{"name": "bank_a"}],
            "issuers": [{
                "name": "usdx", "bank": "bank_a", "chain": "main",
                "coins": coins, "assets": 32_400,
                "allocation": {"deposits": 0, "bills": 8_100, "repo": 24_300},
            }],
            "dealers": [
                {"name": "dealer_1", "bank": "bank_a", "capital": 1_500,
                 "base_assets": 30_000, "reserve_access": 10_000,
                 "deposits": 40_000, "gsib": True,
                 "treasuries_long": 30_000, "treasuries_bill": 10_000},
                {"name": "dealer_2", "bank": "bank_a", "capital": 1_500,
                 "base_assets": 30_000, "reserve_access": 10_000,
                 "deposits": 40_000, "gsib": True,
                 "treasuries_long": 30_000, "treasuries_bill": 10_000},
            ],
            "intermediaries": [{"name": "im_1", "bank": "bank_a",
                                "deposits": 40_000}],
            "holders": [{"name": "h_1", "bank": "bank_a", "deposits": 0,
                         "coins": {"usdx": coins}}],
            "treasury_buyers": [{"name": "tb_1", "bank": "bank_a",
                                 "deposits": 400_000,
                                 "treasuries_bill": 60_000}],
        },
        "policies": {"access_mode": "intermediated",
                     "par_policy": {"mode": "best_effort"},
                     "intermediary_mode": "redeem"},
        "market": {"depth": 21_600, "impact_coeff_long": 12_000,
                   "impact_coeff_bill": 4_000, "flight_to_safety": True,
                   "bill_safety_lift": 2_000, "replacement_frac": 0,
                   "offload_frac": 0, "max_dislocation_bp": 500},
        "run_model": {"baseline_rate": 240_000, "shifted_rate": 500_000,
                      "deviation_threshold_bp": 900},
        "price_model": {"overdue_coeff": 50_000, "reversion": 500_000},
        "rates": {"haircut": 20_000},
        "shocks": [],
    }


def preset_slr_bound() -> dict:
    """Every dealer exactly at its leverage bound: zero fill capacity."""
    coins = 100_000_00
    agents = _base_agents(coins=coins, deposits=0, bills=6_000_000,
                          repo=4_000_000, dealer_capital=500_000,
                          dealer_base=10_000_000, dealer_ra=5_000_000,
                          dealer_deposits=20_000_000, dealer_long=8_000_000,
                          dealer_bills=2_000_000)
    agents["issuers"][0]["assets"] = 10_000_000
    return {
        "unit_scale": "USD",
        "horizon_days": 5,
        "seed": 11,
        "agents": agents,
        "policies": {"access_mode": "direct",
                     "par_policy": {"mode": "best_effort"},
                     "srf_enabled": False},
        "market": {"depth": 10_000_000, "offload_frac": 0},
        "run_model": {"baseline_rate": 100_000, "shifted_rate": 400_000,
                      "deviation_threshold_bp": 2_000},
        "shocks": [],
    }


def preset_regime_shift() -> dict:
    """Redemption surge against jammed dealers until par breaks 300bp."""
    coins = 32_400_00
    return {
        "unit_scale": "USD",
        "horizon_days": 8,
        "seed": 300,
        "agents": {
            "banks": [{"name": "bank_a"}],
            "issuers": [{
                "name": "usdx", "bank": "bank_a", "chain": "main",
                "coins": coins, "assets": coins,
                "allocation": {"deposits": 0, "bills": coins, "repo": 0},
            }],
            "dealers": [
                {"name": "dealer_1", "bank": "bank_a", "capital": 50_000,
                 "base_assets": 1_000_000, "reserve_access": 500_000,
                 "deposits": 2_000_000, "gsib": True,
                 "treasuries_long": 800_000, "treasuries_bill": 200_000},
            ],
            "intermediaries": [{"name": "im_1", "bank": "bank_a",
                                "deposits": coins}],
            "holders": [{"name": "h_1", "bank": "bank_a", "deposits": 0,
                         "coins": {"usdx": coins}}],
            "treasury_buyers": [{"name": "tb_1", "bank": "bank_a",
                                 "deposits": coins * 4,
                                 "treasuries_bill": coins}],
        },
        "policies": {"access_mode": "intermediated",
                     "par_policy": {"mode": "best_effort"},
                     "intermediary_mode": "redeem"},
        "market": {"depth": coins, "offload_frac": 0},
        "run_model": {"baseline_rate": 220_000, "shifted_rate": 330_000,
                      "deviation_threshold_bp": 300, "recovery_days": 3},
        "price_model": {"overdue_coeff": 60_000, "reversion": 700_000},
        "shocks": [],
    }


def preset_paxos_mint_error() -> dict:
    """Erroneous oversized mint corrected the same day; brief sub-par dip."""
    coins = 500_000_00
    cfg = {
        "unit_scale": "USD",
        "horizon_days": 14,
        "seed": 23,
        "agents": _base_agents(coins=coins, deposits=30_000_000,
                               bills=15_000_000, repo=6_000_000,
                               dealer_capital=60_000_00,
                               dealer_base=100_000_000, dealer_ra=50_000_000,
                               dealer_deposits=50_000_000,
                               dealer_long=40_000_000, dealer_bills=10_000_000),
        "policies": {"access_mode": "intermediated",
                     "par_policy": {"mode": "best_effort"},
                     "intermediary_mode": "redeem"},
        "market": {"depth": 50_000_000},
        "run_model": {"baseline_rate": 2_000, "shifted_rate": 100_000,
                      "deviation_threshold_bp": 300, "recovery_days": 3},
        "price_model": {"reversion": 700_000, "supply_incident_dip": 5_000},
        "shocks": [{"day": 2, "class": "uncontrolled_supply",
                    "likelihood": "moderate", "systemic": "high",
                    "magnitude": 600_000_000, "duration": 0, "chain": "main"}],
    }
    return cfg


PRESETS = {
    "calm": preset_calm,
    "march2020": preset_march2020,
    "slr_bound": preset_slr_bound,
    "regime_shift": preset_regime_shift,
    "paxos_mint_error": preset_paxos_mint_error,
}


def preset_descriptions() -> dict:
    return {name: (fn.__doc__ or "").strip().splitlines()[0]
            for name, fn in sorted(PRESETS.items())}
