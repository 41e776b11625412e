"""Scenario configuration: schema, validation, defaults and presets.

A scenario file is JSON with the sections below. Every monetary field
is an integer in minor units (hundredths of the declared unit scale);
every fraction, rate or price is an integer in micro units
(1_000_000 == 1.0 == par == 100%); basis points are written as micro
values too (1bp == 100).

Nothing is coerced: integers are JSON integers (not 5.5, "5" or true),
booleans are true or false. The integers of agent entries, shocks and
the market, run_model and price_model sections are >= 0; rates stay
signed. A key not named below is rejected, e.g.
"policies.srf_enabeld: unknown key". A field left out takes the default in
parentheses. Errors name the dotted path first, e.g. "market.depth:
expected an integer, got 5.5" or "agents.holders[h_1].coins.usdx: ...".

  unit_scale      label documenting what one major unit means, e.g.
                  "USD" (minor unit = cent) or "USD_bn" (minor unit =
                  0.01 billion). Outputs are reported in minor units of
                  this scale. (default "USD")
  horizon_days    number of simulated business days (>= 1)
  seed            64-bit seed for the fixed SplitMix64 generator (0)
  agents:           every name, bank or agent, names one of them only
    banks         [{name}]
    issuers       [{name, bank, chain ("main"), coins (> 0), assets,
                    allocation: {deposits (0), bills (0), repo (0)},
                    bill_maturity_days (45), genius_compliant (true),
                    mint_invest_frac (0, at most 1_000_000),
                    operating_cost_per_day (0), count_excess_collateral (false)}]
    dealers       [{name, bank, capital, base_assets, exposures (0),
                    gsib (true), reserve_access, deposits (0),
                    treasuries_bill (0), treasuries_long (0)}], at least one;
                    base_assets + exposures > 0
    intermediaries[{name, bank, deposits (0), coins: {issuer: amount} ({})}]
    holders       [{name, bank, deposits (0), coins: {issuer: amount} ({})}]
    treasury_buyers[{name, bank, deposits (0), treasuries_bill (0),
                    treasuries_long (0)}], at least one
  policies:
    access_mode               "direct" (default) | "intermediated"
    par_policy                {mode: "best_effort" (default) | "corridor" |
                               "rigorous_fixed", corridor_bp (0; > 0 and < 10_000
                               for a corridor)}
    srf_enabled               false
    issuer_reserve_access     false   (issuers may hold central bank
                                       reserves; redemptions can then
                                       settle from reserves same-day)
    eslr_reform               false
    intermediary_mode         "redeem" (default) | "warehouse"
    negative_carry_refusal    true
    slr_bound_bp              null    (override, > 0; else 3% / 5% by gsib)
  market:           every integer >= 0
    depth (> 0), impact_coeff_long (15000, >= impact_coeff_bill),
    impact_coeff_bill (5000), max_dislocation_bp (500, < 5000: a capped
    decline keeps a price of 1 micro at 1), retention_frac (335648 micro,
    i.e. 72.5/216; < 1_000_000), flight_to_safety (false),
    bill_safety_lift (0), replacement_frac (0, at most 1_000_000),
    offload_frac (250000, at most 1_000_000), eslr_capacity_add (0)
  run_model:        every integer >= 0
    baseline_rate (1000), deviation_threshold_bp (300),
    shifted_rate (100000, > baseline_rate),
    recovery_days (5), delay_trigger_days (2), smooth (false)
  price_model:      every integer >= 0
    overdue_coeff (100000), failure_coeff (100000), reversion (500000),
    min_price (100000, > 0, at most 1_000_000), supply_incident_dip (5000)
  rates:
    treasury_rate_daily (0), deposit_rate_daily (0),
    repo_rate_daily (0), haircut (20000 = 2%)
  mint_demand:
    daily_rate (0, >= 0)  micro fraction of coins minted per day by buyers
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

Each section is read by a reader compiled once, at import. The engine,
the market and the settlement books read the parsed sections, never a
copy, so each range check lives once, in parse_config.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .dynamics import (LikelihoodBand, PriceParams, RunModel, ShockClass, ShockSpec,
                       SystemicBand, UnknownShockClass)
from .instruments import GENIUS_MAX_BILL_DAYS
from .money import BP, PAR
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
    deposits: int = 0
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
    par_policy: ParPolicy = ParPolicy()
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
    banks: tuple
    issuers: tuple
    dealers: tuple
    intermediaries: tuple
    holders: tuple
    treasury_buyers: tuple
    market: MarketConfig
    seed: int = 0
    policies: PolicyConfig = PolicyConfig()
    run_model: RunModelConfig = RunModelConfig()
    price_model: PriceParams = PriceParams()
    rates: RatesConfig = RatesConfig()
    shocks: tuple = ()
    mint_daily_rate: int = 0
    attack_cost: int | None = None
    unit_scale: str = "USD"

    def canonical_json(self) -> str:
        """Compact, key-sorted JSON of the config, hashed in summaries;
        every dict in it is keyed by strings."""
        return json.dumps(self, default=_encode, sort_keys=True, separators=(",", ":"))


def _encode(obj):
    if hasattr(obj, "__dataclass_fields__"):
        return obj.__dict__   # exactly the fields: no config dataclass sets more
    if hasattr(obj, "value"):
        return obj.value
    raise TypeError(f"cannot encode {type(obj)}")


def _require(condition: bool, constraint: str) -> None:
    if not condition:
        raise ValidationError(constraint)


def _path(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _wrong(where: str, expected: str, value) -> ValidationError:
    return ValidationError(f"{where}: expected {expected}, got {json.dumps(value, default=repr)}")


# a kind's JSON types, and what a value of another type is told it expected
_KINDS = {"int": ({int}, "an integer"), "bool": ({bool}, "true or false"),
          "str": ({str}, "a string"), "int | None": ({int, type(None)}, "an integer"),
          "dict": ({dict}, "an object"), "list": ({list}, "a list")}


def _reader(kind: str) -> Callable:
    """(value, where, key) -> value, which must be of `kind`."""
    types, expected = _KINDS[kind]

    def read(value, where: str, key):
        if type(value) not in types:
            raise _wrong(_path(where, key), expected, value)
        return value
    return read


_int, _object, _list = map(_reader, ("int", "dict", "list"))


class _Read(NamedTuple):
    """A field read by `read` from `key` (None: the field name; dotted: nested)."""
    read: Callable
    key: str | None = None


def _section(cls, given: dict, amounts: bool = False) -> Callable:
    """Compile the reader `read(raw, where, at=None, **passed)` of a JSON
    object at dotted path `where`, or at its key `at`, into dataclass `cls`:
    a present field is checked against its kind, a missing one left to its
    default. `given` maps a field to its value or to a `_Read` (renamed,
    enum or nested fields), `passed` to its value in one read. With
    `amounts`, integers must be >= 0. A key no field is read from is
    rejected by its dotted path."""
    fields = dataclasses.fields(cls)
    kinds = {f.name: _KINDS[f.type] for f in fields if f.type in _KINDS and f.name not in given}
    required = [f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING]
    constants = {name: spec for name, spec in given.items() if type(spec) is not _Read}
    # (field, reader, objects on the way, key, required) of each `_Read`
    reads, read_keys = [], set()
    for name, spec in given.items():
        if type(spec) is _Read:
            read_keys.add(dotted := spec.key or name)
            *parts, key = dotted.split(".")
            reads.append((name, spec.read, parts, key, name in required))

    def read(raw, where: str, at=None, **passed):
        if at is not None:
            where = _path(where, at)
        if type(raw) is not dict:
            raise _wrong(where, "an object", raw)
        values = {**constants, **passed}
        unread = {}   # the keys of `raw` no reader takes
        for key, value in raw.items():
            if (kind := kinds.get(key)) is None:
                if key not in read_keys:
                    unread[key] = value
                continue
            if type(value) not in kind[0]:
                raise _wrong(_path(where, key), kind[1], value)
            values[key] = value
            if amounts and type(value) is int and value < 0:
                raise _wrong(_path(where, key), "an integer >= 0", value)
        for name, field_read, parts, key, needed in reads:
            node, path = raw, where
            for part in parts:
                node, path = _object(node.get(part, {}), path, part), _path(path, part)
            if key in node:
                values[name] = field_read(node[key], path, key)
            elif needed:
                raise ValidationError(f"missing field: {_path(path, key)}")
        for name in required:
            if name not in values:
                raise ValidationError(f"missing field: {_path(where, name)}")
        if unread:
            _known_keys(unread, where, read_keys)
        return cls(**values)
    return read


def _known_keys(raw: dict, where: str, read_keys) -> None:
    """Reject a key of `raw` that is none of the dotted `read_keys` and no
    object on the way to one of them."""
    for key, value in raw.items():
        if key in read_keys:
            continue
        below = {k.split(".", 1)[1] for k in read_keys if k.startswith(f"{key}.")}
        if not below:
            raise ValidationError(f"{_path(where, key)}: unknown key")
        _known_keys(value, _path(where, key), below)


def _enum(enum_cls, label: str, error=ValidationError) -> Callable:
    members = {member.value: member for member in enum_cls}  # all values are str

    def read(value, where: str, key):
        if type(value) is str and value in members:
            return members[value]
        raise error(f"{_path(where, key)}: unknown {label}: {value}")
    return read


_ALLOCATION = {"deposits": 0, "bills": 0, "repo": 0}  # the default of each key


def _holdings(value, where: str, key) -> dict:
    """An object of amounts >= 0, e.g. coins by issuer name."""
    for name, amount in _object(value, where, key).items():
        if type(amount) is not int or amount < 0:
            raise _wrong(f"{_path(where, key)}.{name}", "an integer >= 0", amount)
    return dict(value)


def _allocation(value, where: str, key) -> dict:
    for k in _holdings(value, where, key):
        _require(k in _ALLOCATION, f"{_path(where, key)}: unknown allocation key: {k}")
    return {**_ALLOCATION, **value}


_SHOCK = _section(ShockSpec, {
    "klass": _Read(_enum(ShockClass, "shock class", UnknownShockClass), "class"),
    "likelihood_band": _Read(_enum(LikelihoodBand, "likelihood band"), "likelihood"),
    "systemic_band": _Read(_enum(SystemicBand, "systemic band"), "systemic")}, amounts=True)


def _shocks(value, where: str, key) -> tuple:
    shocks = []
    for i, entry in enumerate(_list(value, where, key)):
        at = f"{_path(where, key)}[{i}]"
        _require("day" in _object(entry, "", at), f"missing field: {at}.day")  # no default here
        shocks.append(_SHOCK(entry, at))
    return tuple(sorted(shocks, key=lambda s: (s.day, s.klass.value, s.chain)))


# The ScenarioConfig reader; each parse passes it the banks and agent tuples.
_SCENARIO = _section(ScenarioConfig, {
    "policies": _Read(_section(PolicyConfig, {
        "access_mode": _Read(_enum(AccessMode, "access mode")),
        "par_policy": _Read(_section(ParPolicy, {
            "mode": _Read(_enum(ParMode, "par mode")),
            "corridor_width": _Read(lambda v, at, k: _int(v, at, k) * BP, "corridor_bp")}))})),
    "market": _Read(_section(MarketConfig, {}, amounts=True)),
    "run_model": _Read(_section(RunModelConfig, {}, amounts=True)),
    "price_model": _Read(_section(PriceParams, {}, amounts=True)),
    "rates": _Read(_section(RatesConfig, {})),
    "shocks": _Read(_shocks),
    "mint_daily_rate": _Read(_int, "mint_demand.daily_rate"),
    "attack_cost": _Read(_reader("int | None"), "diagnostics.attack_cost"),
})
# The reader of each agent list's entries. A holder or intermediary holds no
# Treasuries, a treasury buyer no coins: the engine endows neither, so a
# config that sets them is rejected.
_HOLDER = _section(SimpleAgentConfig, {"coins": _Read(_holdings), "treasuries_bill": 0,
                                       "treasuries_long": 0}, amounts=True)
_AGENT_LISTS = {"banks": None, "intermediaries": _HOLDER, "holders": _HOLDER,
                "issuers": _section(IssuerConfig, {"allocation": _Read(_allocation)},
                                    amounts=True),
                "dealers": _section(DealerConfig, {}, amounts=True),
                "treasury_buyers": _section(SimpleAgentConfig, {"coins": {}}, amounts=True)}


def load_raw(path: str | Path) -> dict:
    """The unparsed scenario of a preset name or a JSON file."""
    if isinstance(path, str) and path in PRESETS:
        return PRESETS[path]()
    if not Path(path).exists():
        raise FileNotFoundError(f"no such config file or preset: {path}")
    return load_json(path)


def load_json(path: str | Path):
    """The JSON value of a file; a file that does not decode raises a `ParseError` naming it."""
    p = Path(path)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ParseError(f"{p}: byte {err.start}: not UTF-8 text") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{p}: line {err.lineno} column {err.colno}: {err.msg}") from err
    except RecursionError as err:
        raise ParseError(f"{p}: nested too deeply to decode") from err


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a scenario file or named preset."""
    return parse_config(load_raw(path))


def parse_config(raw: dict) -> ScenarioConfig:
    if type(raw) is not dict:
        raise ParseError("scenario must be a JSON object")
    _require("agents" in raw, "missing field: agents")
    agents = _object(raw["agents"], "", "agents")
    _known_keys(agents, "agents", _AGENT_LISTS)
    named = {}   # every bank and agent name -> its path: one name, one agent
    for where, entry in _named(agents, "banks"):
        _known_keys(entry, where, {"name"})
        named[entry["name"]] = where
    bank_names = set(named)
    _require(len(bank_names) > 0, "agents.banks: at least one bank")

    def parse(section: str) -> dict:  # path -> entry, by name
        out = {w: _AGENT_LISTS[section](e, w) for w, e in _named(agents, section)}
        for where, agent in out.items():
            if agent.bank not in bank_names:
                raise ValidationError(f"{where}.bank: unknown bank: {agent.bank}")
            if agent.name in named:
                raise ValidationError(
                    f"{where}.name: {agent.name} already names {named[agent.name]}")
            named[agent.name] = where
        return out

    issuers, dealers, intermediaries, holders, buyers = map(parse, (
        "issuers", "dealers", "intermediaries", "holders", "treasury_buyers"))
    for section, entries in (("issuers", issuers), ("dealers", dealers),
                             ("treasury_buyers", buyers)):
        _require(len(entries) > 0, f"agents.{section}: at least one {section[:-1]}")

    held = dict.fromkeys((i.name for i in issuers.values()), 0)
    for where, agent in {**intermediaries, **holders}.items():
        for name, amount in agent.coins.items():
            if name not in held:
                raise ValidationError(f"{where}.coins.{name}: unknown issuer: {name}")
            held[name] += amount
    for where, issuer in issuers.items():
        _require(sum(issuer.allocation.values()) == issuer.assets,
                 f"{where}.assets: allocations≠assets")
        _require(issuer.coins > 0, f"{where}.coins: must be > 0")
        _require(held[issuer.name] == issuer.coins,
                 f"{where}.coins: coins held ({held[issuer.name]}) must equal "
                 f"coins outstanding ({issuer.coins}) for {issuer.name}")
        _require(issuer.mint_invest_frac <= 1_000_000,
                 f"{where}.mint_invest_frac: must be <= 1_000_000")
        _require(not issuer.genius_compliant or issuer.bill_maturity_days <= GENIUS_MAX_BILL_DAYS,
                 f"{where}.bill_maturity_days: compliant issuers hold bills "
                 f"of {GENIUS_MAX_BILL_DAYS} days or less")
    for where, dealer in dealers.items():   # the leverage ratio divides by their sum
        _require(dealer.base_assets + dealer.exposures > 0,
                 f"{where}.base_assets: base_assets + exposures must be > 0")

    read_above = {key: value for key, value in raw.items() if key != "agents"}
    config = _SCENARIO(
        read_above, "", banks=tuple(sorted(bank_names)), issuers=tuple(issuers.values()),
        dealers=tuple(dealers.values()), intermediaries=tuple(intermediaries.values()),
        holders=tuple(holders.values()), treasury_buyers=tuple(buyers.values()))
    policies, market, run_model = config.policies, config.market, config.run_model
    if policies.par_policy.mode is ParMode.CORRIDOR:
        width = policies.par_policy.corridor_width
        _require(width > 0, "policies.par_policy.corridor_bp: corridor width must be positive")
        # a corridor as wide as par has its edge at a price of zero or below
        _require(width < PAR, "policies.par_policy.corridor_bp: must be < 10_000")
    _require(config.horizon_days >= 1, "horizon_days: must be >= 1")
    _require(0 <= config.seed < 2 ** 64, "seed: must be a 64-bit unsigned integer")
    _require(policies.intermediary_mode in ("redeem", "warehouse"),
             "policies.intermediary_mode: must be redeem or warehouse")
    _require(policies.slr_bound_bp is None or policies.slr_bound_bp > 0,
             "policies.slr_bound_bp: must be > 0")
    _require(policies.access_mode is not AccessMode.INTERMEDIATED or intermediaries,
             "policies.access_mode: intermediated access needs an intermediary")
    _require(market.depth > 0, "market.depth: must be > 0")
    _require(market.impact_coeff_long >= market.impact_coeff_bill,
             "market.impact_coeff_long: must be >= impact_coeff_bill")
    _require(market.retention_frac < 1_000_000, "market.retention_frac: must be < 1_000_000")
    for name in ("replacement_frac", "offload_frac"):
        _require(getattr(market, name) <= 1_000_000, f"market.{name}: must be <= 1_000_000")
    # below 50% a capped decline rounds a price of 1 micro to at least 1;
    # at 50% it rounds half to even, to 0
    _require(market.max_dislocation_bp < 5_000, "market.max_dislocation_bp: must be < 5_000")
    _require(run_model.shifted_rate > run_model.baseline_rate,
             "run_model.shifted_rate: must be > baseline_rate")
    _require(run_model.deviation_threshold_bp > 0, "run_model.deviation_threshold_bp: must be > 0")
    _require(config.rates.haircut >= 0, "rates.haircut: must be >= 0")
    _require(config.mint_daily_rate >= 0, "mint_demand.daily_rate: must be >= 0")
    _require(config.price_model.min_price > 0, "price_model.min_price: must be > 0")
    _require(config.price_model.min_price <= 1_000_000,
             "price_model.min_price: must be <= 1_000_000")
    _require(all(s.day < config.horizon_days for s in config.shocks), "shocks: day within horizon")
    _require(config.attack_cost is None or config.attack_cost > 0,
             "diagnostics.attack_cost: must be > 0")
    return config


def _named(agents: dict, section: str) -> list:
    """(path, entry) for each entry of one agent list, sorted by name."""
    where, named = f"agents.{section}", {}
    for i, entry in enumerate(_list(agents.get(section, []), "", where)):
        name = entry.get("name") if type(entry) is dict else None
        if type(name) is not str or not name:
            raise ValidationError(f"{where}[{i}]: every {section} entry is an object with a name")
        if name in named:
            raise ValidationError(f"{where}[{name}]: duplicate names in {section}")
        named[name] = entry
    return [(f"{where}[{name}]", named[name]) for name in sorted(named)]


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _base_agents(coins: int, deposits: int, bills: int, repo: int,
                 dealer_capital: int, dealer_base: int, dealer_ra: int,
                 dealer_deposits: int, dealer_long: int, dealer_bills: int) -> dict:
    return {
        "banks": [{"name": "bank_a"}],
        "issuers": [{
            "name": "usdx", "bank": "bank_a", "chain": "main",
            "coins": coins, "assets": deposits + bills + repo,
            "allocation": {"deposits": deposits, "bills": bills, "repo": repo},
        }],
        "dealers": [
            {"name": name, "bank": "bank_a", "capital": dealer_capital,
             "base_assets": dealer_base, "reserve_access": dealer_ra,
             "deposits": dealer_deposits, "gsib": True,
             "treasuries_long": dealer_long, "treasuries_bill": dealer_bills}
            for name in ("dealer_1", "dealer_2")],
        "intermediaries": [{"name": "im_1", "bank": "bank_a",
                            "deposits": coins}],
        "holders": [{"name": "h_1", "bank": "bank_a",
                     "deposits": 0, "coins": {"usdx": coins}}],
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
                {"name": name, "bank": "bank_a", "capital": 1_500,
                 "base_assets": 30_000, "reserve_access": 10_000,
                 "deposits": 40_000, "gsib": True,
                 "treasuries_long": 30_000, "treasuries_bill": 10_000}
                for name in ("dealer_1", "dealer_2")],
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
    return {
        "unit_scale": "USD",
        "horizon_days": 5,
        "seed": 11,
        "agents": _base_agents(coins=100_000_00, deposits=0, bills=6_000_000,
                               repo=4_000_000, dealer_capital=500_000,
                               dealer_base=10_000_000, dealer_ra=5_000_000,
                               dealer_deposits=20_000_000, dealer_long=8_000_000,
                               dealer_bills=2_000_000),
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
    return {
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
