import json

import pytest

from stablesim.config import (PRESETS, ParseError, ValidationError, load_config,
                              parse_config, preset_descriptions)
from stablesim.dynamics import UnknownShockClass
from stablesim.settlement import AccessMode, ParMode


def minimal_raw():
    return {
        "horizon_days": 2,
        "seed": 1,
        "agents": {
            "banks": [{"name": "bank_a"}],
            "issuers": [{"name": "usdx", "bank": "bank_a", "coins": 100_00,
                         "assets": 100_00,
                         "allocation": {"deposits": 100_00, "bills": 0,
                                        "repo": 0}}],
            "dealers": [{"name": "d", "bank": "bank_a", "capital": 10_00,
                         "base_assets": 1_000_00, "reserve_access": 100_00}],
            "holders": [{"name": "h", "bank": "bank_a",
                         "coins": {"usdx": 100_00}}],
            "treasury_buyers": [{"name": "tb", "bank": "bank_a",
                                 "deposits": 1_000_00}],
        },
        "market": {"depth": 1_000_00},
    }


def test_minimal_config_gets_documented_defaults():
    cfg = parse_config(minimal_raw())
    assert cfg.rates.haircut == 20_000                     # 2%
    assert cfg.run_model.deviation_threshold_bp == 300
    assert cfg.policies.access_mode is AccessMode.DIRECT
    assert cfg.policies.par_policy.mode is ParMode.BEST_EFFORT
    assert cfg.market.retention_frac == 335_648
    assert cfg.issuers[0].bill_maturity_days == 45
    assert cfg.issuers[0].genius_compliant is True


def test_allocation_sum_mismatch():
    raw = minimal_raw()
    raw["agents"]["issuers"][0]["allocation"]["bills"] = 1
    with pytest.raises(ValidationError, match="allocations≠assets"):
        parse_config(raw)


def test_coins_must_be_fully_held():
    raw = minimal_raw()
    raw["agents"]["holders"][0]["coins"]["usdx"] = 99_00
    with pytest.raises(ValidationError, match="coins held"):
        parse_config(raw)


def test_unknown_bank_reference():
    raw = minimal_raw()
    raw["agents"]["issuers"][0]["bank"] = "nowhere"
    with pytest.raises(ValidationError, match="unknown bank"):
        parse_config(raw)


def test_march2020_preset_loads():
    cfg = load_config("march2020")
    assert cfg.unit_scale == "USD_bn"
    assert cfg.market.flight_to_safety is True
    issuer = cfg.issuers[0]
    assert issuer.allocation["deposits"] == 0
    assert issuer.coins == 32_400


def test_every_preset_parses_and_is_described():
    for name in PRESETS:
        load_config(name)
    assert set(preset_descriptions()) == set(PRESETS)


def test_parse_error_carries_location(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"horizon_days\": \n}")
    with pytest.raises(ParseError, match="line"):
        load_config(bad)


def test_missing_file_vs_preset(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "absent.json")
    # a path is never read as a preset name, even when it ends in one
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "calm")


def test_at_least_one_dealer():
    raw = minimal_raw()
    raw["agents"]["dealers"] = []
    with pytest.raises(ValidationError, match="at least one dealer"):
        parse_config(raw)


def test_agent_lists_are_canonicalized():
    raw = minimal_raw()
    raw["agents"]["holders"] = [
        {"name": "z", "bank": "bank_a", "coins": {"usdx": 40_00}},
        {"name": "a", "bank": "bank_a", "coins": {"usdx": 60_00}},
    ]
    cfg = parse_config(raw)
    assert [h.name for h in cfg.holders] == ["a", "z"]


def test_duplicate_names_rejected():
    raw = minimal_raw()
    raw["agents"]["holders"].append({"name": "h", "bank": "bank_a"})
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config(raw)


def test_unknown_shock_class_rejected():
    raw = minimal_raw()
    raw["shocks"] = [{"day": 0, "class": "solar_flare"}]
    with pytest.raises(UnknownShockClass):
        parse_config(raw)


def test_shock_day_must_fit_horizon():
    raw = minimal_raw()
    raw["shocks"] = [{"day": 5, "class": "liveness_fault"}]
    with pytest.raises(ValidationError, match="within horizon"):
        parse_config(raw)


def test_intermediated_access_requires_intermediary():
    raw = minimal_raw()
    raw["policies"] = {"access_mode": "intermediated"}
    with pytest.raises(ValidationError, match="intermediary"):
        parse_config(raw)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_raw()))
    cfg = load_config(path)
    assert cfg.horizon_days == 2


def test_compliant_issuer_rejects_long_bills():
    raw = minimal_raw()
    raw["agents"]["issuers"][0]["bill_maturity_days"] = 94
    with pytest.raises(ValidationError, match="93 days"):
        parse_config(raw)
    raw["agents"]["issuers"][0]["genius_compliant"] = False
    parse_config(raw)  # non-compliant issuers may hold longer paper


def _set(path: str, value):
    """A mutation of minimal_raw() that sets the value at a '/' path."""
    def mutate(raw):
        *parents, leaf = path.split("/")
        node = raw
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[int(leaf) if isinstance(node, list) else leaf] = value
    return mutate


BAD_INPUTS = [
    # integers are JSON integers: no strings, floats or booleans
    ("market/depth", "5", "market.depth"),
    ("market/depth", 5.5, "market.depth"),
    ("market/depth", True, "market.depth"),
    ("agents/issuers/0/coins", "100", "agents.issuers[usdx].coins"),
    ("run_model", {"baseline_rate": 20_000.5}, "run_model.baseline_rate"),
    ("agents/issuers/0/allocation/deposits", 10_000.0, "agents.issuers[usdx].allocation.deposits"),
    ("agents/holders/0/coins/usdx", 100_00.0, "agents.holders[h].coins.usdx"),
    ("seed", None, "seed"),
    # booleans are true or false
    ("policies", {"srf_enabled": "no"}, "policies.srf_enabled"),
    ("agents/dealers/0/gsib", 1, "agents.dealers[d].gsib"),
    # strings, objects and lists
    ("agents/issuers/0/chain", 5, "agents.issuers[usdx].chain"),
    ("agents/holders/0/coins", [1], "agents.holders[h].coins"),
    ("market", "x", "market"),
    ("agents", [], "agents"),
    ("agents/holders", {"h": {}}, "agents.holders"),
    ("agents/holders/0", "h", "agents.holders[0]"),
    ("shocks", [{"day": "1", "class": "liveness_fault"}], "shocks[0].day"),
    ("shocks", [{"class": "liveness_fault"}], "shocks[0].day"),
    ("diagnostics", {"attack_cost": 1.5}, "diagnostics.attack_cost"),
    # a section read through a dotted key must be an object too
    ("mint_demand", 5, "mint_demand"),
    ("diagnostics", [], "diagnostics"),
    # a missing required field and enums
    ("market", {}, "market.depth"),
    ("agents/holders/0", {"name": "h", "coins": {"usdx": 100_00}}, "agents.holders[h].bank"),
    ("agents/treasury_buyers/0", {"name": "tb", "deposits": 1_000_00},
     "agents.treasury_buyers[tb].bank"),
    ("agents/dealers/0", {"name": "d", "bank": "bank_a", "base_assets": 1_000_00,
                          "reserve_access": 100_00}, "agents.dealers[d].capital"),
    ("policies", {"access_mode": "teleport"}, "policies.access_mode"),
    ("policies", {"par_policy": {"mode": "corridor"}}, "policies.par_policy.corridor_bp"),
    # a corridor as wide as par has its edge at a price of zero or below
    ("policies", {"par_policy": {"mode": "corridor", "corridor_bp": 10_000}},
     "policies.par_policy.corridor_bp"),
    ("policies", {"par_policy": {"mode": "corridor", "corridor_bp": 20_000}},
     "policies.par_policy.corridor_bp"),
    # amounts in agent entries are >= 0; rates stay signed
    ("agents/holders/0/deposits", -5, "agents.holders[h].deposits"),
    ("agents/holders/0/coins/usdx", -1, "agents.holders[h].coins.usdx"),
    ("agents/holders/0/treasuries_bill", -1, "agents.holders[h].treasuries_bill"),
    ("agents/treasury_buyers/0/treasuries_long", -1, "agents.treasury_buyers[tb].treasuries_long"),
    ("agents/dealers/0/capital", -1, "agents.dealers[d].capital"),
    ("agents/dealers/0/base_assets", -1, "agents.dealers[d].base_assets"),
    ("agents/dealers/0/reserve_access", -1, "agents.dealers[d].reserve_access"),
    ("agents/dealers/0/exposures", -1, "agents.dealers[d].exposures"),
    ("agents/dealers/0/deposits", -1, "agents.dealers[d].deposits"),
    ("agents/issuers/0/operating_cost_per_day", -1, "agents.issuers[usdx].operating_cost_per_day"),
    ("agents/issuers/0/mint_invest_frac", -1, "agents.issuers[usdx].mint_invest_frac"),
    ("shocks", [{"day": 0, "class": "confidence_only", "magnitude": -1}], "shocks[0].magnitude"),
    # values the run cannot carry
    ("policies", {"slr_bound_bp": 0}, "policies.slr_bound_bp"),
    ("price_model", {"min_price": 0}, "price_model.min_price"),
    ("market/depth", 0, "market.depth"),
    ("market/impact_coeff_long", 4_999, "market.impact_coeff_long"),
    ("market/retention_frac", 1_000_000, "market.retention_frac"),
    ("market/retention_frac", -1, "market.retention_frac"),
    # every market integer is >= 0; fractions of a flow are at most all of
    # it, and a capped decline leaves a positive price
    ("market/impact_coeff_bill", -1, "market.impact_coeff_bill"),
    ("market", {"depth": 1_000_00, "impact_coeff_long": -1, "impact_coeff_bill": -2},
     "market.impact_coeff_long"),
    ("market/bill_safety_lift", -1, "market.bill_safety_lift"),
    ("market/eslr_capacity_add", -1, "market.eslr_capacity_add"),
    ("market/max_dislocation_bp", -100, "market.max_dislocation_bp"),
    ("market/max_dislocation_bp", 5_000, "market.max_dislocation_bp"),
    ("market/max_dislocation_bp", 9_999, "market.max_dislocation_bp"),
    ("market/max_dislocation_bp", 10_000, "market.max_dislocation_bp"),
    ("market/max_dislocation_bp", 20_000, "market.max_dislocation_bp"),
    ("market/replacement_frac", -1, "market.replacement_frac"),
    ("market/replacement_frac", 1_000_001, "market.replacement_frac"),
    ("market/replacement_frac", 2_000_000, "market.replacement_frac"),
    ("market/offload_frac", -1, "market.offload_frac"),
    ("market/offload_frac", 1_000_001, "market.offload_frac"),
    ("run_model", {"baseline_rate": 5_000, "shifted_rate": 5_000}, "run_model.shifted_rate"),
    ("run_model", {"deviation_threshold_bp": 0}, "run_model.deviation_threshold_bp"),
    # every run_model and price_model integer is >= 0, as in market; a
    # price floor above par would pin the coin above par
    ("run_model", {"baseline_rate": -1}, "run_model.baseline_rate"),
    ("run_model", {"baseline_rate": -5, "shifted_rate": -1}, "run_model.baseline_rate"),
    ("run_model", {"recovery_days": -1}, "run_model.recovery_days"),
    ("run_model", {"delay_trigger_days": -1}, "run_model.delay_trigger_days"),
    ("price_model", {"overdue_coeff": -100_000}, "price_model.overdue_coeff"),
    ("price_model", {"failure_coeff": -1}, "price_model.failure_coeff"),
    ("price_model", {"reversion": -1}, "price_model.reversion"),
    ("price_model", {"supply_incident_dip": -1}, "price_model.supply_incident_dip"),
    ("price_model", {"min_price": -1}, "price_model.min_price"),
    ("price_model", {"min_price": 1_000_001}, "price_model.min_price"),
    ("price_model", {"min_price": 2_000_000}, "price_model.min_price"),
    ("policies", {"intermediary_mode": "hold"}, "policies.intermediary_mode"),
    ("policies", {"access_mode": "intermediated"}, "policies.access_mode"),
    ("rates", {"haircut": -1}, "rates.haircut"),
    # a negative mint rate would be ignored, not minted at
    ("mint_demand", {"daily_rate": -5}, "mint_demand.daily_rate"),
    ("agents/issuers/0/mint_invest_frac", 1_000_001, "agents.issuers[usdx].mint_invest_frac"),
    ("diagnostics", {"attack_cost": 0}, "diagnostics.attack_cost"),
    ("agents/dealers/0/base_assets", 0, "agents.dealers[d].base_assets"),
    # keys no field is read from
    ("policies", {"srf_enabeld": True}, "policies.srf_enabeld"),
    ("policies", {"par_policy": {"corridor_width": 5}}, "policies.par_policy.corridor_width"),
    ("mint_demand", {"daily_rat": 1}, "mint_demand.daily_rat"),
    ("banks", [], "banks"),
    ("agents/holder", [], "agents.holder"),
    ("agents/banks/0/kind", "bank", "agents.banks[bank_a].kind"),
    ("agents/holders/0/coin", {"usdx": 1}, "agents.holders[h].coin"),
    # holdings the engine never endows
    ("agents/holders/0/treasuries_bill", 5, "agents.holders[h].treasuries_bill"),
    ("agents/intermediaries", [{"name": "im", "bank": "bank_a", "treasuries_long": 5}],
     "agents.intermediaries[im].treasuries_long"),
    ("agents/treasury_buyers/0/coins", {"usdx": 1}, "agents.treasury_buyers[tb].coins"),
    ("agents/dealers/0/klass", 1, "agents.dealers[d].klass"),
    # one name, one agent: a bank and an agent, or two agent lists, share none
    ("agents/holders/0/name", "bank_a", "agents.holders[bank_a].name"),
    ("agents/dealers/0/name", "usdx", "agents.dealers[usdx].name"),
    ("agents/treasury_buyers/0/name", "h", "agents.treasury_buyers[h].name"),
    ("shocks", [{"day": 0, "class": "liveness_fault", "klass": "x"}], "shocks[0].klass"),
]


@pytest.mark.parametrize("path,value,field", BAD_INPUTS,
                         ids=[f"{p}={v!r}" for p, v, _ in BAD_INPUTS])
def test_bad_input_names_its_field(path, value, field):
    raw = minimal_raw()
    _set(path, value)(raw)
    with pytest.raises(ValidationError) as err:
        parse_config(raw)
    message = str(err.value)
    assert message.startswith(f"{field}:") or message == f"missing field: {field}", message


def test_signed_rates_and_sections_left_out_parse():
    raw = minimal_raw()
    raw["rates"] = {"treasury_rate_daily": -1, "repo_rate_daily": -2}
    raw["diagnostics"] = {"attack_cost": None}
    cfg = parse_config(raw)
    assert (cfg.rates.treasury_rate_daily, cfg.rates.repo_rate_daily) == (-1, -2)
    assert cfg.attack_cost is None and cfg.mint_daily_rate == 0
    assert cfg.seed == 1 and cfg.policies.srf_enabled is False


def test_corridor_narrower_than_par_parses():
    """A corridor of 9_999 bp keeps its edge above a zero price; the width
    is read only for a corridor."""
    raw = minimal_raw()
    raw["policies"] = {"par_policy": {"mode": "corridor", "corridor_bp": 9_999}}
    assert parse_config(raw).policies.par_policy.corridor_width == 9_999 * 100
    raw["policies"] = {"par_policy": {"mode": "best_effort", "corridor_bp": 10_000}}
    assert parse_config(raw).policies.par_policy.mode is ParMode.BEST_EFFORT


def test_market_values_at_their_bounds_parse():
    raw = minimal_raw()
    raw["market"].update(max_dislocation_bp=4_999, replacement_frac=1_000_000,
                         offload_frac=1_000_000, retention_frac=0, impact_coeff_bill=0,
                         impact_coeff_long=0, bill_safety_lift=0, eslr_capacity_add=0)
    market = parse_config(raw).market
    assert (market.max_dislocation_bp, market.replacement_frac, market.offload_frac) == (
        4_999, 1_000_000, 1_000_000)


def test_model_values_at_their_bounds_parse():
    raw = minimal_raw()
    raw["run_model"] = {"baseline_rate": 0, "shifted_rate": 1, "recovery_days": 0,
                        "delay_trigger_days": 0}
    raw["price_model"] = {"overdue_coeff": 0, "failure_coeff": 0, "reversion": 0,
                          "supply_incident_dip": 0, "min_price": 1_000_000}
    cfg = parse_config(raw)
    assert (cfg.run_model.baseline_rate, cfg.price_model.min_price) == (0, 1_000_000)


def test_misspelled_field_is_rejected_not_defaulted():
    raw = minimal_raw()
    raw["policies"] = {"srf_enabeld": True}
    with pytest.raises(ValidationError, match=r"^policies\.srf_enabeld: unknown key$"):
        parse_config(raw)
    raw["policies"] = {"srf_enabled": True}
    assert parse_config(raw).policies.srf_enabled is True
