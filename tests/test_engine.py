import csv
import hashlib
import io
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablesim import engine
from stablesim.analytics import (ANALYTICS_FIELDS, CapitalBand, LeverageReport,
                                 LiquidityReport, SlrReport, holdings_liquidity,
                                 leverage_ratio)
from stablesim.cli import main as cli_main
from stablesim.config import PRESETS, load_config, parse_config
from stablesim.engine import (DAILY_FIELDS, PHASES, AuditFailure, _fed_bill_purchase,
                              _issuer_holdings, build_scenario, run, sweep)
from stablesim.instruments import InsufficientCollateral, step_portfolio
from stablesim.ledger import FED, DurationClass, LedgerWorld, _Form, deposit_key
from stablesim.money import BP, PAR, mul_frac


def issuer_rows(out, name="usdx"):
    return [r for r in out.daily_rows if r["kind"] == "issuer" and r["agent"] == name]


def test_calm_scenario_holds_par_with_no_delays():
    out = run(load_config("calm"))
    for row in issuer_rows(out):
        assert row["price"] == PAR
    summary = out.summary["issuers"]["usdx"]
    assert summary["delayed_total"] == 0
    assert summary["max_delay_days"] == 0
    assert summary["peak_deviation_bp"] == 0


def test_surge_against_jammed_dealers_delays_and_breaks_par():
    cfg = load_config("regime_shift")
    out = run(cfg)
    summary = out.summary["issuers"]["usdx"]
    # roughly two thirds of coins requested within the first three days
    requested = sum(r["requested"] for r in issuer_rows(out)[:3])
    assert requested >= mul_frac(32_400_00, 600_000)
    assert summary["delayed_total"] > 0
    assert summary["peak_deviation_bp"] > cfg.run_model.deviation_threshold_bp


def test_same_seed_same_bytes():
    cfg = load_config("march2020")
    a, b = run(cfg), run(cfg)
    assert a.daily_csv() == b.daily_csv()
    assert a.market_csv() == b.market_csv()
    assert a.summary_json() == b.summary_json()
    assert a.events_jsonl() == b.events_jsonl()


def test_declaration_order_never_matters():
    raw1 = PRESETS["march2020"]()
    raw2 = PRESETS["march2020"]()
    raw2["agents"]["dealers"].reverse()
    raw2["agents"]["holders"].reverse()
    out1, out2 = run(parse_config(raw1)), run(parse_config(raw2))
    assert out1.daily_csv() == out2.daily_csv()
    assert out1.events_jsonl() == out2.events_jsonl()
    assert out1.summary_json() == out2.summary_json()


def test_liveness_fault_blocks_settlement_then_queue_drains():
    raw = PRESETS["calm"]()
    raw["horizon_days"] = 8
    raw["shocks"] = [{"day": 1, "class": "liveness_fault", "duration": 2,
                      "chain": "main"}]
    out = run(parse_config(raw))
    completions = {}
    for event in out.events:
        if event["type"] == "redemption_completed":
            completions.setdefault(event["day"], 0)
            completions[event["day"]] += event["amount"]
    assert 1 not in completions and 2 not in completions
    assert completions.get(3, 0) > 0
    rows = issuer_rows(out)
    # the queue built during the fault clears afterwards
    assert rows[3]["completed"] > rows[3]["requested"]
    assert out.summary["issuers"]["usdx"]["max_delay_days"] >= 2
    assert rows[-1]["overdue"] == 0


def test_uncontrolled_supply_drops_leverage_band(check_indexes):
    raw = PRESETS["calm"]()
    raw["horizon_days"] = 6
    raw["shocks"] = [{"day": 2, "class": "uncontrolled_supply",
                      "magnitude": 100_000, "duration": 3, "chain": "main"}]
    out = run(parse_config(raw), on_day_end=check_indexes)
    rows = issuer_rows(out)
    assert rows[1]["band"] == "critically_undercapitalized"  # thin but positive
    assert rows[1]["ratio"] > 0
    assert rows[2]["ratio"] < 0
    assert out.summary["issuers"]["usdx"]["insolvency_day"] == 2
    # corrective burn restores the band
    assert rows[5]["ratio"] > 0


def test_correlated_liveness_hits_both_issuers():
    raw = PRESETS["calm"]()
    agents = raw["agents"]
    agents["issuers"].append({
        "name": "usdy", "bank": "bank_a", "chain": "main",
        "coins": 1_000_00, "assets": 1_000_00,
        "allocation": {"deposits": 1_000_00, "bills": 0, "repo": 0}})
    agents["holders"][0]["coins"]["usdy"] = 1_000_00
    raw["shocks"] = [{"day": 1, "class": "correlated_liveness", "duration": 2,
                      "chain": "main"}]
    out = run(parse_config(raw))
    for name in ("usdx", "usdy"):
        rows = issuer_rows(out, name)
        assert rows[2]["overdue"] > 0
        assert out.summary["issuers"][name]["max_delay_days"] >= 1


def test_shocks_apply_in_day_class_chain_order():
    """Shocks listed out of order apply by day, then class, then chain:
    two on day 1 and one on day 3."""
    raw = PRESETS["calm"]()
    raw["horizon_days"] = 5
    raw["shocks"] = [
        {"day": 3, "class": "confidence_only", "magnitude": 10_000},
        {"day": 1, "class": "liveness_fault", "duration": 1, "chain": "side"},
        {"day": 1, "class": "confidence_only", "magnitude": 10_000},
    ]
    out = run(parse_config(raw))
    assert [(e["day"], e["klass"], e["chain"]) for e in out.events
            if e["type"] == "shock_applied"] == [
        (1, "confidence_only", "main"), (1, "liveness_fault", "side"),
        (3, "confidence_only", "main")]


def test_issuer_reserve_access_removes_sale_delays():
    base = PRESETS["slr_bound"]()
    blocked = run(parse_config(base))
    base["policies"]["issuer_reserve_access"] = True
    unblocked = run(parse_config(base))
    assert blocked.summary["issuers"]["usdx"]["delayed_total"] > 0
    assert (unblocked.summary["issuers"]["usdx"]["delayed_total"]
            < blocked.summary["issuers"]["usdx"]["delayed_total"])
    assert unblocked.summary["market"]["seller_volume"] == 0


def test_reserve_access_sale_leaves_both_equities_unchanged():
    """A bill sale to the central bank swaps the issuer's bills for
    deposits and pays for them in new reserves: the Fed gains the bills
    and owes the reserves, so neither side's equity moves."""
    raw = PRESETS["march2020"]()
    raw["policies"]["issuer_reserve_access"] = True
    scn = build_scenario(parse_config(raw))
    world, issuer = scn.world, scn.settle.issuers["issuer:0"].agent
    equities = (world.sheet(FED).equity, world.sheet(issuer).equity)
    deposits = world.deposits(issuer)
    moved = _fed_bill_purchase(scn, issuer, 7_776)
    assert moved > 0 and world.deposits(issuer) == deposits + moved
    assert (world.sheet(FED).equity, world.sheet(issuer).equity) == equities
    assert world.audit().ok


def test_rigorous_fixed_restores_par_within_one_tick():
    raw = PRESETS["calm"]()
    raw["horizon_days"] = 6
    raw["policies"] = {"access_mode": "intermediated",
                       "par_policy": {"mode": "rigorous_fixed"}}
    raw["rates"] = {"treasury_rate_daily": 100}
    raw["shocks"] = [{"day": 2, "class": "confidence_only",
                      "magnitude": 20_000, "duration": 0, "chain": "main"}]
    out = run(parse_config(raw))
    prices = [r["price"] for r in issuer_rows(out)]
    assert prices[2] == PAR - 20_000
    assert prices[3] == PAR
    assert all(p == PAR for p in prices[3:])


def test_eq1_progression_matches_engine_accrual():
    # one calm day with nonzero rates: the issuer book moves exactly as
    # the one-period portfolio progression predicts
    raw = PRESETS["calm"]()
    raw["horizon_days"] = 1
    raw["run_model"] = {"baseline_rate": 1, "shifted_rate": 2}
    raw["rates"] = {"treasury_rate_daily": 2_000, "deposit_rate_daily": 1_000,
                    "repo_rate_daily": 0}
    cfg = parse_config(raw)
    scn = build_scenario(cfg)
    issuer = scn.settle.issuers["issuer:0"].agent
    bank = scn.world.banks[issuer.key]
    from stablesim.instruments import PortfolioState

    start = PortfolioState(
        treasury_face=scn.world.face_of(issuer, DurationClass.BILL),
        treasury_price=scn.world.price(DurationClass.BILL),
        deposits=scn.world.sheet(issuer).asset(f"deposit@{bank.key}"),
        rate_treasury=2_000, rate_deposit=1_000,
        repo_principal=scn.registry.total_principal(issuer))
    redeemed = mul_frac(scn.world.coins_outstanding(issuer), 1)
    expected = step_portfolio(start, 0, -redeemed)

    totals = []

    def watch(live, day):
        agent = live.settle.issuers["issuer:0"].agent
        b = live.world.banks[agent.key]
        totals.append(
            live.world.sheet(agent).asset(f"deposit@{b.key}")
            + live.world.tbill_value(agent)
            + live.registry.total_principal(agent))

    run(cfg, on_day_end=watch)
    assert totals[0] == expected.total


def test_snapshot_feeds_volume_accounting():
    # the world snapshot at a stress day carries the positions the
    # market decomposition is computed from
    cfg = load_config("march2020")
    snaps = {}

    def watch(scn, day):
        snaps[day] = scn.world.snapshot()

    out = run(cfg, on_day_end=watch)
    day0 = snaps[0]
    issuer_bills = day0.agent("issuer:0")
    held = {a["instrument"]: a["amount"] for a in issuer_bills["assets"]}
    submitted = out.market_rows[0]["submitted"]
    assert submitted <= 8_100 <= held.get("tbill/bill", 0) + submitted


def test_sweep_empty_grid_is_single_baseline(tmp_path):
    raw = PRESETS["calm"]()
    report = sweep(raw, {}, out_dir=tmp_path)
    assert len(report.points) == 1
    standalone = run(parse_config(PRESETS["calm"]()))
    assert report.points[0].summary == standalone.summary
    assert (tmp_path / "matrix.csv").exists()
    assert (tmp_path / "point_000" / "daily.csv").exists()


def test_sweep_slr_bound_moves_capacity_and_deviation_monotonically():
    raw = PRESETS["regime_shift"]()
    report = sweep(raw, {"policies.slr_bound_bp": [300, 500]})
    assert all(p.error is None for p in report.points)
    by_bound = {p.overrides["policies.slr_bound_bp"]: p for p in report.points}
    cap3 = by_bound[300].summary["market"]["capacity_day0"]
    cap5 = by_bound[500].summary["market"]["capacity_day0"]
    assert cap3 >= cap5
    dev3 = by_bound[300].summary["issuers"]["usdx"]["peak_deviation_bp"]
    dev5 = by_bound[500].summary["issuers"]["usdx"]["peak_deviation_bp"]
    assert dev3 <= dev5


def test_sweep_srf_at_binding_slr_changes_nothing():
    raw = PRESETS["slr_bound"]()
    report = sweep(raw, {"policies.srf_enabled": [False, True]})
    delayed = [p.summary["issuers"]["usdx"]["delayed_total"]
               for p in report.points]
    assert abs(delayed[0] - delayed[1]) <= 1


def test_sweep_point_equals_standalone_run():
    raw = PRESETS["calm"]()
    report = sweep(raw, {"run_model.baseline_rate": [2_000, 4_000]})
    override = PRESETS["calm"]()
    override["run_model"]["baseline_rate"] = 4_000
    standalone = run(parse_config(override))
    point = next(p for p in report.points
                 if p.overrides["run_model.baseline_rate"] == 4_000)
    assert point.summary == standalone.summary


def test_sweep_isolates_point_failures():
    raw = PRESETS["calm"]()
    report = sweep(raw, {"market.depth": [1_000_00, -5]})
    statuses = {p.overrides["market.depth"]: p.error for p in report.points}
    assert statuses[1_000_00] is None
    assert statuses[-5] is not None
    # a grid path through a number or a list fails its point, not the
    # sweep, and names the segment that is not an object
    for dotted, part in (("seed.x", "seed"), ("agents.holders.0", "holders")):
        report = sweep(raw, {dotted: [1]})
        assert [(p.summary, p.error) for p in report.points] == [
            (None, f"ValidationError: {dotted}: {part} is not an object")]


def test_audit_runs_every_day():
    out = run(load_config("calm"))
    # one audit-clean day implies emission reached the end of the loop
    days = {r["day"] for r in out.daily_rows}
    assert days == set(range(10))


def test_phases_are_the_docstring_order_and_each_takes_the_scenario_and_day():
    """`PHASES` names the module docstring's 11 phases in its order, and
    driving them by hand, each as `phase(scenario, day)` returning None,
    gives `run()`'s rows."""
    listed = re.findall(r"^ *\d+\. (_\w+) ", engine.__doc__, re.MULTILINE)
    assert len(listed) == 11
    assert [f.__name__ for f in PHASES] == listed
    config = load_config("march2020")
    scn = build_scenario(config)
    for day in range(config.horizon_days):
        for phase in PHASES:
            assert phase(scn, day) is None, phase.__name__
    scn.daily_rows.sort(key=lambda r: (r["day"], r["agent"]))
    out = run(config)
    assert (scn.daily_rows, scn.market_rows) == (out.daily_rows, out.market_rows)


def test_dealer_capacity_exhaustion_queues_single_request():
    raw = PRESETS["slr_bound"]()
    raw["horizon_days"] = 1
    open_counts = []

    def watch(scn, day):
        book = scn.settle.issuers["issuer:0"]
        open_counts.append(sum(1 for r in book.requests if not r.completed))

    out = run(parse_config(raw), on_day_end=watch)
    assert open_counts == [1]
    plans = [e for e in out.events if e["type"] == "plan_created"]
    assert plans[0]["funding"] == "sell_treasuries"
    assert not [e for e in out.events if e["type"] == "redemption_completed"]


def test_declined_roll_emits_funding_gap_with_collateral_split():
    raw = PRESETS["slr_bound"]()
    agents = raw["agents"]
    agents["issuers"][0]["allocation"] = {"deposits": 0, "bills": 0,
                                          "repo": 10_000_000}
    out = run(parse_config(raw))
    gaps = [e for e in out.events if e["type"] == "funding_gap"]
    assert gaps and all(g["replaced"] == 0 for g in gaps)
    sales = [e for e in out.events if e["type"] == "sale_cleared"
             and e["purpose"] == "funding_gap" and e["first_submission"]]
    by_class = {}
    for sale in sales:
        by_class[sale["duration"]] = by_class.get(sale["duration"], 0) \
            + sale["requested"]
    total = sum(by_class.values())
    assert abs(by_class["long"] * 4 - total * 3) <= 4  # three quarters long


def test_srf_draws_extend_fills_beyond_reserve_access():
    raw = PRESETS["slr_bound"]()
    agents = raw["agents"]
    for dealer in agents["dealers"]:
        dealer["capital"] = 5_000_000       # ample headroom
        dealer["reserve_access"] = 100_000  # tight settlement reserves
    base = run(parse_config(raw))
    assert base.summary["market"]["srf_draws_total"] == 0
    raw["policies"]["srf_enabled"] = True
    lifted = run(parse_config(raw))
    assert lifted.summary["market"]["srf_draws_total"] > 0
    # fills are no longer pinned to the 2 x 100k reserve trickle
    fills_day0 = sum(r["fills"] for r in lifted.market_rows if r["day"] == 0)
    assert fills_day0 > 2 * 100_000
    assert (lifted.summary["issuers"]["usdx"]["delayed_total"]
            < base.summary["issuers"]["usdx"]["delayed_total"])


def test_operating_cost_drains_issuer_equity_daily():
    raw = PRESETS["calm"]()
    raw["horizon_days"] = 3
    raw["run_model"] = {"baseline_rate": 1, "shifted_rate": 2}
    raw["agents"]["issuers"][0]["operating_cost_per_day"] = 10_00
    equities = []

    def watch(scn, day):
        equities.append(scn.world.sheet(scn.agent_of["usdx"]).equity)

    run(parse_config(raw), on_day_end=watch)
    assert equities[1] == equities[0] - 10_00
    assert equities[2] == equities[1] - 10_00


def test_excess_collateral_flag_lifts_reported_leverage():
    base = PRESETS["calm"]()
    base["horizon_days"] = 1
    off = run(parse_config(base))
    base["agents"]["issuers"][0]["count_excess_collateral"] = True
    on = run(parse_config(base))

    def ratio(out):
        return [r["ratio"] for r in out.daily_rows
                if r["kind"] == "issuer"][0]

    assert ratio(on) > ratio(off)


def check_rows_against_the_formulas(scn, day):
    """`on_day_end` hook: each of the day's issuer rows holds the leverage
    ratio and band of its sheet's assets (plus its repos' excess collateral
    when the issuer counts it) against its coins, and the liquidity of the
    holdings built from its own repos, read through `by_lender`; each dealer
    row holds its book's `slr_report` at the market's bound."""
    world, registry, market = scn.world, scn.registry, scn.market
    rows = {row["agent"]: row for row in scn.daily_rows if row["day"] == day}
    for book in scn.settle.issuers.values():
        agent, row = book.agent, rows[book.config.name]
        repos = registry.by_lender(agent)
        assets = world.sheet(agent).total_assets()
        if book.config.count_excess_collateral:
            assets += sum(max(0, p.collateral_value(world) - p.principal) for p in repos)
        lev = leverage_ratio(assets, world.coins_outstanding(agent)) if assets > 0 else None
        liq = holdings_liquidity(_issuer_holdings(world, book, repos, day))
        assert (row["ratio"], row["band"]) == ((lev.ratio, lev.band.value) if lev else ("", "")), (
            day, book.config.name)
        assert (row["dla"], row["wla"], row["wam"], row["wal"]) == (
            liq.dla_frac, liq.wla_frac, liq.wam_days, liq.wal_days), (day, book.config.name)
    for book in market.books.values():
        report, row = book.slr_report(world, market.slr_bound), rows[book.config.name]
        assert (row["slr"], row["headroom"]) == (report.slr, report.headroom_assets), (
            day, book.config.name)


def _excess_collateral_calm():
    raw = PRESETS["calm"]()
    raw["agents"]["issuers"][0]["count_excess_collateral"] = True
    return raw


@pytest.mark.parametrize("make", [
    *[pytest.param(PRESETS[name], id=name) for name in sorted(PRESETS)],
    pytest.param(_excess_collateral_calm, id="calm_excess_collateral"),
    pytest.param(lambda: None, id="dealer_squeeze_20_days")])
def test_rows_hold_what_the_formulas_give(make, bench_scaled):
    """Every preset, calm counting excess collateral, and the first 20 days
    of the dealer-squeeze book (three unfunded issuers lending to eight
    dealers): each day's issuer and dealer rows are the analytics formulas
    of what the world holds at the day's end."""
    raw = make() or bench_scaled(holders=10, issuers=3, horizon=20, dealers=8, funded=False,
                                 seed=1)
    run(parse_config(raw), on_day_end=check_rows_against_the_formulas)


@pytest.mark.parametrize("record, fields", [
    (LeverageReport(512, CapitalBand.WELL), ("ratio", "band")),
    (SlrReport(58_000, 50_000, 16_00), ("slr", "lower_bound", "headroom_assets")),
    (LiquidityReport(300_000, 400_000, 21_300_000, 21_300_000),
     ("dla_frac", "wla_frac", "wam_days", "wal_days")),
])
def test_report_records_keep_their_fields_in_order_and_are_immutable(record, fields):
    kind = type(record)
    assert kind._fields == fields
    values = tuple(getattr(record, name) for name in fields)
    assert tuple(record) == values
    assert record == kind(*values) == kind(**dict(zip(fields, values)))
    assert record != kind(*values[:-1], None)
    assert hash(record) == hash(kind(*values))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert tuple(record) == values


def test_attack_incentive_diagnostic():
    raw = PRESETS["calm"]()
    raw["diagnostics"] = {"attack_cost": 1_000_00}
    out = run(parse_config(raw))
    ratio = out.summary["issuers"]["usdx"]["attack_incentive_ratio"]
    # peak day moves ~200k cents of value against a 100k-cent attack cost
    assert ratio is not None and ratio > 1_000_000
    plain = run(parse_config(PRESETS["calm"]()))
    assert plain.summary["issuers"]["usdx"]["attack_incentive_ratio"] is None


def test_price_non_increasing_under_jammed_intermediated_access():
    out = run(load_config("regime_shift"))
    prices = [r["price"] for r in issuer_rows(out)]
    assert all(b <= a for a, b in zip(prices, prices[1:]))


def test_warehouse_intermediary_absorbs_without_redeeming():
    raw = PRESETS["regime_shift"]()
    raw["horizon_days"] = 3
    raw["policies"]["intermediary_mode"] = "warehouse"
    out = run(parse_config(raw))
    assert [e for e in out.events if e["type"] == "warehoused"]
    assert not [e for e in out.events if e["type"] == "redemption_request"]
    # nothing redeemed: coins outstanding only moved into the warehouse
    assert out.summary["issuers"]["usdx"]["final_coins"] == 32_400_00
    assert out.summary["issuers"]["usdx"]["completed_total"] == 0


def test_corridor_policy_defends_the_band_edge():
    raw = PRESETS["calm"]()
    raw["horizon_days"] = 6
    raw["policies"] = {"access_mode": "intermediated",
                       "par_policy": {"mode": "corridor", "corridor_bp": 50}}
    raw["rates"] = {"treasury_rate_daily": 100}
    raw["price_model"] = {"reversion": 1}  # isolate the intervention lift
    raw["shocks"] = [{"day": 2, "class": "confidence_only",
                      "magnitude": 20_000, "duration": 0, "chain": "main"}]
    out = run(parse_config(raw))
    prices = {r["day"]: r["price"] for r in issuer_rows(out)}
    assert prices[2] == PAR - 20_000
    assert prices[3] == PAR - 5_000  # pinned back to the lower band edge
    interventions = [e for e in out.events if e["type"] == "intervention"]
    assert interventions and interventions[0]["target"] == PAR - 5_000


def test_two_issuers_on_different_chains_are_isolated():
    raw = PRESETS["calm"]()
    agents = raw["agents"]
    agents["issuers"].append({
        "name": "usdy", "bank": "bank_a", "chain": "sidechain",
        "coins": 2_000_00, "assets": 2_000_00,
        "allocation": {"deposits": 2_000_00, "bills": 0, "repo": 0}})
    agents["holders"][0]["coins"]["usdy"] = 2_000_00
    raw["shocks"] = [{"day": 1, "class": "liveness_fault", "duration": 3,
                      "chain": "sidechain"}]
    out = run(parse_config(raw))
    assert out.summary["issuers"]["usdx"]["max_delay_days"] == 0
    assert out.summary["issuers"]["usdy"]["max_delay_days"] >= 3


def test_deposit_funded_requests_clear_even_when_dealers_are_jammed():
    raw = PRESETS["slr_bound"]()
    agents = raw["agents"]
    agents["issuers"][0]["allocation"] = {"deposits": 400_000,
                                          "bills": 5_600_000, "repo": 0}
    agents["issuers"][0]["assets"] = 6_000_000
    # two holders so the small one's request fits inside the deposits
    agents["holders"] = [
        {"name": "h_1", "bank": "bank_a", "coins": {"usdx": 300_000}},
        {"name": "h_2", "bank": "bank_a", "coins": {"usdx": 9_700_000}},
    ]
    raw["horizon_days"] = 1
    out = run(parse_config(raw))
    plans = {e["request_id"]: e for e in out.events
             if e["type"] == "plan_created"}
    done = {e["request_id"] for e in out.events
            if e["type"] == "redemption_completed"}
    deposit_funded = [rid for rid, e in plans.items()
                      if e["funding"] == "from_deposits"]
    market_funded = [rid for rid, e in plans.items()
                     if e["funding"] != "from_deposits"]
    assert deposit_funded and market_funded
    assert set(deposit_funded) <= done       # cash route cleared same day
    assert not (set(market_funded) & done)   # sale route stuck behind dealers


def test_aged_delays_alone_flip_the_regime():
    cfg = load_config("regime_shift")
    out = run(cfg)
    flips = [e for e in out.events if e["type"] == "regime_flip"
             and e["state"] == "sensitive"]
    assert len(flips) == 1
    flip_day = flips[0]["day"]
    prices = {r["day"]: r["price"] for r in issuer_rows(out)}
    threshold = cfg.run_model.deviation_threshold_bp * 100
    # the deviation had not crossed by the prior close; queue age did it
    assert abs(PAR - prices[flip_day - 1]) < threshold
    assert flip_day - 0 - 1 >= cfg.run_model.delay_trigger_days


GOLDEN = Path(__file__).parent / "golden"


def output_digests(out) -> dict:
    produced = {
        "daily.csv": out.daily_csv(),
        "market.csv": out.market_csv(),
        "analytics.csv": out.analytics_csv(),
        "summary.json": out.summary_json(),
        "events.jsonl": out.events_jsonl(),
    }
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in produced.items()}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_golden_fixture(preset, check_ledger):
    """Frozen byte digests for every preset; any behavioral change must
    consciously re-freeze tests/golden/<preset>.sha256.json. The full audit
    and fresh dealer capacities are checked at every day end."""
    golden = json.loads((GOLDEN / f"{preset}.sha256.json").read_text())
    out = run(load_config(preset), on_day_end=check_ledger)
    for name, digest in output_digests(out).items():
        assert digest == golden[name], name


def multi_holder_raw(access_mode: str) -> dict:
    """Three issuers on two chains, four holders, two intermediaries.

    Demand is sliced over several holders, the "side" chain halts on
    days 2-3, a confidence shock on day 1 puts the "main" issuers below
    par so the fixed-par policy buys coins back, and im_1 can afford
    only part of each day's intermediated demand.
    """
    return {
        "horizon_days": 8, "seed": 5,
        "agents": {
            "banks": [{"name": "bank_a"}, {"name": "bank_b"}],
            "issuers": [
                {"name": "alpha", "bank": "bank_a", "chain": "main",
                 "coins": 600_000, "assets": 600_000,
                 "allocation": {"deposits": 300_000, "bills": 200_000,
                                "repo": 100_000}},
                {"name": "beta", "bank": "bank_b", "chain": "main",
                 "coins": 400_000, "assets": 400_000,
                 "allocation": {"deposits": 40_000, "bills": 260_000,
                                "repo": 100_000}},
                {"name": "gamma", "bank": "bank_b", "chain": "side",
                 "coins": 300_000, "assets": 300_000,
                 "allocation": {"deposits": 60_000, "bills": 240_000,
                                "repo": 0}},
            ],
            "dealers": [
                {"name": f"dealer_{i}", "bank": bank, "capital": 200_000,
                 "base_assets": 4_000_000, "reserve_access": 150_000,
                 "deposits": 500_000, "treasuries_long": 300_000,
                 "treasuries_bill": 100_000}
                for i, bank in ((1, "bank_a"), (2, "bank_b"))
            ],
            "intermediaries": [
                {"name": "im_1", "bank": "bank_a", "deposits": 20_000},
                {"name": "im_2", "bank": "bank_b", "deposits": 400_000,
                 "coins": {"gamma": 20_000}},
            ],
            "holders": [
                {"name": "h_1", "bank": "bank_a",
                 "coins": {"alpha": 5_000, "beta": 4_000}},
                {"name": "h_2", "bank": "bank_b", "deposits": 10_000,
                 "coins": {"alpha": 295_000, "gamma": 80_000}},
                {"name": "h_3", "bank": "bank_a",
                 "coins": {"alpha": 300_000, "beta": 196_000, "gamma": 100_000}},
                {"name": "h_4", "bank": "bank_b",
                 "coins": {"beta": 200_000, "gamma": 100_000}},
            ],
            "treasury_buyers": [{"name": "tb_1", "bank": "bank_a",
                                 "deposits": 5_000_000,
                                 "treasuries_bill": 1_000_000}],
        },
        "policies": {"access_mode": access_mode,
                     "par_policy": {"mode": "rigorous_fixed"},
                     "intermediary_mode": "redeem"},
        "market": {"depth": 400_000},
        "run_model": {"baseline_rate": 30_000, "shifted_rate": 150_000,
                      "deviation_threshold_bp": 200},
        "rates": {"treasury_rate_daily": 100, "deposit_rate_daily": 20},
        "mint_demand": {"daily_rate": 2_000},
        "shocks": [
            {"day": 1, "class": "confidence_only", "chain": "main",
             "magnitude": 20_000},
            {"day": 2, "class": "liveness_fault", "chain": "side", "duration": 2},
        ],
    }


@pytest.mark.parametrize("access_mode", ["direct", "intermediated"])
def test_golden_multi_holder(access_mode, check_indexes, check_ledger):
    """Frozen digests of a many-agent run that reaches every routing path:
    suspended-chain intake, demand sliced over holders, intermediated
    buying and par-policy buybacks; the open-request lists, the
    coin-holder index, the full audit and fresh dealer capacities are
    checked at every day end."""

    def check(scn, day):
        check_indexes(scn, day)
        check_ledger(scn, day)

    out = run(parse_config(multi_holder_raw(access_mode)), on_day_end=check)
    events = out.events
    gamma = "issuer:2"  # issuers are indexed by sorted name
    requests = [e for e in events
                if e["type"] == "redemption_request" and not e["intervention"]]
    # demand still queues while the side chain is halted
    assert any(e["issuer"] == gamma and e["day"] in (2, 3) for e in requests)
    assert any(e["type"] == "intervention" and e["kind"] == "buy" and e["placed"] > 0
               for e in events)
    if access_mode == "direct":
        holders_by_day: dict = {}
        for e in requests:
            holders_by_day.setdefault((e["day"], e["issuer"]), set()).add(e["holder"])
        assert any(len({h for h in holders if h.startswith("holder:")}) >= 2
                   for holders in holders_by_day.values())
    else:
        buyers = {e["dst"] for e in events
                  if e["type"] == "transfer" and e["instrument"].startswith("coin@")
                  and e["dst"].startswith("intermediary:")}
        assert buyers == {"intermediary:0", "intermediary:1"}
    golden = json.loads((GOLDEN / "multi_holder.sha256.json").read_text())
    assert output_digests(out) == golden[access_mode]


@pytest.mark.parametrize("access_mode", ["direct", "intermediated"])
def test_golden_multi_holder_reserve_access(access_mode, check_indexes, check_ledger):
    """Frozen digests of the many-agent run with issuers selling bills to the
    Fed: each sale is booked on the funding trackers as a fill and its
    proceeds, and mint demand settles alongside."""

    def check(scn, day):
        check_indexes(scn, day)
        check_ledger(scn, day)

    raw = multi_holder_raw(access_mode)
    raw["policies"]["issuer_reserve_access"] = True
    out = run(parse_config(raw), on_day_end=check)
    kinds = [e["type"] for e in out.events]
    assert kinds.count("reserve_access_sale") == 17
    assert kinds.count("mint_completed") == 22
    golden = json.loads((GOLDEN / "multi_holder.sha256.json").read_text())
    assert output_digests(out) == golden[f"{access_mode}_reserve_access"]


def intermediated_buying_raw(intermediary_mode: str) -> dict:
    """One issuer, five holders and three intermediaries under
    intermediated access.

    im_1 and im_2 can afford only part of a day's demand, so a holder's
    coins are split between two intermediaries; im_3 also holds coins
    of its own, which no intermediary buys. A confidence shock on day 2
    moves the price the intermediaries pay.
    """
    return {
        "horizon_days": 10, "seed": 3,
        "agents": {
            "banks": [{"name": "bank_a"}, {"name": "bank_b"}],
            "issuers": [{"name": "usdx", "bank": "bank_a", "coins": 1_000_000,
                         "assets": 1_000_000,
                         "allocation": {"deposits": 200_000, "bills": 700_000,
                                        "repo": 100_000}}],
            "dealers": [{"name": "dealer_1", "bank": "bank_b", "capital": 200_000,
                         "base_assets": 4_000_000, "reserve_access": 150_000,
                         "deposits": 500_000, "treasuries_bill": 300_000,
                         "treasuries_long": 300_000}],
            "intermediaries": [
                {"name": "im_1", "bank": "bank_a", "deposits": 15_000},
                {"name": "im_2", "bank": "bank_b", "deposits": 60_000},
                {"name": "im_3", "bank": "bank_a", "deposits": 500_000,
                 "coins": {"usdx": 50_000}},
            ],
            "holders": [
                {"name": f"h_{i}", "bank": "bank_a" if i % 2 else "bank_b",
                 "coins": {"usdx": coins}}
                for i, coins in ((1, 40_000), (2, 110_000), (3, 300_000),
                                 (4, 200_000), (5, 300_000))
            ],
            "treasury_buyers": [{"name": "tb_1", "bank": "bank_a",
                                 "deposits": 5_000_000}],
        },
        "policies": {"access_mode": "intermediated",
                     "intermediary_mode": intermediary_mode,
                     "par_policy": {"mode": "rigorous_fixed"}},
        "market": {"depth": 400_000},
        "run_model": {"baseline_rate": 40_000, "shifted_rate": 150_000,
                      "deviation_threshold_bp": 200},
        "shocks": [{"day": 2, "class": "confidence_only", "magnitude": 30_000}],
    }


@pytest.mark.parametrize("intermediary_mode", ["redeem", "warehouse"])
def test_golden_intermediated_buying(intermediary_mode, check_indexes, check_ledger):
    """Frozen digests of intermediaries buying coins from holders in key
    order, each up to what it can afford at the secondary price, then
    redeeming or warehousing them; the indexes, the full audit and fresh
    dealer capacities are checked at every day end."""

    def check(scn, day):
        check_indexes(scn, day)
        check_ledger(scn, day)

    out = run(parse_config(intermediated_buying_raw(intermediary_mode)), on_day_end=check)
    buyers_of: dict = {}
    for e in out.events:
        if (e["type"] == "transfer" and e["instrument"].startswith("coin@")
                and e["dst"].startswith("intermediary:")):
            assert e["src"].startswith("holder:"), e
            buyers_of.setdefault((e["day"], e["src"]), set()).add(e["dst"])
    assert any(len(buyers) == 2 for buyers in buyers_of.values())
    assert set().union(*buyers_of.values()) == {f"intermediary:{i}" for i in range(3)}
    golden = json.loads((GOLDEN / "intermediated_buying.sha256.json").read_text())
    assert output_digests(out) == golden[intermediary_mode]


def check_genesis(scn, check_indexes):
    """The genesis world's indexes match full scans, and each issuer has its
    configured coins outstanding."""
    check_indexes(scn, -1)
    for cfg in scn.config.issuers:
        assert scn.world.coins_outstanding(scn.agent_of[cfg.name]) == cfg.coins, cfg.name


def test_intermediaries_buy_in_key_order_past_ten(check_indexes, check_ledger):
    """With twelve intermediaries, each affording a small share of a day's
    demand, the purchases walk them in key order: intermediary:10 and
    intermediary:11 buy before intermediary:2. The genesis world, where an
    intermediary holds coins beside the holders, is checked first."""
    raw = intermediated_buying_raw("redeem")
    raw["agents"]["intermediaries"] = [{"name": f"im_{i:02d}", "bank": "bank_a",
                                        "deposits": 6_000} for i in range(12)]
    raw["agents"]["intermediaries"][11]["coins"] = {"usdx": 50_000}   # as im_3 held
    check_genesis(build_scenario(parse_config(raw)), check_indexes)

    def check(scn, day):
        check_indexes(scn, day)
        check_ledger(scn, day)

    out = run(parse_config(raw), on_day_end=check)
    buyers_by_day: dict = {}   # day -> intermediaries in order of their first purchase
    for e in out.events:
        if (e["type"] == "transfer" and e["instrument"].startswith("coin@")
                and e["dst"].startswith("intermediary:")):
            buyers = buyers_by_day.setdefault(e["day"], [])
            if e["dst"] not in buyers:
                buyers.append(e["dst"])
    assert buyers_by_day
    for buyers in buyers_by_day.values():
        assert buyers == sorted(buyers)
    assert buyers_by_day[0][:5] == ["intermediary:0", "intermediary:1", "intermediary:10",
                                    "intermediary:11", "intermediary:2"]


def test_intermediated_buying_never_pays_more_than_the_intermediary_holds(
        bench_scaled, check_ledger, tmp_path, capsys):
    """An intermediary buys as many coins as its deposits afford at the
    secondary price, rounded down, but pays each holder's slice rounded
    half to even; on this book the slices' payments once summed to one
    unit more than it held, and a config that `validate` accepts failed
    in `run`. The run passes the full audit at every day end, and the
    intermediary buys on every day."""
    raw = bench_scaled(holders=60, issuers=2, horizon=5, dealers=2, funded=True, seed=22)
    raw["policies"]["access_mode"] = "intermediated"
    raw["agents"]["intermediaries"][0]["deposits"] = 3_000_000
    out = run(parse_config(raw), on_day_end=check_ledger)
    assert {e["day"] for e in out.events if e["type"] == "transfer"
            and e["instrument"].startswith("coin@")
            and e["dst"] == "intermediary:0"} == set(range(5))
    path = tmp_path / "book.json"
    path.write_text(json.dumps(raw))
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "out")]):
        assert cli_main(argv) == 0, (argv, capsys.readouterr().err)


@pytest.mark.parametrize("srf", ["off", "on"])
def test_golden_sales_in_transit(srf, bench_scaled, check_ledger):
    """Frozen digests of a generated book whose unfunded issuers sell
    bills to dealers short of reserves, so issuer sales are in flight
    at day ends: cleared and awaiting T+1 settlement, and without the
    SRF also carried over unfilled to the next day's clearing. The full
    audit and fresh dealer capacities are checked at every day end."""
    raw = bench_scaled(holders=10, issuers=3, horizon=12, dealers=8, funded=False, seed=1)
    raw["policies"]["srf_enabled"] = srf == "on"
    out = run(parse_config(raw), on_day_end=check_ledger)
    events = out.events
    assert any(e["type"] == "sale_settled" and e["seller"].startswith("issuer:")
               for e in events)
    carried = any(e["type"] == "sale_cleared" and e["purpose"] == "redemption"
                  and not e["first_submission"] for e in events)
    # with the SRF on, draws fill every issuer sale on the day it is made
    assert carried == (srf == "off")
    golden = json.loads((GOLDEN / "sales_in_transit.sha256.json").read_text())
    assert output_digests(out) == golden[f"srf_{srf}"]


def test_golden_repo_rolls(bench_scaled, check_ledger):
    """Frozen digests of the generated book above with the dealers' bills
    and bonds cut to 60% and the SRF off: their overnight repos roll while
    prices move, some rolls cannot pledge enough and are postponed, and
    the postponed positions fall below margin and are topped up. The full
    audit, fresh dealer capacities and the roll stamps are checked at
    every day end."""
    raw = bench_scaled(holders=10, issuers=3, horizon=12, dealers=8, funded=False, seed=1)
    for dealer in raw["agents"]["dealers"]:
        dealer["treasuries_bill"] = dealer["treasuries_bill"] * 60 // 100
        dealer["treasuries_long"] = dealer["treasuries_long"] * 60 // 100
    raw["policies"]["srf_enabled"] = False
    out = run(parse_config(raw), on_day_end=check_ledger)
    kinds = [e["type"] for e in out.events]
    assert kinds.count("repo_roll") == 189
    assert kinds.count("margin_call") == 42
    assert sum(1 for e in out.events
               if e["type"] == "leg_failed" and e["leg"] == "repo_roll") == 21
    golden = json.loads((GOLDEN / "repo_rolls.sha256.json").read_text())
    assert output_digests(out) == golden


def test_golden_funded_holders(bench_scaled, check_indexes, check_ledger):
    """Frozen digests of a generated many-holder book whose issuers fund
    every redemption from deposits: 585 requests over 30 days, each paid
    in one chunk on the day it is made, by issuers at both banks to
    holders at both, so payouts cross banks and stay within one. One
    holder is paid by several issuers on one day. The coin-holder and
    open-request indexes, the full audit and fresh dealer capacities are
    checked at every day end."""
    raw = bench_scaled(holders=200, issuers=5, horizon=30, dealers=2, funded=True, seed=1)
    banks = {}

    def check(scn, day):
        banks.update((key, bank.key) for key, bank in scn.world.banks.items() if bank)
        check_indexes(scn, day)
        check_ledger(scn, day)

    out = run(parse_config(raw), on_day_end=check)
    events = out.events
    requested = {e["request_id"]: e["day"] for e in events if e["type"] == "redemption_request"}
    completed = {e["request_id"]: e["day"] for e in events if e["type"] == "redemption_completed"}
    assert len(requested) == 585 and completed == requested
    assert not any(e["type"] == "redemption_partial" for e in events)
    payers: dict = {}   # (day, holder) -> issuers that paid it that day
    for e in events:
        if e["type"] == "burn":
            payers.setdefault((e["day"], e["src"]), set()).add(e["dst"])
    assert max(len(issuers) for issuers in payers.values()) >= 2
    crossings = {banks[holder] != banks[issuer]
                 for (_, holder), issuers in payers.items() for issuer in issuers}
    assert crossings == {False, True}
    golden = json.loads((GOLDEN / "funded_holders.sha256.json").read_text())
    assert output_digests(out) == golden


@pytest.mark.parametrize("book", ["march2020", "scaled"])
def test_event_log_holds_no_tuple_per_event(book, bench_scaled):
    """After a run, every logged batch is one flat list of its events'
    forms and values, with no tuple in it, so the cyclic collector walks
    one object per batch rather than two per event."""
    config = (load_config(book) if book != "scaled" else parse_config(
        bench_scaled(holders=20, issuers=3, horizon=15, dealers=8, funded=True, seed=1)))
    events = run(config).events
    batches = events.batches
    # the batches hold every event of the run, more than 40 however the
    # rails batch them, each its form followed by its values
    forms = sum(isinstance(entry, _Form) for _, _, batch in batches for entry in batch)
    assert forms == len(events) > 40
    assert not any(isinstance(entry, tuple) for _, _, batch in batches for entry in batch)


def policy_paths_raw() -> dict:
    """The paxos_mint_error book under a 50bp corridor, with the issuer
    options and model variants no preset turns on.

    Mint demand settles at a positive carry and half of each mint buys
    bills; the issuer pays a daily operating cost and counts its excess
    repo collateral; run demand ramps smoothly below a 1000bp threshold;
    the day-2 supply error is burned two days later, and a day-5
    confidence shock breaks the corridor.
    """
    raw = PRESETS["paxos_mint_error"]()
    raw["horizon_days"] = 10
    raw["agents"]["issuers"][0].update(mint_invest_frac=500_000, operating_cost_per_day=10_00,
                                       count_excess_collateral=True)
    raw["policies"]["par_policy"] = {"mode": "corridor", "corridor_bp": 50}
    raw["run_model"].update(smooth=True, deviation_threshold_bp=1_000)
    raw["rates"] = {"treasury_rate_daily": 100}
    raw["mint_demand"] = {"daily_rate": 1_000}
    raw["diagnostics"] = {"attack_cost": 1_00}   # a small cost keeps every cent in the ratio
    raw["shocks"][0].update(magnitude=10_000, duration=2)
    raw["shocks"].append({"day": 5, "class": "confidence_only", "magnitude": 20_000})
    return raw


def test_golden_policy_paths(check_ledger):
    """Frozen digests of `policy_paths_raw`: a corridor buyback pinned to
    the band edge, mints that buy bills, an operating cost, excess
    collateral in the leverage ratio, the smooth run ramp, a corrective
    burn on a later day and the attack-incentive ratio. The full audit
    and fresh dealer capacities are checked at every day end."""
    plain_ratios = []

    def check(scn, day):
        check_ledger(scn, day)
        agent = scn.agent_of["usdx"]
        plain_ratios.append(leverage_ratio(scn.world.sheet(agent).total_assets(),
                                           scn.world.coins_outstanding(agent)).ratio)

    out = run(parse_config(policy_paths_raw()), on_day_end=check)
    events = out.events
    buys = [e for e in events if e["type"] == "intervention"]
    assert buys and all(e["kind"] == "buy" and e["target"] == PAR - 50 * BP for e in buys)
    invested = [e for e in events if e["type"] == "transfer" and e["dst"] == "issuer:0"
                and e["instrument"].startswith("tbill")]
    minted = [e for e in events if e["type"] == "mint_completed"]
    # half of each mint's proceeds buys bills, a cent either way for the price
    assert minted and len(invested) == len(minted)
    assert all(abs(bill["amount"] - mint["amount"] // 2) <= 1
               for bill, mint in zip(invested, minted))
    assert [e["day"] for e in events if e["type"] == "operating_cost"] == list(range(10))
    [error] = [e for e in events if e["type"] == "uncontrolled_mint"]
    [burn] = [e for e in events if e["type"] == "corrective_burn"]
    assert (burn["day"], burn["amount"]) == (error["day"] + 2, error["amount"])
    rows = issuer_rows(out)
    assert all(row["ratio"] > plain for row, plain in zip(rows, plain_ratios, strict=True))
    # below par the insensitive regime already asks for more than at par
    assert not any(e["type"] == "regime_flip" for e in events)
    assert rows[2]["price"] < PAR and rows[3]["requested"] > 3 * rows[1]["requested"]
    assert out.summary["issuers"]["usdx"]["attack_incentive_ratio"] > 0
    golden = json.loads((GOLDEN / "policy_paths.sha256.json").read_text())
    assert output_digests(out) == golden["corridor"]


def test_golden_eslr_reform(check_ledger):
    """Frozen digests of the slr_bound preset, whose dealers sit at their
    leverage bound, under the eSLR reform: the capacity it adds, split
    between the two dealers, is all the market fills."""
    raw = PRESETS["slr_bound"]()
    raw["policies"]["eslr_reform"] = True
    raw["market"]["eslr_capacity_add"] = 2_000_000
    out = run(parse_config(raw), on_day_end=check_ledger)
    assert {r["capacity"] for r in out.market_rows} == {2_000_000}
    assert sum(e["filled"] for e in out.events if e["type"] == "sale_cleared") > 0
    golden = json.loads((GOLDEN / "policy_paths.sha256.json").read_text())
    assert output_digests(out) == golden["eslr_reform"]


def test_summary_totals_are_the_folds_of_the_rows(bench_scaled):
    """Every preset at two seeds and a small generated book with the SRF
    on: each issuer's totals and peak deviation in summary.json are folds
    of its daily.csv rows (the requests also of its request events), and
    the market's seller volume and facility draws folds of market.csv,
    whose rows repeat each day's draws on every class."""
    configs = []
    for preset in sorted(PRESETS):
        for seed in (1, 2):
            raw = PRESETS[preset]()
            raw["seed"] = seed
            configs.append(raw)
    raw = bench_scaled(holders=10, issuers=3, horizon=12, dealers=8, funded=False, seed=1)
    raw["policies"]["srf_enabled"] = True
    configs.append(raw)
    for raw in configs:
        out = run(parse_config(raw))
        # issuers are indexed by sorted name
        for i, (name, summary) in enumerate(sorted(out.summary["issuers"].items())):
            rows = issuer_rows(out, name)
            assert summary["requested_total"] == sum(r["requested"] for r in rows) == sum(
                e["amount"] for e in out.events
                if e["type"] == "redemption_request" and e["issuer"] == f"issuer:{i}")
            assert summary["completed_total"] == sum(r["completed"] for r in rows)
            assert summary["peak_deviation_bp"] == max(abs(PAR - r["price"]) for r in rows) // BP
        market = out.summary["market"]
        assert market["seller_volume"] == sum(r["submitted"] for r in out.market_rows)
        by_day: dict = {}
        for row in out.market_rows:
            by_day.setdefault(row["day"], set()).add(row["srf_draws"])
        assert all(len(day_draws) == 1 for day_draws in by_day.values())
        assert market["srf_draws_total"] == sum(d for (d,) in by_day.values())
    assert market["srf_draws_total"] > 0   # the generated book, run last, draws on the SRF


def _numbers_are_integers(out):
    """Every number in the five outputs of `out` is an integer."""
    def reject(token):
        raise AssertionError(f"non-integer number {token}")

    for text in (out.daily_csv(), out.market_csv(), out.analytics_csv()):
        for row in csv.reader(io.StringIO(text)):
            for cell in row:
                try:
                    float(cell)
                except ValueError:
                    continue
                int(cell)   # a number that is not an integer fails here
    for text in (out.summary_json(), *out.events_jsonl().splitlines()):
        json.loads(text, parse_float=reject, parse_constant=reject)


def carried_again(event) -> str | None:
    """How a `sale_cleared` row of a queued order cleared: "zero fill",
    logged from its bound row, or "remainder", a partial fill that queues
    it again with a changed remaining, whose bound row is built anew; None
    for a first submission or a full fill."""
    if event["type"] == "sale_cleared" and not event["first_submission"]:
        return "remainder" if event["filled"] and event["unfilled"] else (
            None if event["filled"] else "zero fill")
    return None


def rebuilt_rows(events) -> list:
    """The zero-fill carried `sale_cleared` rows logged from a rebuilt bound
    row: those whose `requested` is the `unfilled` of an earlier day's
    "remainder" row (`carried_again`) of the same seller, duration and
    purpose, so the order's row was built anew after a fill changed it."""
    remainders, rows = {}, []   # (seller, duration, purpose, unfilled) -> first day
    for e in events:
        how = carried_again(e)
        if how is None:
            continue
        key = (e["seller"], e["duration"], e["purpose"])
        if how == "remainder":
            remainders.setdefault((*key, e["unfilled"]), e["day"])
        elif remainders.get((*key, e["requested"]), e["day"]) < e["day"]:
            rows.append(e)
    return rows


def test_generated_books_run_clean_and_in_any_declaration_order(bench_scaled, check_indexes,
                                                                check_ledger, tmp_path, capsys):
    """Books drawn from bench/scenarios.py's `scaled()`: each either fails
    to build for want of repo collateral, when `validate` and `run` exit 1
    naming the dealer and the issuer's repo allocation and `run` writes no
    output, or builds a genesis world that `check_genesis` passes and runs
    with the full audit and
    fresh dealer capacities checked at every day end, emits integers
    only, never prices a coin above par, and gives the same bytes on a
    second run and with every agent list shuffled. Access is direct or
    through the intermediary, which redeems or warehouses and holds drawn
    deposits, none or a few units among them. The draws reach zero-fill
    carried orders, carried orders filled in part and queued again with a
    new remainder, T+1 settlements and par-policy buybacks, and some
    cannot be built."""
    seen = dict.fromkeys(("ran", "unbuildable", "carried", "recarried", "settled",
                          "intervened"), 0)

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(holders=st.integers(1, 60), issuers=st.integers(1, 6), dealers=st.integers(1, 8),
           horizon=st.integers(4, 40), funded=st.booleans(), srf=st.booleans(),
           par_policy=st.sampled_from([{"mode": "best_effort"}, {"mode": "rigorous_fixed"},
                                       {"mode": "corridor", "corridor_bp": 50}]),
           access=st.sampled_from(["direct", "intermediated"]),
           intermediary_mode=st.sampled_from(["redeem", "warehouse"]),
           im_deposits=st.one_of(st.sampled_from([0, 7]), st.integers(0, 10_000_000)),
           seed=st.integers(0, 2**32 - 1))
    # the book whose intermediated purchases once overdrew the intermediary
    # by a unit of rounding: its payments are capped at the deposits left
    @example(holders=60, issuers=2, dealers=2, horizon=5, funded=True, srf=False,
             par_policy={"mode": "best_effort"}, access="intermediated",
             intermediary_mode="redeem", im_deposits=3_000_000, seed=22)
    # a squeezed book: unfunded sales carry over daily, and carried orders
    # are filled in part and queued again with a changed remaining
    @example(holders=10, issuers=3, dealers=8, horizon=12, funded=False, srf=False,
             par_policy={"mode": "best_effort"}, access="direct",
             intermediary_mode="redeem", im_deposits=0, seed=1)
    def one_book(holders, issuers, dealers, horizon, funded, srf, par_policy, access,
                 intermediary_mode, im_deposits, seed):
        raw = bench_scaled(holders=holders, issuers=issuers, horizon=horizon,
                           dealers=dealers, funded=funded, seed=seed)
        raw["policies"].update(srf_enabled=srf, par_policy=par_policy, access_mode=access,
                               intermediary_mode=intermediary_mode)
        raw["agents"]["intermediaries"][0]["deposits"] = im_deposits
        config = parse_config(raw)
        try:
            scn = build_scenario(config)
        except InsufficientCollateral:
            seen["unbuildable"] += 1
            path = tmp_path / f"unbuildable_{seen['unbuildable']}.json"
            path.write_text(json.dumps(raw))
            out_dir = tmp_path / f"out_{seen['unbuildable']}"
            for argv in (["validate", str(path)], ["run", str(path), "--out", str(out_dir)]):
                assert cli_main(argv) == 1, argv
                err = capsys.readouterr().err
                assert err.startswith("invalid config: agents.dealers["), err
                assert "of agents.issuers[" in err and "].allocation.repo" in err, err
                assert "Traceback" not in err, err
            assert not any((out_dir / name).exists() for name in (
                "daily.csv", "market.csv", "analytics.csv", "summary.json", "events.jsonl"))
            return
        check_genesis(scn, check_indexes)
        out = run(config, on_day_end=check_ledger)
        _numbers_are_integers(out)
        assert all(r["price"] <= PAR for r in out.daily_rows if r["kind"] == "issuer")
        digests = output_digests(out)
        assert output_digests(run(config)) == digests
        shuffle = random.Random(seed).shuffle
        for agents in raw["agents"].values():
            shuffle(agents)
        assert output_digests(run(parse_config(raw))) == digests
        seen["ran"] += 1
        carried = {carried_again(e) for e in out.events}
        seen["carried"] += "zero fill" in carried
        seen["recarried"] += "remainder" in carried
        seen["settled"] += any(e["type"] == "sale_settled" for e in out.events)
        seen["intervened"] += any(e["type"] == "intervention" for e in out.events)

    one_book()
    assert all(seen.values()), seen


def test_events_jsonl_is_json_dumps_of_each_event(bench_scaled):
    """The shared encoder renders every event exactly as `json.dumps` with
    sorted keys and compact separators would, nested and non-int values
    included, and so do the bound rows of carried orders, on a squeezed
    generated book whose carried orders are also queued again after
    partial fills, and on one whose dealers hold 1% of its deposits with
    the SRF off. There a dealer pays for its retained slice at T+1 and
    the retention cap holds its capacity to its deposits, so the day
    after a partial fill it has none, and the carried order's zero-fill
    row is rebuilt at its new remainder."""
    outputs = [run(load_config(preset)) for preset in sorted(PRESETS)]
    outputs += [run(parse_config(multi_holder_raw(mode)))
                for mode in ("direct", "intermediated")]
    outputs.append(run(parse_config(bench_scaled(holders=10, issuers=3, horizon=20, dealers=8,
                                                 funded=False, seed=1))))
    poor = bench_scaled(holders=10, issuers=3, horizon=20, dealers=8, funded=False, seed=1)
    for dealer in poor["agents"]["dealers"]:
        dealer["deposits"] //= 100
    poor["policies"]["srf_enabled"] = False
    outputs.append(run(parse_config(poor)))
    covered = set()
    for out in outputs:
        assert out.events_jsonl() == "".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
            for e in out.events)
        covered.update((e["type"], key, type(value).__name__)
                       for e in out.events for key, value in e.items())
        covered.update(("sale_cleared", "carried", how) for e in out.events
                       if (how := carried_again(e)) is not None)
        if rebuilt_rows(out.events):
            covered.add(("sale_cleared", "carried", "rebuilt"))
    assert {("repo_open", "collateral", "dict"), ("mark", "classes", "list"),
            ("shock_applied", "magnitude", "NoneType"),
            ("sale_cleared", "first_submission", "bool"),
            ("redemption_request", "intervention", "bool"),
            ("sale_cleared", "carried", "zero fill"),
            ("sale_cleared", "carried", "remainder"),
            ("sale_cleared", "carried", "rebuilt")} <= covered


@pytest.mark.parametrize("name", sorted(PRESETS) + ["multi_holder_direct",
                                                   "multi_holder_intermediated"])
def test_analytics_csv_is_daily_csv_projected(name):
    """analytics.csv holds daily.csv's rows, in the same order, cut down to
    `ANALYTICS_FIELDS`."""
    cfg = (load_config(name) if name in PRESETS
           else parse_config(multi_holder_raw(name.removeprefix("multi_holder_"))))
    out = run(cfg)
    daily = list(csv.DictReader(io.StringIO(out.daily_csv())))
    analytics = list(csv.DictReader(io.StringIO(out.analytics_csv())))
    assert set(ANALYTICS_FIELDS) < set(DAILY_FIELDS)
    assert [{k: row[k] for k in ANALYTICS_FIELDS} for row in daily] == analytics
    assert out.analytics_csv().splitlines()[0] == ",".join(ANALYTICS_FIELDS)
    assert len({(row["day"], row["agent"]) for row in daily}) == len(daily)


def test_written_files_are_the_string_outputs(tmp_path):
    """`RunOutput.write` streams each file with the bytes its string method
    returns."""
    configs = {preset: load_config(preset) for preset in sorted(PRESETS)}
    configs.update({f"multi_holder_{mode}": parse_config(multi_holder_raw(mode))
                    for mode in ("direct", "intermediated")})
    for name, cfg in configs.items():
        out = run(cfg)
        out.write(tmp_path / name)
        for filename, text in (("daily.csv", out.daily_csv()),
                               ("market.csv", out.market_csv()),
                               ("analytics.csv", out.analytics_csv()),
                               ("summary.json", out.summary_json()),
                               ("events.jsonl", out.events_jsonl())):
            assert (tmp_path / name / filename).read_bytes() == text.encode(), (name, filename)
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == [
            "analytics.csv", "daily.csv", "events.jsonl", "market.csv", "summary.json"]


@pytest.mark.parametrize("rows", ["daily_rows", "market_rows"])
@pytest.mark.parametrize("edit", ["extra", "missing"])
def test_csv_rows_hold_exactly_the_header_fields(tmp_path, rows, edit):
    """A daily or market row with a key outside its header, or without one
    of the header's keys, raises from the string method and from `write`;
    analytics.csv projects the daily rows and ignores any other key."""
    out = run(load_config("calm"))
    analytics = out.analytics_csv()
    row = getattr(out, rows)[1]
    if edit == "extra":
        row["zz_extra"] = 1
    else:
        del row["price"]
    render = out.daily_csv if rows == "daily_rows" else out.market_csv
    with pytest.raises(ValueError, match="differ from the header"):
        render()
    with pytest.raises(ValueError, match="differ from the header"):
        out.write(tmp_path / "out")
    if rows == "daily_rows" and edit == "extra":
        assert out.analytics_csv() == analytics


def test_full_audit_runs_at_build_and_on_the_last_day(monkeypatch):
    """Every other day checks only what changed, and a clean run never
    falls back to the full walk."""
    calls = []
    full = LedgerWorld.audit

    def counted(world):
        calls.append(world.day)
        return full(world)

    monkeypatch.setattr(LedgerWorld, "audit", counted)
    raw = multi_holder_raw("intermediated")
    run(parse_config(raw))
    assert calls == [0, raw["horizon_days"] - 1]


def test_lone_leg_posted_after_a_day_fails_the_next_days_audit():
    seen = {}

    def corrupt(scn, day):
        seen["world"] = scn.world
        if day == 2:
            holder = scn.agent_of["h_1"]
            scn.world.post({(holder.key, "A", deposit_key(scn.world.banks[holder.key])): 7})

    with pytest.raises(AuditFailure) as caught:
        run(load_config("calm"), on_day_end=corrupt)
    assert caught.value.day == 3
    assert caught.value.report == seen["world"].audit()
    assert [c.name for c in caught.value.report.failures()] == ["deposit_matching"]


@pytest.mark.parametrize("agent, day", [("holder:0", 3), ("intermediary:0", 9)])
def test_write_round_the_ledger_still_fails_the_run(agent, day):
    """A dict write from the hook is caught on the next day that writes the
    sheet through the ledger, else by the last day's full audit."""
    seen = {}

    def corrupt(scn, today):
        seen["world"] = world = scn.world
        if today == 2:
            assets = world.agents[agent].assets
            key = deposit_key(world.banks[agent])
            assets[key] = assets.get(key, 0) + 7

    with pytest.raises(AuditFailure) as caught:
        run(load_config("calm"), on_day_end=corrupt)
    assert caught.value.day == day
    assert caught.value.report == seen["world"].audit()
    failure = caught.value.report.failures()[0]
    assert (failure.name, failure.agent) == ("double_entry", agent)
