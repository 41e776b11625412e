"""Tests of the benchmark's own logic: python3 -m pytest bench/tests -q"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import calibrate  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import scenarios  # noqa: E402
import stablesim  # noqa: E402
import tracer  # noqa: E402
from stablesim import config, engine  # noqa: E402


@pytest.mark.parametrize("name", sorted(scenarios.SCALED_ARGS))
def test_generator_is_deterministic_and_parses_unchanged(name):
    first = scenarios.workload(name, 5)["config"]
    again = scenarios.workload(name, 5)["config"]
    before = scenarios.config_bytes(first)
    assert before == scenarios.config_bytes(again)
    parsed = config.parse_config(first)
    assert scenarios.config_bytes(first) == before
    assert parsed.seed == 5


def test_generator_seed_only_changes_the_config_seed():
    a = scenarios.scaled(20, 3, 10, 2, True, seed=1)
    b = scenarios.scaled(20, 3, 10, 2, True, seed=2)
    assert a.pop("seed") == 1 and b.pop("seed") == 2
    assert a == b


def test_generator_splits_coins_and_funding():
    raw = scenarios.scaled(7, 3, 10, 4, False, seed=1)
    cfg = config.parse_config(raw)
    for issuer in cfg.issuers:
        assert sum(h.coins[issuer.name] for h in cfg.holders) == issuer.coins
        assert issuer.allocation == {"deposits": 0, "bills": issuer.assets * 25 // 100,
                                     "repo": issuer.assets - issuer.assets * 25 // 100}
    assert {i.chain for i in cfg.issuers} == {"chain_0", "chain_1", "chain_2"}
    assert len(cfg.shocks) == 3 and all(s.day == scenarios.SHOCK_DAY for s in cfg.shocks)


def test_sweep_points_follow_engine_sweep():
    raw = config.PRESETS["march2020"]()
    grid = scenarios.sweep_grid(3)
    points = scenarios.sweep_points(raw, grid)
    report = engine.sweep(raw, grid)
    assert len(points) == len(report.points) == 16
    for point, swept in zip(points, report.points):
        assert point["seed"] == swept.overrides["seed"] == swept.summary["seed"]
        assert point["policies"]["srf_enabled"] == swept.overrides["policies.srf_enabled"]


def test_self_time_subtracts_direct_children_only():
    # a: 0..100, b: 10..60 inside a, c: 20..30 inside b, d: 70..90 inside a
    spans = [(2, 1, "c", 20, 30), (1, 0, "b", 10, 60), (3, 0, "d", 70, 90),
             (0, -1, "a", 0, 100)]
    assert tracer.self_times(spans) == {0: 30, 1: 40, 2: 10, 3: 20}
    summary = tracer.summarize(spans + [(4, -1, "d", 200, 205)])
    assert summary["d"] == {"calls": 2, "total_ns": 25, "self_ns": 25}
    assert summary["a"] == {"calls": 1, "total_ns": 100, "self_ns": 30}


def test_tracer_records_nesting():
    spans = tracer.Tracer()
    inner = spans.wrap(lambda x: x + 1, "inner")
    outer = spans.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    (sid_in, parent_in, name_in, *_), (sid_out, parent_out, name_out, *_) = spans.spans
    assert (name_in, name_out) == ("inner", "outer")
    assert parent_in == sid_out and parent_out == -1


def _wrappers_left():
    found = []
    for key, module in sorted(sys.modules.items()):
        if key != "stablesim" and not key.startswith("stablesim."):
            continue
        for attr, value in vars(module).items():
            if tracer.is_wrapper(value):
                found.append(f"{key}.{attr}")
            if isinstance(value, type):
                found += [f"{key}.{attr}.{m}" for m, v in vars(value).items()
                          if tracer.is_wrapper(v)]
    return found


def test_wrappers_are_removed_after_tracing():
    originals = (engine.run, stablesim.run, config.parse_config,
                 stablesim.ledger.LedgerWorld.post, engine.redemption_demand)
    spans = tracer.Tracer()
    with spans.installed():
        assert tracer.is_wrapper(engine.run) and tracer.is_wrapper(stablesim.run)
        assert tracer.is_wrapper(engine.redemption_demand)
        assert tracer.is_wrapper(stablesim.ledger.LedgerWorld.__dict__["post"])
        assert len(_wrappers_left()) > 40
    assert _wrappers_left() == []
    assert (engine.run, stablesim.run, config.parse_config,
            stablesim.ledger.LedgerWorld.post, engine.redemption_demand) == originals


def test_wrappers_are_removed_when_the_traced_run_raises():
    spans = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed():
            raise RuntimeError("boom")
    assert _wrappers_left() == []


def test_traced_run_outputs_equal_untraced():
    cfg = config.load_config("paxos_mint_error")
    plain = gate.digests(gate.render(engine.run(cfg)))
    spans = tracer.Tracer()
    probe = layers.DayProbe()
    with spans.installed(defaults={"engine.run": {"on_day_end": spans.wrap(probe, "bench.probe")}}):
        traced = gate.digests(gate.render(engine.run(config.parse_config(
            config.PRESETS["paxos_mint_error"]()))))
    assert traced == plain
    metrics = layers.metrics(spans.spans, probe, 0)
    assert metrics["ledger.audit_calls"][0] == cfg.horizon_days + 1
    assert metrics["ledger.events"][0] == len(engine.run(cfg).events)
    assert len(probe.runs) == 1 and len(probe.runs[0]) == cfg.horizon_days


def test_non_integers_are_flagged():
    texts = {"daily_csv": "day,agent,price\n0,h_1,1000000\n1,h_1,97999950.0\n2,h_1,\n",
             "summary_json": json.dumps({"a": 1, "b": {"c": 2.5}, "d": "x"}),
             "events_jsonl": '{"x":1}\n{"y":NaN}\n'}
    assert gate.non_integers(texts) == ["daily_csv: 97999950.0",
                                        "events_jsonl: NaN", "summary_json: 2.5"]


def test_gate_flags_runs_that_differ():
    check = gate.Gate(reference={"out_csv": gate.digests({"out_csv": "a\n1\n"})["out_csv"]})
    assert check.check({"out_csv": "a\n1\n"}) == set()
    assert check.check({"out_csv": "a\n2\n"}) == {"out_csv"}
    assert any("between runs" in p for p in check.problems)
    assert any("reference" in p for p in check.problems)


def test_missing_entry_point_is_skipped_and_everything_restored(monkeypatch):
    monkeypatch.setitem(tracer.ENTRY_POINTS, "market",
                        tracer.ENTRY_POINTS["market"] + ("Market.gone", "vanished"))
    spans = tracer.Tracer()
    with spans.installed():
        assert tracer.is_wrapper(engine.run)
    assert spans.missing == ["market.Market.gone", "market.vanished"]
    assert _wrappers_left() == []


def test_time_metrics_follow_the_probe_not_the_host_speed():
    import run

    bench = run.Bench(stablesim, "dealer_squeeze", 1)
    bench.agent_days = [1000]
    bench.setup_ns = {0: [3_000, 2_000]}
    bench.segments = [[10, 200, 300, 40], [20, 100, 400, 40]]
    bench.probe_ns = [30_000_000, int(calibrate.REFERENCE_PROBE_S * 1e9)]
    at_reference = bench.end_to_end()
    assert at_reference["wall_s"][0] == pytest.approx(10e-9 + 100e-9 + 300e-9 + 40e-9)
    assert at_reference["setup_s"][0] == pytest.approx(2e-6)
    assert at_reference["agent_days_per_s"][0] == pytest.approx(1000 / 400e-9)
    # a host twice as slow doubles every sample, the probe's included
    bench.setup_ns = {0: [2 * t for t in bench.setup_ns[0]]}
    bench.segments = [[2 * t for t in run_] for run_ in bench.segments]
    bench.probe_ns = [2 * t for t in bench.probe_ns]
    slower = bench.end_to_end()
    for name in ("wall_s", "setup_s", "agent_days_per_s", "points_per_s"):
        assert slower[name][0] == pytest.approx(at_reference[name][0])
