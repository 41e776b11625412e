import copy
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesim.cli import main
from stablesim.config import PRESETS, ParseError, ValidationError, load_raw, parse_config
from stablesim.dynamics import UnknownShockClass


def test_presets_list(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    assert "march2020" in out
    assert "calm" in out


def test_validate_preset(capsys):
    assert main(["validate", "calm"]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"horizon_days": 0}))
    assert main(["validate", str(bad)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_missing_file_is_io_error(tmp_path):
    assert main(["run", str(tmp_path / "absent.json")]) == 3
    # a path that ends in a preset name is still a path
    assert main(["run", str(tmp_path / "calm"), "--out", str(tmp_path)]) == 3


def test_config_without_dealers_is_invalid(tmp_path, capsys):
    raw = PRESETS["calm"]()
    raw["agents"]["dealers"] = []
    path = tmp_path / "no_dealers.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 1
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "at least one dealer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_writes_all_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "march2020", "--out", str(out_dir)]) == 0
    for name in ("daily.csv", "market.csv", "analytics.csv", "summary.json",
                 "events.jsonl"):
        assert (out_dir / name).exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["schema"] == "stablesim.summary/1"


def test_run_seed_override_changes_summary_seed(tmp_path):
    out_dir = tmp_path / "out"
    assert main(["run", "calm", "--seed", "99", "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["seed"] == 99


@pytest.mark.parametrize("seed", [-5, 2**70])
def test_run_seed_override_is_checked_like_the_config_seed(seed, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "calm", "--seed", str(seed), "--out", str(out_dir)]) == 1
    assert ("invalid config: seed: must be a 64-bit unsigned integer"
            in capsys.readouterr().err)
    assert not out_dir.exists()


def test_sweep_cli(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": {"policies.srf_enabled": [False, True]}}))
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "slr_bound", "--grid", str(grid),
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "matrix.csv").exists()
    assert (out_dir / "point_000" / "summary.json").exists()
    assert (out_dir / "point_001" / "summary.json").exists()


def test_sweep_rejects_malformed_grid(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": {"market.depth": 5}}))
    assert main(["sweep", "calm", "--grid", str(grid)]) == 1


def test_sweep_rejects_an_empty_value_list(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": {"seed": []}}))
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "calm", "--grid", str(grid), "--out", str(out_dir)]) == 1
    assert ("invalid sweep input: grid values for seed must be a non-empty list"
            in capsys.readouterr().err)
    assert not out_dir.exists()


def test_sweep_grid_path_through_a_number_is_a_point_error(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"seed.x": [1]}))
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "calm", "--grid", str(grid), "--out", str(out_dir)]) == 1
    assert "swept 1 points (1 failed)" in capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO((out_dir / "matrix.csv").read_text())))
    assert [(r["status"], r["error"].split(":")[0]) for r in rows] == [("error", "TypeError")]


@pytest.mark.parametrize("text", ["[1]", "null", '"seed"'])
def test_sweep_rejects_a_grid_file_that_is_not_an_object(text, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "calm", "--grid", str(grid), "--out", str(out_dir)]) == 1
    assert ("invalid sweep input: grid file must map parameter paths to value lists"
            in capsys.readouterr().err)
    assert not out_dir.exists()


def test_config_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_raw(str(bad))
    assert main(["validate", str(bad)]) == 1
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("invalid config: ") == 2 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_sweep_grid_file_that_is_not_utf8_is_rejected(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_bytes(b"\xff")
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "calm", "--grid", str(grid), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("invalid sweep input: ")
    assert not out_dir.exists()


def nested_past_the_decoder(raw: dict) -> str:
    """`raw` as JSON text, its "DEEP" value replaced by lists nested far
    deeper than the JSON decoder recurses."""
    return json.dumps(raw).replace('"DEEP"', "[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("command", ["run", "validate", "sweep"])
def test_config_nested_too_deeply_is_a_parse_error(command, tmp_path, capsys):
    raw = PRESETS["calm"]()
    raw["market"]["depth"] = "DEEP"
    config, grid, out_dir = tmp_path / "deep.json", tmp_path / "grid.json", tmp_path / "out"
    config.write_text(nested_past_the_decoder(raw))
    grid.write_text(json.dumps({"grid": {"seed": [1]}}))
    args = {"run": ["--out", str(out_dir)], "validate": [],
            "sweep": ["--grid", str(grid), "--out", str(out_dir)]}[command]
    assert main([command, str(config), *args]) == 1
    err = capsys.readouterr().err
    prefix = "invalid sweep input: " if command == "sweep" else "invalid config: "
    assert err.startswith(f"{prefix}{config}: nested too deeply") and "Traceback" not in err
    assert not out_dir.exists()


def test_sweep_grid_nested_too_deeply_is_rejected(tmp_path, capsys):
    grid, out_dir = tmp_path / "grid.json", tmp_path / "sweep"
    grid.write_text(nested_past_the_decoder({"grid": {"seed": "DEEP"}}))
    assert main(["sweep", "calm", "--grid", str(grid), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid sweep input: ") and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [[], ["run"], ["run", "calm", "--seed", "x"],
                                  ["sweep", "calm"], ["bogus"], ["run", "calm", "--bogus"]])
def test_rejected_command_line_exits_1(argv, capsys):
    """argparse's own exit code for a command line it rejects is 2, which
    the CLI reserves for an audit failure."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: stablesim")


def test_sweep_that_cannot_write_a_point_exits_3(tmp_path, capsys):
    """A point whose outputs fail to write is an I/O failure, not a second
    row for the point: the sweep stops and writes no matrix."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": {"seed": [1, 2]}}))
    out_dir = tmp_path / "sweep"
    out_dir.mkdir()
    (out_dir / "point_000").write_text("")   # a file where point 0's directory goes
    assert main(["sweep", "calm", "--grid", str(grid), "--out", str(out_dir)]) == 3
    captured = capsys.readouterr()
    assert "cannot write outputs: " in captured.err
    assert "swept" not in captured.out
    assert sorted(p.name for p in out_dir.iterdir()) == ["point_000"]


def test_negative_repo_rate_runs_and_the_lender_pays_the_roll_interest(tmp_path):
    raw = PRESETS["calm"]()
    raw["rates"] = {**raw.get("rates", {}), "repo_rate_daily": -100}
    path = tmp_path / "negative_repo.json"
    path.write_text(json.dumps(raw))
    out_dir = tmp_path / "out"
    # exit 2 would be a failed audit
    assert main(["run", str(path), "--out", str(out_dir)]) == 0
    events = [json.loads(line) for line in (out_dir / "events.jsonl").read_text().splitlines()]
    rolls = [e for e in events if e["type"] == "repo_roll"]
    assert rolls and all(e["interest"] < 0 for e in rolls)


@pytest.mark.parametrize("preset, rate", [("slr_bound", -600_000), ("march2020", -2_000_000)])
def test_repo_closed_owing_less_than_zero_is_paid_by_the_lender(preset, rate, tmp_path):
    """A repo declined for funding (or postponed, accruing more negative
    interest) closes owing principal plus interest below zero. The lender
    owes the difference; the issuer lending here has no deposits left, so
    the leg is postponed each day and the run finishes."""
    raw = PRESETS[preset]()
    raw["rates"] = {**raw.get("rates", {}), "repo_rate_daily": rate}
    path = tmp_path / "negative_close.json"
    path.write_text(json.dumps(raw))
    out_dir = tmp_path / "out"
    # 1 would be an error mid-run, 2 a failed daily audit
    assert main(["run", str(path), "--out", str(out_dir)]) == 0
    events = [json.loads(line) for line in (out_dir / "events.jsonl").read_text().splitlines()]
    legs = [e for e in events if e["type"] == "leg_failed" and e["leg"] == "repo_second_leg"]
    assert legs and all(e["cause"].startswith("issuer:0 holds 0 of deposit@") for e in legs)
    daily = csv.DictReader(io.StringIO((out_dir / "daily.csv").read_text()))
    assert {row["day"] for row in daily} == {str(day) for day in range(raw["horizon_days"])}


def test_mint_invest_frac_above_one_is_rejected_before_the_run(tmp_path, capsys):
    raw = PRESETS["regime_shift"]()
    raw["mint_demand"] = {"daily_rate": 50_000}
    raw["rates"] = {**raw.get("rates", {}), "treasury_rate_daily": 100}
    for issuer in raw["agents"]["issuers"]:
        issuer["mint_invest_frac"] = 2_000_000
    path = tmp_path / "invest.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 1
    assert "invalid config: agents.issuers[" in capsys.readouterr().err
    for issuer in raw["agents"]["issuers"]:
        issuer["mint_invest_frac"] = 1_000_000
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_sweep_where_every_point_fails_exits_1(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": {"market.depth": [0, -5]}}))
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "calm", "--grid", str(grid), "--out", str(out_dir)]) == 1
    assert "swept 2 points (2 failed)" in capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO((out_dir / "matrix.csv").read_text())))
    assert [(r["status"], r["error"]) for r in rows] == [
        ("error", "ValidationError: market.depth: must be > 0"),
        ("error", "ValidationError: market.depth: expected an integer >= 0, got -5")]


def test_sweep_with_an_audit_failing_point_exits_2(monkeypatch, tmp_path, capsys):
    from stablesim import engine
    from stablesim.engine import AuditFailure
    from stablesim.ledger import AuditCheck, AuditReport

    run = engine.run

    def broken(config):
        if config.seed == 2:
            report = AuditReport(checks=(AuditCheck("double_entry", False,
                                                    "issuer:0", "forced"),))
            raise AuditFailure(0, report)
        return run(config)

    monkeypatch.setattr(engine, "run", broken)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": {"seed": [1, 2, 3]}}))
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "calm", "--grid", str(grid), "--out", str(out_dir)]) == 2
    assert "swept 3 points (1 failed)" in capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO((out_dir / "matrix.csv").read_text())))
    assert [(r["status"], r["error"].split(":")[0]) for r in rows] == [
        ("ok", ""), ("error", "AuditFailure"), ("ok", "")]


def test_audit_failure_exit_code(monkeypatch, tmp_path):
    from stablesim import cli
    from stablesim.engine import AuditFailure
    from stablesim.ledger import AuditCheck, AuditReport

    def broken(config):
        report = AuditReport(checks=(AuditCheck("double_entry", False,
                                                "issuer:0", "forced"),))
        raise AuditFailure(0, report)

    monkeypatch.setattr(cli, "run", broken)
    assert cli.main(["run", "calm", "--out", str(tmp_path)]) == 2


def calm_with(path: str, value) -> dict:
    """The calm preset with the value at a '/' path replaced."""
    raw = PRESETS["calm"]()
    *parents, leaf = path.split("/")
    node = raw
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[int(leaf) if isinstance(node, list) else leaf] = value
    return raw


REJECTED = [
    ("market/depth", "5", "market.depth"),
    ("market/depth", 5.5, "market.depth"),
    ("market/depth", True, "market.depth"),
    ("agents/issuers/0/coins", "100", "agents.issuers[usdx].coins"),
    ("run_model/baseline_rate", 20_000.5, "run_model.baseline_rate"),
    ("policies/srf_enabled", "no", "policies.srf_enabled"),
    ("shocks", [{"day": "1", "class": "liveness_fault"}], "shocks[0].day"),
    ("agents/holders/0/coins", [1], "agents.holders[h_1].coins"),
    ("agents/issuers/0/allocation/bills", 30_000_000.9,
     "agents.issuers[usdx].allocation.bills"),
    ("market", "x", "market"),
    ("agents", [], "agents"),
    ("policies/par_policy", {"mode": "corridor"}, "policies.par_policy.corridor_bp"),
    ("shocks", [{"day": 1, "class": "solar_flare"}], "shocks[0].class"),
    ("agents/holders/0/deposits", -5, "agents.holders[h_1].deposits"),
    ("policies/srf_enabeld", True, "policies.srf_enabeld"),
    # a holder named like the bank used to fail its audit mid-run (exit 2),
    # a dealer named like the issuer to share its daily.csv rows
    ("agents/holders/0/name", "bank_a", "agents.holders[bank_a].name"),
    ("agents/dealers/0/name", "usdx", "agents.dealers[usdx].name"),
    # a capped decline of half or more rounds a price of 1 micro to 0: the
    # run used to pass validate and then fail its ledger mid-run
    ("market/max_dislocation_bp", 5_000, "market.max_dislocation_bp"),
    ("market/max_dislocation_bp", 9_999, "market.max_dislocation_bp"),
    ("market/max_dislocation_bp", 10_000, "market.max_dislocation_bp"),
    # calm has no mint_demand section: the row sets the whole section; a
    # negative rate used to be accepted and ignored
    ("mint_demand", {"daily_rate": -1}, "mint_demand.daily_rate"),
]


@pytest.mark.parametrize("path,value,field", REJECTED,
                         ids=[f"{p}={v!r}" for p, v, _ in REJECTED])
def test_rejected_config_exits_1_and_names_the_field(path, value, field,
                                                     tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(calm_with(path, value)))
    assert main(["validate", str(config)]) == 1
    assert f"invalid config: {field}" in capsys.readouterr().err
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    assert f"invalid config: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_world_that_cannot_be_built_exits_1(tmp_path, capsys):
    # every asset in repo: the dealers cannot pledge the collateral
    raw = calm_with("agents/issuers/0/allocation",
                    {"deposits": 0, "bills": 0, "repo": 102_000_000})
    config = tmp_path / "all_repo.json"
    config.write_text(json.dumps(raw))
    field = ("invalid config: agents.dealers[dealer_1]: pledges 50000000, needs 52020000 "
             "for its share 51000000 of agents.issuers[usdx].allocation.repo\n")
    assert main(["validate", str(config)]) == 1
    assert capsys.readouterr().err == field
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == field
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unbuildable_generated_book_names_the_dealer_and_the_issuer(command, bench_scaled,
                                                                    tmp_path, capsys):
    """Two dealers cannot pledge for unfunded issuers' repo: the book parses,
    and both commands exit 1 naming the first dealer that cannot pledge by
    its config path and the issuer whose allocation it borrows."""
    config = tmp_path / "unbuildable.json"
    config.write_text(json.dumps(bench_scaled(holders=20, issuers=3, horizon=15, dealers=2,
                                              funded=False, seed=5)))
    args = [command, str(config)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "invalid config: agents.dealers[dealer_00]: pledges 10985000, needs 39015000 "
        "for its share 38250000 of agents.issuers[issuer_01].allocation.repo\n")
    assert not (tmp_path / "out").exists()


def test_dealer_without_recorded_assets_exits_1(tmp_path, capsys):
    # opening Treasuries are not recorded assets, so base_assets 0 and no
    # exposures leave the leverage ratio nothing to divide by on day 0
    raw = calm_with("agents/issuers/0/allocation/repo", 0)
    issuer = raw["agents"]["issuers"][0]
    issuer["assets"] = sum(issuer["allocation"].values())
    raw["agents"]["dealers"].append(
        {"name": "dealer_3", "bank": "bank_a", "capital": 10, "base_assets": 0,
         "reserve_access": 0, "treasuries_long": 5_000_000})
    config = tmp_path / "bare_dealer.json"
    config.write_text(json.dumps(raw))
    field = "invalid config: agents.dealers[dealer_3].base_assets"
    assert main(["validate", str(config)]) == 1
    assert field in capsys.readouterr().err
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _leaves(node, path=()):
    """Every (path, value) below a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


def _numbers_are_integers(out: Path) -> None:
    def walk(value):
        assert not isinstance(value, float), value
        if isinstance(value, (dict, list)):
            for item in (value.values() if isinstance(value, dict) else value):
                walk(item)

    for name in ("daily.csv", "market.csv", "analytics.csv"):
        for row in csv.reader(io.StringIO((out / name).read_text())):
            for cell in row:
                try:
                    float(cell)
                except ValueError:
                    continue
                int(cell)  # a number that is not an integer fails here
    walk(json.loads((out / "summary.json").read_text()))
    for line in (out / "events.jsonl").read_text().splitlines():
        walk(json.loads(line))


MUTATIONS = ("str", "float", "bool", "list", "null", "negate", "delete", "insert")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PRESETS)), st.data())
def test_mutated_presets_are_rejected_or_run_cleanly(preset, data):
    """A preset with one value swapped for another type, negated or
    deleted is either rejected by parse_config, or the CLI runs it to
    exit 0 or 1 without raising; exit 0 writes integers only. An object
    with a key inserted is always rejected, naming that key."""
    raw = PRESETS[preset]()
    path, value = data.draw(st.sampled_from(list(_leaves(raw))))
    kind = data.draw(st.sampled_from(MUTATIONS))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if kind == "insert":
        # into the value if it is an object, else into the object holding it
        target = value if isinstance(value, dict) else parent
        if not isinstance(target, dict):
            target = raw
        target["zz_unknown"] = 1
        with pytest.raises(ValidationError, match="zz_unknown"):
            parse_config(raw)
        return
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "negate":
        parent[path[-1]] = -value if type(value) is int else -1
    else:
        parent[path[-1]] = {"str": str(value), "float": 0.5, "bool": True,
                            "list": [value], "null": None}[kind]
    try:
        parse_config(copy.deepcopy(raw))
    except (ValidationError, ParseError, UnknownShockClass):
        return
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "mutated.json"
        config.write_text(json.dumps(raw))
        code = main(["run", str(config), "--out", str(Path(tmp) / "out")])
        assert code in (0, 1)
        if code == 0:
            _numbers_are_integers(Path(tmp) / "out")
