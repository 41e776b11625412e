import json

from stablesim.cli import main


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
    from stablesim.config import PRESETS

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
