"""Command-line entry points.

  stablesim run <config> [--seed N] [--out DIR]
  stablesim sweep <config> --grid <file> [--out DIR]
  stablesim validate <config>
  stablesim presets list

Exit codes: 0 ok, 1 validation or parse failure (including a world that
cannot be built from the config; `validate` builds it too, and a command
line it rejects), 2 audit failure, 3 I/O failure. `sweep` writes every
point's row to matrix.csv, then exits 2 if any point failed its audit,
else 1 if any point failed; a point whose outputs cannot be written
stops it with exit 3.
<config> is a JSON file path or a preset name.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import (ParseError, ValidationError, load_config, load_raw,
                     parse_config, preset_descriptions)
from .dynamics import UnknownShockClass
from .engine import AuditFailure, build_scenario, run, sweep
from .instruments import InstrumentError
from .ledger import LedgerError
from .market import MarketError
from .settlement import SettlementError

# what parse_config raises for a config it rejects
CONFIG_ERRORS = (ParseError, ValidationError, UnknownShockClass)
# what the engine raises for a valid config it cannot carry out, such as repo
# collateral the dealers cannot pledge when the world is built
WORLD_ERRORS = (InstrumentError, LedgerError, MarketError, SettlementError)

# what reading a config, building its world or running it can fail with
FAILURES = (AuditFailure, *CONFIG_ERRORS, *WORLD_ERRORS, OSError)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_AUDIT = 2
EXIT_IO = 3


def report_failure(err: Exception) -> int:
    """Print the message for `err`, one of `FAILURES`, and return its exit
    code. A config error is matched before a world error: a config that
    parses and cannot be built (`UnpledgeableRepo`) is both."""
    if isinstance(err, AuditFailure):
        message, code = str(err), EXIT_AUDIT
    elif isinstance(err, CONFIG_ERRORS):
        message, code = f"invalid config: {err}", EXIT_VALIDATION
    elif isinstance(err, WORLD_ERRORS):
        message, code = f"invalid config: {type(err).__name__}: {err}", EXIT_VALIDATION
    else:
        message, code = str(err), EXIT_IO
    print(message, file=sys.stderr)
    return code


def cmd_run(args) -> int:
    try:
        raw = load_raw(args.config)
        if args.seed is not None and type(raw) is dict:
            raw["seed"] = args.seed  # checked by parse_config like the file's seed
        output = run(parse_config(raw))
    except FAILURES as err:
        return report_failure(err)
    try:
        output.write(args.out)
    except OSError as err:
        print(f"cannot write outputs: {err}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote daily.csv, market.csv, analytics.csv, summary.json, "
          f"events.jsonl to {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        raw = load_raw(args.config)
        parse_config(raw)  # fail fast before the grid multiplies the error
        grid_raw = json.loads(Path(args.grid).read_text(encoding="utf-8"))
        grid = grid_raw.get("grid", grid_raw) if isinstance(grid_raw, dict) else grid_raw
        if not isinstance(grid, dict):
            raise ValidationError("grid file must map parameter paths to value lists")
        for key, values in grid.items():
            if not isinstance(values, list) or not values:
                raise ValidationError(f"grid values for {key} must be a non-empty list")
    except (*CONFIG_ERRORS, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        print(f"invalid sweep input: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(str(err), file=sys.stderr)
        return EXIT_IO
    try:
        report = sweep(raw, grid, out_dir=args.out)
    except OSError as err:
        print(f"cannot write outputs: {err}", file=sys.stderr)
        return EXIT_IO
    failures = [p.error for p in report.points if p.error]
    print(f"swept {len(report.points)} points "
          f"({len(failures)} failed) into {args.out}")
    if any(error.startswith(f"{AuditFailure.__name__}:") for error in failures):
        return EXIT_AUDIT
    return EXIT_VALIDATION if failures else EXIT_OK


def cmd_validate(args) -> int:
    """Parse the config and build its world, as `run` does before day 0."""
    try:
        build_scenario(load_config(args.config))
    except FAILURES as err:
        return report_failure(err)
    print("ok")
    return EXIT_OK


def cmd_presets(args) -> int:
    if args.action != "list":
        print("unknown presets action; try: presets list", file=sys.stderr)
        return EXIT_VALIDATION
    for name, description in preset_descriptions().items():
        print(f"{name:20s} {description}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse, with a rejected command line exiting 1: its own code, 2,
    is the audit-failure code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stablesim",
        description="Deterministic stablecoin redemption-stress simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("config", help="config file or preset name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("config", help="config file or preset name")
    p_sweep.add_argument("--grid", required=True, help="JSON grid file")
    p_sweep.add_argument("--out", default="sweep_out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="validate a config")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    p_presets = sub.add_parser("presets", help="preset catalog")
    p_presets.add_argument("action", nargs="?", default="list")
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
