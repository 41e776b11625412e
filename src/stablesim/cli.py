"""Command-line entry points.

  stablesim run <config> [--seed N] [--out DIR]
  stablesim sweep <config> --grid <file> [--out DIR]
  stablesim validate <config>
  stablesim presets list

Exit codes: 0 ok, 1 validation or parse failure (including a world that
cannot be built from the config; `validate` builds it too), 2 audit
failure, 3 I/O failure.
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

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_AUDIT = 2
EXIT_IO = 3


def cmd_run(args) -> int:
    try:
        raw = load_raw(args.config)
        if args.seed is not None and type(raw) is dict:
            raw["seed"] = args.seed  # checked by parse_config like the file's seed
        config = parse_config(raw)
    except CONFIG_ERRORS as err:
        print(f"invalid config: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(str(err), file=sys.stderr)
        return EXIT_IO
    try:
        output = run(config)
    except AuditFailure as err:
        print(str(err), file=sys.stderr)
        return EXIT_AUDIT
    except WORLD_ERRORS as err:
        print(f"invalid config: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_VALIDATION
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
        grid_raw = json.loads(Path(args.grid).read_text())
        grid = grid_raw.get("grid", grid_raw)
        if not isinstance(grid, dict):
            raise ValidationError("grid file must map parameter paths to value lists")
        for key, values in grid.items():
            if not isinstance(values, list) or not values:
                raise ValidationError(f"grid values for {key} must be a non-empty list")
    except (*CONFIG_ERRORS, json.JSONDecodeError) as err:
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
    failures = [p for p in report.points if p.error]
    print(f"swept {len(report.points)} points "
          f"({len(failures)} failed) into {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    """Parse the config and build its world, as `run` does before day 0."""
    try:
        config = load_config(args.config)
    except CONFIG_ERRORS as err:
        print(f"invalid config: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(str(err), file=sys.stderr)
        return EXIT_IO
    try:
        build_scenario(config)
    except WORLD_ERRORS as err:
        print(f"invalid config: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def cmd_presets(args) -> int:
    if args.action != "list":
        print("unknown presets action; try: presets list", file=sys.stderr)
        return EXIT_VALIDATION
    for name, description in preset_descriptions().items():
        print(f"{name:20s} {description}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
