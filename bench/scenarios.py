"""Deterministic benchmark scenarios built on the public stablesim API.

`scaled()` grows the `calm` preset into a many-agent scenario, and
`workload()` names the three benchmark workloads. The program only ever
receives the generated config; the benchmark seed becomes the config
`seed`, which samples the magnitude of each `confidence_only` shock.
"""

from __future__ import annotations

import itertools
import json
import random

from stablesim.config import PRESETS, preset_calm

CHAINS = 3
SHOCK_DAY = 3
DEFAULT_SEED = 1


def scaled(holders: int, issuers: int, horizon: int, dealers: int,
           funded: bool, seed: int) -> dict:
    """A `calm` preset grown to the given size.

    - every issuer has the calm preset's coins outstanding, split evenly
      (remainder to the first holders) across `holders` holders, so
      each holder's coins are split evenly across the issuers;
    - issuers sit on 3 chains, agents alternate between two banks;
    - funded issuers hold 60/30/10 deposits/bills/repo, unfunded ones
      25/75 bills/repo;
    - unfunded scenarios cap the dealers' combined reserve access at 2%
      of one issuer's coins outstanding, so bill sales and funding-gap
      liquidations outrun dealer capacity for the whole horizon;
    - one `confidence_only` shock with a sampled magnitude hits every
      chain on day 3.
    """
    if min(holders, issuers, horizon, dealers) < 1 or horizon <= SHOCK_DAY:
        raise ValueError("scaled() needs positive sizes and a horizon past the shock day")
    raw = preset_calm()
    base = raw["agents"]
    coins = base["issuers"][0]["coins"]
    assets = base["issuers"][0]["assets"]
    banks = ["bank_a", "bank_b"]
    dealer_proto = base["dealers"][0]

    def bank(i: int) -> str:
        return banks[i % len(banks)]

    if funded:
        alloc = {"deposits": 0, "bills": assets * 30 // 100, "repo": assets * 10 // 100}
    else:
        alloc = {"deposits": 0, "bills": assets * 25 // 100, "repo": 0}
    alloc["deposits" if funded else "repo"] = assets - sum(alloc.values())

    issuer_names = [f"issuer_{i:02d}" for i in range(issuers)]
    issuer_list = [{
        "name": name, "bank": bank(i), "chain": f"chain_{i % CHAINS}",
        "coins": coins, "assets": assets, "allocation": dict(alloc),
    } for i, name in enumerate(issuer_names)]

    share, extra = divmod(coins, holders)
    holder_list = [{
        "name": f"holder_{h:05d}", "bank": bank(h), "deposits": 0,
        "coins": {name: share + (1 if h < extra else 0) for name in issuer_names},
    } for h in range(holders)]

    reserve_access = dealer_proto["reserve_access"]
    if not funded:
        reserve_access = coins * 2 // 100 // dealers
    dealer_list = [dict(dealer_proto, name=f"dealer_{d:02d}", bank=bank(d),
                        reserve_access=reserve_access) for d in range(dealers)]

    buyer = dict(base["treasury_buyers"][0])
    buyer["deposits"] *= issuers
    buyer["treasuries_bill"] *= issuers
    raw["agents"] = {
        "banks": [{"name": b} for b in banks],
        "issuers": issuer_list,
        "dealers": dealer_list,
        "intermediaries": base["intermediaries"],
        "holders": holder_list,
        "treasury_buyers": [buyer],
    }
    raw["horizon_days"] = horizon
    raw["seed"] = seed
    raw["shocks"] = [{"day": SHOCK_DAY, "class": "confidence_only",
                      "systemic": "medium", "chain": f"chain_{c}"}
                     for c in range(min(CHAINS, issuers))]
    return raw


# Generator arguments of the two long workloads; see README.md for why.
SCALED_ARGS = {
    "holders_direct": {"holders": 1000, "issuers": 5, "horizon": 120,
                       "dealers": 2, "funded": True},
    "dealer_squeeze": {"holders": 10, "issuers": 3, "horizon": 120,
                       "dealers": 8, "funded": False},
}
SWEEP_SEEDS = 8


def sweep_grid(seed: int) -> dict:
    """The preset_sweep grid: 8 config seeds drawn from the bench seed."""
    rng = random.Random(seed)
    return {"seed": [rng.randrange(2 ** 32) for _ in range(SWEEP_SEEDS)],
            "policies.srf_enabled": [False, True]}


def workload(name: str, seed: int) -> dict:
    """Generator arguments and inputs of one workload.

    Returns {"args": ..., "config": raw dict} for the long workloads and
    {"args": ..., "sweeps": [(preset, raw dict, grid), ...]} for
    preset_sweep.
    """
    if name in SCALED_ARGS:
        args = dict(SCALED_ARGS[name], seed=seed)
        return {"args": args, "config": scaled(**args)}
    if name == "preset_sweep":
        grid = sweep_grid(seed)
        return {"args": {"presets": sorted(PRESETS), "grid": grid, "seed": seed},
                "sweeps": [(p, PRESETS[p](), grid) for p in sorted(PRESETS)]}
    raise KeyError(f"unknown workload: {name}")


WORKLOADS = ("holders_direct", "dealer_squeeze", "preset_sweep")


def sweep_points(raw: dict, grid: dict) -> list:
    """The configs `engine.sweep(raw, grid)` runs, in its point order."""
    keys = sorted(grid)
    points = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        point = json.loads(json.dumps(raw))
        for dotted, value in zip(keys, combo):
            *parents, leaf = dotted.split(".")
            node = point
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = value
        points.append(point)
    return points


def market_idle(output) -> str | None:
    """holders_direct is sized so deposits fund every redemption."""
    volume = output.summary["market"]["gross_volume"]
    return f"market not idle: gross volume {volume}" if volume else None


def carryover_present(output) -> str | None:
    """dealer_squeeze is sized so sales outrun dealer capacity."""
    if any(row["unfilled"] for row in output.market_rows):
        return None
    return "no unfilled sale carried over"


SHAPE_CHECKS = {"holders_direct": market_idle, "dealer_squeeze": carryover_present}


def config_bytes(raw: dict) -> bytes:
    """Canonical bytes of a generated config, for determinism checks."""
    return json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
