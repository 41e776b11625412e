"""Host-speed probe that the benchmark's time metrics are scaled by.

A shared machine runs this process faster or slower in phases that can
outlast a whole invocation, and every sample taken inside such a phase
moves with it. `probe()` is a fixed piece of pure-Python work in the
style of the program (integer arithmetic, small objects, dict lookups,
list appends, string formatting) that never changes with the program.
Timed between the program's runs, its fastest times say how fast the
host was during the invocation, and

    calibrated = fastest program time * REFERENCE_PROBE_S / probe time

is the program's time at the reference speed: the speed at which the
probe takes REFERENCE_PROBE_S. The probe time is taken at the depth of
the program's fastest-of-runs (see `run.Bench.end_to_end`).
"""

from __future__ import annotations

import time

# The probe's fastest time on a 2-CPU Xeon VM with Python 3.11.7. It only
# sets the scale of the calibrated times; any constant would compare
# two commits the same way.
REFERENCE_PROBE_S = 0.018


class _Account:
    __slots__ = ("name", "balance", "history")

    def __init__(self, name: str):
        self.name = name
        self.balance = 0
        self.history: list = []


def probe(accounts: int = 600, days: int = 20, loops: int = 100_000) -> int:
    """The probe's work; returns a checksum so nothing is optimised away."""
    book = {f"acct_{i:05d}": _Account(f"acct_{i:05d}") for i in range(accounts)}
    names = list(book)
    checksum = 0
    for day in range(days):
        for k in range(accounts):
            payer = book[names[(k * 7919 + day) % accounts]]
            payee = book[names[(k * 31 + day * 17) % accounts]]
            amount = (k * 104729 + day) % 100_000
            payer.balance -= amount
            payee.balance += amount
            payer.history.append((day, -amount))
            payee.history.append((day, amount))
        rows = [f"{day},{a.name},{a.balance}" for a in book.values() if a.balance > 0]
        checksum += len(rows) + sum(a.balance * a.balance % 1_000_003 for a in book.values())
    for i in range(loops):
        checksum += i * i % 7
    return checksum


def time_probe() -> int:
    """One timed probe, in nanoseconds."""
    start = time.perf_counter_ns()
    probe()
    return time.perf_counter_ns() - start
