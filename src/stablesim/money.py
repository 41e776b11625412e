"""Exact integer money and fixed-point fraction arithmetic.

Monetary amounts are signed integers in minor units (cents of the
configured unit scale). Prices, rates and ratios are integers scaled by
1e6 ("micro" units: 1_000_000 == 1.0 == par). Every valuation rounds
half to even exactly once, at the final step, so conservation checks
can compare amounts bit-exactly.
"""

from __future__ import annotations

MICRO = 1_000_000
PAR = MICRO
BP = 100  # one basis point in micro units

Amount = int


def mul_div(value: int, num: int, den: int) -> int:
    """value * num / den with a single round-half-to-even step.

    den must be positive. Python integers never overflow, so the
    intermediate product is exact.
    """
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    q, r = divmod(value * num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2 != 0):
        q += 1
    return q


def mul_frac(value: int, frac_micro: int) -> int:
    """Apply a micro-scaled fraction to an amount, rounding half to even."""
    return mul_div(value, frac_micro, MICRO)


def frac_of(part: int, whole: int) -> int:
    """part / whole as a micro-scaled fraction."""
    return mul_div(part, MICRO, whole)


def ceil_div(num: int, den: int) -> int:
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    return -((-num) // den)

