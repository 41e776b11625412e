"""Solvency and liquidity metrics computed from balance-sheet inputs.

All functions are pure and stateless. Ratios are reported at fixed
precision: leverage at 1e-4 (so 500 == 5.00%), the supplementary
leverage ratio and liquidity fractions in micro units, and weighted
maturities in micro-days. Each report is an immutable record, a
`NamedTuple`, whose fields are read by name; every fraction rounds half
to even once, through `money`'s one-frame `frac_of` and `mul_div`.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .money import MICRO, Amount, frac_of, mul_div

RATIO_SCALE = 10_000  # leverage ratio precision: 1e-4

SLR_BASE_BOUND = 30_000   # 3% in micro
SLR_GSIB_BOUND = 50_000   # 3% + 2% surcharge


class AnalyticsError(Exception):
    pass


class NonPositiveAssets(AnalyticsError):
    pass


class NonPositiveDenominator(AnalyticsError):
    pass


class CapitalBand(Enum):
    WELL = "well_capitalized"
    ADEQUATE = "adequately_capitalized"
    UNDER = "undercapitalized"
    SIGNIFICANT = "significantly_undercapitalized"
    CRITICAL = "critically_undercapitalized"

    # members are singletons: `BAND_TEXT` hashes them by identity in C, not
    # through the Python-level `Enum.__hash__`
    __hash__ = object.__hash__


# Lower edges are inclusive: "at least 4%" is adequate, "at least 5%" well.
_BAND_FLOORS = (
    (500, CapitalBand.WELL),
    (400, CapitalBand.ADEQUATE),
    (300, CapitalBand.UNDER),
    (200, CapitalBand.SIGNIFICANT),
)


# each band's text, read without the Python-level enum descriptor behind `.value`
BAND_TEXT = {band: band._value_ for band in CapitalBand}


class LeverageReport(NamedTuple):
    ratio: int  # 1e-4 units
    band: CapitalBand


class SlrReport(NamedTuple):
    slr: int             # micro
    lower_bound: int     # micro
    headroom_assets: Amount


class LiquidityReport(NamedTuple):
    dla_frac: int    # micro
    wla_frac: int    # micro
    wam_days: int    # micro-days
    wal_days: int    # micro-days


def classify_fdicia(ratio: int) -> CapitalBand:
    """Band for a leverage ratio given in 1e-4 units (400 == 4%)."""
    for floor, band in _BAND_FLOORS:
        if ratio >= floor:
            return band
    return CapitalBand.CRITICAL


def leverage_ratio(assets: Amount, coins_outstanding: Amount) -> LeverageReport:
    """(assets - coins) / assets at 1e-4 precision, with its band."""
    if assets <= 0:
        raise NonPositiveAssets(f"assets must be positive, got {assets}")
    ratio = mul_div(assets - coins_outstanding, RATIO_SCALE, assets)
    return LeverageReport(ratio, classify_fdicia(ratio))


def slr_bound(gsib: bool, bound_override: int | None = None) -> int:
    """The SLR floor (micro): the override if set, else 5% or 3% by gsib."""
    return bound_override if bound_override is not None else (
        SLR_GSIB_BOUND if gsib else SLR_BASE_BOUND)


def slr(capital: Amount, assets: Amount, exposures: Amount, gsib: bool,
        bound_override: int | None = None) -> SlrReport:
    """Supplementary leverage ratio, its bound and the headroom: the
    largest extra unweighted asset amount that keeps capital / (assets +
    exposures + headroom) at or above the bound, floored at zero."""
    denom, bound = assets + exposures, slr_bound(gsib, bound_override)
    if denom <= 0:
        raise NonPositiveDenominator(f"assets + exposures must be positive, got {denom}")
    headroom = capital * MICRO // bound - denom
    return SlrReport(frac_of(capital, denom), bound, headroom if headroom > 0 else 0)


def holdings_liquidity(holdings: list) -> LiquidityReport:
    """The liquidity of `holdings`, `(value, days to maturity)` pairs: the
    daily and weekly liquid shares and the value-weighted days to
    maturity, which is also the weighted life."""
    total = daily = weekly = days = 0
    for value, maturity in holdings:
        total += value
        days += value * maturity
        if maturity <= 5:
            weekly += value
            if maturity <= 1:
                daily += value
    if total <= 0:
        return LiquidityReport(0, 0, 0, 0)
    wam = frac_of(days, total)
    return LiquidityReport(frac_of(daily, total), frac_of(weekly, total), wam, wam)


# analytics.csv: the daily.csv columns these reports fill, on the same rows
ANALYTICS_FIELDS = ("day", "agent", "ratio", "band", "slr", "headroom",
                    "dla", "wla", "wam", "wal")
