"""Solvency and liquidity metrics computed from balance-sheet inputs.

All functions are pure and stateless. Ratios are reported at fixed
precision: leverage at 1e-4 (so 500 == 5.00%), the supplementary
leverage ratio and liquidity fractions in micro units, and weighted
maturities in micro-days.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .instruments import PortfolioState
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


# Lower edges are inclusive: "at least 4%" is adequate, "at least 5%" well.
_BAND_FLOORS = (
    (500, CapitalBand.WELL),
    (400, CapitalBand.ADEQUATE),
    (300, CapitalBand.UNDER),
    (200, CapitalBand.SIGNIFICANT),
)


@dataclass(frozen=True)
class LeverageReport:
    ratio: int  # 1e-4 units
    band: CapitalBand


@dataclass(frozen=True)
class SlrReport:
    slr: int             # micro
    lower_bound: int     # micro
    headroom_assets: Amount


@dataclass(frozen=True)
class LiquidityReport:
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
    return LeverageReport(ratio=ratio, band=classify_fdicia(ratio))


def slr_bound(gsib: bool, bound_override: int | None = None) -> int:
    """The SLR floor (micro): the override if set, else 5% or 3% by gsib."""
    return bound_override if bound_override is not None else (
        SLR_GSIB_BOUND if gsib else SLR_BASE_BOUND)


def slr_headroom(capital: Amount, denom: Amount, bound: int) -> Amount:
    """The largest extra unweighted asset amount that keeps capital /
    (denom + headroom) at or above `bound`, floored at zero; `denom` is
    assets plus exposures."""
    if denom <= 0:
        raise NonPositiveDenominator(f"assets + exposures must be positive, got {denom}")
    return max(0, capital * MICRO // bound - denom)


def slr(capital: Amount, assets: Amount, exposures: Amount, gsib: bool,
        bound_override: int | None = None) -> SlrReport:
    """Supplementary leverage ratio, its bound and `slr_headroom`."""
    denom, bound = assets + exposures, slr_bound(gsib, bound_override)
    headroom = slr_headroom(capital, denom, bound)   # raises on denom <= 0 first
    return SlrReport(slr=mul_div(capital, MICRO, denom), lower_bound=bound,
                     headroom_assets=headroom)


def portfolio_holdings(portfolio: PortfolioState, today: int) -> list[tuple[Amount, int]]:
    """(value, days to maturity) per holding, which is also its days to
    final life.

    Deposits are demand money (one day); overnight repo counts as
    daily-liquid; bills run to their maturity date.
    """
    holdings: list[tuple[Amount, int]] = []
    if portfolio.deposits > 0:
        holdings.append((portfolio.deposits, 1))
    for pos in portfolio.repos:
        holdings.append((pos.principal, max(1, pos.second_leg_day - today)))
    for bill in portfolio.bills:
        holdings.append((bill.value(), max(1, bill.maturity_day - today)))
    return holdings


def liquidity_metrics(portfolio: PortfolioState, today: int) -> LiquidityReport:
    return holdings_liquidity(portfolio_holdings(portfolio, today))


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
    wam = mul_div(days, MICRO, total)
    return LiquidityReport(dla_frac=frac_of(daily, total), wla_frac=frac_of(weekly, total),
                           wam_days=wam, wal_days=wam)


# analytics.csv: the daily.csv columns these reports fill, on the same rows
ANALYTICS_FIELDS = ("day", "agent", "ratio", "band", "slr", "headroom",
                    "dla", "wla", "wam", "wal")
