from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesim.analytics import (CapitalBand, LiquidityReport, NonPositiveAssets,
                                 NonPositiveDenominator, classify_fdicia,
                                 holdings_liquidity, leverage_ratio, slr)
from stablesim.engine import _issuer_holdings
from stablesim.instruments import RepoPosition
from stablesim.ledger import FED, AgentId, AgentKind, DurationClass, LedgerWorld
from stablesim.money import MICRO, mul_frac


def test_leverage_basic():
    report = leverage_ratio(100_000_00, 95_000_00)
    assert report.ratio == 500
    assert report.band is CapitalBand.WELL


def test_leverage_nonpositive_assets():
    with pytest.raises(NonPositiveAssets):
        leverage_ratio(0, 0)


@pytest.mark.parametrize("ratio,band", [
    (561, CapitalBand.WELL),                # 5.61%
    (16, CapitalBand.CRITICAL),             # 0.16%
    (214, CapitalBand.SIGNIFICANT),         # 2.14%
    (721, CapitalBand.WELL),                # 7.21%
    (400, CapitalBand.ADEQUATE),            # boundary: at least 4%
    (500, CapitalBand.WELL),                # boundary: at least 5%
    (199, CapitalBand.CRITICAL),
    (300, CapitalBand.UNDER),
    (299, CapitalBand.SIGNIFICANT),
])
def test_classification_boundaries(ratio, band):
    assert classify_fdicia(ratio) is band


_BAND_ORDER = [CapitalBand.CRITICAL, CapitalBand.SIGNIFICANT, CapitalBand.UNDER,
               CapitalBand.ADEQUATE, CapitalBand.WELL]


@given(st.integers(-1_000, 2_000), st.integers(0, 100))
def test_classification_is_monotone(ratio, bump):
    low = _BAND_ORDER.index(classify_fdicia(ratio))
    high = _BAND_ORDER.index(classify_fdicia(ratio + bump))
    assert high >= low


@settings(max_examples=200)
@given(st.integers(1, 10**10), st.integers(0, 10**10), st.integers(1, 1000))
def test_leverage_scale_invariance(assets, coins, k):
    base = leverage_ratio(assets, coins)
    scaled = leverage_ratio(assets * k, coins * k)
    assert scaled.ratio == base.ratio
    assert scaled.band is base.band


def test_slr_major_dealer_profile():
    report = slr(5_80, 100_00, 0, gsib=True)
    assert report.slr == 58_000  # 5.8%
    assert report.lower_bound == 50_000
    assert report.headroom_assets == 16_00


def test_slr_exactly_at_bound_has_zero_headroom():
    report = slr(5_00, 100_00, 0, gsib=True)
    assert report.headroom_assets == 0


def test_slr_non_gsib_bound():
    report = slr(3_00, 100_00, 0, gsib=False)
    assert report.lower_bound == 30_000
    assert report.headroom_assets == 0


def test_slr_nonpositive_denominator():
    with pytest.raises(NonPositiveDenominator):
        slr(1_00, 0, 0, gsib=True)


@settings(max_examples=300)
@given(st.integers(1, 10**9), st.integers(1, 10**10), st.integers(0, 10**8),
       st.booleans())
def test_headroom_recomputes_to_the_bound(capital, assets, exposures, gsib):
    report = slr(capital, assets, exposures, gsib)
    if report.headroom_assets == 0:
        return
    at_bound = slr(capital, assets + report.headroom_assets, exposures, gsib)
    # one more minor unit of assets must breach
    assert at_bound.slr >= report.lower_bound
    breached = slr(capital, assets + report.headroom_assets + 1, exposures, gsib)
    assert breached.slr < report.lower_bound or breached.slr == report.lower_bound


LENDER = AgentId(AgentKind.ISSUER, 0)
DEALER = AgentId(AgentKind.BROKER_DEALER, 0)


def test_all_overnight_book():
    report = holdings_liquidity([(100_000_00, 1)])
    assert report.dla_frac == MICRO
    assert report.wla_frac == MICRO
    assert report.wam_days == MICRO
    assert report.wal_days == MICRO


def test_weighted_maturity_mixed_book():
    # 30% overnight repo, 70% thirty-day bills
    report = holdings_liquidity([(30_00, 1), (70_00, 30)])
    assert report.dla_frac == 300_000
    assert report.wam_days == 21_300_000  # 21.3 days
    assert report.wam_days == report.wal_days


def test_allocation_split_daily_liquidity():
    # deposits 11, repo 43, bills 24 (scaled): daily liquid >= (43+11)/78
    report = holdings_liquidity([(11_00, 1), (43_00, 1), (24_00, 30)])
    threshold = (43_00 + 11_00) * MICRO // 78_00
    assert report.dla_frac >= threshold
    assert report.dla_frac <= report.wla_frac <= MICRO


def test_empty_book_reports_zeros():
    assert holdings_liquidity([]) == LiquidityReport(0, 0, 0, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10**8), st.integers(1, 120)),
                min_size=1, max_size=8))
def test_dla_never_exceeds_wla_and_trimming_long_raises_wla(holdings):
    report = holdings_liquidity(holdings)
    assert 0 <= report.dla_frac <= report.wla_frac <= MICRO
    assert report.wam_days <= report.wal_days
    beyond_week = [h for h in holdings if h[1] > 5]
    if beyond_week and len(beyond_week) < len(holdings):
        trimmed = [h for h in holdings if h[1] <= 5] + beyond_week[1:]
        assert holdings_liquidity(trimmed).wla_frac >= report.wla_frac


BANK = AgentId(AgentKind.BANK, 0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(deposits=st.integers(0, 10**9), bills=st.integers(0, 10**9), longs=st.integers(0, 10**9),
       prices=st.tuples(st.integers(1, 2 * MICRO), st.integers(1, 2 * MICRO)),
       maturity=st.integers(1, 400), today=st.integers(0, 2_000),
       repos=st.lists(st.tuples(st.integers(0, 10**9), st.integers(-5, 30)), max_size=6))
def test_issuer_holdings_match_the_pairs_built_from_the_same_book(deposits, bills, longs,
                                                                  prices, maturity, today,
                                                                  repos):
    """Phase 11 reads an issuer's liquidity from `(value, days)` holdings
    built off the world. They are the pairs this test builds itself from
    the same deposits, bill and long faces at their prices, and repos:
    deposits at one day, each repo to its second leg, bills to their
    configured maturity and longs to five years, each at least a day;
    empty books included."""
    world = LedgerWorld()
    for agent, bank in ((FED, None), (BANK, None), (LENDER, BANK)):
        world.add_agent(agent, bank=bank)
    expected = []
    if deposits:
        world.create_deposits(LENDER, deposits)
        expected.append((deposits, 1))
    book = [RepoPosition(repo_id=i, lender=LENDER, borrower=DEALER, principal=principal,
                         haircut=20_000, rate=0, open_day=today, second_leg_day=today + days)
            for i, (principal, days) in enumerate(repos)]
    expected += [(principal, max(1, days)) for principal, days in repos]
    for duration, face, price, days in ((DurationClass.BILL, bills, prices[0], maturity),
                                        (DurationClass.LONG, longs, prices[1], 365 * 5)):
        if face:
            world.grant_tbill(LENDER, duration, face)
            expected.append((mul_frac(face, price), max(1, days - today)))
        world.remark_tbills(duration, price)
    issuer = SimpleNamespace(agent=LENDER, config=SimpleNamespace(bill_maturity_days=maturity))
    assert sorted(_issuer_holdings(world, issuer, book, today)) == sorted(expected)
