from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesim.analytics import (CapitalBand, NonPositiveAssets,
                                 NonPositiveDenominator, classify_fdicia,
                                 holdings_liquidity, leverage_ratio, liquidity_metrics, slr)
from stablesim.engine import _issuer_holdings
from stablesim.instruments import PortfolioState, RepoPosition, TreasuryBill
from stablesim.ledger import (FED, AgentId, AgentKind, DurationClass, LedgerWorld, deposit_key,
                              reserves_key)
from stablesim.money import MICRO


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


def overnight_repo(principal, day=0):
    return RepoPosition(repo_id=0, lender=LENDER, borrower=DEALER,
                        principal=principal, haircut=20_000, rate=0,
                        open_day=day, second_leg_day=day + 1)


def test_all_overnight_book():
    p = PortfolioState(treasury_face=0, treasury_price=MICRO, deposits=0,
                       rate_treasury=0, rate_deposit=0,
                       repos=[overnight_repo(100_000_00)])
    report = liquidity_metrics(p, today=0)
    assert report.dla_frac == MICRO
    assert report.wla_frac == MICRO
    assert report.wam_days == MICRO
    assert report.wal_days == MICRO


def test_weighted_maturity_mixed_book():
    # 30% overnight repo, 70% thirty-day bills
    p = PortfolioState(treasury_face=70_00, treasury_price=MICRO, deposits=0,
                       rate_treasury=0, rate_deposit=0,
                       bills=[TreasuryBill(face=70_00, maturity_day=30)],
                       repos=[overnight_repo(30_00)])
    report = liquidity_metrics(p, today=0)
    assert report.dla_frac == 300_000
    assert report.wam_days == 21_300_000  # 21.3 days
    assert report.wam_days == report.wal_days


def test_allocation_split_daily_liquidity():
    # repo 43, bills 24, deposits 11 (scaled): daily liquid >= (43+11)/78
    p = PortfolioState(treasury_face=24_00, treasury_price=MICRO, deposits=11_00,
                       rate_treasury=0, rate_deposit=0,
                       bills=[TreasuryBill(face=24_00, maturity_day=30)],
                       repos=[overnight_repo(43_00)])
    report = liquidity_metrics(p, today=0)
    threshold = (43_00 + 11_00) * MICRO // 78_00
    assert report.dla_frac >= threshold
    assert report.dla_frac <= report.wla_frac <= MICRO


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10**8), st.integers(1, 120)),
                min_size=1, max_size=8))
def test_dla_never_exceeds_wla_and_trimming_long_raises_wla(holdings):
    bills = [TreasuryBill(face=f, maturity_day=m) for f, m in holdings]
    p = PortfolioState(treasury_face=sum(f for f, _ in holdings),
                       treasury_price=MICRO, deposits=0,
                       rate_treasury=0, rate_deposit=0, bills=bills)
    report = liquidity_metrics(p, today=0)
    assert 0 <= report.dla_frac <= report.wla_frac <= MICRO
    assert report.wam_days <= report.wal_days
    beyond_week = [b for b in bills if b.maturity_day > 5]
    if beyond_week and len(beyond_week) < len(bills):
        trimmed = [b for b in bills if b.maturity_day <= 5] + beyond_week[1:]
        p2 = PortfolioState(treasury_face=sum(b.face for b in trimmed),
                            treasury_price=MICRO, deposits=0,
                            rate_treasury=0, rate_deposit=0, bills=trimmed)
        assert liquidity_metrics(p2, today=0).wla_frac >= report.wla_frac


BANK = AgentId(AgentKind.BANK, 0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(deposits=st.integers(0, 10**9), bills=st.integers(0, 10**9), longs=st.integers(0, 10**9),
       prices=st.tuples(st.integers(1, 2 * MICRO), st.integers(1, 2 * MICRO)),
       maturity=st.integers(1, 400), today=st.integers(0, 2_000),
       repos=st.lists(st.tuples(st.integers(0, 10**9), st.integers(-5, 30)), max_size=6))
def test_issuer_holdings_agree_with_the_portfolio_liquidity(deposits, bills, longs, prices,
                                                            maturity, today, repos):
    """Phase 11 reads an issuer's liquidity from `(value, days)` holdings
    built off the world; they give the report of the `PortfolioState`
    with the same deposits, bills, long Treasuries and repos, empty books
    included."""
    world = LedgerWorld()
    for agent, bank in ((FED, None), (BANK, None), (LENDER, BANK)):
        world.add_agent(agent, bank=bank)
    if deposits:
        world.post({(FED.key, "A", "govt"): deposits,
                    (FED.key, "L", reserves_key(BANK)): deposits,
                    (BANK.key, "A", reserves_key()): deposits,
                    (BANK.key, "L", deposit_key(LENDER)): deposits,
                    (LENDER.key, "A", deposit_key(BANK)): deposits})
    held = []
    for duration, face, price, days in ((DurationClass.BILL, bills, prices[0], maturity),
                                        (DurationClass.LONG, longs, prices[1], 365 * 5)):
        if face:
            world.grant_tbill(LENDER, duration, face)
            held.append(TreasuryBill(face=face, maturity_day=days, market_price=price))
        world.remark_tbills(duration, price)
    book = [RepoPosition(repo_id=i, lender=LENDER, borrower=DEALER, principal=principal,
                         haircut=20_000, rate=0, open_day=today, second_leg_day=today + days)
            for i, (principal, days) in enumerate(repos)]
    portfolio = PortfolioState(treasury_face=bills + longs, treasury_price=prices[0],
                               deposits=deposits, rate_treasury=0, rate_deposit=0,
                               repo_principal=sum(p.principal for p in book),
                               bills=held, repos=book)
    issuer = SimpleNamespace(agent=LENDER, config=SimpleNamespace(bill_maturity_days=maturity))
    assert holdings_liquidity(_issuer_holdings(world, issuer, book, today)) == \
        liquidity_metrics(portfolio, today)
