import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesim.config import PRESETS, ValidationError, parse_config
from stablesim.instruments import (GENIUS_MAX_BILL_DAYS, InsufficientCollateral,
                                   InsufficientCash, PortfolioState, RepoRegistry, WrongDay,
                                   close_or_default_repo, default_loss, deliver_tbills,
                                   mark_treasuries, open_reverse_repo,
                                   required_collateral, roll_repo, step_portfolio)
from stablesim.ledger import (FED, AgentId, AgentKind, DurationClass, InsufficientPosition,
                              LedgerWorld, Posting, TransferBatch, deposit_key, reserves_key)
from stablesim.money import MICRO, mul_div, mul_frac

BANK = AgentId(AgentKind.BANK, 0)
ISSUER = AgentId(AgentKind.ISSUER, 0)
DEALER = AgentId(AgentKind.BROKER_DEALER, 0)


def repo_world(issuer_cash=100_000_00, dealer_bills=0, dealer_long=0,
               dealer_cash=100_000_00):
    world = LedgerWorld()
    world.add_agent(FED)
    world.add_agent(BANK)
    world.add_agent(ISSUER, bank=BANK)
    world.add_agent(DEALER, bank=BANK)
    for agent, amount in ((ISSUER, issuer_cash), (DEALER, dealer_cash)):
        if amount:
            world.post([
                Posting(FED, "A", "govt", amount),
                Posting(FED, "L", f"reserves@{BANK.key}", amount),
                Posting(BANK, "A", reserves_key(), amount),
                Posting(BANK, "L", f"deposit@{agent.key}", amount),
                Posting(agent, "A", deposit_key(BANK), amount),
            ])
    if dealer_bills:
        world.grant_tbill(DEALER, DurationClass.BILL, dealer_bills)
    if dealer_long:
        world.grant_tbill(DEALER, DurationClass.LONG, dealer_long)
    return world


def test_required_collateral_examples():
    assert required_collateral(100_00, 20_000) == 102_00  # 2% haircut
    assert required_collateral(100_00, 0) == 100_00


def test_open_reverse_repo_posts_both_legs():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = open_reverse_repo(world, registry, ISSUER, DEALER, 100_00,
                            haircut=20_000, rate=0, term=1)
    assert world.sheet(ISSUER).asset(f"repo@{DEALER.key}") == 100_00
    assert world.sheet(DEALER).liability(f"repo@{ISSUER.key}") == 100_00
    assert pos.collateral_value(world) >= 102_00
    # default mix is three quarters long off-the-run
    assert pos.collateral[DurationClass.LONG] > pos.collateral[DurationClass.BILL]
    assert world.audit().ok


def test_open_repo_insufficient_collateral():
    world = repo_world(dealer_bills=0, dealer_long=101_00)
    registry = RepoRegistry()
    with pytest.raises(InsufficientCollateral):
        open_reverse_repo(world, registry, ISSUER, DEALER, 100_00,
                          haircut=20_000, rate=0)


def test_open_repo_insufficient_cash():
    world = repo_world(issuer_cash=50_00, dealer_long=300_00)
    registry = RepoRegistry()
    with pytest.raises(InsufficientCash):
        open_reverse_repo(world, registry, ISSUER, DEALER, 100_00,
                          haircut=20_000, rate=0)


def test_second_leg_performance_returns_principal_plus_interest():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = open_reverse_repo(world, registry, ISSUER, DEALER, 10_000_00,
                            haircut=20_000, rate=1_000, term=1)
    issuer_equity = world.sheet(ISSUER).equity
    dealer_equity = world.sheet(DEALER).equity
    world.day = 1
    outcome = close_or_default_repo(world, registry, pos, counterparty_performs=True)
    assert outcome.loss == 0
    interest = mul_frac(10_000_00, 1_000)
    assert outcome.cash_to_lender == 10_000_00 + interest
    # round trip changes both parties' equity only by the interest
    assert world.sheet(ISSUER).equity == issuer_equity + interest
    assert world.sheet(DEALER).equity == dealer_equity - interest
    assert world.audit().ok


def test_second_leg_on_wrong_day():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = open_reverse_repo(world, registry, ISSUER, DEALER, 100_00,
                            haircut=20_000, rate=0, term=1)
    with pytest.raises(WrongDay):
        close_or_default_repo(world, registry, pos, True)


def test_default_moves_collateral_to_lender_and_releases_it():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = open_reverse_repo(world, registry, ISSUER, DEALER, 10_000_00,
                            haircut=20_000, rate=1_000, term=1)
    pledged = dict(pos.collateral)
    assert registry.encumbered == {(DEALER.key, d): f for d, f in pledged.items()}
    world.day = 1
    outcome = close_or_default_repo(world, registry, pos, False, market_decline=50_000)
    loss = default_loss(10_000_00, 20_000, 50_000)
    assert (outcome.performed, outcome.loss) == (False, loss)
    assert outcome.cash_to_lender == 10_000_00 - loss
    [event] = [e for e in world.events if e["type"] == "repo_default"]
    assert (event["lender"], event["borrower"], event["principal"], event["loss"]) == (
        ISSUER.key, DEALER.key, 10_000_00, loss)
    for duration, face in pledged.items():
        assert world.face_of(ISSUER, duration) == face
    assert world.face_of(DEALER, DurationClass.BILL) == 30_000_00 - pledged[DurationClass.BILL]
    assert world.face_of(DEALER, DurationClass.LONG) == 90_000_00 - pledged[DurationClass.LONG]
    assert world.sheet(ISSUER).asset(f"repo@{DEALER.key}") == 0
    assert registry.positions == {} and registry.encumbered == {}
    assert world.audit().ok


def repo_book(world, registry):
    return (copy.deepcopy(registry.positions), dict(registry.encumbered),
            registry._next_id, world.snapshot().to_json(), list(world.events))


def test_roll_failing_on_collateral_leaves_the_book_untouched():
    # exactly the pledge at par; a 1% fall leaves it short and nothing is free
    world = repo_world(dealer_bills=2_550_00, dealer_long=7_650_00)
    registry = RepoRegistry()
    pos = open_reverse_repo(world, registry, ISSUER, DEALER, 10_000_00,
                            haircut=20_000, rate=1_000, term=1)
    assert registry.free_face(world, DEALER, DurationClass.BILL) == 0
    mark_treasuries(world, registry, -10_000)
    world.day = 1
    before = repo_book(world, registry)
    with pytest.raises(InsufficientCollateral):
        roll_repo(world, registry, pos, new_rate=2_000)
    assert repo_book(world, registry) == before


def test_roll_failing_on_interest_cash_leaves_the_book_untouched():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = open_reverse_repo(world, registry, ISSUER, DEALER, 10_000_00,
                            haircut=20_000, rate=1_000, term=1)
    world.transfer_deposit(DEALER, ISSUER, world.deposits(DEALER))
    world.day = 1
    before = repo_book(world, registry)
    with pytest.raises(InsufficientPosition):
        roll_repo(world, registry, pos, new_rate=2_000)
    assert repo_book(world, registry) == before


def test_roll_at_negative_rate_pays_interest_to_the_borrower():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = open_reverse_repo(world, registry, ISSUER, DEALER, 10_000_00,
                            haircut=20_000, rate=-1_000, term=1)
    issuer_cash, dealer_cash = world.deposits(ISSUER), world.deposits(DEALER)
    world.day = 1
    roll_repo(world, registry, pos, new_rate=-1_000)
    interest = mul_frac(10_000_00, -1_000)
    assert world.events[-1]["interest"] == interest < 0
    assert world.deposits(ISSUER) == issuer_cash + interest
    assert world.deposits(DEALER) == dealer_cash - interest
    assert world.audit().ok


def test_close_owing_less_than_zero_is_paid_by_the_lender():
    """At -150% a day the borrower owes principal plus interest below zero:
    the lender pays it the difference and the loan leaves both books."""
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = open_reverse_repo(world, registry, ISSUER, DEALER, 10_000_00,
                            haircut=20_000, rate=-1_500_000, term=1)
    issuer_cash, dealer_cash = world.deposits(ISSUER), world.deposits(DEALER)
    world.day = 1
    outcome = close_or_default_repo(world, registry, pos, counterparty_performs=True)
    owed = 10_000_00 + mul_frac(10_000_00, -1_500_000)
    assert outcome.cash_to_lender == owed == -5_000_00
    assert world.events[-1]["interest"] == owed - 10_000_00
    assert world.deposits(ISSUER) == issuer_cash + owed
    assert world.deposits(DEALER) == dealer_cash - owed
    assert world.sheet(ISSUER).asset(f"repo@{DEALER.key}") == 0
    assert world.sheet(DEALER).liability(f"repo@{ISSUER.key}") == 0
    assert registry.positions == {} and registry.encumbered == {}
    assert world.audit().ok


def test_deliver_tbills_caps_payment_and_scales_face():
    world = repo_world(issuer_cash=1_00, dealer_bills=1_000_00)
    mark_treasuries(world, RepoRegistry(), -20_000, DurationClass.BILL)
    price = world.price(DurationClass.BILL)
    batch = TransferBatch(world)
    paid = deliver_tbills(batch, DEALER, ISSUER, DurationClass.BILL, 500_00, price)
    assert paid == 1_00
    bought = mul_div(1_00, MICRO, price)
    assert (batch.deposits(ISSUER), batch.face_of(ISSUER, DurationClass.BILL)) == (0, bought)
    # a buyer with no deposits left pays nothing and receives nothing
    assert deliver_tbills(batch, DEALER, ISSUER, DurationClass.BILL, 500_00, price) == 0
    assert world.deposits(ISSUER) == 1_00   # nothing is written before the commit
    batch.commit()
    assert world.deposits(ISSUER) == 0
    assert world.face_of(ISSUER, DurationClass.BILL) == bought
    assert world.audit().ok


def test_default_inside_haircut_recovers_everything():
    assert default_loss(100_00, 20_000, 10_000) == 0  # H 2%, decline 1%


def test_default_beyond_haircut_loss():
    # H 2%, decline 5%: shortfall below the first-leg price
    loss = default_loss(100_00, 20_000, 50_000)
    assert loss > 0
    exact = Fraction(100_00) * Fraction(30_000) / Fraction(MICRO + 20_000)
    assert abs(loss - round(exact)) <= 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**11), st.integers(0, 200_000), st.integers(0, 200_000))
def test_haircut_recovery_property(principal, haircut, decline):
    loss = default_loss(principal, haircut, decline)
    if decline <= haircut:
        assert loss == 0
    else:
        oracle = round(Fraction(principal) * (decline - haircut)
                       / (MICRO + haircut))
        assert abs(loss - oracle) <= 1


def test_roll_keeps_cash_flat_except_interest():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = open_reverse_repo(world, registry, ISSUER, DEALER, 10_000_00,
                            haircut=20_000, rate=2_000, term=1)
    cash_before = world.sheet(ISSUER).asset(deposit_key(BANK))
    world.day = 1
    new = roll_repo(world, registry, pos, new_rate=3_000)
    interest = mul_frac(10_000_00, 2_000)
    assert world.sheet(ISSUER).asset(deposit_key(BANK)) == cash_before + interest
    assert new.rate == 3_000
    assert new.second_leg_day == 2
    assert new.principal == pos.principal
    assert registry.open_positions() == [new]
    assert world.audit().ok


def test_mark_zero_tick_changes_nothing():
    world = repo_world(dealer_bills=10_000_00)
    registry = RepoRegistry()
    before = world.snapshot().to_json()
    mark_treasuries(world, registry, 0)
    assert world.snapshot().to_json() == before


def test_mark_one_percent_on_position():
    world = repo_world()
    world.grant_tbill(ISSUER, DurationClass.BILL, 100_000_00)
    registry = RepoRegistry()
    mark_treasuries(world, registry, -10_000, DurationClass.BILL)
    assert world.tbill_value(ISSUER, DurationClass.BILL) == 99_000_00
    assert world.audit().ok


def test_term_repo_margin_call_emitted_once_per_position():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    open_reverse_repo(world, registry, ISSUER, DEALER, 10_000_00,
                      haircut=20_000, rate=0, term=5)
    calls = mark_treasuries(world, registry, -30_000)  # -3% with 2% haircut
    assert len(calls) == 1
    assert calls[0]["borrower"] == DEALER.key
    margin_events = [e for e in world.events if e["type"] == "margin_call"]
    assert len(margin_events) == 1
    # overnight book is exempt from intraday re-margining
    registry2 = RepoRegistry()
    world2 = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    open_reverse_repo(world2, registry2, ISSUER, DEALER, 10_000_00,
                      haircut=20_000, rate=0, term=1)
    assert mark_treasuries(world2, registry2, -30_000) == []


def test_genius_maturity_limit():
    assert GENIUS_MAX_BILL_DAYS == 93
    raw = PRESETS["calm"]()
    issuer = raw["agents"]["issuers"][0]
    issuer["genius_compliant"] = True
    issuer["bill_maturity_days"] = 93
    parse_config(raw)
    issuer["bill_maturity_days"] = 94
    with pytest.raises(ValidationError, match="93 days"):
        parse_config(raw)


def portfolio(face=100_000_00, price=MICRO, deposits=0, r_t=0, r_d=0):
    return PortfolioState(treasury_face=face, treasury_price=price,
                          deposits=deposits, rate_treasury=r_t, rate_deposit=r_d)


def test_step_zero_case():
    p = portfolio()
    assert step_portfolio(p, 0, 0).total == p.total


def test_step_interest_only():
    p = portfolio(r_t=10_000)  # 1% per period
    nxt = step_portfolio(p, 0, 0)
    assert nxt.total == p.total + 1_000_00


def test_step_capital_loss():
    p = portfolio()
    nxt = step_portfolio(p, -5_000, 0)  # half a percent off the price level
    assert p.total - nxt.total == 500_00
    assert nxt.treasuries == 99_500_00


def test_step_additivity_at_zero_rates():
    p = portfolio(deposits=50_000_00)
    combined = step_portfolio(p, -7_000, 3_000_00)
    sequential = step_portfolio(step_portfolio(p, -4_000, 1_000_00), -3_000, 2_000_00)
    assert combined.total == sequential.total
    assert combined.treasuries == sequential.treasuries
    assert combined.deposits == sequential.deposits


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**10), st.integers(100_000, 2_000_000),
       st.integers(0, 10**10), st.integers(-50_000, 50_000),
       st.integers(0, 50_000), st.integers(0, 50_000),
       st.integers(-10**8, 10**8))
def test_step_matches_independent_progression(face, price, deposits, dprice,
                                              r_t, r_d, flow):
    p = PortfolioState(treasury_face=face, treasury_price=price,
                       deposits=max(deposits, max(0, -flow)),
                       rate_treasury=r_t, rate_deposit=r_d)
    nxt = step_portfolio(p, dprice, flow)
    # independent evaluation: interest on both books at start-of-period
    # values, plus capital gain, plus the deposit flow
    t0 = round(Fraction(face * price, MICRO))
    t1 = round(Fraction(face * (price + dprice), MICRO))
    interest_t = round(Fraction(t0 * r_t, MICRO))
    interest_d = round(Fraction(p.deposits * r_d, MICRO))
    expected = p.total + interest_t + (t1 - t0) + interest_d + flow
    assert nxt.total == expected


def test_roll_at_higher_rate_prices_next_period_interest():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = open_reverse_repo(world, registry, ISSUER, DEALER, 10_000_00,
                            haircut=20_000, rate=1_000, term=1)
    world.day = 1
    rolled = roll_repo(world, registry, pos, new_rate=4_000)
    world.day = 2
    outcome = close_or_default_repo(world, registry, rolled, True)
    assert outcome.cash_to_lender == 10_000_00 + mul_frac(10_000_00, 4_000)
