import copy
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesim.config import PRESETS, ValidationError, parse_config
from stablesim.instruments import (GENIUS_MAX_BILL_DAYS, InstrumentError,
                                   InsufficientCash, InsufficientCollateral, PortfolioState,
                                   RepoRegistry, WrongDay, _top_up_collateral,
                                   close_repo, default_loss, deliver_tbills,
                                   mark_treasuries, open_reverse_repo,
                                   required_collateral, roll_repo, step_portfolio)
from stablesim.ledger import (FED, AgentId, AgentKind, DurationClass, LedgerWorld,
                              TransferBatch, deposit_key, tbill_key)
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
            world.create_deposits(agent, amount)
    if dealer_bills:
        world.grant_tbill(DEALER, DurationClass.BILL, dealer_bills)
    if dealer_long:
        world.grant_tbill(DEALER, DurationClass.LONG, dealer_long)
    return world


def staged(world, leg, *args, **kwargs):
    """`leg` (`open_reverse_repo`, `close_repo` or `RepoRegistry.postpone`)
    staged alone on a batch of `world`, committed."""
    batch = TransferBatch(world)
    result = leg(batch, *args, **kwargs)
    batch.commit()
    return result


def open_for(world, registry, term, *args, **kwargs):
    """An overnight repo opened on `world` whose second leg is then
    postponed `term - 1` times, as a run postpones a leg that fails, so
    it falls `term` days after the open."""
    pos = staged(world, open_reverse_repo, registry, *args, **kwargs)
    for _ in range(term - 1):
        staged(world, registry.postpone, pos, "repo_roll", InstrumentError("postponed"))
    return pos


def roll_pass(world, registry, positions, new_rate):
    """Roll each of `positions`, in order, on one batch, committed."""
    batch = TransferBatch(world)
    for pos in positions:
        roll_repo(batch, registry, pos, new_rate)
    batch.commit()


def mark_every_class(world, registry, tick):
    """Mark bills, then long paper, by `tick`, as the market marks a day's
    classes one call at a time."""
    for duration in DurationClass:
        mark_treasuries(world, registry, tick, duration)


def test_required_collateral_examples():
    assert required_collateral(100_00, 20_000) == 102_00  # 2% haircut
    assert required_collateral(100_00, 0) == 100_00


def test_open_reverse_repo_posts_both_legs():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = staged(world, open_reverse_repo, registry, ISSUER, DEALER, 100_00,
                 haircut=20_000, rate=0)
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
        staged(world, open_reverse_repo, registry, ISSUER, DEALER, 100_00,
               haircut=20_000, rate=0)


def test_open_repo_insufficient_cash():
    world = repo_world(issuer_cash=50_00, dealer_long=300_00)
    registry = RepoRegistry()
    with pytest.raises(InsufficientCash):
        staged(world, open_reverse_repo, registry, ISSUER, DEALER, 100_00,
               haircut=20_000, rate=0)


def test_second_leg_performance_returns_principal_plus_interest():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = staged(world, open_reverse_repo, registry, ISSUER, DEALER, 10_000_00,
                 haircut=20_000, rate=1_000)
    issuer_equity = world.sheet(ISSUER).equity
    dealer_equity = world.sheet(DEALER).equity
    world.day = 1
    staged(world, close_repo, registry, pos)
    interest = mul_frac(10_000_00, 1_000)
    [row] = [e for e in world.events if e["type"] == "repo_close"]
    assert (row["principal"], row["interest"]) == (10_000_00, interest)
    # round trip changes both parties' equity only by the interest
    assert world.sheet(ISSUER).equity == issuer_equity + interest
    assert world.sheet(DEALER).equity == dealer_equity - interest
    assert world.audit().ok


def test_second_leg_on_wrong_day():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = staged(world, open_reverse_repo, registry, ISSUER, DEALER, 100_00,
                 haircut=20_000, rate=0)
    with pytest.raises(WrongDay):
        staged(world, close_repo, registry, pos)


def repo_book(world, registry):
    return (copy.deepcopy(registry.positions), dict(registry.encumbered),
            registry._next_id, world.snapshot().to_json(), list(world.events))


def assert_roll_postponed(world, registry, pos, cause):
    """Rolling `pos` alone fails: the position keeps its id, rate and
    collateral and is due a day later, one `leg_failed` row logs a
    `cause` like the given one, and no balance moves."""
    balances = copy.deepcopy((world.agents, world.tbill_face))
    kept = (pos.repo_id, pos.rate, dict(pos.collateral), dict(registry.encumbered))
    logged = len(world.events)
    roll_pass(world, registry, [pos], new_rate=2_000)
    assert (world.agents, world.tbill_face) == balances
    assert (pos.repo_id, pos.rate, dict(pos.collateral), dict(registry.encumbered)) == kept
    assert registry.open_positions() == registry.due(world.day + 1) == [pos]
    assert pos.second_leg_day == world.day + 1 and registry.due(world.day) == []
    [row] = list(world.events)[logged:]
    assert (row["type"], row["leg"], row["repo_id"]) == ("leg_failed", "repo_roll", pos.repo_id)
    assert re.fullmatch(cause, row["cause"]), row["cause"]
    assert world.audit().ok


def test_roll_failing_on_collateral_is_postponed():
    # exactly the pledge at par; a 1% fall leaves it short and nothing is free
    world = repo_world(dealer_bills=2_550_00, dealer_long=7_650_00)
    registry = RepoRegistry()
    pos = staged(world, open_reverse_repo, registry, ISSUER, DEALER, 10_000_00,
                 haircut=20_000, rate=1_000)
    assert registry.free_face(world, DEALER, DurationClass.BILL) == 0
    mark_every_class(world, registry, -10_000)
    world.day = 1
    assert_roll_postponed(world, registry, pos, rf"{DEALER} pledges \d+, needs 1020000")


def test_roll_failing_on_interest_cash_is_postponed():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = staged(world, open_reverse_repo, registry, ISSUER, DEALER, 10_000_00,
                 haircut=20_000, rate=1_000)
    world.transfer_deposit(DEALER, ISSUER, world.deposits(DEALER))
    world.day = 1
    assert_roll_postponed(world, registry, pos,
                          rf"{DEALER.key} holds 0 of {deposit_key(BANK)}, needs \d+")


def test_roll_pass_postpones_only_the_roll_that_fails():
    """A pass rolls as passes of one position would: the middle roll's borrower
    has no free face left after a fall in prices, so that roll alone is
    postponed, its `leg_failed` row between its neighbours' rows, and
    the roll after it still pays its interest and takes the next id."""
    short = AgentId(AgentKind.BROKER_DEALER, 1)
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    world.add_agent(short, bank=BANK)
    world.transfer_deposit(ISSUER, short, 1_000_00)
    world.grant_tbill(short, DurationClass.BILL, 2_550_00)
    world.grant_tbill(short, DurationClass.LONG, 7_650_00)
    registry = RepoRegistry()
    positions = [staged(world, open_reverse_repo, registry, ISSUER, borrower, 10_000_00,
                        haircut=20_000, rate=1_000)
                 for borrower in (DEALER, short, DEALER)]
    assert registry.free_face(world, short, DurationClass.BILL) == 0
    mark_every_class(world, registry, -10_000)
    world.day = 1
    one_by_one = copy.deepcopy((world, registry))
    roll_pass(world, registry, positions, new_rate=2_000)

    single, singles = one_by_one
    for pos in singles.open_positions():
        roll_pass(single, singles, [pos], new_rate=2_000)
    assert repo_book(world, registry) == repo_book(single, singles)
    assert [(p.repo_id, p.borrower, p.second_leg_day) for p in registry.due(2)] == [
        (1, short, 2), (3, DEALER, 2), (4, DEALER, 2)]
    rows = [(e["type"], e.get("leg"), e.get("src")) for e in world.events][-5:]
    assert rows == [("transfer", None, DEALER.key), ("repo_roll", None, None),
                    ("leg_failed", "repo_roll", None),
                    ("transfer", None, DEALER.key), ("repo_roll", None, None)]
    assert registry.open_positions() == registry.by_lender(ISSUER) == registry.due(2)
    assert world.audit().ok


TRADER = AgentId(AgentKind.TREASURY_BUYER, 0)
BORROWERS = (DEALER, AgentId(AgentKind.BROKER_DEALER, 1), AgentId(AgentKind.BROKER_DEALER, 2))
STAMP_OPS = st.one_of(
    st.tuples(st.just("mark"), st.sampled_from(list(DurationClass)),
              st.integers(-40_000, 40_000)),
    st.tuples(st.just("back"), st.sampled_from(list(DurationClass)), st.integers(0, 40)),
    st.tuples(st.just("top_up"), st.integers(0, 7), st.integers(1, 30_000_00)),
    st.tuples(st.just("trade"), st.integers(0, 2), st.sampled_from(list(DurationClass)),
              st.integers(-4_000_00, 4_000_00)),
    st.tuples(st.just("roll"), st.integers(-2_000, 5_000)),
)


def stamp_book(faces, opens):
    """An issuer lending to three dealers, each holding `faces[i]` (bills,
    long) of face, and a trader holding both classes; `opens` are the
    positions tried, (borrower, principal, haircut, term), each opened
    overnight and its second leg postponed to `term` days on (`open_for`),
    those that cannot pledge enough skipped."""
    world = repo_world(issuer_cash=10**12, dealer_cash=0)
    for agent in (*BORROWERS[1:], TRADER):
        world.add_agent(agent, bank=BANK)
    for agent, (bills, longs) in zip((*BORROWERS, TRADER), (*faces, (10**9, 10**9))):
        world.transfer_deposit(ISSUER, agent, 100_000_00)
        for duration, face in ((DurationClass.BILL, bills), (DurationClass.LONG, longs)):
            if face:
                world.grant_tbill(agent, duration, face)
    registry = RepoRegistry()
    for borrower, principal, haircut, term in opens:
        try:
            open_for(world, registry, term, ISSUER, BORROWERS[borrower], principal,
                     haircut=haircut, rate=1_000)
        except InsufficientCollateral:
            pass
    return world, registry


def apply_stamp_op(world, registry, op, seen, clear):
    """Apply one of `STAMP_OPS`: a mark (`back` returns a class to a price
    in `seen`), a top-up of an open position, a dealer buying (`face` > 0)
    or selling free face to the trader, or the next day's roll pass,
    clearing every stamp first if `clear`."""
    kind, *args = op
    if kind == "mark":
        duration, tick = args
        try:
            mark_treasuries(world, registry, tick, duration)
        except InstrumentError:
            pass
    elif kind == "back":
        duration, i = args
        world.remark_tbills(duration, seen[duration][i % len(seen[duration])])
        mark_treasuries(world, registry, 0, duration)
    elif kind == "top_up":
        positions = registry.open_positions()
        if positions:
            _top_up_collateral(world, registry, positions[args[0] % len(positions)], args[1])
    elif kind == "trade":
        dealer, duration, face = BORROWERS[args[0]], args[1], args[2]
        seller, buyer = (TRADER, dealer) if face > 0 else (dealer, TRADER)
        face = min(abs(face), registry.free_face(world, seller, duration))
        batch = TransferBatch(world)
        deliver_tbills(batch, seller, buyer, duration, face, world.price(duration))
        batch.commit()
    else:
        world.day += 1
        if clear:
            for pos in registry.open_positions():
                pos.sized_at = None
        roll_pass(world, registry, registry.due(world.day), new_rate=args[0])


def unstamped_book(world, registry):
    positions, *rest = repo_book(world, registry)
    for pos in positions.values():
        pos.sized_at = None
    return positions, *rest, list(world.events.lines())


# a dealer's bills are under a quarter of any principal's collateral, so an
# open cuts its bills to the free face and a roll's rounding can then leave
# a fixed point with the bill class cut: the case the stamp must not take
@settings(max_examples=250, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 4_000_00), st.integers(40_000_00, 200_000_00)),
                min_size=3, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.integers(10_000_00, 60_000_00),
                          st.integers(0, 60_000), st.sampled_from([1, 1, 1, 3])),
                min_size=1, max_size=6),
       st.lists(STAMP_OPS, max_size=30))
def test_roll_stamps_change_nothing(faces, opens, ops):
    """Roll passes that reuse the faces of positions stamped with today's
    prices write the same repo book, balances and event lines as passes
    that clear every stamp first and re-size every roll, through marks,
    returns to earlier prices, top-ups and trades in free face."""
    kept = stamp_book(faces, opens)
    cleared = copy.deepcopy(kept)
    seen = {d: [kept[0].price(d)] for d in DurationClass}
    for op in ops:
        apply_stamp_op(*kept, op, seen, clear=False)
        apply_stamp_op(*cleared, op, seen, clear=True)
        assert unstamped_book(*kept) == unstamped_book(*cleared), op
        for duration, prices in seen.items():
            if kept[0].price(duration) not in prices:
                prices.append(kept[0].price(duration))
    assert kept[0].audit().ok


def test_roll_at_negative_rate_pays_interest_to_the_borrower():
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    pos = staged(world, open_reverse_repo, registry, ISSUER, DEALER, 10_000_00,
                 haircut=20_000, rate=-1_000)
    issuer_cash, dealer_cash = world.deposits(ISSUER), world.deposits(DEALER)
    world.day = 1
    roll_pass(world, registry, [pos], new_rate=-1_000)
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
    pos = staged(world, open_reverse_repo, registry, ISSUER, DEALER, 10_000_00,
                 haircut=20_000, rate=-1_500_000)
    issuer_cash, dealer_cash = world.deposits(ISSUER), world.deposits(DEALER)
    world.day = 1
    staged(world, close_repo, registry, pos)
    owed = 10_000_00 + mul_frac(10_000_00, -1_500_000)
    assert owed == -5_000_00
    assert (world.events[-1]["type"], world.events[-1]["interest"]) == (
        "repo_close", owed - 10_000_00)
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
    pos = staged(world, open_reverse_repo, registry, ISSUER, DEALER, 10_000_00,
                 haircut=20_000, rate=2_000)
    cash_before = world.sheet(ISSUER).asset(deposit_key(BANK))
    world.day = 1
    roll_pass(world, registry, [pos], new_rate=3_000)
    interest = mul_frac(10_000_00, 2_000)
    assert world.sheet(ISSUER).asset(deposit_key(BANK)) == cash_before + interest
    assert (pos.repo_id, pos.rate, pos.second_leg_day, pos.principal) == (1, 3_000, 2, 10_000_00)
    assert registry.open_positions() == [pos]
    assert world.audit().ok


def test_mark_zero_tick_changes_nothing():
    world = repo_world(dealer_bills=10_000_00)
    registry = RepoRegistry()
    before = world.snapshot().to_json()
    mark_every_class(world, registry, 0)
    assert world.snapshot().to_json() == before


def test_mark_one_percent_on_position():
    world = repo_world()
    world.grant_tbill(ISSUER, DurationClass.BILL, 100_000_00)
    registry = RepoRegistry()
    mark_treasuries(world, registry, -10_000, DurationClass.BILL)
    assert world.sheet(ISSUER).asset(tbill_key(DurationClass.BILL)) == 99_000_00
    assert world.audit().ok


def test_term_repo_margin_call_emitted_once_per_position():
    """A position whose second leg was postponed past its first day is
    re-margined; an overnight one is not."""
    world = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    registry = RepoRegistry()
    open_for(world, registry, 5, ISSUER, DEALER, 10_000_00, haircut=20_000, rate=0)
    mark_every_class(world, registry, -30_000)  # -3% with 2% haircut
    [call] = [e for e in world.events if e["type"] == "margin_call"]
    assert call["borrower"] == DEALER.key
    # overnight book is exempt from intraday re-margining
    registry2 = RepoRegistry()
    world2 = repo_world(dealer_bills=30_000_00, dealer_long=90_000_00)
    staged(world2, open_reverse_repo, registry2, ISSUER, DEALER, 10_000_00,
           haircut=20_000, rate=0)
    mark_every_class(world2, registry2, -30_000)
    assert not [e for e in world2.events if e["type"] == "margin_call"]


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
    pos = staged(world, open_reverse_repo, registry, ISSUER, DEALER, 10_000_00,
                 haircut=20_000, rate=1_000)
    world.day = 1
    roll_pass(world, registry, [pos], new_rate=4_000)
    world.day = 2
    staged(world, close_repo, registry, pos)
    assert (world.events[-1]["type"], world.events[-1]["interest"]) == (
        "repo_close", mul_frac(10_000_00, 4_000))
