import collections
import copy
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesim.config import DealerConfig, MarketConfig, PolicyConfig
from stablesim.ledger import (FED, AgentId, AgentKind, DurationClass, InsufficientPosition,
                              LedgerWorld, UnknownAgent, deposit_key, reserves_key)
from stablesim.instruments import RepoRegistry
from stablesim.market import DealerBook, Market, MarketError, PendingSettlement, decompose
from stablesim.money import MICRO, mul_div, mul_frac

BANK = AgentId(AgentKind.BANK, 0)
SELLER = AgentId(AgentKind.ISSUER, 0)
D1 = AgentId(AgentKind.BROKER_DEALER, 0)
D2 = AgentId(AgentKind.BROKER_DEALER, 1)
BUYER = AgentId(AgentKind.TREASURY_BUYER, 0)


def endow(world, agent, amount, reserves=None):
    """Deposits at the agent's bank, backed by as many reserves unless
    `reserves` says how many; loans back the rest."""
    bank = world.banks[agent.key]
    reserves = amount if reserves is None else reserves
    world.post({
        (FED.key, "A", "govt"): reserves,
        (FED.key, "L", f"reserves@{bank.key}"): reserves,
        (bank.key, "A", reserves_key()): reserves,
        (bank.key, "A", "loans"): amount - reserves,
        (bank.key, "L", f"deposit@{agent.key}"): amount,
        (agent.key, "A", deposit_key(bank)): amount,
    })


def dealer_config(dealer, capital, base_assets, reserve_access):
    return DealerConfig(name=dealer.key, bank="bank", capital=capital,
                        base_assets=base_assets, reserve_access=reserve_access)


def capacity(market, world):
    """Fill volume the dealer sector can absorb right now."""
    return sum(market.dealer_capacity(world).values())


def make_market(capital=10_000_00, base_assets=100_000_00, reserve_access=10**12,
                dealer_cash=10**12, seller_bills=1_000_000_00, srf=False,
                retention=335_648, eslr_reform=False, **params):
    world = LedgerWorld()
    world.add_agent(FED)
    world.add_agent(BANK)
    world.add_agent(SELLER, bank=BANK)
    world.add_agent(D1, bank=BANK)
    world.add_agent(D2, bank=BANK)
    world.add_agent(BUYER, bank=BANK)
    endow(world, BUYER, 10**13)
    endow(world, D1, dealer_cash)
    endow(world, D2, dealer_cash)
    world.grant_tbill(SELLER, DurationClass.BILL, seller_bills)
    world.grant_tbill(SELLER, DurationClass.LONG, seller_bills)
    world.grant_tbill(D1, DurationClass.LONG, 100_000_00)
    world.grant_tbill(D2, DurationClass.LONG, 100_000_00)
    books = {}
    for dealer in (D1, D2):
        books[dealer.key] = DealerBook(
            dealer, dealer_config(dealer, capital, base_assets, reserve_access),
            inventory_baseline=world.tbill_value(dealer))
    market = Market(MarketConfig(depth=params.pop("depth", 1_000_000_00),
                                 retention_frac=retention, **params),
                    PolicyConfig(srf_enabled=srf, eslr_reform=eslr_reform),
                    books, BUYER)
    return world, market, RepoRegistry()


def test_decomposition_rejects_retention_above_seller():
    with pytest.raises(MarketError):
        decompose(10, 11)


def test_gross_volume_adds_each_first_submission_once():
    """A first submission of S adds S + 2 * (S - its retention) to gross
    volume: the seller's leg, then the unretained part passed once between
    dealers and once to buyers. A carried remainder that the next day's
    pass clears adds nothing."""
    def gross(amount):
        return amount + 2 * (amount - mul_frac(amount, 335_648))

    world, market, registry = make_market(reserve_access=3_000_00)
    fill = market.submit_sale(world, SELLER, 20_000_00, DurationClass.BILL)
    assert 0 < fill < 20_000_00
    assert market.gross_volume == gross(20_000_00)
    world.day = 1
    market.begin_day()
    market.settle_due(world, registry)
    logged = len(world.events)
    market.resubmit_carryover(world)
    [(_, requested, refill, _)] = cleared_rows(world, logged)
    assert requested == 20_000_00 - fill and refill > 0
    assert market.gross_volume == gross(20_000_00)
    market.submit_sale(world, SELLER, 1_000_00, DurationClass.LONG)
    assert market.gross_volume == gross(20_000_00) + gross(1_000_00)


def test_full_fill_when_under_capacity():
    world, market, _ = make_market()
    assert market.submit_sale(world, SELLER, 50_000_00, DurationClass.BILL) == 50_000_00
    assert cleared_rows(world, 0) == [(0, 50_000_00, 50_000_00, 0)]
    assert world.price(DurationClass.BILL) == MICRO


def test_zero_capacity_zero_fill():
    world, market, _ = make_market(capital=5_000_00, base_assets=100_000_00)
    # headroom: 5_000_00 / 5% - 100_000_00 = 0
    assert capacity(market, world) == 0
    assert market.submit_sale(world, SELLER, 10_000_00, DurationClass.BILL) == 0
    assert cleared_rows(world, 0) == [(0, 10_000_00, 0, 10_000_00)]


def test_fill_is_monotone_in_headroom():
    fills = []
    for capital in (5_000_00, 6_000_00, 7_000_00, 9_000_00):
        world, market, _ = make_market(capital=capital)
        fills.append(market.submit_sale(world, SELLER, 90_000_00, DurationClass.BILL))
    assert fills == sorted(fills)


def test_absorbing_a_fill_reduces_dealer_slr():
    world, market, registry = make_market()
    before = {k: b.slr_report(world).slr for k, b in market.books.items()}
    market.submit_sale(world, SELLER, 80_000_00, DurationClass.BILL)
    for key in market.books:
        assert market.books[key].slr_report(world).slr < before[key]
    # settlement keeps the retention slice on the books
    world.day = 1
    market.settle_due(world, registry)
    for key in market.books:
        assert market.books[key].slr_report(world).slr < before[key]
    assert world.audit().ok


def test_unsettled_sums_each_sellers_queued_and_pending_sales():
    """A sale larger than capacity is in flight whole: its fill awaits T+1
    settlement and its remainder is queued. Settlement takes the fill off,
    and a carryover pass with no capacity leaves the remainder. Only the
    sellers asked for are summed."""
    world, market, registry = make_market(capital=5_100_00)
    fill = market.submit_sale(world, SELLER, 20_000_00, DurationClass.BILL)
    market.submit_sale(world, D1, 1_000_00, DurationClass.LONG, purpose="funding_gap")
    assert 0 < fill < 20_000_00
    assert market.unsettled({SELLER.key, D1.key}) == {SELLER.key: 20_000_00, D1.key: 1_000_00}
    assert market.unsettled({SELLER.key, D2.key}) == {SELLER.key: 20_000_00}
    world.day = 1
    market.begin_day()
    market.settle_due(world, registry)
    market.books[D1.key].ra_used_today = market.books[D2.key].ra_used_today = 10**12
    market.resubmit_carryover(world)
    assert market.unsettled({SELLER.key, D1.key}) == {SELLER.key: 20_000_00 - fill,
                                                      D1.key: 1_000_00}


def test_settlement_pays_seller_and_conserves_deposits():
    world, market, registry = make_market()
    def deposits():
        return sum(v for k, v in world.sheet(BANK).liabilities.items()
                   if k.startswith("deposit@"))
    total_before = deposits()
    market.submit_sale(world, SELLER, 40_000_00, DurationClass.BILL)
    world.day = 1
    assert market.unsettled({SELLER.key}) == {SELLER.key: 40_000_00}
    proceeds = market.settle_due(world, registry)
    assert market.unsettled({SELLER.key}) == {}
    got = proceeds[SELLER.key]
    assert abs(got - 40_000_00) <= 1
    assert deposits() == total_before
    assert world.audit().ok


def test_offload_to_a_buyer_short_of_deposits_delivers_only_what_it_paid_for():
    world, market, registry = make_market()
    world.transfer_deposit(BUYER, SELLER, world.deposits(BUYER) - 1_00)
    world.grant_tbill(D1, DurationClass.BILL, 100_000_00)  # above its baseline
    market.offload_inventory(world, registry)
    paid = 1_00 - world.deposits(BUYER)
    assert paid > 0
    assert world.tbill_value(BUYER) <= paid
    assert world.audit().ok


def test_reserve_access_caps_capacity_and_srf_lifts_it():
    # ample headroom, tight reserves
    world, market, _ = make_market(capital=50_000_00, reserve_access=10_000_00)
    capped = capacity(market, world)
    assert capped == 2 * 10_000_00
    world2, market2, _ = make_market(capital=50_000_00, reserve_access=10_000_00,
                                     srf=True)
    lifted = capacity(market2, world2)
    assert lifted > capped
    headroom = sum(b.slr_report(world2).headroom_assets for b in market2.books.values())
    assert lifted <= headroom


def test_srf_never_decreases_capacity_but_headroom_still_caps():
    for capital, ra in ((5_000_00, 0), (6_000_00, 5_000_00), (9_000_00, 10**12)):
        world_off, market_off, _ = make_market(capital=capital, reserve_access=ra)
        world_on, market_on, _ = make_market(capital=capital, reserve_access=ra,
                                             srf=True)
        off = capacity(market_off, world_off)
        on = capacity(market_on, world_on)
        headroom = sum(b.slr_report(world_on).headroom_assets for b in market_on.books.values())
        assert on >= off
        assert on <= headroom


def test_srf_draw_consumes_headroom_at_clearing():
    world, market, _ = make_market(capital=9_000_00, reserve_access=0, srf=True)
    headroom0 = sum(b.slr_report(world).headroom_assets for b in market.books.values())
    cap = capacity(market, world)
    assert cap == headroom0 // 2
    assert market.submit_sale(world, SELLER, cap, DurationClass.BILL) == cap
    assert market.day_srf_draws == cap
    draws = [e for e in world.events if e["type"] == "srf_draw"]
    assert sum(e["amount"] for e in draws) == cap
    assert world.audit().ok


def test_price_impact_profile():
    world, market, _ = make_market(depth=100_000_00,
                                   impact_coeff_long=15_000,
                                   impact_coeff_bill=5_000,
                                   max_dislocation_bp=500)
    assert market.price_impact(0, DurationClass.LONG) == 0
    half = market.price_impact(50_000_00, DurationClass.LONG)
    assert half == 7_500
    assert market.price_impact(50_000_00, DurationClass.BILL) <= half
    # cap binds for absurd flow
    assert market.price_impact(10**13, DurationClass.LONG) == 50_000


def test_flight_to_safety_lifts_bills():
    world, market, _ = make_market(depth=100_000_00, flight_to_safety=True,
                                   bill_safety_lift=2_000)
    impact = market.price_impact(50_000_00, DurationClass.BILL)
    assert impact <= 0
    assert market.price_impact(50_000_00, DurationClass.LONG) > 0


def test_funding_gap_full_replacement_sells_nothing():
    world, market, _ = make_market(replacement_frac=MICRO - 1)
    market.funding_gap_liquidation(world, 100_00, D1)
    assert sum(market.day_submitted.values()) <= 1  # fully refinanced


def test_funding_gap_collateral_split():
    world, market, _ = make_market(replacement_frac=0)
    market.funding_gap_liquidation(world, 100_00, D1)
    assert market.day_submitted == {DurationClass.LONG: 75_00, DurationClass.BILL: 25_00}


def test_eslr_reform_adds_capacity():
    world, market, _ = make_market(capital=5_000_00)  # at bound
    assert capacity(market, world) == 0
    world2, market2, _ = make_market(capital=5_000_00, eslr_reform=True,
                                     eslr_capacity_add=500_00)
    assert capacity(market2, world2) == 500_00


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 500_000))
def test_decomposition_identity_property(seller, frac):
    from stablesim.money import mul_frac

    retention = mul_frac(seller, frac)
    d = decompose(seller, retention)
    assert d.gross == d.seller + d.interdealer + d.buyer
    assert d.interdealer == d.buyer == seller - retention


def test_single_dealer_capacity_matches_leverage_headroom():
    world = LedgerWorld()
    world.add_agent(FED)
    world.add_agent(BANK)
    world.add_agent(D1, bank=BANK)
    world.add_agent(BUYER, bank=BANK)
    endow(world, D1, 10**12)
    endow(world, BUYER, 10**12)
    book = DealerBook(D1, dealer_config(D1, 5_80, 100_00, 10**9), inventory_baseline=0)
    market = Market(MarketConfig(depth=10_000_00, retention_frac=0), PolicyConfig(),
                    {D1.key: book}, BUYER)
    assert capacity(market, world) == 16_00


def test_srf_draw_for_an_unregistered_dealer_logs_no_event():
    """The draw's event follows its write: a draw that raises logs nothing
    and bumps no sheet version."""
    world = LedgerWorld()
    world.add_agent(FED)
    world.add_agent(BANK)
    world.add_agent(D2, bank=BANK)
    endow(world, D2, 100_00)
    before = (world.snapshot().to_json(), list(world.events.lines()),
              {key: sheet.version for key, sheet in world.agents.items()})
    with pytest.raises(UnknownAgent):
        world.draw_srf(D1, 10_00)
    assert (world.snapshot().to_json(), list(world.events.lines()),
            {key: sheet.version for key, sheet in world.agents.items()}) == before


def test_capacity_is_recomputed_only_for_a_dealer_that_changed(monkeypatch):
    # dealer cash binds: capacity is what the retention slice can fund
    world, market, _ = make_market(dealer_cash=1_000_00)
    computed, read = [], []
    available, sheet_reads = market._dealer_available, market._sheet_reads

    def counted(world, book, reads):
        computed.append(book.agent.key)
        return available(world, book, reads)

    def counted_reads(world, book):
        read.append(book.agent.key)
        return sheet_reads(world, book)

    monkeypatch.setattr(market, "_dealer_available", counted)
    monkeypatch.setattr(market, "_sheet_reads", counted_reads)
    before = market.dealer_capacity(world)
    assert market.dealer_capacity(world) == before
    assert computed == read == [D1.key, D2.key]
    # a write to D1's sheet alone, with no change to its book
    world.transfer_deposit(D1, BUYER, 500_00)
    after = market.dealer_capacity(world)
    assert computed == read == [D1.key, D2.key, D1.key]
    assert after[D1.key] < before[D1.key] and after[D2.key] == before[D2.key]
    book = market.books[D1.key]
    assert after[D1.key] == available(world, book, sheet_reads(world, book))
    # a book day field alone: recomputed from the sheet reads it kept
    market.books[D2.key].ra_used_today = 10**12
    assert market.dealer_capacity(world)[D2.key] == 0
    assert computed[-1] == D2.key and read == [D1.key, D2.key, D1.key]


def random_market(rng):
    """A seeded market of 1-8 dealers, some without reserve access, with
    SRF and retention each on or off, and a queue of carried-over orders."""
    world = LedgerWorld()
    for agent in (FED, BANK):
        world.add_agent(agent)
    world.add_agent(SELLER, bank=BANK)
    world.add_agent(BUYER, bank=BANK)
    endow(world, BUYER, 10**13)
    dealers = [AgentId(AgentKind.BROKER_DEALER, i) for i in range(rng.randint(1, 8))]
    books = {}
    for dealer in dealers:
        world.add_agent(dealer, bank=BANK)
        endow(world, dealer, rng.randint(1, 5_000_00))
        world.grant_tbill(dealer, DurationClass.LONG, rng.randint(0, 10_000_00))
        books[dealer.key] = DealerBook(
            dealer, dealer_config(dealer, rng.randint(5_000_00, 6_000_00), 100_000_00,
                                  rng.choice((0, rng.randint(1, 10_000_00)))),
            inventory_baseline=world.tbill_value(dealer))
    retention = rng.choice((0, 335_648))
    market = Market(MarketConfig(depth=1_000_000_00, retention_frac=retention),
                    PolicyConfig(srf_enabled=rng.random() < 0.5), books, BUYER)
    for _ in range(rng.randint(1, 30)):
        market.submit_sale(world, SELLER, rng.randint(1, 20_000_00),
                           rng.choice(list(DurationClass)),
                           purpose=rng.choice(("sale", "funding_gap")))
    world.day = 1
    market.begin_day()
    return world, market


def resubmit_order_by_order(world, market):
    """Carryover cleared order by order, each against a fresh capacity read."""
    queued, market.carryover = market.carryover, []
    for order in queued:
        market._clear(world, order, market.dealer_capacity(world), first_submission=False)


def market_state(world, market):
    return (world.events, world.seq, world.agents, world.tbill_face,
            [(o.seller, o.duration, o.remaining, o.purpose) for o in market.carryover],
            market.pending, market.books, market._next_order, market.day_excess,
            market.day_fills, market.day_submitted, market.day_srf_draws,
            market.gross_volume)


def cleared_rows(world, since):
    """(order id, requested, filled, unfilled) of each `sale_cleared` logged
    from event `since` on."""
    return [(e["order_id"], e["requested"], e["filled"], e["unfilled"])
            for e in world.events[since:] if e["type"] == "sale_cleared"]


def test_resubmit_carryover_equals_clearing_each_order_alone():
    """A carryover pass logs and leaves what clearing each order alone
    would, and so do the passes of two more days: one with capacity, which
    fills some orders carried at zero in part, and one with none, which
    carries every order from its bound row, the rows built again for those
    remainders included, each rendering as the row logged plainly."""
    seen = {"filled": 0, "carried": 0, "srf_draws": 0, "carried_many": 0, "rebuilt": 0}
    for seed in range(60):
        world, market = random_market(random.Random(seed))
        ref_world, ref_market = copy.deepcopy((world, market))
        queued, logged = len(market.carryover), len(world.events)
        reads = []   # the total capacity of each read
        read_capacity = market.dealer_capacity
        market.dealer_capacity = lambda world: (
            reads.append(sum((avail := read_capacity(world)).values())) or avail)
        market.resubmit_carryover(world)
        del market.dealer_capacity
        resubmit_order_by_order(ref_world, ref_market)
        # every order is logged with the same id, fill and tallies, and the
        # world and the market end the same
        rows = cleared_rows(world, logged)
        assert rows == cleared_rows(ref_world, logged) and len(rows) == queued, seed
        assert market_state(world, market) == market_state(ref_world, ref_market), seed
        assert world.audit().ok
        # each read but a last one that sums to zero is followed by one fill;
        # that last one starts the step carrying the rest of the queue
        step = bool(reads) and reads[-1] == 0
        filled = sum(1 for _, _, fill, _ in rows if fill)
        assert len(reads) - step == filled, seed
        carried = queued - filled
        assert carried == (queued - len(reads) + 1 if step else 0), seed
        seen["filled"] += filled
        seen["carried"] += carried > 0
        seen["carried_many"] += carried > 1
        seen["srf_draws"] += market.day_srf_draws > 0
        for day in (2, 3):
            for day_world, day_market in ((world, market), (ref_world, ref_market)):
                day_world.day = day
                day_market.begin_day()
                for book in day_market.books.values() if day == 3 else ():
                    book.reserved_today = 10**15   # no leverage room: no capacity
            rowed = {id(o): o.remaining for o in market.carryover if o.row is not None}
            logged = len(world.events)
            market.resubmit_carryover(world)
            resubmit_order_by_order(ref_world, ref_market)
            assert market_state(world, market) == market_state(ref_world, ref_market), seed
            assert list(world.events.lines()) == list(ref_world.events.lines()), seed
            seen["rebuilt"] += any(rowed.get(id(o), o.remaining) != o.remaining
                                   for o in market.carryover)
        assert not any(fill for _, _, fill, _ in cleared_rows(world, logged)), seed
    # the seeds reach fills, SRF draws, orders carried at zero then filled
    # in part, and the step carrying the rest of the queue, some carrying
    # several orders at once
    assert all(seen.values()), seen


def test_resubmit_carryover_reads_capacity_again_only_after_a_fill(monkeypatch):
    from stablesim import market as market_module

    prorated, prorate = [], market_module._prorate
    monkeypatch.setattr(market_module, "_prorate",
                        lambda total, shares: prorated.append(total) or prorate(total, shares))
    carried = 0
    for seed in range(20):
        world, market = random_market(random.Random(seed))
        queued, logged = len(market.carryover), len(world.events)
        reads = []
        read_capacity = market.dealer_capacity
        monkeypatch.setattr(market, "dealer_capacity",
                            lambda world: reads.append(1) or read_capacity(world))
        prorated.clear()
        market.resubmit_carryover(world)
        rows = cleared_rows(world, logged)
        fills = [fill for _, _, fill, _ in rows if fill]
        assert len(reads) <= 1 + len(fills), seed
        # a carried order runs no pro-rata split
        assert prorated == fills, seed
        assert len(rows) == queued, seed
        carried += queued - len(fills)
    assert carried > 0


BANK_1 = AgentId(AgentKind.BANK, 1)


def settlement_market(rng):
    """A seeded market with settlements due today, most of them: issuers
    and dealers sell, at two banks; the buyer may be short of deposits,
    faces may be encumbered, and a seller may be due more than once."""
    world = LedgerWorld()
    for agent in (FED, BANK, BANK_1):
        world.add_agent(agent)
    sellers = [AgentId(AgentKind.ISSUER, i) for i in range(rng.randint(1, 3))]
    dealers = [AgentId(AgentKind.BROKER_DEALER, i) for i in range(rng.randint(1, 3))]
    for agent in sellers + dealers + [BUYER]:
        world.add_agent(agent, bank=rng.choice((BANK, BANK_1)))
        endow(world, agent, rng.choice((10**12, rng.randint(0, 40_000_00))))
    registry = RepoRegistry()
    for agent in sellers + dealers:
        for duration in DurationClass:
            face = rng.choice((0, rng.randint(1, 60_000_00)))
            if face:
                world.grant_tbill(agent, duration, face)
            # collateral pledged to a repo: a part of the face, at most all of it
            registry.encumbered[(agent.key, duration)] = rng.choice((0, 0, face // 2, face))
    for duration in DurationClass:
        world.remark_tbills(duration, rng.randint(900_000, 1_050_000))
    books = {dealer.key: DealerBook(dealer, dealer_config(dealer, 10_000_00, 100_000_00, 0),
                                    reserved_today=rng.randint(0, 10**9))
             for dealer in dealers}
    market = Market(MarketConfig(depth=1_000_000_00, retention_frac=rng.choice((0, 335_648))),
                    PolicyConfig(), books, BUYER)
    market.pending = [PendingSettlement(rng.choice((1, 1, 1, 2)), rng.choice(sellers + dealers),
                                        rng.choice(dealers), rng.choice(list(DurationClass)),
                                        rng.randint(1, 30_000_00))
                      for _ in range(rng.randint(1, 12))]
    world.day = 1
    return world, market, registry


def settle_one_by_one(world, market, registry, seen):
    """T+1 settlement with one deposit and one Treasury post per delivery,
    tallying in `seen` the cases the deliveries reach."""
    def deliver(seller, buyer, duration, face, price):
        value = mul_frac(face, price)
        paid = min(value, world.deposits(buyer))
        if paid <= 0:
            return 0
        world.transfer_deposit(buyer, seller, paid)
        seen["buyer_short"] += paid < value
        if buyer != seller:
            seen["one_bank" if world.banks[buyer.key] == world.banks[seller.key]
                 else "two_banks"] += 1
        if paid < value:
            face = mul_div(paid, MICRO, price)
        if face > 0:
            world.transfer_tbill(seller, buyer, duration, face=face)
        return paid

    due = [p for p in market.pending if p.settle_day <= world.day]
    market.pending = [p for p in market.pending if p.settle_day > world.day]
    proceeds, delivered = {}, set()
    for p in due:
        book = market.books[p.dealer.key]
        book.reserved_today = max(0, book.reserved_today - p.value)
        price = world.price(p.duration)
        face = min(mul_div(p.value, MICRO, price),
                   registry.free_face(world, p.seller, p.duration))
        seen["no_free_face"] += face <= 0
        retention_face = mul_frac(face, market.params.retention_frac)
        got = deliver(p.seller, p.dealer, p.duration, retention_face, price)
        got += deliver(p.seller, market.buyer, p.duration, face - retention_face, price)
        if got:
            proceeds[p.seller.key] = proceeds.get(p.seller.key, 0) + got
            seen["dealer_sells"] += p.seller.kind is AgentKind.BROKER_DEALER
            seen["delivers_twice"] += (p.seller.key, p.duration) in delivered
            delivered.add((p.seller.key, p.duration))
            world.emit("sale_settled", seller=p.seller.key, dealer=p.dealer.key,
                       duration=p.duration.value, proceeds=got)
    return proceeds


def balances(sheet):
    return sheet.assets, sheet.liabilities, sheet.equity


def assert_unchanged(before, after):
    (world0, market0), (world, market) = before, after
    assert (world.events, world.seq, world.tbill_face, world.agents, world.changes) == (
        world0.events, world0.seq, world0.tbill_face, world0.agents, world0.changes)
    assert (market.pending, market.books) == (market0.pending, market0.books)


def test_settle_due_in_one_batch_equals_one_post_per_delivery():
    seen = collections.Counter()
    for seed in range(80):
        world, market, registry = settlement_market(random.Random(seed))
        before = copy.deepcopy(world)
        ref_world, ref_market = copy.deepcopy((world, market))
        try:
            expected = settle_one_by_one(ref_world, ref_market, registry, seen)
        except InsufficientPosition as err:
            # a pass that raises raises the same error and writes nothing
            state = copy.deepcopy((world, market))
            with pytest.raises(InsufficientPosition, match=re.escape(str(err))):
                market.settle_due(world, registry)
            assert_unchanged(state, (world, market))
            seen["raised"] += 1
            continue
        assert market.settle_due(world, registry) == expected, seed
        assert (world.events, world.seq, world.tbill_face) == (
            ref_world.events, ref_world.seq, ref_world.tbill_face), seed
        assert {k: balances(v) for k, v in world.agents.items()} == {
            k: balances(v) for k, v in ref_world.agents.items()}, seed
        assert (market.pending, market.books) == (ref_market.pending, ref_market.books), seed
        for key, sheet in world.agents.items():
            old = before.agents[key]
            # a sheet whose balances moved has a new version, as it has
            # after the posts one by one; capacity caching relies on it
            if balances(sheet) != balances(old):
                assert sheet.version != old.version, (seed, key)
            if sheet.version != old.version:
                assert ref_world.agents[key].version != old.version, (seed, key)
        assert world.audit().ok, seed
    # the seeds reach every case the batch sizes against running values
    cases = ("buyer_short", "one_bank", "two_banks", "no_free_face", "dealer_sells",
             "delivers_twice")
    assert all(seen[case] for case in cases), seen


def test_settlement_pass_that_fails_a_reserve_debit_writes_nothing():
    # the buyer's bank holds reserves for one payment to the other bank, not two
    world = LedgerWorld()
    for agent in (FED, BANK, BANK_1):
        world.add_agent(agent)
    world.add_agent(SELLER, bank=BANK)
    world.add_agent(D1, bank=BANK)
    world.add_agent(BUYER, bank=BANK_1)
    endow(world, BUYER, 100_000_00, reserves=15_000_00)
    world.grant_tbill(SELLER, DurationClass.BILL, 50_000_00)
    book = DealerBook(D1, dealer_config(D1, 10_000_00, 100_000_00, 0), reserved_today=20_000_00)
    market = Market(MarketConfig(depth=1_000_000_00, retention_frac=0), PolicyConfig(),
                    {D1.key: book}, BUYER)
    market.pending = [PendingSettlement(1, SELLER, D1, DurationClass.BILL, 10_000_00)
                      for _ in range(2)]
    world.day = 1
    world.audit_changes()   # start the change log
    before = copy.deepcopy((world, market))
    ref_world, ref_market = copy.deepcopy((world, market))
    with pytest.raises(InsufficientPosition) as sequential:
        settle_one_by_one(ref_world, ref_market, RepoRegistry(), collections.Counter())
    # the posts one by one wrote the first settlement before the second raised
    assert ref_world.seq > world.seq
    with pytest.raises(InsufficientPosition) as batched:
        market.settle_due(world, RepoRegistry())
    assert str(batched.value) == str(sequential.value) == (
        f"{BANK_1.key} holds {5_000_00} of {reserves_key()}, needs {10_000_00}")
    assert_unchanged(before, (world, market))
