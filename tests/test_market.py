import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesim.config import DealerConfig, MarketConfig, PolicyConfig
from stablesim.ledger import (FED, AgentId, AgentKind, DurationClass, LedgerWorld, Posting,
                              deposit_key, reserves_key)
from stablesim.instruments import RepoRegistry
from stablesim.market import DealerBook, Market, MarketError, decompose
from stablesim.money import MICRO

BANK = AgentId(AgentKind.BANK, 0)
SELLER = AgentId(AgentKind.ISSUER, 0)
D1 = AgentId(AgentKind.BROKER_DEALER, 0)
D2 = AgentId(AgentKind.BROKER_DEALER, 1)
BUYER = AgentId(AgentKind.TREASURY_BUYER, 0)


def endow(world, agent, amount):
    world.post([
        Posting(FED, "A", "govt", amount),
        Posting(FED, "L", f"reserves@{BANK.key}", amount),
        Posting(BANK, "A", reserves_key(), amount),
        Posting(BANK, "L", f"deposit@{agent.key}", amount),
        Posting(agent, "A", deposit_key(BANK), amount),
    ])


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


def test_chain_decomposition_identity():
    d = decompose(216_00, 72_50)
    assert d.interdealer == 143_50
    assert d.buyer == 143_50
    assert d.gross == d.seller + 2 * (d.seller - d.retention)
    # diverges from the historical headline figure of 500 by under 1%
    assert 0 < abs(d.gross - 500_00) <= 5_00


def test_decomposition_rejects_retention_above_seller():
    with pytest.raises(MarketError):
        decompose(10, 11)


def test_full_fill_when_under_capacity():
    world, market, _ = make_market()
    report = market.submit_sale(world, SELLER, 50_000_00, DurationClass.BILL)
    assert report.filled == 50_000_00
    assert report.unfilled == 0
    assert report.price == MICRO


def test_zero_capacity_zero_fill():
    world, market, _ = make_market(capital=5_000_00, base_assets=100_000_00)
    # headroom: 5_000_00 / 5% - 100_000_00 = 0
    assert capacity(market, world) == 0
    report = market.submit_sale(world, SELLER, 10_000_00, DurationClass.BILL)
    assert report.filled == 0
    assert report.unfilled == 10_000_00


def test_fill_is_monotone_in_headroom():
    fills = []
    for capital in (5_000_00, 6_000_00, 7_000_00, 9_000_00):
        world, market, _ = make_market(capital=capital)
        report = market.submit_sale(world, SELLER, 90_000_00, DurationClass.BILL)
        fills.append(report.filled)
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


def test_settlement_pays_seller_and_conserves_deposits():
    world, market, registry = make_market()
    def deposits():
        return sum(v for k, v in world.sheet(BANK).liabilities.items()
                   if k.startswith("deposit@"))
    total_before = deposits()
    report = market.submit_sale(world, SELLER, 40_000_00, DurationClass.BILL)
    world.day = 1
    proceeds = market.settle_due(world, registry)
    got, expected = proceeds[SELLER.key]
    assert expected == 40_000_00
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
    headroom = sum(b.headroom(world2) for b in market2.books.values())
    assert lifted <= headroom


def test_srf_never_decreases_capacity_but_headroom_still_caps():
    for capital, ra in ((5_000_00, 0), (6_000_00, 5_000_00), (9_000_00, 10**12)):
        world_off, market_off, _ = make_market(capital=capital, reserve_access=ra)
        world_on, market_on, _ = make_market(capital=capital, reserve_access=ra,
                                             srf=True)
        off = capacity(market_off, world_off)
        on = capacity(market_on, world_on)
        headroom = sum(b.headroom(world_on) for b in market_on.books.values())
        assert on >= off
        assert on <= headroom


def test_srf_draw_consumes_headroom_at_clearing():
    world, market, _ = make_market(capital=9_000_00, reserve_access=0, srf=True)
    headroom0 = sum(b.headroom(world) for b in market.books.values())
    cap = capacity(market, world)
    assert cap == headroom0 // 2
    report = market.submit_sale(world, SELLER, cap, DurationClass.BILL)
    assert report.filled == cap
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
    reports = market.funding_gap_liquidation(world, 100_00, D1)
    assert sum(r.requested for r in reports) <= 1  # fully refinanced


def test_funding_gap_collateral_split():
    world, market, _ = make_market(replacement_frac=0)
    reports = market.funding_gap_liquidation(world, 100_00, D1)
    by_class = {r.duration: r.requested for r in reports}
    assert by_class[DurationClass.LONG] == 75_00
    assert by_class[DurationClass.BILL] == 25_00


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


def test_capacity_is_recomputed_only_for_a_dealer_that_changed(monkeypatch):
    # dealer cash binds: capacity is what the retention slice can fund
    world, market, _ = make_market(dealer_cash=1_000_00)
    computed = []
    available = market._dealer_available

    def counted(world, book):
        computed.append(book.agent.key)
        return available(world, book)

    monkeypatch.setattr(market, "_dealer_available", counted)
    before = market.dealer_capacity(world)
    assert market.dealer_capacity(world) == before
    assert computed == [D1.key, D2.key]
    # a write to D1's sheet alone, with no change to its book
    world.transfer_deposit(D1, BUYER, 500_00)
    after = market.dealer_capacity(world)
    assert computed == [D1.key, D2.key, D1.key]
    assert after[D1.key] < before[D1.key] and after[D2.key] == before[D2.key]
    assert after[D1.key] == available(world, market.books[D1.key])
    # a book day field alone
    market.books[D2.key].ra_used_today = 10**12
    assert market.dealer_capacity(world)[D2.key] == 0
    assert computed[-1] == D2.key


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


def resubmit_through_submit_sale(world, market):
    """Carryover cleared order by order through `submit_sale`."""
    queued, market.carryover = market.carryover, []
    return [market.submit_sale(world, order.seller, order.remaining, order.duration,
                               purpose=order.purpose, first_submission=False)
            for order in queued]


def market_state(world, market):
    return (world.events, world.seq, world.agents, world.tbill_face,
            [(o.order_id, o.seller, o.duration, o.remaining, o.purpose)
             for o in market.carryover],
            market.pending, market.books, market._next_order, market.day_excess,
            market.day_fills, market.day_submitted, market.day_srf_draws,
            market.gross_volume, market.seller_volume)


def test_resubmit_carryover_equals_clearing_each_order_through_submit_sale():
    seen = {"filled": 0, "zero": 0, "srf_draws": 0}
    for seed in range(60):
        world, market = random_market(random.Random(seed))
        ref_world, ref_market = copy.deepcopy((world, market))
        reports = market.resubmit_carryover(world)
        assert reports == resubmit_through_submit_sale(ref_world, ref_market), seed
        assert market_state(world, market) == market_state(ref_world, ref_market), seed
        assert world.audit().ok
        seen["filled"] += sum(1 for r in reports if r.filled)
        seen["zero"] += sum(1 for r in reports if not r.filled)
        seen["srf_draws"] += market.day_srf_draws > 0
    # the seeds reach fills, zero fills and SRF draws
    assert all(seen.values()), seen


def test_resubmit_carryover_reads_capacity_again_only_after_a_fill(monkeypatch):
    from stablesim import market as market_module

    prorated = []
    prorate = market_module._prorate
    monkeypatch.setattr(market_module, "_prorate",
                        lambda total, shares: prorated.append(total) or prorate(total, shares))
    zero_fills = 0
    for seed in range(20):
        world, market = random_market(random.Random(seed))
        reads = []
        read_capacity = market.dealer_capacity
        monkeypatch.setattr(market, "dealer_capacity",
                            lambda world: reads.append(1) or read_capacity(world))
        prorated.clear()
        reports = market.resubmit_carryover(world)
        filled = sum(1 for r in reports if r.filled)
        assert len(reads) <= 1 + filled, seed
        # a zero fill runs no pro-rata split
        assert prorated == [r.filled for r in reports if r.filled], seed
        zero_fills += len(reports) - filled
    assert zero_fills > 0
