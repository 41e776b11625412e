import copy
import json
from collections import Counter, defaultdict
from types import SimpleNamespace

import pytest

from stablesim.config import (PRESETS, DealerConfig, IssuerConfig, PolicyConfig, RatesConfig,
                              parse_config)
from stablesim.engine import _coin_holders, build_scenario, run
from stablesim.instruments import RepoRegistry, open_reverse_repo
from stablesim.ledger import (FED, AgentId, AgentKind, DurationClass, InsufficientPosition,
                              LedgerWorld, TransferBatch, coin_key, deposit_key,
                              repo_key, reserves_key, srf_key)
from stablesim.market import DealerBook
from stablesim.money import PAR
from stablesim.settlement import (AccessMode, Funding, GapInstruction, IneligibleRedeemer,
                                  IssuerBook, MintDeclined, MintOrder, ParMode, ParPolicy, Route,
                                  SaleInstruction, SettlementEngine, SettlementError,
                                  intervene)

BANK = AgentId(AgentKind.BANK, 0)
ISSUER = AgentId(AgentKind.ISSUER, 0)
HOLDER = AgentId(AgentKind.HOLDER, 0)
IM = AgentId(AgentKind.INTERMEDIARY, 0)
DEALER = AgentId(AgentKind.BROKER_DEALER, 0)


def bare_world(issuer_deposits=0, issuer_bills=0):
    world = LedgerWorld()
    world.add_agent(FED)
    world.add_agent(BANK)
    world.add_agent(ISSUER, bank=BANK)
    world.add_agent(HOLDER, bank=BANK)
    world.add_agent(IM, bank=BANK)
    world.add_agent(DEALER, bank=BANK)
    if issuer_deposits:
        world.create_deposits(ISSUER, issuer_deposits)
    if issuer_bills:
        world.grant_tbill(ISSUER, DurationClass.BILL, issuer_bills)
    return world


def issuer_book(**config):
    """The issuer's book; `config` sets fields of its `IssuerConfig`."""
    return IssuerBook(ISSUER, IssuerConfig(name="usdx", bank="bank", coins=1, assets=0,
                                           allocation={}, **config))


def settlement_engine(world, book, rates=RatesConfig(), **policies):
    """An engine over `book` alone; `policies` sets fields of its `PolicyConfig`."""
    return SettlementEngine(world, RepoRegistry(), {book.agent.key: book}, rates,
                            PolicyConfig(**policies))


def promised(book):
    """Holder key -> the coins its open requests at `book` have left unpaid."""
    owed = {}
    for r in book.open:
        owed[r.holder.key] = owed.get(r.holder.key, 0) + r.remaining
    return owed


def plan(world, amount, book=None, holder=HOLDER, **policies):
    """Submit one redemption and plan it; returns the request record, the
    sale instructions and the plan_created event."""
    book = book or issuer_book()
    settle = settlement_engine(world, book, **policies)
    [record] = settle.submit_redemptions(book, [(holder, amount)], Route.DIRECT)
    instructions = settle.plan_pending(set(), {})
    created = [e for e in world.events if e["type"] == "plan_created"]
    assert len(created) == 1
    assert created[0]["request_id"] == record.request_id
    return record, instructions, created[0]


def test_plan_prefers_deposits_when_they_cover():
    world = bare_world(issuer_deposits=10_000_00)
    record, instructions, event = plan(world, 1_000_00)
    assert event["funding"] == Funding.FROM_DEPOSITS.value
    assert event["from_deposits"] == 1_000_00
    assert event["horizon"] == record.horizon == 0
    assert instructions == []


def test_plan_sells_bills_with_one_day_settlement():
    world = bare_world(issuer_deposits=0, issuer_bills=10_000_00)
    record, instructions, event = plan(world, 1_000_00)
    assert event["funding"] == Funding.SELL_TREASURIES.value
    assert event["from_sales"] == 1_000_00
    assert event["horizon"] == record.horizon == 1
    assert instructions == [SaleInstruction(ISSUER, 1_000_00)]


def test_plan_falls_back_to_repo_non_rollover():
    world = bare_world()
    record, instructions, event = plan(world, 1_000_00)
    assert event["funding"] == Funding.REPO_NON_ROLLOVER.value
    assert event["from_nonroll"] == 1_000_00
    assert event["horizon"] == record.horizon == 0
    assert instructions == []


def test_direct_route_needs_eligibility_under_intermediated_access():
    world = bare_world(issuer_deposits=10_000_00)
    book = issuer_book()
    settle = settlement_engine(world, book, access_mode=AccessMode.INTERMEDIATED)
    with pytest.raises(IneligibleRedeemer):
        settle.submit_redemptions(book, [(HOLDER, 1_00)], Route.DIRECT)
    # a holder may still take part in an issuer's intervention
    settle.submit_redemptions(book, [(HOLDER, 1_00)], Route.DIRECT, is_intervention=True)
    # an intermediary may redeem directly
    _, _, event = plan(world, 1_00, holder=IM, access_mode=AccessMode.INTERMEDIATED)
    assert event["funding"] == Funding.FROM_DEPOSITS.value


def test_redemption_amount_must_be_positive():
    world = bare_world(issuer_deposits=10_000_00)
    book = issuer_book()
    settle = settlement_engine(world, book)
    for amount in (0, -1_00):
        with pytest.raises(SettlementError):
            settle.submit_redemptions(book, [(HOLDER, amount)], Route.DIRECT)
    assert book.requests == book.open == [] and promised(book) == {}
    [record] = settle.submit_redemptions(book, [(HOLDER, 1_00)], Route.DIRECT)
    assert (record.request_id, record.holder, record.amount, record.submitted_day) == \
        (0, HOLDER, 1_00, 0)


def intake_state(world, settle, book):
    return (list(world.events.lines()), world.seq, settle._next_request, promised(book),
            book.requests, book.open, book.day_requested)


@pytest.mark.parametrize("slices, error", [
    pytest.param([(IM, 1_00), (HOLDER, 1_00)], IneligibleRedeemer, id="ineligible_holder"),
    pytest.param([(IM, 1_00), (IM, 2_00), (IM, 0)], SettlementError, id="zero_amount"),
])
def test_failing_intake_batch_writes_nothing(slices, error):
    """A batch is checked whole before it writes: an ineligible holder or
    a non-positive amount late in it leaves no record, commitment,
    counter or event, and the next request still gets id 0."""
    world = bare_world(issuer_deposits=10_000_00)
    book = issuer_book()
    settle = settlement_engine(world, book, access_mode=AccessMode.INTERMEDIATED)
    before = copy.deepcopy(intake_state(world, settle, book))
    with pytest.raises(error):
        settle.submit_redemptions(book, slices, Route.DIRECT)
    assert intake_state(world, settle, book) == before
    assert settle.submit_redemptions(book, [(IM, 1_00)], Route.DIRECT)[0].request_id == 0


def test_intake_batch_equals_batches_of_one():
    slices = [(HOLDER, 1_00), (IM, 2_00), (HOLDER, 3_00)]
    states = []
    for batched in (True, False):
        world = bare_world(issuer_deposits=10_000_00)
        world.day = 4
        book = issuer_book()
        settle = settlement_engine(world, book)
        if batched:
            records = settle.submit_redemptions(book, slices, Route.VIA_INTERMEDIARY, True)
        else:
            records = [record for one in slices for record in settle.submit_redemptions(
                book, [one], Route.VIA_INTERMEDIARY, is_intervention=True)]
        assert records == book.requests
        states.append(intake_state(world, settle, book))
    assert states[0] == states[1]
    events = [json.loads(line) for line in states[0][0]]
    assert [(e["seq"], e["request_id"], e["amount"]) for e in events] == [
        (0, 0, 1_00), (1, 1, 2_00), (2, 2, 3_00)]
    assert states[0][3] == {HOLDER.key: 4_00, IM.key: 2_00}
    assert states[0][6] == 6_00


def test_plan_pass_draws_each_source_in_turn():
    """Three requests planned in one pass: the first takes deposits, the
    second the rest of them and then bills, the third the bills left and
    then repo non-rollover, each sized on what the ones before it took."""
    world = bare_world(issuer_deposits=500_00, issuer_bills=500_00)
    book = issuer_book()
    settle = settlement_engine(world, book)
    records = settle.submit_redemptions(book, [(HOLDER, 400_00)] * 3, Route.DIRECT)
    instructions = settle.plan_pending(set(), {})
    assert [(r.deposit_left, r.pool_left, r.horizon) for r in records] == [
        (400_00, 0, 0), (100_00, 300_00, 1), (0, 400_00, 1)]
    assert instructions == [SaleInstruction(ISSUER, 300_00),
                            SaleInstruction(ISSUER, 200_00)]
    created = [(e["request_id"], e["funding"], e["from_sales"], e["from_nonroll"])
               for e in world.events if e["type"] == "plan_created"]
    assert created == [(0, Funding.FROM_DEPOSITS.value, 0, 0),
                       (1, Funding.SELL_TREASURIES.value, 300_00, 0),
                       (2, Funding.REPO_NON_ROLLOVER.value, 200_00, 200_00)]
    assert book.nonroll_pending == 200_00


def test_plan_sells_only_the_bills_not_already_being_sold():
    """The issuer holds 1,000.00 of bills, 700.00 of them sold and not yet
    settled. A 500.00 request sells the 300.00 left and takes 200.00 from
    repo non-rollover. When 800.00 of the sales then settle for no cash,
    the next pass sells another 100.00: the pool needs 500.00, and 200.00
    of sales and 200.00 of non-rollover are in flight."""
    world = bare_world(issuer_bills=1_000_00)
    book = issuer_book()
    settle = settlement_engine(world, book)
    [record] = settle.submit_redemptions(book, [(HOLDER, 500_00)], Route.DIRECT)
    assert settle.plan_pending(set(), {ISSUER.key: 700_00, DEALER.key: 5_000_00}) == [
        SaleInstruction(ISSUER, 300_00)]
    assert (record.deposit_left, record.pool_left) == (0, 500_00)
    assert book.nonroll_pending == 200_00
    assert settle.plan_pending(set(), {ISSUER.key: 200_00}) == [SaleInstruction(ISSUER, 100_00)]
    assert book.nonroll_pending == 200_00


def charge(world, amount):
    """Take `amount` of the issuer's deposits at BANK, as the engine pays
    an operating cost."""
    world.post({(ISSUER.key, "A", deposit_key(BANK)): -amount,
                (BANK.key, "L", deposit_key(ISSUER)): -amount})


def test_plan_pass_takes_no_deposits_below_the_earmark():
    """An operating cost leaves the issuer 300.00 of deposits under the
    400.00 earmarked for a planned request: the next request takes none
    of them and sells bills for all of its 300.00."""
    world = bare_world(issuer_deposits=500_00, issuer_bills=1_000_00)
    book = issuer_book()
    settle = settlement_engine(world, book)
    [first] = settle.submit_redemptions(book, [(HOLDER, 400_00)], Route.DIRECT)
    assert settle.plan_pending(set(), {}) == []
    charge(world, 200_00)
    [second] = settle.submit_redemptions(book, [(HOLDER, 300_00)], Route.DIRECT)
    assert settle.plan_pending(set(), {}) == [SaleInstruction(ISSUER, 300_00)]
    assert [(r.deposit_left, r.pool_left) for r in (first, second)] == [
        (400_00, 0), (0, 300_00)]
    assert [(e["funding"], e["from_sales"], e["from_nonroll"]) for e in world.events
            if e["type"] == "plan_created"][-1] == (Funding.SELL_TREASURIES.value, 300_00, 0)


def test_declined_roll_whose_relend_cannot_be_pledged_logs_leg_failed():
    """The issuer declines 100.00 of a 1,000.00 overnight repo to fund a
    request. The dealer's collateral was exactly the pledge at par, and a
    20% mark-down of long bonds leaves it short of the 900.00 kept: the
    repo still closes, the decline is pooled and its gap returned, and one
    `leg_failed` row logs the re-lend."""
    world = bare_world(issuer_deposits=1_000_00)
    world.grant_tbill(DEALER, DurationClass.BILL, 255_00)
    world.grant_tbill(DEALER, DurationClass.LONG, 765_00)
    registry = RepoRegistry()
    batch = TransferBatch(world)
    pos = open_reverse_repo(batch, registry, ISSUER, DEALER, 1_000_00, haircut=20_000, rate=0)
    batch.commit()
    book = issuer_book()
    settle = SettlementEngine(world, registry, {ISSUER.key: book}, RatesConfig(), PolicyConfig())
    settle.submit_redemptions(book, [(HOLDER, 100_00)], Route.DIRECT)
    assert settle.plan_pending(set(), {}) == [] and book.nonroll_pending == 100_00
    world.day = 1
    world.remark_tbills(DurationClass.LONG, 800_000)
    logged = len(world.events)
    assert settle.process_repo_legs() == [GapInstruction(DEALER, 100_00)]
    assert (book.pool, book.nonroll_pending, registry.open_positions()) == (100_00, 0, [])
    rows = world.events[logged:]
    assert [e["type"] for e in rows] == ["transfer", "repo_close", "leg_failed"]
    assert (rows[-1]["leg"], rows[-1]["repo_id"]) == ("repo_relend", pos.repo_id)
    assert rows[-1]["cause"] == f"{DEALER} pledges 84150, needs 91800"
    assert world.deposits(ISSUER) == 1_000_00 and world.audit().ok


def test_submit_mint_declines():
    world = bare_world()
    book = issuer_book()
    yielding = RatesConfig(treasury_rate_daily=100)
    settlement_engine(world, book, yielding).submit_mint(book, HOLDER, 1_000_00, PAR)
    assert book.mints == [MintOrder(HOLDER, 1_000_00)]
    assert [(e["day"], e["issuer"], e["buyer"], e["amount"], e["intervention"])
            for e in world.events if e["type"] == "mint_request"] == [
        (0, ISSUER.key, HOLDER.key, 1_000_00, False)]
    with pytest.raises(SettlementError):
        settlement_engine(world, book, yielding).submit_mint(book, HOLDER, 0, PAR)
    with pytest.raises(MintDeclined):
        settlement_engine(world, book, RatesConfig(treasury_rate_daily=0)).submit_mint(
            book, HOLDER, 1_000_00, PAR)
    best_effort = issuer_book()
    with pytest.raises(MintDeclined):
        settlement_engine(world, best_effort, yielding, negative_carry_refusal=False,
                          par_policy=ParPolicy(ParMode.BEST_EFFORT)).submit_mint(
            best_effort, HOLDER, 1_000_00, PAR - 1)
    assert book.mints == [MintOrder(HOLDER, 1_000_00)]
    assert best_effort.mints == []


def test_mint_pass_invests_the_configured_fraction_in_bills():
    world = bare_world()
    world.create_deposits(HOLDER, 1_000_00)
    world.grant_tbill(DEALER, DurationClass.BILL, 10_000_00)
    book = issuer_book(mint_invest_frac=500_000)
    settle = settlement_engine(world, book, RatesConfig(treasury_rate_daily=100))
    settle.submit_mint(book, HOLDER, 1_000_00, PAR)
    settle.mint_pass(set(), DEALER)
    assert book.mints == [] and book.total_minted == 1_000_00
    assert world.sheet(HOLDER).asset(coin_key(ISSUER)) == 1_000_00
    assert (world.deposits(ISSUER), world.tbill_value(ISSUER)) == (500_00, 500_00)
    assert world.deposits(DEALER) == 500_00
    assert world.audit().ok


def test_mint_waits_in_the_queue_until_its_buyer_is_funded():
    """A buyer short of deposits fails the mint's deposit leg and the order
    stays queued; once funded, it settles once, on that later day, and
    leaves the queue."""
    world = bare_world()
    book = issuer_book()
    settle = settlement_engine(world, book, RatesConfig(treasury_rate_daily=100))
    settle.submit_mint(book, HOLDER, 1_000_00, PAR)
    [order] = book.mints
    settle.mint_pass(set(), DEALER)
    assert [(e["leg"], e["issuer"]) for e in world.events if e["type"] == "leg_failed"] == [
        ("mint_deposit", ISSUER.key)]
    assert book.mints == [order] and book.total_minted == 0
    world.day = 1
    world.create_deposits(HOLDER, 1_000_00)
    settle.mint_pass(set(), DEALER)
    settle.mint_pass(set(), DEALER)
    assert [(e["day"], e["buyer"], e["amount"]) for e in world.events
            if e["type"] == "mint_completed"] == [(1, HOLDER.key, 1_000_00)]
    assert book.mints == [] and (book.day_minted, book.total_minted) == (1_000_00, 1_000_00)
    assert world.sheet(HOLDER).asset(coin_key(ISSUER)) == 1_000_00
    assert world.deposits(ISSUER) == 1_000_00 and world.deposits(HOLDER) == 0
    assert world.audit().ok


def coined_world(coins):
    world = bare_world()
    world.post({
        (ISSUER.key, "L", f"coin@{ISSUER.key}"): coins,
        (HOLDER.key, "A", f"coin@{ISSUER.key}"): coins,
    })
    return world


def test_rigorous_fixed_buys_below_par():
    world = coined_world(1_000_000_00)
    policy = ParPolicy(ParMode.RIGOROUS_FIXED)
    # the deviation's share of coins, pinned to par
    assert intervene(policy, 999_000, world, ISSUER) == (1_000_00, PAR)
    assert intervene(policy, PAR, world, ISSUER) is None


def test_corridor_acts_only_outside_band():
    world = coined_world(1_000_000_00)
    policy = ParPolicy(ParMode.CORRIDOR, corridor_width=5_000)  # 50bp
    assert intervene(policy, 998_000, world, ISSUER) is None
    assert intervene(policy, PAR - 5_000, world, ISSUER) is None
    # the share below the edge, pinned to the edge
    assert intervene(policy, 994_000, world, ISSUER) == (1_000_00, PAR - 5_000)


def test_best_effort_never_intervenes():
    world = coined_world(1_000_000_00)
    assert intervene(ParPolicy(ParMode.BEST_EFFORT), 900_000, world, ISSUER) is None


def srf_setup():
    world = bare_world()
    world.grant_tbill(DEALER, DurationClass.LONG, 50_00)
    book = DealerBook(DEALER, DealerConfig(name="d", bank="bank", capital=5_80,
                                           base_assets=100_00, reserve_access=0),
                      inventory_baseline=world.tbill_value(DEALER))
    return world, book


def test_draw_srf_grows_assets_and_trims_headroom():
    world, book = srf_setup()
    assert book.slr_report(world).headroom_assets == 16_00
    world.draw_srf(DEALER, 10_00)
    assert world.sheet(DEALER).asset(reserves_key()) == 10_00
    assert world.sheet(FED).asset(f"srf@{DEALER.key}") == 10_00
    assert world.sheet(DEALER).liability(srf_key(FED)) == 10_00
    assert book.slr_report(world).headroom_assets == 6_00
    assert world.audit().ok


# ---------------------------------------------------------------------------
# deposit conservation through full settlement cycles
# ---------------------------------------------------------------------------


def scenario_raw(deposits, bills, repo, baseline_rate=200_000, horizon=4,
                 mint_rate=0):
    coins = 10_000_00
    return {
        "horizon_days": horizon,
        "seed": 5,
        "agents": {
            "banks": [{"name": "bank_a"}, {"name": "bank_b"}],
            "issuers": [{"name": "usdx", "bank": "bank_a", "coins": coins,
                         "assets": deposits + bills + repo,
                         "allocation": {"deposits": deposits, "bills": bills,
                                        "repo": repo}}],
            "dealers": [{"name": "d1", "bank": "bank_b", "capital": 50_000_00,
                         "base_assets": 100_000_00, "reserve_access": 10**9,
                         "deposits": 50_000_00, "treasuries_long": 40_000_00,
                         "treasuries_bill": 10_000_00}],
            "intermediaries": [{"name": "im", "bank": "bank_b",
                                "deposits": coins}],
            "holders": [{"name": "h1", "bank": "bank_a", "deposits": 5_000_00,
                         "coins": {"usdx": coins}}],
            "treasury_buyers": [{"name": "tb", "bank": "bank_b",
                                 "deposits": 10**9,
                                 "treasuries_bill": 10_000_00}],
        },
        "policies": {"access_mode": "direct",
                     "par_policy": {"mode": "best_effort"},
                     "negative_carry_refusal": False},
        "market": {"depth": 100_000_00},
        "run_model": {"baseline_rate": baseline_rate, "shifted_rate": 900_000,
                      "deviation_threshold_bp": 5_000},
        "mint_demand": {"daily_rate": mint_rate},
        "shocks": [],
    }


def total_bank_deposits(world):
    return sum(v for key in sorted(world.agents)
               for k, v in world.agents[key].liabilities.items()
               if k.startswith("deposit@"))


@pytest.mark.parametrize("deposits,bills,repo", [
    (10_000_00, 0, 0),          # pure deposit funding
    (0, 10_000_00, 0),          # pure bill sales
    (0, 0, 10_000_00),          # pure repo non-rollover
    (2_000_00, 3_000_00, 5_000_00),
])
def test_each_funding_route_conserves_bank_deposits(deposits, bills, repo):
    totals = []

    def watch(scn, day):
        totals.append(total_bank_deposits(scn.world))

    out = run(parse_config(scenario_raw(deposits, bills, repo, mint_rate=50_000)),
              on_day_end=watch)
    assert len(set(totals)) == 1
    assert out.summary["issuers"]["usdx"]["completed_total"] > 0
    assert out.summary["issuers"]["usdx"]["minted_total"] > 0


def test_from_deposits_request_completes_same_day():
    out = run(parse_config(scenario_raw(10_000_00, 0, 0)))
    first = [r for r in out.daily_rows if r["kind"] == "issuer"][0]
    assert first["requested"] == first["completed"] == 2_000_00
    assert out.summary["issuers"]["usdx"]["max_delay_days"] == 0


def test_sell_treasuries_completes_next_day():
    out = run(parse_config(scenario_raw(0, 10_000_00, 0)))
    rows = [r for r in out.daily_rows if r["kind"] == "issuer"]
    assert rows[0]["completed"] == 0
    assert rows[1]["completed"] >= rows[0]["requested"]
    assert out.summary["issuers"]["usdx"]["max_delay_days"] == 0


def test_coins_outstanding_tracks_mints_minus_redemptions():
    seen, completed = [], []

    def watch(scn, day):
        key = ISSUER.key
        book = scn.settle.issuers[key]
        coins = scn.world.coins_outstanding(book.agent)
        completed.append(book.day_completed)
        seen.append((coins, book.total_minted - sum(completed)))

    run(parse_config(scenario_raw(10_000_00, 0, 0, mint_rate=100_000)),
        on_day_end=watch)
    for coins, net in seen:
        assert coins == 10_000_00 + net


def test_payout_pass_pays_deposit_funded_request_same_day():
    scn = build_scenario(parse_config(scenario_raw(10_000_00, 0, 0, baseline_rate=1)))
    book = scn.settle.issuers["issuer:0"]
    holder = scn.agent_of["h1"]
    total_before = total_bank_deposits(scn.world)
    coins_before = scn.world.coins_outstanding(book.agent)
    [record] = scn.settle.submit_redemptions(book, [(holder, 1_000_00)], Route.DIRECT)
    assert scn.settle.plan_pending(set(), scn.market.unsettled(scn.settle.issuers)) == []
    created = [e for e in scn.world.events if e["type"] == "plan_created"]
    assert created[-1]["funding"] == Funding.FROM_DEPOSITS.value
    scn.settle.payout_pass(set())
    assert record.completed and book.open == []
    assert (record.paid, record.deposit_left, record.pool_left) == (1_000_00, 0, 0)
    assert scn.world.coins_outstanding(book.agent) == coins_before - 1_000_00
    assert total_bank_deposits(scn.world) == total_before
    assert scn.world.audit().ok


def test_plan_pending_sale_funding_waits_for_the_market():
    scn = build_scenario(parse_config(scenario_raw(0, 10_000_00, 0, baseline_rate=1)))
    book = scn.settle.issuers["issuer:0"]
    holder = scn.agent_of["h1"]
    [record] = scn.settle.submit_redemptions(book, [(holder, 1_000_00)], Route.DIRECT)
    instructions = scn.settle.plan_pending(set(), scn.market.unsettled(scn.settle.issuers))
    created = [e for e in scn.world.events if e["type"] == "plan_created"]
    assert created[-1]["funding"] == Funding.SELL_TREASURIES.value
    assert instructions == [SaleInstruction(book.agent, 1_000_00)]
    scn.settle.payout_pass(set())
    assert not record.completed
    # the sale is in flight in the market, filled or carried over
    scn.market.submit_sale(scn.world, book.agent, 1_000_00, DurationClass.BILL)
    assert scn.market.unsettled(scn.settle.issuers) == {book.agent.key: 1_000_00}


# ---------------------------------------------------------------------------
# the payout pass: one batch per issuer
# ---------------------------------------------------------------------------

BANK_B = AgentId(AgentKind.BANK, 1)


def payout_world(issuer_deposits, coins):
    """The issuer banks at BANK with `issuer_deposits`, the holder at
    BANK_B with `coins` of the issuer's coin."""
    world = LedgerWorld()
    for agent, bank in ((FED, None), (BANK, None), (BANK_B, None), (ISSUER, BANK),
                        (HOLDER, BANK_B), (IM, BANK_B)):
        world.add_agent(agent, bank=bank)
    world.create_deposits(ISSUER, issuer_deposits)
    world.post({(ISSUER.key, "L", coin_key(ISSUER)): coins,
                (HOLDER.key, "A", coin_key(ISSUER)): coins})
    return world


def test_payout_pass_sizes_chunks_against_running_balances():
    """Two requests of one holder in one pass. The first takes its
    earmarked 300.00; the second gets its earmarked 300.00 plus 50.00 of
    the spare deposits that arrived after planning, which leaves the
    issuer none: 350.00 of 400.00."""
    world = payout_world(issuer_deposits=600_00, coins=700_00)
    book = issuer_book()
    settle = settlement_engine(world, book)
    first, second = settle.submit_redemptions(book, [(HOLDER, 300_00), (HOLDER, 400_00)],
                                              Route.DIRECT)
    assert settle.plan_pending(set(), {}) == []
    assert (first.deposit_left, first.pool_left) == (300_00, 0)
    assert (second.deposit_left, second.pool_left) == (300_00, 100_00)
    world.create_deposits(ISSUER, 50_00)
    logged = len(world.events)
    settle.payout_pass(set())
    assert first.completed and (first.paid, first.deposit_left, first.pool_left) == (300_00, 0, 0)
    assert (second.paid, second.deposit_left, second.pool_left) == (350_00, 0, 50_00)
    assert not second.completed and book.open == [second]
    assert promised(book) == {HOLDER.key: 50_00}
    assert (book.pool, book.day_completed) == (0, 650_00)
    assert world.deposits(ISSUER) == 0 and world.deposits(HOLDER) == 650_00
    assert world.sheet(HOLDER).asset(coin_key(ISSUER)) == 50_00
    assert world.sheet(ISSUER).liability(coin_key(ISSUER)) == 50_00
    assert world.sheet(BANK).asset(reserves_key()) == 0
    assert world.sheet(BANK_B).asset(reserves_key()) == 650_00
    assert world.sheet(FED).liabilities == {reserves_key(BANK_B): 650_00}
    assert world.audit().ok
    coin, issuer, holder = coin_key(ISSUER), ISSUER.key, HOLDER.key
    assert [{k: v for k, v in e.items() if k != "day"} for e in world.events[logged:]] == [
        {"seq": 4, "type": "burn", "instrument": coin, "src": holder, "dst": issuer,
         "amount": 300_00},
        {"seq": 5, "type": "transfer", "instrument": "deposit", "src": issuer,
         "dst": holder, "amount": 300_00},
        {"seq": 6, "type": "redemption_completed", "request_id": 0, "issuer": issuer,
         "holder": holder, "amount": 300_00, "delay_days": 0},
        {"seq": 7, "type": "burn", "instrument": coin, "src": holder, "dst": issuer,
         "amount": 350_00},
        {"seq": 8, "type": "transfer", "instrument": "deposit", "src": issuer,
         "dst": holder, "amount": 350_00},
        {"seq": 9, "type": "redemption_partial", "request_id": 1, "issuer": issuer,
         "paid": 350_00, "remaining": 50_00},
    ]


def test_payout_pass_pays_no_more_than_the_issuer_deposits():
    """An operating cost takes 100.00 of the 300.00 earmarked for a
    request: the pass pays the 200.00 left, and the request stays open."""
    world = payout_world(issuer_deposits=300_00, coins=300_00)
    book = issuer_book()
    settle = settlement_engine(world, book)
    [record] = settle.submit_redemptions(book, [(HOLDER, 300_00)], Route.DIRECT)
    settle.plan_pending(set(), {})
    charge(world, 100_00)
    settle.payout_pass(set())
    assert book.open == [record]
    assert (record.paid, record.deposit_left, record.pool_left) == (200_00, 100_00, 0)
    assert world.deposits(ISSUER) == 0 and world.deposits(HOLDER) == 200_00
    assert world.audit().ok


def test_payout_pass_pays_the_pool_when_deposits_fall_below_earmark_and_pool():
    """The older request waits on a 300.00 bill sale, the newer one has
    300.00 of deposits earmarked. Once the sale's cash is pooled, an
    operating cost leaves 500.00 of deposits, 100.00 short of earmark and
    pool: the older request is still paid its 300.00 from the pool, and
    the newer one the 200.00 of deposits left."""
    world = payout_world(issuer_deposits=0, coins=600_00)
    world.grant_tbill(ISSUER, DurationClass.BILL, 300_00)
    book = issuer_book()
    settle = settlement_engine(world, book)
    [older] = settle.submit_redemptions(book, [(HOLDER, 300_00)], Route.DIRECT)
    assert settle.plan_pending(set(), {}) == [SaleInstruction(ISSUER, 300_00)]
    world.create_deposits(ISSUER, 300_00)
    [newer] = settle.submit_redemptions(book, [(HOLDER, 300_00)], Route.DIRECT)
    assert settle.plan_pending(set(), {ISSUER.key: 300_00}) == []
    assert [(r.deposit_left, r.pool_left) for r in (older, newer)] == [(0, 300_00), (300_00, 0)]
    world.create_deposits(ISSUER, 300_00)   # the sale's cash
    settle.credit_proceeds({ISSUER.key: 300_00})
    charge(world, 100_00)
    settle.payout_pass(set())
    assert older.completed and book.open == [newer]
    assert (newer.paid, newer.deposit_left, newer.pool_left) == (200_00, 100_00, 0)
    assert book.pool == 0 and world.deposits(ISSUER) == 0
    assert world.audit().ok


def test_payout_pass_pays_a_holder_no_more_than_its_coins_left():
    """A holder with 500.00 of coins and two requests of 300.00: the
    second is paid the 200.00 the first leaves."""
    world = payout_world(issuer_deposits=1_000_00, coins=500_00)
    book = issuer_book()
    settle = settlement_engine(world, book)
    first, second = settle.submit_redemptions(book, [(HOLDER, 300_00)] * 2, Route.DIRECT)
    settle.plan_pending(set(), {})
    settle.payout_pass(set())
    assert first.completed and (second.paid, second.remaining) == (200_00, 100_00)
    assert second.deposit_left == 100_00 and world.deposits(ISSUER) == 500_00
    assert world.coin_holders == {coin_key(ISSUER): []}
    assert world.audit().ok


def test_holder_walk_after_a_partial_payout_offers_the_coins_not_promised():
    """A holder with 1,000.00 of coins asks for 300.00 and 400.00 and is
    paid 650.00: of its 350.00 left, 50.00 stay promised to the open
    request, so the next walk offers 300.00, not 350.00 less the request's
    whole 400.00."""
    world = payout_world(issuer_deposits=600_00, coins=1_000_00)
    book = issuer_book()
    settle = settlement_engine(world, book)
    _, second = settle.submit_redemptions(book, [(HOLDER, 300_00), (HOLDER, 400_00)],
                                          Route.DIRECT)
    settle.plan_pending(set(), {})
    world.create_deposits(ISSUER, 50_00)
    settle.payout_pass(set())
    assert book.open == [second] and (second.amount, second.paid) == (400_00, 350_00)
    assert world.sheet(HOLDER).asset(coin_key(ISSUER)) == 350_00
    assert list(_coin_holders(SimpleNamespace(world=world), book)) == [(HOLDER, 300_00)]


def test_failing_payout_pass_writes_nothing():
    """The issuer's bank holds reserves for each chunk but not for both:
    the pass raises before it writes a sheet, a version, the change log,
    the coin-holder index, an event or a request."""
    world = payout_world(issuer_deposits=600_00, coins=650_00)
    world.post({(BANK.key, "A", reserves_key()): -100_00,
                (FED.key, "L", reserves_key(BANK)): -100_00})
    assert world.audit_changes().ok
    book = issuer_book()
    settle = settlement_engine(world, book)
    requests = settle.submit_redemptions(book, [(HOLDER, 300_00)] * 2, Route.DIRECT)
    settle.plan_pending(set(), {})
    before = copy.deepcopy((
        world.snapshot().to_json(), {key: b.version for key, b in world.agents.items()},
        world.changes, world.coin_holders, list(world.events.lines()),
        promised(book), book.pool, book.open,
        [(r.paid, r.deposit_left, r.pool_left) for r in requests]))
    with pytest.raises(InsufficientPosition) as raised:
        settle.payout_pass(set())
    assert (raised.value.agent, raised.value.key) == (BANK.key, reserves_key())
    assert (raised.value.have, raised.value.need) == (500_00, 600_00)
    assert (
        world.snapshot().to_json(), {key: b.version for key, b in world.agents.items()},
        world.changes, world.coin_holders, list(world.events.lines()),
        promised(book), book.pool, book.open,
        [(r.paid, r.deposit_left, r.pool_left) for r in requests],
    ) == before


def test_delay_is_counted_once_per_request():
    """Two requests funded by repo non-rollover (horizon 0) that no cash
    reaches on day 0. On day 1 the first completes on its first overdue
    day: its amount counts as delayed once and sets the longest delay,
    with no `queue_delayed` event. The second stays open and the sweep
    flags it once; paying it later moves the longest delay only."""
    world = payout_world(issuer_deposits=1, coins=400_00)
    book = issuer_book()
    settle = settlement_engine(world, book)
    first, second = settle.submit_redemptions(book, [(HOLDER, 200_00)] * 2, Route.DIRECT)
    settle.plan_pending(set(), {})
    assert (first.deposit_left, first.pool_left, first.horizon) == (1, 199_99, 0)
    settle.payout_pass(set())
    settle.sweep_delay_flags()
    assert (first.paid, book.delayed_total) == (1, 0)

    def flagged():
        return [(e["day"], e["request_id"], e["age"]) for e in world.events
                if e["type"] == "queue_delayed"]

    world.day = 1
    world.create_deposits(ISSUER, 199_99)
    settle.payout_pass(set())
    assert first.completed and book.open == [second]
    assert (book.delayed_total, book.max_delay_days) == (200_00, 1)
    assert flagged() == []
    assert [e["delay_days"] for e in world.events if e["type"] == "redemption_completed"] == [1]
    settle.sweep_delay_flags()
    assert flagged() == [(1, second.request_id, 1)]
    assert (book.delayed_total, book.max_delay_days) == (400_00, 1)
    assert (settle.overdue_amount(book), settle.queue_age(book)) == (200_00, 1)
    world.day = 2
    settle.sweep_delay_flags()
    assert flagged() == [(1, second.request_id, 1)] and book.delayed_total == 400_00
    world.day = 3
    world.create_deposits(ISSUER, 200_00)
    settle.payout_pass(set())
    assert second.completed and book.open == []
    assert (book.delayed_total, book.max_delay_days) == (400_00, 3)
    assert settle.overdue_amount(book) == settle.queue_age(book) == 0
    assert world.audit().ok


def many_holder_raw(holders: int) -> dict:
    """`scenario_raw` with a second issuer, on chain "side" at bank_b, and
    both issuers' coins split over `holders` holders at alternating
    banks: holder i holds usdx unless 3 divides i, usdy if i is even."""
    raw = scenario_raw(10_000_00, 0, 0)
    agents = raw["agents"]
    usdx = agents["issuers"][0]
    agents["issuers"].append(dict(usdx, name="usdy", bank="bank_b", chain="side"))
    agents["holders"] = [{"name": f"h{i}", "bank": ("bank_a", "bank_b")[i % 2],
                          "deposits": 1_000_00, "coins": {}} for i in range(holders)]
    for name, holds in (("usdx", lambda i: i % 3), ("usdy", lambda i: i % 2 == 0)):
        owners = [h for i, h in enumerate(agents["holders"]) if holds(i)]
        share, extra = divmod(10_000_00, len(owners))
        for k, holder in enumerate(owners):
            holder["coins"][name] = share + (1 if k < extra else 0)
    return raw


def test_payout_pass_posts_once_per_paying_issuer(monkeypatch):
    scn = build_scenario(parse_config(many_holder_raw(12)))
    world, settle = scn.world, scn.settle
    for book in settle.issuers.values():
        holders = world.coin_holders[coin_key(book.agent)][:4]
        settle.submit_redemptions(book, [(world.ids[key], 100_00) for key in holders],
                                  Route.DIRECT)
    settle.plan_pending(set(), scn.market.unsettled(scn.settle.issuers))
    posted = []
    post = world.post
    monkeypatch.setattr(world, "post", lambda legs, *args, **kwargs: (
        posted.append(legs), post(legs, *args, **kwargs)))
    settle.payout_pass({"side"})    # usdy's chain is halted: usdx pays alone
    assert len(posted) == 1
    settle.payout_pass(set())       # usdx has nothing left to pay
    assert len(posted) == 2
    assert all(not book.open and book.day_completed == 400_00
               for book in settle.issuers.values())
    burns = [e for e in world.events if e["type"] == "burn"]
    assert len(burns) == 8
    assert world.audit().ok


def test_set_up_endows_each_issuers_coins_in_one_post(monkeypatch):
    raw = many_holder_raw(12)
    coin_posts = []
    post = LedgerWorld.post

    def spy(world, legs):
        if any(key.startswith("coin@") for _, _, key in legs):
            coin_posts.append(legs)
        return post(world, legs)

    monkeypatch.setattr(LedgerWorld, "post", spy)
    scn = build_scenario(parse_config(raw))
    assert len(coin_posts) == 2
    world = scn.world
    for name in ("usdx", "usdy"):
        coin = coin_key(scn.agent_of[name])
        holders = sorted(scn.agent_of[h["name"]].key for h in raw["agents"]["holders"]
                         if name in h["coins"])
        assert world.coin_holders[coin] == holders
        assert holders == sorted(key for key, book in world.agents.items()
                                 if book.asset(coin) > 0)
    # agents are indexed by sorted name (h10 is holder:2), and kept in key order
    assert world.coin_holders[coin_key(scn.agent_of["usdx"])] == [
        "holder:1", "holder:10", "holder:2", "holder:3", "holder:4", "holder:6",
        "holder:7", "holder:9"]


def test_set_up_writes_each_issuers_genesis_repos_with_one_post(bench_scaled, monkeypatch):
    """Each issuer lends its repo allocation to every dealer on one batch:
    one post carries the claims and obligations of all its genesis repos."""
    raw = bench_scaled(holders=20, issuers=3, horizon=15, dealers=8, funded=False, seed=1)
    repo_posts = []
    post = LedgerWorld.post

    def spy(world, legs):
        if repo_legs := {leg for leg in legs if leg[2].startswith("repo@")}:
            repo_posts.append(repo_legs)
        return post(world, legs)

    monkeypatch.setattr(LedgerWorld, "post", spy)
    scn = build_scenario(parse_config(raw))
    lent = [scn.registry.by_lender(book.agent) for book in scn.settle.issuers.values()]
    assert [len(positions) for positions in lent] == [8, 8, 8]
    assert repo_posts == [{leg for pos in positions for leg in (
        (pos.lender.key, "A", repo_key(pos.borrower)),
        (pos.borrower.key, "L", repo_key(pos.lender)))} for positions in lent]


# each book's days, with the posts of the day's repo pass and its repo rows:
# the generated book rolls, declines and re-lends; `slr_bound` at -500 finds
# the issuer's deposits empty on days 1 and 2, postponing both rolls, which
# stages rows but no leg, then declines, re-lends and rolls
@pytest.mark.parametrize("book, expected", [
    pytest.param("scaled", {
        6: (1, {"repo_close": 3, "repo_open": 3, "repo_roll": 21}),
        7: (1, {"repo_close": 6, "repo_open": 3, "repo_roll": 18}),
        8: (1, {"repo_close": 6, "repo_open": 3, "repo_roll": 15}),
        9: (1, {"repo_close": 6, "repo_open": 3, "repo_roll": 12})}, id="scaled"),
    pytest.param("slr_bound", {
        1: (0, {"leg_failed/repo_roll": 2}),
        2: (0, {"leg_failed/repo_roll": 2}),
        3: (1, {"repo_close": 1, "repo_open": 1, "repo_roll": 1}),
        4: (1, {"repo_close": 2})}, id="slr_bound"),
])
def test_repo_pass_is_written_by_one_post(book, expected, bench_scaled, monkeypatch):
    """Each call of `process_repo_legs` stages the day's rolls, declined
    second legs, re-lends and `leg_failed` rows on one batch and writes it
    with one post, or none when no leg moves a balance."""
    if book == "scaled":
        raw = bench_scaled(holders=20, issuers=3, horizon=15, dealers=8, funded=False, seed=1)
    else:
        raw = PRESETS[book]()
        raw.setdefault("rates", {})["repo_rate_daily"] = -500
    posts, passes = [0], {}   # posts so far; day -> posts of its repo pass
    post, repo_pass = LedgerWorld.post, SettlementEngine.process_repo_legs

    def counted_post(world, legs):
        posts[0] += 1
        return post(world, legs)

    def counted_pass(engine):
        before = posts[0]
        gaps = repo_pass(engine)
        passes[engine.world.day] = posts[0] - before
        return gaps

    monkeypatch.setattr(LedgerWorld, "post", counted_post)
    monkeypatch.setattr(SettlementEngine, "process_repo_legs", counted_pass)
    rows = defaultdict(Counter)   # day -> repo row kind -> count
    for e in run(parse_config(raw)).events:
        kind = f"leg_failed/{e['leg']}" if e["type"] == "leg_failed" else e["type"]
        if kind.startswith(("repo_", "leg_failed/repo_")):
            rows[e["day"]][kind] += 1
    assert {day: (passes[day], rows[day]) for day in expected} == expected


def test_funding_trackers_stay_consistent_across_random_runs(check_indexes,
                                                            check_ledger):
    """Whitebox bookkeeping invariants, checked at every day end."""
    from stablesim.rng import SplitMix64

    rng = SplitMix64(0xBEEF)

    def check(scn, day):
        check_indexes(scn, day)
        check_ledger(scn, day)
        for key, book in scn.settle.issuers.items():
            open_requests = [r for r in book.requests
                             if r.planned and not r.completed]
            assert book.pool >= 0
            assert book.nonroll_pending >= 0
            for r in open_requests:
                assert 0 <= r.paid <= r.amount
                assert r.deposit_left >= 0 and r.pool_left >= 0
                # the funding not yet paid out is what the request has left
                assert r.deposit_left + r.pool_left == r.remaining
            for r in book.requests:
                if r.completed:
                    assert r.deposit_left == r.pool_left == 0
            # the mint buyer is funded, so each mint settles the day it is
            # asked and leaves the queue
            assert book.mints == []
            # no holder has promised more coins than it holds
            for holder_key, amount in promised(book).items():
                held = scn.world.agents[holder_key].asset(f"coin@{key}")
                assert 0 < amount <= held

    for _ in range(120):
        deposits = rng.uniform_int(0, 4_000_00)
        bills = rng.uniform_int(0, 4_000_00)
        repo = max(0, 10_000_00 - deposits - bills)
        raw = scenario_raw(deposits, bills, repo,
                           baseline_rate=rng.uniform_int(50_000, 400_000),
                           horizon=4, mint_rate=rng.uniform_int(0, 80_000))
        raw["agents"]["issuers"][0]["assets"] = deposits + bills + repo
        raw["seed"] = rng.uniform_int(0, 2**40)
        run(parse_config(raw), on_day_end=check)
