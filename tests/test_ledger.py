import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablesim.ledger import (DURATION_NAME, DURATIONS, FED, AgentId, AgentKind, AuditCheck,
                              DurationClass, InsufficientPosition, LedgerError, LedgerWorld,
                              TransferBatch, UnknownAgent, coin_key, deposit_key, event_form,
                              repo_key, reserves_key, srf_key, tbill_key)
from stablesim.instruments import (InstrumentError, RepoRegistry, close_repo, deliver_tbills,
                                   open_reverse_repo)
from stablesim.money import MICRO, mul_div, mul_frac

BANK_A = AgentId(AgentKind.BANK, 0)
BANK_B = AgentId(AgentKind.BANK, 1)
ISSUER = AgentId(AgentKind.ISSUER, 0)
HOLDER = AgentId(AgentKind.HOLDER, 0)


def two_bank_world():
    world = LedgerWorld()
    world.add_agent(FED)
    world.add_agent(BANK_A)
    world.add_agent(BANK_B)
    world.add_agent(ISSUER, bank=BANK_B)
    world.add_agent(HOLDER, bank=BANK_A)
    world.create_deposits(HOLDER, 5_000_00)
    world.create_deposits(ISSUER, 1_000_00)
    return world


def deposit_total(world):
    return sum(v for key in sorted(world.agents)
               for k, v in world.agents[key].liabilities.items()
               if k.startswith("deposit@"))


def world_state(world):
    """Everything a transfer could write: sheets and the order of their
    keys, faces, prices, clock, events, versions and the change log."""
    return (world.snapshot().to_json(), list(world.events.lines()),
            {key: (book.version, list(book.assets), list(book.liabilities))
             for key, book in world.agents.items()},
            world.changes, world.coin_holders)


def test_zero_transfer_leaves_world_unchanged():
    world = two_bank_world()
    before = world.snapshot().to_json()
    world.transfer_deposit(HOLDER, ISSUER, 0)
    world.transfer_coin(ISSUER, HOLDER, ISSUER, 0)
    assert world.snapshot().to_json() == before


@pytest.mark.parametrize("transfer", [
    pytest.param(lambda w: w.transfer_deposit(HOLDER, HOLDER, 100_00), id="deposit"),
    pytest.param(lambda w: w.transfer_coin(HOLDER, HOLDER, ISSUER, 100_00), id="coin"),
    pytest.param(lambda w: w.transfer_coin(ISSUER, ISSUER, ISSUER, 100_00), id="coin_issuer"),
])
def test_self_transfer_leaves_world_byte_identical(transfer):
    world = two_bank_world()
    world.transfer_coin(ISSUER, HOLDER, ISSUER, 500_00)
    world.audit_changes()
    before = copy.deepcopy(world_state(world))
    transfer(world)
    assert world_state(world) == before


@pytest.mark.parametrize("transfer", [
    pytest.param(lambda w: w.transfer_deposit(HOLDER, ISSUER, -1), id="deposit"),
    pytest.param(lambda w: w.transfer_coin(HOLDER, ISSUER, ISSUER, -1), id="coin_burn"),
    pytest.param(lambda w: w.transfer_coin(ISSUER, HOLDER, ISSUER, -1), id="coin_mint"),
    pytest.param(lambda w: w.transfer_deposit(HOLDER, HOLDER, -1), id="deposit_self"),
])
def test_negative_transfer_raises_and_writes_nothing(transfer):
    world = two_bank_world()
    world.audit_changes()
    before = copy.deepcopy(world_state(world))
    with pytest.raises(LedgerError, match="transfer amount must be non-negative"):
        transfer(world)
    assert world_state(world) == before


def test_deposits_read_the_balance_at_the_agents_bank():
    world = two_bank_world()
    assert world.deposits(HOLDER) == 5_000_00 and world.deposits(ISSUER) == 1_000_00
    for agent in (FED, BANK_A):
        with pytest.raises(LedgerError, match="has no deposit bank"):
            world.deposits(agent)
    with pytest.raises(UnknownAgent):
        world.deposits(AgentId(AgentKind.HOLDER, 9))


def test_instrument_keys_are_kind_at_counterparty():
    assert deposit_key(BANK_A) == "deposit@bank:0"
    assert reserves_key() == "reserves@fed:0" and reserves_key(BANK_B) == "reserves@bank:1"
    assert repo_key(ISSUER) == "repo@issuer:0"
    assert srf_key(FED) == "srf@fed:0"
    assert coin_key(ISSUER) == "coin@issuer:0"


def test_interbank_deposit_payment_replays_cross_bank_flow():
    # holder at bank A pays issuer at bank B: reserves follow the deposit
    world = two_bank_world()
    deposits_before = deposit_total(world)
    world.transfer_deposit(HOLDER, ISSUER, 1_000_00)
    assert world.sheet(HOLDER).asset(deposit_key(BANK_A)) == 4_000_00
    assert world.sheet(ISSUER).asset(deposit_key(BANK_B)) == 2_000_00
    assert world.sheet(BANK_A).asset(reserves_key()) == 4_000_00
    assert world.sheet(BANK_B).asset(reserves_key()) == 2_000_00
    assert deposit_total(world) == deposits_before
    assert world.audit().ok


def test_insufficient_deposit_is_atomic():
    world = two_bank_world()
    before = world.snapshot().to_json()
    with pytest.raises(InsufficientPosition):
        world.transfer_deposit(ISSUER, HOLDER, 99_999_00)
    assert world.snapshot().to_json() == before


def test_credit_rails_book_a_government_claim_only_for_outside_money():
    """An endowment and Treasury interest grow the central bank's `govt`
    asset by their amount; a bill purchase's credit and a bank-equity
    credit or debit do not. Each keeps the world audited, and a debit
    past the depositor's deposits raises at the depositor, writing nothing."""
    world = two_bank_world()
    world.grant_tbill(ISSUER, DurationClass.BILL, 500_00)
    fed, bank_a = world.sheet(FED), world.sheet(BANK_A)

    def step(call, agent, amount, govt_growth, reserve_growth):
        bank = world.sheet(world.banks[agent.key])
        before = (fed.asset("govt"), world.deposits(agent), bank.asset(reserves_key()))
        call()
        assert (fed.asset("govt"), world.deposits(agent), bank.asset(reserves_key())) == (
            before[0] + govt_growth, before[1] + amount, before[2] + reserve_growth)
        assert world.audit().ok

    # an endowment, then Treasury interest
    step(lambda: world.create_deposits(HOLDER, 300_00), HOLDER, 300_00, 300_00, 300_00)
    step(lambda: world.create_deposits(ISSUER, 7_00), ISSUER, 7_00, 7_00, 7_00)
    moved = world.transfer_tbill(ISSUER, FED, DurationClass.BILL, face=200_00)
    step(lambda: world.create_deposits(ISSUER, moved, govt=False), ISSUER, moved, 0, moved)
    equity_a = bank_a.equity
    step(lambda: world.credit_from_bank(HOLDER, 12_00), HOLDER, 12_00, 0, 0)
    step(lambda: world.credit_from_bank(HOLDER, -5_00), HOLDER, -5_00, 0, 0)
    assert bank_a.equity == equity_a - 7_00
    before, have = world.snapshot().to_json(), world.deposits(ISSUER)
    with pytest.raises(InsufficientPosition) as raised:
        world.credit_from_bank(ISSUER, -(have + 1))
    assert (raised.value.agent, raised.value.key, raised.value.have) == (
        ISSUER.key, deposit_key(BANK_B), have)
    assert world.snapshot().to_json() == before


# each debit leg of a cross-bank payment from HOLDER (bank A) to ISSUER
# (bank B), in the order `TransferBatch.pay` checks them
PAY_DEBITS = [(HOLDER.key, "A", deposit_key(BANK_A)), (BANK_A.key, "L", deposit_key(HOLDER)),
              (BANK_A.key, "A", reserves_key()), (FED.key, "L", reserves_key(BANK_A))]


@pytest.mark.parametrize("short", PAY_DEBITS, ids=["deposit", "deposit_liability",
                                                   "reserves", "reserve_liability"])
def test_pay_raises_at_the_first_short_debit_and_stages_nothing(short):
    """A payment is checked against the running positions, debit by
    debit; the first short one is named, and the failed payment leaves
    the batch's legs and events and the world as they were."""
    world = two_bank_world()
    world.post({short: -4_000_00})   # that leg alone now holds 1,000.00
    batch = TransferBatch(world)
    batch.pay(HOLDER, ISSUER, 500_00)
    staged, events = dict(batch.staged), list(batch.events)
    before = copy.deepcopy(world_state(world))
    with pytest.raises(InsufficientPosition) as raised:
        batch.pay(HOLDER, ISSUER, 3_000_00)
    error = raised.value
    assert (error.agent, error.key, error.have, error.need) == (
        short[0], short[2], 500_00, 3_000_00)
    assert batch.staged == staged and list(batch.staged) == list(staged)
    assert batch.events == events
    assert world_state(world) == before


def test_pay_stages_its_legs_in_order():
    world = two_bank_world()
    world.add_agent(HOLDER_B, bank=BANK_B)
    batch = TransferBatch(world)
    batch.pay(ISSUER, HOLDER_B, 100_00)   # both at bank B
    assert list(batch.staged.items()) == [
        ((ISSUER.key, "A", deposit_key(BANK_B)), -100_00),
        ((BANK_B.key, "L", deposit_key(ISSUER)), -100_00),
        ((BANK_B.key, "L", deposit_key(HOLDER_B)), 100_00),
        ((HOLDER_B.key, "A", deposit_key(BANK_B)), 100_00)]
    batch = TransferBatch(world)
    batch.pay(HOLDER, ISSUER, 200_00)   # bank A to bank B
    assert list(batch.staged.items()) == [
        ((HOLDER.key, "A", deposit_key(BANK_A)), -200_00),
        ((BANK_A.key, "L", deposit_key(HOLDER)), -200_00),
        ((BANK_B.key, "L", deposit_key(ISSUER)), 200_00),
        ((ISSUER.key, "A", deposit_key(BANK_B)), 200_00),
        ((BANK_A.key, "A", reserves_key()), -200_00),
        ((FED.key, "L", reserves_key(BANK_A)), -200_00),
        ((FED.key, "L", reserves_key(BANK_B)), 200_00),
        ((BANK_B.key, "A", reserves_key()), 200_00)]


GHOST = AgentId(AgentKind.HOLDER, 9)
ISSUER_BILLS = (ISSUER.key, "A", tbill_key(DurationClass.BILL))
HOLDER_BILLS = (HOLDER.key, "A", tbill_key(DurationClass.BILL))
MARKED = 990_000   # the bill price the sheets are marked at


def _bill_transfer(frm, to, value, face):
    return ("transfer", (tbill_key(DurationClass.BILL), frm.key, to.key, value, face))


def _deliver(frm, to, face):
    return lambda batch: batch.deliver(frm, to, DurationClass.BILL, face)


# each row: the bill price, the deliveries, then what they return (or raise),
# the staged legs, faces and events in insertion order. The issuer holds
# 10,000.00 of bill face and the holder 3,000.00, marked at 0.99; at 1.01, not
# yet marked, the holder's whole face is worth more than its sheet holds.
@pytest.mark.parametrize("price, deliveries, returned, staged, faces, events", [
    pytest.param(MARKED, [_deliver(ISSUER, HOLDER, 1_000_00)], [990_00],
                 [(ISSUER_BILLS, -990_00), (HOLDER_BILLS, 990_00)],
                 [((ISSUER.key, DurationClass.BILL), 9_000_00),
                  ((HOLDER.key, DurationClass.BILL), 4_000_00)],
                 [_bill_transfer(ISSUER, HOLDER, 990_00, 1_000_00)], id="plain"),
    pytest.param(1_010_000, [_deliver(HOLDER, ISSUER, 5_000_00)], [2_970_00],
                 [(HOLDER_BILLS, -2_970_00), (ISSUER_BILLS, 2_970_00)],
                 [((HOLDER.key, DurationClass.BILL), 0),
                  ((ISSUER.key, DurationClass.BILL), 13_000_00)],
                 [_bill_transfer(HOLDER, ISSUER, 2_970_00, 3_000_00)], id="above_holdings"),
    pytest.param(MARKED, [_deliver(ISSUER, HOLDER, 0), _deliver(ISSUER, HOLDER, -5)], [0, 0],
                 [], [], [], id="no_face"),
    pytest.param(MARKED, [_deliver(GHOST, HOLDER, 100_00)], UnknownAgent, [], [], [],
                 id="unknown_frm"),
    pytest.param(MARKED, [_deliver(ISSUER, GHOST, 100_00)], UnknownAgent, [], [], [],
                 id="unknown_to"),
    pytest.param(MARKED, [_deliver(ISSUER, ISSUER, 1_000_00)], [990_00],
                 [(ISSUER_BILLS, 0)], [((ISSUER.key, DurationClass.BILL), 10_000_00)],
                 [_bill_transfer(ISSUER, ISSUER, 990_00, 1_000_00)], id="self"),
    pytest.param(MARKED, [_deliver(ISSUER, HOLDER, 6_000_00), _deliver(HOLDER, ISSUER, 12_000_00)],
                 [5_940_00, 8_910_00],
                 [(ISSUER_BILLS, 2_970_00), (HOLDER_BILLS, -2_970_00)],
                 [((ISSUER.key, DurationClass.BILL), 13_000_00),
                  ((HOLDER.key, DurationClass.BILL), 0)],
                 [_bill_transfer(ISSUER, HOLDER, 5_940_00, 6_000_00),
                  _bill_transfer(HOLDER, ISSUER, 8_910_00, 9_000_00)], id="running_faces"),
])
def test_deliver_stages_its_legs_and_faces_in_order(price, deliveries, returned, staged, faces,
                                                    events):
    """A delivery caps its face at the running face and its value at the
    running position, and stages the seller's leg, then the buyer's, then
    their faces and one `transfer` event; one that moves no face, or
    names an agent the world does not have, stages nothing. Nothing is
    written before `commit`."""
    world = two_bank_world()
    world.grant_tbill(ISSUER, DurationClass.BILL, 10_000_00)
    world.grant_tbill(HOLDER, DurationClass.BILL, 3_000_00)
    world.remark_tbills(DurationClass.BILL, MARKED)
    before = copy.deepcopy(world_state(world))
    world.tbill_prices[DurationClass.BILL] = price
    batch = TransferBatch(world)
    if returned is UnknownAgent:
        with pytest.raises(UnknownAgent, match=r"unknown agent holder:9"):
            deliveries[0](batch)
    else:
        assert [deliver(batch) for deliver in deliveries] == returned
    assert list(batch.staged.items()) == staged
    assert list(batch.faces.items()) == faces
    assert [(form.type, values) for form, values in batch.events] == events
    world.tbill_prices[DurationClass.BILL] = MARKED
    assert world_state(world) == before


ISSUER_LENDS = (ISSUER.key, "A", repo_key(HOLDER))
HOLDER_OWES = (HOLDER.key, "L", repo_key(ISSUER))


def test_repo_rail_takes_back_no_more_than_the_running_claim():
    """The repo rail stages the lender's claim and the borrower's
    obligation on top of the running ones; a take-back past the running
    claim raises naming it and stages nothing, and taking back the whole
    running claim, an open on the same batch included, leaves no claim
    once committed."""
    world = two_bank_world()
    world.post({ISSUER_LENDS: 100_00, HOLDER_OWES: 100_00})
    batch = TransferBatch(world)
    batch.repo(ISSUER, HOLDER, -40_00)
    batch.repo(ISSUER, HOLDER, 300_00)
    assert list(batch.staged.items()) == [(ISSUER_LENDS, 260_00), (HOLDER_OWES, 260_00)]
    before = copy.deepcopy(world_state(world))
    with pytest.raises(InsufficientPosition) as raised:
        batch.repo(ISSUER, HOLDER, -360_01)
    error = raised.value
    assert (error.agent, error.key, error.have, error.need) == (
        ISSUER.key, repo_key(HOLDER), 360_00, 360_01)
    assert list(batch.staged.items()) == [(ISSUER_LENDS, 260_00), (HOLDER_OWES, 260_00)]
    batch.repo(ISSUER, HOLDER, -360_00)
    assert world_state(world) == before   # nothing is written before the commit
    batch.commit()
    assert ISSUER_LENDS[2] not in world.sheet(ISSUER).assets
    assert HOLDER_OWES[2] not in world.sheet(HOLDER).liabilities
    assert world.audit().ok
    fresh = TransferBatch(world)
    with pytest.raises(InsufficientPosition):
        fresh.repo(ISSUER, HOLDER, -1)
    with pytest.raises(UnknownAgent):
        fresh.repo(ISSUER, GHOST, 1_00)
    assert fresh.staged == {} and fresh.events == []


def test_unknown_agent():
    world = two_bank_world()
    ghost = AgentId(AgentKind.HOLDER, 9)
    for transfer in (lambda: world.transfer_deposit(ghost, ISSUER, 1),
                     lambda: world.transfer_deposit(ISSUER, ghost, 0),
                     lambda: world.transfer_coin(ISSUER, ghost, ISSUER, 1),
                     lambda: world.transfer_coin(ghost, ghost, ISSUER, 0)):
        with pytest.raises(UnknownAgent):
            transfer()


def test_a_burn_beyond_the_holding_logs_no_event():
    """The event of a rail follows its write: a write that raises logs
    nothing and bumps no sheet version."""
    world = two_bank_world()
    world.transfer_coin(ISSUER, HOLDER, ISSUER, 500_00)
    assert world.audit_changes().ok
    before = copy.deepcopy(world_state(world))
    with pytest.raises(InsufficientPosition):
        world.transfer_coin(HOLDER, ISSUER, ISSUER, 500_01)
    assert world_state(world) == before


def test_coin_mint_transfer_burn_cycle():
    world = two_bank_world()
    world.transfer_coin(ISSUER, HOLDER, ISSUER, 500_00)
    assert world.sheet(ISSUER).liability(coin_key(ISSUER)) == 500_00
    assert world.sheet(HOLDER).asset(coin_key(ISSUER)) == 500_00
    world.transfer_coin(HOLDER, ISSUER, ISSUER, 200_00)
    assert world.sheet(ISSUER).liability(coin_key(ISSUER)) == 300_00
    assert world.audit().ok
    assert [(e["type"], e["instrument"], e["src"], e["dst"], e["amount"])
            for e in world.events] == [("mint", "coin@issuer:0", "issuer:0", "holder:0", 500_00),
                                       ("burn", "coin@issuer:0", "holder:0", "issuer:0", 200_00)]


HOLDER_B = AgentId(AgentKind.HOLDER, 1)
NOTES = [(event_form("note", ("n",)), (n,)) for n in range(3)]


def redeeming_world():
    """The two-bank world with a second holder at the issuer's bank, both
    holders coined, and the change log started."""
    world = two_bank_world()
    world.add_agent(HOLDER_B, bank=BANK_B)
    world.transfer_coin(ISSUER, HOLDER, ISSUER, 600_00)
    world.transfer_coin(ISSUER, HOLDER_B, ISSUER, 200_00)
    assert world.audit_changes().ok
    return world


def test_redeem_coins_writes_and_logs_what_the_rails_do():
    world = redeeming_world()
    rails = copy.deepcopy(world)
    payouts = [(HOLDER, 300_00, NOTES[0]), (HOLDER_B, 200_00, NOTES[1]),
               (HOLDER, 100_00, NOTES[2])]
    world.redeem_coins(ISSUER, payouts)
    for holder, amount, note in payouts:
        rails.transfer_coin(holder, ISSUER, ISSUER, amount)
        rails.transfer_deposit(ISSUER, holder, amount)
        rails.emit_all([note])
    assert world.snapshot().to_json() == rails.snapshot().to_json()
    assert list(world.events.lines()) == list(rails.events.lines())
    assert world.coin_holders == rails.coin_holders == {coin_key(ISSUER): [HOLDER.key]}
    # one change-log entry: the net of the rails' six
    net: dict = {}
    for staged in rails.changes:
        for leg, delta in staged.items():
            net[leg] = net.get(leg, 0) + delta
    assert len(rails.changes) == 6 and world.changes == [net]
    # the issuer's legs and the reserve legs to bank A are summed once
    assert net[(BANK_B.key, "A", reserves_key())] == -400_00
    assert net[(ISSUER.key, "L", coin_key(ISSUER))] == -600_00
    assert world.audit_changes().ok


def redeem(*payouts):
    return lambda world: world.redeem_coins(ISSUER, list(payouts))


# legs `post` writes before a short leg, then an unknown agent's: a
# sheet's first key written to zero, the holder leaving the coin's
# holders, a position opened; all of them are taken back, in place, and
# the unknown agent is named
SHORT_BEFORE_UNKNOWN = {
    (HOLDER.key, "A", deposit_key(BANK_A)): -5_000_00,
    (HOLDER_B.key, "A", coin_key(ISSUER)): -200_00,
    (ISSUER.key, "L", coin_key(ISSUER)): -200_00,
    (HOLDER_B.key, "A", deposit_key(BANK_B)): 200_00,
    (BANK_B.key, "L", deposit_key(HOLDER_B)): 200_00,
    (HOLDER.key, "A", coin_key(ISSUER)): -700_00,
    ("holder:9", "A", coin_key(ISSUER)): 1,
}


@pytest.mark.parametrize("write, error", [
    pytest.param(redeem((HOLDER, 400_00, NOTES[0]), (HOLDER, 300_00, NOTES[1])),
                 InsufficientPosition, id="coins_short_in_sum"),
    pytest.param(redeem((HOLDER, 600_00, NOTES[0]), (HOLDER_B, 200_00, NOTES[1]),
                        (HOLDER, 0, NOTES[2])), LedgerError, id="zero_payout"),
    pytest.param(redeem((HOLDER, 100_00, NOTES[0]), (AgentId(AgentKind.HOLDER, 9), 1, NOTES[1])),
                 UnknownAgent, id="unknown_holder"),
    pytest.param(lambda world: world.post(SHORT_BEFORE_UNKNOWN),
                 UnknownAgent, id="post_short_leg_before_unknown_agent"),
])
def test_failing_redeem_coins_writes_and_logs_nothing(write, error):
    """A payout batch, or any post, that raises leaves the world as it was."""
    world = redeeming_world()
    before = copy.deepcopy(world_state(world))
    with pytest.raises(error):
        write(world)
    assert world_state(world) == before


HOLDER_C = AgentId(AgentKind.HOLDER, 2)
PAYEES = (HOLDER, HOLDER_B, HOLDER_C)   # at banks A, B and A
# amounts in steps of 50.00, so balances reach zero exactly; a payout of 0
# is refused
STEPS = st.integers(0, 6).map(lambda n: n * 50_00)
WRITES = st.one_of(
    st.tuples(st.just("redeem"), st.lists(st.tuples(st.integers(0, 2), STEPS),
                                          min_size=1, max_size=3)),
    st.tuples(st.sampled_from(["coin", "deposit"]), st.integers(0, 3), st.integers(0, 3),
              STEPS))


def coin_index(world):
    """`coin_holders` rebuilt from the sheets: each coin key held on any
    sheet, or indexed, to the sorted keys of the agents holding it."""
    keys = set(world.coin_holders) | {key for book in world.agents.values()
                                      for key in book.assets if key.startswith("coin@")}
    return {key: sorted(agent for agent, book in world.agents.items() if book.asset(key) > 0)
            for key in keys}


def test_payout_batches_and_transfers_keep_the_indexes_and_audits_exact():
    """Three holders, at both banks: payout batches with repeated payees,
    some beyond the coins or deposits held or not positive, among coin and
    deposit transfers (mints and burns included). After each write, or
    refused write, the change audit reports what the full audit reports,
    `coin_holders` is the index rebuilt from the sheets, and a refused
    write left the world as it was. The draws pay batches with a repeated
    payee, refuse batches, and take holders out of the index and back."""
    seen = dict.fromkeys(("repeat_paid", "refused_batch", "left", "joined"), 0)

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(st.lists(WRITES, max_size=12))
    def writes_in_turn(writes):
        world = redeeming_world()
        world.add_agent(HOLDER_C, bank=BANK_A)
        world.transfer_coin(ISSUER, HOLDER_C, ISSUER, 300_00)
        world.transfer_deposit(HOLDER, ISSUER, 1_000_00)
        agents = PAYEES + (ISSUER,)
        for kind, *args in writes:
            before = copy.deepcopy(world_state(world))
            holding = sum(map(len, world.coin_holders.values()))
            try:
                if kind == "redeem":
                    world.redeem_coins(ISSUER, [(PAYEES[i], amount, NOTES[n % 3])
                                                for n, (i, amount) in enumerate(args[0])])
                    payees = [i for i, _ in args[0]]
                    seen["repeat_paid"] += len(set(payees)) < len(payees)
                elif kind == "coin":
                    world.transfer_coin(agents[args[0]], agents[args[1]], ISSUER, args[2])
                else:
                    world.transfer_deposit(agents[args[0]], agents[args[1]], args[2])
            except LedgerError:
                seen["refused_batch"] += kind == "redeem"
                assert world_state(world) == before
            assert world.audit_changes() == world.audit()
            index = coin_index(world)
            assert {key: world.coin_holders.get(key, []) for key in index} == index
            now = sum(map(len, index.values()))
            seen["left"] += now < holding
            seen["joined"] += now > holding

    writes_in_turn()
    assert all(seen.values()), seen


ISSUER_B = AgentId(AgentKind.ISSUER, 1)


def test_one_post_opens_and_closes_holdings_of_two_coins():
    """A post that opens one holder's holding of one coin and closes another
    holder's holding of a second updates `coin_holders` to the index rebuilt
    from the sheets; refused at a later leg, it leaves the world, index
    included, as it was."""
    world = redeeming_world()   # HOLDER holds 600.00 and HOLDER_B 200.00 of ISSUER's coin
    world.add_agent(ISSUER_B, bank=BANK_A)
    coin, coin_b = coin_key(ISSUER), coin_key(ISSUER_B)
    legs = {(ISSUER_B.key, "L", coin_b): 70_00, (HOLDER.key, "A", coin_b): 70_00,
            (HOLDER_B.key, "A", coin): -200_00, (ISSUER.key, "L", coin): -200_00}
    before = copy.deepcopy(world_state(world))
    with pytest.raises(InsufficientPosition):
        world.post({**legs, (HOLDER.key, "A", coin): -600_01})
    assert world_state(world) == before
    assert world.coin_holders == coin_index(world) == {coin: [HOLDER.key, HOLDER_B.key]}
    world.post(legs)
    assert world.coin_holders == coin_index(world) == {coin: [HOLDER.key],
                                                       coin_b: [HOLDER.key]}
    assert world.audit_changes().ok


def test_fresh_world_audit_passes():
    report = two_bank_world().audit()
    assert report.ok
    assert [c.name for c in report.checks] == [
        "double_entry", "reserve_conservation", "deposit_matching",
        "claim_matching"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 400_00), st.booleans()), max_size=30))
def test_random_transfer_sequences_keep_audit_green(moves):
    world = two_bank_world()
    world.transfer_coin(ISSUER, HOLDER, ISSUER, 2_000_00)
    agents = [HOLDER, ISSUER, BANK_A, BANK_B]
    for a, b, amount, coin in moves:
        frm, to = agents[a], agents[b]
        try:
            if frm.kind is AgentKind.BANK or to.kind is AgentKind.BANK:
                continue
            if coin:
                world.transfer_coin(frm, to, ISSUER, amount)
            else:
                world.transfer_deposit(frm, to, amount)
        except InsufficientPosition:
            pass
        assert world.audit().ok


def test_corrupted_deposit_fails_matching_and_names_agent():
    world = two_bank_world()
    world.sheet(BANK_A).liabilities[f"deposit@{HOLDER.key}"] -= 1_00
    report = world.audit()
    failed = {c.name: c for c in report.checks if not c.passed}
    assert "deposit_matching" in failed
    assert failed["deposit_matching"].agent in (HOLDER.key, BANK_A.key)


def test_corrupted_position_fails_double_entry():
    world = two_bank_world()
    world.sheet(HOLDER).assets[deposit_key(BANK_A)] += 7
    report = world.audit()
    assert not report.ok
    assert any(c.name == "double_entry" and c.agent == HOLDER.key
               for c in report.failures())


def test_snapshot_is_immutable_and_byte_stable():
    world = two_bank_world()
    snap1 = world.snapshot()
    snap2 = world.snapshot()
    assert snap1.to_json() == snap2.to_json()
    equity_before = snap1.agent(HOLDER.key)["equity"]
    world.transfer_deposit(HOLDER, ISSUER, 100_00)
    assert snap1.agent(HOLDER.key)["equity"] == equity_before
    assert snap1.to_json() != world.snapshot().to_json()


def test_tbill_grant_transfer_and_mark():
    world = two_bank_world()
    world.grant_tbill(ISSUER, DurationClass.BILL, 10_000_00)
    assert world.tbill_value(ISSUER) == 10_000_00
    world.remark_tbills(DurationClass.BILL, 990_000)
    assert world.tbill_value(ISSUER) == 9_900_00
    assert world.audit().ok
    moved = world.transfer_tbill(ISSUER, HOLDER, DurationClass.BILL, face=4_000_00)
    assert moved == 3_960_00
    assert world.face_of(HOLDER, DurationClass.BILL) == 4_000_00
    assert world.audit().ok


# -- audit failures: each branch names its check, first agent and detail ------

BANK_A_DEPOSITS = f"deposit@{BANK_A.key}"


def faulty_world(*legs):
    """The two-bank world with stray legs posted (equity follows them, so
    double entry still holds)."""
    world = two_bank_world()
    world.post({(agent.key, side, key): delta for agent, side, key, delta in legs})
    return world


@pytest.mark.parametrize("legs, expected", [
    pytest.param(
        [(FED, "L", f"reserves@{BANK_A.key}", -1_00)],
        ("reserve_conservation", "fed:0",
         "reserve assets 600000 != central bank liability 599900"),
        id="reserve_conservation"),
    pytest.param(
        [(HOLDER, "A", "deposit@issuer:0", 3_00)],
        ("deposit_matching", "holder:0", "deposit asset at non-bank issuer:0"),
        id="deposit_at_non_bank"),
    pytest.param(
        [(HOLDER, "A", "deposit@bank:7", 3_00)],
        ("deposit_matching", "holder:0", "deposit asset at non-bank bank:7"),
        id="deposit_at_unknown_agent"),
    pytest.param(
        [(HOLDER, "A", BANK_A_DEPOSITS, 7)],
        ("deposit_matching", "holder:0", "deposit 500007 at bank:0 has liability 500000"),
        id="deposit_amount_mismatch"),
    pytest.param(
        [(BANK_A, "L", "deposit@issuer:0", 5_00)],
        ("deposit_matching", "bank:0", "orphan deposit liability to issuer:0"),
        id="orphan_deposit_liability"),
    pytest.param(
        [(BANK_B, "L", "deposit@holder:9", 5_00)],
        ("deposit_matching", "bank:1", "orphan deposit liability to holder:9"),
        id="orphan_deposit_liability_unknown_agent"),
    pytest.param(
        [(BANK_A, "A", deposit_key(BANK_B), 5)],
        ("deposit_matching", "bank:0", "deposit 5 at bank:1 has liability 0"),
        id="bank_deposit_at_bank_without_liability"),
    pytest.param(
        [(HOLDER, "L", deposit_key(BANK_A), 5)],
        ("deposit_matching", "holder:0", "deposit liability to bank:0 on non-bank"),
        id="deposit_liability_on_non_bank"),
    pytest.param(
        [(BANK_A, "A", reserves_key(BANK_B), 5)],
        ("reserve_conservation", "bank:0", "reserves asset reserves@bank:1 off the central bank"),
        id="reserves_asset_at_a_bank"),
    pytest.param(
        [(HOLDER, "L", reserves_key(BANK_A), 5)],
        ("reserve_conservation", "holder:0",
         "reserves liability reserves@bank:0 off the central bank"),
        id="reserves_liability_off_the_central_bank"),
    pytest.param(
        [(ISSUER, "A", "repo@bank:0", 2_00)],
        ("claim_matching", "issuer:0", "unmatched repo@bank:0 claim of 200"),
        id="unmatched_repo_claim"),
    pytest.param(
        [(BANK_B, "A", "srf@holder:3", 2_00)],
        ("claim_matching", "bank:1", "unmatched srf@holder:3 claim of 200"),
        id="unmatched_srf_claim"),
    pytest.param(
        [(BANK_A, "L", "srf@fed:0", 4_00)],
        ("claim_matching", "bank:0", "unmatched srf@fed:0 obligation of 400"),
        id="unmatched_srf_obligation"),
    pytest.param(
        [(HOLDER, "L", "repo@issuer:0", 4_00)],
        ("claim_matching", "holder:0", "unmatched repo@issuer:0 obligation of 400"),
        id="unmatched_repo_obligation"),
    pytest.param(
        [(HOLDER, "A", coin_key(ISSUER), 9)],
        ("claim_matching", "issuer:0", "coins held 9 != coins outstanding 0"),
        id="coins_held_not_outstanding"),
])
def test_audit_failure_names_check_agent_and_detail(legs, expected):
    name, agent, detail = expected
    assert faulty_world(*legs).audit().failures() == [
        AuditCheck(name, False, agent, detail)]


def test_deposit_matching_reports_non_banks_first_then_sorted_keys():
    world = faulty_world(
        (BANK_A, "L", "deposit@issuer:0", 5_00),
        (ISSUER, "A", "deposit@issuer:0", 1_00),
        (HOLDER, "A", "deposit@issuer:0", 3_00),
        (HOLDER, "A", "deposit@bank:7", 3_00),
    )
    assert world.audit().failures() == [AuditCheck(
        "deposit_matching", False, "holder:0", "deposit asset at non-bank bank:7")]


def test_claim_matching_reports_first_sheet_assets_in_stored_order():
    world = faulty_world(
        (ISSUER, "A", "srf@fed:0", 2_00),
        (HOLDER, "L", "repo@issuer:0", 4_00),
        (HOLDER, "A", "repo@bank:1", 1_00),
        (HOLDER, "A", "repo@bank:0", 1_00),
        (HOLDER, "A", coin_key(ISSUER), 9),
    )
    assert world.audit().failures() == [AuditCheck(
        "claim_matching", False, "holder:0", "unmatched repo@bank:1 claim of 100")]
    # coin totals are compared by coin key once every claim pairs off
    world.post({(ISSUER.key, "A", "srf@fed:0"): -2_00,
                (HOLDER.key, "L", "repo@issuer:0"): -4_00,
                (HOLDER.key, "A", "repo@bank:1"): -1_00,
                (HOLDER.key, "A", "repo@bank:0"): -1_00,
                (HOLDER.key, "A", coin_key(HOLDER)): 9})
    assert world.audit().failures() == [AuditCheck(
        "claim_matching", False, "holder:0", "coins held 9 != coins outstanding 0")]


def test_audit_reports_every_failing_check_in_order():
    world = faulty_world((FED, "L", f"reserves@{BANK_A.key}", -1_00),
                         (HOLDER, "A", BANK_A_DEPOSITS, 7),
                         (HOLDER, "A", coin_key(ISSUER), 9))
    world.sheet(ISSUER).equity += 1
    report = world.audit()
    assert [c.name for c in report.checks] == [
        "double_entry", "reserve_conservation", "deposit_matching",
        "claim_matching"]
    assert report.failures() == [
        AuditCheck("double_entry", False, "issuer:0",
                   "equity 100001 != assets-liabilities 100000"),
        AuditCheck("reserve_conservation", False, "fed:0",
                   "reserve assets 600000 != central bank liability 599900"),
        AuditCheck("deposit_matching", False, "holder:0",
                   "deposit 500007 at bank:0 has liability 500000"),
        AuditCheck("claim_matching", False, "issuer:0",
                   "coins held 9 != coins outstanding 0"),
    ]


# -- change log and the check of what changed ---------------------------------

def test_post_bumps_versions_and_logs_the_batch():
    world = two_bank_world()
    world.audit_changes()
    before = {key: book.version for key, book in world.agents.items()}
    world.transfer_deposit(HOLDER, ISSUER, 100_00)
    assert {key for key, book in world.agents.items()
            if book.version != before[key]} == {FED.key, BANK_A.key, BANK_B.key,
                                                 ISSUER.key, HOLDER.key}
    assert world.changes == [{
        (HOLDER.key, "A", BANK_A_DEPOSITS): -100_00,
        (BANK_A.key, "L", f"deposit@{HOLDER.key}"): -100_00,
        (BANK_B.key, "L", f"deposit@{ISSUER.key}"): 100_00,
        (ISSUER.key, "A", deposit_key(BANK_B)): 100_00,
        (BANK_A.key, "A", reserves_key()): -100_00,
        (FED.key, "L", f"reserves@{BANK_A.key}"): -100_00,
        (FED.key, "L", f"reserves@{BANK_B.key}"): 100_00,
        (BANK_B.key, "A", reserves_key()): 100_00,
    }]
    assert world.audit_changes().ok
    assert world.changes == []


def test_remark_bumps_versions_and_logs_the_new_values():
    world = two_bank_world()
    world.grant_tbill(ISSUER, DurationClass.BILL, 10_000_00)
    world.audit_changes()
    version = world.sheet(ISSUER).version
    world.remark_tbills(DurationClass.BILL, 990_000)
    assert world.sheet(ISSUER).version > version
    assert world.changes == [{(ISSUER.key, "A", "tbill/bill"): -100_00}]
    assert world.audit_changes().ok


def test_remark_writes_only_through_post(monkeypatch):
    world = two_bank_world()
    world.grant_tbill(ISSUER, DurationClass.BILL, 10_000_00)
    world.grant_tbill(HOLDER, DurationClass.BILL, 3_000_00)
    world.grant_tbill(HOLDER, DurationClass.LONG, 1_000_00)
    world.audit_changes()
    manual = copy.deepcopy(world)
    posted = []
    post = world.post
    monkeypatch.setattr(world, "post", lambda legs: (
        posted.append(list(legs.items())), post(legs)))
    world.remark_tbills(DurationClass.BILL, 990_000)
    # one leg per agent holding the class, in key order; no event
    legs = {(HOLDER.key, "A", "tbill/bill"): -30_00,
            (ISSUER.key, "A", "tbill/bill"): -100_00}
    assert posted == [list(legs.items())]
    manual.tbill_prices[DurationClass.BILL] = 990_000
    manual.post(legs)
    assert world_state(world) == world_state(manual)
    assert world.changes == [{(HOLDER.key, "A", "tbill/bill"): -30_00,
                              (ISSUER.key, "A", "tbill/bill"): -100_00}]
    # a re-mark that moves no value posts nothing
    world.remark_tbills(DurationClass.BILL, 990_000)
    assert len(posted) == 1 and len(world.changes) == 1
    assert world.audit_changes().ok


def test_clean_writes_never_fall_back_to_the_full_audit(monkeypatch):
    world = two_bank_world()
    assert world.audit_changes().ok
    monkeypatch.setattr(world, "audit", lambda: pytest.fail("full audit ran"))
    world.transfer_coin(ISSUER, HOLDER, ISSUER, 2_000_00)
    world.transfer_deposit(HOLDER, ISSUER, 5_000_00)
    world.transfer_coin(HOLDER, ISSUER, ISSUER, 2_000_00)
    world.grant_tbill(ISSUER, DurationClass.BILL, 10_000_00)
    world.remark_tbills(DurationClass.BILL, 990_000)
    assert world.audit_changes().ok


# each row: a matched pair the world holds first, then the faulty legs
@pytest.mark.parametrize("held, legs", [
    pytest.param([], [(HOLDER, "A", BANK_A_DEPOSITS, 7)], id="lone_deposit_leg"),
    pytest.param([], [(HOLDER, "A", BANK_A_DEPOSITS, -5_000_00)],
                 id="deposit_popped_mirror_survives"),
    pytest.param([], [(BANK_A, "L", f"deposit@{HOLDER.key}", -5_000_00)],
                 id="deposit_liability_popped_mirror_survives"),
    pytest.param([], [(HOLDER, "A", "deposit@issuer:0", 3_00)], id="deposit_at_non_bank"),
    pytest.param([], [(BANK_B, "L", "deposit@holder:9", 5_00)], id="orphan_deposit_liability"),
    pytest.param([], [(FED, "L", f"reserves@{BANK_A.key}", -1_00)], id="reserves"),
    pytest.param([], [(HOLDER, "A", coin_key(ISSUER), 9)], id="coins"),
    pytest.param([], [(ISSUER, "A", "repo@bank:0", 2_00)], id="repo_claim"),
    pytest.param([], [(BANK_A, "L", "srf@fed:0", 4_00)], id="srf_obligation"),
    pytest.param([], [(ISSUER, "A", "srf@fed:0", 2_00), (FED, "L", "srf@issuer:0", 1_00)],
                 id="srf_claim_and_short_mirror"),
    pytest.param([(ISSUER, "A", repo_key(BANK_A), 2_00), (BANK_A, "L", repo_key(ISSUER), 2_00)],
                 [(ISSUER, "A", repo_key(BANK_A), -2_00)], id="repo_popped_mirror_survives"),
    pytest.param([(BANK_A, "L", srf_key(FED), 4_00), (FED, "A", srf_key(BANK_A), 4_00)],
                 [(BANK_A, "L", srf_key(FED), -4_00)], id="srf_popped_mirror_survives"),
    pytest.param([(BANK_A, "A", deposit_key(BANK_B), 3_00),
                  (BANK_B, "L", deposit_key(BANK_A), 3_00)],
                 [(BANK_A, "A", deposit_key(BANK_B), -3_00)],
                 id="bank_deposit_popped_mirror_survives"),
    pytest.param([], [(BANK_A, "A", deposit_key(BANK_B), 5)],
                 id="bank_deposit_at_bank_without_liability"),
    pytest.param([], [(HOLDER, "L", deposit_key(BANK_A), 5)],
                 id="deposit_liability_on_non_bank"),
    pytest.param([], [(BANK_A, "A", reserves_key(BANK_B), 5)], id="reserves_asset_at_a_bank"),
    pytest.param([], [(HOLDER, "L", reserves_key(BANK_A), 5)],
                 id="reserves_liability_off_the_central_bank"),
])
def test_audit_changes_reports_exactly_what_audit_reports(held, legs):
    world = two_bank_world()
    if held:
        world.post({(agent.key, side, key): delta for agent, side, key, delta in held})
    assert world.audit().ok and world.audit_changes().ok
    world.post({(agent.key, side, key): delta for agent, side, key, delta in legs})
    report = world.audit_changes()
    assert not report.ok
    assert report == world.audit()
    assert world.changes is None  # the next call walks every sheet again


def test_first_passing_call_starts_the_log():
    world = faulty_world((HOLDER, "A", BANK_A_DEPOSITS, 7))
    assert world.changes is None
    assert world.audit_changes() == world.audit()
    assert not world.audit().ok
    world.post({(HOLDER.key, "A", BANK_A_DEPOSITS): -7})
    assert world.changes is None
    assert world.audit_changes().ok
    world.post({(HOLDER.key, "A", BANK_A_DEPOSITS): 7})
    assert world.changes == [{(HOLDER.key, "A", BANK_A_DEPOSITS): 7}]


# every kind of key: the four matched kinds, coins, Treasuries, the
# central bank's government claim and an unknown kind, at registered and
# unknown counterparties
LEG_AGENTS = [FED, BANK_A, BANK_B, ISSUER, HOLDER]
LEG_KEYS = ([f"{kind}@{cpty}" for kind in ("deposit", "repo", "srf", "widget")
             for cpty in ("fed:0", "bank:0", "bank:1", "issuer:0", "holder:0", "bank:7")]
            + [reserves_key(), reserves_key(BANK_A), reserves_key(BANK_B), "reserves@holder:9",
               coin_key(ISSUER), coin_key(HOLDER), "tbill/bill", "govt"])
WHOLE = None   # a delta that takes the whole position off


def mirror_leg(world, agent_key, side, key):
    """The position that matches `(agent_key, side, key)`, if any."""
    kind, _, cpty = key.partition("@")
    other = "L" if side == "A" else "A"
    if kind in ("deposit", "repo", "srf"):
        leg = (cpty, other, f"{kind}@{agent_key}")
    elif key == reserves_key() and side == "A":
        leg = (FED.key, "L", f"reserves@{agent_key}")
    elif kind == "reserves" and agent_key == FED.key and side == "L":
        leg = (cpty, "A", reserves_key())
    elif kind == "coin" and cpty != agent_key:
        leg = (cpty, "L", key)
    else:
        return None
    return leg if leg[0] in world.agents else None


LEG = st.tuples(st.sampled_from(LEG_AGENTS), st.sampled_from("AL"), st.sampled_from(LEG_KEYS),
                st.one_of(st.integers(-3_00, 3_00), st.just(WHOLE)), st.booleans())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.lists(st.lists(LEG, min_size=1, max_size=4), min_size=1, max_size=3),
                max_size=6))
def test_audit_changes_agrees_with_the_full_audit(rounds):
    """Random batches, each leg alone or with its mirror, checked every 1-3
    batches: the change audit passes exactly when the full audit does and
    reports what it reports when it fails."""
    world = two_bank_world()
    assert world.audit_changes().ok
    for batches in rounds:
        for batch in batches:
            staged = {}
            for agent, side, key, delta, mirrored in batch:
                leg = (agent.key, side, key)
                if delta is WHOLE:
                    book = world.agents[agent.key]
                    delta = -(book.assets if side == "A" else book.liabilities).get(key, 0)
                mirror = mirror_leg(world, *leg) if mirrored else None
                for position in (leg, mirror) if mirror else (leg,):
                    staged[position] = staged.get(position, 0) + delta
            try:
                world.post(staged)
            except InsufficientPosition:
                pass
        report = world.audit_changes()
        full = world.audit()
        assert report.ok == full.ok
        if not full.ok:
            assert report == full


DEALER = AgentId(AgentKind.BROKER_DEALER, 0)
STRAY_AGENTS = [FED, BANK_A, BANK_B, ISSUER, HOLDER, DEALER]
# every audited kind at every agent, and at an unknown one
STRAY_KEYS = [f"{kind}@{cpty}" for kind in ("deposit", "reserves", "coin", "repo", "srf")
              for cpty in ("fed:0", "bank:0", "bank:1", "issuer:0", "holder:0", "dealer:0",
                           "bank:7")]


def rail(world, registry, step, amount):
    """One rail call of the stray-leg world: a deposit payment, a mint, a
    redemption, a batch paying for bills, a repo opened or closed, or an
    SRF draw."""
    if step == 0:
        world.transfer_deposit(HOLDER, ISSUER, amount)
    elif step == 1:
        world.transfer_coin(ISSUER, HOLDER, ISSUER, amount)
    elif step == 2:
        world.redeem_coins(ISSUER, [(HOLDER, amount, NOTES[0])])
    elif step == 3:
        batch = TransferBatch(world)
        batch.pay(ISSUER, DEALER, amount)
        batch.deliver(DEALER, ISSUER, DurationClass.BILL, amount)
        batch.commit()
    elif step == 4:
        batch = TransferBatch(world)
        open_reverse_repo(batch, registry, ISSUER, DEALER, amount, haircut=20_000, rate=0)
        batch.commit()
    elif step == 5 and registry.positions:
        pos = registry.open_positions()[0]
        world.day = pos.second_leg_day
        batch = TransferBatch(world)
        close_repo(batch, registry, pos)
        batch.commit()
    elif step == 6:
        world.draw_srf(DEALER, amount)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 400_00)), max_size=6),
       st.sampled_from(STRAY_AGENTS), st.sampled_from("AL"), st.sampled_from(STRAY_KEYS),
       st.sampled_from([5, -5]), st.booleans())
def test_every_stray_leg_fails_both_audits(rails, agent, side, key, delta, balanced):
    """After random rail calls, one stray deposit, reserves, coin, repo or
    SRF leg on any sheet, alone or with a leg on the other side that keeps
    the sheet's net worth, fails the full audit and the change audit with
    the same report."""
    world = two_bank_world()
    world.add_agent(DEALER, bank=BANK_B)
    world.transfer_deposit(HOLDER, DEALER, 1_000_00)
    world.grant_tbill(DEALER, DurationClass.BILL, 10_000_00)
    world.grant_tbill(DEALER, DurationClass.LONG, 10_000_00)
    # an unaudited position on each side of every sheet, for the balancing leg
    world.post({leg: 1_00 for key in world.agents for leg in ((key, "A", "other"),
                                                              (key, "L", "other"))})
    registry = RepoRegistry()
    for step, amount in rails:
        try:
            rail(world, registry, step, amount)
        except (InsufficientPosition, InstrumentError):
            pass
    assert world.audit().ok and world.audit_changes().ok
    legs = {(agent.key, side, key): delta}
    if balanced:
        legs[(agent.key, "L" if side == "A" else "A", "other")] = delta
    try:
        world.post(legs)
    except InsufficientPosition:
        return   # no such position to take 5 off
    report = world.audit_changes()
    assert not report.ok
    assert report == world.audit()


# -- delivery versus payment, against a reference staging ------------------------

def reference_deposits(batch, agent):
    held = batch.world._account(agent)[0]
    return batch.world.agents[agent.key].assets.get(held[2], 0) + batch.staged.get(held, 0)


def reference_check_debits(batch, legs, amount):
    agents, get = batch.world.agents, batch.staged.get
    for leg in legs:
        agent_key, side, key = leg
        book = agents[agent_key]
        have = (book.assets if side == "A" else book.liabilities).get(key, 0) + get(leg, 0)
        if have < amount:
            raise InsufficientPosition(agent_key, key, have, amount)


def reference_pay(batch, frm, to, amount):
    """A deposit payment staged leg by leg from the world's helpers: the
    payer's and payee's accounts, then every debit checked in order, then
    the legs."""
    world = batch.world
    if not world._moves(frm, to, amount):
        return
    held_f, owed_f, bank_f = world._account(frm)
    held_t, owed_t, bank_t = world._account(to)
    debits = (held_f, owed_f)
    if cross := bank_f != bank_t:
        reserves_f, owed_by_fed_f = world.reserve_legs[bank_f]
        debits += (reserves_f, owed_by_fed_f)
    reference_check_debits(batch, debits, amount)
    staged, get = batch.staged, batch.staged.get
    staged[held_f] = get(held_f, 0) - amount
    staged[owed_f] = get(owed_f, 0) - amount
    staged[owed_t] = get(owed_t, 0) + amount
    staged[held_t] = get(held_t, 0) + amount
    if cross:
        reserves_t, owed_by_fed_t = world.reserve_legs[bank_t]
        staged[reserves_f] = get(reserves_f, 0) - amount
        staged[owed_by_fed_f] = get(owed_by_fed_f, 0) - amount
        staged[owed_by_fed_t] = get(owed_by_fed_t, 0) + amount
        staged[reserves_t] = get(reserves_t, 0) + amount
    batch.emit("transfer", instrument="deposit", src=frm.key, dst=to.key, amount=amount)


def reference_deliver(batch, frm, to, duration, face):
    world, staged, faces = batch.world, batch.staged, batch.faces
    key, frm_face = tbill_key(duration), (frm.key, duration)
    have = faces.get(frm_face)
    if have is None:
        have = world.tbill_face.get(frm_face, 0)
    face = min(face, have)
    frm_leg = (frm.key, "A", key)
    held = world.sheet(frm).assets.get(key, 0) + staged.get(frm_leg, 0)
    if face <= 0:
        return 0
    moved = min(mul_frac(face, world.tbill_prices[duration]), held)
    if to.key not in world.agents:
        raise UnknownAgent(f"unknown agent {to}")
    to_leg = (to.key, "A", key)
    staged[frm_leg] = staged.get(frm_leg, 0) - moved
    staged[to_leg] = staged.get(to_leg, 0) + moved
    faces[frm_face] = have - face
    to_face = (to.key, duration)
    got = faces.get(to_face)
    faces[to_face] = (world.tbill_face.get(to_face, 0) if got is None else got) + face
    batch.emit("transfer", instrument=key, src=frm.key, dst=to.key, amount=moved, face=face)
    return moved


def reference_deliver_tbills(batch, seller, buyer, duration, face, price):
    if (held := batch.face_of(seller, duration)) < face:
        batch.world.sheet(seller)   # an unknown seller short of face raises
    face = min(face, held)
    value = mul_frac(face, price)
    paid = min(value, reference_deposits(batch, buyer))
    if paid <= 0:
        return 0
    reference_pay(batch, buyer, seller, paid)
    if paid < value:
        face = mul_div(paid, MICRO, price)
    if face > 0:
        reference_deliver(batch, seller, buyer, duration, face)
    return paid


DVP_BANK_A_HOLDER = AgentId(AgentKind.HOLDER, 2)
# the parties of a delivery: depositors at bank A (the holder, the dealer, a
# second holder) and at bank B (the issuer), a bank, which has no deposit
# bank, and an agent the world does not have
DVP_PARTIES = [HOLDER, DEALER, DVP_BANK_A_HOLDER, ISSUER, BANK_A, GHOST]


def dvp_world(deposits, faces, reserves_left):
    """Two banks and four depositors, each with `deposits` and bill and long
    `faces`; bank A's reserves cut to `reserves_left`, if not None, so a
    payment out of it can fail its reserve debit."""
    world = two_bank_world()
    world.add_agent(DEALER, bank=BANK_A)
    world.add_agent(DVP_BANK_A_HOLDER, bank=BANK_A)
    depositors = DVP_PARTIES[:4]
    for agent, amount in zip(depositors, deposits):
        world.create_deposits(agent, amount)
    for agent, (bill, long) in zip(depositors, faces):
        for duration, face in ((DurationClass.BILL, bill), (DurationClass.LONG, long)):
            if face:
                world.grant_tbill(agent, duration, face)
    world.remark_tbills(DurationClass.LONG, 970_000)
    if reserves_left is not None:
        reserves = (BANK_A.key, "A", reserves_key())
        world.post({reserves: reserves_left - world.sheet(BANK_A).asset(reserves_key())})
    return world


def batch_state(batch):
    return (list(batch.staged.items()), list(batch.faces.items()),
            [(form.type, form.keys, values) for form, values in batch.events])


def assert_stages_as_reference(world, steps):
    """Each `(seller, buyer, duration, face, price)` of `steps` staged by
    `deliver_tbills` on one batch and by the reference on a copy stages
    the same legs in the same key order, the same running faces and
    events, and returns the same or raises the same; returns the outcomes.
    Committed, the two batches leave the same world."""
    ref_world = copy.deepcopy(world)
    batch, ref = TransferBatch(world), TransferBatch(ref_world)
    results = []
    for seller, buyer, duration, face, price in steps:
        outcomes = []
        for call, on in ((deliver_tbills, batch), (reference_deliver_tbills, ref)):
            try:
                outcomes.append(call(on, seller, buyer, duration, face, price))
            except LedgerError as err:
                outcomes.append((type(err), err.args))
        assert outcomes[0] == outcomes[1]
        assert batch_state(batch) == batch_state(ref)
        results.append(outcomes[0])
    batch.commit()
    ref.commit()
    assert world_state(world) == world_state(ref_world)
    return results


def _dvp(seller, buyer, face, duration=DurationClass.BILL, price=1_000_000):
    return (seller, buyer, duration, face, price)


# each case: its steps, bank A's reserves left (None: uncut) and what the
# steps return, or the error and message the last one raises. Every depositor holds 4,000.00 of bill
# face; the dealer has 1.00 of deposits, the others thousands.
@pytest.mark.parametrize("steps, reserves_left, outcome", [
    pytest.param([_dvp(HOLDER, DVP_BANK_A_HOLDER, 1_000_00)], None, [1_000_00], id="one_bank"),
    pytest.param([_dvp(ISSUER, HOLDER, 1_000_00), _dvp(HOLDER, ISSUER, 5_00, price=970_000)],
                 None, [1_000_00, 4_85], id="two_banks"),
    pytest.param([_dvp(HOLDER, DEALER, 1_000_00)], None, [1_00], id="buyer_short"),
    pytest.param([_dvp(DEALER, HOLDER, 3_000_00), _dvp(DEALER, HOLDER, 3_000_00)], None,
                 [3_000_00, 1_000_00], id="seller_short"),
    pytest.param([_dvp(HOLDER, HOLDER, 1_000_00)], None, [1_000_00], id="seller_is_buyer"),
    pytest.param([_dvp(GHOST, HOLDER, 1_00)], None, (UnknownAgent, "unknown agent holder:9"),
                 id="unknown_seller"),
    pytest.param([_dvp(HOLDER, GHOST, 1_00)], None, (UnknownAgent, "unknown agent holder:9"),
                 id="unknown_buyer"),
    pytest.param([_dvp(HOLDER, BANK_A, 1_00)], None, (LedgerError, "bank:0 has no deposit bank"),
                 id="no_deposit_bank"),
    pytest.param([_dvp(ISSUER, HOLDER, 50_00), _dvp(ISSUER, HOLDER, 60_00)], 100_00,
                 (InsufficientPosition, "bank:0 holds 5000 of reserves@fed:0, needs 6000"),
                 id="reserve_debit"),
])
def test_deliver_tbills_stages_what_the_reference_stages(steps, reserves_left, outcome):
    """`deliver_tbills` stages what a reference copy of its payment and
    delivery staging, built from the world's helpers, stages: one bank and
    two, a buyer short of deposits, a seller short of face, a seller that
    is its own buyer, an unknown seller or buyer, a buyer with no deposit
    bank, and a reserve debit that fails after a payment that passed."""
    world = dvp_world([5_000_00, 1_00, 2_000_00, 3_000_00], [(4_000_00, 1_000_00)] * 4,
                      reserves_left)
    results = assert_stages_as_reference(world, steps)
    if isinstance(outcome, list):
        assert results == outcome
    else:
        error, message = outcome
        assert results[-1] == (error, (message,))
        assert all(type(r) is int for r in results[:-1])


def test_deliver_tbills_pays_a_seller_short_of_face_for_the_face_it_delivers():
    """Deliveries that ask a seller for more face than it holds cap the face
    before the buyer pays: the dealer's 4,000.00 of bill face, asked twice
    for 3,000.00 off the class price, is paid that face at that price."""
    world = dvp_world([5_000_00, 1_00, 2_000_00, 3_000_00], [(4_000_00, 1_000_00)] * 4, None)
    batch = TransferBatch(world)
    paid = [deliver_tbills(batch, DEALER, HOLDER, DurationClass.BILL, 3_000_00, 970_000)
            for _ in range(2)]
    delivered = world.face_of(DEALER, DurationClass.BILL) - batch.face_of(DEALER,
                                                                           DurationClass.BILL)
    assert sum(paid) == mul_frac(delivered, 970_000) == 3_880_00


DVP_STEP = st.tuples(st.sampled_from(DVP_PARTIES), st.sampled_from(DVP_PARTIES),
                     st.sampled_from(DURATIONS), st.integers(-1_00, 9_000_00),
                     st.sampled_from([970_000, 1_000_000, 1_012_500]))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(1, 6_000_00), min_size=4, max_size=4),
       st.lists(st.tuples(st.integers(0, 5_000_00), st.integers(0, 5_000_00)), min_size=4,
                max_size=4),
       st.one_of(st.none(), st.integers(0, 3_000_00)), st.lists(DVP_STEP, max_size=10))
def test_deliver_tbills_on_drawn_batches_stages_what_the_reference_stages(
        deposits, faces, reserves_left, steps):
    """The same comparison on drawn worlds and deliveries: any party on
    either side, any face, a class price off the world's."""
    assert_stages_as_reference(dvp_world(deposits, faces, reserves_left), steps)


def test_duration_classes_hash_by_identity():
    # the enum-keyed price, face and market dicts skip Enum.__hash__
    assert DurationClass.__hash__ is object.__hash__
    assert {d: d.value for d in DurationClass} == {DurationClass.BILL: "bill",
                                                     DurationClass.LONG: "long"}
    assert DurationClass("bill") is DurationClass.BILL


def test_duration_names_and_tbill_keys_are_the_enum_values():
    assert DURATIONS == tuple(sorted(DurationClass, key=lambda d: d.value))
    assert DURATIONS == (DurationClass.BILL, DurationClass.LONG)
    for duration in DurationClass:
        assert DURATION_NAME[duration] == duration.value
        assert tbill_key(duration) == f"tbill/{duration.value}"


# -- event log -------------------------------------------------------------------

def forms(log) -> list:
    """The schema of each event of `log`, in log order. Each batch is flat:
    each event its schema, then one entry per field it does not bind."""
    found = []
    for _, _, batch in log.batches:
        at = 0
        while at < len(batch):
            found.append(batch[at])
            # the schema and its free fields, not day, seq, type
            at += len(batch[at].keys) - 2 - len(batch[at].bound)
    return found


def canonical_line(event: dict) -> str:
    return json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"


# names and strings that quote, escape or read as `%` formats
ADVERSARIAL = st.lists(st.sampled_from(["%", "%s", "%%", "%(day)s", '"', "\\", "\n", "\x00",
                                        "\x1f", "\x7f", "é", "☃", "\U0001f600", "\ud800",
                                        "a", "day", "type", " "]),
                       max_size=4).map("".join)
NAMES = (ADVERSARIAL | st.text(max_size=6)).filter(lambda n: n not in ("day", "seq", "type"))
SCALARS = (st.integers() | st.integers(2**64 - 2, 2**64 + 2) | st.integers(-2**80, 2**80)
           | st.booleans() | st.none() | st.floats() | ADVERSARIAL | st.text())
VALUES = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=3) | st.tuples(inner, inner)
    | st.dictionaries(ADVERSARIAL | st.text(max_size=4), inner, max_size=3)), max_leaves=8)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-2**70, 2**70), ADVERSARIAL | st.text(max_size=6),
                          st.dictionaries(NAMES, VALUES, max_size=5)),
                min_size=1, max_size=4))
def test_event_lines_are_json_dumps_of_each_event(events):
    """Each rendered line is the event's `json.dumps` with sorted keys and
    compact separators, whatever its names and values; its seq is its
    place in the log."""
    world = LedgerWorld()
    expected = []
    for seq, (day, event_type, fields) in enumerate(events):
        world.day = day
        expected.append({"day": day, "seq": seq, "type": event_type, **fields})
        world.emit(event_type, **fields)
    assert [canonical_line(e) for e in expected] == list(world.events.lines())
    assert list(world.events) == expected
    assert world.seq == len(events)


class _LoudInt(int):
    def __str__(self):
        return "loud"


class _LoudStr(str):
    def __str__(self):
        return "loud"


def test_event_lines_stay_json_dumps_when_value_kinds_change_between_rows():
    """A schema's writer picks each slot's fast path from the first row it
    renders; later rows of other kinds in that slot still render as the
    event's `json.dumps`, and copies of the log render through the same form."""
    odd = 'n"\\%s{p0}}{r[1]}é\x01\u2028'
    others = [None, True, False, 1.5, -0.0, float("inf"), float("nan"), 2**200, -7, -2**70,
              _LoudInt(5), _LoudStr("x"), "", odd, [1, odd, None], {odd: {"k": [True]}}]
    bools = [False, 1, 0, None, "true", True]
    world = LedgerWorld()
    # first row: an int, a str, None, a bool and an odd str in the slots
    # "i", "s", "o", "t" and `odd`
    world.emit("kinds", i=1, s="first", o=None, t=True, **{odd: odd})
    for day, value in enumerate(others, start=1):
        world.day = day
        world.emit("kinds", i=value, s=value, o=value if day % 2 else 7,
                   t=bools[day % len(bools)], **{odd: value})
    world.emit("kinds", i=2, s="last", o="str", t=False, **{odd: 0})
    assert len(set(forms(world.events))) == 1   # one schema
    lines = list(world.events.lines())
    assert lines == [canonical_line(e) for e in world.events]
    assert json.loads(lines[0])[odd] == odd
    for other in (copy.deepcopy(world).events, pickle.loads(pickle.dumps(world.events))):
        assert list(other.lines()) == lines
        assert all(a is b for a, b in zip(forms(other), forms(world.events)))


def test_bound_rows_read_and_render_as_the_same_values_logged_plainly():
    """Events of a bound schema carry only its free fields, and each reads
    and renders as the same values logged through the form itself, bound
    or free: an int, an escaped non-ASCII str, bools, None, a bool in a
    slot that first held an int, and slots whose kind changes after the
    first event; so do carried tails logged in one step (`emit_numbered`),
    as their rows logged one by one. Slices that start inside a batch, a
    tail's included, read the same, copies and pickles render the same,
    and the form compiles one maker per set of bound fields, not one per
    bound schema."""
    form = event_form("bound_row", ("i", "s", "t", "o", "k"))
    rows = [(7, 'é"☃\n', True, None, 5), (True, "x", False, None, "five"),
            (2**70, "", 1, 1.5, [1, None]), (-3, "\x00", None, "o", False)]
    world, plain = LedgerWorld(), LedgerWorld()
    for day, (i, s, t, o, k) in enumerate(rows):
        world.day = plain.day = day
        world.emit_all([(form.bind(i=i, s=s, t=t), (o, k)), (form.bind(o=o, k=k), (i, s, t)),
                        (form.bind(i=i).bind(s=s, t=t, o=o, k=k), ()), (form, (i, s, t, o, k))])
        plain.emit_all([(form, (i, s, t, o, k))] * 4)
    # carried tails, each row bound but for `k`, numbered from the tail's
    # first id: logged in one step, and through `emit_all` one `(row, (id,))`
    # each; the second tail rebuilds a row, the third is empty
    tail = [form.bind(i=i, s=s, t=t, o=o) for i, s, t, o, _ in rows]
    rebuilt = tail[:1] + [form.bind(i=-1, s="r", t=False, o=None)] + tail[2:]
    for day, (first, carried) in enumerate([(40, tail), (44, rebuilt), (48, [])],
                                           start=len(rows)):
        world.day = plain.day = day
        world.emit_numbered(carried, first)
        plain.emit_all([(row, (first + n,)) for n, row in enumerate(carried)])
    assert [len(batch) for _, _, batch in world.events.batches] == (
        [3 + 4 + 1 + 6] * len(rows) + [2 * len(tail)] * 2)
    assert [(day, seq) for day, seq, _ in world.events.batches] == [
        (day, seq) for day, seq, _ in plain.events.batches]
    assert len(world.events) == len(plain.events) == 4 * len(rows) + 2 * len(tail)
    assert world.events == plain.events and world.events[-1]["k"] == 44 + len(tail) - 1
    lines = list(plain.events.lines())
    assert lines == [canonical_line(e) for e in plain.events]
    assert list(world.events.lines()) == lines
    n = len(plain.events)
    for start in range(-n - 1, n + 1):   # every start, most of them inside a batch
        assert world.events[start:] == plain.events[start:], start
        assert world.events[start:start + 3] == plain.events[start:start + 3], start
    for other in (copy.deepcopy(world.events), pickle.loads(pickle.dumps(world.events))):
        assert other == plain.events and list(other.lines()) == lines
    assert sorted(form.makers) == [(), ("i", "s", "t"), ("i", "s", "t", "o"),
                                   ("i", "s", "t", "o", "k"), ("o", "k")]
    for fields in ({"day": 1}, {"zz": 1}):
        with pytest.raises(LedgerError, match="has no field"):
            form.bind(**fields)


@pytest.mark.parametrize("name", ["day", "seq", "type"])
def test_reserved_event_field_raises_and_logs_nothing(name):
    world = LedgerWorld()
    with pytest.raises(LedgerError, match=f"event field '{name}' is reserved"):
        world.emit("custom", amount=1, **{name: 5})
    assert len(world.events) == 0 and world.seq == 0


def test_event_log_reads_as_a_list_of_dicts():
    world = LedgerWorld()
    world.emit("open", amount=1)
    world.day = 3
    world.emit("close", amount=None, who="issuer:0")
    expected = [{"day": 0, "seq": 0, "type": "open", "amount": 1},
                {"day": 3, "seq": 1, "type": "close", "amount": None, "who": "issuer:0"}]
    events = world.events
    assert len(events) == 2
    assert events[0] == expected[0] and events[-1] == expected[1]
    assert events[1:] == expected[1:] and events[5:] == []
    assert list(events) == expected and events == expected
    assert events != expected[:1] and events != tuple(expected)
    assert [e["type"] for e in events] == ["open", "close"]
    assert list(events[1]) == ["day", "seq", "type", "amount", "who"]   # call order
    for other in (copy.deepcopy(world).events, pickle.loads(pickle.dumps(events))):
        assert other == events
        assert forms(other)[1] is forms(events)[1]   # one form per schema
    copied = copy.deepcopy(world)
    copied.emit("open", amount=2)
    assert copied.events != events and len(events) == 2


BATCH_FORMS = [event_form("plain", ()), event_form("one", ("x",)), event_form("two", ("y", "x"))]
EVENT_VALUES = st.integers(-3, 3) | st.text(max_size=2) | st.none()
BATCH = st.lists(st.sampled_from(BATCH_FORMS).flatmap(lambda form: st.tuples(
    st.just(form), st.tuples(*[EVENT_VALUES] * (len(form.keys) - 3)))), max_size=4)
LOG_STEPS = st.lists(st.one_of(
    st.tuples(st.just("emit"), st.dictionaries(st.sampled_from("xyz"), EVENT_VALUES, max_size=2)),
    st.tuples(st.just("emit_all"), BATCH),   # empty batches included
    st.tuples(st.just("day"), st.integers(0, 4))),
    max_size=14)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(LOG_STEPS, st.data())
def test_batch_log_reads_as_the_flat_list_of_its_events(steps, data):
    """However `emit` and `emit_all` batch the events, with the day moving
    between batches, the log reads as the flat list of their dicts, each
    numbered by its place in it: length, every index, slices, iteration,
    `==`, lines, copies and pickles; the world's seq is the next place."""
    world, flat = LedgerWorld(), []
    for op, arg in steps:
        if op == "emit":
            flat.append({"day": world.day, "seq": len(flat), "type": "e", **arg})
            world.emit("e", **arg)
        elif op == "emit_all":
            flat += [{"day": world.day, "seq": len(flat) + i, "type": form.type,
                      **dict(zip(form.keys[3:], values))} for i, (form, values) in enumerate(arg)]
            world.emit_all(list(arg))
        else:
            world.day = arg
        assert world.seq == len(flat)
    events, n = world.events, len(flat)
    assert len(events) == n
    for i in range(-n - 2, n + 2):
        if -n <= i < n:
            assert events[i] == flat[i], i
        else:
            with pytest.raises(IndexError):
                events[i]
    for start in range(-n - 2, n + 3):   # every day-end read `events[seen:]`
        assert events[start:] == flat[start:], start
    bound = st.none() | st.integers(-n - 3, n + 3)
    for _ in range(8):
        cut = slice(data.draw(bound), data.draw(bound),
                    data.draw(st.none() | st.sampled_from([-3, -2, -1, 1, 2, 3])))
        assert events[cut] == flat[cut], cut
    assert list(events) == flat and events == flat and list(reversed(events)) == flat[::-1]
    lines = [canonical_line(event) for event in flat]
    assert list(events.lines()) == lines
    for other in (copy.deepcopy(events), pickle.loads(pickle.dumps(events))):
        assert other == flat and list(other.lines()) == lines
