"""Redemption, minting and par-maintenance state machines.

A redemption request escrows nothing up front: the holder keeps the
coins until the paying leg runs, so a request that stalls in the queue
leaves balance sheets untouched. Each step works in passes per issuer:
intake queues a batch of requests after checking all of them, planning
funds an issuer's unplanned requests in one pass over its deposits and
bills, and each day's payout pass sizes an issuer's chunks against
running balances, then burns the coins and moves the deposits of all of
them in one atomic batch. Funding is committed at planning time from
three sources in order of cost: the issuer's own deposits, outright bill
sales (T+1 through the dealer market), and declining to roll maturing
repo (same-day cash from the borrower, who is left with a funding gap).
Sale and non-rollover cash is pooled per issuer and drawn first-in
first-out; a request backed purely by deposits is therefore never
blocked by market conditions. An issuer's earmark is read from its open
requests, the sum of their `deposit_left`, at each planning and payout pass;
a holder's promised coins are read from them too, the sum of their unpaid
`amount - paid`. The bills an issuer is selling are read from the market
at each planning pass: its queued remainders and its fills awaiting T+1
settlement.

Par policy: a rigorously fixed regime buys below par, a corridor only
below its band, best effort never; the coin never trades above par, so
no policy mints. Intervention purchases are ordinary redemptions at par
initiated by the issuer against its holders, sliced in key order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .instruments import (InstrumentError, RepoRegistry, close_repo, deliver_tbills,
                          open_reverse_repo, roll_repo)
from .ledger import (AgentId, AgentKind, DurationClass, InsufficientPosition, LedgerWorld,
                     TransferBatch, event_form)
from .money import MICRO, PAR, Amount, mul_frac

if TYPE_CHECKING:  # config and dynamics import this module
    from .config import IssuerConfig, PolicyConfig, RatesConfig
    from .dynamics import ConfidenceState, RunModel


class SettlementError(Exception):
    pass


class IneligibleRedeemer(SettlementError):
    pass


class MintDeclined(SettlementError):
    pass


class AccessMode(Enum):
    DIRECT = "direct"
    INTERMEDIATED = "intermediated"


class Route(Enum):
    DIRECT = "direct"
    VIA_INTERMEDIARY = "via_intermediary"


class Funding(Enum):
    FROM_DEPOSITS = "from_deposits"
    SELL_TREASURIES = "sell_treasuries"
    REPO_NON_ROLLOVER = "repo_non_rollover"


# each funding source's name in `plan_created` events
_FROM_DEPOSITS, _SALE, _NONROLL = (Funding.FROM_DEPOSITS.value, Funding.SELL_TREASURIES.value,
                                   Funding.REPO_NON_ROLLOVER.value)
# the events of intake and planning, one row per request, and of payout
_REDEMPTION_REQUEST = event_form("redemption_request", (
    "request_id", "issuer", "holder", "amount", "route", "intervention"))
_PLAN_CREATED = event_form("plan_created", (
    "request_id", "issuer", "funding", "from_deposits", "from_sales", "from_nonroll", "horizon"))
_REDEMPTION_COMPLETED = event_form("redemption_completed", (
    "request_id", "issuer", "holder", "amount", "delay_days"))
_REDEMPTION_PARTIAL = event_form("redemption_partial", (
    "request_id", "issuer", "paid", "remaining"))


class ParMode(Enum):
    RIGOROUS_FIXED = "rigorous_fixed"
    CORRIDOR = "corridor"
    BEST_EFFORT = "best_effort"


@dataclass(frozen=True)
class ParPolicy:
    mode: ParMode = ParMode.BEST_EFFORT
    corridor_width: int = 0  # micro


def intervene(policy: ParPolicy, secondary_price: int, world: LedgerWorld,
              issuer: AgentId) -> tuple[Amount, int] | None:
    """The buyback `(amount, pin_target)` the par policy requires at this
    price, or `None`: the issuer offers to retire the share of coins
    outstanding by which the price is below the corridor edge, and pins
    the price to that edge. The fixed regime is the corridor of width 0."""
    if policy.mode is ParMode.BEST_EFFORT:
        return None
    width = policy.corridor_width if policy.mode is ParMode.CORRIDOR else 0
    # the price is tested against the corridor before coins are read
    if (below := PAR - width - secondary_price) <= 0:
        return None
    if (coins := world.coins_outstanding(issuer)) <= 0:
        return None
    return mul_frac(coins, below), PAR - width


# ---------------------------------------------------------------------------
# Issuer-side settlement engine
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class OpenRequest:
    request_id: int
    holder: AgentId
    amount: Amount
    submitted_day: int
    is_intervention: bool = False
    planned: bool = False
    # funding committed at planning and not yet paid out: deposits, which
    # the issuer's earmark sums, and sale or non-rollover cash from the pool
    deposit_left: Amount = 0
    pool_left: Amount = 0
    horizon: int = 0
    paid: Amount = 0
    counted_delayed: bool = False

    @property
    def completed(self) -> bool:
        return self.paid == self.amount

    @property
    def remaining(self) -> Amount:
        return self.amount - self.paid

    def delay(self, day: int) -> int:
        """Days past the plan horizon on `day`; overdue when positive."""
        return day - self.submitted_day - self.horizon


@dataclass
class MintOrder:
    buyer: AgentId
    amount: Amount


@dataclass
class IssuerBook:
    agent: AgentId
    config: IssuerConfig
    requests: list = field(default_factory=list)   # every request, as submitted
    open: list = field(default_factory=list)       # the ones not completed yet
    mints: list = field(default_factory=list)     # the mints not settled yet
    # funding trackers
    pool: Amount = 0
    nonroll_pending: Amount = 0
    # daily metrics
    day_requested: Amount = 0
    day_completed: Amount = 0
    day_minted: Amount = 0
    day_int_buy_requested: Amount = 0
    day_int_buy_completed: Amount = 0
    day_unserved: Amount = 0         # demand no holder could place today
    pin_target: int = PAR
    total_minted: Amount = 0
    delayed_total: Amount = 0
    max_delay_days: int = 0
    insolvency_day: int | None = None
    # the engine's per-issuer state, set when the scenario is built
    run_model: RunModel | None = None
    confidence: ConfidenceState | None = None
    peak_txn: Amount = 0             # largest redeemed + minted day


@dataclass(frozen=True)
class SaleInstruction:
    """A bill sale for the dealer market."""
    issuer: AgentId
    amount: Amount


@dataclass(frozen=True)
class GapInstruction:
    borrower: AgentId
    amount: Amount


class SettlementEngine:
    """Drives every issuer's redemption queue one day at a time.

    Owns planning, repo rollovers, the proceeds pool and the payout
    pass; market clearing and price updates stay outside. Reads its
    parameters from the parsed `rates` and `policies` sections.
    """

    def __init__(self, world: LedgerWorld, registry: RepoRegistry, issuers: dict,
                 rates: RatesConfig, policies: PolicyConfig):
        self.world = world
        self.registry = registry
        self.issuers = dict(sorted(issuers.items()))  # issuer key -> IssuerBook, in key order
        self.rates = rates
        self.policies = policies
        self._next_request = 0

    # -- intake -----------------------------------------------------------

    def begin_day(self) -> None:
        for book in self.issuers.values():
            book.day_requested = 0
            book.day_completed = 0
            book.day_minted = 0
            book.day_int_buy_requested = 0
            book.day_int_buy_completed = 0
            book.day_unserved = 0
            book.pin_target = PAR

    def submit_redemptions(self, book: IssuerBook, slices: list, route: Route,
                           is_intervention: bool = False) -> list:
        """Queue a request for each `(holder, amount)` of `slices`, in order;
        coins stay with each holder until paid. Under intermediated access
        only intermediaries redeem directly. Every slice is checked before
        the batch is queued, so a batch that raises queues and logs
        nothing."""
        gated = (route is Route.DIRECT and not is_intervention
                 and self.policies.access_mode is AccessMode.INTERMEDIATED)
        issuer, day = book.agent.key, self.world.day
        request_id, records, events, total = self._next_request, [], [], 0
        route = route._value_   # the member's text, without the Python-level `.value`
        for holder, amount in slices:
            if gated and holder.kind is not AgentKind.INTERMEDIARY:
                raise IneligibleRedeemer(f"{holder} may not redeem directly from {book.agent}")
            if amount <= 0:
                raise SettlementError("redemption amount must be positive")
            records.append(OpenRequest(request_id, holder, amount, day, is_intervention))
            events.append((_REDEMPTION_REQUEST, (request_id, issuer, holder.key, amount,
                                                 route, is_intervention)))
            request_id += 1
            total += amount
        self._next_request = request_id
        book.requests += records
        book.open += records
        book.day_requested += total
        self.world.emit_all(events)
        return records

    def submit_mint(self, book: IssuerBook, buyer: AgentId, amount: Amount,
                    secondary_price: int) -> None:
        """Queue a mint on `book.mints`, or raise if it is declined; its
        `mint_request` row records it (its `intervention` is always false),
        and aggregate deposits are unchanged by it."""
        if amount <= 0:
            raise SettlementError("mint amount must be positive")
        if self.policies.negative_carry_refusal and self.rates.treasury_rate_daily <= 0:
            raise MintDeclined("negative carry: securities yield nothing to invest in")
        if self.policies.par_policy.mode is ParMode.BEST_EFFORT and secondary_price < PAR:
            raise MintDeclined("below par on the secondary market")
        book.mints.append(MintOrder(buyer, amount))
        self.world.emit("mint_request", issuer=book.agent.key, buyer=buyer.key,
                        amount=amount, intervention=False)

    # -- planning -----------------------------------------------------------

    def plan_pending(self, suspended_chains: set, unsettled: dict) -> list:
        """Commit funding for unplanned requests, oldest first, in one pass
        per live issuer: spare deposits, then bills not yet being sold,
        then repo non-rollover; returns bill sale instructions.
        `unsettled` maps a seller key to the value of its sales the
        market has not settled yet (`Market.unsettled`); an issuer's
        running sales start from it.
        Planning moves no money, so a pass reads the issuer's deposits and
        bills once. It then tops up any shortfall between committed pool
        needs and the cash actually in flight (sales can settle short when
        prices fall between clearing and settlement).
        """
        world, instructions = self.world, []
        for key, book in self.issuers.items():
            if book.config.chain in suspended_chains or not book.open:
                continue
            deposits, held = world.deposits(book.agent), world.tbill_value(book.agent)
            # spare deposits are neither pooled nor in the earmark, and the
            # bills free to sell are those not being sold already; pending
            # non-rollover is written back after the pass
            earmark = sum(r.deposit_left for r in book.open)
            selling, nonroll_pending = unsettled.get(key, 0), book.nonroll_pending
            spare = deposits - book.pool
            events, needs = [], 0
            for record in book.open:
                if not record.planned:
                    # spare deposits outside the earmark, then bills free to
                    # sell, each between 0 and what the request still needs
                    amount = record.amount
                    d = spare - earmark
                    if d > amount:
                        d = amount
                    elif d < 0:
                        d = 0
                    s = held - selling
                    if s > amount - d:
                        s = amount - d
                    elif s < 0:
                        s = 0
                    # the rest is committed to repo non-rollover regardless of
                    # solvency; uncollectable needs leave the request queued
                    # and show up as delay
                    n = amount - d - s
                    funding = _NONROLL if n > 0 else _SALE if s > 0 else _FROM_DEPOSITS
                    horizon = 1 if s > 0 else 0
                    record.planned = True
                    record.deposit_left = d
                    record.pool_left = s + n
                    record.horizon = horizon
                    earmark += d
                    nonroll_pending += n
                    events.append((_PLAN_CREATED, (record.request_id, key, funding,
                                                   d, s, n, horizon)))
                    if s > 0:
                        selling += s
                        instructions.append(SaleInstruction(book.agent, s))
                needs += record.pool_left
            book.nonroll_pending = nonroll_pending
            world.emit_all(events)
            shortfall = needs - (book.pool + selling + book.nonroll_pending)
            if shortfall > 0:
                s = min(shortfall, max(0, held - selling))
                if s > 0:
                    instructions.append(SaleInstruction(book.agent, s))
                    shortfall -= s
                if shortfall > 0:
                    principal = self.registry.total_principal(book.agent)
                    book.nonroll_pending += min(shortfall,
                                                max(0, principal - book.nonroll_pending))
        return instructions

    # -- sale proceeds ------------------------------------------------------

    def credit_proceeds(self, settlements: dict) -> None:
        """Pool each issuer's cash of `settlements`, seller key -> cash
        received."""
        for key, got in settlements.items():
            book = self.issuers.get(key)
            if book is not None:
                book.pool += got

    # -- repo rollovers -----------------------------------------------------------

    def process_repo_legs(self) -> list:
        """Roll every maturing repo except principal committed to funding.

        Returns the funding gaps pushed onto borrowers by declined
        rolls. Interest always lands in the lender's spare deposits;
        declined principal lands in the proceeds pool. Every leg and
        `leg_failed` row is staged on one batch, in due order, written by
        one post.
        """
        gaps: list[GapInstruction] = []
        world, registry, rate = self.world, self.registry, self.rates.repo_rate_daily
        batch = TransferBatch(world)
        for pos in registry.due(world.day):
            book = self.issuers.get(pos.lender.key)
            if book is None or book.nonroll_pending <= 0:
                roll_repo(batch, registry, pos, rate)
                continue
            decline = min(book.nonroll_pending, pos.principal)
            keep = pos.principal - decline
            try:
                close_repo(batch, registry, pos)
            except InsufficientPosition as err:
                registry.postpone(batch, pos, "repo_second_leg", err)
                continue
            book.pool += decline
            book.nonroll_pending -= decline
            if keep > 0:
                # re-lend the undeclined balance overnight
                try:
                    open_reverse_repo(batch, registry, pos.lender, pos.borrower, keep,
                                      pos.haircut, rate)
                except (InsufficientPosition, InstrumentError) as err:
                    batch.emit("leg_failed", leg="repo_relend", cause=str(err),
                               repo_id=pos.repo_id)
            gaps.append(GapInstruction(pos.borrower, decline))
        batch.commit()
        return gaps

    # -- payout -----------------------------------------------------------------

    def payout_pass(self, suspended_chains: set) -> None:
        """Pay funded requests, oldest first, in partial chunks.

        The deposit slice of a request is set aside at planning and is
        always payable; the pool slice pays as sale and non-rollover
        cash arrives (spare cash outside the earmark may cover settlement
        shortfalls). Each chunk burns the holder's coins and pays it the
        issuer's deposits. An issuer's chunks are sized against running
        values of its deposits, pool and earmark and of the coins each
        holder has left, written as one atomic batch
        (`LedgerWorld.redeem_coins`), then booked on the requests and the
        issuer; a pass that cannot be paid in full raises before it
        changes anything. Completed requests leave `book.open`.
        """
        day = self.world.day
        for book in self.issuers.values():
            if not book.open or book.config.chain in suspended_chains:
                continue
            payouts, bookings, left_open, pool = self._size_chunks(book)
            if not payouts:
                continue
            self.world.redeem_coins(book.agent, payouts)
            book.pool = pool
            total = bought = 0
            for record, chunk, deposit_part in bookings:
                record.deposit_left -= deposit_part
                record.pool_left -= chunk - deposit_part
                record.paid += chunk
                total += chunk
                if record.is_intervention:
                    bought += chunk
                if record.paid == record.amount and (
                        delay := day - record.submitted_day - record.horizon) > 0:
                    book.max_delay_days = max(book.max_delay_days, delay)
                    if not record.counted_delayed:
                        record.counted_delayed = True
                        book.delayed_total += record.amount
            book.day_completed += total
            book.day_int_buy_completed += bought
            book.open = left_open

    def _size_chunks(self, book: IssuerBook) -> tuple:
        """The chunks a pass pays `book`'s open requests, oldest first, in
        one loop: the payouts `(holder, chunk, note)` that
        `LedgerWorld.redeem_coins` takes, `note` the request's
        `redemption_completed` or `redemption_partial` event as `(form,
        values)`; the bookings `(record, chunk, deposit part)`; the open
        requests the chunks leave unfinished, in order; and the pool left
        after them. Reads the world and changes nothing."""
        world, issuer = self.world, book.agent.key
        day, agents, coin = world.day, world.agents, world.coin_keys[issuer]
        deposits = world.deposits(book.agent)
        pool, earmark = book.pool, sum([r.deposit_left for r in book.open])
        coins_left: dict[str, Amount] = {}   # holder key -> coins after earlier chunks
        payouts, bookings, left_open = [], [], []
        for record in book.open:
            holder = record.holder
            key = holder.key
            held = coins_left.get(key)
            if held is None:
                held = agents[key].assets.get(coin, 0)
            # a planned request's unpaid funding adds up to its remaining
            # amount, an unplanned one's to 0, so it stays open; the chunk is
            # its deposit part plus what the pool, or the spare deposits
            # outside the earmark, can add, at most the issuer's deposits and
            # the holder's coins left
            deposit_left, spare = record.deposit_left, deposits - earmark
            if spare < pool:
                spare = pool
            chunk = deposit_left + (record.pool_left if record.pool_left < spare else spare)
            if chunk > deposits:
                chunk = deposits
            if chunk > held:
                chunk = held
            if chunk <= 0:
                left_open.append(record)
                continue
            deposit_part = chunk if chunk < deposit_left else deposit_left
            coins_left[key] = held - chunk
            deposits -= chunk
            earmark -= deposit_part
            pool -= chunk - deposit_part
            if pool < 0:
                pool = 0
            if remaining := record.amount - record.paid - chunk:
                note = (_REDEMPTION_PARTIAL, (record.request_id, issuer, chunk, remaining))
                left_open.append(record)
            else:
                delay = day - record.submitted_day - record.horizon
                note = (_REDEMPTION_COMPLETED, (record.request_id, issuer, key, record.amount,
                                                delay if delay > 0 else 0))
            payouts.append((holder, chunk, note))
            bookings.append((record, chunk, deposit_part))
        return payouts, bookings, left_open, pool

    def mint_pass(self, suspended_chains: set, treasury_seller: AgentId) -> None:
        """Settle queued mints: deposits in, coins out, optional bill buy.
        A mint whose buyer lacks the deposits stays queued."""
        world = self.world
        for key, book in self.issuers.items():
            if book.config.chain in suspended_chains:
                continue
            queued = []
            for order in book.mints:
                if world.deposits(order.buyer) < order.amount:
                    world.emit("leg_failed", leg="mint_deposit",
                               cause="buyer lacks deposits", issuer=key)
                    queued.append(order)
                    continue
                world.transfer_deposit(order.buyer, book.agent, order.amount)
                world.transfer_coin(book.agent, order.buyer, book.agent, order.amount)
                invest = mul_frac(order.amount, book.config.mint_invest_frac)
                if invest > 0:
                    self._buy_bills(book, treasury_seller, invest)
                book.day_minted += order.amount
                book.total_minted += order.amount
                world.emit("mint_completed", issuer=key, buyer=order.buyer.key,
                           amount=order.amount)
            book.mints = queued

    def _buy_bills(self, book: IssuerBook, seller: AgentId, value: Amount) -> None:
        world = self.world
        free = self.registry.free_face(world, seller, DurationClass.BILL)
        price = world.price(DurationClass.BILL)
        face = min(free, value * MICRO // price)
        batch = TransferBatch(world)
        deliver_tbills(batch, seller, book.agent, DurationClass.BILL, face, price)
        batch.commit()

    # -- daily metrics ------------------------------------------------------------

    def overdue_amount(self, book: IssuerBook) -> Amount:
        """Open request volume older than its plan horizon."""
        if not book.open:
            return 0
        day = self.world.day
        return sum(r.remaining for r in book.open if r.delay(day) > 0)

    def queue_age(self, book: IssuerBook) -> int:
        if not book.open:
            return 0
        day = self.world.day
        return max([0, *(r.delay(day) for r in book.open)])

    def sweep_delay_flags(self) -> None:
        """Count still-open requests as delayed once they pass their horizon."""
        day = self.world.day
        for key, book in self.issuers.items():
            for record in book.open:
                if record.counted_delayed or not record.planned:
                    continue
                delay = record.delay(day)
                if delay > 0:
                    record.counted_delayed = True
                    book.delayed_total += record.amount
                    book.max_delay_days = max(book.max_delay_days, delay)
                    self.world.emit("queue_delayed", request_id=record.request_id,
                                    issuer=key, age=day - record.submitted_day)
