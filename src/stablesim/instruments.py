"""Backing-asset instruments: Treasury bills, collateralized repo
lending with haircuts, and the one-period progression of a backing
portfolio (interest on securities and deposits plus capital gain or
loss on the securities book).

Repo follows secured-financing bookkeeping: the borrower keeps pledged
Treasuries on its balance sheet and the lender books a collateralized
loan. Every position opens overnight; its second leg is a close or a
roll, and one that fails is postponed a day. Collateral is tracked as
encumbered face per duration class and is re-valued whenever class
prices move. No second leg defaults in a run: `default_loss` is the
pinned recovery rule, principal-protected up to the haircut; beyond it
the lender's loss per unit of principal is the excess decline scaled
down by the collateral-to-principal ratio:
loss = principal * (decline - haircut) / (1 + haircut), rounded half
to even once.

This module is the only writer of the repo book (`RepoRegistry`, one
id-ordered dict of open positions, which the due legs and a lender's
book scan) and the only place that pairs a deposit payment with a
Treasury delivery (`deliver_tbills`). Every leg is staged on a ledger
`TransferBatch` (principal on its `repo` rail), so a pass is one post.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ledger import (DURATION_NAME, DURATIONS, AgentId, DurationClass, InsufficientPosition,
                     LedgerWorld, TransferBatch, event_form)
from .money import MICRO, Amount, ceil_div, mul_div, mul_frac

GENIUS_MAX_BILL_DAYS = 93
# the pledged collateral of a new repo, and the classes a declined roll
# sells: micro fractions of the value, 75% long off-the-run, 25% bills
PLEDGE_MIX = {DurationClass.BILL: 250_000, DurationClass.LONG: 750_000}


class InstrumentError(Exception):
    pass


class InsufficientCollateral(InstrumentError):
    def __init__(self, borrower: AgentId, pledged: Amount, need: Amount):
        super().__init__(f"{borrower} pledges {pledged}, needs {need}")
        self.pledged = pledged
        self.need = need


class InsufficientCash(InstrumentError):
    pass


class WrongDay(InstrumentError):
    pass


@dataclass
class RepoPosition:
    repo_id: int
    lender: AgentId
    borrower: AgentId
    principal: Amount
    haircut: int              # micro fraction of principal
    rate: int                 # simple interest, micro per day
    open_day: int
    second_leg_day: int
    collateral: dict = field(default_factory=dict)  # DurationClass -> face
    # the class prices at which a roll found `collateral` a fixed point of
    # its sizing, with no class cut to its free face; None once it changes
    sized_at: tuple | None = None

    @property
    def term_days(self) -> int:
        return self.second_leg_day - self.open_day

    @property
    def overnight(self) -> bool:
        return self.term_days == 1

    def interest(self) -> Amount:
        return mul_frac(self.principal, self.rate * self.term_days)

    def collateral_value(self, world: LedgerWorld) -> Amount:
        return sum(mul_frac(face, world.price(d)) for d, face in self.collateral.items())


def default_loss(principal: Amount, haircut: int, decline: int) -> Amount:
    """Lender loss on a defaulted repo liquidation.

    Zero for any decline up to the haircut; beyond it the shortfall is
    principal * (decline - haircut) / (1 + haircut).
    """
    if decline <= haircut:
        return 0
    return mul_div(principal, decline - haircut, MICRO + haircut)


class RepoRegistry:
    """Open repo positions, one id-ordered dict, plus per-agent
    collateral encumbrance. Ids only grow and a roll re-inserts a
    position under the next id, so insertion order is id order.

    Only this module writes them; other modules read them and hand a
    second leg that failed to `postpone`."""

    def __init__(self):
        self._next_id = 0
        self.positions: dict[int, RepoPosition] = {}
        self.encumbered: dict[tuple[str, DurationClass], int] = {}

    def open_positions(self) -> list[RepoPosition]:
        return list(self.positions.values())

    def due(self, day: int) -> list[RepoPosition]:
        """The open positions whose second leg falls on `day`, in id order."""
        return [p for p in self.positions.values() if p.second_leg_day == day]

    def by_lender(self, lender: AgentId) -> list[RepoPosition]:
        """`lender`'s open positions, in id order."""
        key = lender.key
        return [p for p in self.positions.values() if p.lender.key == key]

    def free_face(self, world: LedgerWorld | TransferBatch, agent: AgentId,
                  duration: DurationClass) -> int:
        """`agent`'s unencumbered face, of a world or of a batch's running faces."""
        return world.face_of(agent, duration) - self.encumbered.get((agent.key, duration), 0)

    def total_principal(self, lender: AgentId) -> Amount:
        return sum(p.principal for p in self.by_lender(lender))

    def postpone(self, batch: TransferBatch, pos: RepoPosition, leg: str, err: Exception) -> None:
        """Stage the `leg_failed` row of a second leg that failed today on
        `batch`, and move the leg to the next day."""
        batch.emit("leg_failed", leg=leg, cause=str(err), repo_id=pos.repo_id)
        pos.second_leg_day += 1

    def _check_due(self, world: LedgerWorld, pos: RepoPosition) -> None:
        if world.day != pos.second_leg_day:
            raise WrongDay(f"second leg is day {pos.second_leg_day}, today is {world.day}")
        if pos.repo_id not in self.positions:
            raise InstrumentError("position already settled")

    def _add(self, world: LedgerWorld, lender: AgentId, borrower: AgentId,
             principal: Amount, haircut: int, rate: int, collateral: dict) -> RepoPosition:
        """Book a position opened overnight today under the next id; encumber
        its collateral."""
        pos = RepoPosition(
            repo_id=self._next_id, lender=lender, borrower=borrower,
            principal=principal, haircut=haircut, rate=rate,
            open_day=world.day, second_leg_day=world.day + 1,
        )
        self._next_id += 1
        self.positions[pos.repo_id] = pos
        for duration, face in collateral.items():
            self._pledge(pos, duration, face)
        return pos

    def _remove(self, pos: RepoPosition) -> None:
        """Drop a settled position and release its collateral."""
        del self.positions[pos.repo_id]
        for duration, face in pos.collateral.items():
            self._encumber(pos.borrower, duration, -face)

    def _reopen(self, pos: RepoPosition, day: int, rate: int, collateral: dict,
                sized_at: tuple | None) -> None:
        """Reopen `pos` overnight on `day` under the next id at `rate`,
        pledging `collateral` in place of its old collateral, stamped
        `sized_at`."""
        del self.positions[pos.repo_id]
        old, borrower = pos.collateral, pos.borrower
        if collateral != old:
            for duration in DURATIONS:
                if face := collateral.get(duration, 0) - old.get(duration, 0):
                    self._encumber(borrower, duration, face)
        pos.repo_id, pos.rate, pos.collateral = self._next_id, rate, collateral
        pos.sized_at = sized_at
        pos.open_day, pos.second_leg_day = day, day + 1
        self._next_id += 1
        self.positions[pos.repo_id] = pos

    def _pledge(self, pos: RepoPosition, duration: DurationClass, face: int) -> None:
        pos.collateral[duration] = pos.collateral.get(duration, 0) + face
        pos.sized_at = None
        self._encumber(pos.borrower, duration, face)

    def _encumber(self, agent: AgentId, duration: DurationClass, face: int) -> None:
        key = (agent.key, duration)
        self.encumbered[key] = self.encumbered.get(key, 0) + face
        if self.encumbered[key] == 0:
            del self.encumbered[key]


def required_collateral(principal: Amount, haircut: int) -> Amount:
    """Market value the borrower must pledge: principal * (1 + haircut)."""
    return ceil_div(principal * (MICRO + haircut), MICRO)


def open_reverse_repo(batch: TransferBatch, registry: RepoRegistry,
                      lender: AgentId, borrower: AgentId, principal: Amount,
                      haircut: int, rate: int) -> RepoPosition:
    """First leg of an overnight repo, staged on `batch`: cash moves
    lender -> borrower against Treasuries the borrower pledges in
    `PLEDGE_MIX`. The second leg falls tomorrow."""
    faces, _ = _size_collateral(batch, registry, borrower, principal, haircut,
                                PLEDGE_MIX.items(), MICRO, {})
    lender_deposits = batch.deposits(lender)
    if lender_deposits < principal:
        raise InsufficientCash(f"{lender} holds {lender_deposits}, needs {principal}")
    batch.pay(lender, borrower, principal)
    batch.repo(lender, borrower, principal)
    batch.emit("repo_open", lender=lender.key, borrower=borrower.key,
               principal=principal, haircut=haircut,
               collateral={DURATION_NAME[d]: faces[d] for d in DURATIONS if d in faces})
    return registry._add(batch.world, lender, borrower, principal, haircut, rate, faces)


def close_repo(batch: TransferBatch, registry: RepoRegistry, pos: RepoPosition) -> None:
    """Second leg on `batch`: the borrower repays principal plus interest
    and the position's collateral is released.

    Principal plus interest below zero (a negative rate) is paid by the
    lender, as a roll pays negative interest; the `repo_close` row holds
    the principal and interest.
    """
    registry._check_due(batch.world, pos)
    owed = pos.principal + pos.interest()
    if owed >= 0:
        batch.pay(pos.borrower, pos.lender, owed)
    else:
        batch.pay(pos.lender, pos.borrower, -owed)
    batch.repo(pos.lender, pos.borrower, -pos.principal)
    batch.emit("repo_close", lender=pos.lender.key, borrower=pos.borrower.key,
               principal=pos.principal, interest=owed - pos.principal)
    registry._remove(pos)


_REPO_ROLL = event_form("repo_roll", ("lender", "borrower", "principal", "rate", "interest"))


def roll_repo(batch: TransferBatch, registry: RepoRegistry, pos: RepoPosition,
              new_rate: int) -> None:
    """Close `pos` at par and reopen it overnight, staging the interest
    and the `repo_roll` row on `batch`. Only interest changes hands, as
    the closing and opening principal legs net to zero; the position is
    renumbered in place under the next id, its collateral re-sized at
    today's prices counting its old faces as free (`_resize`). Negative
    interest is paid by the lender. A roll that fails is postponed
    instead, its `leg_failed` row staged in its place.

    A position stamped with today's class prices (`sized_at`) keeps its
    faces without re-sizing them, and this is exact. A roll stamps a
    position only when the sizing returned its old faces with no class
    cut to its free face; every other write of its collateral (an open,
    a margin top-up) clears the stamp. A position's principal and
    haircut never change, so at the same prices and faces every weight,
    target and uncapped face `ceil_div(target * MICRO, price)` is what
    it was, and equal to the old face. The cap `free + old` is at least
    `old`, as free face is never negative (a sale or a top-up takes at
    most the free face), so `min(uncapped, free + old) == old` whatever
    the borrower's free face is now. `pledged` and `need` are unchanged
    too, so the sizing cannot raise. A fixed point reached with a class
    cut to `free + old` is not stamped: it moves once the borrower's
    free face grows."""
    world = batch.world
    try:
        registry._check_due(world, pos)
        collateral, sized_at = pos.collateral, pos.sized_at
        prices = tuple(world.tbill_prices.values())
        if sized_at != prices:
            collateral, capped = _resize(batch, registry, pos)
            sized_at = None if capped or collateral != pos.collateral else prices
        interest = pos.interest()
        if interest > 0:
            batch.pay(pos.borrower, pos.lender, interest)
        elif interest < 0:
            batch.pay(pos.lender, pos.borrower, -interest)
    except (InsufficientPosition, InstrumentError) as err:
        registry.postpone(batch, pos, "repo_roll", err)
        return
    batch.events.append((_REPO_ROLL, (pos.lender.key, pos.borrower.key, pos.principal,
                                      new_rate, interest)))
    registry._reopen(pos, world.day, new_rate, collateral, sized_at)


def _resize(batch: TransferBatch, registry: RepoRegistry, pos: RepoPosition) -> tuple[dict, bool]:
    """`_size_collateral` for `pos` at today's prices, in the mix of its
    collateral's values (else the pledge mix), its old faces counted as
    free."""
    prices, old = batch.world.tbill_prices, pos.collateral
    values = [(d, mul_frac(old[d], prices[d])) for d in DURATIONS if d in old]
    if (total := sum([value for _, value in values])) <= 0:
        values, total = PLEDGE_MIX.items(), MICRO
    return _size_collateral(batch, registry, pos.borrower, pos.principal,
                            pos.haircut, values, total, old)


def _size_collateral(batch: TransferBatch, registry: RepoRegistry, borrower: AgentId,
                     principal: Amount, haircut: int, weights, total: int,
                     freed: dict) -> tuple[dict, bool]:
    """Faces pledging `principal` plus haircut, split by `weights`, pairs
    `(class, weight)` in class order: a class takes its weight's micro
    fraction of `total`, the last class the rest, each at most its free
    face of `batch`'s running faces. `freed` faces per class count as
    free on top of the borrower's unencumbered ones. Also returns whether
    any class was cut to its free face; a roll whose sizing returns the
    old faces uncut is a fixed point at these prices (see `roll_repo`)."""
    need = required_collateral(principal, haircut)
    faces: dict[DurationClass, int] = {}
    pledged, last, prices, capped = 0, len(weights) - 1, batch.world.tbill_prices, False
    for i, (duration, weight) in enumerate(weights):
        target = need - pledged if i == last else mul_frac(need, mul_div(weight, MICRO, total))
        price = prices[duration]
        face = ceil_div(target * MICRO, price)
        free = registry.free_face(batch, borrower, duration) + freed.get(duration, 0)
        if face > free:
            face, capped = free, True
        if face:
            faces[duration] = face
        pledged += mul_frac(face, price)
    if pledged < need:
        raise InsufficientCollateral(borrower, pledged, need)
    return faces, capped


def mark_treasuries(world: LedgerWorld, registry: RepoRegistry, price_tick: int,
                    duration: DurationClass) -> None:
    """Apply a multiplicative price tick to one duration class and
    re-margin the positions whose second leg was postponed.

    A position opens overnight, so it lives past its first day only when
    a failed second leg was postponed (`RepoRegistry.postpone`). Each
    such position that is under-margined logs one `margin_call` row and
    is topped up. Daily re-margining with a halved haircut threshold
    stands in for intraday margin cycles the day-grain clock cannot
    express.
    """
    world.remark_tbills(duration, mul_frac(world.price(duration), MICRO + price_tick))
    if price_tick != 0:
        world.emit("mark", tick=price_tick, classes=[DURATION_NAME[duration]])
    for pos in registry.open_positions():
        if pos.overnight:
            continue
        threshold = mul_frac(pos.principal, MICRO + pos.haircut // 2)
        value = pos.collateral_value(world)
        if value < threshold:
            shortfall = threshold - value
            world.emit("margin_call", repo_id=pos.repo_id, borrower=pos.borrower.key,
                       collateral_value=value, threshold=threshold, shortfall=shortfall)
            _top_up_collateral(world, registry, pos, shortfall)


def _top_up_collateral(world: LedgerWorld, registry: RepoRegistry,
                       pos: RepoPosition, shortfall: Amount) -> None:
    for duration in DURATIONS:
        if shortfall <= 0:
            return
        free = registry.free_face(world, pos.borrower, duration)
        if free <= 0:
            continue
        price = world.price(duration)
        face = min(free, ceil_div(shortfall * MICRO, price))
        registry._pledge(pos, duration, face)
        shortfall -= mul_frac(face, price)


def deliver_tbills(batch: TransferBatch, seller: AgentId, buyer: AgentId,
                   duration: DurationClass, face: Amount, price: int) -> Amount:
    """Delivery versus payment, staged on `batch`: `buyer` pays `face` at
    `price` out of its deposits, capped at what it holds, and `seller`
    delivers the face that payment buys. Returns the amount paid."""
    value = mul_frac(face, price)
    paid = min(value, batch.deposits(buyer))
    if paid <= 0:
        return 0
    batch.pay(buyer, seller, paid)
    if paid < value:
        face = mul_div(paid, MICRO, price)
    if face > 0:
        batch.deliver(seller, buyer, duration, face)
    return paid


@dataclass
class PortfolioState:
    """Issuer backing book: securities at (face, price), deposits, rates.

    treasuries and total are derived so the one-period progression can
    be checked exactly: value(t+1) - value(t) decomposes into interest
    on securities, capital gain, interest on deposits, and net deposit
    flow.
    """

    treasury_face: Amount
    treasury_price: int
    deposits: Amount
    rate_treasury: int      # micro per period
    rate_deposit: int       # micro per period
    repo_principal: Amount = 0

    @property
    def treasuries(self) -> Amount:
        return mul_frac(self.treasury_face, self.treasury_price)

    @property
    def total(self) -> Amount:
        return self.treasuries + self.deposits + self.repo_principal


def step_portfolio(p: PortfolioState, price_delta: int, deposit_flow: Amount) -> PortfolioState:
    """Advance the portfolio one period.

    Rates are the ones fixed at the start of the period. price_delta is
    an absolute move of the price level in micro units (a fraction of
    face), so sequential moves compose additively; interest accrues
    into deposits.
    """
    new_price = p.treasury_price + price_delta
    if new_price <= 0:
        raise InstrumentError("price delta drives the securities price non-positive")
    interest_t = mul_frac(p.treasuries, p.rate_treasury)
    interest_d = mul_frac(p.deposits, p.rate_deposit)
    return PortfolioState(
        treasury_face=p.treasury_face,
        treasury_price=new_price,
        deposits=p.deposits + deposit_flow + interest_t + interest_d,
        rate_treasury=p.rate_treasury,
        rate_deposit=p.rate_deposit,
        repo_principal=p.repo_principal,
    )
