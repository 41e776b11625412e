"""Dealer-intermediated secondary Treasury market.

Sales route through a dealer chain (two dealers by default). Each
cleared dollar is reserved against the absorbing dealer's recorded
assets at trade date and settles T+1: the dealers keep a retention
slice on their books, the remainder passes through to ultimate buyers,
and buyers pay sellers from deposit accounts so aggregate bank deposits
are conserved. Daily capacity per dealer is the tightest of three
limits: supplementary-leverage-ratio headroom, the reserves the dealer
can access for settlement, and what its own cash can fund of the
retention slice. The standing repo facility lifts the reserve limit by
letting the dealer borrow reserves against Treasuries, but every draw
grows recorded assets, so leverage headroom still caps the fill at
(headroom + reserve_access) / 2 once reserves run short.

A day's T+1 settlement is one ledger transfer batch: each delivery is
sized against the running deposits and faces the ones before it leave,
and the batch is written by one post. A day's carryover pass re-reads
capacity after each fill; once a read sums to zero the rest of the
queue fills nothing and is carried in one step, its rows logged as one
batch. Each carried order keeps its zero-fill row as a bound schema of
`sale_cleared` (`_Form.bind`), built when the pass first carries it at
its remainder and dropped when a fill changes that, so a carried row is
logged as that schema and its order id, and its other fields' text is
rendered once per row, not once per day.
Planning reads the issuers' sales not yet settled from the queue and
the pending settlements (`unsettled`). Capacity is cached per dealer:
its sheet reads by sheet version, the capacity by that version and the
dealer's day fields. The leverage limit those reads are taken from is
fixed per dealer for the run, as its config and the SLR bound are.

Volume accounting decomposes each first submission of a sale
(`decompose`) into seller volume, dealer retention, inter-dealer volume
and buyer volume; gross volume is their chained sum, and a carried
remainder adds none. Price impact is linear in the flow that exceeds
capacity, capped at a maximum dislocation, with long off-the-run paper
at least as impacted as bills; under a flight-to-safety flag bill
prices never fall and may rise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import analytics
from .config import DealerConfig, MarketConfig, PolicyConfig
from .instruments import PLEDGE_MIX, RepoRegistry, deliver_tbills, mark_treasuries
from .ledger import (DURATION_NAME, DURATIONS, FED, AgentId, DurationClass, LedgerWorld,
                     TransferBatch, event_form, reserves_key, srf_key, treasury_value)
from .money import BP, MICRO, Amount, mul_div, mul_frac


class MarketError(Exception):
    pass


@dataclass(frozen=True)
class VolumeDecomposition:
    seller: Amount
    retention: Amount
    interdealer: Amount
    buyer: Amount
    gross: Amount


def decompose(seller: Amount, retention: Amount) -> VolumeDecomposition:
    """Chain identity: interdealer = buyer = seller - retention."""
    if retention > seller:
        raise MarketError("retention cannot exceed seller volume")
    passed = seller - retention
    return VolumeDecomposition(
        seller=seller, retention=retention,
        interdealer=passed, buyer=passed,
        gross=seller + passed + passed,
    )


_RESERVES = reserves_key()


@dataclass
class DealerBook:
    """Recorded-assets state used for the leverage constraint.

    The config's base_assets is the dealer's balance sheet outside the
    simulation; on top of it sit inventory growth above the opening
    position, reserves drawn from the standing facility, and same-day
    clearing reservations that settle tomorrow. Only the last two
    fields change during a run.
    """

    agent: AgentId
    config: DealerConfig
    inventory_baseline: Amount = 0       # opening treasuries value
    reserved_today: Amount = 0
    ra_used_today: Amount = 0            # of config.reserve_access, per day

    def on_sheet(self, world: LedgerWorld) -> Amount:
        """The part of recorded assets on the dealer's sheet: inventory
        growth over the opening position plus reserves."""
        assets = world.agents[self.agent.key].assets
        return max(0, treasury_value(assets) - self.inventory_baseline) + assets.get(_RESERVES, 0)

    def slr_report(self, world: LedgerWorld, bound_override: int | None = None) -> analytics.SlrReport:
        """`analytics.slr` of the dealer's recorded assets: base assets,
        `on_sheet` and today's reservations."""
        cfg = self.config
        assets = cfg.base_assets + self.on_sheet(world) + self.reserved_today
        return analytics.slr(cfg.capital, assets, cfg.exposures, cfg.gsib, bound_override)


def draw_srf(world: LedgerWorld, book: DealerBook, amount: Amount) -> None:
    """Borrow reserves from the central bank against Treasuries.

    The drawn reserves land on the dealer's book (recorded assets grow
    by the draw) with a matching repo liability to the central bank;
    nothing nets, so leverage headroom falls one-for-one.
    """
    dealer = book.agent
    world.post({(FED.key, "A", srf_key(dealer)): amount,
                (dealer.key, "L", srf_key(FED)): amount,
                (dealer.key, "A", _RESERVES): amount,
                (FED.key, "L", reserves_key(dealer)): amount})
    world.emit("srf_draw", dealer=dealer.key, amount=amount)


@dataclass
class SaleOrder:
    seller: AgentId
    duration: DurationClass
    remaining: Amount
    purpose: str = "sale"
    # the zero-fill `sale_cleared` row of `remaining`, bound but for its
    # order id: built by the carryover pass that first carries the order
    # at this remainder, dropped by `Market._record` when a fill changes it
    row: object = field(default=None, repr=False, compare=False)


_SALE_CLEARED = event_form("sale_cleared", (
    "order_id", "seller", "duration", "requested", "filled", "unfilled", "purpose",
    "first_submission"))
_SALE_SETTLED = event_form("sale_settled", ("seller", "dealer", "duration", "proceeds"))


@dataclass
class PendingSettlement:
    settle_day: int
    seller: AgentId
    dealer: AgentId
    duration: DurationClass
    value: Amount  # trade value at clearing; re-priced at settlement


class Market:
    """Per-scenario market state: order queue, dealer books, prices.

    Reads its parameters from the parsed `market` and `policies`
    sections, which `parse_config` has range-checked.
    """

    def __init__(self, params: MarketConfig, policies: PolicyConfig,
                 books: dict, buyer: AgentId):
        self.params = params
        self.policies = policies
        # micro; None leaves the 3% / 5% bound by gsib
        self.slr_bound = (None if policies.slr_bound_bp is None
                          else policies.slr_bound_bp * BP)
        self.books = dict(sorted(books.items()))  # dealer key -> DealerBook, in key order
        # dealer key -> the recorded assets its SLR bound allows beyond its
        # base assets and exposures; this and each dealer's share of the
        # eSLR capacity add are fixed for the run, as the configs and bound are
        self._limits = {key: book.config.capital * MICRO // analytics.slr_bound(
                            book.config.gsib, self.slr_bound)
                        - book.config.base_assets - book.config.exposures
                        for key, book in self.books.items()}
        self._eslr_share = (params.eslr_capacity_add // len(self.books)
                            if policies.eslr_reform and params.eslr_capacity_add > 0 else 0)
        self.buyer = buyer
        # dealer key -> (sheet version, reserved_today, ra_used_today,
        # capacity, `_sheet_reads`) when its capacity was last computed
        self._available: dict[str, tuple] = {}
        self._next_order = 0
        self.carryover: list[SaleOrder] = []
        self.pending: list[PendingSettlement] = []
        self.day_excess: dict[DurationClass, Amount] = dict.fromkeys(DURATIONS, 0)
        self.day_fills: dict[DurationClass, Amount] = dict.fromkeys(DURATIONS, 0)
        self.day_submitted: dict[DurationClass, Amount] = dict.fromkeys(DURATIONS, 0)
        self.day_srf_draws: Amount = 0
        self.gross_volume: Amount = 0

    # -- capacity ---------------------------------------------------------

    @staticmethod
    def _sheet_reads(world: LedgerWorld, book: DealerBook) -> tuple[Amount, Amount]:
        """What a dealer's capacity reads off its sheet: `book.on_sheet`
        and its deposits."""
        return book.on_sheet(world), world.deposits(book.agent)

    def _dealer_available(self, world: LedgerWorld, book: DealerBook,
                          reads: tuple[Amount, Amount]) -> Amount:
        """The dealer's capacity, off `reads` (its `_sheet_reads`) and its
        book."""
        on_sheet, deposits = reads
        # `book.slr_report(world, self.slr_bound).headroom_assets`, off the fixed limit
        headroom = (max(0, self._limits[book.agent.key] - on_sheet - book.reserved_today)
                    + self._eslr_share)
        ra_left = max(0, book.config.reserve_access - book.ra_used_today)
        if self.policies.srf_enabled:
            cap = headroom if ra_left >= headroom else (headroom + ra_left) // 2
        else:
            cap = min(headroom, ra_left)
        if self.params.retention_frac > 0:
            affordable = deposits * MICRO // self.params.retention_frac
            cap = min(cap, affordable)
        return max(0, cap)

    def dealer_capacity(self, world: LedgerWorld) -> dict:
        """Dealer key -> fill volume that dealer can absorb right now.

        Every input of `_dealer_available` lies on the dealer's sheet,
        its book or the fixed market parameters, so a dealer whose sheet
        version and book day fields are unchanged keeps its last value;
        one whose sheet version alone is unchanged, as after a fill that
        drew no reserves, is recomputed from its last sheet reads.
        """
        out, available = {}, self._available
        for key, book in self.books.items():
            version = world.agents[key].version
            cached = available.get(key)
            if (cached is None or cached[0] != version or cached[1] != book.reserved_today
                    or cached[2] != book.ra_used_today):
                reads = (cached[4] if cached is not None and cached[0] == version
                         else self._sheet_reads(world, book))
                cached = available[key] = (version, book.reserved_today, book.ra_used_today,
                                           self._dealer_available(world, book, reads), reads)
            out[key] = cached[3]
        return out

    # -- clearing ------------------------------------------------------------

    def submit_sale(self, world: LedgerWorld, seller: AgentId, amount: Amount,
                    duration: DurationClass, purpose: str = "sale") -> Amount:
        """Clear one new order against today's remaining dealer capacity
        and return its fill; its `sale_cleared` row records the order.

        The fill is allocated across dealers pro rata by available
        capacity (largest remainder, ties by dealer id). The unfilled
        remainder is queued and resubmitted ahead of new orders on the
        next clearing day. A new order adds to the day's submitted
        (seller) volume and to gross volume; a resubmitted remainder
        does not, so it is not counted twice.
        """
        order = SaleOrder(seller, duration, amount, purpose)
        return self._clear(world, order, self.dealer_capacity(world), first_submission=True)

    def resubmit_carryover(self, world: LedgerWorld) -> None:
        """Clear the queued unfilled remainders, in queue order, as new
        orders that are not first submissions.

        Dealer capacity is read before the first order and again after
        each fill. Once a read sums to zero, the rest of the queue fills
        nothing: a zero fill writes no sheet and no book field, so the
        read stays exact. That tail is carried in one step: each order's
        row takes the next id and its remainder adds to the day's excess, the
        tail is queued again whole and its `sale_cleared` rows are logged
        as one batch, each the order's bound zero-fill row, built on the
        order's first zero fill at its remainder, and its id.
        """
        queued, self.carryover = self.carryover, []
        for i, order in enumerate(queued):
            avail = self.dealer_capacity(world)
            if not any(avail.values()):
                break
            self._clear(world, order, avail, first_submission=False)
        else:
            return
        tail, order_id, excess, events = queued[i:], self._next_order, self.day_excess, []
        for order in tail:
            excess[order.duration] += order.remaining
            row = order.row
            if row is None:   # the order's first zero fill at this remainder
                row = order.row = _SALE_CLEARED.bind(
                    seller=order.seller.key, duration=DURATION_NAME[order.duration],
                    requested=order.remaining, filled=0, unfilled=order.remaining,
                    purpose=order.purpose, first_submission=False)
            events.append((row, (order_id,)))
            order_id += 1
        self._next_order = order_id
        self.carryover += tail
        world.emit_all(events)

    def _clear(self, world: LedgerWorld, order: SaleOrder, avail: dict,
               first_submission: bool) -> Amount:
        """Clear `order`'s `remaining` against `avail`, each dealer's
        capacity right now, record it and return its fill."""
        seller, duration, amount = order.seller, order.duration, order.remaining
        fill = min(amount, sum(avail.values()))
        if fill:
            for key, alloc in _prorate(fill, avail).items():
                if alloc == 0:
                    continue
                book = self.books[key]
                ra_part = min(alloc, max(0, book.config.reserve_access - book.ra_used_today))
                draw = alloc - ra_part
                if draw > 0:
                    if not self.policies.srf_enabled:
                        raise MarketError("allocation beyond reserve access without SRF")
                    draw_srf(world, book, draw)
                    self.day_srf_draws += draw
                book.ra_used_today += ra_part
                book.reserved_today += alloc
                self.pending.append(PendingSettlement(
                    settle_day=world.day + 1, seller=seller, dealer=book.agent,
                    duration=duration, value=alloc))
        if first_submission:
            retention = mul_frac(amount, self.params.retention_frac)
            self.gross_volume += decompose(amount, retention).gross
            self.day_submitted[duration] += amount
        self._record(world, order, fill, first_submission)
        return fill

    def _record(self, world: LedgerWorld, order: SaleOrder, fill: Amount,
                first_submission: bool) -> None:
        """Log `order`'s `sale_cleared` under the next order id; queue what
        it left unfilled, dropping the zero-fill row of the remainder it had,
        and add it to the day's tallies."""
        order_id = self._next_order
        self._next_order = order_id + 1
        duration, amount = order.duration, order.remaining
        unfilled = amount - fill
        if unfilled > 0:
            if fill:
                order.remaining, order.row = unfilled, None
            self.carryover.append(order)
        self.day_excess[duration] += unfilled
        self.day_fills[duration] += fill
        world.emit_all([(_SALE_CLEARED, (order_id, order.seller.key, DURATION_NAME[duration],
                                         amount, fill, unfilled, order.purpose,
                                         first_submission))])

    # -- funding gaps -----------------------------------------------------------

    def funding_gap_liquidation(self, world: LedgerWorld, gap: Amount,
                                borrower: AgentId) -> None:
        """A declined repo roll forces the borrower to refinance or sell.

        The replacement fraction finds funding off-market; the residual
        is sold in the pledge mix of repo collateral, propagating stress
        to the long end.
        """
        replaced = mul_frac(gap, self.params.replacement_frac)
        residual = gap - replaced
        world.emit("funding_gap", borrower=borrower.key, gap=gap,
                   replaced=replaced, residual=residual)
        if residual <= 0:
            return
        allotted = 0
        for i, duration in enumerate(DURATIONS):
            if i == len(DURATIONS) - 1:
                part = residual - allotted
            else:
                part = mul_frac(residual, PLEDGE_MIX[duration])
            allotted += part
            if part > 0:
                self.submit_sale(world, borrower, part, duration, purpose="funding_gap")

    # -- settlement, impact, offload -------------------------------------------

    def settle_due(self, world: LedgerWorld, registry: RepoRegistry) -> dict:
        """Run T+1 settlement for yesterday's fills as one transfer batch.

        The retention slice lands on the dealer's book against its own
        deposits; the pass-through goes straight to the ultimate buyer,
        who pays the seller. Each settlement is sized on the free face
        the ones before it leave its seller, and one with none delivers
        nothing. A pass that raises leaves the world and the market
        untouched. Returns the cash each seller received, by seller key.
        """
        day = world.day
        due = [p for p in self.pending if p.settle_day <= day]
        batch = TransferBatch(world)
        prices, retention_frac, buyer = world.tbill_prices, self.params.retention_frac, self.buyer
        proceeds: dict[str, Amount] = {}
        for p in due:
            seller, duration = p.seller, p.duration
            price = prices[duration]
            face = min(mul_div(p.value, MICRO, price), registry.free_face(batch, seller, duration))
            if face <= 0:
                continue
            retention_face = mul_frac(face, retention_frac)
            got = deliver_tbills(batch, seller, p.dealer, duration, retention_face, price)
            got += deliver_tbills(batch, seller, buyer, duration, face - retention_face, price)
            if got:
                proceeds[seller.key] = proceeds.get(seller.key, 0) + got
                batch.events.append((_SALE_SETTLED, (seller.key, p.dealer.key,
                                                     DURATION_NAME[duration], got)))
        batch.commit()
        self.pending = [p for p in self.pending if p.settle_day > day]
        for p in due:
            book = self.books[p.dealer.key]
            book.reserved_today = max(0, book.reserved_today - p.value)
        return proceeds

    def unsettled(self, sellers) -> dict:
        """Seller key -> the value of its sales not yet settled, for each
        key of `sellers` with any: the unfilled remainders queued for the
        next clearing and the fills awaiting T+1 settlement."""
        out: dict[str, Amount] = {}
        for order in self.carryover:
            if (key := order.seller.key) in sellers:
                out[key] = out.get(key, 0) + order.remaining
        for p in self.pending:
            if (key := p.seller.key) in sellers:
                out[key] = out.get(key, 0) + p.value
        return out

    def price_impact(self, excess_flow: Amount, duration: DurationClass) -> int:
        """Fraction decline (micro) for flow beyond capacity.

        Negative values mean a price rise (bills under flight to
        safety).
        """
        if excess_flow <= 0:
            return 0
        if duration is DurationClass.BILL and self.params.flight_to_safety:
            return -mul_div(excess_flow, self.params.bill_safety_lift, self.params.depth)
        coeff = (self.params.impact_coeff_long if duration is DurationClass.LONG
                 else self.params.impact_coeff_bill)
        decline = mul_div(excess_flow, coeff, self.params.depth)
        return min(decline, self.params.max_dislocation_bp * BP)

    def apply_day_impact(self, world: LedgerWorld, registry: RepoRegistry) -> None:
        """Mark both duration classes off today's excess flow."""
        for duration in DURATIONS:
            decline = self.price_impact(self.day_excess[duration], duration)
            if decline != 0:
                mark_treasuries(world, registry, -decline, duration)

    def offload_inventory(self, world: LedgerWorld, registry: RepoRegistry) -> None:
        """Dealers distribute retained inventory on to ultimate buyers."""
        frac = self.params.offload_frac
        if frac <= 0:
            return
        batch = TransferBatch(world)
        for key, book in self.books.items():
            growth = world.tbill_value(book.agent) - book.inventory_baseline
            if growth <= 0:
                continue
            target = mul_frac(growth, frac)
            for duration in DURATIONS:
                if target <= 0:
                    break
                free_face = registry.free_face(batch, book.agent, duration)
                price = world.price(duration)
                face = min(free_face, mul_div(target, MICRO, price))
                target -= deliver_tbills(batch, book.agent, self.buyer, duration, face, price)
        batch.commit()

    def begin_day(self) -> None:
        for book in self.books.values():
            book.ra_used_today = 0
        self.day_excess = dict.fromkeys(DURATIONS, 0)
        self.day_fills = dict.fromkeys(DURATIONS, 0)
        self.day_submitted = dict.fromkeys(DURATIONS, 0)
        self.day_srf_draws = 0


def _prorate(total: Amount, shares: dict) -> dict:
    """Integer pro-rata split by share weight, largest remainder first;
    `0 < total <= sum(shares.values())`, so no share is exceeded."""
    weight = sum(shares.values())
    out = {k: 0 for k in shares}
    remainders = []
    assigned = 0
    for key in sorted(shares):
        exact = total * shares[key]
        base = exact // weight
        out[key] = base
        assigned += base
        remainders.append((-(exact % weight), key))
    leftover = total - assigned
    for _, key in sorted(remainders):
        if leftover <= 0:
            break
        room = shares[key] - out[key]
        take = min(room, leftover)
        out[key] += take
        leftover -= take
    return out
