"""Scenario execution: world construction, the daily loop, outputs.

The daily phase order is frozen for reproducibility; run() calls each
of PHASES, in this order, as phase(scenario, day):

  1. _open_day           shocks and scheduled corrective burns
  2. _accrue             securities and deposit interest, operating cost
  3. _redemption_demand  redemption demand and request intake
  4. _mint_demand        mint demand
  5. _interventions      par-policy intervention
  6. _plan               funding committed, sale instructions produced
  7. _settle_legs        legs due: T+1 sale settlement, dealer offload,
                         repo second legs with declines, funded payouts
  8. _clear_market       carryover first, then today's orders, then
                         funding-gap liquidations; price impact on marks
  9. _drain_queues       mint settlement, payout drain, delay sweep
 10. _update_prices      secondary price update per issuer
 11. _emit_rows          analytics, audit, row emission

Identical configuration and seed give byte-identical outputs: agents
are canonicalized by name, every iteration is over sorted keys, the
only randomness is the fixed SplitMix64 stream, and all emitted
numbers are integers. The summary's redemption totals, peak deviation,
seller volume and facility draws are folds of the daily and market rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from . import analytics
from .config import ScenarioConfig, ValidationError, parse_config
from .dynamics import (ConfidenceState, InterventionResult, ShockState, apply_shock,
                       redemption_demand, run_corrective_burns, update_secondary_price)
from .instruments import InsufficientCollateral, RepoRegistry, open_reverse_repo
from .ledger import (DURATION_NAME, DURATIONS, FED, AgentId, AgentKind, DurationClass,
                     EventLog, LedgerWorld, TransferBatch, deposit_key, reserves_key)
from .market import DealerBook, Market
from .money import BP, MICRO, PAR, Amount, mul_div, mul_frac
from .rng import SplitMix64
from .settlement import (AccessMode, IssuerBook, MintDeclined, Route,
                         SettlementEngine, intervene)


class AuditFailure(Exception):
    def __init__(self, day: int, report):
        self.day = day
        self.report = report
        fails = "; ".join(f"{c.name}@{c.agent}: {c.detail}" for c in report.failures())
        super().__init__(f"audit failed on day {day}: {fails}")


class UnpledgeableRepo(ValidationError, InsufficientCollateral):
    """A dealer that cannot pledge the collateral for its share of an
    issuer's repo allocation when the world is built: the config parses
    but cannot be run, and the message names the dealer's config path."""

    def __init__(self, dealer: str, issuer: str, share: Amount, err: InsufficientCollateral):
        Exception.__init__(self, f"agents.dealers[{dealer}]: pledges {err.pledged}, needs "
                                 f"{err.need} for its share {share} of "
                                 f"agents.issuers[{issuer}].allocation.repo")
        self.pledged, self.need = err.pledged, err.need


DAILY_FIELDS = ("day", "agent", "kind", "price", "coins", "requested",
                "completed", "delayed", "overdue", "capacity", "slr",
                "headroom", "ratio", "band", "dla", "wla", "wam", "wal")
MARKET_FIELDS = ("day", "class", "price", "submitted", "fills", "unfilled",
                 "capacity", "srf_draws")


@dataclass
class RunOutput:
    """A run's outputs. analytics.csv is daily.csv's rows projected onto
    `ANALYTICS_FIELDS`."""

    daily_rows: list
    market_rows: list
    summary: dict
    events: EventLog

    def daily_csv(self) -> str:
        return _csv(DAILY_FIELDS, self.daily_rows)

    def market_csv(self) -> str:
        return _csv(MARKET_FIELDS, self.market_rows)

    def analytics_csv(self) -> str:
        return _csv(analytics.ANALYTICS_FIELDS, self.daily_rows, project=True)

    def summary_json(self) -> str:
        return json.dumps(self.summary, sort_keys=True, indent=2) + "\n"

    def events_jsonl(self) -> str:
        return "".join(self.events.lines())

    def write(self, out_dir) -> None:
        """Write the five files with the bytes of the string methods; the
        CSVs and events are streamed through the writers those render
        into."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, fields, rows, project in (
                ("daily.csv", DAILY_FIELDS, self.daily_rows, False),
                ("market.csv", MARKET_FIELDS, self.market_rows, False),
                ("analytics.csv", analytics.ANALYTICS_FIELDS, self.daily_rows, True)):
            with open(out / name, "w") as f:
                _write_csv(f, fields, rows, project)
        (out / "summary.json").write_text(self.summary_json())
        with open(out / "events.jsonl", "w") as f:
            f.writelines(self.events.lines())


def _write_csv(out, fields, rows, project: bool = False) -> None:
    """Write `rows`, a list of dicts, as CSV under the header `fields`. Each row must
    hold exactly those keys, or ValueError is raised before anything is
    written; a projection takes `fields` from rows that hold more."""
    if not project:
        header = set(fields)
        for row in rows:
            if row.keys() != header:
                raise ValueError(f"row fields {sorted(row.keys() ^ header)} differ from the header")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(map(itemgetter(*fields), rows))


def _csv(fields, rows, project: bool = False) -> str:
    buf = io.StringIO()
    _write_csv(buf, fields, rows, project)
    return buf.getvalue()


@dataclass
class Scenario:
    """Everything a run owns; built fresh per scenario point."""

    config: ScenarioConfig
    world: LedgerWorld
    registry: RepoRegistry
    market: Market
    settle: SettlementEngine
    agent_of: dict
    intermediaries: list          # the registered intermediaries, in key order
    shock_state: ShockState
    rng: SplitMix64
    mint_target: AgentId          # receives an uncontrolled-supply shock's coins
    # the day's hand-offs: the phase that writes each -> the phases that read it
    suspended: set = field(default_factory=set)          # 1 _open_day -> 3-7, 9
    instructions: list = field(default_factory=list)     # 6 _plan -> 8
    gaps: list = field(default_factory=list)             # 7 _settle_legs -> 8
    dealer_capacity: dict = field(default_factory=dict)  # 8 _clear_market -> 11
    daily_rows: list = field(default_factory=list)
    market_rows: list = field(default_factory=list)


def _endow_deposits(world: LedgerWorld, agent: AgentId, amount: Amount) -> None:
    """Create a deposit funded by reserves, backed by an outside claim."""
    bank = world.bank_of(agent)
    world.post({(FED.key, "A", "govt"): amount,
                (FED.key, "L", reserves_key(bank)): amount,
                (bank.key, "A", reserves_key()): amount,
                (bank.key, "L", deposit_key(agent)): amount,
                (agent.key, "A", deposit_key(bank)): amount})


def build_scenario(config: ScenarioConfig) -> Scenario:
    """The audited genesis world of `config`. One walk over the owners,
    holders first, fills each issuer's coin posting after its `coins` owed."""
    world = LedgerWorld()
    world.add_agent(FED)

    agent_of: dict[str, AgentId] = {}
    for i, name in enumerate(config.banks):
        agent = AgentId(AgentKind.BANK, i)
        world.add_agent(agent)
        agent_of[name] = agent

    def register(kind: AgentKind, entries) -> list:
        out = []
        for i, entry in enumerate(entries):
            agent = AgentId(kind, i)
            world.add_agent(agent, bank=agent_of[entry.bank])
            agent_of[entry.name] = agent
            out.append(agent)
        return out

    issuer_agents = register(AgentKind.ISSUER, config.issuers)
    dealer_agents = register(AgentKind.BROKER_DEALER, config.dealers)
    intermediaries = sorted(register(AgentKind.INTERMEDIARY, config.intermediaries))
    holder_agents = register(AgentKind.HOLDER, config.holders)
    buyer_agents = register(AgentKind.TREASURY_BUYER, config.treasury_buyers)

    registry = RepoRegistry()

    for cfg, agent in zip(config.dealers + config.treasury_buyers,
                          dealer_agents + buyer_agents):
        if cfg.deposits:
            _endow_deposits(world, agent, cfg.deposits)
        if cfg.treasuries_bill:
            world.grant_tbill(agent, DurationClass.BILL, cfg.treasuries_bill)
        if cfg.treasuries_long:
            world.grant_tbill(agent, DurationClass.LONG, cfg.treasuries_long)
    for cfg in config.intermediaries + config.holders:
        if cfg.deposits:
            _endow_deposits(world, agent_of[cfg.name], cfg.deposits)

    coin_keys, coin_legs = {}, {}   # issuer name -> its coin key; its legs
    for cfg, agent in zip(config.issuers, issuer_agents):
        coin_keys[cfg.name] = key = world.coin_keys[agent.key]
        coin_legs[cfg.name] = {(agent.key, "L", key): cfg.coins}
    for cfg in config.holders + config.intermediaries:
        owner = agent_of[cfg.name].key
        for name, amount in cfg.coins.items():
            if amount:
                coin_legs[name][(owner, "A", coin_keys[name])] = amount
    issuer_books: dict[str, IssuerBook] = {}
    for cfg, agent in zip(config.issuers, issuer_agents):
        if funds := cfg.allocation["deposits"] + cfg.allocation["repo"]:
            _endow_deposits(world, agent, funds)
        if cfg.allocation["bills"]:
            world.grant_tbill(agent, DurationClass.BILL, cfg.allocation["bills"])
        world.post(coin_legs[cfg.name])
        issuer_books[agent.key] = IssuerBook(agent, cfg, run_model=config.run_model.build(),
                                             confidence=ConfidenceState())
        # parse_config guarantees at least one dealer to borrow the repo
        share, extra = divmod(cfg.allocation["repo"], len(dealer_agents))
        repos = TransferBatch(world)
        for k, (dealer, dealer_cfg) in enumerate(zip(dealer_agents, config.dealers)):
            amount = share + (1 if k < extra else 0)
            if amount > 0:
                try:
                    open_reverse_repo(repos, registry, agent, dealer, amount,
                                      config.rates.haircut, config.rates.repo_rate_daily)
                except InsufficientCollateral as err:
                    raise UnpledgeableRepo(dealer_cfg.name, cfg.name, amount, err) from err
        repos.commit()

    books = {agent.key: DealerBook(agent, cfg, inventory_baseline=world.tbill_value(agent))
             for cfg, agent in zip(config.dealers, dealer_agents)}
    market = Market(config.market, config.policies, books, buyer_agents[0])
    settle = SettlementEngine(world, registry, issuer_books, config.rates, config.policies)

    report = world.audit_changes()  # the full audit; a pass starts the change log
    if not report.ok:
        raise AuditFailure(-1, report)
    return Scenario(
        config=config, world=world, registry=registry, market=market,
        settle=settle, agent_of=agent_of, intermediaries=intermediaries,
        shock_state=ShockState(), rng=SplitMix64(config.seed),
        mint_target=holder_agents[0] if holder_agents else buyer_agents[0])


# ---------------------------------------------------------------------------
# Daily helpers
# ---------------------------------------------------------------------------


def _coin_holders(scn: Scenario, book: IssuerBook):
    """Coin-holding agents with coins of `book`'s issuer left to redeem,
    in key order, as `(agent, coins held less those its open requests at
    the issuer have left unpaid)`; lazy, so a caller that stops early
    looks at no more of them. No coins may move during the walk. Coins
    reach only holders, intermediaries and the Treasury buyer, so every
    agent in the coin-holder index is one of them."""
    world = scn.world
    coin, agents, promised = world.coin_keys[book.agent.key], world.agents, {}
    for r in book.open:
        promised[r.holder.key] = promised.get(r.holder.key, 0) + r.remaining
    for key in world.coin_holders.get(coin, ()):
        if (coins := agents[key].assets.get(coin, 0) - promised.get(key, 0)) > 0:
            yield world.ids[key], coins


def _slices(amount: Amount, holders) -> tuple[list, Amount]:
    """Slice `amount` across `holders`, `(agent, coins)` pairs in order,
    each giving up to its coins; returns the slices and their sum."""
    slices, placed = [], 0
    for holder, coins in holders:
        if placed >= amount:
            break
        slice_ = amount - placed
        if slice_ > coins:
            slice_ = coins
        slices.append((holder, slice_))
        placed += slice_
    return slices, placed


def _redeem_from_holders(scn: Scenario, book: IssuerBook, amount: Amount,
                         route: Route, is_intervention: bool = False) -> Amount:
    """Queue redemptions of up to `amount`, sliced across coin holders in
    key order, each giving its coins not yet promised, as one batch; returns
    the amount placed."""
    slices, placed = _slices(amount, _coin_holders(scn, book))
    scn.settle.submit_redemptions(book, slices, route, is_intervention)
    return placed


def _route_demand(scn: Scenario, book: IssuerBook, demand: Amount) -> None:
    """Turn demand into redemption requests per the access mode."""
    if demand <= 0:
        return
    issuer = book.agent
    world = scn.world
    direct = scn.config.policies.access_mode is AccessMode.DIRECT
    if book.config.chain in scn.suspended:
        # intent exists but nothing can move on-chain; it queues
        route = Route.DIRECT if direct else Route.VIA_INTERMEDIARY
        _redeem_from_holders(scn, book, demand, route)
        book.day_unserved += demand
        return
    if direct:
        book.day_unserved += demand - _redeem_from_holders(scn, book, demand,
                                                           Route.DIRECT)
        return
    # intermediated: the market maker buys at the secondary price, then
    # either redeems at par or warehouses the coins
    price = book.confidence.secondary_price
    remaining = demand
    for im in scn.intermediaries:
        if remaining <= 0:
            break
        funds = world.deposits(im)
        afford = funds * MICRO // price  # ConfidenceState keeps the price positive
        budget = min(remaining, afford)
        slices, bought = _slices(budget, ((h, c) for h, c in _coin_holders(scn, book)
                                          if h.kind is not AgentKind.INTERMEDIARY))
        for holder, slice_ in slices:
            # payments round half to even and may sum past the funds: cap them
            paid = min(mul_frac(slice_, price), funds)
            world.transfer_deposit(im, holder, paid)
            funds -= paid
            world.transfer_coin(holder, im, issuer, slice_)
        if bought > 0 and scn.config.policies.intermediary_mode == "redeem":
            scn.settle.submit_redemptions(book, [(im, bought)], Route.DIRECT)
        elif bought > 0:
            world.emit("warehoused", intermediary=im.key, issuer=issuer.key,
                       amount=bought)
        remaining -= bought
    book.day_unserved += remaining


def _fed_bill_purchase(scn: Scenario, issuer: AgentId, value: Amount) -> Amount:
    """Issuer reserve access: bills monetized at the central bank, same day."""
    world = scn.world
    price = world.price(DurationClass.BILL)
    free = scn.registry.free_face(world, issuer, DurationClass.BILL)
    face = min(free, value * MICRO // price)
    if face <= 0:
        return 0
    moved = world.transfer_tbill(issuer, FED, DurationClass.BILL, face=face)
    # paid in new reserves; the bills are the Fed's asset, so no outside claim
    bank = world.bank_of(issuer)
    world.post({(FED.key, "L", reserves_key(bank)): moved,
                (bank.key, "A", reserves_key()): moved,
                (bank.key, "L", deposit_key(issuer)): moved,
                (issuer.key, "A", deposit_key(bank)): moved})
    world.emit("reserve_access_sale", issuer=issuer.key, proceeds=moved)
    return moved


def _issuer_holdings(world: LedgerWorld, book: IssuerBook, repos: list, day: int) -> list:
    """The issuer's `(value, days to maturity)` holdings on `day`, the
    input of `analytics.holdings_liquidity`: its deposits as demand money
    (one day), its repos to their second leg, its bills at their
    configured maturity and its long Treasuries at five years."""
    agent, prices = book.agent, world.tbill_prices
    deposits = world.deposits(agent)
    holdings = [(deposits, 1)] if deposits > 0 else []
    holdings += [(p.principal, max(1, p.second_leg_day - day)) for p in repos]
    for duration, maturity in ((DurationClass.BILL, book.config.bill_maturity_days),
                               (DurationClass.LONG, 365 * 5)):
        if (face := world.face_of(agent, duration)) > 0:
            holdings.append((mul_frac(face, prices[duration]), max(1, maturity - day)))
    return holdings


# ---------------------------------------------------------------------------
# The daily phases
# ---------------------------------------------------------------------------


def _open_day(scn: Scenario, day: int) -> None:
    """Phase 1: reset the day, apply its shocks and due corrective burns;
    notes the chains halted today."""
    world = scn.world
    world.day = day
    scn.market.begin_day()
    scn.settle.begin_day()
    for spec in scn.config.shocks:   # in (day, class, chain) order from parse_config
        if spec.day == day:
            apply_shock(spec, world, scn.shock_state, scn.settle.issuers, scn.mint_target,
                        scn.rng, scn.config.price_model)
    run_corrective_burns(world, scn.shock_state)
    scn.suspended = scn.shock_state.suspended_chains(day)


def _accrue(scn: Scenario, day: int) -> None:
    """Phase 2: interest on opening balances, then operating costs."""
    rates = scn.config.rates
    world = scn.world
    for key, book in scn.settle.issuers.items():
        agent = book.agent
        bank = world.bank_of(agent)
        # both legs accrue on start-of-day balances; rates were fixed at
        # the period open, so nothing compounds within the day
        opening_deposits = world.deposits(agent)
        if rates.treasury_rate_daily > 0:
            interest = mul_frac(world.tbill_value(agent), rates.treasury_rate_daily)
            if interest > 0:
                _endow_deposits(world, agent, interest)
        if rates.deposit_rate_daily > 0:
            interest = mul_frac(opening_deposits, rates.deposit_rate_daily)
            if interest > 0:
                world.post({(bank.key, "L", deposit_key(agent)): interest,
                            (agent.key, "A", deposit_key(bank)): interest})
        cost = book.config.operating_cost_per_day
        if cost > 0:
            paid = min(cost, world.deposits(agent))
            if paid > 0:
                world.post({(agent.key, "A", deposit_key(bank)): -paid,
                            (bank.key, "L", deposit_key(agent)): -paid})
                world.emit("operating_cost", issuer=key, amount=paid)


def _redemption_demand(scn: Scenario, day: int) -> None:
    """Phase 3: each issuer's run-model demand, routed to coin holders."""
    for key, book in scn.settle.issuers.items():
        model, conf = book.run_model, book.confidence
        if (age := scn.settle.queue_age(book)) != conf.pending_delay_age:
            conf = book.confidence = ConfidenceState(conf.secondary_price, age)
        prior = model.sensitivity_state
        coins = scn.world.coins_outstanding(book.agent)
        demand = redemption_demand(model, conf, coins)
        if model.sensitivity_state is not prior:
            scn.world.emit("regime_flip", issuer=key,
                           state=model.sensitivity_state.value)
        _route_demand(scn, book, demand)


def _mint_demand(scn: Scenario, day: int) -> None:
    """Phase 4: buyers ask each live issuer for a share of its coins."""
    rate = scn.config.mint_daily_rate
    if rate <= 0:
        return
    for key, book in scn.settle.issuers.items():
        if book.config.chain in scn.suspended:
            continue
        amount = mul_frac(scn.world.coins_outstanding(book.agent), rate)
        if amount > 0:
            try:
                scn.settle.submit_mint(book, scn.market.buyer, amount,
                                       book.confidence.secondary_price)
            except MintDeclined as err:
                scn.world.emit("mint_declined", issuer=key, cause=str(err))


def _interventions(scn: Scenario, day: int) -> None:
    """Phase 5: each live issuer's par policy buys coins back from its
    holders, in key order, when the price is below its corridor."""
    policy = scn.config.policies.par_policy
    for key, book in scn.settle.issuers.items():
        if book.config.chain in scn.suspended:
            continue
        buyback = intervene(policy, book.confidence.secondary_price, scn.world, book.agent)
        if buyback is None:
            continue
        amount, book.pin_target = buyback
        placed = _redeem_from_holders(scn, book, amount, Route.DIRECT, is_intervention=True)
        book.day_int_buy_requested += placed
        scn.world.emit("intervention", issuer=key, kind="buy", requested=amount,
                       placed=placed, target=book.pin_target)


def _plan(scn: Scenario, day: int) -> None:
    """Phase 6: commit funding; notes the bill sales for the dealer market."""
    instructions = scn.settle.plan_pending(scn.suspended, scn.market.unsettled(scn.settle.issuers))
    if scn.config.policies.issuer_reserve_access:
        # bills monetize at the central bank instead of the dealer market
        for instr in instructions:
            proceeds = _fed_bill_purchase(scn, instr.issuer, instr.amount)
            scn.settle.credit_proceeds({instr.issuer.key: proceeds})
        instructions = []
    scn.instructions = instructions


def _settle_legs(scn: Scenario, day: int) -> None:
    """Phase 7: legs due today; notes the funding gaps of declined rolls."""
    settlements = scn.market.settle_due(scn.world, scn.registry)
    scn.settle.credit_proceeds(settlements)
    scn.market.offload_inventory(scn.world, scn.registry)
    scn.gaps = scn.settle.process_repo_legs()
    scn.settle.payout_pass(scn.suspended)


def _clear_market(scn: Scenario, day: int) -> None:
    """Phase 8: clear carryover, today's sales and gap liquidations, then
    mark prices; notes each dealer's capacity before clearing."""
    world, market = scn.world, scn.market
    scn.dealer_capacity = market.dealer_capacity(world)
    market.resubmit_carryover(world)
    for instr in scn.instructions:
        market.submit_sale(world, instr.issuer, instr.amount, DurationClass.BILL,
                           purpose="redemption")
    for gap in scn.gaps:
        market.funding_gap_liquidation(world, gap.amount, gap.borrower)
    market.apply_day_impact(world, scn.registry)


def _drain_queues(scn: Scenario, day: int) -> None:
    """Phase 9: settle mints, pay what today's cash funds, flag delays."""
    scn.settle.mint_pass(scn.suspended, scn.market.buyer)
    scn.settle.payout_pass(scn.suspended)
    scn.settle.sweep_delay_flags()


def _update_prices(scn: Scenario, day: int) -> None:
    """Phase 10: each issuer's secondary price from overdue and unserved
    redemptions, shocks and executed interventions."""
    for key, book in scn.settle.issuers.items():
        coins = scn.world.coins_outstanding(book.agent)
        overdue = scn.settle.overdue_amount(book) + book.day_unserved
        shock_eff = scn.shock_state.price_effects.pop(key, 0)
        completed = book.day_int_buy_completed
        # a day with nothing completed has no intervention to price
        intervention = InterventionResult(
            requested=max(book.day_int_buy_requested, completed),
            completed=completed, pin_target=book.pin_target) if completed else None
        book.confidence = update_secondary_price(book.confidence, overdue, coins, shock_eff,
                                                 scn.config.policies.access_mode,
                                                 intervention=intervention,
                                                 params=scn.config.price_model)
        book.peak_txn = max(book.peak_txn, book.day_completed + book.day_minted)


def _emit_rows(scn: Scenario, day: int) -> None:
    """Phase 11: audit the world, then append the day's output rows. The
    last day walks every sheet, which also catches a write that went
    round the ledger's change log; the others check what changed."""
    world = scn.world
    last = day == scn.config.horizon_days - 1
    report = world.audit() if last else world.audit_changes()
    if not report.ok:
        raise AuditFailure(day, report)
    for key, book in scn.settle.issuers.items():
        agent = book.agent
        sheet = world.sheet(agent)
        assets = sheet.total_assets()
        repos = scn.registry.by_lender(agent)
        if book.config.count_excess_collateral:
            assets += sum(max(0, p.collateral_value(world) - p.principal) for p in repos)
        coins = world.coins_outstanding(agent)
        lev = analytics.leverage_ratio(assets, coins) if assets > 0 else None
        liq = analytics.holdings_liquidity(_issuer_holdings(world, book, repos, day))
        if sheet.equity < 0 and book.insolvency_day is None:
            book.insolvency_day = day
            world.emit("insolvent", issuer=key, equity=sheet.equity)
        scn.daily_rows.append({
            "day": day, "agent": book.config.name, "kind": "issuer",
            "price": book.confidence.secondary_price,
            "coins": coins,
            "requested": book.day_requested,
            "completed": book.day_completed,
            "delayed": book.delayed_total,
            "overdue": scn.settle.overdue_amount(book),
            "capacity": "",
            "slr": "", "headroom": "",
            "ratio": lev.ratio if lev else "",
            "band": lev.band.value if lev else "",
            "dla": liq.dla_frac, "wla": liq.wla_frac,
            "wam": liq.wam_days, "wal": liq.wal_days,
        })
    for dealer_key, book in scn.market.books.items():
        slr_rep = book.slr_report(world, scn.market.slr_bound)
        scn.daily_rows.append({
            "day": day, "agent": book.config.name, "kind": "dealer",
            "price": "", "coins": "", "requested": "", "completed": "",
            "delayed": "", "overdue": "",
            "capacity": scn.dealer_capacity[dealer_key],
            "slr": slr_rep.slr, "headroom": slr_rep.headroom_assets,
            "ratio": "", "band": "", "dla": "", "wla": "", "wam": "", "wal": "",
        })
    capacity = sum(scn.dealer_capacity.values())
    for duration in DURATIONS:
        scn.market_rows.append({
            "day": day, "class": DURATION_NAME[duration],
            "price": world.price(duration),
            "submitted": scn.market.day_submitted[duration],
            "fills": scn.market.day_fills[duration],
            "unfilled": scn.market.day_excess[duration],
            "capacity": capacity,
            "srf_draws": scn.market.day_srf_draws,
        })


PHASES = (_open_day, _accrue, _redemption_demand, _mint_demand, _interventions, _plan,
          _settle_legs, _clear_market, _drain_queues, _update_prices, _emit_rows)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def run(config: ScenarioConfig, on_day_end=None) -> RunOutput:
    """Execute the scenario; on_day_end(scenario, day) is a test hook
    called after each day's audit."""
    scn = build_scenario(config)
    for day in range(config.horizon_days):
        for phase in PHASES:
            phase(scn, day)
        if on_day_end is not None:
            on_day_end(scn, day)
    scn.daily_rows.sort(key=lambda r: (r["day"], r["agent"]))
    return RunOutput(daily_rows=scn.daily_rows, market_rows=scn.market_rows,
                     summary=_summarize(scn), events=scn.world.events)


def _summarize(scn: Scenario) -> dict:
    config = scn.config
    world = scn.world
    canonical = config.canonical_json()
    # issuer name -> [requested, completed, largest distance from par] of its rows
    folds = {book.config.name: [0, 0, 0] for book in scn.settle.issuers.values()}
    for row in scn.daily_rows:
        if row["kind"] == "issuer":
            fold = folds[row["agent"]]
            fold[0] += row["requested"]
            fold[1] += row["completed"]
            fold[2] = max(fold[2], PAR - row["price"])
    issuers = {}
    for book in scn.settle.issuers.values():
        requested, completed, deviation = folds[book.config.name]
        incentive = None
        if config.attack_cost:
            # diagnostic only: peak daily transacted value per unit of
            # attack cost, in micro units
            incentive = mul_div(book.peak_txn, MICRO, config.attack_cost)
        issuers[book.config.name] = {
            "peak_deviation_bp": deviation // BP,
            "max_delay_days": book.max_delay_days,
            "insolvency_day": book.insolvency_day,
            "requested_total": requested,
            "completed_total": completed,
            "delayed_total": book.delayed_total,
            "minted_total": book.total_minted,
            "final_coins": world.coins_outstanding(book.agent),
            "final_price": book.confidence.secondary_price,
            "final_equity": world.sheet(book.agent).equity,
            "attack_incentive_ratio": incentive,
        }
    return {
        "schema": "stablesim.summary/1",
        "seed": config.seed,
        "horizon_days": config.horizon_days,
        "unit_scale": config.unit_scale,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "issuers": issuers,
        "market": {
            "seller_volume": sum(row["submitted"] for row in scn.market_rows),
            "gross_volume": scn.market.gross_volume,
            # each day's draws repeat on every class's row
            "srf_draws_total": sum(row["srf_draws"] for row in scn.market_rows[::len(DURATIONS)]),
            "capacity_day0": scn.market_rows[0]["capacity"],
            "final_price_bill": world.price(DurationClass.BILL),
            "final_price_long": world.price(DurationClass.LONG),
        },
    }


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    index: int
    overrides: dict
    summary: dict | None
    error: str | None


@dataclass
class SweepReport:
    points: list

    def matrix_rows(self) -> list:
        rows = []
        for point in self.points:
            row = {"point": point.index,
                   "params": json.dumps(point.overrides, sort_keys=True),
                   "status": "ok" if point.error is None else "error",
                   "error": point.error or ""}
            if point.summary:
                market = point.summary["market"]
                row["capacity_day0"] = market["capacity_day0"]
                row["gross_volume"] = market["gross_volume"]
                row["srf_draws_total"] = market["srf_draws_total"]
                peak = max((v["peak_deviation_bp"]
                            for v in point.summary["issuers"].values()), default=0)
                delayed = sum(v["delayed_total"]
                              for v in point.summary["issuers"].values())
                row["peak_deviation_bp"] = peak
                row["delayed_total"] = delayed
            else:
                row.update({"capacity_day0": "", "gross_volume": "",
                            "srf_draws_total": "", "peak_deviation_bp": "",
                            "delayed_total": ""})
            rows.append(row)
        return rows

    def matrix_csv(self) -> str:
        fields = ("point", "params", "status", "error", "capacity_day0",
                  "gross_volume", "srf_draws_total", "peak_deviation_bp",
                  "delayed_total")
        return _csv(fields, self.matrix_rows())


def _set_path(raw: dict, dotted: str, value) -> None:
    """Set `value` at the dotted path, adding the objects it lacks; a
    segment on the way that holds anything but an object fails."""
    *parents, last = dotted.split(".")
    node = raw
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValidationError(f"{dotted}: {part} is not an object")
    node[last] = value


def sweep(raw_config: dict, grid: dict, out_dir=None) -> SweepReport:
    """Run the Cartesian product of grid values over a base config.

    Each point is an independent run of the overridden configuration; a
    point that fails to parse or run is recorded as an error without
    aborting the sweep. With `out_dir`, each run's outputs are written
    after it is recorded, and an `OSError` writing them ends the sweep.
    An empty grid runs the baseline once.
    """
    keys = sorted(grid)
    values = [grid[k] for k in keys]
    combos = list(itertools.product(*values)) if keys else [()]
    points = []
    for index, combo in enumerate(combos):
        overrides = dict(zip(keys, combo))
        raw = json.loads(json.dumps(raw_config))
        try:
            for dotted, value in overrides.items():
                _set_path(raw, dotted, value)
            output = run(parse_config(raw))
        except Exception as err:  # per-point isolation is the contract
            points.append(SweepPoint(index, overrides, None,
                                     f"{type(err).__name__}: {err}"))
            continue
        points.append(SweepPoint(index, overrides, output.summary, None))
        if out_dir is not None:
            output.write(Path(out_dir) / f"point_{index:03d}")
    report = SweepReport(points)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "matrix.csv").write_text(report.matrix_csv())
    return report
