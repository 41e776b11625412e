"""Double-entry balance-sheet substrate for every agent in a simulation.

Each agent carries an asset map, a liability map and a stored equity
figure that the posting engine maintains. Only ``LedgerWorld.post``
writes a balance, and it writes balances only: it takes the legs summed
per position, ``{(agent key, side, key): delta}``, and logs no event (a
rail that logs one emits it after its post). It validates every leg
before applying any of them, so a failed posting leaves the world
byte-identical, bumps the written sheets' ``version`` and, once
``audit_changes`` has started the change log, logs their deltas, so that
check reads only what changed since its last call. Each settlement rail
has one method that posts all of its legs: ``transfer_deposit``,
``transfer_coin`` (mint, burn or transfer) and ``transfer_tbill``; the
credit rails ``create_deposits``, ``credit_from_bank``, ``draw_srf`` and
``issue_coins`` write what no transfer moves, so no other module calls
``post``. ``redeem_coins`` is the batch form of a coin burn followed by
a deposit payment, for many holders of one issuer; ``TransferBatch``
holds the deposit, Treasury and repo rails, stages payments, deliveries
and repo legs against running balances and writes them with one post
(``transfer_deposit`` and ``transfer_tbill`` are a batch of one); the
Treasury re-mark ``remark_tbills`` posts its re-valuations too. This
module owns the instrument-key format ``"<kind>@<counterparty>"``, built
by ``deposit_key``, ``reserves_key``, ``repo_key``, ``srf_key``,
``coin_key`` or ``tbill_key``. Each issuer's coin key is kept from its
registration, and each agent's deposit legs and its bank's reserve legs
from their first use, so the payment rails stage stored legs, each read
once per payment; ``deposits`` and ``coins_outstanding`` are the readers
of those balances. Events are logged in the batches their rails build,
each event ``(form, values)`` of its schema (`event_form`), or, for rows
bound but for a running number (``emit_numbered``), sliced into a batch
from the rows and the first number; the log keeps each
batch as one flat list, each event's schema followed by its values, and
each schema takes one writer, on its first rendered event, that renders
an event as its JSON line. A bound schema (``_Form.bind``) fixes some
fields: its events carry only the others, and its writer joins their
text with the fixed fields' JSON text, rendered once, so a row that
repeats all but a few values (a carried sale's, all but its order id)
costs only those.

Inside-money instruments (reserves, deposits, stablecoins, repo and
SRF claims) always appear on exactly two balance sheets with equal
amounts. Treasuries and the central bank's government claim are
outside assets with no matching liability. Treasury positions are
tracked as face amounts per duration class in ``tbill_face``; the
balance-sheet entry carries the market value at the current class
price and is re-derived on every mark. One private checker audits all
of this, fed two ways: ``audit`` passes it every sheet in key order,
``audit_changes`` the sheets and legs written since its last call, each
deposit, repo or SRF position as it stands, for the checker to match.
"""

from __future__ import annotations

import bisect
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .money import mul_frac


class LedgerError(Exception):
    pass


class UnknownAgent(LedgerError):
    pass


class InsufficientPosition(LedgerError):
    def __init__(self, agent: str, key: str, have: int, need: int):
        super().__init__(f"{agent} holds {have} of {key}, needs {need}")
        self.agent = agent
        self.key = key
        self.have = have
        self.need = need


class AgentKind(Enum):
    FED = "fed"
    BANK = "bank"
    BROKER_DEALER = "dealer"
    ISSUER = "issuer"
    INTERMEDIARY = "intermediary"
    HOLDER = "holder"
    TREASURY_BUYER = "buyer"


@dataclass(frozen=True, order=True)
class AgentId:
    kind: AgentKind = field(compare=False)
    index: int = field(compare=False)
    key: str = field(init=False)

    def __post_init__(self):
        # the member's `_value_` is what the Python-level `.value` property
        # reads; a thousand-holder world builds a thousand ids
        object.__setattr__(self, "key", f"{self.kind._value_}:{self.index}")

    def __str__(self) -> str:
        return self.key


FED = AgentId(AgentKind.FED, 0)


class DurationClass(Enum):
    BILL = "bill"
    LONG = "long"

    # members are singletons: hash by identity in C, not through the
    # Python-level `Enum.__hash__`, on the hot enum-keyed dicts
    __hash__ = object.__hash__


# the classes in value order, the order every per-class walk takes
DURATIONS = tuple(sorted(DurationClass, key=lambda d: d.value))
# each class's value and Treasury key, read without the Python-level enum
# descriptor behind `.value`
DURATION_NAME = {d: d.value for d in DURATIONS}
_TBILL_KEY = {d: f"tbill/{d.value}" for d in DURATIONS}


def deposit_key(cpty: AgentId) -> str:
    """A deposit at bank `cpty`, or a bank's deposit owed to holder `cpty`."""
    return "deposit@" + cpty.key


def reserves_key(cpty: AgentId = FED) -> str:
    """Reserves held at the central bank, or its reserves owed to bank `cpty`."""
    return "reserves@" + cpty.key


def repo_key(cpty: AgentId) -> str:
    return "repo@" + cpty.key


def srf_key(cpty: AgentId) -> str:
    return "srf@" + cpty.key


def coin_key(issuer: AgentId) -> str:
    return "coin@" + issuer.key


def tbill_key(duration: DurationClass) -> str:
    return _TBILL_KEY[duration]


class _KeyParts(dict):
    """Instrument key -> `(kind, counterparty key)`, each key parsed on its
    first lookup; a key with no counterparty (a Treasury class, the
    central bank's government claim) maps to None."""

    __slots__ = ()

    def __missing__(self, key: str):
        kind, sep, cpty = key.partition("@")
        parts = self[key] = (kind, cpty) if sep else None
        return parts


_BILL_KEY, _LONG_KEY = _TBILL_KEY.values()   # in `DURATIONS` order


def treasury_value(assets: dict) -> int:
    """The market value of the Treasuries in `assets`, every class."""
    return assets.get(_BILL_KEY, 0) + assets.get(_LONG_KEY, 0)


@dataclass
class BalanceSheet:
    assets: dict = field(default_factory=dict)
    liabilities: dict = field(default_factory=dict)
    equity: int = 0
    version: int = 0   # bumped by every write to this sheet

    def asset(self, key: str) -> int:
        return self.assets.get(key, 0)

    def liability(self, key: str) -> int:
        return self.liabilities.get(key, 0)

    def total_assets(self) -> int:
        return sum(self.assets.values())


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    agent: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple

    @cached_property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class WorldSnapshot:
    """Immutable copy of world state with a canonical JSON rendering."""

    data: dict

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":"))

    def agent(self, key: str) -> dict:
        for entry in self.data["agents"]:
            if entry["id"] == key:
                return entry
        raise KeyError(key)


_CHECKS = ("double_entry", "reserve_conservation", "deposit_matching", "claim_matching")
_PASSED = AuditReport(checks=tuple(AuditCheck(name, True) for name in _CHECKS))


# -- event log ----------------------------------------------------------------

# the encoder `json.dumps(v, sort_keys=True, separators=(",", ":"))` builds
# on every call, built once
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_RESERVED = ("day", "seq", "type")


class _Form:
    """One event schema: a type and its field names in call order.

    `keys` are the names of an event's `(day, seq, type, *values)`.
    `bind(**fields)` gives a bound schema of the same type and keys, whose
    `bound` fields are fixed ({} for a form's own schema, whose `form` is
    itself); an event of a schema carries its other values, in call order,
    and `read` gives all of them. `write(day_text, seq, entries)` renders an
    event as its JSON line: its day as JSON text, which `EventLog.lines`
    renders once a day, its seq as an int and its values read in call order
    from `entries`, an iterator over its flat batch just past its schema.
    Its first call takes a writer from the form's maker for the fields the
    schema binds, which the first event of that shape compiles: its text
    is the sorted keys' JSON text, bound as `p<i>`; the maker renders the
    bound values `b<j>` once into the constants `c<k>` between the free
    slots, and returns the writer, an f-string of those joined with the
    day `d`, the seq `s` and the free values `v<j>`. Each value, bound or
    free, of the kind, int, str or bool, that the first event held in its
    slot is rendered directly, any other through `_EVENT_ENCODER`.
    """

    __slots__ = ("type", "keys", "write", "form", "bound", "makers")

    def __init__(self, event_type: str, names: tuple):
        for name in names:
            if name in _RESERVED:
                raise LedgerError(f"event field {name!r} is reserved")
        self.type = event_type
        self.keys = _RESERVED + names
        self.write = self._compile
        self.form, self.bound = self, {}
        self.makers: dict[tuple, object] = {}   # bound field names -> compiled maker

    def bind(self, **fields) -> _Form:
        """This schema with `fields` fixed; building it renders nothing."""
        if stray := fields.keys() - self.keys[len(_RESERVED):]:
            raise LedgerError(f"{self.type!r} has no field {sorted(stray)}")
        bound = object.__new__(_Form)
        bound.type, bound.keys, bound.write = self.type, self.keys, bound._compile
        bound.form, bound.bound, bound.makers = self.form, {**self.bound, **fields}, None
        return bound

    def read(self, entries) -> list:
        """The values of the event whose free values `entries` continues
        with, in call order."""
        bound = self.bound
        return [bound[name] if name in bound else next(entries)
                for name in self.keys[len(_RESERVED):]]

    def _compile(self, day_text: str, seq, entries) -> str:
        names, form, bound = self.keys[len(_RESERVED):], self.form, self.bound
        values = self.read(entries)
        shape = tuple(name for name in names if name in bound)
        make = form.makers.get(shape)
        if make is None:
            # each key's name in the maker, `b<j>` if bound and `v<j>` if
            # free, and the kind of its value; `type` is constant text, and
            # the day and seq come ready (kind None)
            sources = {"day": ("d", None), "seq": ("s", None)}
            for j, (name, value) in enumerate(zip(names, values)):
                sources[name] = (f"b{j}" if name in bound else f"v{j}", type(value))
            texts, consts, slots, text = [], [""], [], "{"
            for key in sorted(self.keys):
                text += encode_basestring_ascii(key) + ":"
                if key == "type":
                    text += _EVENT_ENCODER.encode(self.type) + ","
                    continue
                r, kind = sources[key]
                consts[-1] += f"{{p{len(texts)}}}"
                texts.append(text)
                text = ","
                slot = (r if kind is None else
                        f"{r} if type({r}) is int else e({r})" if kind is int else
                        f"q({r}) if type({r}) is str else e({r})" if kind is str else
                        f"'true' if {r} is True else 'false' if {r} is False else e({r})"
                        if kind is bool else f"e({r})")
                if r[0] == "b":
                    consts[-1] += "{" + slot + "}"
                else:
                    slots.append(slot)
                    consts.append("")
            consts[-1] += f"{{p{len(texts)}}}"
            texts.append(text[:-1] + "}\n")
            scope = {"q": encode_basestring_ascii, "e": _EVENT_ENCODER.encode, "n": next,
                     **{f"p{i}": text for i, text in enumerate(texts)}}
            reads = "".join(f"{r} = n(i); " for r, _ in sources.values() if r[0] == "v")
            body = "".join(f"{{c{k}}}{{{slot}}}" for k, slot in enumerate(slots))
            exec(f"def make({', '.join(r for r, _ in sources.values() if r[0] == 'b')}):\n"
                 + "".join(f' c{k} = f"{c}"\n' for k, c in enumerate(consts))
                 + f' def write(d, s, i): {reads}return f"{body}{{c{len(slots)}}}"\n'
                 + " return write", scope)
            make = form.makers[shape] = scope["make"]
        self.write = make(*[bound[name] for name in shape])
        return self.write(day_text, seq, iter([v for name, v in zip(names, values)
                                               if name not in bound]))

    def __reduce__(self):
        # copies and pickles share the cached form; a bound schema's binds it again
        names = self.keys[len(_RESERVED):]
        if self.bound:
            return partial(event_form(self.type, names).bind, **self.bound), ()
        return event_form, (self.type, names)


_FORMS: dict[tuple, _Form] = {}   # (type, *names) -> its form
_RAIL_FIELDS = ("instrument", "src", "dst", "amount")   # a transfer rail's event


def event_form(event_type: str, names: tuple) -> _Form:
    """The schema of events of `event_type` with fields `names`, in that
    order, for `LedgerWorld.emit_all`."""
    key = (event_type, *names)
    form = _FORMS.get(key)
    if form is None:
        form = _FORMS[key] = _Form(event_type, names)
    return form


class EventLog(Sequence):
    """The events of a run, held as the batches they were logged in and
    read as dicts `{"day", "seq", "type", **fields}`.

    Each of `batches` is `(day, first seq, batch)`, `batch` a flat list,
    each event its schema then its free values (`_Form.read` gives all of
    them): one object per batch, no tuple per event. An event's seq is its
    index in the log, so indexing and slicing bisect the batches' first
    seqs, and `size` is the next event's seq. `lines()` renders each event
    through its schema's writer as the line
    `json.dumps(event, sort_keys=True, separators=(",", ":")) + "\\n"`.
    """

    __slots__ = ("batches", "size")

    def __init__(self):
        self.batches: list[tuple] = []
        self.size = 0

    def _log(self, day: int, batch: list, count: int) -> None:
        """Keep `batch`, `count` events flat, numbered from the log's size."""
        self.batches.append((day, self.size, batch))
        self.size += count

    def __len__(self) -> int:
        return self.size

    def _from(self, index: int):
        """The events from log index `index` on, as dicts."""
        if index >= self.size:
            return
        b = bisect.bisect_right(self.batches, index, key=itemgetter(1)) - 1
        for day, seq, batch in islice(self.batches, b, None):
            entries = iter(batch)
            for form in entries:
                values = form.read(entries)
                if seq >= index:
                    yield dict(zip(form.keys, (day, seq, form.type, *values)))
                seq += 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self.size)
            if step == 1:
                return list(islice(self._from(start), max(0, stop - start)))
            return [self[i] for i in range(start, stop, step)]
        if index < 0:
            index += self.size
        if not 0 <= index < self.size:
            raise IndexError("event index out of range")
        return next(self._from(index))

    def __iter__(self):
        return self._from(0)

    def __eq__(self, other):
        if not isinstance(other, (EventLog, list)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"EventLog({list(self)!r})"

    def lines(self):
        """Each event's JSON line, in log order."""
        last = text = None   # the day as JSON text, rendered once a day
        for day, seq, batch in self.batches:
            if day is not last:
                last, text = day, str(day)
            entries = iter(batch)
            for form in entries:
                yield form.write(text, seq, entries)
                seq += 1


class LedgerWorld:
    """Holds every balance sheet plus the clock, price table and event log.

    Single-threaded by design: one scenario owns one world. Snapshots
    are plain immutable data safe to share.
    """

    def __init__(self):
        self.day = 0
        self.agents: dict[str, BalanceSheet] = {}
        self.ids: dict[str, AgentId] = {}
        # coin key -> sorted keys of the agents holding a positive balance of it
        self.coin_holders: dict[str, list[str]] = {}
        self.banks: dict[str, AgentId | None] = {}
        # agent key -> its deposit account, stored on its first use: its
        # deposit leg, its bank's deposit liability leg for it (each
        # `(agent key, side, key)`, as `post` takes legs) and the bank's key
        self.accounts: dict[str, tuple[tuple, tuple, str]] = {}
        # bank key -> its reserves leg and the central bank's reserve
        # liability leg to it, stored with its first depositor's account
        self.reserve_legs: dict[str, tuple[tuple, tuple]] = {}
        self.coin_keys: dict[str, str] = {}   # issuer key -> its coin key
        self.key_parts = _KeyParts()   # the audits' parse of each instrument key
        self.tbill_prices: dict[DurationClass, int] = {
            DurationClass.BILL: 1_000_000,
            DurationClass.LONG: 1_000_000,
        }
        self.tbill_face: dict[tuple[str, DurationClass], int] = {}
        self.events = EventLog()
        # one dict per write since the last `audit_changes()`, (agent key,
        # side, instrument key) -> delta; None until a call of it passes
        self.changes: list[dict] | None = None

    # -- registration ----------------------------------------------------

    def add_agent(self, agent: AgentId, bank: AgentId | None = None) -> None:
        if agent.key in self.agents:
            raise LedgerError(f"agent {agent} already registered")
        if bank is not None and bank.key not in self.agents:
            raise UnknownAgent(f"bank {bank} not registered")
        self.agents[agent.key] = BalanceSheet()
        self.ids[agent.key] = agent
        self.banks[agent.key] = bank
        if agent.kind is AgentKind.ISSUER:
            self.coin_keys[agent.key] = coin_key(agent)

    def sheet(self, agent: AgentId) -> BalanceSheet:
        try:
            return self.agents[agent.key]
        except KeyError:
            raise UnknownAgent(f"unknown agent {agent}") from None

    def _account(self, agent: AgentId) -> tuple[tuple, tuple, str]:
        """`agent`'s deposit account, as `accounts` holds it. The first use
        stores it, and its bank's `reserve_legs` if they are not stored yet:
        building them at registration made set-up slower, as the garbage
        collector walks every new tuple of a thousand-holder world."""
        account = self.accounts.get(agent.key)
        if account is None:
            bank = self.banks.get(agent.key)
            if bank is None:
                self.sheet(agent)   # an unknown agent raises UnknownAgent
                raise LedgerError(f"{agent} has no deposit bank")
            bank_key = bank.key
            account = self.accounts[agent.key] = ((agent.key, "A", deposit_key(bank)),
                                                  (bank_key, "L", deposit_key(agent)), bank_key)
            if bank_key not in self.reserve_legs:
                self.reserve_legs[bank_key] = ((bank_key, "A", _RESERVES),
                                               (FED.key, "L", reserves_key(bank)))
        return account

    def deposits(self, agent: AgentId) -> int:
        """The deposits `agent` holds at its bank."""
        held = (self.accounts.get(agent.key) or self._account(agent))[0]
        return self.agents[agent.key].assets.get(held[2], 0)

    def coins_outstanding(self, issuer: AgentId) -> int:
        """The coins `issuer` has issued and not yet burned."""
        return self.sheet(issuer).liabilities.get(self.coin_keys[issuer.key], 0)

    # -- event log ---------------------------------------------------------

    @property
    def seq(self) -> int:
        """The next event's seq: the number of events logged."""
        return self.events.size

    def emit(self, event_type: str, **fields) -> None:
        """Log one event, a batch of one; a field named `day`, `seq` or
        `type` raises `LedgerError` when its schema is first seen."""
        form = _FORMS.get((event_type, *fields)) or event_form(event_type, tuple(fields))
        self.events._log(self.day, [form, *fields.values()], 1)

    def emit_all(self, events: list) -> None:
        """Log `events`, each `(form, values)` with `form` from `event_form`
        or a schema it binds (`_Form.bind`) and `values` a tuple of the
        schema's free fields in field order, as one flat batch: an event of
        a bound schema takes one entry per free field, so a row that only
        its order id tells from the last costs two entries."""
        if events:
            batch = []
            for form, values in events:
                batch.append(form)
                batch.extend(values)
            self.events._log(self.day, batch, len(events))

    def emit_numbered(self, forms: list, first: int) -> None:
        """Log one event of each schema of `forms`, each bound but for one
        field, which takes `first`, `first + 1`, ... in turn: `emit_all` of
        each `(form, (first + i,))`, its flat batch built by slicing."""
        if count := len(forms):
            batch = [None] * (2 * count)
            batch[::2] = forms
            batch[1::2] = range(first, first + count)
            self.events._log(self.day, batch, count)

    # -- posting engine ----------------------------------------------------

    def post(self, staged: dict) -> None:
        """Apply a batch of legs atomically; log no event.

        `staged` holds the legs summed per position, `{(agent key, side,
        key): delta}` with side 'A' (asset) or 'L' (liability). Each leg is
        checked and written in one pass; a leg of an unknown agent, or one
        taking a position below zero, takes back the legs before it and
        raises `UnknownAgent` if any leg names one, else
        `InsufficientPosition`, so a failed batch changes nothing (positions
        reaching zero are dropped after the pass, keeping key order). Each
        written sheet's `version` is bumped and, once `audit_changes()` has
        started the log, the batch's deltas are appended to `changes`. Each
        coin holding a leg opens or closes is noted as it is written, and
        `coin_holders` takes the notes once every leg has passed.
        """
        agents, emptied, opened, closed = self.agents, [], [], []
        for leg, delta in staged.items():
            agent_key, side, key = leg
            if (book := agents.get(agent_key)) is not None:
                if side == "A":
                    positions = book.assets
                    current = positions.get(key, 0)
                    if (new := current + delta) >= 0:
                        if delta:
                            positions[key] = new
                            book.equity += delta
                            book.version += 1
                            if not new:
                                emptied.append((positions, key))
                                if key.startswith("coin@"):
                                    closed.append(leg)
                            elif not current and key.startswith("coin@"):
                                opened.append(leg)
                        continue
                else:
                    positions = book.liabilities
                    current = positions.get(key, 0)
                    if (new := current + delta) >= 0:
                        if delta:
                            positions[key] = new
                            book.equity -= delta
                            book.version += 1
                            if not new:
                                emptied.append((positions, key))
                        continue
            self._undo(staged, leg)
            for unknown, _, _ in staged:
                if unknown not in agents:
                    raise UnknownAgent(f"unknown agent {unknown}")
            raise InsufficientPosition(agent_key, key, current, -delta)
        for positions, key in emptied:
            del positions[key]
        index = self.coin_holders
        for agent, _, key in closed:
            del index[key][bisect.bisect_left(index[key], agent)]
        if opened:
            coin_of = itemgetter(2)
            for coin, legs in groupby(sorted(opened, key=coin_of), coin_of):
                index[coin] = sorted([*index.get(coin, ()), *map(itemgetter(0), legs)])
        if self.changes is not None:
            self.changes.append(staged)

    def _undo(self, staged: dict, stop: tuple) -> None:
        """Take back the legs of `staged` that `post` wrote before `stop`; no
        position is stored at zero, so one taken back to zero was opened."""
        for leg, delta in staged.items():
            if leg is stop:
                return
            if delta:
                book, (_, side, key) = self.agents[leg[0]], leg
                positions = book.assets if side == "A" else book.liabilities
                if old := positions[key] - delta:
                    positions[key] = old
                else:
                    del positions[key]
                book.equity -= delta if side == "A" else -delta
                book.version -= 1

    # -- settlement rails ----------------------------------------------------

    def _moves(self, frm: AgentId, to: AgentId, amount: int) -> bool:
        """Check a transfer's arguments; whether it writes anything.

        A negative amount or an unknown agent raises; a zero amount or a
        transfer to oneself leaves the world untouched.
        """
        if amount < 0:
            raise LedgerError("transfer amount must be non-negative")
        if frm.key not in self.agents:
            raise UnknownAgent(f"unknown agent {frm}")
        if to.key not in self.agents:
            raise UnknownAgent(f"unknown agent {to}")
        return amount != 0 and frm.key != to.key

    def transfer_deposit(self, frm: AgentId, to: AgentId, amount: int) -> None:
        """Pay `amount` of deposits from `frm` to `to`: `TransferBatch.pay`
        alone in its batch."""
        batch = TransferBatch(self)
        batch.pay(frm, to, amount)
        batch.commit()

    def transfer_coin(self, frm: AgentId, to: AgentId, issuer: AgentId, amount: int) -> None:
        """Move `amount` of `issuer`'s coin: a mint when `frm` is the
        issuer, a burn when `to` is, a transfer between holders otherwise."""
        if not self._moves(frm, to, amount):
            return
        key, minted, burned = coin_key(issuer), frm.key == issuer.key, to.key == issuer.key
        # the issuer's leg is its coin liability, a holder's its coin asset
        self.post({(frm.key, "L" if minted else "A", key): amount if minted else -amount,
                   (to.key, "L" if burned else "A", key): -amount if burned else amount})
        self.emit("mint" if minted else "burn" if burned else "transfer",
                  instrument=key, src=frm.key, dst=to.key, amount=amount)

    def redeem_coins(self, issuer: AgentId, payouts: list) -> None:
        """Pay out redemptions of `issuer`'s coin as one `post`.

        Each `(holder, amount, note)` of `payouts` burns `amount` of the
        holder's coins and pays the holder as many of the issuer's deposits:
        the batch form of `transfer_coin(holder, issuer, issuer, amount)` then
        `transfer_deposit(issuer, holder, amount)`, whose `burn` and
        `transfer` events it logs in that order, each pair followed by `note`,
        an event `(form, values)` as `emit_all` takes it. It stages the legs
        summed per position, as `post` takes them: three per payout (the
        holder's coin debit and deposit credit, its bank's deposit liability),
        then the issuer's legs and the reserve legs from the issuer's bank to
        each other payee bank. Each position moves one way within the batch,
        so it validates exactly when the payouts would one by one; a batch
        that fails writes and logs nothing.
        """
        coin, src = coin_key(issuer), issuer.key
        held_f, owed_f, bank_f = self._account(issuer)
        staged, events, total = {}, [], 0   # staged: as `post` takes legs
        moved: dict[str, int] = {}   # payee bank key -> amount, other banks than the issuer's
        get = staged.get
        for holder, amount, note in payouts:
            if amount <= 0:
                raise LedgerError("payout amount must be positive")
            held_t, owed_t, bank_t = self._account(holder)
            dst = holder.key
            staged[leg] = get(leg := (dst, "A", coin), 0) - amount
            staged[held_t] = get(held_t, 0) + amount
            staged[owed_t] = get(owed_t, 0) + amount
            total += amount
            if bank_t != bank_f:
                moved[bank_t] = moved.get(bank_t, 0) + amount
            events += ((_COIN_BURN, (coin, dst, src, amount)),
                       (_DEPOSIT_TRANSFER, ("deposit", src, dst, amount)), note)
        legs = [((src, "L", coin), -total), (held_f, -total), (owed_f, -total)]
        if moved:
            out = sum(moved.values())
            reserves, owed = self.reserve_legs[bank_f]
            legs += ((reserves, -out), (owed, -out))
            for key, amount in moved.items():
                reserves, owed = self.reserve_legs[key]
                legs += ((owed, amount), (reserves, amount))
        for leg, delta in legs:
            staged[leg] = staged.get(leg, 0) + delta
        self.post(staged)
        self.emit_all(events)

    def create_deposits(self, agent: AgentId, amount: int, govt: bool = True) -> None:
        """New deposits for `agent`, paid in new reserves to its bank, backed by
        a government claim the central bank books (`govt`) or by bills it bought."""
        held, owed, bank = self._account(agent)
        reserves, owed_by_fed = self.reserve_legs[bank]
        legs = {_GOVT: amount} if govt else {}
        legs.update({owed_by_fed: amount, reserves: amount, owed: amount, held: amount})
        self.post(legs)

    def credit_from_bank(self, agent: AgentId, amount: int) -> None:
        """Credit `agent`'s deposits out of its bank's equity; a negative
        `amount` debits them into it, the depositor's leg checked first."""
        held, owed, _ = self._account(agent)
        self.post({owed: amount, held: amount} if amount > 0 else {held: amount, owed: amount})

    def draw_srf(self, dealer: AgentId, amount: int) -> None:
        """Lend `dealer` new reserves from the standing repo facility; its
        recorded assets grow by the draw, against its `srf@` debt."""
        self.post({(FED.key, "A", srf_key(dealer)): amount, (dealer.key, "L", _SRF): amount,
                   (dealer.key, "A", _RESERVES): amount,
                   (FED.key, "L", reserves_key(dealer)): amount})
        self.emit("srf_draw", dealer=dealer.key, amount=amount)

    def issue_coins(self, issuer: AgentId, coins: int, holdings: dict) -> None:
        """Issue `issuer`'s `coins` to `holdings`, owner key -> amount (set-up only)."""
        key = self.coin_keys[issuer.key]
        legs = {(issuer.key, "L", key): coins}
        legs.update({(owner, "A", key): amount for owner, amount in holdings.items()})
        self.post(legs)

    # -- treasuries ----------------------------------------------------------

    def price(self, duration: DurationClass) -> int:
        return self.tbill_prices[duration]

    def tbill_value(self, agent: AgentId) -> int:
        return treasury_value(self.sheet(agent).assets)

    def face_of(self, agent: AgentId, duration: DurationClass) -> int:
        return self.tbill_face.get((agent.key, duration), 0)

    def grant_tbill(self, agent: AgentId, duration: DurationClass, face: int) -> None:
        """Endow an agent with Treasuries (world construction only)."""
        value = mul_frac(face, self.price(duration))
        self.post({(agent.key, "A", tbill_key(duration)): value})
        key = (agent.key, duration)
        self.tbill_face[key] = self.tbill_face.get(key, 0) + face

    def transfer_tbill(self, frm: AgentId, to: AgentId, duration: DurationClass,
                       face: int) -> int:
        """Move up to `face` of Treasuries, at most what `frm` holds:
        `TransferBatch.deliver` alone in its batch; returns the market
        value moved."""
        batch = TransferBatch(self)
        moved = batch.deliver(frm, to, duration, face)
        batch.commit()
        return moved

    def remark_tbills(self, duration: DurationClass, new_price: int) -> None:
        """Set a class price and post each position's change in market
        value, one leg per agent holding the class, in agent key order."""
        if new_price <= 0:
            raise LedgerError("treasury price must stay positive")
        self.tbill_prices[duration] = new_price
        key, agents = tbill_key(duration), self.agents
        legs = {}
        for agent_key, face in sorted((agent_key, face) for (agent_key, dur), face
                                      in self.tbill_face.items() if dur is duration):
            delta = mul_frac(face, new_price) - agents[agent_key].assets.get(key, 0)
            if delta:
                legs[(agent_key, "A", key)] = delta
        if legs:
            self.post(legs)

    # -- audit & snapshot -----------------------------------------------------

    def audit(self) -> AuditReport:
        """Run the four checks on every sheet, in key order.

        - double_entry: stored equity is assets minus liabilities;
        - reserve_conservation: each reserves asset is held at the central
          bank and each reserves liability is on its sheet, then reserves
          held equal the central bank's reserve liabilities;
        - deposit_matching: each deposit sits at a bank that owes exactly
          it and no non-bank owes one, then each bank deposit liability has
          that holder;
        - claim_matching: each repo and SRF claim and obligation has its
          mirror, then coins held equal coins outstanding per coin.

        A failing check names the first failure in that order (a sheet's
        deposit keys sorted, its claims in stored order).
        """
        agents = self.agents
        return self._check((key, ((book := agents[key]).assets, book.liabilities))
                           for key in sorted(agents))

    def audit_changes(self) -> AuditReport:
        """The checks of `audit()` on what was written since the last call.

        The first call, and any call after a failure, is `audit()` itself;
        a passing one starts the change log. Later calls clear the log and
        pass `audit()`'s checker each written sheet with the summed deltas
        of its coin and reserve legs and each written deposit, repo and SRF
        position as it stands, zero if it is gone, which the checker
        matches against its mirror. As `post` is the only writer, the
        world passes `audit()` exactly when these do, unless a sheet was
        edited around it; on a failure it returns `audit()`, which names
        the same checks, agents and details.
        """
        if self.changes is not None:
            changes, self.changes = self.changes, []
            agents, parts = self.agents, self.key_parts
            # each written sheet's key -> its legs to check, (assets,
            # liabilities) indexed by `side == "L"`, in the order written
            sheets: dict[str, tuple[dict, dict]] = {}
            for staged in changes:
                for (key, side, ikey), delta in staged.items():
                    if (legs := sheets.get(key)) is None:
                        legs = sheets[key] = ({}, {})
                    if (kind := parts[ikey]) is None:
                        continue
                    kind = kind[0]
                    if kind == "coin" or kind == "reserves":
                        summed = legs[side == "L"]
                        summed[ikey] = summed.get(ikey, 0) + delta
                    elif kind == "deposit" or kind == "repo" or kind == "srf":
                        book = agents[key]
                        legs[side == "L"][ikey] = (
                            book.assets if side == "A" else book.liabilities).get(ikey, 0)
            report = self._check(sheets.items())
            if report.ok:
                return report
        report = self.audit()
        self.changes = [] if report.ok else None
        return report

    def _check(self, legs) -> AuditReport:
        """The four checks of `audit()` on `legs`, each `(agent key,
        (assets, liabilities))` with both sides `{instrument key: amount}`:
        double entry on each agent's whole sheet, the rest on its legs.
        Each deposit, repo or SRF amount is matched against its mirror on
        the world's sheets; reserves and coins held and owed are summed
        from zero, and a reserves leg off the central bank fails at once.
        Fed in key order, faults come in `audit()`'s order.
        """
        agents, ids, parts = self.agents, self.ids, self.key_parts
        bank_kind, fed_key = AgentKind.BANK, FED.key
        double_entry = claim = reserves = None
        faults, orphans = [], []   # (agent key, deposit key, detail) of each side
        reserves_held = reserves_owed = 0
        coins_held, coins_owed = {}, {}   # coin key -> amount
        for key, (assets, liabilities) in legs:
            if double_entry is None and (book := agents[key]).equity != (
                    net := sum(book.assets.values()) - sum(book.liabilities.values())):
                double_entry = (key, f"equity {book.equity} != assets-liabilities {net}")
            is_bank = ids[key].kind is bank_kind
            own_deposit = "deposit@" + key
            for akey, amount in assets.items():
                if (kind := parts[akey]) is None:
                    continue
                kind, cpty = kind
                if kind == "coin":
                    coins_held[akey] = coins_held.get(akey, 0) + amount
                elif kind == "deposit":
                    bank = agents.get(cpty)
                    if bank is None or ids[cpty].kind is not bank_kind:
                        faults.append((key, akey, f"deposit asset at non-bank {cpty}"))
                    elif (owed := bank.liabilities.get(own_deposit, 0)) != amount:
                        faults.append((key, akey, f"deposit {amount} at {cpty} has "
                                                  f"liability {owed}"))
                elif kind == "repo" or kind == "srf":
                    other = agents.get(cpty)
                    if claim is None and (other is None or other.liabilities.get(
                            f"{kind}@{key}", 0) != amount):
                        claim = (key, f"unmatched {akey} claim of {amount}")
                elif kind == "reserves":
                    reserves_held += amount
                    if akey != _RESERVES and reserves is None:
                        reserves = (key, f"reserves asset {akey} off the central bank")
            for lkey, amount in liabilities.items():
                if (kind := parts[lkey]) is None:
                    continue
                kind, cpty = kind
                if kind == "coin":
                    coins_owed[lkey] = coins_owed.get(lkey, 0) + amount
                elif kind == "deposit" and not is_bank:
                    faults.append((key, lkey, f"deposit liability to {cpty} on non-bank"))
                elif kind == "deposit":
                    holder = agents.get(cpty)
                    if holder is None or holder.assets.get(own_deposit, 0) != amount:
                        orphans.append((key, lkey, f"orphan deposit liability to {cpty}"))
                elif kind == "repo" or kind == "srf":
                    other = agents.get(cpty)
                    if claim is None and (other is None or other.assets.get(
                            f"{kind}@{key}", 0) != amount):
                        claim = (key, f"unmatched {lkey} obligation of {amount}")
                elif kind == "reserves":
                    reserves_owed += amount
                    if key != fed_key and reserves is None:
                        reserves = (key, f"reserves liability {lkey} off the central bank")
        if reserves is None and reserves_held != reserves_owed:
            reserves = (fed_key, (
                f"reserve assets {reserves_held} != central bank liability {reserves_owed}"))
        if claim is None and coins_held != coins_owed:
            for ckey in sorted(coins_held.keys() | coins_owed.keys()):
                held, owed = coins_held.get(ckey, 0), coins_owed.get(ckey, 0)
                if held != owed:
                    claim = (parts[ckey][1],
                             f"coins held {held} != coins outstanding {owed}")
                    break
        deposits = min(faults or orphans, default=None)
        found = (double_entry, reserves, deposits and (deposits[0], deposits[2]), claim)
        if not any(found):
            return _PASSED
        return AuditReport(checks=tuple(
            AuditCheck(name, True) if fault is None else AuditCheck(name, False, *fault)
            for name, fault in zip(_CHECKS, found)))

    def snapshot(self) -> WorldSnapshot:
        agents = []
        for key in sorted(self.agents):
            book = self.agents[key]
            agents.append({
                "id": key,
                "kind": self.ids[key].kind.value,
                "assets": [{"instrument": k, "amount": v}
                           for k, v in sorted(book.assets.items())],
                "liabilities": [{"instrument": k, "amount": v}
                                for k, v in sorted(book.liabilities.items())],
                "equity": book.equity,
            })
        data = {
            "schema": "stablesim.world/1",
            "clock": {"day": self.day, "seq": self.seq},
            "prices": {DURATION_NAME[d]: self.tbill_prices[d] for d in DURATIONS},
            "faces": [{"agent": a, "class": d.value, "face": f}
                      for (a, d), f in sorted(self.tbill_face.items(), key=lambda kv: (kv[0][0], kv[0][1].value))],
            "agents": agents,
        }
        return WorldSnapshot(data=data)



class TransferBatch:
    """Deposit payments, Treasury deliveries and repo legs written by one `post`.

    `pay`, `deliver` and `repo` are the deposit, Treasury and repo rails.
    Each stages its legs on top of the ones before it: `deposits` and
    `face_of` read the running values, and every debit is checked against
    them, so a batch raises `InsufficientPosition` at the transfer where
    the same transfers posted one by one would. `commit` posts the summed
    legs, logs the staged events in order and updates `tbill_face`; a
    batch that raises, or is never committed, writes and logs nothing.
    """

    __slots__ = ("world", "staged", "faces", "events")

    def __init__(self, world: LedgerWorld):
        self.world = world
        self.staged: dict[tuple[str, str, str], int] = {}   # as `post` stages
        self.faces: dict[tuple[str, DurationClass], int] = {}   # running `tbill_face`
        self.events: list[tuple] = []   # (form, values), for `emit_all`

    def deposits(self, agent: AgentId) -> int:
        """The deposits `agent` holds at its bank, staged legs included."""
        world = self.world
        held = (world.accounts.get(agent.key) or world._account(agent))[0]
        return world.agents[agent.key].assets.get(held[2], 0) + self.staged.get(held, 0)

    def face_of(self, agent: AgentId, duration: DurationClass) -> int:
        key = (agent.key, duration)
        face = self.faces.get(key)
        return self.world.tbill_face.get(key, 0) if face is None else face

    def emit(self, event_type: str, **fields) -> None:
        form = _FORMS.get((event_type, *fields)) or event_form(event_type, tuple(fields))
        self.events.append((form, (*fields.values(),)))

    def pay(self, frm: AgentId, to: AgentId, amount: int) -> None:
        """Pay `amount` of deposits from `frm` to `to` through their banks.

        A cross-bank payment debits the payer's bank of reserves and
        credits the payee's, re-keying the central bank's reserve
        liability, so aggregate deposits and reserves are conserved by
        construction. The legs are the stored ones (`accounts`,
        `reserve_legs`), each read once; the debits are checked in order,
        the payer's deposit, its bank's deposit liability, its bank's
        reserves and the central bank's reserve liability, before any leg
        is staged. The legs of one payment are distinct, so each running
        value read for a check is the one its leg is staged on.
        """
        world, src, dst = self.world, frm.key, to.key
        account_f, account_t = world.accounts.get(src), world.accounts.get(dst)
        if amount <= 0 or src == dst or account_f is None or account_t is None:
            # a bad argument raises, a payment of nothing or to oneself stages
            # nothing, and an account's first use stores it
            if not world._moves(frm, to, amount):
                return
            account_f, account_t = world._account(frm), world._account(to)
        held_f, owed_f, bank_f = account_f
        held_t, owed_t, bank_t = account_t
        agents, staged = world.agents, self.staged
        get = staged.get
        if (have := agents[src].assets.get(held_f[2], 0) + (s_held_f := get(held_f, 0))) < amount:
            raise InsufficientPosition(src, held_f[2], have, amount)
        bank = agents[bank_f]
        if (have := bank.liabilities.get(owed_f[2], 0) + (s_owed_f := get(owed_f, 0))) < amount:
            raise InsufficientPosition(bank_f, owed_f[2], have, amount)
        if cross := bank_f != bank_t:
            reserves_f, owed_by_fed_f = world.reserve_legs[bank_f]
            if (have := bank.assets.get(reserves_f[2], 0)
                    + (s_reserves_f := get(reserves_f, 0))) < amount:
                raise InsufficientPosition(bank_f, reserves_f[2], have, amount)
            fed_key, key = owed_by_fed_f[0], owed_by_fed_f[2]
            if (have := agents[fed_key].liabilities.get(key, 0)
                    + (s_owed_by_fed_f := get(owed_by_fed_f, 0))) < amount:
                raise InsufficientPosition(fed_key, key, have, amount)
        staged[held_f] = s_held_f - amount
        staged[owed_f] = s_owed_f - amount
        staged[owed_t] = get(owed_t, 0) + amount
        staged[held_t] = get(held_t, 0) + amount
        if cross:
            reserves_t, owed_by_fed_t = world.reserve_legs[bank_t]
            staged[reserves_f] = s_reserves_f - amount
            staged[owed_by_fed_f] = s_owed_by_fed_f - amount
            staged[owed_by_fed_t] = get(owed_by_fed_t, 0) + amount
            staged[reserves_t] = get(reserves_t, 0) + amount
        self.events.append((_DEPOSIT_TRANSFER, ("deposit", src, dst, amount)))

    def repo(self, lender: AgentId, borrower: AgentId, principal: int) -> None:
        """Stage `principal` as the lender's `repo@<borrower>` claim and the
        borrower's `repo@<lender>` obligation; a negative one takes both back,
        checked against the running claim first, so a raise stages nothing."""
        if self.world._moves(lender, borrower, abs(principal)):
            legs = ((lender.key, "A", repo_key(borrower)), (borrower.key, "L", repo_key(lender)))
            if principal < 0:
                self._check_debits(legs, -principal)
            for leg in legs:
                self.staged[leg] = self.staged.get(leg, 0) + principal

    def _check_debits(self, legs, amount: int) -> None:
        """Raise `InsufficientPosition` at the first of `legs` running short of `amount`."""
        agents, get = self.world.agents, self.staged.get
        for leg in legs:
            agent_key, side, key = leg
            book = agents[agent_key]
            have = (book.assets if side == "A" else book.liabilities).get(key, 0) + get(leg, 0)
            if have < amount:
                raise InsufficientPosition(agent_key, key, have, amount)

    def deliver(self, frm: AgentId, to: AgentId, duration: DurationClass, face: int) -> int:
        """Move up to `face` of Treasuries, at most what `frm` holds, at
        the class price; returns the market value moved."""
        world, staged, faces, src = self.world, self.staged, self.faces, frm.key
        key, frm_face = _TBILL_KEY[duration], (src, duration)
        have = faces.get(frm_face)
        if have is None:
            have = world.tbill_face.get(frm_face, 0)
        if have < face:   # a comparison, not `min`: ten times cheaper per delivery
            face = have
        if (book := world.agents.get(src)) is None:
            raise UnknownAgent(f"unknown agent {frm}")
        frm_leg = (src, "A", key)
        held = book.assets.get(key, 0) + (staged_frm := staged.get(frm_leg, 0))
        if face <= 0:
            return 0
        # the one debit is capped at the running position, so it cannot
        # take that position below zero
        moved = mul_frac(face, world.tbill_prices[duration])
        if held < moved:
            moved = held
        dst = to.key
        if dst not in world.agents:
            raise UnknownAgent(f"unknown agent {to}")
        # the buyer's leg and face are read after the seller's are written,
        # as `frm` may be `to`
        staged[frm_leg] = staged_frm - moved
        to_leg = (dst, "A", key)
        staged[to_leg] = staged.get(to_leg, 0) + moved
        faces[frm_face] = have - face
        to_face = (dst, duration)
        got = faces.get(to_face)
        faces[to_face] = (world.tbill_face.get(to_face, 0) if got is None else got) + face
        self.events.append((_TBILL_TRANSFER, (key, src, dst, moved, face)))
        return moved

    def commit(self) -> None:
        """Post the staged legs at once, log the staged events and update
        `tbill_face`."""
        world = self.world
        if self.staged:
            world.post(self.staged)
        if self.events:
            world.emit_all(self.events)
        for key, face in self.faces.items():
            if face:
                world.tbill_face[key] = face
            else:
                world.tbill_face.pop(key, None)


_RESERVES, _SRF, _GOVT = reserves_key(), srf_key(FED), (FED.key, "A", "govt")
_DEPOSIT_TRANSFER = event_form("transfer", _RAIL_FIELDS)
_COIN_BURN = event_form("burn", _RAIL_FIELDS)
_TBILL_TRANSFER = event_form("transfer", _RAIL_FIELDS + ("face",))
