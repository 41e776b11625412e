import functools
import importlib.util
from pathlib import Path

import pytest

from stablesim.instruments import _resize
from stablesim.ledger import AgentKind, TransferBatch

# the only agents coins reach: genesis and intermediary purchases, mints,
# and a supply shock's mint target (the first holder or the buyer)
_COIN_HOLDING = (AgentKind.HOLDER, AgentKind.INTERMEDIARY, AgentKind.TREASURY_BUYER)


def _check_indexes(scn, day):
    """The settlement and ledger indexes agree with full scans, and every
    agent in the coin-holder index is a holder, an intermediary or a
    Treasury buyer."""
    for key, book in scn.settle.issuers.items():
        unfinished = [r for r in book.requests if not r.completed]
        assert [id(r) for r in book.open] == [id(r) for r in unfinished], (day, key)
    world = scn.world
    coin_keys = set(world.coin_holders)
    coin_keys.update(k for book in world.agents.values() for k in book.assets
                     if k.startswith("coin@"))
    for ckey in sorted(coin_keys):
        holding = {key for key, book in world.agents.items() if book.asset(ckey) > 0}
        assert world.coin_holders.get(ckey, []) == sorted(holding), (day, ckey)
        for key in holding:
            assert world.ids[key].kind in _COIN_HOLDING, (day, ckey, key)


def _check_ledger(scn, day):
    """The full audit passes; each dealer's capacity, cached or not, is
    what `_dealer_available` computes from a fresh read of its sheet, and
    the leverage room it takes off the dealer's fixed limit is the
    `headroom_assets` of the book's `slr_report` at the market's bound;
    each repo position stamped with today's prices re-sizes, uncut, to
    the faces it holds; no agent's encumbered face exceeds its face; and
    the repo book agrees with the sheets: each lender's `repo@<borrower>`
    claim and each borrower's `repo@<lender>` obligation are the sum of
    the pair's open principals, and no claim stands without a position
    (the audit only matches a claim against its obligation)."""
    world, market, registry = scn.world, scn.market, scn.registry
    report = world.audit()
    assert report.ok, (day, report.failures())
    fresh = {key: market._dealer_available(world, book, market._sheet_reads(world, book))
             for key, book in market.books.items()}
    assert market.dealer_capacity(world) == fresh, day
    for key, book in market.books.items():
        room = max(0, market._limits[key] - book.on_sheet(world) - book.reserved_today)
        assert room == book.slr_report(world, market.slr_bound).headroom_assets, (day, key)
    prices = tuple(world.tbill_prices.values())   # as a roll stamps them
    for pos in registry.open_positions():
        if pos.sized_at == prices:
            assert _resize(TransferBatch(world), registry, pos) == (pos.collateral, False), (
                day, pos.repo_id)
    for (key, duration), face in registry.encumbered.items():
        assert 0 < face <= world.tbill_face.get((key, duration), 0), (day, key, duration)
    lent: dict = {}   # (lender key, borrower key) -> principal of its open positions
    for pos in registry.open_positions():
        pair = (pos.lender.key, pos.borrower.key)
        lent[pair] = lent.get(pair, 0) + pos.principal
    claims, obligations = {}, {}   # the same pairs, read from the sheets
    for key, book in world.agents.items():
        for ikey, amount in book.assets.items():
            if ikey.startswith("repo@"):
                claims[(key, ikey[len("repo@"):])] = amount
        for ikey, amount in book.liabilities.items():
            if ikey.startswith("repo@"):
                obligations[(ikey[len("repo@"):], key)] = amount
    assert claims == lent == obligations, day


@pytest.fixture
def check_indexes():
    """`on_day_end` hook asserting that `IssuerBook.open` is the unfinished
    requests in submission order and `LedgerWorld.coin_holders` is exactly
    the agents holding each coin, in key order, each a holder, an
    intermediary or a Treasury buyer."""
    return _check_indexes


@pytest.fixture
def check_ledger():
    """`on_day_end` hook asserting that the world passes the full `audit()`
    after the engine's check of what changed, that the market's cached
    dealer capacities are exact, that every roll stamp still marks a fixed
    point of the collateral sizing, that encumbrance stays within face and
    that each pair's repo claim and obligation are its open principals."""
    return _check_ledger


@functools.cache
def _bench_scenarios():
    """bench/scenarios.py, loaded once by file path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "scenarios.py"
    spec = importlib.util.spec_from_file_location("bench_scenarios", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_scaled():
    """`scaled()` of bench/scenarios.py, the generated many-agent books, as
    a function of its keyword arguments returning the raw config."""
    return _bench_scenarios().scaled
