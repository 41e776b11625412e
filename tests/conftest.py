import pytest


def _check_indexes(scn, day):
    """The settlement and ledger indexes agree with full scans."""
    for key in sorted(scn.settle.issuers):
        book = scn.settle.issuers[key]
        unfinished = [r for r in book.requests if not r.completed]
        assert [id(r) for r in book.open] == [id(r) for r in unfinished], (day, key)
    world = scn.world
    coin_keys = set(world.coin_holders)
    coin_keys.update(k for book in world.agents.values() for k in book.assets
                     if k.startswith("coin@"))
    for ckey in sorted(coin_keys):
        holding = {key for key, book in world.agents.items() if book.asset(ckey) > 0}
        assert world.coin_holders.get(ckey, []) == sorted(holding), (day, ckey)


def _check_ledger(scn, day):
    """The full audit passes, and each dealer's capacity, cached or not,
    is what `_dealer_available` computes afresh."""
    world, market = scn.world, scn.market
    report = world.audit()
    assert report.ok, (day, report.failures())
    fresh = {key: market._dealer_available(world, market.books[key])
             for key in sorted(market.books)}
    assert market.dealer_capacity(world) == fresh, day


@pytest.fixture
def check_indexes():
    """`on_day_end` hook asserting that `IssuerBook.open` is the unfinished
    requests in submission order and `LedgerWorld.coin_holders` is exactly
    the agents holding each coin, in key order."""
    return _check_indexes


@pytest.fixture
def check_ledger():
    """`on_day_end` hook asserting that the world passes the full `audit()`
    after the engine's check of what changed, and that the market's cached
    dealer capacities are exact."""
    return _check_ledger
