"""The repository's memoized advertisement volume.

:meth:`BrokerRepository.size_mb` feeds the broker reasoning cost of
every recommend, so it must return exactly — with ``==``, not
``approx`` — the float the store would compute, after any sequence of
writes, on every store backend.  It must also stay a memo: reads
between two writes ask the store at most once.
"""

import random

import pytest

from repro.core import BrokerRepository
from repro.core.advertisement import Advertisement
from repro.core.repository import MemoryAdStore
from repro.core.store import SQLiteAdStore
from tests.test_core_infrastructure import broker_ad
from tests.test_core_matcher import make_ad

NAMES = [f"agent{i}" for i in range(8)]


class CountingStore:
    """Delegates to a real store and counts ``size_mb`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.size_calls = 0

    def size_mb(self):
        self.size_calls += 1
        return self.inner.size_mb()

    def __getattr__(self, name):
        return getattr(self.inner, name)


def random_ad(rng):
    """An agent or broker ad under a random name, with an awkward size."""
    name = rng.choice(NAMES)
    base = broker_ad(name) if rng.random() < 0.3 else make_ad(name)
    # Sizes whose sums are not associative in floating point, so a
    # running total would drift from the store's summation.
    size = rng.choice([0.1, 0.2, 0.3, 1e-3, 1e3, rng.uniform(1e-4, 10.0)])
    return Advertisement(base.description, size_mb=size, seq=rng.randrange(100))


def random_step(repo, rng):
    """One random write (advertise, re-advertise, flip or unadvertise)."""
    if rng.random() < 0.7:
        repo.advertise(random_ad(rng))
    else:
        repo.unadvertise(rng.choice(NAMES))


def assert_exact(repo):
    assert repo.size_mb() == repo.store.size_mb()
    # A second read returns the memo, which is still exact.
    assert repo.size_mb() == repo.store.size_mb()


def run_random_sequence(repo, seed, steps=150):
    rng = random.Random(seed)
    assert_exact(repo)
    for _ in range(steps):
        random_step(repo, rng)
        assert_exact(repo)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("engine", ["columnar", "datalog"])
def test_memo_exact_on_memory_store(seed, engine):
    repo = BrokerRepository(engine=engine)
    run_random_sequence(repo, seed)
    clone = repo.clone_empty()
    assert clone.size_mb() == clone.store.size_mb() == 0
    assert_exact(repo)


@pytest.mark.parametrize("seed", range(5))
def test_memo_exact_on_sqlite_memory_store(seed):
    repo = BrokerRepository(store=SQLiteAdStore(":memory:"))
    run_random_sequence(repo, seed)
    clone = repo.clone_empty()
    assert clone.size_mb() == clone.store.size_mb() == 0
    run_random_sequence(clone, seed + 100, steps=30)


@pytest.mark.parametrize("seed", range(3))
def test_memo_exact_across_sqlite_reopen(tmp_path, seed):
    path = str(tmp_path / "ads.db")
    store = SQLiteAdStore(path)
    run_random_sequence(BrokerRepository(store=store), seed)
    before = store.size_mb()
    store.close()

    reopened = SQLiteAdStore(path)
    repo = BrokerRepository(store=reopened)
    assert repo.size_mb() == before
    run_random_sequence(repo, seed + 100)
    reopened.close()


def test_bulk_rollback_clears_memo():
    repo = BrokerRepository(store=SQLiteAdStore(":memory:"))
    repo.advertise(make_ad("kept"))
    with pytest.raises(RuntimeError):
        with repo.bulk():
            repo.advertise(Advertisement(make_ad("rolled-back").description,
                                         size_mb=5.0))
            assert repo.size_mb() == repo.store.size_mb()
            raise RuntimeError("abort the transaction")
    assert_exact(repo)


@pytest.mark.parametrize("inner", [MemoryAdStore, SQLiteAdStore])
def test_reads_between_writes_sum_at_most_once(inner):
    store = CountingStore(inner())
    repo = BrokerRepository(store=store)
    rng = random.Random(7)
    for _ in range(40):
        random_step(repo, rng)
        calls = store.size_calls
        for _ in range(10):
            repo.size_mb()
        assert store.size_calls - calls <= 1


def test_failed_unadvertise_keeps_memo():
    store = CountingStore(MemoryAdStore())
    repo = BrokerRepository(store=store)
    repo.advertise(make_ad("a"))
    repo.size_mb()
    calls = store.size_calls
    assert repo.unadvertise("nobody") is False
    repo.size_mb()
    assert store.size_calls == calls
