"""Thread-safety tests for :class:`repro.core.cache.SkylineCache`.

The cache is shared by every concurrent query path (executor workers,
:class:`repro.service.QueryService` threads), so insert/lookup/evict/
verify_and_heal must interleave from many threads without losing entries,
racing quarantines, or desyncing the MBR bounds table.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.cache import SkylineCache
from repro.geometry.constraints import Constraints

N_THREADS = 8
PER_THREAD = 25

EVERYTHING = Constraints([0.0, 0.0], [200.0, 200.0])


def item_constraints(tid, i):
    """A distinct, non-degenerate constraint region per (thread, slot)."""
    x = float(tid) + i * 0.03
    return Constraints([x, x], [x + 0.02, x + 0.02])


def item_skyline(tid, i):
    x = float(tid) + i * 0.03
    return np.array([[x + 0.001, x + 0.015], [x + 0.015, x + 0.001]])


def run_threads(worker):
    """Run ``worker(tid)`` on N_THREADS threads, re-raising any failure."""
    errors = []
    barrier = threading.Barrier(N_THREADS)

    def wrapped(tid):
        try:
            barrier.wait()
            worker(tid)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(wrapped, range(N_THREADS)))
    if errors:
        raise errors[0]


def assert_index_consistent(cache):
    """Every stored item is findable through ``candidates``, and nothing else."""
    found = cache.candidates(EVERYTHING, record=False)
    assert len(found) == len(cache)
    assert {id(i) for i in found} == {id(i) for i in cache}
    for item in list(cache):
        hits = cache.candidates(item.constraints, record=False)
        assert any(h is item for h in hits)


class TestConcurrentInsertLookup:
    def test_no_lost_entries_unbounded(self):
        cache = SkylineCache()

        def worker(tid):
            for i in range(PER_THREAD):
                item = cache.insert(item_constraints(tid, i), item_skyline(tid, i))
                assert item is not None
                # Interleave lookups with the other threads' inserts.
                hits = cache.candidates(item_constraints(tid, i), record=False)
                assert any(h is item for h in hits)

        run_threads(worker)
        assert len(cache) == N_THREADS * PER_THREAD
        assert cache.insertions == N_THREADS * PER_THREAD
        assert_index_consistent(cache)

    def test_exact_match_after_concurrent_inserts(self):
        cache = SkylineCache()
        run_threads(
            lambda tid: [
                cache.insert(item_constraints(tid, i), item_skyline(tid, i))
                for i in range(PER_THREAD)
            ]
        )
        for tid in range(N_THREADS):
            for i in range(PER_THREAD):
                assert cache.exact_match(item_constraints(tid, i)) is not None


class TestConcurrentEviction:
    @pytest.mark.parametrize("policy", ["lru", "lcu"])
    def test_bounded_cache_counters_reconcile(self, policy):
        capacity = 16
        cache = SkylineCache(capacity=capacity, policy=policy)

        def worker(tid):
            for i in range(PER_THREAD):
                cache.insert(item_constraints(tid, i), item_skyline(tid, i))
                cache.candidates(EVERYTHING, record=False)

        run_threads(worker)
        assert len(cache) == capacity
        assert cache.insertions == N_THREADS * PER_THREAD
        assert cache.evictions == cache.insertions - capacity
        assert_index_consistent(cache)

    def test_touch_races_with_eviction(self):
        cache = SkylineCache(capacity=8, policy="lru")
        seed_items = [
            cache.insert(item_constraints(99, i), item_skyline(99, i))
            for i in range(8)
        ]

        def worker(tid):
            for i in range(PER_THREAD):
                if tid % 2 == 0:
                    cache.insert(item_constraints(tid, i), item_skyline(tid, i))
                else:
                    # Touching possibly-evicted items must never corrupt state.
                    cache.touch(seed_items[i % len(seed_items)])

        run_threads(worker)
        assert len(cache) == 8
        assert_index_consistent(cache)


class TestConcurrentVerifyAndHeal:
    def test_one_corrupt_item_quarantined_exactly_once(self):
        cache = SkylineCache()
        items = [
            cache.insert(item_constraints(0, i), item_skyline(0, i))
            for i in range(PER_THREAD)
        ]
        bad = items[7]
        bad.skyline = bad.skyline.copy()
        bad.skyline[0, 0] = np.nan  # "non-finite" invariant violation

        results = []
        lock = threading.Lock()

        def worker(tid):
            for item in items:
                ok = cache.verify_and_heal(item)
                with lock:
                    results.append((item, ok))

        run_threads(worker)
        # the corrupt item failed for every thread; no healthy item ever did
        assert all(ok == (item is not bad) for item, ok in results)
        # quarantined exactly once despite 8 threads racing to do it
        assert cache.quarantined == 1
        assert len(cache) == PER_THREAD - 1
        assert_index_consistent(cache)
        assert not any(i is bad for i in cache)

    def test_verify_races_with_inserts_and_lookups(self):
        cache = SkylineCache()
        stable = [
            cache.insert(item_constraints(50, i), item_skyline(50, i))
            for i in range(10)
        ]

        def worker(tid):
            for i in range(PER_THREAD):
                if tid % 3 == 0:
                    cache.insert(item_constraints(tid, i), item_skyline(tid, i))
                elif tid % 3 == 1:
                    assert cache.verify_and_heal(stable[i % len(stable)])
                else:
                    cache.candidates(EVERYTHING, record=False)

        run_threads(worker)
        assert cache.quarantined == 0
        assert_index_consistent(cache)
