"""Tests for cache self-healing: invariants, quarantine, refresh-on-insert,
and counter consistency under capacity pressure."""

import numpy as np
import pytest

from repro.core.cache import SkylineCache
from repro.geometry.constraints import Constraints
from repro.obs import MetricsRegistry


def make_item(cache, x, width=0.1):
    c = Constraints([x, x], [x + width, x + width])
    sky = np.array([[x + 0.01, x + 0.05], [x + 0.05, x + 0.01]])
    return cache.insert(c, sky)


class TestVerifyItem:
    def setup_method(self):
        self.cache = SkylineCache()
        self.item = make_item(self.cache, 0.2)

    def test_healthy_item_passes(self):
        assert self.cache.verify_item(self.item) == []

    def test_non_finite(self):
        self.item.skyline[0, 0] = np.nan
        assert self.cache.verify_item(self.item) == ["non-finite"]

    def test_malformed(self):
        self.item.skyline = np.zeros((2, 3))
        assert self.cache.verify_item(self.item) == ["malformed"]

    def test_mbr_mismatch(self):
        self.item.mbr_hi = self.item.mbr_hi + 1.0
        assert "mbr-mismatch" in self.cache.verify_item(self.item)

    def test_out_of_constraints(self):
        self.item.skyline = np.array([[0.9, 0.9], [0.95, 0.85]])
        self.item.mbr_lo = self.item.skyline.min(axis=0)
        self.item.mbr_hi = self.item.skyline.max(axis=0)
        assert "out-of-constraints" in self.cache.verify_item(self.item)

    def test_dominated(self):
        # second point dominated by the first
        self.item.skyline = np.array([[0.21, 0.21], [0.25, 0.25]])
        self.item.mbr_lo = self.item.skyline.min(axis=0)
        self.item.mbr_hi = self.item.skyline.max(axis=0)
        assert "dominated" in self.cache.verify_item(self.item)


class TestQuarantine:
    def test_quarantine_removes_item(self):
        metrics = MetricsRegistry()
        cache = SkylineCache(metrics=metrics)
        item = make_item(cache, 0.2)
        keeper = make_item(cache, 0.6)
        cache.quarantine(item, reason="non-finite")
        assert len(cache) == 1
        assert cache.quarantined == 1
        assert (
            metrics.counter_value("cache_quarantined_total", reason="non-finite")
            == 1
        )
        # The survivor is still findable; the quarantined item is not.
        found = cache.candidates(Constraints([0.0, 0.0], [1.0, 1.0]))
        assert found == [keeper]

    def test_quarantine_heals_desynced_index(self):
        cache = SkylineCache()
        item = make_item(cache, 0.2)
        keeper = make_item(cache, 0.6)
        # A rotted MBR must not stop the item's row from being found (by id).
        item.mbr_lo = item.mbr_lo + 5.0
        item.mbr_hi = item.mbr_hi + 5.0
        cache.quarantine(item, reason="mbr-mismatch")
        found = cache.candidates(Constraints([0.0, 0.0], [1.0, 1.0]))
        assert found == [keeper]

    def test_verify_and_heal_quarantines_violator(self):
        cache = SkylineCache()
        item = make_item(cache, 0.2)
        item.skyline[0, 0] = np.inf
        assert cache.verify_and_heal(item) is False
        assert item not in list(cache)

    def test_quarantine_idempotent(self):
        cache = SkylineCache()
        item = make_item(cache, 0.2)
        cache.quarantine(item)
        cache.quarantine(item)
        assert cache.quarantined == 1


class TestInsertRefreshBugfix:
    def test_differing_skyline_replaces_stored_copy(self):
        cache = SkylineCache()
        c = Constraints([0.0, 0.0], [1.0, 1.0])
        old = np.array([[0.4, 0.6], [0.6, 0.4]])
        new = np.array([[0.2, 0.3], [0.3, 0.2]])
        first = cache.insert(c, old)
        second = cache.insert(Constraints(c.lo, c.hi), new)
        assert second is first
        np.testing.assert_array_equal(first.skyline, new)
        np.testing.assert_array_equal(first.mbr_lo, [0.2, 0.2])
        np.testing.assert_array_equal(first.mbr_hi, [0.3, 0.3])
        assert cache.refreshes == 1

    def test_reindex_keeps_lookup_consistent(self):
        cache = SkylineCache()
        c = Constraints([0.0, 0.0], [1.0, 1.0])
        cache.insert(c, np.array([[0.8, 0.9], [0.9, 0.8]]))
        cache.insert(
            Constraints(c.lo, c.hi), np.array([[0.1, 0.2], [0.2, 0.1]])
        )
        # Old MBR region no longer matches; new one does.
        assert cache.candidates(Constraints([0.7, 0.7], [1.0, 1.0])) == []
        assert len(cache.candidates(Constraints([0.0, 0.0], [0.3, 0.3]))) == 1

    def test_identical_skyline_refreshes_without_reindex(self):
        cache = SkylineCache()
        c = Constraints([0.0, 0.0], [1.0, 1.0])
        sky = np.array([[0.4, 0.6], [0.6, 0.4]])
        cache.insert(c, sky)
        cache.insert(Constraints(c.lo, c.hi), sky.copy())
        assert cache.refreshes == 0


class TestCounterConsistencyUnderPressure:
    def test_insertions_evictions_quarantines_reconcile(self):
        metrics = MetricsRegistry()
        cache = SkylineCache(capacity=4, metrics=metrics)
        items = [make_item(cache, 0.05 + 0.09 * i) for i in range(10)]
        assert all(item is not None for item in items)
        # Quarantine one live item, then keep inserting under pressure.
        live = [i for i in items if i in list(cache)]
        cache.quarantine(live[0], reason="non-finite")
        more = [make_item(cache, 0.91 + 0.005 * i, width=0.004) for i in range(5)]
        assert all(item is not None for item in more)

        assert cache.insertions == 15
        assert cache.quarantined == 1
        # Every insert either still lives, was evicted, or was quarantined.
        assert (
            cache.insertions - cache.evictions - cache.quarantined
            == len(cache)
        )
        assert len(cache) <= 4
        assert metrics.counter_value("cache_insertions_total") == 15
        assert (
            metrics.counter_value("cache_evictions_total", policy="lru")
            == cache.evictions
        )
        assert (
            metrics.counter_value("cache_quarantined_total", reason="non-finite")
            == 1
        )
        assert metrics.gauge_value("cache_items") == len(cache)

    def test_stats_expose_new_counters(self):
        cache = SkylineCache(capacity=2)
        make_item(cache, 0.1)
        stats = cache.stats()
        assert "refreshes" in stats and "quarantined" in stats


class TestRottedExactMatch:
    def test_a_healed_exact_match_falls_back_to_the_full_search(self):
        """The key probe's item is verified before it is served; healed
        away, the query is planned against the overlap search it skipped
        (one lookup counted) and answered right."""
        from repro.core.cbcs import CBCS
        from repro.resilience import Resilience
        from repro.skyline.reference import constrained_reference
        from repro.storage.table import DiskTable

        data = np.random.default_rng(0).random((400, 2))
        engine = CBCS(DiskTable(data), resilience=Resilience())
        wide = Constraints([0.2, 0.2], [0.8, 0.9])
        query = Constraints([0.2, 0.2], [0.8, 0.8])
        engine.query(wide)
        engine.query(query)
        engine.cache.exact_match(query).skyline[0, 0] = np.nan
        hits = engine.cache.hits
        out = engine.query(query)
        assert engine.cache.hits == hits + 1
        assert engine.cache.quarantined == 1
        assert out.case == "case_b" and out.range_queries == 0
        expected = constrained_reference(data, query)
        assert sorted(map(tuple, out.skyline)) == sorted(map(tuple, expected))
        assert engine.query(query).case == "exact"
