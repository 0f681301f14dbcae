"""Tests for live cache introspection (coverage, accounting, quarantine)."""

import math

import numpy as np
import pytest

from repro.core.cache import SkylineCache
from repro.core.cbcs import CBCS
from repro.geometry.constraints import Constraints
from repro.obs.cacheview import CacheView, render_cacheview
from repro.obs.correlate import bind
from repro.obs.metrics import MetricsRegistry
from repro.storage.table import DiskTable


def seeded_cache(n_items=4, seed=0):
    rng = np.random.default_rng(seed)
    cache = SkylineCache()
    for i in range(n_items):
        lo = np.full(2, i * 0.2)
        hi = lo + 0.25
        sky = lo + rng.random((3, 2)) * 0.25
        cache.insert(Constraints(lo=lo, hi=hi), sky)
    return cache


class TestSnapshot:
    def test_counts_points_and_bytes(self):
        cache = seeded_cache()
        snap = CacheView(cache).snapshot()
        assert snap["items"] == 4
        assert snap["total_points"] == 12
        # 3x2 float64 skyline + two 2-float MBR vectors per item
        assert snap["total_bytes"] == 4 * (3 * 2 * 8 + 2 * 8 + 2 * 8)

    def test_top_items_sorted_by_use_count(self):
        cache = seeded_cache()
        items = list(cache)
        cache.touch(items[2], case="exact")
        cache.touch(items[2], case="case_b")
        cache.touch(items[0], case="exact")
        snap = CacheView(cache).snapshot(top=2)
        assert [rec["item_id"] for rec in snap["top_items"]] == [
            items[2].item_id,
            items[0].item_id,
        ]
        assert snap["top_items"][0]["case_uses"] == {"exact": 1, "case_b": 1}
        assert snap["case_hit_totals"] == {"exact": 2, "case_b": 1}

    def test_empty_cache_snapshot(self):
        snap = CacheView(SkylineCache()).snapshot()
        assert snap["items"] == 0
        assert snap["total_bytes"] == 0
        assert math.isnan(snap["coverage_fraction"])

    def test_snapshot_is_json_serializable(self):
        import json

        cache = seeded_cache()
        cache.touch(next(iter(cache)), case="exact")
        json.dumps(CacheView(cache).snapshot())


class TestCoverage:
    def test_full_cover_is_one(self):
        cache = SkylineCache()
        sky = np.array([[0.1, 0.9], [0.9, 0.1]])
        cache.insert(Constraints(lo=np.zeros(2), hi=np.ones(2)), sky)
        view = CacheView(cache, bounds=(np.zeros(2), np.ones(2)))
        assert view.coverage_fraction() == pytest.approx(1.0)

    def test_half_cover_is_about_half(self):
        cache = SkylineCache()
        sky = np.array([[0.1, 0.4], [0.4, 0.1]])
        cache.insert(
            Constraints(lo=np.zeros(2), hi=np.array([0.5, 1.0])), sky
        )
        view = CacheView(cache, bounds=(np.zeros(2), np.ones(2)))
        assert view.coverage_fraction() == pytest.approx(0.5, abs=0.05)

    def test_deterministic_for_fixed_state(self):
        cache = seeded_cache()
        view = CacheView(cache)
        assert view.coverage_fraction() == view.coverage_fraction()

    def test_unbounded_constraint_sides_fall_back_to_mbr(self):
        cache = SkylineCache()
        sky = np.array([[0.2, 0.3], [0.3, 0.2]])
        cache.insert(
            Constraints(lo=np.array([-np.inf, 0.0]), hi=np.array([np.inf, 0.5])),
            sky,
        )
        fraction = CacheView(cache).coverage_fraction()
        assert 0.0 <= fraction <= 1.0 and not math.isnan(fraction)


class TestQuarantineLog:
    def test_quarantine_records_reason_and_query_id(self):
        cache = seeded_cache()
        item = next(iter(cache))
        item.skyline[0, 0] = np.nan
        with bind("q00000007"):
            assert not cache.verify_and_heal(item)
        snap = CacheView(cache).snapshot()
        assert snap["quarantined"] == 1
        assert snap["quarantine_log"] == [
            {
                "item_id": item.item_id,
                "reason": "non-finite",
                "query_id": "q00000007",
            }
        ]

    def test_quarantine_outside_a_query_logs_none(self):
        cache = seeded_cache()
        item = next(iter(cache))
        item.skyline[0, 0] = np.nan
        cache.verify_and_heal(item)
        assert cache.quarantine_log[-1]["query_id"] is None


class TestGaugesAndRendering:
    def test_export_gauges(self):
        cache = seeded_cache()
        metrics = MetricsRegistry()
        CacheView(cache).export_gauges(metrics)
        assert metrics.gauge_value("cache_bytes") > 0
        assert metrics.gauge_value("cache_points") == 12.0
        assert 0.0 <= metrics.gauge_value("cache_coverage_fraction") <= 1.0

    def test_export_gauges_skips_nan_coverage(self):
        metrics = MetricsRegistry()
        CacheView(SkylineCache()).export_gauges(metrics)
        assert metrics.gauge_value("cache_coverage_fraction") is None
        assert metrics.gauge_value("cache_bytes") == 0.0

    def test_render_contains_headline_and_tables(self):
        cache = seeded_cache()
        cache.touch(next(iter(cache)), case="exact")
        text = render_cacheview(CacheView(cache).snapshot())
        assert "# cache introspection" in text
        assert "items=4" in text
        assert "Hits by overlap case" in text
        assert "Hottest cache items" in text


class TestEngineIntegration:
    def test_engine_populates_case_uses(self):
        rng = np.random.default_rng(0)
        engine = CBCS(DiskTable(rng.random((800, 3))))
        base = Constraints(lo=np.zeros(3), hi=np.full(3, 0.6))
        engine.query(base)
        engine.query(base)  # exact hit
        engine.query(Constraints(lo=np.zeros(3), hi=np.full(3, 0.5)))
        totals = CacheView(engine.cache).snapshot()["case_hit_totals"]
        assert totals.get("exact") == 1
        assert sum(totals.values()) >= 2
        engine.close()


class TestViewFor:
    def test_plain_cache_gets_cacheview(self):
        from repro.obs.cacheview import view_for

        assert isinstance(view_for(seeded_cache()), CacheView)

    def test_engine_with_cache_gets_cacheview(self):
        from repro.obs.cacheview import view_for

        data = np.random.default_rng(0).uniform(0, 1, (200, 2))
        engine = CBCS(DiskTable(data))
        view = view_for(engine)
        assert isinstance(view, CacheView)
        assert view.cache is engine.cache
