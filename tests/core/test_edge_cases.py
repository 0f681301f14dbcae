"""Edge-case tests across the core package."""

import numpy as np
import pytest

from repro.core.cache import SkylineCache
from repro.core.cbcs import CBCS
from repro.core.mpr import compute_mpr
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.skyline.bbs import BBSMethod
from repro.index.rtree import RTree
from repro.storage.table import DiskTable


class TestMprEdges:
    def test_case_b_with_empty_cached_skyline(self):
        old = Constraints([0.0, 0.0], [1.0, 1.0])
        new = Constraints([0.0, 0.0], [0.5, 1.0])
        mpr = compute_mpr(old, np.empty((0, 2)), new)
        assert len(mpr.boxes) == 0
        assert mpr.surviving.shape == (0, 2)

    def test_identical_constraints_yield_empty_mpr(self):
        c = Constraints([0.1, 0.1], [0.9, 0.9])
        sky = np.array([[0.2, 0.3]])
        mpr = compute_mpr(c, sky, Constraints(c.lo, c.hi))
        assert len(mpr.boxes) == 0
        assert mpr.stable
        assert len(mpr.surviving) == 1

    def test_new_region_inside_single_dominance_region(self):
        """A cached point at the old corner dominates the whole new region:
        nothing to fetch, the point survives."""
        old = Constraints([0.0, 0.0], [1.0, 1.0])
        sky = np.array([[0.0, 0.0]])
        new = Constraints([0.0, 0.0], [2.0, 2.0])  # pure expansion
        mpr = compute_mpr(old, sky, new)
        # everything in the expansion is >= (0,0): fully pruned
        assert len(mpr.boxes) == 0

    def test_degenerate_zero_width_constraints(self):
        old = Constraints([0.5, 0.0], [0.5, 1.0])  # a line segment
        sky = np.array([[0.5, 0.2]])
        new = Constraints([0.4, 0.0], [0.6, 1.0])
        mpr = compute_mpr(old, sky, new)
        data = np.array([[0.5, 0.2], [0.45, 0.5], [0.55, 0.1]])
        fetched = data[mpr.boxes.union_mask(data)]
        # the points outside the old line must be fetched
        assert len(fetched) == 2


class TestEngineEdges:
    def test_query_on_empty_table(self):
        engine = CBCS(DiskTable(np.empty((0, 3))))
        out = engine.query(Constraints([0.0] * 3, [1.0] * 3))
        assert out.skyline_size == 0
        assert out.case == "miss"
        # empty results are not cached
        assert len(engine.cache) == 0

    def test_single_point_table(self):
        engine = CBCS(DiskTable(np.array([[0.5, 0.5]])))
        out = engine.query(Constraints([0.0, 0.0], [1.0, 1.0]))
        assert out.skyline_size == 1
        out2 = engine.query(Constraints([0.0, 0.0], [1.0, 0.9]))
        assert out2.skyline_size == 1
        assert out2.cache_hit

    def test_query_region_with_no_points_then_wider(self):
        data = generate("independent", 200, 2, seed=13)
        engine = CBCS(DiskTable(data))
        empty = engine.query(Constraints([2.0, 2.0], [3.0, 3.0]))
        assert empty.skyline_size == 0
        wider = engine.query(Constraints([0.0, 0.0], [1.0, 1.0]))
        assert wider.skyline_size > 0

    def test_replace_skyline_with_empty_removes_item(self):
        cache = SkylineCache()
        item = cache.insert(
            Constraints([0.0, 0.0], [1.0, 1.0]), np.array([[0.5, 0.5]])
        )
        assert cache.replace_skyline(item, np.empty((0, 2))) is None
        assert len(cache) == 0


class TestBBSMethodEdges:
    def test_prebuilt_tree_is_used(self):
        pts = generate("independent", 200, 2, seed=14)
        tree = RTree.bulk_load_points(pts, max_entries=8)
        method = BBSMethod(data=None, tree=tree)
        assert method.tree is tree
        out = method.query(Constraints([0.0, 0.0], [1.0, 1.0]))
        assert out.skyline_size > 0

    def test_empty_prebuilt_tree_not_replaced(self):
        empty_tree = RTree(2)
        method = BBSMethod(data=None, tree=empty_tree)
        assert method.tree is empty_tree
