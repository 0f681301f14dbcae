"""Tests for :mod:`repro.index.rtree`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.index.rtree import RTree


def brute_search(points, lo, hi):
    mask = np.all(points >= lo, axis=1) & np.all(points <= hi, axis=1)
    return set(np.flatnonzero(mask))


class TestBulkLoad:
    def test_empty(self):
        tree = RTree.bulk_load_points(np.empty((0, 2)))
        assert len(tree) == 0
        assert tree.search([0, 0], [1, 1]) == []

    def test_single_point(self):
        tree = RTree.bulk_load_points(np.array([[0.5, 0.5]]))
        assert tree.search([0, 0], [1, 1]) == [0]
        assert tree.search([0.6, 0], [1, 1]) == []

    def test_invariants_various_sizes(self):
        rng = np.random.default_rng(11)
        for n in [1, 10, 64, 65, 500, 5000]:
            pts = rng.uniform(0, 1, size=(n, 3))
            tree = RTree.bulk_load_points(pts, max_entries=16)
            tree.check_invariants()
            assert len(tree) == n

    def test_height_grows_logarithmically(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(4096, 2))
        tree = RTree.bulk_load_points(pts, max_entries=16)
        # 4096 points / 16 per leaf = 256 leaves; 256/16 = 16; height 4
        assert tree.height <= 4

    def test_all_payloads_present(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, size=(300, 2))
        tree = RTree.bulk_load_points(pts, max_entries=8)
        assert sorted(tree.all_payloads()) == list(range(300))

    def test_box_entries(self):
        los = np.array([[0.0, 0.0], [2.0, 2.0]])
        his = np.array([[1.0, 1.0], [3.0, 3.0]])
        tree = RTree.bulk_load_boxes(los, his, ["a", "b"])
        assert tree.search([0.5, 0.5], [0.6, 0.6]) == ["a"]
        assert set(tree.search([0.0, 0.0], [5.0, 5.0])) == {"a", "b"}

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RTree.bulk_load_boxes(np.zeros((2, 2)), np.zeros((3, 2)), [1, 2])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RTree(0)
        with pytest.raises(ValueError):
            RTree(2, max_entries=2)
        with pytest.raises(ValueError):
            RTree(2, max_entries=8, min_entries=5)

    @given(arrays(np.float64, (40, 2), elements=st.floats(0, 1)))
    @settings(max_examples=40)
    def test_search_matches_brute_force(self, pts):
        tree = RTree.bulk_load_points(pts, max_entries=8)
        lo = np.array([0.25, 0.25])
        hi = np.array([0.75, 0.75])
        assert set(tree.search(lo, hi)) == brute_search(pts, lo, hi)


class TestNearest:
    def brute_knn(self, points, query, k):
        dist = np.sum((points - query) ** 2, axis=1)
        return set(np.argsort(dist, kind="stable")[:k])

    def test_single_nearest(self):
        pts = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
        tree = RTree.bulk_load_points(pts, max_entries=4)
        assert tree.nearest([0.45, 0.45], k=1) == [1]

    def test_k_nearest_matches_brute_force(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(0, 1, size=(500, 3))
        tree = RTree.bulk_load_points(pts, max_entries=16)
        query = np.array([0.3, 0.7, 0.2])
        for k in [1, 5, 20]:
            got = set(tree.nearest(query, k=k))
            dist = np.sum((pts - query) ** 2, axis=1)
            got_dists = sorted(dist[list(got)])
            exp_dists = sorted(dist)[:k]
            np.testing.assert_allclose(got_dists, exp_dists)

    def test_k_larger_than_tree(self):
        pts = np.array([[0.1, 0.1], [0.9, 0.9]])
        tree = RTree.bulk_load_points(pts)
        assert sorted(tree.nearest([0.5, 0.5], k=10)) == [0, 1]

    def test_empty_tree(self):
        tree = RTree.bulk_load_points(np.empty((0, 2)))
        assert tree.nearest([0.5, 0.5], k=3) == []

    def test_validation(self):
        tree = RTree.bulk_load_points(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            tree.nearest([0.0, 0.0], k=0)
        with pytest.raises(ValueError):
            tree.nearest([0.0], k=1)

    @given(arrays(np.float64, (30, 2), elements=st.floats(0, 1)))
    @settings(max_examples=30)
    def test_nearest_property(self, pts):
        tree = RTree.bulk_load_points(pts, max_entries=4)
        query = np.array([0.5, 0.5])
        got = tree.nearest(query, k=3)
        dist = np.sum((pts - query) ** 2, axis=1)
        got_d = sorted(dist[got])
        exp_d = sorted(dist)[: len(got)]
        np.testing.assert_allclose(got_d, exp_d)


class TestStats:
    def test_nodes_accessed_counts(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 1, size=(1000, 2))
        tree = RTree.bulk_load_points(pts, max_entries=8)
        tree.reset_stats()
        tree.search([0.4, 0.4], [0.6, 0.6])
        small = tree.nodes_accessed
        tree.reset_stats()
        tree.search([0.0, 0.0], [1.0, 1.0])
        full = tree.nodes_accessed
        assert 0 < small < full
