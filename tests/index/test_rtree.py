"""Tests for :mod:`repro.index.rtree`."""

import numpy as np
import pytest

from repro.index.rtree import RTree


class TestBulkLoad:
    def test_empty(self):
        tree = RTree.bulk_load_points(np.empty((0, 2)))
        assert len(tree) == 0
        assert tree.all_payloads() == []
        assert tree.root.lo is None

    def test_single_point(self):
        tree = RTree.bulk_load_points(np.array([[0.5, 0.5]]))
        assert tree.all_payloads() == [0]
        assert tree.root.lo.tolist() == tree.root.hi.tolist() == [0.5, 0.5]

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
        tree.check_invariants()
        assert sorted(tree.all_payloads()) == ["a", "b"]
        assert tree.root.lo.tolist() == [0.0, 0.0]
        assert tree.root.hi.tolist() == [3.0, 3.0]

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
