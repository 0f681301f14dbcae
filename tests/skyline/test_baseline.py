"""Tests for the naive Baseline method."""

import numpy as np
import pytest

from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.skyline.baseline import BaselineMethod
from repro.skyline.reference import brute_force_skyline, is_skyline
from repro.storage.table import DiskTable


@pytest.fixture()
def table_and_data():
    pts = generate("independent", 1500, 3, seed=21)
    return DiskTable(pts), pts


class TestNaive:
    def test_matches_oracle(self, table_and_data):
        table, pts = table_and_data
        c = Constraints([0.2, 0.2, 0.2], [0.8, 0.8, 0.8])
        outcome = BaselineMethod(table).query(c)
        inside = pts[c.satisfied_mask(pts)]
        assert is_skyline(inside, outcome.skyline)
        assert outcome.points_read >= len(inside)

    def test_empty_region(self, table_and_data):
        table, _ = table_and_data
        outcome = BaselineMethod(table).query(Constraints([5.0] * 3, [6.0] * 3))
        assert len(outcome.skyline) == 0
        assert outcome.points_read == 0


class TestBaselineMethod:
    def test_outcome_fields(self, table_and_data):
        table, pts = table_and_data
        method = BaselineMethod(table)
        c = Constraints([0.1, 0.1, 0.1], [0.7, 0.7, 0.7])
        outcome = method.query(c)
        assert outcome.method == "Baseline"
        assert outcome.io.range_queries == 1
        assert outcome.points_read > 0
        assert outcome.timings.fetch_io_ms > 0
        inside = pts[c.satisfied_mask(pts)]
        assert is_skyline(inside, outcome.skyline)

    def test_no_processing_stage(self, table_and_data):
        """Figure 10: 'Baseline has no processing stage'."""
        table, _ = table_and_data
        outcome = BaselineMethod(table).query(
            Constraints([0.0] * 3, [1.0] * 3)
        )
        assert outcome.timings.processing_ms == 0.0

    def test_points_read_tracks_selectivity(self, table_and_data):
        table, _ = table_and_data
        method = BaselineMethod(table)
        small = method.query(Constraints([0.45] * 3, [0.55] * 3))
        large = method.query(Constraints([0.0] * 3, [1.0] * 3))
        assert small.points_read < large.points_read
