"""Tests for :mod:`repro.storage.table`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.executor import Executor
from repro.geometry.box import Box
from repro.geometry.interval import Interval
from repro.storage.costmodel import DiskCostModel
from repro.storage.table import DiskTable


@pytest.fixture()
def table():
    rng = np.random.default_rng(42)
    data = rng.uniform(0, 1, size=(2000, 3))
    return DiskTable(data, cost_model=DiskCostModel(page_size=32)), data


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DiskTable(np.zeros(5))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            DiskTable(np.zeros((1, 2)), plan="hash")

    def test_nonfinite_data_rejected(self):
        with pytest.raises(ValueError):
            DiskTable(np.array([[0.0, np.nan]]))
        with pytest.raises(ValueError):
            DiskTable(np.array([[np.inf, 1.0]]))

    def test_nonfinite_append_rejected(self):
        table = DiskTable(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            table.append(np.array([[np.nan, 0.0]]))

    def test_metadata(self, table):
        t, data = table
        assert t.n == 2000
        assert t.ndim == 3
        assert t.n_pages == math.ceil(2000 / 32)
        np.testing.assert_array_equal(t.domain_lo, data.min(axis=0))
        np.testing.assert_array_equal(t.domain_hi, data.max(axis=0))

    def test_empty_table(self):
        t = DiskTable(np.empty((0, 2)))
        result = t.range_query(Box.closed([0, 0], [1, 1]))
        assert len(result) == 0
        assert t.stats.empty_queries == 1

    def test_data_view_is_readonly(self, table):
        t, _ = table
        view = t.data_view()
        with pytest.raises(ValueError):
            view[0, 0] = 99.0


class TestRangeQueries:
    def test_matches_numpy_filter(self, table):
        t, data = table
        box = Box.closed([0.2, 0.3, 0.1], [0.6, 0.8, 0.9])
        result = t.range_query(box)
        expected = np.flatnonzero(box.mask(data))
        assert sorted(result.rowids) == sorted(expected)
        np.testing.assert_allclose(
            result.points[np.argsort(result.rowids)], data[np.sort(result.rowids)]
        )

    def test_bitmap_plan_matches(self, table):
        _, data = table
        t = DiskTable(data, plan="bitmap", cost_model=DiskCostModel(page_size=32))
        box = Box.closed([0.2, 0.3, 0.1], [0.6, 0.8, 0.9])
        result = t.range_query(box)
        expected = np.flatnonzero(box.mask(data))
        assert sorted(result.rowids) == sorted(expected)

    def test_bitmap_reads_exactly_matching_rows(self, table):
        _, data = table
        t = DiskTable(data, plan="bitmap", cost_model=DiskCostModel(page_size=32))
        box = Box.closed([0.2, 0.3, 0.1], [0.6, 0.8, 0.9])
        result = t.range_query(box)
        assert result.rows_fetched == len(result)

    def test_best_index_may_overfetch_but_never_underfetches(self, table):
        t, data = table
        box = Box.closed([0.45, 0.0, 0.0], [0.55, 1.0, 1.0])
        result = t.range_query(box)
        assert result.rows_fetched >= len(result)
        assert len(result) == int(box.mask(data).sum())

    def test_open_faces_respected(self):
        data = np.array([[0.5, 0.5], [0.5, 0.7], [0.6, 0.5]])
        t = DiskTable(data)
        box = Box(
            [Interval(0.5, 1.0, lo_open=True), Interval.closed(0.0, 1.0)]
        )
        result = t.range_query(box)
        assert sorted(result.rowids) == [2]

    def test_empty_query_costs_no_io(self, table):
        """Paper Section 7.3.2: B-trees detect empty queries without seeks."""
        t, _ = table
        before = t.stats.snapshot()
        result = t.range_query(Box.closed([2.0, 2.0, 2.0], [3.0, 3.0, 3.0]))
        delta = t.stats.delta_since(before)
        assert len(result) == 0
        assert delta.range_queries == 1
        assert delta.empty_queries == 1
        assert delta.seeks == 0
        assert delta.pages_read == 0
        assert delta.simulated_io_ms == 0.0

    def test_unsatisfiable_box_is_empty_query(self, table):
        t, _ = table
        box = Box([Interval.closed(0.5, 0.4)] + [Interval.closed(0, 1)] * 2)
        result = t.range_query(box)
        assert len(result) == 0
        assert t.stats.empty_queries >= 1

    def test_dimension_mismatch(self, table):
        t, _ = table
        with pytest.raises(ValueError):
            t.range_query(Box.closed([0, 0], [1, 1]))

    @given(
        data=arrays(np.float64, (50, 2), elements=st.floats(0, 1)),
        bounds=st.tuples(
            st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_plans_agree(self, data, bounds):
        lo = [min(bounds[0], bounds[1]), min(bounds[2], bounds[3])]
        hi = [max(bounds[0], bounds[1]), max(bounds[2], bounds[3])]
        box = Box.closed(lo, hi)
        best = DiskTable(data, plan="best_index").range_query(box)
        bitmap = DiskTable(data, plan="bitmap").range_query(box)
        seqscan = DiskTable(data, plan="seqscan").range_query(box)
        assert sorted(best.rowids) == sorted(bitmap.rowids)
        assert sorted(best.rowids) == sorted(seqscan.rowids)
        expected = np.flatnonzero(box.mask(data))
        assert sorted(best.rowids) == sorted(expected)

    def test_seqscan_reads_everything(self):
        data = np.random.default_rng(5).uniform(0, 1, size=(500, 2))
        table = DiskTable(data, plan="seqscan")
        result = table.range_query(Box.closed([0.4, 0.4], [0.6, 0.6]))
        assert result.rows_fetched == 500
        assert table.stats.points_read == 500

    def test_index_baseline_beats_seqscan_baseline(self):
        """Paper Section 7: 'a baseline using sequential scan ... was
        consistently slower than the baseline using the indexes'."""
        rng = np.random.default_rng(6)
        data = rng.uniform(0, 1, size=(20_000, 3))
        indexed = DiskTable(data)
        scanning = DiskTable(data, plan="seqscan")
        box = Box.closed([0.3, 0.3, 0.3], [0.6, 0.6, 0.6])
        indexed.range_query(box)
        scanning.range_query(box)
        assert indexed.stats.simulated_io_ms < scanning.stats.simulated_io_ms


class TestAccounting:
    def test_points_read_counts_candidates(self, table):
        t, _ = table
        before = t.stats.snapshot()
        result = t.range_query(Box.closed([0.4, 0.0, 0.0], [0.6, 1.0, 1.0]))
        delta = t.stats.delta_since(before)
        assert delta.points_read == result.rows_fetched
        assert delta.pages_read >= 1
        assert delta.seeks >= 1
        assert delta.simulated_io_ms > 0

    def test_executor_fetch_accumulates(self, table):
        t, data = table
        boxes = [
            Box.closed([0.0, 0.0, 0.0], [0.3, 1.0, 1.0]),
            Box(
                [
                    Interval(0.3, 0.6, lo_open=True),
                    Interval.closed(0.0, 1.0),
                    Interval.closed(0.0, 1.0),
                ]
            ),
        ]
        before = t.stats.snapshot()
        result = Executor().fetch(t, boxes).result
        delta = t.stats.delta_since(before)
        assert delta.range_queries == 2
        # disjoint boxes: no duplicate rowids in the union
        assert len(set(result.rowids)) == len(result.rowids)
        expected = np.flatnonzero(data[:, 0] <= 0.6)
        assert sorted(result.rowids) == sorted(expected)

    def test_executor_fetch_of_no_boxes_is_empty(self, table):
        t, _ = table
        result = Executor().fetch(t, []).result
        assert len(result) == 0

    def test_full_scan(self, table):
        t, data = table
        before = t.stats.snapshot()
        result = t.full_scan()
        delta = t.stats.delta_since(before)
        assert len(result) == len(data)
        assert delta.full_scans == 1
        assert delta.seeks == 1
        assert delta.pages_read == t.n_pages

    def test_unclustered_model_charges_physical_runs(self):
        """With clustered=False, scattered candidate rows cost extra seeks."""
        rng = np.random.default_rng(3)
        data = rng.uniform(0, 1, size=(2000, 2))
        clustered = DiskTable(
            data, cost_model=DiskCostModel(page_size=16, clustered=True)
        )
        physical = DiskTable(
            data, cost_model=DiskCostModel(page_size=16, clustered=False)
        )
        box = Box.closed([0.4, 0.0], [0.6, 1.0])
        clustered.range_query(box)
        physical.range_query(box)
        assert physical.stats.seeks > clustered.stats.seeks
        assert physical.stats.simulated_io_ms > clustered.stats.simulated_io_ms

    def test_small_query_cheaper_than_large(self, table):
        t, _ = table
        before = t.stats.snapshot()
        t.range_query(Box.closed([0.0, 0.0, 0.0], [0.05, 1.0, 1.0]))
        small = t.stats.delta_since(before).simulated_io_ms
        before = t.stats.snapshot()
        t.range_query(Box.closed([0.0, 0.0, 0.0], [0.9, 1.0, 1.0]))
        large = t.stats.delta_since(before).simulated_io_ms
        assert small < large
