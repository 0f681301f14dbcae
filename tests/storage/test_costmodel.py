"""Tests for :mod:`repro.storage.costmodel` and :mod:`repro.storage.pager`."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.costmodel import DiskCostModel
from repro.storage.pager import IOStats, page_runs


class TestCostModel:
    def test_defaults(self):
        model = DiskCostModel()
        assert model.fetch_cost_ms(0, 0) == 0.0
        assert model.fetch_cost_ms(1, 10) == pytest.approx(
            model.seek_ms + 10 * model.page_read_ms
        )

    def test_sequential_scan(self):
        model = DiskCostModel(seek_ms=4.0, page_read_ms=1.0)
        assert model.sequential_scan_cost_ms(0) == 0.0
        assert model.sequential_scan_cost_ms(100) == pytest.approx(104.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskCostModel(page_size=0)
        with pytest.raises(ValueError):
            DiskCostModel(seek_ms=-1.0)

    def test_random_access_costs_more_than_sequential(self):
        """Core premise of the paper's Figure 10: scattered reads are slower."""
        model = DiskCostModel()
        scattered = model.fetch_cost_ms(n_seeks=50, n_pages=50)
        sequential = model.fetch_cost_ms(n_seeks=1, n_pages=50)
        assert scattered > sequential


class TestPredictFetch:
    """``DiskCostModel.fetch_shape``: the forecast of one range query's
    pages and seeks from its estimated rows, as ``Forecast`` prices boxes."""

    def test_zero_rows_is_free(self):
        model = DiskCostModel()
        pages, seeks = model.fetch_shape([0])
        assert (pages[0], seeks[0]) == (0, 0)
        assert model.fetch_cost_ms(seeks[0], pages[0]) == 0.0

    def test_clustered_matches_fetch_cost(self):
        model = DiskCostModel(page_size=10)
        pages, seeks = model.fetch_shape([25, 0.3])
        assert pages.tolist() == [3, 1]  # ceil(25 / 10); a fraction pays a page
        assert seeks.tolist() == [1, 1]  # one contiguous run
        assert model.fetch_cost_ms(seeks[0], pages[0]) == pytest.approx(
            model.fetch_cost_ms(1, 3)
        )

    def test_unclustered_without_hint_is_pessimistic(self):
        model = DiskCostModel(page_size=10, clustered=False)
        pages, seeks = model.fetch_shape([25])
        assert pages[0] == 25  # one page per row
        assert seeks[0] == 25

    def test_unclustered_yao_estimate_bounded_by_heap(self):
        model = DiskCostModel(page_size=10, clustered=False)
        pages, seeks = model.fetch_shape([500], heap_pages=40)
        assert 1 <= pages[0] <= 40
        assert 1 <= seeks[0] <= pages[0]
        # 500 uniform draws over 40 pages hit nearly every page
        assert pages[0] == 40

    def test_unclustered_few_rows_touch_few_pages(self):
        model = DiskCostModel(page_size=10, clustered=False)
        pages, seeks = model.fetch_shape([3, 0], heap_pages=1000)
        assert pages[0] <= 3  # Yao: at most one page per row
        assert (pages[1], seeks[1]) == (0, 0)


class TestUnclusteredAccounting:
    """clustered=False charges page runs from physical row ids."""

    def test_scattered_rows_pay_per_run(self):
        from repro.geometry.constraints import Constraints
        from repro.storage.table import DiskTable

        rng = np.random.default_rng(0)
        data = rng.random((200, 2))
        model = DiskCostModel(page_size=10, clustered=False)
        table = DiskTable(data, cost_model=model)
        c = Constraints(np.zeros(2), np.ones(2))
        table.range_query(c.lo, c.hi)  # full region: every page, one run
        stats = table.stats
        assert stats.pages_read == 20  # 200 rows / 10 per page
        assert stats.seeks == 1  # rows are contiguous -> one run
        assert stats.simulated_io_ms == pytest.approx(
            model.fetch_cost_ms(1, 20)
        )

    def test_selective_query_charges_runs_not_rows(self):
        from repro.geometry.constraints import Constraints
        from repro.storage.table import DiskTable

        rng = np.random.default_rng(1)
        data = rng.random((400, 2))
        model = DiskCostModel(page_size=16, clustered=False)
        table = DiskTable(data, cost_model=model)
        c = Constraints(np.zeros(2), np.full(2, 0.3))
        result = table.range_query(c.lo, c.hi)
        rows = result.rows_fetched
        assert 0 < rows < 400
        stats = table.stats
        # scattered hits: pages <= rows, runs <= pages, all charged
        assert stats.pages_read <= rows
        assert 1 <= stats.seeks <= stats.pages_read
        assert stats.simulated_io_ms == pytest.approx(
            model.fetch_cost_ms(stats.seeks, stats.pages_read)
        )


class TestPageRuns:
    def test_empty(self):
        assert page_runs(np.array([], dtype=np.int64), 10) == (0, 0)

    def test_single_page(self):
        assert page_runs(np.array([0, 1, 2]), 10) == (1, 1)

    def test_contiguous_pages_one_run(self):
        rows = np.array([5, 15, 25])  # pages 0, 1, 2
        assert page_runs(rows, 10) == (3, 1)

    def test_gap_starts_new_run(self):
        rows = np.array([5, 95])  # pages 0 and 9
        assert page_runs(rows, 10) == (2, 2)

    def test_duplicate_rows_counted_once(self):
        rows = np.array([3, 3, 3])
        assert page_runs(rows, 10) == (1, 1)

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1))
    def test_runs_never_exceed_pages(self, rows):
        n_pages, n_runs = page_runs(np.array(rows), 16)
        assert 1 <= n_runs <= n_pages
        assert n_pages == len({r // 16 for r in rows})


class TestIOStats:
    def test_reset(self):
        stats = IOStats(points_read=5, seeks=2, simulated_io_ms=1.5)
        stats.reset()
        assert stats.points_read == 0
        assert stats.simulated_io_ms == 0.0

    def test_snapshot_is_independent(self):
        stats = IOStats(points_read=5)
        snap = stats.snapshot()
        stats.points_read = 99
        assert snap.points_read == 5

    def test_delta_since(self):
        stats = IOStats(points_read=10, pages_read=3, simulated_io_ms=2.0)
        snap = stats.snapshot()
        stats.points_read += 7
        stats.simulated_io_ms += 1.0
        delta = stats.delta_since(snap)
        assert delta.points_read == 7
        assert delta.pages_read == 0
        assert delta.simulated_io_ms == pytest.approx(1.0)

    def test_add(self):
        a = IOStats(points_read=1, range_queries=2)
        b = IOStats(points_read=3, empty_queries=1)
        a.add(b)
        assert a.points_read == 4
        assert a.range_queries == 2
        assert a.empty_queries == 1
