"""Tests for :mod:`repro.storage.table`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.executor import Executor
from repro.geometry.box import BoxSet
from repro.storage.costmodel import DiskCostModel
from repro.storage.sharding import ShardedTable
from repro.storage.table import DiskTable, concat_results
from tests.geometry.regions import closed, mask


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
        result = t.range_query([0, 0], [1, 1])
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
        box = closed([0.2, 0.3, 0.1], [0.6, 0.8, 0.9])
        result = t.range_query(*box)
        expected = np.flatnonzero(mask([box], data))
        assert sorted(result.rowids) == sorted(expected)
        np.testing.assert_allclose(
            result.points[np.argsort(result.rowids)], data[np.sort(result.rowids)]
        )

    def test_bitmap_plan_matches(self, table):
        _, data = table
        t = DiskTable(data, plan="bitmap", cost_model=DiskCostModel(page_size=32))
        box = closed([0.2, 0.3, 0.1], [0.6, 0.8, 0.9])
        result = t.range_query(*box)
        expected = np.flatnonzero(mask([box], data))
        assert sorted(result.rowids) == sorted(expected)

    def test_bitmap_reads_exactly_matching_rows(self, table):
        _, data = table
        t = DiskTable(data, plan="bitmap", cost_model=DiskCostModel(page_size=32))
        box = closed([0.2, 0.3, 0.1], [0.6, 0.8, 0.9])
        result = t.range_query(*box)
        assert result.rows_fetched == len(result)

    def test_best_index_may_overfetch_but_never_underfetches(self, table):
        t, data = table
        box = closed([0.45, 0.0, 0.0], [0.55, 1.0, 1.0])
        result = t.range_query(*box)
        assert result.rows_fetched >= len(result)
        assert len(result) == int(mask([box], data).sum())

    def test_open_faces_respected(self):
        """An open face is the closed bound one double inside it."""
        data = np.array([[0.5, 0.5], [0.5, 0.7], [0.6, 0.5]])
        t = DiskTable(data)
        result = t.range_query([np.nextafter(0.5, 1.0), 0.0], [1.0, 1.0])
        assert sorted(result.rowids) == [2]

    def test_empty_query_costs_no_io(self, table):
        """Paper Section 7.3.2: B-trees detect empty queries without seeks."""
        t, _ = table
        before = t.stats.snapshot()
        result = t.range_query([2.0, 2.0, 2.0], [3.0, 3.0, 3.0])
        delta = t.stats.delta_since(before)
        assert len(result) == 0
        assert delta.range_queries == 1
        assert delta.empty_queries == 1
        assert delta.seeks == 0
        assert delta.pages_read == 0
        assert delta.simulated_io_ms == 0.0

    def test_unsatisfiable_box_is_empty_query(self, table):
        t, _ = table
        box = closed([0.5, 0, 0], [0.4, 1, 1])
        result = t.range_query(*box)
        assert len(result) == 0
        assert t.stats.empty_queries >= 1

    def test_dimension_mismatch(self, table):
        t, _ = table
        with pytest.raises(ValueError):
            t.range_query([0, 0], [1, 1])

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
        box = closed(lo, hi)
        best = DiskTable(data, plan="best_index").range_query(*box)
        bitmap = DiskTable(data, plan="bitmap").range_query(*box)
        seqscan = DiskTable(data, plan="seqscan").range_query(*box)
        assert sorted(best.rowids) == sorted(bitmap.rowids)
        assert sorted(best.rowids) == sorted(seqscan.rowids)
        expected = np.flatnonzero(mask([box], data))
        assert sorted(best.rowids) == sorted(expected)

    def test_seqscan_reads_everything(self):
        data = np.random.default_rng(5).uniform(0, 1, size=(500, 2))
        table = DiskTable(data, plan="seqscan")
        result = table.range_query([0.4, 0.4], [0.6, 0.6])
        assert result.rows_fetched == 500
        assert table.stats.points_read == 500

    def test_index_baseline_beats_seqscan_baseline(self):
        """Paper Section 7: 'a baseline using sequential scan ... was
        consistently slower than the baseline using the indexes'."""
        rng = np.random.default_rng(6)
        data = rng.uniform(0, 1, size=(20_000, 3))
        indexed = DiskTable(data)
        scanning = DiskTable(data, plan="seqscan")
        box = closed([0.3, 0.3, 0.3], [0.6, 0.6, 0.6])
        indexed.range_query(*box)
        scanning.range_query(*box)
        assert indexed.stats.simulated_io_ms < scanning.stats.simulated_io_ms


class TestAccounting:
    def test_points_read_counts_candidates(self, table):
        t, _ = table
        before = t.stats.snapshot()
        result = t.range_query([0.4, 0.0, 0.0], [0.6, 1.0, 1.0])
        delta = t.stats.delta_since(before)
        assert delta.points_read == result.rows_fetched
        assert delta.pages_read >= 1
        assert delta.seeks >= 1
        assert delta.simulated_io_ms > 0

    def test_executor_fetch_accumulates(self, table):
        t, data = table
        boxes = BoxSet(  # the second box's lower face open at x = 0.3
            np.array([[0.0, 0.0, 0.0], [np.nextafter(0.3, 1.0), 0.0, 0.0]]),
            np.array([[0.3, 1.0, 1.0], [0.6, 1.0, 1.0]]),
        )
        before = t.stats.snapshot()
        result = concat_results(Executor().fetch(t, boxes), 3)
        delta = t.stats.delta_since(before)
        assert delta.range_queries == 2
        # disjoint boxes: no duplicate rowids in the union
        assert len(set(result.rowids)) == len(result.rowids)
        expected = np.flatnonzero(data[:, 0] <= 0.6)
        assert sorted(result.rowids) == sorted(expected)

    def test_executor_fetch_of_no_boxes_is_empty(self, table):
        t, _ = table
        assert Executor().fetch(t, BoxSet.empty(3)) == ()

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
        box = closed([0.4, 0.0], [0.6, 1.0])
        clustered.range_query(*box)
        physical.range_query(*box)
        assert physical.stats.seeks > clustered.stats.seeks
        assert physical.stats.simulated_io_ms > clustered.stats.simulated_io_ms

    def test_small_query_cheaper_than_large(self, table):
        t, _ = table
        before = t.stats.snapshot()
        t.range_query([0.0, 0.0, 0.0], [0.05, 1.0, 1.0])
        small = t.stats.delta_since(before).simulated_io_ms
        before = t.stats.snapshot()
        t.range_query([0.0, 0.0, 0.0], [0.9, 1.0, 1.0])
        large = t.stats.delta_since(before).simulated_io_ms
        assert small < large


# ----------------------------------------------------------------------
# range_query(lo, hi) on closed float bounds, against brute force
# ----------------------------------------------------------------------
#: data values: few, so duplicates and rows on a face are common
LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _face(draw, ndim):
    """One closed bound per dimension: a level, the double next to one, or
    +-inf (a face at +inf below, or at -inf above, holds no double)."""
    values = st.one_of(
        st.sampled_from(LEVELS + [-math.inf, math.inf]),
        st.sampled_from(LEVELS).map(lambda v: float(np.nextafter(v, math.inf))),
        st.sampled_from(LEVELS).map(lambda v: float(np.nextafter(v, -math.inf))),
    )
    return np.array(draw(st.lists(values, min_size=ndim, max_size=ndim)))


@st.composite
def table_and_box(draw):
    ndim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 40))
    rows = draw(st.lists(st.sampled_from(LEVELS), min_size=n * ndim, max_size=n * ndim))
    data = np.array(rows, dtype=float).reshape(n, ndim)
    lo = _face(draw, ndim)
    shape = draw(st.sampled_from(["free", "point", "one_ulp"]))
    if shape == "free":
        hi = _face(draw, ndim)
    elif shape == "point":  # [v, v]: the box of one value per dimension
        hi = lo.copy()
    else:  # [v, nextafter(v)]: two doubles wide
        hi = np.nextafter(lo, math.inf)
    plan = draw(st.sampled_from(["bitmap", "best_index", "seqscan"]))
    shards = draw(st.sampled_from([None, 1, 3]))
    return data, lo, hi, plan, shards


def expected_fetch(data, lo, hi, plan):
    """``(rowids, rows_fetched)`` of one closed-bounds range query on a
    plain table over ``data``, by brute force."""
    inside = np.flatnonzero(((data >= lo) & (data <= hi)).all(axis=1))
    holds_double = bool(np.all((lo <= hi) & (lo < math.inf) & (hi > -math.inf)))
    if not len(data) or not holds_double:
        return inside, 0
    if plan == "seqscan":
        return inside, len(data)
    counts = [int(((col >= a) & (col <= b)).sum()) for col, a, b in zip(data.T, lo, hi)]
    if plan == "bitmap" or min(counts) == 0:
        return inside, len(inside)
    return inside, min(counts)  # best_index: the first most selective column


class TestClosedBounds:
    """``range_query(lo, hi)`` returns the live rows inside the closed box and
    charges what the plan says, on a plain and on a sharded table: +-inf
    faces, empty boxes, point and two-double boxes, empty tables."""

    @given(table_and_box())
    @settings(max_examples=150, deadline=None)
    def test_rows_and_rows_fetched_match_brute_force(self, drawn):
        data, lo, hi, plan, shards = drawn

        def table_of(rows):
            return DiskTable(rows, plan=plan)

        if shards is None:
            table = table_of(data)
            want_fetched = expected_fetch(data, lo, hi, plan)[1]
        else:
            table = ShardedTable(data, shards, table_factory=table_of)
            touched = [
                shard
                for shard in table
                if shard.table.n
                and np.all(table.mbr_lo[shard.shard_id] <= hi)
                and np.all(table.mbr_hi[shard.shard_id] >= lo)
            ]
            want_fetched = sum(
                expected_fetch(s.table.data_view(), lo, hi, plan)[1] for s in touched
            )
        result = table.range_query(lo, hi)
        want_rows = expected_fetch(data, lo, hi, plan)[0]
        assert sorted(result.rowids.tolist()) == want_rows.tolist()
        np.testing.assert_array_equal(result.points, data[result.rowids])
        assert result.rows_fetched == want_fetched
        if result.rows_fetched == 0:
            assert (result.seeks, result.pages_read, result.io_ms) == (0, 0, 0.0)


class TestBestIndexCandidates:
    """The index choice returns the live rows of the most selective
    dimension's ``range_rows`` slice, in key order: the dimension with the
    fewest :meth:`DiskTable.estimate_count` entries (the first minimum on a
    tie), or None when some marginal is empty; on a plain table and on every
    shard of a sharded one, with dead rows and +-inf faces."""

    @staticmethod
    def reference(table, lo, hi):
        counts = [
            table.estimate_count(dim, a, b) for dim, (a, b) in enumerate(zip(lo, hi))
        ]
        if min(counts) == 0:
            return None
        dim = counts.index(min(counts))
        candidates = table.index(dim).range_rows(lo[dim], hi[dim])
        return candidates[table._alive[candidates]]

    @given(table_and_box(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_rows_as_the_per_dimension_choice(self, drawn, data):
        rows, lo, hi, _, shards = drawn
        if len(lo) > 1 and data.draw(st.booleans()):
            # an empty marginal after the first dimension: no row holds 0.6
            lo[-1] = hi[-1] = 0.6

        def table_of(part):
            return DiskTable(part, plan="best_index")

        if shards is None:
            table = table_of(rows)
            parts = [table]
        else:
            table = ShardedTable(rows, shards, table_factory=table_of)
            parts = [shard.table for shard in table]
        if len(rows):
            dead = st.lists(st.integers(0, len(rows) - 1), max_size=len(rows))
            table.delete(np.array(data.draw(dead), dtype=np.int64))
        holds_double = bool(np.all((lo <= hi) & (lo < math.inf) & (hi > -math.inf)))
        fetched = 0
        for part in parts:
            got = part._best_index_candidates(lo, hi)
            want = self.reference(part, lo, hi)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tolist() == want.tolist()
                if part.n and holds_double:
                    fetched += len(want)
        if shards is None:
            assert table.range_query(lo, hi).rows_fetched == fetched

    def test_a_tie_goes_to_the_first_dimension(self):
        # both columns count two rows; their key orders differ
        table = DiskTable(np.array([[0.0, 1.0], [1.0, 0.0]]), plan="best_index")
        lo, hi = np.full(2, -math.inf), np.full(2, math.inf)
        assert table._best_index_candidates(lo, hi).tolist() == [0, 1]
