"""The per-dimension index of :class:`DiskTable`, held against brute force.

The index is one sorted column per dimension (``keys`` ascending beside the
``rows`` that hold them, equal keys in ascending row id).  These tests pin
its contract -- what a range returns and in which order, and that the count
the planner trusts for emptiness is the length of the scan -- through the
table that owns it, against a sorted-array oracle and a brute-force mask.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.storage.table import DiskTable


def column_table(keys) -> DiskTable:
    """A one-column table: row ``i`` holds ``keys[i]``."""
    return DiskTable(np.asarray(keys, dtype=float).reshape(-1, 1))


def closed(lo, hi, lo_open=False, hi_open=False):
    """An interval's bounds as the closed ones the index and the table take:
    an open face at a finite value moves one double inward."""
    if lo_open and lo > -np.inf:
        lo = np.nextafter(lo, np.inf)
    if hi_open and hi < np.inf:
        hi = np.nextafter(hi, -np.inf)
    return lo, hi


def oracle_range(keys, lo, hi, lo_open=False, hi_open=False):
    """Row ids in the interval in key order, ties in ascending row id."""
    keys = np.asarray(keys, dtype=float)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    mask = (keys > lo) if lo_open else (keys >= lo)
    mask &= (keys < hi) if hi_open else (keys <= hi)
    return order[mask]


class TestConstruction:
    def test_empty(self):
        index = column_table([]).index(0)
        assert len(index) == 0
        assert len(index.range_rows(-1, 1)) == 0

    def test_small(self):
        index = column_table([3.0, 1.0, 2.0]).index(0)
        assert len(index) == 3
        assert list(index.range_rows(1.0, 3.0)) == [1, 2, 0]
        assert index.keys.dtype == np.float64
        assert index.rows.dtype == np.int64


class TestRangeQueries:
    @pytest.fixture()
    def loaded(self):
        keys = np.random.default_rng(7).uniform(0, 100, size=5000)
        return column_table(keys), keys

    def test_full_range(self, loaded):
        table, keys = loaded
        assert sorted(table.index(0).range_rows()) == list(range(len(keys)))

    def test_point_lookup_with_duplicates(self):
        index = column_table([1.0, 2.0, 2.0, 2.0, 3.0]).index(0)
        assert list(index.range_rows(2.0, 2.0)) == [1, 2, 3]

    def test_open_bounds(self):
        """An open face is asked for as the closed bound one double inside."""
        index = column_table([1.0, 2.0, 2.0, 3.0, 4.0]).index(0)
        assert list(index.range_rows(2.0, 4.0)) == [1, 2, 3, 4]
        assert list(index.range_rows(*closed(2.0, 4.0, lo_open=True))) == [3, 4]
        assert list(index.range_rows(*closed(2.0, 4.0, hi_open=True))) == [1, 2, 3]
        assert list(index.range_rows(*closed(2.0, 4.0, True, True))) == [3]
        assert list(index.range_rows(*closed(2.0, 2.0, lo_open=True))) == []

    def test_empty_and_inverted_ranges(self, loaded):
        table, _ = loaded
        index = table.index(0)
        assert len(index.range_rows(200, 300)) == 0
        assert len(index.range_rows(60, 40)) == 0
        assert table.estimate_count(0, 200, 300) == 0
        assert table.estimate_count(0, 60, 40) == 0

    def test_rows_in_key_order_ties_in_ascending_row_id(self):
        keys = np.random.default_rng(3).integers(0, 20, size=400).astype(float)
        got = column_table(keys).index(0).range_rows(2.0, 17.0)
        assert np.all(np.diff(keys[got]) >= 0)
        ties = np.diff(keys[got]) == 0
        assert ties.any() and np.all(np.diff(got)[ties] > 0)

    @given(
        keys=st.lists(st.floats(min_value=0, max_value=100), min_size=0, max_size=300),
        lo=st.floats(min_value=-10, max_value=110),
        hi=st.floats(min_value=-10, max_value=110),
        lo_open=st.booleans(),
        hi_open=st.booleans(),
    )
    @settings(max_examples=80)
    def test_range_matches_oracle(self, keys, lo, hi, lo_open, hi_open):
        got = column_table(keys).index(0).range_rows(*closed(lo, hi, lo_open, hi_open))
        expected = oracle_range(keys, lo, hi, lo_open, hi_open)
        assert list(got) == list(expected)

    @given(
        keys=st.lists(st.integers(0, 12), min_size=0, max_size=60),
        lo=st.integers(-1, 13),
        hi=st.integers(-1, 13),
    )
    @settings(max_examples=80)
    def test_count_is_the_length_of_the_scan(self, keys, lo, hi):
        """What the single structure guarantees: the closed-interval count
        the planner reads emptiness from is the scan's length -- always,
        tombstoned entries included."""
        table = column_table(keys)
        table.delete(np.arange(0, len(keys), 3))
        for half in (0.0, 0.5):
            count = table.estimate_count(0, lo + half, hi)
            assert count == len(table.index(0).range_rows(lo + half, hi))


class TestAppend:
    def test_append_into_empty(self):
        table = column_table([])
        for key in [5.0, 1.0, 3.0, 2.0, 4.0]:
            table.append([[key]])
        index = table.index(0)
        assert list(index.keys) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert list(index.rows) == [1, 3, 2, 4, 0]

    def test_append_after_construction(self):
        table = column_table(np.arange(100))
        table.append([[50.5]])
        assert list(table.index(0).range_rows(50, 51)) == [50, 100, 51]

    def test_descending_batch_inside_one_gap_stays_sorted(self):
        """The defect of the array that used to shadow the tree: a batch
        whose values fall into one gap of the column in descending order
        left it unsorted, the planner bisected it, read a count of zero and
        answered a non-empty range empty."""
        data = np.random.default_rng(0).random((50, 2))
        table = DiskTable(data)
        column = np.sort(data[:, 0])
        i = int(np.argmax(np.diff(column)))
        lo, hi = column[i], column[i + 1]
        a, b = lo + 0.7 * (hi - lo), lo + 0.3 * (hi - lo)
        ids = table.append(np.array([[a, 0.5], [b, 0.5]]))
        rows = table.range_query([(a + b) / 2, 0.0], [(a + hi) / 2, 1.0]).rowids
        assert list(rows) == [ids[0]]
        assert np.all(np.diff(table.index(0).keys) >= 0)

    @given(
        keys=st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=200),
        batch=st.integers(1, 7),
    )
    @settings(max_examples=50)
    def test_append_matches_oracle(self, keys, batch):
        table = column_table([])
        for start in range(0, len(keys), batch):
            table.append(np.array(keys[start : start + batch]).reshape(-1, 1))
        got = table.index(0).range_rows(2.0, 8.0)
        assert list(got) == list(oracle_range(keys, 2.0, 8.0))


class TestVacuum:
    def test_vacuum_removes_the_pair(self):
        table = column_table([1.0, 2.0, 3.0])
        table.delete([1])
        assert list(table.index(0).range_rows(2.0, 2.0)) == [1]  # tombstone
        assert table.vacuum() == 1
        assert len(table.index(0)) == 2
        assert list(table.index(0).range_rows(2.0, 2.0)) == []

    def test_vacuum_one_of_duplicates(self):
        table = column_table([2.0] * 6)
        table.delete([3])
        assert table.vacuum() == 1
        assert list(table.index(0).range_rows(2.0, 2.0)) == [0, 1, 2, 4, 5]

    def test_vacuum_everything(self):
        rng = np.random.default_rng(7)
        table = column_table(rng.uniform(0, 1, size=200))
        for step, row in enumerate(rng.permutation(200)):
            table.delete([row])
            assert table.vacuum() == 1
            assert len(table.index(0)) == 199 - step
        assert len(table.index(0).range_rows()) == 0
        assert table.estimate_count(0, 0.0, 1.0) == 0

    def test_interleaved_append_and_vacuum_matches_oracle(self):
        rng = np.random.default_rng(8)
        table = column_table([])
        live = {}
        for _ in range(800):
            if live and rng.random() < 0.45:
                row = int(rng.choice(list(live)))
                del live[row]
                table.delete([row])
                assert table.vacuum() == 1
            else:
                key = float(rng.integers(0, 40))
                (row,) = table.append([[key]])
                live[int(row)] = key
        expected = sorted(live, key=lambda row: (live[row], row))
        assert list(table.index(0).range_rows()) == expected

    @given(
        st.lists(st.floats(min_value=0, max_value=5), min_size=1, max_size=80),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_vacuum_property(self, keys, data):
        table = column_table(keys)
        victims = data.draw(
            st.lists(st.integers(0, len(keys) - 1), max_size=len(keys), unique=True)
        )
        table.delete(victims)
        assert table.vacuum() == len(victims)
        survivors = [r for r in oracle_range(keys, 0, 5) if r not in set(victims)]
        assert list(table.index(0).range_rows()) == survivors


# ----------------------------------------------------------------------
# Stateful: arbitrary append / delete / vacuum / save-load sequences
# ----------------------------------------------------------------------
#: Data values come from six levels, so duplicates and batches that land in
#: one gap in descending order are the common case, not the corner.
LEVELS = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
#: Query bounds sit on the levels, between them and outside them.
BOUNDS = [-0.1, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1]
MAX_D = 4

row_values = st.lists(st.sampled_from(LEVELS), min_size=MAX_D, max_size=MAX_D)
#: one face per dimension: (lo, hi, lo_open, hi_open); lo > hi is allowed
faces = st.lists(
    st.tuples(
        st.sampled_from(BOUNDS),
        st.sampled_from(BOUNDS),
        st.booleans(),
        st.booleans(),
    ),
    min_size=MAX_D,
    max_size=MAX_D,
)


class TableMachine(RuleBasedStateMachine):
    """After every step: each index is a sorted ``(key, row id)`` sequence
    over exactly the rows that still have entries, the count equals the
    scan, and range queries with mixed open / closed faces return exactly
    the live rows a brute-force mask returns."""

    @initialize(
        d=st.sampled_from([1, 2, 4]),
        plan=st.sampled_from(["bitmap", "best_index"]),
        rows=st.lists(row_values, max_size=12),
        boxes=st.lists(faces, min_size=3, max_size=6),
    )
    def setup(self, d, plan, rows, boxes):
        self.d = d
        data = np.array(rows, dtype=float).reshape(-1, MAX_D)[:, :d]
        self.table = DiskTable(data, plan=plan)
        self.indexed = set(range(len(data)))  # rows with index entries
        self.boxes = boxes

    @rule(rows=st.lists(row_values, min_size=1, max_size=6))
    def append(self, rows):
        start = self.table.n
        ids = self.table.append(np.array(rows)[:, : self.d])
        assert list(ids) == list(range(start, start + len(rows)))
        self.indexed.update(int(i) for i in ids)

    @precondition(lambda self: self.table.live_count > 0)
    @rule(data=st.data())
    def delete(self, data):
        alive = [int(i) for i in np.flatnonzero(self.table._alive)]
        picks = data.draw(
            st.lists(st.sampled_from(alive), min_size=1, max_size=3, unique=True)
        )
        assert self.table.delete(picks) == len(picks)

    @rule()
    def vacuum(self):
        dead = {i for i in self.indexed if not self.table._alive[i]}
        assert self.table.vacuum() == len(dead)
        self.indexed -= dead

    @rule()
    def save_and_load(self):
        plan = self.table.plan
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "table.npz"
            self.table.save(path)
            self.table = DiskTable.load(path)
        assert self.table.plan == plan
        self.indexed = set(range(self.table.n))  # load re-sorts every column

    @rule(box=faces)
    def query(self, box):
        self._check_box(box)

    def _check_box(self, box):
        table = self.table
        data = table.data_view()
        box = box[: self.d]
        keep = table._alive.copy()
        for dim, (lo, hi, lo_open, hi_open) in enumerate(box):
            column = data[:, dim]
            keep &= (column > lo) if lo_open else (column >= lo)
            keep &= (column < hi) if hi_open else (column <= hi)
        lo, hi = np.array([closed(*face) for face in box]).T
        result = table.range_query(lo, hi)
        assert sorted(result.rowids) == list(np.flatnonzero(keep))
        np.testing.assert_array_equal(result.points, data[result.rowids])

    @invariant()
    def indexes_and_queries_agree_with_brute_force(self):
        table = self.table
        data = table.data_view()
        for dim in range(self.d):
            index = table.index(dim)
            keys, rows = index.keys, index.rows
            assert len(index) == len(keys) == len(rows) == len(self.indexed)
            assert set(rows.tolist()) == self.indexed
            assert np.all(np.diff(keys) >= 0)
            np.testing.assert_array_equal(data[rows, dim], keys)
            ties = np.diff(keys) == 0
            assert np.all(np.diff(rows)[ties] > 0)
            for lo in BOUNDS:
                for hi in BOUNDS:
                    count = table.estimate_count(dim, lo, hi)
                    assert count == len(index.range_rows(lo, hi))
        for box in self.boxes:
            self._check_box(box)


TableMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None
)
TestTableMachine = TableMachine.TestCase
