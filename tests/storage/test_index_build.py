"""The sorted-column build, held byte for byte against a stable argsort.

Each dimension's index is ``(key, row id)`` pairs in key order, equal keys
in ascending row id (DESIGN.md section 5, item 14).  The build sorts with an
unstable argsort and repairs the ties; an append merges a batch with one
position vector.  These properties pin both to the references they replace
-- ``np.argsort(kind="stable")`` and two ``np.insert`` calls -- on columns
heavy in ties, in ``-0.0`` / ``+0.0`` pairs (equal keys with different
bytes) and in huge magnitudes, at every small length.  They also pin what is
read off the sorted ends: a table's domain, a fleet's shard MBRs and the
indexes a saved table loads with.

A zero face of the domain takes the sign of the zero the index sorts to that
end: the lowest-id row holding the minimum for ``domain_lo``, the highest-id
row holding the maximum for ``domain_hi`` (``-0.0 == +0.0``, so no query can
tell the two apart; the faces are compared with ``==``).
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.sharding import ShardedTable
from repro.storage.table import DiskTable, _SortedColumn

#: a small grid, both zeros, huge and tiny magnitudes: ties are the rule
GRID = [-1e308, -2.5, -1.0, -0.0, 0.0, 5e-324, 1.0, 2.5, 1e308]

values = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tables(draw, max_rows=40, d=None):
    """An ``(n, d)`` float array, ``n`` from 0 up.  Its cells are both zeros
    alone (every column one run of equal keys), ``GRID`` values, or any
    finite double."""
    n = draw(st.integers(0, max_rows))
    d = draw(st.integers(1, 3)) if d is None else d
    cells = draw(
        st.sampled_from([st.sampled_from([-0.0, 0.0]), st.sampled_from(GRID), values])
    )
    flat = draw(st.lists(cells, min_size=n * d, max_size=n * d))
    return np.array(flat, dtype=float).reshape(n, d)


def stable_reference(column):
    order = np.argsort(column, kind="stable")
    return column[order], order.astype(np.int64)


def assert_same_bytes(index, keys, rows):
    assert index.keys.dtype == np.float64 and index.rows.dtype == np.int64
    assert index.keys.tobytes() == np.ascontiguousarray(keys).tobytes()
    assert index.rows.tobytes() == np.ascontiguousarray(rows).tobytes()


class TestBuild:
    @given(tables())
    @settings(max_examples=300, deadline=None)
    def test_each_index_is_the_stable_argsort(self, data):
        table = DiskTable(data)
        for dim in range(data.shape[1]):
            assert_same_bytes(table.index(dim), *stable_reference(data[:, dim]))

    @given(st.lists(st.one_of(st.sampled_from(GRID), values), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_a_bare_column(self, column):
        column = np.array(column, dtype=float)
        assert_same_bytes(_SortedColumn(column), *stable_reference(column))

    def test_a_long_run_of_signed_zeros(self):
        column = np.random.default_rng(0).choice([-0.0, 0.0, 1.0], size=5000)
        assert_same_bytes(_SortedColumn(column), *stable_reference(column))


class TestInsert:
    @staticmethod
    def two_inserts(index, column, rowids):
        """The merge as two ``np.insert`` calls over the sorted batch."""
        order = np.argsort(column, kind="stable")
        at = index.keys.searchsorted(column[order], "right")
        return (
            np.insert(index.keys, at, column[order]),
            np.insert(index.rows, at, rowids[order]),
        )

    @given(tables(max_rows=30), st.data())
    @settings(max_examples=300, deadline=None)
    def test_append_merges_like_two_inserts(self, data, draw):
        d = data.shape[1]
        batch = draw.draw(tables(max_rows=8, d=d))
        table = DiskTable(data)
        new_ids = np.arange(len(data), len(data) + len(batch))
        want = [
            self.two_inserts(table.index(dim), batch[:, dim], new_ids)
            for dim in range(d)
        ]
        table.append(batch)
        whole = np.vstack([data, batch])
        for dim in range(d):
            assert_same_bytes(table.index(dim), *want[dim])
            assert_same_bytes(table.index(dim), *stable_reference(whole[:, dim]))


class TestSortedEnds:
    @given(tables())
    @settings(max_examples=300, deadline=None)
    def test_domain_is_the_column_extremes(self, data):
        table = DiskTable(data)
        if not len(data):
            assert (table.domain_lo == 0).all() and (table.domain_hi == 0).all()
            return
        assert (table.domain_lo == data.min(axis=0)).all()
        assert (table.domain_hi == data.max(axis=0)).all()
        for dim in range(data.shape[1]):
            column = data[:, dim]
            first_min = np.flatnonzero(column == column.min())[0]
            last_max = np.flatnonzero(column == column.max())[-1]
            assert np.signbit(table.domain_lo[dim]) == np.signbit(column[first_min])
            assert np.signbit(table.domain_hi[dim]) == np.signbit(column[last_max])

    @given(tables(), st.integers(1, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_shard_mbrs_are_the_shard_extremes(self, data, n_shards, draw):
        shard = st.integers(0, n_shards - 1)
        assigned = draw.draw(st.lists(shard, min_size=len(data), max_size=len(data)))
        fleet = ShardedTable(data, n_shards, mode="explicit", assignments=assigned)
        assigned = np.array(assigned, dtype=np.int64)
        for sid in range(n_shards):
            rows = data[assigned == sid]
            if len(rows):
                assert (fleet.mbr_lo[sid] == rows.min(axis=0)).all()
                assert (fleet.mbr_hi[sid] == rows.max(axis=0)).all()
            else:
                assert (fleet.mbr_lo[sid] == np.inf).all()
                assert (fleet.mbr_hi[sid] == -np.inf).all()


class TestLoad:
    @given(tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_loaded_table_has_the_same_indexes(self, data, draw):
        table = DiskTable(data)
        if len(data):
            dead = draw.draw(st.lists(st.integers(0, len(data) - 1), max_size=5))
            table.delete(np.array(dead, dtype=np.int64))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.npz"
            table.save(path)
            loaded = DiskTable.load(path)
        for dim in range(table.ndim):
            index = table.index(dim)
            assert_same_bytes(loaded.index(dim), index.keys, index.rows)
        assert loaded.domain_lo.tobytes() == table.domain_lo.tobytes()
        assert loaded.domain_hi.tobytes() == table.domain_hi.tobytes()
