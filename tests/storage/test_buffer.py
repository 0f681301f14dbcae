"""Tests for the buffer pool (warm-cache mode of the storage layer)."""

import numpy as np
import pytest

from repro.data.generator import generate
from repro.storage.costmodel import DiskCostModel
from repro.storage.pager import BufferPool
from repro.storage.table import DiskTable


class TestBufferPool:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(0)

    def test_first_access_misses(self):
        pool = BufferPool(4)
        assert pool.access(np.array([0, 16, 32])) == 3
        assert pool.misses == 3

    def test_repeat_access_hits(self):
        pool = BufferPool(4)
        pool.access(np.array([0, 1]))
        assert pool.access(np.array([0, 1])) == 0
        assert pool.hits == 2

    def test_lru_eviction(self):
        pool = BufferPool(2)
        pool.access(np.array([1]))
        pool.access(np.array([2]))
        pool.access(np.array([1]))  # refresh 1; 2 is now LRU
        pool.access(np.array([3]))  # evicts 2
        assert pool.access(np.array([1])) == 0  # still cached
        assert pool.access(np.array([2])) == 1  # was evicted

    def test_duplicate_pages_counted_once(self):
        pool = BufferPool(4)
        assert pool.access(np.array([5, 5, 5])) == 1

    def test_len_bounded(self):
        pool = BufferPool(3)
        pool.access(np.arange(10))
        assert len(pool) == 3


class TestWarmTable:
    @pytest.fixture()
    def tables(self):
        data = generate("independent", 2000, 2, seed=4)
        model = DiskCostModel(page_size=32)
        cold = DiskTable(data, cost_model=model)
        warm = DiskTable(data, cost_model=model, buffer_pages=1000)
        return cold, warm

    def test_repeat_query_free_when_warm(self, tables):
        cold, warm = tables
        lo, hi = [0.2, 0.2], [0.6, 0.6]
        warm.range_query(lo, hi)
        before = warm.stats.snapshot()
        warm.range_query(lo, hi)
        delta = warm.stats.delta_since(before)
        assert delta.pages_read == 0
        assert delta.simulated_io_ms == 0.0
        assert delta.buffer_hits > 0
        # same query on the cold table pays full price both times
        cold.range_query(lo, hi)
        before = cold.stats.snapshot()
        cold.range_query(lo, hi)
        assert cold.stats.delta_since(before).simulated_io_ms > 0

    def test_small_buffer_thrashes(self):
        data = generate("independent", 2000, 2, seed=5)
        table = DiskTable(
            data, cost_model=DiskCostModel(page_size=32), buffer_pages=1
        )
        lo, hi = [0.0, 0.0], [1.0, 1.0]
        table.range_query(lo, hi)
        before = table.stats.snapshot()
        table.range_query(lo, hi)
        # more pages than the buffer holds: almost everything misses again
        assert table.stats.delta_since(before).pages_read > 50

    def test_results_identical_with_and_without_buffer(self, tables):
        cold, warm = tables
        lo, hi = [0.1, 0.3], [0.7, 0.9]
        a = cold.range_query(lo, hi)
        b = warm.range_query(lo, hi)
        assert sorted(a.rowids) == sorted(b.rowids)
