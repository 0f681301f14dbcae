"""Tests for table/cache persistence and the named-column API."""

import numpy as np
import pytest

from repro.core.cache import SkylineCache
from repro.core.cbcs import CBCS
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.storage.costmodel import DiskCostModel
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

from tests.core.conftest import assert_same_point_set, constrained_skyline_oracle


class TestNamedColumns:
    @pytest.fixture()
    def table(self):
        data = generate("independent", 200, 3, seed=1)
        return DiskTable(data, columns=("price", "distance", "rating"))

    def test_constraints_by_name(self, table):
        c = table.constraints(price=(0.2, 0.8), rating=(None, 0.5))
        assert c.lo[0] == 0.2 and c.hi[0] == 0.8
        assert c.hi[2] == 0.5
        # unspecified dims and open sides fall back to the domain
        assert c.lo[1] == table.domain_lo[1]
        assert c.lo[2] == table.domain_lo[2]

    def test_unknown_column(self, table):
        with pytest.raises(KeyError):
            table.constraints(colour=(0, 1))

    def test_requires_names(self):
        table = DiskTable(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            table.constraints(x=(0, 1))

    def test_name_count_validated(self):
        with pytest.raises(ValueError):
            DiskTable(np.zeros((1, 2)), columns=("only_one",))
        with pytest.raises(ValueError):
            DiskTable(np.zeros((1, 2)), columns=("dup", "dup"))

    def test_named_query_roundtrip(self, table):
        c = table.constraints(price=(0.1, 0.9))
        result = table.range_query(c.lo, c.hi)
        data = table.data_view()
        expected = np.flatnonzero(c.satisfied_mask(data))
        assert sorted(result.rowids) == sorted(expected)


class TestTablePersistence:
    def test_roundtrip_preserves_queries(self, tmp_path):
        data = generate("independent", 500, 3, seed=2)
        table = DiskTable(
            data,
            cost_model=DiskCostModel(page_size=64, seek_ms=2.0),
            columns=("a", "b", "c"),
            buffer_pages=32,
        )
        table.delete([1, 2, 3])
        path = tmp_path / "table.npz"
        table.save(path)
        loaded = DiskTable.load(path)

        assert loaded.columns == ("a", "b", "c")
        assert loaded.cost_model.page_size == 64
        assert loaded.cost_model.seek_ms == 2.0
        assert loaded.buffer is not None
        assert loaded.live_count == 497
        c = Constraints([0.1] * 3, [0.9] * 3)
        a = table.range_query(c.lo, c.hi)
        b = loaded.range_query(c.lo, c.hi)
        assert sorted(a.rowids) == sorted(b.rowids)

    def test_roundtrip_defaults(self, tmp_path):
        table = DiskTable(generate("independent", 50, 2, seed=3))
        path = tmp_path / "t.npz"
        table.save(path)
        loaded = DiskTable.load(path)
        assert loaded.columns is None
        assert loaded.buffer is None
        assert loaded.n == 50


class TestCachePersistence:
    def test_roundtrip(self, tmp_path):
        data = generate("independent", 800, 2, seed=4)
        engine = CBCS(DiskTable(data))
        gen = WorkloadGenerator(data, seed=5)
        for c in gen.independent_queries(6):
            engine.query(c)
        path = tmp_path / "cache.npz"
        engine.cache.save(path)

        restored = SkylineCache.load(path)
        assert len(restored) == len(engine.cache)
        for item in engine.cache:
            twin = restored.exact_match(item.constraints)
            assert twin is not None
            np.testing.assert_array_equal(
                np.sort(twin.skyline, axis=0), np.sort(item.skyline, axis=0)
            )
            assert twin.use_count == item.use_count

    def test_restored_cache_serves_queries(self, tmp_path):
        data = generate("independent", 800, 2, seed=6)
        engine = CBCS(DiskTable(data))
        c = Constraints([0.2, 0.2], [0.8, 0.8])
        engine.query(c)
        path = tmp_path / "cache.npz"
        engine.cache.save(path)

        warm_engine = CBCS(DiskTable(data), cache=SkylineCache.load(path))
        refined = Constraints([0.2, 0.2], [0.8, 0.85])
        out = warm_engine.query(refined)
        assert out.cache_hit
        assert_same_point_set(
            out.skyline, constrained_skyline_oracle(data, refined)
        )

    def test_empty_cache_roundtrip(self, tmp_path):
        cache = SkylineCache(capacity=7, policy="lcu")
        path = tmp_path / "empty.npz"
        cache.save(path)
        restored = SkylineCache.load(path)
        assert len(restored) == 0
        assert restored.capacity == 7
        assert restored.policy == "lcu"
