"""End-to-end correctness of the CBCS engine.

The single most important property in the repository: for ANY sequence of
queries, any strategy, any region computer and any cache state, CBCS must
return exactly the constrained skyline that the naive plan (and brute force)
returns -- the caching is purely a performance device (Theorem 6).
"""

import numpy as np
import pytest

from repro.core.ampr import ApproximateMPR, ExactMPR
from repro.core.cache import SkylineCache
from repro.core.cbcs import CBCS
from repro.core.strategies import default_strategy_suite
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.skyline.baseline import BaselineMethod
from repro.skyline.bbs import BBSMethod
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

from tests.core.conftest import (
    assert_same_point_set,
    constrained_skyline_oracle,
)


def run_equivalence(data, queries, engine, context=""):
    for i, c in enumerate(queries):
        outcome = engine.query(c)
        assert_same_point_set(
            outcome.skyline,
            constrained_skyline_oracle(data, c),
            context=f"{context} query#{i} case={outcome.case}",
        )


@pytest.fixture(scope="module")
def dataset():
    return generate("independent", 2000, 3, seed=77)


@pytest.fixture(scope="module")
def table(dataset):
    return DiskTable(dataset)


class TestExploratoryEquivalence:
    @pytest.mark.parametrize("region", [ExactMPR(), ApproximateMPR(1), ApproximateMPR(5)],
                             ids=["mpr", "ampr1", "ampr5"])
    def test_refinement_chains(self, dataset, table, region):
        gen = WorkloadGenerator(dataset, seed=5)
        queries = gen.exploratory_stream(40)
        engine = CBCS(table, cache=SkylineCache(), region_computer=region)
        run_equivalence(dataset, queries, engine, context=region.name)

    @pytest.mark.parametrize("strategy", default_strategy_suite(seed=2),
                             ids=lambda s: s.name)
    def test_every_strategy(self, dataset, table, strategy):
        gen = WorkloadGenerator(dataset, seed=9)
        queries = gen.exploratory_stream(30)
        engine = CBCS(
            table, cache=SkylineCache(), strategy=strategy,
            region_computer=ApproximateMPR(1),
        )
        run_equivalence(dataset, queries, engine, context=strategy.name)

    @pytest.mark.parametrize(
        "distribution", ["correlated", "anticorrelated"]
    )
    def test_skewed_data(self, distribution):
        data = generate(distribution, 1500, 3, seed=31)
        table = DiskTable(data)
        gen = WorkloadGenerator(data, seed=13)
        engine = CBCS(table, region_computer=ExactMPR())
        run_equivalence(data, gen.exploratory_stream(25), engine, distribution)

    def test_duplicated_data(self):
        base = generate("independent", 800, 2, seed=41)
        data = np.vstack([base, base[:200]])
        table = DiskTable(data)
        gen = WorkloadGenerator(data, seed=17)
        engine = CBCS(table, region_computer=ExactMPR())
        run_equivalence(data, gen.exploratory_stream(25), engine, "duplicates")

    def test_higher_dimensional(self):
        data = generate("independent", 1200, 5, seed=51)
        table = DiskTable(data)
        gen = WorkloadGenerator(data, seed=19)
        engine = CBCS(table, region_computer=ApproximateMPR(3))
        run_equivalence(data, gen.exploratory_stream(20), engine, "5d")


class TestIndependentEquivalence:
    def test_preloaded_cache(self, dataset, table):
        gen = WorkloadGenerator(dataset, seed=23)
        engine = CBCS(table, region_computer=ApproximateMPR(3))
        engine.warm(gen.independent_queries(30))
        run_equivalence(
            dataset, gen.independent_queries(20), engine, "independent"
        )

    def test_with_cache_churn(self, dataset, table):
        gen = WorkloadGenerator(dataset, seed=29)
        engine = CBCS(
            table,
            cache=SkylineCache(capacity=5, policy="lru"),
            region_computer=ApproximateMPR(1),
        )
        run_equivalence(dataset, gen.exploratory_stream(40), engine, "churn")

    def test_lcu_policy(self, dataset, table):
        gen = WorkloadGenerator(dataset, seed=37)
        engine = CBCS(
            table,
            cache=SkylineCache(capacity=4, policy="lcu"),
            region_computer=ApproximateMPR(2),
        )
        run_equivalence(dataset, gen.exploratory_stream(30), engine, "lcu")


class TestEngineBehaviour:
    def test_first_query_is_a_miss(self, dataset):
        engine = CBCS(DiskTable(dataset))
        out = engine.query(Constraints([0.2] * 3, [0.8] * 3))
        assert out.case == "miss"
        assert not out.cache_hit

    def test_exact_repeat_is_free(self, dataset):
        engine = CBCS(DiskTable(dataset))
        c = Constraints([0.2] * 3, [0.8] * 3)
        engine.query(c)
        out = engine.query(Constraints(c.lo, c.hi))
        assert out.case == "exact"
        assert out.cache_hit
        assert out.points_read == 0
        assert_same_point_set(out.skyline, constrained_skyline_oracle(dataset, c))

    def test_case_b_reads_nothing(self, dataset):
        engine = CBCS(DiskTable(dataset))
        engine.query(Constraints([0.2] * 3, [0.8] * 3))
        out = engine.query(Constraints([0.2] * 3, [0.8, 0.8, 0.7]))
        assert out.case == "case_b"
        assert out.points_read == 0
        assert out.range_queries == 0
        assert out.timings.skyline_ms >= 0

    def test_cached_query_reads_fewer_points_than_baseline(self, dataset):
        table = DiskTable(dataset)
        engine = CBCS(table)
        baseline = BaselineMethod(DiskTable(dataset))
        c1 = Constraints([0.2] * 3, [0.8] * 3)
        c2 = Constraints([0.2] * 3, [0.8, 0.8, 0.85])  # case c
        engine.query(c1)
        cbcs_out = engine.query(c2)
        base_out = baseline.query(c2)
        assert cbcs_out.case == "case_c"
        assert cbcs_out.points_read < base_out.points_read
        assert_same_point_set(cbcs_out.skyline, base_out.skyline)

    def test_no_result_caching_when_disabled(self, dataset):
        engine = CBCS(DiskTable(dataset), cache_results=False)
        engine.query(Constraints([0.2] * 3, [0.8] * 3))
        assert len(engine.cache) == 0

    def test_dimension_validation(self, dataset):
        engine = CBCS(DiskTable(dataset))
        with pytest.raises(ValueError):
            engine.query(Constraints([0.0], [1.0]))

    def test_stats_fields_populated(self, dataset):
        engine = CBCS(DiskTable(dataset))
        engine.query(Constraints([0.1] * 3, [0.9] * 3))
        out = engine.query(Constraints([0.1] * 3, [0.9, 0.9, 0.95]))
        assert out.method.startswith("CBCS")
        assert out.stable is not None
        assert out.timings.processing_ms > 0
        assert out.timings.wall_ms > 0

    def test_empty_region_query(self, dataset):
        engine = CBCS(DiskTable(dataset))
        out = engine.query(Constraints([5.0] * 3, [6.0] * 3))
        assert out.skyline_size == 0


class TestCrossMethodAgreement:
    """Baseline, BBS and CBCS agree query for query."""

    def test_three_methods_agree(self, dataset):
        table = DiskTable(dataset)
        methods = [
            BaselineMethod(table),
            BBSMethod(dataset, max_entries=32),
            CBCS(DiskTable(dataset), region_computer=ApproximateMPR(1)),
        ]
        gen = WorkloadGenerator(dataset, seed=43)
        for c in gen.exploratory_stream(15):
            outcomes = [m.query(c) for m in methods]
            expected = constrained_skyline_oracle(dataset, c)
            for out in outcomes:
                assert_same_point_set(out.skyline, expected, context=out.method)
