"""Tests for the cost-based cache search strategy (extension)."""

import numpy as np
import pytest

from repro.core.ampr import ApproximateMPR
from repro.core.cbcs import CBCS
from repro.core.cache import SkylineCache
from repro.core.strategies import CostBased, MaxOverlap
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

from tests.core.conftest import assert_same_point_set, constrained_skyline_oracle


@pytest.fixture()
def setting():
    data = generate("independent", 3000, 2, seed=51)
    table = DiskTable(data)
    region = ApproximateMPR(1)
    return data, table, region


class TestSelection:
    def test_validation(self, setting):
        _, table, region = setting
        with pytest.raises(ValueError):
            CostBased(table, region, max_candidates=0)
        with pytest.raises(ValueError):
            CostBased(table, region).select(Constraints([0, 0], [1, 1]), [])

    def test_prefers_cheaper_plan_over_bigger_overlap(self, setting):
        """An item whose MPR needs almost nothing beats one with more raw
        overlap but an expensive fetch."""
        data, table, region = setting
        cache = SkylineCache()

        def cached(c):
            inside = data[c.satisfied_mask(data)]
            from repro.skyline.sfs import sfs_skyline

            return cache.insert(c, inside[sfs_skyline(inside)])

        query = Constraints([0.1, 0.1], [0.6, 0.6])
        # superset item: query is a pure shrink -> empty MPR, zero cost
        superset = cached(Constraints([0.05, 0.05], [0.7, 0.7]))
        # bigger-overlap-but-unstable item: query raises its lower bounds
        cached(Constraints([0.0, 0.0], [0.6, 0.6]))

        choice = CostBased(table, region).select(query, list(cache))
        assert choice is superset

    def test_engine_equivalence(self, setting):
        data, table, region = setting
        engine = CBCS(
            table,
            strategy=CostBased(table, region),
            region_computer=region,
        )
        gen = WorkloadGenerator(data, seed=52)
        for c in gen.exploratory_stream(25):
            out = engine.query(c)
            assert_same_point_set(
                out.skyline, constrained_skyline_oracle(data, c)
            )

    def test_never_costs_more_points_than_max_overlap(self, setting):
        """Across a workload, the cost-based pick reads no more than the
        MaxOverlap pick on average (it optimizes that quantity directly)."""
        data, _, _ = setting
        totals = {}
        for name, strategy_factory in [
            ("cost", lambda t: CostBased(t, ApproximateMPR(1))),
            ("overlap", lambda t: MaxOverlap()),
        ]:
            table = DiskTable(data)
            engine = CBCS(
                table,
                strategy=strategy_factory(table),
                region_computer=ApproximateMPR(1),
            )
            gen = WorkloadGenerator(data, seed=53)
            engine.warm(gen.independent_queries(30))
            outs = [engine.query(c) for c in gen.independent_queries(20)]
            totals[name] = sum(o.points_read for o in outs)
        assert totals["cost"] <= totals["overlap"] * 1.1


class TestPricingIsNotPlanning:
    """Pricing candidates runs the engine's own region computer; only the
    region the planner computes for the chosen item is an MPR computation."""

    def test_region_metrics_count_only_the_planned_region(self, setting):
        from repro.obs import Observability

        data, table, region = setting
        obs = Observability()
        engine = CBCS(
            table, strategy=CostBased(table, region), region_computer=region, obs=obs
        )

        def computations():
            return obs.metrics.counter_total("mpr_computations_total")

        gen = WorkloadGenerator(data, seed=54)
        engine.warm(gen.independent_queries(30))
        priced = 0
        for c in gen.independent_queries(20):
            before = computations()
            plan = engine.explain(c)
            assert computations() == before, "explain() must compute no region"
            out = engine.query(c)
            planned = out.case not in ("miss", "exact")
            assert computations() == before + planned, out.case
            priced += plan.candidates > 1
        assert priced, "no query priced more than one candidate"
