"""Tests for the engine's dry-run EXPLAIN interface."""

import numpy as np
import pytest

from repro.core.ampr import ApproximateMPR, ExactMPR
from repro.core.cbcs import CBCS
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.storage.table import DiskTable


@pytest.fixture()
def engine():
    data = generate("independent", 2000, 3, seed=42)
    return CBCS(DiskTable(data))


class TestExplain:
    def test_miss_plan(self, engine):
        c = Constraints([0.2] * 3, [0.8] * 3)
        plan = engine.explain(c)
        assert plan.case == "miss"
        assert not plan.cache_hit
        assert plan.range_queries == 1
        assert plan.estimated_points > 0
        assert "no cache item" in plan.summary()

    def test_explain_does_not_touch_disk_or_cache(self, engine):
        c = Constraints([0.2] * 3, [0.8] * 3)
        io_before = engine.table.stats.snapshot()
        hits, misses = engine.cache.hits, engine.cache.misses
        engine.explain(c)
        delta = engine.table.stats.delta_since(io_before)
        assert delta.range_queries == 0
        assert delta.points_read == 0
        assert (engine.cache.hits, engine.cache.misses) == (hits, misses)
        assert len(engine.cache) == 0

    def test_exact_plan(self, engine):
        c = Constraints([0.2] * 3, [0.8] * 3)
        engine.query(c)
        plan = engine.explain(Constraints(c.lo, c.hi))
        assert plan.case == "exact"
        assert plan.range_queries == 0
        assert plan.reusable_points > 0

    def test_refinement_plan_matches_execution(self, engine):
        first = Constraints([0.2] * 3, [0.8] * 3)
        engine.query(first)
        refined = Constraints([0.2] * 3, [0.8, 0.8, 0.85])
        plan = engine.explain(refined)
        assert plan.case == "case_c"
        assert plan.cache_hit
        outcome = engine.query(refined)
        assert outcome.case == plan.case
        assert outcome.range_queries == plan.range_queries
        # the forecast is an estimate of the fetch (product of the exact
        # marginals), no longer an upper bound: it is held to the ledger's
        # gate, relative error below 1
        assert abs(plan.estimated_points - outcome.points_read) < max(
            outcome.points_read, 1
        )

    def test_case_b_plan_reads_nothing(self, engine):
        first = Constraints([0.2] * 3, [0.8] * 3)
        engine.query(first)
        plan = engine.explain(Constraints([0.2] * 3, [0.8, 0.8, 0.7]))
        assert plan.case == "case_b"
        assert plan.range_queries == 0
        assert plan.estimated_points == 0

    def test_dimension_validation(self, engine):
        with pytest.raises(ValueError):
            engine.explain(Constraints([0.0], [1.0]))

    def test_summary_for_hit(self, engine):
        c = Constraints([0.2] * 3, [0.8] * 3)
        engine.query(c)
        plan = engine.explain(Constraints([0.2] * 3, [0.8, 0.8, 0.85]))
        text = plan.summary()
        assert "case=case_c" in text
        assert "item #" in text

    def test_explain_plans_carry_candidate_scores(self, engine):
        engine.query(Constraints([0.2] * 3, [0.8] * 3))
        engine.query(Constraints([0.1] * 3, [0.7] * 3))
        plan = engine.explain(Constraints([0.2] * 3, [0.8, 0.8, 0.85]))
        scored = plan.candidates_scored
        assert len(scored) == 2
        assert scored[0]["selected"] and scored[0]["rejection"] is None
        assert not scored[1]["selected"]
        assert scored[1]["rejection"] == engine.strategy.rejection_reason
        for row in scored:
            assert row["overlap_volume"] > 0
            assert row["case"] in {"case_c", "general_stable", "general_unstable"}
        # the scoring table is explain-only: executed plans skip the work
        assert engine.query(Constraints([0.15] * 3, [0.75] * 3)) is not None

    def test_estimated_points_bound_actual_across_queries(self, engine):
        rng = np.random.default_rng(7)
        for _ in range(10):
            lo = rng.random(3) * 0.3
            hi = 0.5 + rng.random(3) * 0.5
            c = Constraints(lo, hi)
            plan = engine.explain(c)
            outcome = engine.query(c)
            assert outcome.case == plan.case
            # the forecast estimates the bitmap plan's exact match count:
            # relative error below 1, the calibration ledger's gate
            read = outcome.io.points_read
            assert abs(plan.estimated_points - read) < max(read, 1)


class TestExplainSelectionCounters:
    """explain() + query() must count one lookup and one selection, not two."""

    def test_explain_then_query_counts_one_selection(self):
        from repro.obs import Observability

        obs = Observability()
        data = generate("independent", 2000, 3, seed=42)
        engine = CBCS(DiskTable(data, obs=obs), obs=obs)
        engine.query(Constraints([0.2] * 3, [0.8] * 3))  # warm: miss, no selection
        strategy = engine.strategy.name
        m = obs.metrics
        assert m.counter_value("strategy_selections_total", strategy=strategy) == 0.0
        lookups_before = m.counter_value(
            "cache_lookups_total", strategy=strategy, outcome="hit"
        )

        refined = Constraints([0.2] * 3, [0.8, 0.8, 0.85])
        engine.explain(refined)
        assert (
            m.counter_value("strategy_selections_total", strategy=strategy) == 0.0
        ), "explain() must not count a selection"
        engine.query(refined)
        assert (
            m.counter_value("strategy_selections_total", strategy=strategy) == 1.0
        ), "explain()+query() must count exactly one selection"
        assert (
            m.counter_value("cache_lookups_total", strategy=strategy, outcome="hit")
            == lookups_before + 1.0
        )
        engine.close()


class TestExplainRegionMetrics:
    """A dry run leaves the region computer's metrics as it found them."""

    @staticmethod
    def mpr_metrics(m):
        rects = m.histogram("mpr_rectangles_per_query")
        return (
            m.counter_total("mpr_computations_total"),
            0 if rects is None else rects.count,
        )

    @pytest.mark.parametrize("region", [ExactMPR, ApproximateMPR])
    def test_explain_then_query_counts_one_computation(self, region):
        from repro.obs import Observability

        obs = Observability()
        data = generate("independent", 2000, 3, seed=42)
        engine = CBCS(DiskTable(data), region_computer=region(), obs=obs)
        engine.query(Constraints([0.2] * 3, [0.8] * 3))  # a miss: no region
        refined = Constraints([0.2] * 3, [0.8, 0.8, 0.85])
        engine.explain(refined)
        engine.explain(refined)
        assert self.mpr_metrics(obs.metrics) == (0.0, 0)
        engine.query(refined)
        assert self.mpr_metrics(obs.metrics) == (1.0, 1)
        engine.close()

    def test_explain_leaves_unstable_region_metrics_alone(self):
        from repro.obs import Observability

        obs = Observability()
        data = generate("independent", 2000, 3, seed=42)
        engine = CBCS(DiskTable(data), region_computer=ApproximateMPR(), obs=obs)
        engine.query(Constraints([0.0] * 3, [1.0] * 3))
        raised = Constraints([0.3, 0.0, 0.0], [1.0] * 3)  # case d: expels points
        assert engine.explain(raised).mpr.invalidated > 0
        assert self.mpr_metrics(obs.metrics) == (0.0, 0)
        engine.query(raised)
        assert self.mpr_metrics(obs.metrics) == (1.0, 1)
        engine.close()
