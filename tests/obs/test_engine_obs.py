"""End-to-end observability tests against the instrumented engine.

Covers the ISSUE acceptance criteria: the scripted refinement chain fires
metric labels for all four cases a-d, aggregate counters reconcile exactly
with the summed per-query ``QueryOutcome``/``IOStats`` records, span timings
carry the very floats stored in ``StageTimings``, and with observability
disabled the engine's results are byte-identical.
"""

import numpy as np
import pytest

from repro.core.cache import SkylineCache
from repro.core.cbcs import CBCS
from repro.geometry.constraints import Constraints
from repro.obs import (
    NULL_OBS,
    MetricsRegistry,
    Observability,
    Tracer,
    activate,
    current,
)
from repro.obs.sinks import RingBufferSink
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

#: Hand-laid 2-D points: the base box [0.2,0.8]^2 has the three-point
#: staircase skyline {(0.25,0.75), (0.40,0.50), (0.75,0.25)} (MBR
#: [0.25,0.25]-[0.75,0.75]), with extra points just outside each bound so
#: every single-bound refinement has something to fetch.
CASE_DATA = np.array(
    [
        [0.25, 0.75],
        [0.40, 0.50],
        [0.75, 0.25],
        [0.60, 0.60],
        [0.70, 0.70],
        [0.55, 0.65],
        [0.12, 0.60],
        [0.60, 0.12],
        [0.85, 0.22],
        [0.22, 0.85],
    ]
)

BASE = Constraints([0.2, 0.2], [0.8, 0.8])

REFINEMENTS = {
    "case_a": Constraints([0.1, 0.2], [0.8, 0.8]),  # lower decreased
    "case_b": Constraints([0.2, 0.2], [0.8, 0.7]),  # upper decreased
    "case_c": Constraints([0.2, 0.2], [0.9, 0.8]),  # upper increased
    "case_d": Constraints([0.3, 0.2], [0.8, 0.8]),  # lower increased
}


def make_obs():
    sink = RingBufferSink()
    return Observability(metrics=MetricsRegistry(), tracer=Tracer(sinks=[sink])), sink


def make_engine(data, obs=None, **kwargs):
    return CBCS(DiskTable(data), obs=obs, **kwargs)


def random_data(n=300, d=2, seed=7):
    return np.random.default_rng(seed).random((n, d))


class TestCaseMetrics:
    def test_refinement_chain_fires_all_four_case_labels(self):
        obs, _ = make_obs()
        engine = make_engine(CASE_DATA, obs=obs)
        engine.query(BASE)  # cache miss, primes the one cached item
        engine.cache_results = False  # keep that item the only candidate

        for case, constraints in REFINEMENTS.items():
            assert engine.query(constraints).case == case
        assert engine.query(BASE).case == "exact"

        m, method = obs.metrics, engine.name
        for case in REFINEMENTS:
            assert m.counter_value("query_case_total", method=method, case=case) == 1.0
        assert m.counter_value("query_case_total", method=method, case="miss") == 1.0
        assert m.counter_value("query_case_total", method=method, case="exact") == 1.0
        assert m.counter_value("queries_total", method=method) == 6.0

    def test_lookup_and_stability_counters(self):
        obs, _ = make_obs()
        engine = make_engine(CASE_DATA, obs=obs)
        engine.query(BASE)
        engine.cache_results = False
        for constraints in REFINEMENTS.values():
            engine.query(constraints)
        engine.query(BASE)

        m, strategy = obs.metrics, engine.strategy.name
        assert (
            m.counter_value("cache_lookups_total", strategy=strategy, outcome="hit")
            == 5.0
        )
        assert (
            m.counter_value("cache_lookups_total", strategy=strategy, outcome="miss")
            == 1.0
        )
        method = engine.name
        # cases a-c and the exact hit are stable; case d is the unstable one
        assert (
            m.counter_value("query_stability_total", method=method, stable="stable")
            == 4.0
        )
        assert (
            m.counter_value("query_stability_total", method=method, stable="unstable")
            == 1.0
        )
        # the exact repeat of BASE is found by the cache's key probe and
        # never reaches the strategy: only the four refinements select
        assert m.counter_value("strategy_selections_total", strategy=strategy) == 4.0
        assert m.counter_total("mpr_computations_total") == 4.0


class TestReconciliation:
    def test_counters_equal_summed_outcomes(self):
        data = random_data(400, 2, seed=1)
        obs, _ = make_obs()
        engine = make_engine(data, obs=obs)
        queries = WorkloadGenerator(data, seed=2).exploratory_stream(15)
        outcomes = [engine.query(q) for q in queries]

        m, method = obs.metrics, engine.name
        assert m.counter_value("queries_total", method=method) == len(outcomes)
        for fname in (
            "points_read",
            "pages_read",
            "seeks",
            "range_queries",
            "simulated_io_ms",
        ):
            total = sum(getattr(o.io, fname) for o in outcomes)
            assert m.counter_value(f"{fname}_total", method=method) == pytest.approx(
                total
            )
        hist = m.histogram("stage_ms", method=method, stage="skyline")
        assert hist.count == len(outcomes)
        assert hist.sum == pytest.approx(sum(o.timings.skyline_ms for o in outcomes))
        wall_hist = m.histogram("query_wall_ms", method=method)
        assert wall_hist.sum == pytest.approx(
            sum(o.timings.wall_ms for o in outcomes)
        )


class TestNoopMode:
    def test_results_identical_with_and_without_obs(self):
        data = random_data(400, 2, seed=3)
        queries = WorkloadGenerator(data, seed=5).exploratory_stream(12)
        obs, _ = make_obs()
        plain = make_engine(data)
        traced = make_engine(data, obs=obs)
        for q in queries:
            a, b = plain.query(q), traced.query(q)
            assert a.skyline.tobytes() == b.skyline.tobytes()
            assert a.io.as_dict() == b.io.as_dict()
            assert (a.case, a.stable, a.cache_hit) == (b.case, b.stable, b.cache_hit)

    def test_default_engine_uses_shared_null_obs(self):
        engine = make_engine(CASE_DATA)
        assert engine.obs is NULL_OBS
        assert engine.table.obs is NULL_OBS
        assert engine.strategy.obs is NULL_OBS


class TestSpanTree:
    def test_query_span_encloses_stages_and_table_work(self):
        obs, sink = make_obs()
        engine = make_engine(CASE_DATA, obs=obs)
        outcome = engine.query(Constraints([0.1, 0.1], [0.9, 0.9]))  # miss

        [query_span] = sink.named("cbcs.query")
        assert query_span["attrs"]["case"] == "miss"
        children = {
            r["name"] for r in sink.spans if r["parent_id"] == query_span["span_id"]
        }
        assert {
            "cache.search",
            "stage.processing",
            "stage.fetch_wall",
            "stage.skyline",
            "table.range_query",
        } <= children
        # the trace carries the floats stored in StageTimings (records
        # round to 6 decimals on emission)
        [fetch] = sink.named("stage.fetch_wall")
        assert fetch["duration_ms"] == round(outcome.timings.fetch_wall_ms, 6)
        [sky] = sink.named("stage.skyline")
        assert sky["duration_ms"] == round(outcome.timings.skyline_ms, 6)

    def test_cache_hit_query_traces_mpr_and_merge(self):
        obs, sink = make_obs()
        engine = make_engine(CASE_DATA, obs=obs)
        engine.query(BASE)
        engine.cache_results = False
        engine.query(REFINEMENTS["case_d"])
        assert sink.named("cache.select")
        assert sink.named("case.classify")
        assert sink.named("mpr.compute")
        assert sink.named("skyline.merge")
        [stability] = sink.named("stability.check")
        assert stability["attrs"]["stable"] is False


class TestCacheMetrics:
    def test_evictions_and_stats_flow_into_registry(self):
        reg = MetricsRegistry()
        cache = SkylineCache(capacity=2, policy="lru", metrics=reg)
        for i in range(3):
            cache.insert(
                Constraints([i * 0.1, 0.0], [1.0, 1.0]),
                np.array([[0.1 + i * 0.01, 0.2]]),
            )
        assert cache.evictions == 1
        assert reg.counter_value("cache_evictions_total", policy="lru") == 1.0
        assert reg.counter_value("cache_insertions_total") == 3.0
        assert reg.gauge_value("cache_items") == 2.0

        cache.candidates(Constraints([0.0, 0.0], [1.0, 1.0]))  # hit
        cache.candidates(Constraints([0.9, 0.9], [1.0, 1.0]))  # miss
        stats = cache.stats()
        assert stats["items"] == 2
        assert stats["insertions"] == 3
        assert stats["evictions"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert reg.counter_value("cache_hits_total") == 1.0
        assert reg.counter_value("cache_misses_total") == 1.0

    def test_dry_run_lookup_does_not_count(self):
        cache = SkylineCache()
        cache.insert(Constraints([0.0, 0.0], [1.0, 1.0]), np.array([[0.5, 0.5]]))
        cache.candidates(Constraints([0.0, 0.0], [1.0, 1.0]), record=False)
        assert cache.hits == 0 and cache.misses == 0

    def test_explain_leaves_counters_untouched(self):
        engine = make_engine(CASE_DATA)
        engine.query(BASE)
        hits, misses = engine.cache.hits, engine.cache.misses
        engine.explain(REFINEMENTS["case_b"])
        assert (engine.cache.hits, engine.cache.misses) == (hits, misses)


class TestAmbientObservability:
    def test_activate_threads_obs_through_harness_factories(self):
        from repro.bench.harness import make_methods, run_queries

        data = random_data(200, 2, seed=9)
        obs, _ = make_obs()
        with activate(obs):
            assert current() is obs
            methods = make_methods(data)
        assert current() is NULL_OBS

        queries = WorkloadGenerator(data, seed=1).independent_queries(5)
        for method in methods.values():
            run_queries(method, queries)
        m = obs.metrics
        assert m.counter_value("queries_total", method="Baseline") == 5.0
        assert m.counter_value("queries_total", method="BBS") == 5.0
        assert m.counter_value("queries_total", method="CBCS[aMPR(1NN)]") == 5.0

    def test_factories_default_to_null_obs(self):
        from repro.bench.harness import make_cbcs

        engine = make_cbcs(random_data(50, 2))
        assert engine.obs is NULL_OBS
