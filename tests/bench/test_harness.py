"""Tests for the benchmark harness and reporting."""

import numpy as np
import pytest

from repro.bench.harness import (
    MethodResult,
    bench_scale,
    make_cbcs,
    make_methods,
    run_independent_workload,
    run_interactive_workload,
    run_queries,
    scaled,
)
from repro.bench.reporting import (
    distribution_summary,
    format_boxplot_table,
    format_series,
    format_table,
)
from repro.core.cache import SkylineCache
from repro.data.generator import generate
from repro.stats import QueryOutcome, StageTimings
from repro.storage.pager import IOStats


@pytest.fixture(scope="module")
def data():
    return generate("independent", 1500, 3, seed=1)


class TestScale:
    def test_default_scale_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == "quick"
        assert scaled(1, 2, 3) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert bench_scale() == "full"
        assert scaled(1, 2, 3) == 3

    def test_invalid_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "enormous")
        with pytest.raises(ValueError):
            bench_scale()


class TestMethodResult:
    def make_outcome(self, ms, points, stable):
        return QueryOutcome(
            skyline=np.zeros((1, 2)),
            method="m",
            timings=StageTimings(fetch_io_ms=ms),
            io=IOStats(points_read=points, range_queries=2, empty_queries=1),
            stable=stable,
        )

    def test_aggregates(self):
        res = MethodResult("m")
        res.outcomes = [
            self.make_outcome(10.0, 100, True),
            self.make_outcome(30.0, 300, False),
        ]
        assert res.mean_io_ms() == pytest.approx(20.0)
        assert res.mean_wall_ms() == 0.0
        assert list(res.io_ms_values()) == [10.0, 30.0]
        assert res.mean_points_read() == pytest.approx(200.0)
        assert res.mean_range_queries() == pytest.approx(2.0)

    def test_stability_split(self):
        res = MethodResult("m")
        res.outcomes = [
            self.make_outcome(10.0, 100, True),
            self.make_outcome(30.0, 300, False),
            self.make_outcome(50.0, 500, None),  # miss: in neither split
        ]
        split = res.split_by_stability()
        assert len(split["stable"]) == 1
        assert len(split["unstable"]) == 1
        assert split["stable"].mean_io_ms() == pytest.approx(10.0)

    def test_stage_means(self):
        res = MethodResult("m")
        res.outcomes = [self.make_outcome(10.0, 1, True)]
        stages = res.mean_stage_ms()
        assert set(stages) == {"processing", "fetch_io", "fetch_wall", "skyline"}
        assert stages["fetch_io"] == pytest.approx(10.0)
        assert stages["processing"] == 0.0


class TestWorkloadRunners:
    def test_make_methods_names(self, data):
        methods = make_methods(data, include_mpr=True)
        assert set(methods) == {"Baseline", "BBS", "aMPR", "MPR"}

    def test_make_cbcs_uses_given_cache(self, data):
        cache = SkylineCache(capacity=4)
        engine = make_cbcs(data, cache=cache)
        assert engine.cache is cache

    def test_interactive_runs_every_method_on_same_queries(self, data):
        methods = make_methods(data)
        results = run_interactive_workload(
            data, methods, n_sessions=1, queries_per_session=5, seed=3
        )
        lengths = {len(res) for res in results.values()}
        assert lengths == {5}

    def test_independent_excludes_warmup(self, data):
        methods = {"aMPR": make_cbcs(data)}
        results = run_independent_workload(
            data, methods, n_queries=4, warm_queries=6, seed=4
        )
        assert len(results["aMPR"]) == 4
        # warm-up populated the cache
        assert len(methods["aMPR"].cache) >= 4

    def test_run_queries_collects_outcomes(self, data):
        from repro.workload.generator import WorkloadGenerator

        engine = make_cbcs(data)
        queries = WorkloadGenerator(data, seed=5).independent_queries(3)
        result = run_queries(engine, queries)
        assert len(result) == 3
        assert result.method.startswith("CBCS")


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 10000.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "10,000" in text

    def test_format_series(self):
        text = format_series(
            "n", [10, 20], {"m1": [1.0, 2.0], "m2": [3.0]}, unit="ms"
        )
        assert "m1 (ms)" in text
        assert "-" in text.splitlines()[-1]  # missing value rendered as '-'

    def test_distribution_summary(self):
        s = distribution_summary(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s["min"] == 1.0
        assert s["max"] == 4.0
        assert s["median"] == pytest.approx(2.5)

    def test_distribution_summary_empty(self):
        s = distribution_summary(np.array([]))
        assert all(v != v for v in s.values())  # all NaN

    def test_boxplot_table(self):
        text = format_boxplot_table({"m": np.array([1.0, 2.0])})
        assert "median" in text
        assert "m" in text
