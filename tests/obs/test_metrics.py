"""Tests for the labeled metrics registry."""

import json

import pytest

from repro.obs.metrics import (
    NULL_METRICS,
    HistogramData,
    MetricsRegistry,
    NullMetrics,
)


class TestCounters:
    def test_labels_split_series(self):
        reg = MetricsRegistry()
        reg.inc("cache_lookups_total", strategy="MaxOverlap", outcome="hit")
        reg.inc("cache_lookups_total", strategy="MaxOverlap", outcome="hit")
        reg.inc("cache_lookups_total", strategy="MaxOverlap", outcome="miss")
        assert (
            reg.counter_value(
                "cache_lookups_total", strategy="MaxOverlap", outcome="hit"
            )
            == 2.0
        )
        assert (
            reg.counter_value(
                "cache_lookups_total", strategy="MaxOverlap", outcome="miss"
            )
            == 1.0
        )
        assert reg.counter_total("cache_lookups_total") == 3.0

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.inc("x_total", outcome="hit", strategy="S")
        reg.inc("x_total", strategy="S", outcome="hit")
        assert reg.counter_value("x_total", strategy="S", outcome="hit") == 2.0

    def test_missing_series_reads_zero(self):
        assert MetricsRegistry().counter_value("nope_total") == 0.0

    def test_counters_iterates_labeled_series(self):
        reg = MetricsRegistry()
        reg.inc("q_total", 3, method="A")
        reg.inc("q_total", method="B")
        reg.inc("other_total", method="A")
        series = dict(
            (labels["method"], value) for labels, value in reg.counters("q_total")
        )
        assert series == {"A": 3.0, "B": 1.0}

    def test_custom_amount(self):
        reg = MetricsRegistry()
        reg.inc("points_read_total", 120, method="Baseline")
        reg.inc("points_read_total", 30, method="Baseline")
        assert reg.counter_value("points_read_total", method="Baseline") == 150.0


class TestGaugesAndHistograms:
    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("cache_items", 3)
        reg.set_gauge("cache_items", 5)
        assert reg.gauge_value("cache_items") == 5.0
        assert reg.gauge_value("absent") is None

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in range(1, 101):
            reg.observe("stage_ms", float(v), stage="skyline")
        hist = reg.histogram("stage_ms", stage="skyline")
        assert hist.count == 100
        assert hist.min == 1.0 and hist.max == 100.0
        assert hist.mean == pytest.approx(50.5)
        assert hist.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert hist.percentile(95) == pytest.approx(95.0, abs=1.0)
        summary = hist.summary()
        assert set(summary) == {"count", "sum", "min", "max", "mean", "p50", "p95"}

    def test_histogram_sample_cap_keeps_exact_aggregates(self):
        hist = HistogramData(max_samples=10)
        for v in range(100):
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.sum == pytest.approx(sum(range(100)))
        assert hist.max == 99.0
        # percentiles degrade to the retained prefix but stay defined
        assert hist.percentile(50) <= 9.0

    def test_empty_histogram(self):
        hist = HistogramData()
        assert hist.summary() == {"count": 0}
        assert hist.percentile(50) != hist.percentile(50)  # NaN


class TestExport:
    def test_as_dict_round_trips_through_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("queries_total", method="CBCS")
        reg.set_gauge("cache_items", 2)
        reg.observe("stage_ms", 1.5, stage="skyline")
        path = tmp_path / "metrics.json"
        reg.save_json(path)
        loaded = json.loads(path.read_text())
        # Saved snapshots are stamped with the obs schema version; the body
        # is exactly as_dict().
        assert loaded.pop("schema") == 1
        assert loaded == reg.as_dict()
        assert loaded["counters"][0] == {
            "name": "queries_total",
            "labels": {"method": "CBCS"},
            "value": 1.0,
        }
        [hist] = loaded["histograms"]
        assert hist["name"] == "stage_ms"
        assert hist["count"] == 1

    def test_merge_combines_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("queries_total", 3, method="X")
        b.inc("queries_total", 4, method="X")
        b.inc("queries_total", 1, method="Y")
        a.set_gauge("cache_items", 2)
        b.set_gauge("cache_items", 9)
        a.observe("stage_ms", 1.0, stage="skyline")
        b.observe("stage_ms", 3.0, stage="skyline")
        b.observe("new_hist", 5.0)
        a.merge(b)
        assert a.counter_value("queries_total", method="X") == 7.0
        assert a.counter_value("queries_total", method="Y") == 1.0
        assert a.gauge_value("cache_items") == 9.0
        hist = a.histogram("stage_ms", stage="skyline")
        assert hist.count == 2 and hist.sum == pytest.approx(4.0)
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.percentile(95) == 3.0
        assert a.histogram("new_hist").count == 1
        # the source registry is untouched
        assert b.counter_value("queries_total", method="X") == 4.0

    def test_histogram_merge_respects_sample_cap(self):
        a, b = HistogramData(max_samples=5), HistogramData()
        for v in range(4):
            a.observe(float(v))
        for v in range(10, 20):
            b.observe(float(v))
        a.merge(b)
        assert a.count == 14
        assert a.sum == pytest.approx(sum(range(4)) + sum(range(10, 20)))
        assert a.max == 19.0
        assert len(a._values) == 5

    def test_merge_empty_histogram_keeps_extremes(self):
        a, b = HistogramData(), HistogramData()
        a.observe(2.0)
        a.merge(b)
        assert a.count == 1 and a.min == 2.0 and a.max == 2.0

    def test_merge_into_empty_histogram_adopts_extremes(self):
        a, b = HistogramData(), HistogramData()
        b.observe(3.0)
        b.observe(7.0)
        a.merge(b)
        assert a.count == 2
        assert a.min == 3.0 and a.max == 7.0
        assert a.percentile(50) in (3.0, 7.0)

    def test_merge_two_empty_histograms_stays_empty(self):
        a, b = HistogramData(), HistogramData()
        a.merge(b)
        assert a.count == 0
        assert a.summary() == {"count": 0}
        assert a.percentile(50) != a.percentile(50)  # still NaN

    def test_merge_when_target_samples_already_full(self):
        a, b = HistogramData(max_samples=3), HistogramData()
        for v in (1.0, 2.0, 3.0):
            a.observe(v)
        for v in (100.0, 200.0):
            b.observe(v)
        a.merge(b)
        # no room: samples unchanged, aggregates still exact
        assert len(a._values) == 3
        assert a.count == 5
        assert a.sum == pytest.approx(306.0)
        assert a.max == 200.0


class TestExemplars:
    def test_observe_without_exemplar_keeps_none(self):
        hist = HistogramData()
        hist.observe(1.0)
        assert hist.exemplar is None
        assert "exemplar" not in hist.summary()

    def test_last_exemplar_wins(self):
        hist = HistogramData()
        hist.observe(1.0, exemplar="q00000001")
        hist.observe(9.0)  # plain observation does not clear it
        hist.observe(5.0, exemplar="q00000003")
        assert hist.exemplar == ("q00000003", 5.0)
        assert hist.summary()["exemplar"] == {
            "query_id": "q00000003",
            "value": 5.0,
        }

    def test_registry_observe_threads_exemplar_through(self):
        reg = MetricsRegistry()
        reg.observe("query_wall_ms", 4.0, exemplar="q00000002", method="CBCS")
        hist = reg.histogram("query_wall_ms", method="CBCS")
        assert hist.exemplar == ("q00000002", 4.0)
        [rec] = reg.as_dict()["histograms"]
        assert rec["exemplar"]["query_id"] == "q00000002"

    def test_merge_prefers_the_incoming_exemplar(self):
        a, b = HistogramData(), HistogramData()
        a.observe(1.0, exemplar="old")
        b.observe(2.0, exemplar="new")
        a.merge(b)
        assert a.exemplar == ("new", 2.0)

    def test_merge_without_incoming_exemplar_keeps_mine(self):
        a, b = HistogramData(), HistogramData()
        a.observe(1.0, exemplar="mine")
        b.observe(2.0)
        a.merge(b)
        assert a.exemplar == ("mine", 1.0)

    def test_null_metrics_accepts_exemplar_kwarg(self):
        NULL_METRICS.observe("h", 1.0, exemplar="q1")
        assert NULL_METRICS.as_dict()["histograms"] == []


class TestNullMetrics:
    def test_records_nothing(self):
        null = NullMetrics()
        null.inc("a_total", 5, method="X")
        null.set_gauge("g", 1)
        null.observe("h", 1.0)
        assert null.as_dict() == {"counters": [], "gauges": [], "histograms": []}
        assert null.counter_total("a_total") == 0.0

    def test_shared_singleton_disabled(self):
        assert NULL_METRICS.enabled is False
        assert MetricsRegistry().enabled is True
