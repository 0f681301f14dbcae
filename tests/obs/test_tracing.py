"""Tests for the span tracer, sinks, and the Stopwatch integration."""

import time

import pytest

from repro.obs.sinks import JsonlSink, RingBufferSink, read_jsonl
from repro.obs.tracing import _NULL_SPAN, NULL_TRACER, NullTracer, Tracer
from repro.stats import Stopwatch


def make_tracer():
    sink = RingBufferSink()
    return Tracer(sinks=[sink]), sink


class TestSpans:
    def test_nesting_parent_and_depth(self):
        tracer, sink = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

        by_name = {r["name"]: r for r in sink.spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        # children are emitted before their parent (exit order)
        assert [r["name"] for r in sink.spans] == ["inner", "outer"]

    def test_span_times_enclosed_block(self):
        tracer, sink = make_tracer()
        with tracer.span("work"):
            time.sleep(0.01)
        [record] = sink.spans
        assert record["duration_ms"] >= 10.0

    def test_attrs_from_open_and_set(self):
        tracer, sink = make_tracer()
        with tracer.span("q", strategy="S") as span:
            span.set(case="case_b", boxes=3)
        [record] = sink.spans
        assert record["attrs"] == {"strategy": "S", "case": "case_b", "boxes": 3}

    def test_record_attaches_finished_child(self):
        tracer, sink = make_tracer()
        with tracer.span("parent"):
            tracer.record("stage.skyline", 12.5)
        child, parent = sink.spans
        assert child["name"] == "stage.skyline"
        assert child["duration_ms"] == 12.5
        assert child["parent_id"] == parent["span_id"]
        assert child["depth"] == 1

    def test_exception_still_emits_and_unwinds(self):
        tracer, sink = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert [r["name"] for r in sink.spans] == ["inner", "outer"]
        assert tracer.current() is None

    def test_multiple_sinks_receive_every_span(self):
        a, b = RingBufferSink(), RingBufferSink()
        tracer = Tracer(sinks=[a]).add_sink(b)
        with tracer.span("x"):
            pass
        assert len(a) == len(b) == 1


class TestSinks:
    def test_ring_buffer_caps_and_filters(self):
        sink = RingBufferSink(capacity=2)
        for i in range(3):
            sink.emit({"name": f"s{i}"})
        assert [r["name"] for r in sink.spans] == ["s1", "s2"]
        assert sink.named("s2") == [{"name": "s2"}]
        sink.clear()
        assert len(sink) == 0

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        with tracer.span("outer", plan="bitmap"):
            with tracer.span("inner"):
                pass
        tracer.close()
        records = read_jsonl(path)
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert records[1]["attrs"] == {"plan": "bitmap"}

    def test_jsonl_serializes_numpy_attrs(self, tmp_path):
        np = pytest.importorskip("numpy")
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit({"name": "s", "attrs": {"rows": np.int64(3), "ms": np.float64(1.5)}})
        sink.close()
        [record] = read_jsonl(path)
        assert record["attrs"] == {"rows": 3, "ms": 1.5}


class TestNullTracer:
    def test_returns_shared_span(self):
        tracer = NullTracer()
        span = tracer.span("anything", key="value")
        assert span is _NULL_SPAN
        assert tracer.record("x", 1.0) is _NULL_SPAN
        with span as s:
            assert s.set(a=1) is s
        assert NULL_TRACER.enabled is False


class TestStopwatchIntegration:
    def test_stage_duration_is_the_same_float_as_timings(self):
        sink = RingBufferSink()
        tracer = Tracer(sinks=[sink])
        watch = Stopwatch(tracer=tracer)
        with watch.stage("skyline"):
            time.sleep(0.005)
        # emitted records round to 6 decimals (sub-nanosecond); the span
        # carries the very float accumulated into StageTimings
        [record] = sink.named("stage.skyline")
        assert record["duration_ms"] == round(watch.timings.skyline_ms, 6)

    def test_stage_totals_match_trace_totals(self):
        sink = RingBufferSink()
        watch = Stopwatch(tracer=Tracer(sinks=[sink]))
        for _ in range(3):
            with watch.stage("processing"):
                pass
        traced = sum(r["duration_ms"] for r in sink.named("stage.processing"))
        assert traced == pytest.approx(watch.timings.processing_ms, abs=1e-5)

    def test_rejects_total_pseudo_stage(self):
        # wall_ms is a derived property, not a StageTimings field, and there
        # is no total at all; a hasattr() check would accept the first.
        for name in ("total", "wall"):
            with pytest.raises(ValueError):
                with Stopwatch().stage(name):
                    pass

    def test_untraced_stopwatch_still_works(self):
        watch = Stopwatch()
        with watch.stage("fetch_wall"):
            pass
        assert watch.timings.fetch_wall_ms >= 0.0
