"""Tests for sink lifecycle guarantees (flush/close determinism) and the
per-query structured log (``queries.jsonl``)."""

import json
import threading

import numpy as np
import pytest

from repro.obs import Observability
from repro.obs.sinks import JsonlSink, read_jsonl
from repro.stats import QueryOutcome


class TestJsonlSinkLifecycle:
    def test_lines_are_flushed_before_close(self, tmp_path):
        """The file must be complete up to the last emit even without
        close() -- the early-exit guarantee."""
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit({"name": "a", "duration_ms": 1.0})
        sink.emit({"name": "b", "duration_ms": 2.0})
        # read back while the handle is still open, no close() yet
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["name"] == "b"
        sink.close()

    def test_context_manager_closes_handle(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"name": "a"})
            assert sink._handle is not None
        assert sink._handle is None
        assert read_jsonl(path) == [{"name": "a"}]

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.emit({"name": "a"})
        sink.close()
        sink.close()

    def test_emit_after_close_appends_instead_of_truncating(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit({"name": "a"})
        sink.close()
        sink.emit({"name": "b"})
        sink.close()
        assert [r["name"] for r in read_jsonl(path)] == ["a", "b"]

    def test_flush_without_handle_is_safe(self, tmp_path):
        JsonlSink(tmp_path / "trace.jsonl").flush()


class TestJsonlSinkConcurrency:
    def test_concurrent_writers_never_interleave_lines(self, tmp_path):
        """N threads x M records: every line must be one complete JSON
        object and every record must land exactly once."""
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        n_threads, n_records = 8, 250
        # long-ish payload so a torn write would be visible
        payload = "x" * 200

        def pump(worker):
            for i in range(n_records):
                sink.emit({"worker": worker, "seq": i, "pad": payload})

        threads = [
            threading.Thread(target=pump, args=(w,)) for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()

        lines = path.read_text().splitlines()
        assert len(lines) == n_threads * n_records
        assert sink.emitted == n_threads * n_records
        seen = set()
        for line in lines:
            rec = json.loads(line)  # raises on any torn/interleaved line
            assert rec["pad"] == payload
            seen.add((rec["worker"], rec["seq"]))
        assert len(seen) == n_threads * n_records

    def test_concurrent_emit_and_close_is_safe(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        stop = threading.Event()

        def pump():
            while not stop.is_set():
                sink.emit({"name": "a"})

        t = threading.Thread(target=pump)
        t.start()
        for _ in range(20):
            sink.close()  # racing close: emit must reopen, never crash
        stop.set()
        t.join()
        sink.close()
        for rec in read_jsonl(path):
            assert rec == {"name": "a"}

    def test_records_flushed_even_when_the_run_raises(self, tmp_path):
        """The early-exit guarantee: whatever was emitted before an
        exception is on disk after close(), with no partial trailing line."""
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        with pytest.raises(RuntimeError):
            try:
                sink.emit({"name": "before-crash"})
                raise RuntimeError("boom")
            finally:
                sink.close()
        assert read_jsonl(path) == [{"name": "before-crash"}]
        assert sink._handle is None

    def test_unserializable_record_does_not_wedge_the_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        circular: dict = {}
        circular["self"] = circular
        with pytest.raises(ValueError):
            sink.emit(circular)
        sink.emit({"name": "after"})  # serialization failed outside the lock
        sink.close()
        assert read_jsonl(path) == [{"name": "after"}]


class TestQueryLogSink:
    def test_outcomes_stream_to_jsonl(self, tmp_path):
        obs = Observability()
        path = tmp_path / "queries.jsonl"
        obs.add_outcome_sink(JsonlSink(path))
        outcome = QueryOutcome(
            skyline=np.zeros((4, 2)), method="Baseline", cache_hit=False
        )
        obs.record_outcome(outcome)
        obs.record_outcome(outcome)
        obs.close()
        records = read_jsonl(path)
        assert len(records) == 2
        assert records[0]["method"] == "Baseline"
        assert records[0]["skyline_size"] == 4
        assert set(records[0]["io"]) >= {"points_read", "range_queries"}
        assert set(records[0]["timings"]) == {
            "processing_ms", "fetch_io_ms", "fetch_wall_ms", "skyline_ms",
        }

    def test_record_is_strict_json(self):
        outcome = QueryOutcome(
            skyline=np.zeros((1, 2)), method="M", case="exact", stable=True
        )
        json.dumps(outcome.as_record(), allow_nan=False)
