"""Tests for the rolling time-bucketed outcome window."""

import math
import threading

import pytest

from repro.obs.window import RollingWindow


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_window(**kwargs):
    clock = FakeClock()
    kwargs.setdefault("window_s", 10.0)
    kwargs.setdefault("bucket_s", 1.0)
    return RollingWindow(clock=clock, **kwargs), clock


class TestRecording:
    def test_counts_and_rates(self):
        window, clock = make_window()
        for i in range(10):
            window.record(
                latency_ms=float(i),
                cache_hit=i % 2 == 0,
                degraded="ampr" if i == 3 else None,
                stale=i == 4,
            )
        window.record_error()
        snap = window.snapshot()
        assert snap.queries == 10
        assert snap.errors == 1
        assert snap.cache_hits == 5
        assert snap.hit_ratio == pytest.approx(0.5)
        assert snap.degraded_rate == pytest.approx(0.1)
        assert snap.stale_rate == pytest.approx(0.1)
        assert snap.error_rate == pytest.approx(1 / 11)
        assert snap.rungs == {"ampr": 1}

    def test_percentiles_and_mean(self):
        window, clock = make_window()
        for v in range(1, 101):
            window.record(latency_ms=float(v))
        snap = window.snapshot()
        assert snap.p50_ms == pytest.approx(50.0, abs=1.0)
        assert snap.p95_ms == pytest.approx(95.0, abs=1.0)
        assert snap.p99_ms == pytest.approx(99.0, abs=1.0)
        assert snap.mean_ms == pytest.approx(50.5)

    def test_empty_window_is_nan_not_crash(self):
        window, clock = make_window()
        snap = window.snapshot()
        assert snap.queries == 0
        assert math.isnan(snap.p95_ms)
        assert math.isnan(snap.hit_ratio)
        assert math.isnan(snap.error_rate)
        assert snap.qps == 0.0

    def test_old_buckets_age_out(self):
        window, clock = make_window(window_s=5.0)
        window.record(latency_ms=1.0)
        assert window.snapshot().queries == 1
        clock.advance(6.5)  # past the window: bucket 0 is outside
        assert window.snapshot().queries == 0
        # totals survive the expiry
        assert window.total_queries == 1

    def test_ring_reuse_resets_stale_bucket(self):
        window, clock = make_window(window_s=3.0, bucket_s=1.0)
        window.record(latency_ms=1.0)
        clock.advance(4.0)  # wraps the ring back onto bucket index 0's slot
        window.record(latency_ms=2.0)
        snap = window.snapshot()
        assert snap.queries == 1  # old bucket was reset, not double counted

    def test_qps_uses_populated_span_not_whole_window(self):
        window, clock = make_window(window_s=60.0)
        for _ in range(100):
            window.record(latency_ms=1.0)
        clock.advance(2.0)
        snap = window.snapshot()
        assert snap.qps == pytest.approx(50.0, rel=0.1)

    def test_sample_cap_keeps_counts_exact(self):
        window, clock = make_window(max_samples_per_bucket=10)
        for v in range(100):
            window.record(latency_ms=float(v))
        snap = window.snapshot()
        assert snap.queries == 100  # count exact beyond the latency cap
        assert snap.p50_ms <= 9.0  # percentile from the retained prefix


class TestSnapshotSerialization:
    def test_as_dict_is_json_ready(self):
        import json

        window, clock = make_window()
        window.record(latency_ms=3.0, cache_hit=True)
        payload = json.loads(json.dumps(window.snapshot().as_dict()))
        assert payload["queries"] == 1
        assert payload["cache_hit_ratio"] == 1.0
        assert "p99_ms" in payload and "rungs" in payload


class TestValidationAndConcurrency:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            RollingWindow(window_s=0)
        with pytest.raises(ValueError):
            RollingWindow(window_s=1.0, bucket_s=2.0)

    def test_concurrent_recording_is_consistent(self):
        window = RollingWindow(window_s=60.0)
        n, threads = 500, 4

        def pump():
            for _ in range(n):
                window.record(latency_ms=1.0, cache_hit=True)

        workers = [threading.Thread(target=pump) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        snap = window.snapshot()
        assert snap.queries == n * threads
        assert snap.cache_hits == n * threads
