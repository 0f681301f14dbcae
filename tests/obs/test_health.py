"""Tests for SLO specs and the rolling-window health classifier."""

import pytest

from repro.obs.health import (
    DEGRADED,
    HEALTHY,
    UNHEALTHY,
    HealthMonitor,
    SLOSpec,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.window import RollingWindow


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class FakeBreaker:
    def __init__(self, state="closed"):
        self.state = state


def window_with(n=20, ms=5.0, hits=0, degraded=0, stale=0, errors=0):
    window = RollingWindow(window_s=60.0, clock=FakeClock())
    for i in range(n):
        window.record(
            latency_ms=ms,
            cache_hit=i < hits,
            degraded="ampr" if i < degraded else None,
            stale=i < stale,
        )
    for _ in range(errors):
        window.record_error()
    return window


class TestSLOSpec:
    def test_defaults_are_valid(self):
        SLOSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p95_ms": 0.0},
            {"p99_ms": -1.0},
            {"min_hit_ratio": 1.5},
            {"max_error_rate": -0.1},
            {"max_stale_rate": 2.0},
        ],
    )
    def test_rejects_out_of_range_objectives(self, kwargs):
        with pytest.raises(ValueError):
            SLOSpec(**kwargs)


class TestClassification:
    def test_clean_window_is_healthy(self):
        report = HealthMonitor(window_with()).report()
        assert report.status == HEALTHY
        assert report.healthy
        assert report.reasons == []

    def test_insufficient_data_is_healthy_with_reason(self):
        monitor = HealthMonitor(window_with(n=3), slo=SLOSpec(min_queries=10))
        report = monitor.report()
        assert report.status == HEALTHY
        assert any("insufficient data" in r for r in report.reasons)

    def test_error_rate_is_unhealthy(self):
        monitor = HealthMonitor(window_with(n=18, errors=2))
        report = monitor.report()
        assert report.status == UNHEALTHY
        assert any("error rate" in r for r in report.reasons)

    def test_stale_rate_is_unhealthy(self):
        monitor = HealthMonitor(window_with(n=20, stale=2, degraded=2))
        report = monitor.report()
        assert report.status == UNHEALTHY
        assert any("stale" in r for r in report.reasons)

    def test_degraded_rate_is_degraded(self):
        monitor = HealthMonitor(window_with(n=20, degraded=5))
        report = monitor.report()
        assert report.status == DEGRADED
        assert any("degraded-answer rate" in r for r in report.reasons)

    def test_latency_slo_violation_is_degraded(self):
        monitor = HealthMonitor(
            window_with(ms=100.0), slo=SLOSpec(p95_ms=10.0)
        )
        report = monitor.report()
        assert report.status == DEGRADED
        assert any("p95" in r for r in report.reasons)

    def test_hit_ratio_floor_is_degraded(self):
        monitor = HealthMonitor(
            window_with(hits=2), slo=SLOSpec(min_hit_ratio=0.5)
        )
        report = monitor.report()
        assert report.status == DEGRADED
        assert any("hit ratio" in r for r in report.reasons)

    def test_open_breaker_is_unhealthy_even_on_empty_window(self):
        monitor = HealthMonitor(
            window_with(n=0), breaker=FakeBreaker("open")
        )
        report = monitor.report()
        assert report.status == UNHEALTHY
        assert report.breaker_state == "open"

    def test_half_open_breaker_is_degraded(self):
        monitor = HealthMonitor(
            window_with(), breaker=FakeBreaker("half_open")
        )
        assert monitor.report().status == DEGRADED

    def test_hard_beats_soft(self):
        monitor = HealthMonitor(
            window_with(n=18, degraded=9, errors=2),
            slo=SLOSpec(max_degraded_rate=0.05),
        )
        assert monitor.report().status == UNHEALTHY

    def test_new_quarantines_degrade_once_then_clear(self):
        count = {"n": 0}
        monitor = HealthMonitor(
            window_with(), quarantined=lambda: count["n"]
        )
        assert monitor.report().status == HEALTHY
        count["n"] = 2
        report = monitor.report()
        assert report.status == DEGRADED
        assert report.quarantined == 2
        # no further quarantines: back to healthy on the next check
        assert monitor.report().status == HEALTHY


class TestExportAndRendering:
    def test_health_gauge_is_exported(self):
        metrics = MetricsRegistry()
        HealthMonitor(window_with(), metrics=metrics).report()
        assert metrics.gauge_value("service_health") == 0.0
        HealthMonitor(
            window_with(n=18, errors=2), metrics=metrics
        ).report()
        assert metrics.gauge_value("service_health") == 2.0

    def test_as_dict_round_trips_json(self):
        import json

        report = HealthMonitor(window_with()).report()
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["status"] == HEALTHY
        assert payload["window"]["queries"] == 20



class TestOverloadClassification:
    """The ingress side channel: shed/rejected traffic and queue pressure
    classify the service degraded even when the answered-query window is
    clean -- or too empty to judge at all."""

    def service_stats(self, **overrides):
        stats = {
            "queue_depth": 0,
            "queue_capacity": 64,
            "in_flight": 0,
            "shed": 0,
            "rejected_queue_full": 0,
            "deadline_exceeded": 0,
        }
        stats.update(overrides)
        return stats

    def test_fresh_sheds_degrade_an_insufficient_data_window(self):
        """Shed traffic never enters the rolling window, so overload must
        not hide behind the 'insufficient data' early-out."""
        stats = self.service_stats(shed=7, queue_depth=12)
        monitor = HealthMonitor(
            window_with(n=0),
            slo=SLOSpec(min_queries=10),
            service_stats=lambda: stats,
        )
        report = monitor.report()
        assert report.status == DEGRADED
        assert any("overload" in r for r in report.reasons)
        assert any("insufficient data" in r for r in report.reasons)
        assert report.service["shed"] == 7

    def test_overload_reason_is_delta_based(self):
        """Only *new* sheds since the last check degrade; a calm interval
        after a burst recovers to healthy."""
        stats = self.service_stats(shed=5)
        monitor = HealthMonitor(window_with(), service_stats=lambda: stats)
        assert monitor.report().status == DEGRADED
        # same totals on the next check: nothing new was shed
        assert monitor.report().status == HEALTHY

    def test_queue_pressure_degrades_before_any_shedding(self):
        stats = self.service_stats(queue_depth=52, queue_capacity=64)
        monitor = HealthMonitor(window_with(), service_stats=lambda: stats)
        report = monitor.report()
        assert report.status == DEGRADED
        assert any("queue under pressure" in r for r in report.reasons)

    def test_rejections_and_expiries_count_as_overload(self):
        stats = self.service_stats(rejected_queue_full=2, deadline_exceeded=1)
        monitor = HealthMonitor(window_with(), service_stats=lambda: stats)
        report = monitor.report()
        assert report.status == DEGRADED
        assert any("3 request(s)" in r for r in report.reasons)

    def test_calm_service_stats_change_nothing(self):
        monitor = HealthMonitor(
            window_with(), service_stats=lambda: self.service_stats()
        )
        report = monitor.report()
        assert report.status == HEALTHY
        assert report.service is not None

    def test_overload_survives_as_dict(self):
        import json

        stats = self.service_stats(shed=4)
        monitor = HealthMonitor(window_with(), service_stats=lambda: stats)
        payload = json.loads(json.dumps(monitor.report().as_dict()))
        assert payload["status"] == DEGRADED
        assert payload["service"]["shed"] == 4
