"""Declarative SLOs and a live health classifier over a rolling window.

A cache-serving deployment needs one question answered continuously: *is
the service meeting its objectives right now, and if not, why?*
:class:`SLOSpec` declares the objectives (latency percentiles, cache hit
ratio, degradation/staleness/error budgets); :class:`HealthMonitor` reads
a :class:`~repro.obs.window.RollingWindow` snapshot -- plus, optionally,
the circuit breaker and cache quarantine state -- and classifies:

- ``healthy``: every objective met;
- ``degraded``: serving correct answers but out of SLO (latency or hit
  ratio off, degradation-ladder answers above budget, items quarantined);
- ``unhealthy``: availability is impaired (error rate above budget, stale
  or unavailable answers above budget, circuit breaker open).

Every violated objective contributes a human-readable reason string, so
``QueryService.health()`` can say *what* is wrong, not just that something
is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.obs.window import RollingWindow, WindowSnapshot

__all__ = ["SLOSpec", "HealthReport", "HealthMonitor", "HEALTHY", "DEGRADED", "UNHEALTHY"]

HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

#: Gauge encoding exported as ``service_health``.
STATUS_CODES = {HEALTHY: 0, DEGRADED: 1, UNHEALTHY: 2}


@dataclass(frozen=True)
class SLOSpec:
    """Service-level objectives for the constrained-skyline serving path.

    Latency objectives are in wall-clock milliseconds from submission to
    answer -- queue wait included, what the caller waited; simulated I/O
    is a cost-model output and never part of them.  Any objective set to
    None is not enforced.  ``min_queries`` guards against verdict
    flapping on a nearly empty window: below it the monitor reports
    ``healthy`` with an "insufficient data" reason rather than judging on
    noise.
    """

    p95_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    min_hit_ratio: Optional[float] = None
    max_degraded_rate: float = 0.05
    max_stale_rate: float = 0.01
    max_error_rate: float = 0.0
    min_queries: int = 10

    def __post_init__(self):
        for name in ("p95_ms", "p99_ms"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")
        if self.min_hit_ratio is not None and not 0.0 <= self.min_hit_ratio <= 1.0:
            raise ValueError("min_hit_ratio must be in [0, 1]")
        for name in ("max_degraded_rate", "max_stale_rate", "max_error_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass
class HealthReport:
    """One health verdict: status, reasons, and the snapshot it judged.

    ``service`` carries the serving layer's ingress stats (queue depth and
    capacity, in-flight count, shed/rejected totals) when the monitor has
    a ``service_stats`` side channel -- the overload evidence behind any
    "overload"/"ingress queue" reasons.
    """

    status: str
    reasons: List[str] = field(default_factory=list)
    snapshot: Optional[WindowSnapshot] = None
    breaker_state: Optional[str] = None
    quarantined: int = 0
    service: Optional[dict] = None

    @property
    def healthy(self) -> bool:
        return self.status == HEALTHY

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "reasons": list(self.reasons),
            "breaker_state": self.breaker_state,
            "quarantined": self.quarantined,
            "window": self.snapshot.as_dict() if self.snapshot else None,
            "service": dict(self.service) if self.service is not None else None,
        }

    def summary(self) -> str:
        reason = f" ({'; '.join(self.reasons)})" if self.reasons else ""
        return f"{self.status}{reason}"


def _rate_ok(value: float, budget: float) -> bool:
    """A nan rate (empty window) never violates a budget."""
    return math.isnan(value) or value <= budget


class HealthMonitor:
    """Classifies a rolling window's snapshot against an :class:`SLOSpec`.

    ``breaker`` (anything with a ``state`` attribute, e.g.
    :class:`repro.resilience.breaker.CircuitBreaker`) and ``quarantined``
    (a zero-arg callable returning the cache's quarantine count) are
    optional side channels: an open breaker is an availability failure
    regardless of what the window says, and fresh quarantines mark the
    service degraded even while answers stay in SLO.

    ``service_stats`` (a zero-arg callable returning
    ``QueryService.stats()``-shaped ingress numbers) is the overload side
    channel: fresh shed/rejected requests or a nearly full ingress queue
    classify the service ``degraded`` with an explicit overload reason --
    even while the answered queries in the window still meet their SLO,
    and even while the window is too empty to judge (shed traffic never
    *enters* the window, so overload must not hide behind "insufficient
    data").
    """

    #: queue-depth fraction above which the ingress queue itself is a
    #: degradation reason, ahead of any shedding
    QUEUE_PRESSURE_FRACTION = 0.8

    def __init__(
        self,
        window: RollingWindow,
        slo: Optional[SLOSpec] = None,
        breaker=None,
        quarantined: Optional[Callable[[], int]] = None,
        metrics=None,
        service_stats: Optional[Callable[[], dict]] = None,
    ):
        self.window = window
        self.slo = slo if slo is not None else SLOSpec()
        self.breaker = breaker
        self.quarantined = quarantined
        self.metrics = metrics
        self.service_stats = service_stats
        self._last_quarantined = quarantined() if quarantined is not None else 0
        self._last_shed_total = 0

    def _overload_reasons(self, service: Optional[dict]) -> List[str]:
        """Soft reasons derived from the ingress stats (empty when calm)."""
        if service is None:
            return []
        reasons: List[str] = []
        shed_total = (
            service.get("shed", 0)
            + service.get("rejected_queue_full", 0)
            + service.get("deadline_exceeded", 0)
        )
        newly_shed = shed_total - self._last_shed_total
        self._last_shed_total = shed_total
        depth = service.get("queue_depth", 0)
        capacity = service.get("queue_capacity", 0)
        if newly_shed > 0:
            reasons.append(
                f"overload: {newly_shed} request(s) shed/rejected/expired "
                f"since last check (queue {depth}/{capacity}, "
                f"{service.get('in_flight', 0)} in flight)"
            )
        if capacity and depth >= self.QUEUE_PRESSURE_FRACTION * capacity:
            reasons.append(
                f"ingress queue under pressure: {depth}/{capacity} slots used"
            )
        return reasons

    def report(self) -> HealthReport:
        """Judge the current window; never raises."""
        slo = self.slo
        snap = self.window.snapshot()
        hard: List[str] = []  # availability failures -> unhealthy
        soft: List[str] = []  # quality-of-service misses -> degraded

        breaker_state = getattr(self.breaker, "state", None)
        if breaker_state == "open":
            hard.append("circuit breaker open: storage fetches are rejected")
        elif breaker_state == "half_open":
            soft.append("circuit breaker half-open: probing storage recovery")

        quarantined = (
            self.quarantined() if self.quarantined is not None else 0
        )
        newly_quarantined = quarantined - self._last_quarantined
        self._last_quarantined = quarantined
        if newly_quarantined > 0:
            soft.append(
                f"{newly_quarantined} cache item(s) quarantined since last check"
            )

        service = (
            self.service_stats() if self.service_stats is not None else None
        )
        overload = self._overload_reasons(service)
        soft.extend(overload)

        if snap.queries + snap.errors < slo.min_queries:
            # Shed traffic never enters the window, so overload reasons
            # still classify the service degraded on a quiet window.
            if hard:
                status = UNHEALTHY
            elif overload:
                status = DEGRADED
            else:
                status = HEALTHY
            report = HealthReport(
                status=status,
                reasons=hard
                + overload
                + [
                    f"insufficient data: {snap.queries + snap.errors} of "
                    f"{slo.min_queries} queries in window"
                ],
                snapshot=snap,
                breaker_state=breaker_state,
                quarantined=quarantined,
                service=service,
            )
            self._export(report)
            return report

        if not _rate_ok(snap.error_rate, slo.max_error_rate):
            hard.append(
                f"error rate {snap.error_rate:.1%} exceeds "
                f"budget {slo.max_error_rate:.1%}"
            )
        if not _rate_ok(snap.stale_rate, slo.max_stale_rate):
            hard.append(
                f"stale-answer rate {snap.stale_rate:.1%} exceeds "
                f"budget {slo.max_stale_rate:.1%}"
            )
        if not _rate_ok(snap.degraded_rate, slo.max_degraded_rate):
            soft.append(
                f"degraded-answer rate {snap.degraded_rate:.1%} exceeds "
                f"budget {slo.max_degraded_rate:.1%}"
            )
        if slo.p95_ms is not None and snap.p95_ms > slo.p95_ms:
            soft.append(f"p95 {snap.p95_ms:.2f}ms above SLO {slo.p95_ms:.2f}ms")
        if slo.p99_ms is not None and snap.p99_ms > slo.p99_ms:
            soft.append(f"p99 {snap.p99_ms:.2f}ms above SLO {slo.p99_ms:.2f}ms")
        if (
            slo.min_hit_ratio is not None
            and not math.isnan(snap.hit_ratio)
            and snap.hit_ratio < slo.min_hit_ratio
        ):
            soft.append(
                f"cache hit ratio {snap.hit_ratio:.1%} below "
                f"floor {slo.min_hit_ratio:.1%}"
            )

        if hard:
            status = UNHEALTHY
        elif soft:
            status = DEGRADED
        else:
            status = HEALTHY
        report = HealthReport(
            status=status,
            reasons=hard + soft,
            snapshot=snap,
            breaker_state=breaker_state,
            quarantined=quarantined,
            service=service,
        )
        self._export(report)
        return report

    def _export(self, report: HealthReport) -> None:
        if self.metrics is not None:
            self.metrics.set_gauge(
                "service_health", STATUS_CODES[report.status]
            )

    def __repr__(self) -> str:
        return f"HealthMonitor(window={self.window!r}, slo={self.slo!r})"

