"""Overload soak: open-loop serving benchmark for the ingress layer.

The acceptance test for the overload-safe serving path (ISSUE PR 9): a
zipf-skewed multi-user workload is submitted on an *open-loop* arrival
schedule -- requests arrive at a fixed rate whether or not the service
keeps up, the regime where a closed-loop benchmark silently self-throttles
and hides overload -- at a configurable multiple of the measured
saturation rate.  The soak then checks the ingress guarantees:

- **accounting closes exactly**: every submitted request terminates as an
  answer, a typed rejection (``shed`` / ``rejected_queue_full`` /
  ``deadline_exceeded``), or a reported error -- zero silent drops;
- **admitted answers are bit-exact**: every non-stale answer (including
  coalesced/deduplicated ones) equals the reference skyline computed
  directly over the dataset; stale serves carry their ``stale`` flag;
- **latency is bounded**: because shedding caps the queue, the answered
  p99 stays under a limit derived from queue capacity and service time --
  independent of how long the overload lasts;
- **coalescing works**: the zipf head plus shrink-variants of it must
  produce in-flight dedup/subsumption hits under backlog.

The engine's cost model charges *simulated* milliseconds, which cost
nearly no wall time -- an arrival schedule could never saturate it.
:class:`PacedEngine` therefore replays each answer's simulated cost as
real ``sleep`` time (with a floor), so saturation, queue growth, and
shedding are all genuine.  Everything is seeded and the report is
serializable; run it via ``python -m repro.bench --overload N`` (exit
code 6 on failure) or directly::

    from repro.bench.serving import run_overload_soak
    report = run_overload_soak(n_requests=200, profile="none", seed=0)
    print(report.render_text())
    assert report.passed
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.bench.harness import scaled
from repro.core.cbcs import CBCS, RUNG_STALE, RUNG_UNAVAILABLE
from repro.data.generator import independent
from repro.service import (
    STATUS_DEADLINE_EXCEEDED,
    STATUS_REJECTED_QUEUE_FULL,
    STATUS_SHED,
    AdmissionPolicy,
    QueryService,
    RequestRejected,
)
from repro.skyline.reference import constrained_reference, same_multiset
from repro.storage.faults import FaultInjector, FaultyDiskTable, get_profile
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

#: Rungs whose answers may legitimately differ from the reference.
_STALE_RUNGS = (RUNG_STALE, RUNG_UNAVAILABLE)

#: Priority mix of the synthetic client population.
_PRIORITY_MIX = (("interactive", 0.3), ("normal", 0.5), ("batch", 0.2))


class PacedEngine:
    """Replays an engine's *simulated* cost as wall-clock time.

    The repo's timings are simulated milliseconds (cost-model I/O charges),
    so a real engine answers in microseconds of wall time and no arrival
    rate could overload it.  This shim sleeps after each answer until the
    wall time spent matches ``max(outcome.total_ms * pace, floor_ms)``,
    making the open-loop soak's saturation arithmetic honest.  Engine
    exceptions (including :class:`~repro.resilience.errors.DeadlineExceeded`)
    propagate without padding.
    """

    def __init__(self, engine, pace: float = 1.0, floor_ms: float = 2.0):
        self.engine = engine
        self.pace = float(pace)
        self.floor_ms = float(floor_ms)

    # The service probes these on construction; delegate to the real engine.
    @property
    def obs(self):
        return getattr(self.engine, "obs", None)

    @property
    def resilience(self):
        return getattr(self.engine, "resilience", None)

    @property
    def cache(self):
        return getattr(self.engine, "cache", None)

    def query(self, constraints, query_id=None, deadline=None):
        t0 = time.perf_counter()
        outcome = self.engine.query(
            constraints, query_id=query_id, deadline=deadline
        )
        target_s = max(outcome.total_ms * self.pace, self.floor_ms) / 1000.0
        leftover = target_s - (time.perf_counter() - t0)
        if leftover > 0:
            time.sleep(leftover)
        return outcome

    def close(self) -> None:
        self.engine.close()


@dataclass
class ServingReport:
    """Everything the overload soak measured, plus the verdict inputs."""

    profile: str
    seed: int
    workers: int
    n_requests: int
    rate_multiplier: float
    mean_service_ms: float = 0.0
    saturation_rps: float = 0.0
    target_rps: float = 0.0
    achieved_rps: float = 0.0
    queue_capacity: int = 0
    submitted: int = 0
    answered: int = 0
    shed: int = 0
    rejected_queue_full: int = 0
    deadline_exceeded: int = 0
    error_count: int = 0
    coalesced_dedup: int = 0
    coalesced_subsumed: int = 0
    stale_serves: int = 0
    incorrect_answers: int = 0
    unhandled_exceptions: int = 0
    p50_ms: float = float("nan")
    p95_ms: float = float("nan")
    p99_ms: float = float("nan")
    max_ms: float = float("nan")
    p99_limit_ms: float = float("inf")
    min_coalesced: int = 1
    by_priority: Dict[str, Dict[str, int]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def coalesced(self) -> int:
        return self.coalesced_dedup + self.coalesced_subsumed

    @property
    def shed_rate(self) -> float:
        """Fraction of submissions turned away before execution."""
        if not self.submitted:
            return 0.0
        return (self.shed + self.rejected_queue_full) / self.submitted

    @property
    def coalesce_rate(self) -> float:
        """Fraction of submissions answered by piggybacking on another."""
        if not self.submitted:
            return 0.0
        return self.coalesced / self.submitted

    @property
    def accounting_closed(self) -> bool:
        """True iff every submission has exactly one typed terminal state."""
        return self.submitted == (
            self.answered
            + self.shed
            + self.rejected_queue_full
            + self.deadline_exceeded
            + self.error_count
        )

    @property
    def p99_bounded(self) -> bool:
        """Answered p99 under the capacity-derived limit (vacuous if no
        request was answered)."""
        if not self.answered:
            return True
        return self.p99_ms <= self.p99_limit_ms

    @property
    def passed(self) -> bool:
        return (
            self.unhandled_exceptions == 0
            and self.incorrect_answers == 0
            and self.accounting_closed
            and self.coalesced >= self.min_coalesced
            and self.p99_bounded
        )

    def as_dict(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "workers": self.workers,
            "n_requests": self.n_requests,
            "rate_multiplier": self.rate_multiplier,
            "mean_service_ms": self.mean_service_ms,
            "saturation_rps": self.saturation_rps,
            "target_rps": self.target_rps,
            "achieved_rps": self.achieved_rps,
            "queue_capacity": self.queue_capacity,
            "submitted": self.submitted,
            "answered": self.answered,
            "shed": self.shed,
            "rejected_queue_full": self.rejected_queue_full,
            "deadline_exceeded": self.deadline_exceeded,
            "error_count": self.error_count,
            "coalesced_dedup": self.coalesced_dedup,
            "coalesced_subsumed": self.coalesced_subsumed,
            "coalesced": self.coalesced,
            "stale_serves": self.stale_serves,
            "incorrect_answers": self.incorrect_answers,
            "unhandled_exceptions": self.unhandled_exceptions,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
            "p99_limit_ms": self.p99_limit_ms,
            "shed_rate": self.shed_rate,
            "coalesce_rate": self.coalesce_rate,
            "accounting_closed": self.accounting_closed,
            "by_priority": {k: dict(v) for k, v in self.by_priority.items()},
            "errors": list(self.errors),
            "passed": self.passed,
        }

    def render_text(self) -> str:
        lines = [
            f"# overload soak (profile={self.profile}, seed={self.seed}, "
            f"{self.n_requests} requests, {self.workers} workers, "
            f"{self.rate_multiplier:.1f}x saturation)",
            f"service time         : {self.mean_service_ms:.2f}ms mean -> "
            f"saturation {self.saturation_rps:.0f} rps, "
            f"target {self.target_rps:.0f} rps, "
            f"achieved {self.achieved_rps:.0f} rps",
            f"accounting           : {self.submitted} submitted = "
            f"{self.answered} answered + {self.shed} shed + "
            f"{self.rejected_queue_full} queue-full + "
            f"{self.deadline_exceeded} deadline + {self.error_count} errors "
            f"({'CLOSED' if self.accounting_closed else 'LEAK'})",
            f"coalesced            : {self.coalesced} "
            f"({self.coalesced_dedup} dedup, {self.coalesced_subsumed} "
            f"subsumed; rate {self.coalesce_rate:.1%})",
            f"shed rate            : {self.shed_rate:.1%} "
            f"(queue capacity {self.queue_capacity})",
            f"answered latency     : p50={self.p50_ms:.1f}ms "
            f"p95={self.p95_ms:.1f}ms p99={self.p99_ms:.1f}ms "
            f"max={self.max_ms:.1f}ms (limit {self.p99_limit_ms:.0f}ms)",
            f"correctness          : {self.incorrect_answers} incorrect, "
            f"{self.stale_serves} stale-flagged, "
            f"{self.unhandled_exceptions} unhandled exceptions",
        ]
        for priority, counts in sorted(self.by_priority.items()):
            lines.append(
                f"  {priority:<12}: "
                + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            )
        for err in self.errors[:10]:
            lines.append(f"error: {err}")
        if len(self.errors) > 10:
            lines.append(f"... and {len(self.errors) - 10} more errors")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def run_overload_soak(
    n_requests: int = 200,
    profile: str = "none",
    seed: int = 0,
    workers: int = 4,
    rate_multiplier: float = 2.0,
    n_points: Optional[int] = None,
    ndim: int = 4,
    obs=None,
    queue_capacity: int = 64,
    calibration_queries: int = 25,
    floor_ms: float = 2.0,
    deadline_multiplier: float = 25.0,
    min_coalesced: int = 1,
    p99_limit_ms: Optional[float] = None,
) -> ServingReport:
    """Run the open-loop overload soak and return its :class:`ServingReport`.

    The calibration phase answers ``calibration_queries`` zipf queries
    serially (warming the cache exactly as steady-state traffic would) to
    measure the mean wall service time; saturation is ``workers`` over
    that, and the arrival schedule draws exponential inter-arrival gaps at
    ``rate_multiplier`` times saturation.  Each request gets a priority
    from a fixed mix, and interactive requests carry a deadline of
    ``deadline_multiplier`` mean service times, so queue backlog produces
    typed ``deadline_exceeded`` rejections alongside shedding.

    ``p99_limit_ms`` defaults to a generous bound derived from the queue
    capacity and calibrated service time -- the worst admitted request
    waits behind at most a full queue -- so a pass certifies that shedding
    (not luck) keeps latency bounded.
    """
    if n_requests < 1:
        raise ValueError("n_requests must be positive")
    if rate_multiplier <= 0:
        raise ValueError("rate_multiplier must be positive")
    fault_profile = get_profile(profile)
    if n_points is None:
        n_points = scaled(2_000, 10_000, 30_000)
    data = independent(n_points, ndim, seed=seed)
    metrics = obs.metrics if obs is not None and obs.enabled else None
    if fault_profile.name == "none":
        table = DiskTable(data)
    else:
        injector = FaultInjector(
            profile=fault_profile, seed=seed, metrics=metrics
        )
        table = FaultyDiskTable(DiskTable(data), injector)
    engine = PacedEngine(
        CBCS(table, obs=obs, resilience=True),
        floor_ms=floor_ms,
    )

    gen = WorkloadGenerator(data, seed=seed)
    universe = max(8, min(25, n_requests // 4))
    stream = gen.zipf_stream(
        calibration_queries + n_requests, universe=universe
    )
    warmup, queries = stream[:calibration_queries], stream[calibration_queries:]

    # Phase 1: serial calibration.  The first half warms the cache; only
    # the second half is timed, so the measured service time reflects the
    # steady state (cold cache misses would inflate it and the derived
    # "2x saturation" rate would never actually overload the service).
    half = max(len(warmup) // 2, 1)
    for constraints in warmup[:half]:
        engine.query(constraints)
    timed = warmup[half:] or warmup[:half]
    t0 = time.perf_counter()
    for constraints in timed:
        engine.query(constraints)
    mean_service_s = max((time.perf_counter() - t0) / len(timed), 1e-4)
    saturation_rps = workers / mean_service_s
    target_rps = rate_multiplier * saturation_rps
    mean_service_ms = mean_service_s * 1000.0

    report = ServingReport(
        profile=fault_profile.name,
        seed=seed,
        workers=workers,
        n_requests=n_requests,
        rate_multiplier=rate_multiplier,
        mean_service_ms=mean_service_ms,
        saturation_rps=saturation_rps,
        target_rps=target_rps,
        queue_capacity=queue_capacity,
        min_coalesced=min_coalesced,
    )
    # The worst admitted request drains behind a full queue on `workers`
    # lanes; everything beyond that must have been shed.  Generous slack
    # absorbs scheduler jitter on loaded CI runners.
    report.p99_limit_ms = (
        p99_limit_ms
        if p99_limit_ms is not None
        else (queue_capacity / workers + 4.0) * mean_service_ms * 8.0 + 250.0
    )

    rng = np.random.default_rng(seed + 1)
    names = [name for name, _ in _PRIORITY_MIX]
    weights = [w for _, w in _PRIORITY_MIX]
    priorities = [names[i] for i in rng.choice(len(names), n_requests, p=weights)]
    gaps = rng.exponential(1.0 / target_rps, size=n_requests)
    deadline_ms = max(deadline_multiplier * mean_service_ms, 10.0)

    policy = AdmissionPolicy(capacity=queue_capacity)
    futures: List[tuple] = []
    done_at: List[Optional[float]] = [None] * n_requests
    service = QueryService(engine, workers=workers, policy=policy)
    try:
        # Phase 2: open-loop submission.  submit() never blocks, so a
        # schedule the service cannot keep up with turns into queue depth
        # and typed rejections, never into client-side self-throttling.
        start = time.perf_counter()
        next_arrival = start
        for i, constraints in enumerate(queries):
            next_arrival += gaps[i]
            delay = next_arrival - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            submitted_at = time.perf_counter()
            future = service.submit(
                constraints,
                priority=priorities[i],
                deadline_ms=(
                    deadline_ms if priorities[i] == "interactive" else None
                ),
            )

            def _stamp(f, i=i):
                done_at[i] = time.perf_counter()

            future.add_done_callback(_stamp)
            futures.append((i, constraints, priorities[i], submitted_at, future))
        # Phase 3: drain.
        latencies: List[float] = []
        for i, constraints, priority, submitted_at, future in futures:
            counts = report.by_priority.setdefault(priority, {})
            try:
                result = future.result()
            except Exception as exc:  # engine error, reported via counters
                report.errors.append(
                    f"request {i}: {type(exc).__name__}: {exc}"
                )
                counts["error"] = counts.get("error", 0) + 1
                continue
            if isinstance(result, RequestRejected):
                counts[result.status] = counts.get(result.status, 0) + 1
                continue
            counts["answered"] = counts.get("answered", 0) + 1
            end = done_at[i] if done_at[i] is not None else time.perf_counter()
            latencies.append((end - submitted_at) * 1000.0)
            if result.degraded in _STALE_RUNGS or result.stale:
                report.stale_serves += 1
                continue
            reference = constrained_reference(data, constraints)
            if not same_multiset(np.asarray(result.skyline), reference):
                report.incorrect_answers += 1
                report.errors.append(
                    f"request {i}: non-stale answer differs from reference "
                    f"({len(result.skyline)} vs {len(reference)} points, "
                    f"case={result.case}, served_by={result.served_by})"
                )
        elapsed = time.perf_counter() - start
        report.achieved_rps = n_requests / elapsed if elapsed > 0 else 0.0
    finally:
        service.close()
        engine.close()

    stats = service.stats()
    report.submitted = stats["submitted"]
    report.answered = stats["answered"]
    report.shed = stats["shed"]
    report.rejected_queue_full = stats["rejected_queue_full"]
    report.deadline_exceeded = stats["deadline_exceeded"]
    report.error_count = stats["errors"]
    report.coalesced_dedup = stats["coalesced_dedup"]
    report.coalesced_subsumed = stats["coalesced_subsumed"]
    if len(report.errors) != report.error_count + report.incorrect_answers:
        # A future that raised without a matching service error counter (or
        # vice versa) would be a silent accounting leak; surface it.
        report.unhandled_exceptions += abs(
            len(report.errors) - report.error_count - report.incorrect_answers
        )
    if latencies:
        arr = np.asarray(latencies)
        report.p50_ms = float(np.percentile(arr, 50))
        report.p95_ms = float(np.percentile(arr, 95))
        report.p99_ms = float(np.percentile(arr, 99))
        report.max_ms = float(arr.max())
    return report
