"""Thread-safe time-bucketed rolling aggregation of query outcomes.

Batch observability (``metrics.json``, ``BENCH_*.json``) only materializes
after a run ends; a serving deployment needs the same signals *live*.
:class:`RollingWindow` keeps the last ``window_s`` seconds of query
outcomes in fixed-size time buckets and answers, at any moment:

- throughput (queries per second over the populated part of the window),
- latency percentiles (p50/p95/p99 of what each caller waited, wall ms),
- cache hit ratio,
- degradation / stale-answer / error rates.

:class:`~repro.service.QueryService` records every answer and error into
one window; its :class:`~repro.obs.health.HealthMonitor` and admission
control read the snapshot.

The clock is injectable (``clock=time.monotonic`` by default) so tests can
drive bucket rotation deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = ["RollingWindow", "WindowSnapshot"]


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    if not ordered:
        return float("nan")
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[int(rank)]


@dataclass
class WindowSnapshot:
    """One consistent reading of a :class:`RollingWindow`.

    Rates are fractions of ``queries`` (``nan`` when the window is empty);
    ``qps`` divides by the populated span of the window, so a burst that
    only filled two seconds of a 60 s window is not under-reported 30x.
    """

    window_s: float
    span_s: float
    queries: int = 0
    errors: int = 0
    cache_hits: int = 0
    degraded: int = 0
    stale: int = 0
    qps: float = 0.0
    p50_ms: float = float("nan")
    p95_ms: float = float("nan")
    p99_ms: float = float("nan")
    mean_ms: float = float("nan")
    rungs: Dict[str, int] = field(default_factory=dict)

    @property
    def hit_ratio(self) -> float:
        return self.cache_hits / self.queries if self.queries else float("nan")

    @property
    def degraded_rate(self) -> float:
        return self.degraded / self.queries if self.queries else float("nan")

    @property
    def stale_rate(self) -> float:
        return self.stale / self.queries if self.queries else float("nan")

    @property
    def error_rate(self) -> float:
        total = self.queries + self.errors
        return self.errors / total if total else float("nan")

    def as_dict(self) -> dict:
        """JSON-serializable rendering (flight-recorder snapshot schema)."""
        return {
            "window_s": self.window_s,
            "span_s": round(self.span_s, 3),
            "queries": self.queries,
            "errors": self.errors,
            "qps": round(self.qps, 3),
            "p50_ms": round(self.p50_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "mean_ms": round(self.mean_ms, 4),
            "cache_hit_ratio": round(self.hit_ratio, 4),
            "degraded_rate": round(self.degraded_rate, 4),
            "stale_rate": round(self.stale_rate, 4),
            "error_rate": round(self.error_rate, 4),
            "rungs": dict(self.rungs),
        }


class _Bucket:
    """One time bucket's accumulators (latencies capped per bucket)."""

    __slots__ = (
        "index",
        "queries",
        "errors",
        "cache_hits",
        "degraded",
        "stale",
        "latencies",
        "rungs",
    )

    def __init__(self, index: int):
        self.reset(index)

    def reset(self, index: int) -> None:
        self.index = index
        self.queries = 0
        self.errors = 0
        self.cache_hits = 0
        self.degraded = 0
        self.stale = 0
        self.latencies: List[float] = []
        self.rungs: Dict[str, int] = {}


class RollingWindow:
    """A ring of time buckets over the last ``window_s`` seconds.

    ``bucket_s`` trades freshness against memory: with the defaults (60 s
    window, 1 s buckets) at most 61 buckets exist, each retaining up to
    ``max_samples_per_bucket`` latencies for the percentile estimates
    (summary counts stay exact beyond the cap).
    """

    def __init__(
        self,
        window_s: float = 60.0,
        bucket_s: float = 1.0,
        max_samples_per_bucket: int = 2048,
        clock: Callable[[], float] = time.monotonic,
    ):
        if window_s <= 0 or bucket_s <= 0:
            raise ValueError("window_s and bucket_s must be positive")
        if bucket_s > window_s:
            raise ValueError("bucket_s cannot exceed window_s")
        self.window_s = float(window_s)
        self.bucket_s = float(bucket_s)
        self.max_samples_per_bucket = int(max_samples_per_bucket)
        self.clock = clock
        # +1: the in-progress bucket coexists with a full window of closed ones.
        n = int(round(window_s / bucket_s)) + 1
        self._ring: List[_Bucket] = [_Bucket(-1) for _ in range(n)]
        self._lock = threading.Lock()
        self._epoch = clock()
        self.total_queries = 0
        self.total_errors = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _bucket(self, now: float) -> _Bucket:
        index = int((now - self._epoch) / self.bucket_s)
        bucket = self._ring[index % len(self._ring)]
        if bucket.index != index:
            bucket.reset(index)
        return bucket

    def record(
        self,
        latency_ms: float,
        cache_hit: bool = False,
        degraded: Optional[str] = None,
        stale: bool = False,
    ) -> None:
        """Fold one answered query, ``latency_ms`` after its submission,
        into the current bucket."""
        with self._lock:
            bucket = self._bucket(self.clock())
            bucket.queries += 1
            self.total_queries += 1
            if cache_hit:
                bucket.cache_hits += 1
            if degraded is not None:
                bucket.degraded += 1
                bucket.rungs[degraded] = bucket.rungs.get(degraded, 0) + 1
            if stale:
                bucket.stale += 1
            if len(bucket.latencies) < self.max_samples_per_bucket:
                bucket.latencies.append(float(latency_ms))

    def record_error(self) -> None:
        """Fold one failed query (an exception, not an answer)."""
        with self._lock:
            self._bucket(self.clock()).errors += 1
            self.total_errors += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> WindowSnapshot:
        """Aggregate every bucket still inside the window."""
        with self._lock:
            now = self.clock()
            current = int((now - self._epoch) / self.bucket_s)
            oldest = current - (len(self._ring) - 1)
            live = [
                b
                for b in self._ring
                if b.index >= max(0, oldest) and b.queries + b.errors > 0
            ]
            snap = WindowSnapshot(
                window_s=self.window_s,
                span_s=self._span_s(live, now),
            )
            latencies: List[float] = []
            for bucket in live:
                snap.queries += bucket.queries
                snap.errors += bucket.errors
                snap.cache_hits += bucket.cache_hits
                snap.degraded += bucket.degraded
                snap.stale += bucket.stale
                for rung, count in bucket.rungs.items():
                    snap.rungs[rung] = snap.rungs.get(rung, 0) + count
                latencies.extend(bucket.latencies)
        if snap.span_s > 0:
            snap.qps = snap.queries / snap.span_s
        if latencies:
            latencies.sort()
            snap.p50_ms = _percentile(latencies, 50)
            snap.p95_ms = _percentile(latencies, 95)
            snap.p99_ms = _percentile(latencies, 99)
            snap.mean_ms = sum(latencies) / len(latencies)
        return snap

    def _span_s(self, live: List[_Bucket], now: float) -> float:
        """Populated extent of the window: oldest live bucket start -> now."""
        if not live:
            return 0.0
        start = self._epoch + min(b.index for b in live) * self.bucket_s
        return min(self.window_s, max(now - start, self.bucket_s))

    def __repr__(self) -> str:
        return (
            f"RollingWindow(window_s={self.window_s}, bucket_s={self.bucket_s}, "
            f"total_queries={self.total_queries})"
        )
