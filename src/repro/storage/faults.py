"""Deterministic storage fault injection for resilience testing.

Production storage fails in ways a reproduction on an in-process table
never would: transient I/O errors, latency spikes, short reads, and bit
rot.  This module makes every one of those failure modes *reproducible*:

- :class:`FaultProfile` describes per-call fault rates (and magnitudes);
  the named profiles in :data:`PROFILES` are shared by tests, the chaos
  soak (``python -m repro.bench --chaos``), and CI.
- :class:`FaultInjector` draws faults from a seeded PRNG and records every
  injected fault in a trace, so the same seed over the same call sequence
  yields an identical fault schedule (deterministic replay).
- :class:`FaultyDiskTable` wraps a :class:`~repro.storage.table.DiskTable`
  and applies the injector's verdicts to the read path: transient
  :class:`TransientStorageError` (an ``IOError``), extra simulated latency,
  truncated :class:`~repro.storage.table.RangeResult` payloads (row-count
  header kept intact, modelling a short read), and NaN-corrupted rows.

Truncation and corruption are *detectable* by design -- a truncated result
has ``len(points) != len(rowids)`` and a corrupted one carries non-finite
values -- which is exactly what
:func:`repro.resilience.validate.validate_range_result` checks, so the
retry/degradation machinery treats them like any other transient fault
instead of silently computing a wrong skyline.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, replace
from typing import List, Optional, Union

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.storage.table import DiskTable, RangeResult


class TransientStorageError(IOError):
    """A storage operation failed in a way that a retry may fix."""


class SimulatedCrash(BaseException):
    """The process "died" at an armed crash point.

    Raised by durable-write sites (WAL append/fsync, checkpoint commit,
    cache snapshot commit) when the fault injector has armed that point.
    Deliberately *not* an :class:`Exception`: nothing in the engine --
    retry loops, the cache fallback, the chaos soak's catch-all --
    may swallow a crash; only the crash-recovery drill's harness catches
    it, models the process death, and drives ``recover()``.
    """

    def __init__(self, point: str):
        super().__init__(f"simulated crash at {point}")
        self.point = point


@dataclass(frozen=True)
class CrashOrder:
    """The injector's verdict at one armed crash point.

    ``torn_fraction`` is None for a clean crash (die before the write);
    a value in (0, 1) orders a *torn write*: the site persists only that
    prefix of the frame's bytes -- modelling a partial fsync / torn sector
    -- and then dies.  Replay must detect the torn tail by CRC.
    """

    point: str
    torn_fraction: Optional[float] = None


#: Fault kinds, in the fixed order the injector's single uniform draw walks.
FAULT_KINDS = ("transient_io", "latency", "truncate", "corrupt")


@dataclass(frozen=True)
class FaultProfile:
    """Per-call fault rates (probabilities) plus fault magnitudes.

    Rates are independent per table call; their sum is the overall fault
    rate.  ``latency_ms`` is the extra simulated I/O charged by one latency
    spike.
    """

    name: str = "custom"
    transient_io: float = 0.0
    latency: float = 0.0
    truncate: float = 0.0
    corrupt: float = 0.0
    latency_ms: float = 25.0

    def __post_init__(self):
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate must be in [0, 1], got {rate}")
        if self.total_rate > 1.0:
            raise ValueError(
                f"fault rates sum to {self.total_rate:.3f}; must be <= 1"
            )

    @property
    def total_rate(self) -> float:
        return self.transient_io + self.latency + self.truncate + self.corrupt

    def scaled(self, factor: float) -> "FaultProfile":
        """Return a copy with every rate multiplied by ``factor``."""
        return replace(
            self,
            name=f"{self.name}*{factor:g}",
            transient_io=self.transient_io * factor,
            latency=self.latency * factor,
            truncate=self.truncate * factor,
            corrupt=self.corrupt * factor,
        )


#: Named profiles shared by tests, the chaos soak, and CI.  ``default`` is
#: the acceptance profile: a 5% overall fault rate.
PROFILES = {
    "none": FaultProfile(name="none"),
    "default": FaultProfile(
        name="default",
        transient_io=0.02,
        latency=0.01,
        truncate=0.01,
        corrupt=0.01,
    ),
    "heavy": FaultProfile(
        name="heavy",
        transient_io=0.08,
        latency=0.04,
        truncate=0.04,
        corrupt=0.04,
        latency_ms=50.0,
    ),
}


def get_profile(profile: Union[str, FaultProfile]) -> FaultProfile:
    """Resolve a profile name (see :data:`PROFILES`) or pass one through."""
    if isinstance(profile, FaultProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {profile!r}; available: {sorted(PROFILES)}"
        ) from None


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: which call, which operation, which kind."""

    index: int  # 1-based injector call index
    op: str
    kind: str


class FaultInjector:
    """Seeded, deterministic source of fault verdicts.

    One :meth:`draw` per table call; the same seed over the same call
    sequence produces the identical :attr:`trace`.  A forced outage
    (:meth:`force_outage`) makes the next ``n`` draws transient I/O errors
    regardless of the profile -- the chaos soak's circuit-breaker drill --
    without consuming PRNG state, so the post-outage schedule is unchanged.
    """

    def __init__(
        self,
        profile: Union[str, FaultProfile] = "default",
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.profile = get_profile(profile)
        self.seed = seed
        self._rng = random.Random(seed)
        self.calls = 0
        self.trace: List[FaultEvent] = []
        self.metrics = NULL_METRICS if metrics is None else metrics
        self._outage_remaining = 0
        #: armed crash points: point -> [remaining_hits, torn_fraction]
        self._crashes: dict = {}
        #: every crash order fired, for drill reporting/replay audits
        self.crash_trace: List[CrashOrder] = []
        # Guards the PRNG, call counter, trace, and outage budget so
        # concurrent queries draw verdicts without corruption.
        self._lock = threading.RLock()

    def bind_metrics(self, metrics: Optional[MetricsRegistry]) -> "FaultInjector":
        """Attach (or detach, with None) a shared metrics registry."""
        self.metrics = NULL_METRICS if metrics is None else metrics
        return self

    # ------------------------------------------------------------------
    # Outage control (chaos drills)
    # ------------------------------------------------------------------
    def force_outage(self, calls: int) -> None:
        """Make the next ``calls`` draws fail with transient I/O errors."""
        if calls < 0:
            raise ValueError("outage length must be non-negative")
        with self._lock:
            self._outage_remaining = calls

    def clear_outage(self) -> None:
        """End a forced outage immediately."""
        with self._lock:
            self._outage_remaining = 0

    @property
    def in_outage(self) -> bool:
        return self._outage_remaining > 0

    # ------------------------------------------------------------------
    # Crash points (crash-recovery drills)
    # ------------------------------------------------------------------
    def arm_crash(
        self,
        point: str,
        after: int = 0,
        torn_fraction: Optional[float] = None,
    ) -> None:
        """Arm ``point`` to fire a :class:`SimulatedCrash` on a future hit.

        ``after`` skips that many hits first (0 = the very next one), so a
        drill can seed the crash mid-sequence deterministically.  With a
        ``torn_fraction`` in (0, 1) the site is ordered to persist only
        that prefix of its frame before dying -- a torn write.  Each armed
        point fires exactly once, then disarms.
        """
        if after < 0:
            raise ValueError("after must be non-negative")
        if torn_fraction is not None and not 0.0 < torn_fraction < 1.0:
            raise ValueError("torn_fraction must be in (0, 1)")
        with self._lock:
            self._crashes[point] = [after, torn_fraction]

    def disarm_crashes(self) -> None:
        """Disarm every pending crash point."""
        with self._lock:
            self._crashes.clear()

    def crashpoint(self, point: str) -> Optional[CrashOrder]:
        """Consult the injector at a named crash point.

        Returns None (carry on) or a :class:`CrashOrder`.  Sites that
        support torn writes inspect ``torn_fraction``, persist the ordered
        prefix, then raise :class:`SimulatedCrash`; plain sites raise
        immediately.  :func:`crash_check` wraps the plain case.
        """
        with self._lock:
            armed = self._crashes.get(point)
            if armed is None:
                return None
            if armed[0] > 0:
                armed[0] -= 1
                return None
            del self._crashes[point]
            order = CrashOrder(point=point, torn_fraction=armed[1])
            self.crash_trace.append(order)
        return order

    def crash_check(self, point: str) -> None:
        """Raise :class:`SimulatedCrash` if ``point`` is armed and due."""
        if self.crashpoint(point) is not None:
            raise SimulatedCrash(point)

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def draw(self, op: str) -> Optional[str]:
        """Return the fault kind for the next call, or None (no fault)."""
        with self._lock:
            self.calls += 1
            if self._outage_remaining > 0:
                self._outage_remaining -= 1
                kind: Optional[str] = "transient_io"
            else:
                u = self._rng.random()
                kind = None
                acc = 0.0
                for candidate in FAULT_KINDS:
                    acc += getattr(self.profile, candidate)
                    if u < acc:
                        kind = candidate
                        break
            if kind is not None:
                self.trace.append(FaultEvent(self.calls, op, kind))
        if kind is not None:
            self.metrics.inc("faults_injected_total", kind=kind, op=op)
        return kind

    def pick_index(self, n: int) -> int:
        """Deterministically pick an index in ``[0, n)`` (fault targeting)."""
        with self._lock:
            return self._rng.randrange(n)

    def fault_counts(self) -> dict:
        """Injected-fault totals by kind (from the trace)."""
        counts = {kind: 0 for kind in FAULT_KINDS}
        for event in self.trace:
            counts[event.kind] += 1
        return counts


class FaultyDiskTable:
    """A :class:`DiskTable` wrapper that injects faults on the read path.

    Everything not overridden delegates to the wrapped table (metadata,
    persistence, updates, stats); ``range_query`` and ``full_scan`` consult
    the injector first.  The executor issues one ``range_query`` per
    decomposed MPR box, so every box is an independent fault opportunity,
    exactly like separate SQL range queries against a flaky disk.
    """

    def __init__(self, inner: DiskTable, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return (
            f"FaultyDiskTable({self.inner!r}, "
            f"profile={self.injector.profile.name!r})"
        )

    # ------------------------------------------------------------------
    # Faulted read path
    # ------------------------------------------------------------------
    def range_query(self, lo, hi) -> RangeResult:
        kind = self.injector.draw("range_query")
        if kind == "transient_io":
            raise TransientStorageError("injected transient I/O failure")
        result = self.inner.range_query(lo, hi)
        if kind == "latency":
            # The spike is charged to the table's aggregate stats *and* to
            # this call's io_ms, which is what the query is billed from.
            latency_ms = self.injector.profile.latency_ms
            self.inner.charge_io(latency_ms)
            result = replace(result, io_ms=result.io_ms + latency_ms)
        elif kind == "truncate" and len(result) > 0:
            # Short read: payload loses a suffix, header row count intact
            # (len(points) != len(rowids) is the detectable signature).
            keep = self.injector.pick_index(len(result))
            result = replace(result, points=result.points[:keep])
        elif kind == "corrupt" and len(result) > 0:
            points = result.points.copy()
            row = self.injector.pick_index(len(points))
            col = self.injector.pick_index(points.shape[1])
            points[row, col] = float("nan")
            result = replace(result, points=points)
        return result

    def full_scan(self) -> RangeResult:
        kind = self.injector.draw("full_scan")
        if kind == "transient_io":
            raise TransientStorageError("injected transient I/O failure")
        result = self.inner.full_scan()
        if kind == "latency":
            latency_ms = self.injector.profile.latency_ms
            self.inner.charge_io(latency_ms)
            result = replace(result, io_ms=result.io_ms + latency_ms)
        return result
