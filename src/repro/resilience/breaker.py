"""A circuit breaker for the simulated disk path.

States follow the classic ladder: **closed** (normal; consecutive
operation failures are counted) -> **open** (every call rejected without
touching storage) -> **half-open** (a limited number of probe calls are let
through) -> closed again on enough probe successes, or back to open on a
probe failure.

Because the whole engine runs on simulated time, the open-state cooldown is
measured in *rejected calls* rather than wall-clock seconds: after
``cooldown_calls`` rejections the breaker moves to half-open.  This keeps
breaker behaviour bit-deterministic for a given workload, which the chaos
soak's replay checks rely on.

Every transition is mirrored into the bound metrics registry as a
``breaker_transitions_total{breaker=...,from_state=...,to_state=...}``
counter plus a ``breaker_state`` gauge (0 closed, 1 half-open, 2 open), so
open/half-open/closed flips are observable in ``--obs`` exports.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.resilience.errors import CircuitOpenError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding of each state.
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


@dataclass(frozen=True)
class Transition:
    """One recorded state change (after how many protected calls)."""

    calls: int
    from_state: str
    to_state: str


class CircuitBreaker:
    """Count-based circuit breaker guarding one downstream dependency.

    ``failure_threshold`` consecutive *operation* failures (an operation is
    one retried unit of work, not one attempt) open the circuit;
    ``cooldown_calls`` rejections later it half-opens and admits probes;
    ``probe_successes`` consecutive good probes close it again.
    """

    def __init__(
        self,
        name: str = "disk",
        failure_threshold: int = 5,
        cooldown_calls: int = 10,
        probe_successes: int = 2,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_calls < 1:
            raise ValueError("cooldown_calls must be at least 1")
        if probe_successes < 1:
            raise ValueError("probe_successes must be at least 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_calls = cooldown_calls
        self.probe_successes = probe_successes
        self.state = CLOSED
        self.calls = 0
        self.transitions: List[Transition] = []
        self._consecutive_failures = 0
        self._rejected_in_open = 0
        self._probe_streak = 0
        # allow()/record_*() interleave from concurrent queries;
        # reentrant so _transition's metric mirroring nests safely.
        self._lock = threading.RLock()
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.metrics.set_gauge("breaker_state", STATE_CODES[self.state], breaker=name)

    def bind_metrics(self, metrics: Optional[MetricsRegistry]) -> "CircuitBreaker":
        """Attach (or detach, with None) a shared metrics registry."""
        self.metrics = NULL_METRICS if metrics is None else metrics
        self.metrics.set_gauge(
            "breaker_state", STATE_CODES[self.state], breaker=self.name
        )
        return self

    # ------------------------------------------------------------------
    # Protocol: allow() before the operation, then record_*() once.
    # ------------------------------------------------------------------
    def allow(self) -> None:
        """Admit or reject the next operation; raises :class:`CircuitOpenError`
        when the circuit is open (counting the rejection toward cooldown)."""
        with self._lock:
            self.calls += 1
            if self.state == OPEN:
                self._rejected_in_open += 1
                if self._rejected_in_open >= self.cooldown_calls:
                    self._transition(HALF_OPEN)
                    return  # this call becomes the first probe
                raise CircuitOpenError(
                    f"breaker {self.name!r} is open "
                    f"({self._rejected_in_open}/{self.cooldown_calls} "
                    f"cooldown calls)"
                )

    def record_success(self) -> None:
        """Report that the admitted operation succeeded."""
        with self._lock:
            if self.state == HALF_OPEN:
                self._probe_streak += 1
                if self._probe_streak >= self.probe_successes:
                    self._transition(CLOSED)
            else:
                self._consecutive_failures = 0

    def record_failure(self) -> None:
        """Report that the admitted operation failed (retries included)."""
        with self._lock:
            if self.state == HALF_OPEN:
                self._transition(OPEN)
                return
            self._consecutive_failures += 1
            if (
                self.state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(OPEN)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _transition(self, new_state: str) -> None:
        old = self.state
        self.state = new_state
        self.transitions.append(Transition(self.calls, old, new_state))
        if new_state == OPEN:
            self._rejected_in_open = 0
            self._probe_streak = 0
        elif new_state == HALF_OPEN:
            self._probe_streak = 0
        else:  # CLOSED
            self._consecutive_failures = 0
        self.metrics.inc(
            "breaker_transitions_total",
            breaker=self.name,
            from_state=old,
            to_state=new_state,
        )
        self.metrics.set_gauge(
            "breaker_state", STATE_CODES[new_state], breaker=self.name
        )

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state!r}, "
            f"failures={self._consecutive_failures})"
        )
