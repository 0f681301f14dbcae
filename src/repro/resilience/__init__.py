"""Fault tolerance for the CBCS engine: retries, circuit breaking,
degradation, and cache self-healing.

A semantic cache fails differently from a page cache: a corrupt cached
skyline silently breaks *every* overlapping query that prunes with it, not
just the query that stored it.  This package therefore combines four
defences, wired into :class:`repro.core.cbcs.CBCS` via the ``resilience``
parameter:

- :class:`~repro.resilience.retry.RetryPolicy` -- capped exponential
  backoff with deterministic jitter, bounded by attempts (time is bounded
  by the per-request :class:`~repro.resilience.deadline.Deadline`);
- :class:`~repro.resilience.breaker.CircuitBreaker` -- guards the disk
  path; state transitions are mirrored into the metrics registry;
- result validation (:func:`~repro.resilience.validate.validate_range_result`)
  -- turns silent short reads and NaN corruption into retryable errors;
  :meth:`Resilience.read` is the one guarded read that combines these
  three around a table's ``range_query``;
- the CBCS cache fallback -- a query runs its configured plan once; on
  exhausted retries or an open breaker it serves the best-overlap cached
  skyline flagged ``stale=True`` (or an empty ``unavailable`` answer);
  never an unhandled exception, never an unflagged wrong answer.

The cache side of self-healing lives in
:meth:`repro.core.cache.SkylineCache.verify_item` /
:meth:`~repro.core.cache.SkylineCache.quarantine`.

Usage::

    from repro.resilience import Resilience
    engine = CBCS(FaultyDiskTable(table, injector), resilience=Resilience())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import Deadline
from repro.resilience.errors import (  # noqa: F401  (re-exported)
    DEGRADABLE,
    RETRYABLE,
    CircuitOpenError,
    CorruptResultError,
    DeadlineExceeded,
    RetriesExhausted,
)
from repro.resilience.retry import RetryPolicy, RetryState, call_with_retry
from repro.resilience.validate import validate_range_result

__all__ = [
    "Resilience",
    "RetryPolicy",
    "RetryState",
    "call_with_retry",
    "CircuitBreaker",
    "CircuitOpenError",
    "CorruptResultError",
    "Deadline",
    "DeadlineExceeded",
    "RetriesExhausted",
    "RETRYABLE",
    "DEGRADABLE",
    "validate_range_result",
]


@dataclass
class Resilience:
    """Bundle of fault-tolerance collaborators for one CBCS engine.

    An engine with resilience also self-heals its cache: items are
    invariant-checked before CBCS prunes with them and after any insert on
    a path that saw faults, with violators quarantined.
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    #: registry :meth:`read` reports retries to (set by :meth:`bind_metrics`)
    metrics: Optional[MetricsRegistry] = field(default=None, init=False, repr=False)

    def bind_metrics(self, metrics) -> "Resilience":
        """Report breaker transitions and read retries into ``metrics``."""
        self.breaker.bind_metrics(metrics)
        self.metrics = metrics
        return self

    def new_state(self, deadline=None) -> RetryState:
        """A fresh per-query retry count, optionally bound to a
        per-request :class:`~repro.resilience.deadline.Deadline`."""
        return RetryState(self.policy, deadline=deadline)

    def read(self, table, lo, hi, state: RetryState):
        """One guarded ``table.range_query(lo, hi)``: validated, retried
        under ``state``'s policy, behind the circuit breaker.

        The breaker admits the read before any storage (or fault-injector)
        activity and records one success or failure for the whole retried
        unit; truncated or corrupt results are retryable errors.  The
        simulated I/O of the read charges the request's deadline.
        """
        # An already-expired per-request deadline fails fast without
        # touching the disk or charging the breaker: rejected work is not
        # evidence of storage health either way.
        if state.deadline is not None:
            state.deadline.check("fetch")
        self.breaker.allow()  # raises CircuitOpenError while open

        def attempt():
            result = table.range_query(lo, hi)
            validate_range_result(result)
            return result

        try:
            result = call_with_retry(attempt, state, metrics=self.metrics, op="fetch")
        except Exception:
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        if state.deadline is not None:
            # Simulated disk time counts against the request budget just
            # like real wall-clock time; expiry surfaces at the next box.
            state.deadline.charge(result.io_ms)
        return result


def resolve_resilience(resilience) -> Optional[Resilience]:
    """Normalize a CBCS ``resilience`` argument: None/False -> disabled,
    True -> defaults, a :class:`Resilience` -> itself."""
    if resilience is None or resilience is False:
        return None
    if resilience is True:
        return Resilience()
    if isinstance(resilience, Resilience):
        return resilience
    raise TypeError(
        f"resilience must be None, bool, or Resilience, got {type(resilience)!r}"
    )
