"""The formal storage-backend protocol and its stacking decorators.

The CBCS engine does all of its I/O through :class:`StorageBackend`, a
structural protocol satisfied by :class:`~repro.storage.table.DiskTable`,
:class:`~repro.storage.sharding.ShardedTable`,
:class:`~repro.storage.faults.FaultyDiskTable`, and the decorators below.
Cross-cutting storage concerns -- fault tolerance, instrumentation -- are
composed by *wrapping* rather than branching inside the engine:

    DiskTable | ShardedTable       the simulated disk (or a fleet of them)
    -> FaultyDiskTable             (optional) deterministic fault injection
    -> ResilientBackend            (optional) validation + retry + breaker
    -> InstrumentedBackend         (optional) spans + counters per call
    -> CBCS / Executor             issues plain ``range_query(box)`` calls

Order matters: faults are injected *below* the resilience decorator (so
retries re-draw the fault schedule, like re-issuing a real SQL query), and
instrumentation sits *outside* resilience (so a retried call shows up as
one logical backend operation).  :meth:`repro.core.cbcs.CBCS.__init__`
builds exactly this stack from its ``resilience``/``obs`` flags.

``range_query`` is the protocol's only read entry point.  Gathering a
plan's boxes into one result is :meth:`repro.core.executor.Executor.fetch`'s
job and nobody else's, so a layer added to the stack wraps one method.

``retry_state`` threading: the executor passes the query's shared
:class:`~repro.resilience.retry.RetryState` as a keyword argument;
:class:`ResilientBackend` consumes it (per-box retry against one per-query
budget) and the layers below it never see the kwarg.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.geometry.box import Box
from repro.obs import NULL_OBS
from repro.resilience.retry import RetryState
from repro.resilience.validate import validate_range_result
from repro.storage.costmodel import DiskCostModel
from repro.storage.pager import IOStats
from repro.storage.table import Forecast, RangeResult


@runtime_checkable
class StorageBackend(Protocol):
    """What the engine calls on its table.

    Structural: anything with these members qualifies -- ``DiskTable``,
    ``ShardedTable``, ``FaultyDiskTable`` and the decorators in this module
    all do (the wrappers by delegation).  The executor issues
    ``range_query``; the planner prices boxes with ``forecast`` while
    planning, so it must be free of (simulated) disk I/O; ``stats`` is the
    table's running total (a query is billed from the charges stamped on its
    own range results, not from a window on it); ``CBCS`` hands its
    observability down through ``obs`` / ``bind_obs``, and the EXPLAIN
    record turns forecast seeks and pages into latency with ``cost_model``.
    """

    @property
    def ndim(self) -> int: ...

    @property
    def stats(self) -> IOStats: ...

    @property
    def cost_model(self) -> DiskCostModel: ...

    @property
    def obs(self): ...

    def bind_obs(self, obs): ...

    def range_query(self, box: Box) -> RangeResult: ...

    def forecast(self, lo, hi) -> Forecast: ...


def unwrap(backend) -> object:
    """Peel every decorator off a backend stack, returning the base table."""
    while hasattr(backend, "inner"):
        backend = backend.inner
    return backend


class BackendDecorator:
    """Base class for stacking backends: delegate everything to ``inner``."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"


class ResilientBackend(BackendDecorator):
    """Validation + retry + circuit breaker around every backend call.

    Each ``range_query`` is one protected operation: the breaker admits it
    *before* any storage (or fault-injector) activity, the result is
    validated (truncation/corruption become retryable errors), retries
    re-issue the call against the shared per-query budget, and the breaker
    records one success/failure for the whole retried unit.
    """

    def __init__(self, inner, resilience, metrics=None):
        super().__init__(inner)
        self.resilience = resilience
        self.metrics = metrics

    def _guarded(self, fn, retry_state: Optional[RetryState], op: str):
        from repro.resilience.retry import call_with_retry

        res = self.resilience
        state = retry_state if retry_state is not None else res.new_state()
        # An already-expired per-request deadline fails fast without
        # touching the disk or charging the breaker: rejected work is not
        # evidence of storage health either way.
        if state.deadline is not None:
            state.deadline.check(op)
        res.breaker.allow()  # raises CircuitOpenError while open

        def attempt():
            result = fn()
            validate_range_result(result)
            return result

        try:
            result = call_with_retry(attempt, state, metrics=self.metrics, op=op)
        except Exception:
            res.breaker.record_failure()
            raise
        res.breaker.record_success()
        if state.deadline is not None:
            # Simulated disk time counts against the request budget just
            # like real wall-clock time; expiry surfaces at the next box.
            state.deadline.charge(result.io_ms)
        return result

    def range_query(
        self, box: Box, *, retry_state: Optional[RetryState] = None
    ) -> RangeResult:
        return self._guarded(
            lambda: self.inner.range_query(box), retry_state, "fetch"
        )


class InstrumentedBackend(BackendDecorator):
    """Per-call observability on top of any backend.

    Adds a ``backend.range_query`` counter (labeled by the logical outcome)
    and forwards ``retry_state`` only when set, so a resilience-free stack
    underneath never sees the kwarg.
    """

    def __init__(self, inner, obs=None):
        super().__init__(inner)
        self.obs = NULL_OBS if obs is None else obs

    def range_query(
        self, box: Box, *, retry_state: Optional[RetryState] = None
    ) -> RangeResult:
        m = self.obs.metrics
        try:
            if retry_state is not None:
                result = self.inner.range_query(box, retry_state=retry_state)
            else:
                result = self.inner.range_query(box)
        except Exception as exc:
            m.inc("backend_range_queries_total", outcome=type(exc).__name__)
            # Zero-duration event span: joins the failure to the query via
            # the bound query_id (stamped by the tracer) for correlation.
            self.obs.tracer.record("backend.error", 0.0, error=type(exc).__name__)
            raise
        m.inc("backend_range_queries_total", outcome="ok")
        return result


def build_backend(table, resilience=None, obs=None):
    """Compose the canonical decorator stack over a base table.

    ``table`` may already be fault-wrapped; ``resilience`` (a
    :class:`repro.resilience.Resilience` or None) adds the resilient layer,
    and an enabled ``obs`` adds instrumentation outermost.
    """
    backend = table
    if resilience is not None:
        metrics = obs.metrics if obs is not None and obs.enabled else None
        backend = ResilientBackend(backend, resilience, metrics=metrics)
    if obs is not None and obs.enabled:
        backend = InstrumentedBackend(backend, obs)
    return backend
