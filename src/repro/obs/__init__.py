"""Observability for the CBCS query engine: metrics and tracing.

The paper's evaluation attributes cost to stages — cache search, MPR/aMPR
decomposition, disk fetches, skyline computation.  This package makes that
evidence available live instead of only as per-query ``QueryOutcome``
snapshots: an :class:`Observability` object bundles a
:class:`~repro.obs.metrics.MetricsRegistry` (labeled counters, gauges,
histograms) with a :class:`~repro.obs.tracing.Tracer` (nested spans with
pluggable sinks), and is threaded through the engine, storage, skyline, and
benchmark layers.

Usage::

    from repro.obs import Observability
    from repro.obs.sinks import RingBufferSink

    obs = Observability()
    obs.tracer.add_sink(RingBufferSink())
    engine = CBCS(DiskTable(data, obs=obs), obs=obs)
    engine.query(constraints)
    print(obs.metrics.counter_total("points_read_total"))

Disabled mode: every instrumented component defaults to :data:`NULL_OBS`, a
shared no-op whose metrics and tracer absorb calls without allocating, so
the hot path is unaffected when observability is off.

For the benchmark harness there is also an *ambient* observability:
:func:`activate` installs an instance as the process-wide default that
:func:`current` (and therefore ``repro.bench.harness.make_methods`` /
``make_cbcs``) picks up, which is how ``python -m repro.bench --obs``
threads one registry through every experiment without changing their
signatures.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.correlate import (  # noqa: F401  (re-exported)
    QueryCorrelation,
    bind,
    current_query_id,
)
from repro.obs.metrics import (  # noqa: F401  (re-exported)
    NULL_METRICS,
    HistogramData,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.tracing import (  # noqa: F401  (re-exported)
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "HistogramData",
    "QueryCorrelation",
    "bind",
    "current_query_id",
    "current",
    "activate",
]


class Observability:
    """A metrics registry plus a tracer, threaded through the engine."""

    enabled = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.outcome_sinks: list = []
        #: Mints per-query correlation ids at the serving ingress; every
        #: span, outcome record and EXPLAIN record of one query carries the
        #: same id (see :mod:`repro.obs.correlate`).
        self.correlation = QueryCorrelation()
        #: Optional :class:`repro.obs.explain.ExplainRecorder`; when set,
        #: every :meth:`CBCS.query` emits one decision-provenance record
        #: (EXPLAIN ANALYZE) through it.
        self.explainer = None

    def add_outcome_sink(self, sink) -> "Observability":
        """Register a per-query structured-log sink.

        ``sink`` needs one method, ``emit(record)``; each finished query's
        :meth:`~repro.stats.QueryOutcome.as_record` dict is pushed to every
        registered sink from :meth:`record_outcome`.  A
        :class:`~repro.obs.sinks.JsonlSink` turns this into a
        ``queries.jsonl`` structured log.
        """
        self.outcome_sinks.append(sink)
        return self

    # ------------------------------------------------------------------
    # Query-outcome aggregation
    # ------------------------------------------------------------------
    def record_outcome(self, outcome) -> None:
        """Fold one finished query's evidence into the registry.

        Called by every query method (CBCS, Baseline, BBS) on each
        ``QueryOutcome``, so aggregate counters reconcile exactly with the
        summed per-query records: ``points_read_total{method=X}`` equals the
        sum of ``outcome.io.points_read`` over X's queries, and the
        ``stage_ms`` histograms accumulate the same floats stored in
        ``outcome.timings``.
        """
        m = self.metrics
        method = outcome.method
        m.inc("queries_total", method=method)
        if outcome.case is not None:
            m.inc("query_case_total", method=method, case=outcome.case)
        if outcome.stable is not None:
            m.inc(
                "query_stability_total",
                method=method,
                stable="stable" if outcome.stable else "unstable",
            )
        for fname, value in outcome.io.as_dict().items():
            if value:
                m.inc(f"{fname}_total", value, method=method)
        if outcome.degraded is not None:
            m.inc("degraded_queries_total", method=method, rung=outcome.degraded)
        if outcome.stale:
            m.inc("stale_serves_total", method=method)
        if outcome.retries:
            m.inc("query_retries_total", outcome.retries, method=method)
        t = outcome.timings
        m.observe("stage_ms", t.processing_ms, method=method, stage="processing")
        m.observe("stage_ms", t.fetch_io_ms, method=method, stage="fetch_io")
        m.observe("stage_ms", t.fetch_wall_ms, method=method, stage="fetch_wall")
        m.observe("stage_ms", t.skyline_ms, method=method, stage="skyline")
        # The query id rides as an exemplar (a concrete query to pull up in
        # the trace), never as a label: per-query labels would explode
        # series cardinality.
        m.observe(
            "query_wall_ms",
            t.wall_ms,
            exemplar=getattr(outcome, "query_id", None),
            method=method,
        )
        m.observe("skyline_size", outcome.skyline_size, method=method)
        if self.outcome_sinks:
            record = outcome.as_record()
            for sink in self.outcome_sinks:
                sink.emit(record)

    def close(self) -> None:
        """Flush/close the tracer's sinks and any outcome sinks."""
        self.tracer.close()
        for sink in self.outcome_sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __repr__(self) -> str:
        return f"Observability(metrics={self.metrics!r}, sinks={len(self.tracer.sinks)})"


class _NullObservability(Observability):
    """Disabled observability: shared no-op metrics and tracer."""

    enabled = False

    def __init__(self):
        super().__init__(metrics=NULL_METRICS, tracer=NULL_TRACER)

    def record_outcome(self, outcome) -> None:
        pass

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NULL_OBS"


#: The shared disabled instance every instrumented component defaults to.
NULL_OBS = _NullObservability()

_ambient: Observability = NULL_OBS


def current() -> Observability:
    """The ambient observability (``NULL_OBS`` unless one is activated)."""
    return _ambient


@contextmanager
def activate(obs: Observability) -> Iterator[Observability]:
    """Install ``obs`` as the ambient observability for the ``with`` body."""
    global _ambient
    previous = _ambient
    _ambient = obs
    try:
        yield obs
    finally:
        _ambient = previous
