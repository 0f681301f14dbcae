"""Nested span tracing for the CBCS query path.

A :class:`Tracer` produces :class:`Span` records — named, wall-clock-timed,
attribute-carrying, and nested (each span knows its parent and depth).  The
engine opens spans for the stages the paper's evaluation attributes cost to:
cache search, strategy selection, case dispatch, MPR splitting, every range
query, and the skyline merge.  Finished spans are pushed to pluggable sinks
(:mod:`repro.obs.sinks`): an in-memory ring buffer or a ``trace.jsonl``
file.

Two entry points exist on purpose:

- :meth:`Tracer.span` — a context manager that times the enclosed block
  itself;
- :meth:`Tracer.record` — attach an *externally measured* duration as a
  completed child span.  :class:`repro.stats.Stopwatch` uses this so the
  milliseconds in ``StageTimings`` and the milliseconds in the trace are
  the *same float*, not two clock readings that could drift.

:class:`NullTracer` is the disabled twin: ``span()`` hands back one shared
no-op span object (no allocation, no clock read), ``record()`` returns
immediately.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional

from repro.obs.correlate import current_query_id


class Span:
    """One timed, named node of a trace tree."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "start_ms",
        "duration_ms",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        depth: int,
        start_ms: float,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start_ms = start_ms
        self.duration_ms = 0.0
        self.attrs: Dict[str, object] = attrs or {}

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span (merged into ``attrs``)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_ms": round(self.start_ms, 6),
            "duration_ms": round(self.duration_ms, 6),
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, depth={self.depth}, "
            f"{self.duration_ms:.3f}ms)"
        )


class _ActiveSpan:
    """Context manager binding one open :class:`Span` to its tracer."""

    __slots__ = ("_tracer", "span", "_t0")

    def __init__(self, tracer: "Tracer", span: Span, t0: float):
        self._tracer = tracer
        self.span = span
        self._t0 = t0

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.duration_ms = (time.perf_counter() - self._t0) * 1000.0
        self._tracer._finish(self.span)
        return False


class Tracer:
    """Builds nested spans and emits them (on close) to every sink."""

    enabled = True

    def __init__(self, sinks=()):
        self.sinks = list(sinks)
        # The open-span stack is thread-local: each executor/service worker
        # builds its own span tree (worker spans are roots in their thread)
        # instead of racing on one shared stack and mis-parenting spans.
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._emit_lock = threading.Lock()
        self._epoch = time.perf_counter()

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add_sink(self, sink) -> "Tracer":
        self.sinks.append(sink)
        return self

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a self-timing span; use as ``with tracer.span(...) as s:``.

        Spans opened inside a :func:`repro.obs.correlate.bind` context are
        stamped with the bound ``query_id``, so every span of one query is
        joinable across threads (worker-thread spans are roots in their
        thread, but they carry the same id).
        """
        t0 = time.perf_counter()
        query_id = current_query_id()
        if query_id is not None:
            attrs["query_id"] = query_id
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            depth=len(self._stack),
            start_ms=(t0 - self._epoch) * 1000.0,
            attrs=attrs or None,
        )
        self._stack.append(span)
        return _ActiveSpan(self, span, t0)

    def record(self, name: str, duration_ms: float, **attrs) -> Span:
        """Attach an externally timed, already-finished span as a child of
        the current span.  The given duration is stored verbatim."""
        now_ms = (time.perf_counter() - self._epoch) * 1000.0
        query_id = current_query_id()
        if query_id is not None:
            attrs["query_id"] = query_id
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            depth=len(self._stack),
            start_ms=now_ms - duration_ms,
            attrs=attrs or None,
        )
        span.duration_ms = duration_ms
        self._emit(span)
        return span

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _finish(self, span: Span) -> None:
        # Tolerate out-of-order exits (e.g. a sibling leaked by an
        # exception): pop back to and including this span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._emit(span)

    def _emit(self, span: Span) -> None:
        if not self.sinks:
            return
        record = span.to_dict()
        with self._emit_lock:
            for sink in self.sinks:
                sink.emit(record)

    def close(self) -> None:
        """Close every sink that supports closing (e.g. JSONL files)."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


class _NullSpan:
    """Shared do-nothing span: its own context manager, reusable forever."""

    __slots__ = ()

    name = "null"
    span_id = 0
    parent_id = None
    depth = 0
    start_ms = 0.0
    duration_ms = 0.0
    attrs: Dict[str, object] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """No-op tracer: no clock reads, no allocations, no sink traffic."""

    enabled = False

    def __init__(self):
        super().__init__()

    def span(self, name: str, **attrs) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def record(self, name: str, duration_ms: float, **attrs) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN


#: Shared no-op tracer used wherever observability is disabled.
NULL_TRACER = NullTracer()
