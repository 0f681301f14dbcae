"""Per-query statistics shared by every query method.

The paper's evaluation reports, besides end-to-end running time, a
per-stage breakdown (Figure 10: processing / fetching / skyline
computation), points read from disk (Figure 8), and range queries generated
versus range queries that actually read data (Figure 9).  Every method in
this library -- Baseline, BBS and CBCS -- returns a :class:`QueryOutcome`
carrying exactly those quantities so the benchmark harness can regenerate
each figure from a uniform record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from repro.obs.tracing import NULL_TRACER, Tracer
from repro.storage.pager import IOStats


@dataclass
class StageTimings:
    """Wall-clock and simulated-latency breakdown of one query.

    - ``processing_ms``: main-memory selection/decomposition of range
      queries (cache search, MPR computation) -- Figure 10's first stage;
    - ``fetch_io_ms``: the one simulated number -- the disk latency the
      query's range queries (or scan) were charged by the cost model,
      ``outcome.io.simulated_io_ms``.  The three others are measured;
    - ``fetch_wall_ms``: CPU time spent executing the fetches in-process;
    - ``skyline_ms``: the skyline-algorithm stage.

    The two clocks are never added: :attr:`wall_ms` is the measured CPU
    wall (the three measured stages), ``fetch_io_ms`` the simulated disk.
    ``io_ms_total`` is a read-only alias of ``fetch_io_ms`` (not a field, so
    not in :meth:`as_dict`), kept for the repository benchmark, which reads
    it (``perfbench/measure.py``).
    """

    processing_ms: float = 0.0
    fetch_io_ms: float = 0.0
    fetch_wall_ms: float = 0.0
    skyline_ms: float = 0.0

    @property
    def io_ms_total(self) -> float:
        return self.fetch_io_ms

    @property
    def wall_ms(self) -> float:
        """Measured in-process wall time of the query, all stages."""
        return self.processing_ms + self.fetch_wall_ms + self.skyline_ms

    def as_dict(self) -> dict:
        """Per-stage milliseconds keyed by field name (JSON-serializable)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class QueryOutcome:
    """Everything one query produced: the skyline and the cost evidence."""

    skyline: np.ndarray
    method: str
    timings: StageTimings = field(default_factory=StageTimings)
    io: IOStats = field(default_factory=IOStats)
    case: Optional[str] = None  # CBCS overlap case label, None otherwise
    stable: Optional[bool] = None  # CBCS stability of the used cache item
    cache_hit: bool = False
    nodes_accessed: int = 0  # BBS R-tree node reads
    #: what served this answer when the query pass failed (None = the
    #: pass itself; "stale"/"unavailable" are best-effort answers from the
    #: cache -- see docs/robustness.md)
    degraded: Optional[str] = None
    #: True iff the skyline may not reflect current data (a stale serve);
    #: a stale answer is always also flagged ``degraded``
    stale: bool = False
    #: storage retries consumed while answering (0 on a clean path)
    retries: int = 0
    #: correlation id minted at the serving ingress (None when observability
    #: is disabled); the same id is stamped on every trace span and metric
    #: exemplar of this query -- see :mod:`repro.obs.correlate`
    query_id: Optional[str] = None
    #: for a deduplicated/coalesced request: the ``query_id`` of the
    #: in-flight query whose execution answered this one (the piggybacked
    #: request keeps its *own* ``query_id``; correlation joins follow this
    #: field to the executing query's spans).  None for directly executed
    #: queries.
    served_by: Optional[str] = None

    @property
    def skyline_size(self) -> int:
        return len(self.skyline)

    @property
    def points_read(self) -> int:
        return self.io.points_read

    @property
    def range_queries(self) -> int:
        return self.io.range_queries

    @property
    def nonempty_queries(self) -> int:
        return self.io.range_queries - self.io.empty_queries

    def as_record(self) -> dict:
        """One flat, JSON-serializable record of this query's evidence.

        This is the per-query structured-log schema: everything except the
        skyline points themselves (only their count), suitable for a JSONL
        sink (``repro.obs.Observability.add_outcome_sink``) or any log
        aggregator.
        """
        return {
            "query_id": self.query_id,
            "method": self.method,
            "case": self.case,
            "stable": self.stable,
            "cache_hit": self.cache_hit,
            "skyline_size": self.skyline_size,
            "timings": self.timings.as_dict(),
            "io": self.io.as_dict(),
            "nodes_accessed": self.nodes_accessed,
            "degraded": self.degraded,
            "stale": self.stale,
            "retries": self.retries,
            "served_by": self.served_by,
        }


#: Valid Stopwatch stage names: the *measured* ``*_ms`` fields of
#: :class:`StageTimings`.  ``fetch_io`` is not one of them: it is the
#: simulated disk latency, set from the query's I/O counters, and a stage of
#: that name would add wall-clock time into it.  Read-only properties such
#: as ``wall_ms`` are not fields, so they are not stages either.
STAGE_NAMES = frozenset(("processing", "fetch_wall", "skyline"))


class _Stage:
    """One named stage of one :class:`Stopwatch`: the context manager
    ``Stopwatch.stage(name)`` returns, made once per name and reused.

    Nested stages of different names are different objects, each with its
    own ``start``; a stage entered again (after a normal exit or a raise)
    restarts its clock and adds to the same field.
    """

    __slots__ = ("timings", "attr", "span", "record", "start")

    def __init__(self, watch: "Stopwatch", name: str) -> None:
        self.timings = watch.timings
        self.attr = f"{name}_ms"
        self.span = f"stage.{name}"
        tracer = watch.tracer
        #: the tracer's ``record``, or None when tracing is off
        self.record = tracer.record if tracer.enabled else None
        self.start = 0.0

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed_ms = (time.perf_counter() - self.start) * 1000.0
        timings, attr = self.timings, self.attr
        setattr(timings, attr, getattr(timings, attr) + elapsed_ms)
        if self.record is not None:
            self.record(self.span, elapsed_ms)
        return False


class Stopwatch:
    """Accumulates wall-clock milliseconds into named stages.

    A thin adapter over :class:`repro.obs.tracing.Tracer`: each completed
    stage is also recorded as a ``stage.<name>`` span carrying *the same*
    measured duration (one clock reading feeds both ``StageTimings`` and the
    trace, so the two timing paths cannot drift).  With the default
    :data:`~repro.obs.tracing.NULL_TRACER` nothing is recorded.
    """

    __slots__ = ("timings", "tracer", "_stages")

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.timings = StageTimings()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._stages: dict = {}

    def stage(self, name: str) -> _Stage:
        """Time a ``with`` block and add it to ``timings.<name>_ms``."""
        stage = self._stages.get(name)
        if stage is None:
            if name not in STAGE_NAMES:
                raise ValueError(
                    f"unknown stage {name!r}; expected one of {sorted(STAGE_NAMES)}"
                )
            stage = self._stages[name] = _Stage(self, name)
        return stage
