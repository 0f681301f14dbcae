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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

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
    #: degradation-ladder rung that produced this answer (None = normal
    #: path; "ampr" and "bounding" are still exact, "stale"/"unavailable"
    #: are best-effort -- see docs/robustness.md)
    degraded: Optional[str] = None
    #: True iff the skyline may not reflect current data (stale-serve rung);
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


#: Valid Stopwatch stage names: exactly the ``*_ms``-suffixed *fields* of
#: :class:`StageTimings`.  Derived explicitly from ``dataclasses.fields`` so
#: read-only properties such as ``wall_ms`` (which a plain ``hasattr`` check
#: would accept) are rejected.
STAGE_NAMES = frozenset(
    f.name[: -len("_ms")]
    for f in fields(StageTimings)
    if f.name.endswith("_ms")
)


class Stopwatch:
    """Accumulates wall-clock milliseconds into named stages.

    A thin adapter over :class:`repro.obs.tracing.Tracer`: each completed
    stage is also recorded as a ``stage.<name>`` span carrying *the same*
    measured duration (one clock reading feeds both ``StageTimings`` and the
    trace, so the two timing paths cannot drift).  With the default
    :data:`~repro.obs.tracing.NULL_TRACER` the span recording is a no-op.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.timings = StageTimings()
        self.tracer = NULL_TRACER if tracer is None else tracer

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a block and add it to ``timings.<name>_ms``."""
        if name not in STAGE_NAMES:
            raise ValueError(
                f"unknown stage {name!r}; expected one of {sorted(STAGE_NAMES)}"
            )
        attr = f"{name}_ms"
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            setattr(self.timings, attr, getattr(self.timings, attr) + elapsed_ms)
            self.tracer.record(f"stage.{name}", elapsed_ms)
