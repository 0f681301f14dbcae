"""Overload-safe concurrent serving for the CBCS engine.

:class:`QueryService` accepts Sky(S, C') requests from many clients at
once and answers them against **one shared engine** -- one skyline cache,
one storage backend, one set of metrics.  Requests pass through a bounded
*priority ingress queue* with explicit backpressure, *admission control*
that sheds load by priority class as the queue fills, *in-flight
deduplication* and *subsumption coalescing* (identical or pure-shrink
regions share one execution, answered via the paper's case analysis), and
optional *per-request deadlines* that propagate into the engine's
retry/degradation machinery.  Every submitted request terminates
explicitly: answered, a typed :class:`RequestRejected`, or a reported
error -- never a silent drop, never an unbounded wait.

The package splits by stage:

- :mod:`repro.service.queue` -- the bounded priority ingress queue;
- :mod:`repro.service.admission` -- the depth shedding rule;
- :mod:`repro.service.coalesce` -- the in-flight table and the exactness
  condition for piggybacking (generalized Theorem 3);
- :mod:`repro.service.service` -- the :class:`QueryService` orchestrating
  them.

Thread-safety contract: the engine's shared state is individually locked
(cache items and bounds table, table stats, fault injector, breaker;
each query has its own retry state), so concurrent queries are safe and every *answer* is correct.
Per-query I/O (``QueryOutcome.io``) is the sum of the query's own range-read
charges, so concurrent workers never bill each other.

Observability: :meth:`QueryService.stats` snapshots queue depth, in-flight
and executing counts and the typed-outcome counters (sheds per priority
class included).  When the engine's observability is enabled, every
request -- including shed and coalesced ones -- is assigned a ``query_id``
at ingress, and coalesced outcomes name their executing query in
``served_by``.

Example::

    with QueryService(engine, workers=4, capacity=256) as svc:
        future = svc.submit(c, priority="interactive", deadline_ms=250.0)
        outcomes = [f.result() for f in [svc.submit(q) for q in queries]]
        print(svc.stats()["shed_by_class"])
"""

from repro.service.admission import SHED_FRACTIONS, shed_reason
from repro.service.coalesce import (
    KIND_DEDUP,
    KIND_SUBSUMED,
    InFlightTable,
    can_coalesce,
)
from repro.service.queue import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    IngressQueue,
    QueueStats,
)
from repro.service.service import (
    STATUS_ANSWERED,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_REJECTED_QUEUE_FULL,
    STATUS_SHED,
    QueryService,
    RequestRejected,
)

__all__ = [
    "QueryService",
    "RequestRejected",
    "SHED_FRACTIONS",
    "shed_reason",
    "IngressQueue",
    "QueueStats",
    "InFlightTable",
    "can_coalesce",
    "PRIORITIES",
    "DEFAULT_PRIORITY",
    "KIND_DEDUP",
    "KIND_SUBSUMED",
    "STATUS_ANSWERED",
    "STATUS_REJECTED_QUEUE_FULL",
    "STATUS_SHED",
    "STATUS_DEADLINE_EXCEEDED",
]
