"""Query correlation: one ``query_id`` joining every signal of one query.

The serving path spreads a single Sky(S, C') request over several layers
(``QueryService`` -> ``CBCS`` -> ``Planner`` -> ``Executor`` ->
``StorageBackend``) and several observability channels (trace spans, metric
exemplars, the ``--query-log`` JSONL records, EXPLAIN records).  This module gives all of them one join key:

- :class:`QueryCorrelation` mints process-unique ids (``q00000001``, ...)
  at the ingress (``QueryService.submit`` or ``CBCS.query``);
- :func:`bind` installs the id in a :mod:`contextvars` context variable for
  the duration of the query, and :func:`current_query_id` reads it from
  anywhere on the call path -- the tracer stamps it onto every span;
  ``CBCS`` stamps it onto the outcome, and the EXPLAIN record copies it
  from there.  A plan carries no id.

Joining an ``--obs`` directory's artifacts is a filter on that key: the
spans of query ``q`` are the ``trace.jsonl`` lines whose
``attrs.query_id == q``.  A coalesced request names its executing query in
its outcome record's ``served_by``.

Ids travel *by context*, never as metric labels -- a per-query label would
explode series cardinality.  Histograms instead keep the last-observed id
as an exemplar (:class:`repro.obs.metrics.HistogramData`).
"""

from __future__ import annotations

import contextvars
import itertools
from typing import Optional

__all__ = ["QueryCorrelation", "bind", "current_query_id"]

#: The ambient query id of the call path.  A context variable (not a plain
#: thread-local) so a future asyncio front end inherits it for free.
_QUERY_ID: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_query_id", default=None
)


def current_query_id() -> Optional[str]:
    """The query id bound to the current call path, or None."""
    return _QUERY_ID.get()


class bind:
    """Install ``query_id`` as the ambient id for the ``with`` body.

    Binding None is a no-op (the previous binding, if any, stays visible),
    so callers can pass an optional id through without branching.  A class
    rather than a generator context manager: every query enters one.
    """

    __slots__ = ("query_id", "_token")

    def __init__(self, query_id: Optional[str]) -> None:
        self.query_id = query_id
        self._token = None

    def __enter__(self) -> Optional[str]:
        if self.query_id is not None:
            self._token = _QUERY_ID.set(self.query_id)
        return self.query_id

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _QUERY_ID.reset(self._token)
            self._token = None
        return False


class QueryCorrelation:
    """Mints process-unique query ids at the serving ingress.

    One instance lives on each :class:`~repro.obs.Observability`; ids are
    ``<prefix><8-digit counter>`` so they sort in admission order and stay
    greppable in JSONL artifacts.  Thread-safe: the counter is an
    :func:`itertools.count`, whose ``next`` is atomic under CPython.
    """

    __slots__ = ("prefix", "_counter")

    def __init__(self, prefix: str = "q"):
        self.prefix = prefix
        self._counter = itertools.count(1)

    def new_id(self) -> str:
        """A fresh query id (monotone within this correlation instance)."""
        return f"{self.prefix}{next(self._counter):08d}"

    def __repr__(self) -> str:
        return f"QueryCorrelation(prefix={self.prefix!r})"

