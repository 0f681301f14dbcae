"""The execution layer: runs a plan's range queries against a backend.

The :class:`Executor` is the only component that talks to the
:class:`~repro.storage.backend.StorageBackend` during a query, and
:meth:`Executor.fetch` is the only place per-box results are gathered: it
takes the planner's disjoint boxes and issues one ``range_query`` per box,
in plan order, on the calling thread.  There is no other fetch path
(DESIGN.md section 5, item 16): the disk is a cost model behind one lock,
so threads here could only ever improve a simulated number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.table import RangeResult, concat_results


@dataclass(frozen=True)
class FetchOutcome:
    """One fetch stage's merged result plus its per-box parts.

    ``parts`` keeps the per-box :class:`RangeResult` records in plan order
    (one per box fetched): each carries the I/O that call charged, so the
    engine bills the query -- and the explain layer joins each planned
    box's predicted cost -- from them.  The tuple aliases the same arrays
    the merged ``result`` concatenates -- no copies.
    """

    result: RangeResult
    parts: tuple


class Executor:
    """Runs a plan's range queries against a storage backend.

    Stateless.  It stays an object with :meth:`fetch` and a no-op
    :meth:`close` because the repository benchmark (``perfbench/``, which
    a change under ``src/`` may not edit) wraps ``engine.executor.fetch``
    and calls ``engine.executor.close()``.
    """

    def fetch(self, backend, boxes, retry_state=None) -> FetchOutcome:
        """Fetch every box in plan order and merge the results.

        The first box that raises (a fault-injected error,
        ``RetriesExhausted``, ``CircuitOpenError``) ends the fetch: the
        boxes after it are never issued, so they charge nothing.
        ``retry_state`` (when resilience is on) is forwarded to the
        backend, whose resilient decorator retries each box against the
        shared per-query budget.
        """
        kwargs = {} if retry_state is None else {"retry_state": retry_state}
        parts = tuple(backend.range_query(box, **kwargs) for box in boxes)
        return FetchOutcome(concat_results(parts, backend.ndim), parts)

    def close(self) -> None:
        """Nothing to release (kept for ``perfbench/``, see the class)."""
