"""The execution layer: runs a plan's range queries against the table.

:meth:`Executor.fetch` is the only place per-box results are read: it
takes the planner's disjoint boxes -- the plan's
:class:`~repro.geometry.box.BoxSet`, closed float bounds from the region
algebra to the disk -- and reads each row, in plan order, on the calling thread -- with
``table.range_query(lo, hi)``, or, when the engine runs with resilience,
with :meth:`repro.resilience.Resilience.read` (the same call, validated,
retried and behind the circuit breaker).  It returns the per-box
:class:`~repro.storage.table.RangeResult` records; the caller merges them
with :func:`~repro.storage.table.concat_results`.  There is no other fetch
path (DESIGN.md section 5, item 16): the disk is a cost model behind one
lock, so threads here could only ever improve a simulated number.
"""

from __future__ import annotations


class Executor:
    """Runs a plan's range queries against a table.

    Stateless.  It stays an object with :meth:`fetch` and a no-op
    :meth:`close` because the repository benchmark (``perfbench/``, which
    a change under ``src/`` may not edit) wraps ``engine.executor.fetch``
    and calls ``engine.executor.close()``.
    """

    def fetch(self, table, boxes, resilience=None, state=None) -> tuple:
        """Fetch every row of ``boxes`` (a :class:`~repro.geometry.box.BoxSet`)
        in plan order; returns one
        :class:`~repro.storage.table.RangeResult` per box, each
        carrying the I/O that call charged.

        The first box that raises (a fault-injected error,
        ``RetriesExhausted``, ``CircuitOpenError``) ends the fetch: the
        boxes after it are never issued, so they charge nothing.  With
        ``resilience`` each box is one :meth:`~repro.resilience.Resilience.read`
        against the query's retry ``state`` (a fresh one when none is
        given).  ``table.range_query`` is looked up per box, never bound
        ahead, so a wrapper installed on the table instance sees every read.
        """
        rows = zip(boxes.lo, boxes.hi)
        if resilience is None:
            return tuple(table.range_query(lo, hi) for lo, hi in rows)
        state = resilience.new_state() if state is None else state
        return tuple(resilience.read(table, lo, hi, state) for lo, hi in rows)

    def close(self) -> None:
        """Nothing to release (kept for ``perfbench/``, see the class)."""
