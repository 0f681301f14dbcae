"""The execution layer: runs a plan's range queries against a backend.

The :class:`Executor` is the only component that talks to the
:class:`~repro.storage.backend.StorageBackend` during a query, and
:meth:`Executor.fetch` is the only place per-box results are gathered: it
takes the planner's disjoint boxes and issues one ``range_query`` per box
-- serially on the calling thread with the default ``workers=1``, or
concurrently on a bounded thread pool when ``workers > 1``.  Results are
gathered *in box order* regardless of completion order, so the
concatenated point set -- and therefore the skyline computed from it -- is
byte-identical at any worker count.

Simulated-time accounting under parallelism: every
:class:`~repro.storage.table.RangeResult` carries the ``io_ms`` its call
charged (latency-spike faults included).  The executor reports both

- ``io_ms_total``: the plain sum -- total disk work, matching the table's
  aggregate counters; and
- ``effective_io_ms``: the makespan of the per-box latencies greedily
  scheduled onto ``min(workers, boxes)`` lanes -- what would actually
  elapse with that much I/O overlap.  Deterministic (box order is fixed),
  and equal to ``io_ms_total`` when serial.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from repro.geometry.box import Box
from repro.obs import NULL_OBS, bind, current_query_id
from repro.storage.table import RangeResult, concat_results


def effective_latency_ms(io_ms: Sequence[float], workers: int) -> float:
    """Makespan of per-box latencies on ``workers`` greedy lanes.

    Boxes are assigned in plan order to the least-loaded lane (list-
    scheduling, the executor's actual dispatch discipline in simulated
    time); the busiest lane's total is the effective fetch latency.
    """
    lanes = [0.0] * max(1, min(int(workers), len(io_ms)) or 1)
    for ms in io_ms:
        lane = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[lane] += ms
    return max(lanes) if lanes else 0.0


@dataclass(frozen=True)
class FetchOutcome:
    """One fetch stage's merged result plus its two I/O accountings.

    ``parts`` keeps the per-box :class:`RangeResult` records in plan order
    (one per box fetched), so the explain layer can join each planned box's
    predicted cost against the rows/pages/seeks/io_ms that box actually
    charged.  The tuple aliases the same arrays the merged ``result``
    concatenates -- no copies.
    """

    result: RangeResult
    io_ms_total: float
    effective_io_ms: float
    boxes: int = 0
    workers: int = 1
    parts: tuple = ()


class Executor:
    """Runs a plan's range queries against a storage backend.

    ``workers=1`` (the default) keeps the historic serial semantics --
    every box fetched in order on the calling thread, no pool at all.
    ``workers > 1`` fans the boxes out over a bounded, lazily created
    :class:`~concurrent.futures.ThreadPoolExecutor` that is reused across
    queries.  ``retry_state`` (when resilience is on) is forwarded to the
    backend, whose resilient decorator retries each box against the shared
    per-query budget.
    """

    def __init__(self, workers: int = 1, obs=None):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = int(workers)
        self.obs = NULL_OBS if obs is None else obs
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------
    def fetch(self, backend, boxes, retry_state=None) -> FetchOutcome:
        """Fetch every box and merge the results in box order.

        Exceptions (fault-injected errors, ``RetriesExhausted``,
        ``CircuitOpenError``) propagate exactly as the serial path raised
        them: the first failing box *in plan order* wins, so the engine's
        degradation ladder sees the same error at any worker count.
        """
        boxes = list(boxes)
        parts = self.map_ordered(
            [partial(self._range_query, backend, box, retry_state) for box in boxes]
        )
        io_each = [p.io_ms for p in parts]
        io_total = float(sum(io_each))
        effective = (
            effective_latency_ms(io_each, self.workers)
            if self.workers > 1
            else io_total
        )
        outcome = FetchOutcome(
            result=concat_results(parts, backend.ndim),
            io_ms_total=io_total,
            effective_io_ms=effective,
            boxes=len(boxes),
            workers=min(self.workers, max(len(boxes), 1)),
            parts=tuple(parts),
        )
        if self.obs.enabled and self.workers > 1:
            self.obs.tracer.record(
                "executor.fetch",
                round(effective, 6),
                boxes=len(boxes),
                workers=outcome.workers,
                io_ms_total=round(io_total, 6),
            )
            self.obs.metrics.inc(
                "executor_fetches_total",
                mode="parallel" if len(boxes) > 1 else "serial",
            )
        return outcome

    def _range_query(self, backend, box: Box, retry_state) -> RangeResult:
        if retry_state is not None:
            return backend.range_query(box, retry_state=retry_state)
        return backend.range_query(box)

    # ------------------------------------------------------------------
    # Ordered fan-out
    # ------------------------------------------------------------------
    def map_ordered(self, tasks: Sequence) -> list:
        """Run zero-arg callables on the pool, gathering in submission order.

        Results come back in task order regardless of completion order, so
        the merge in :meth:`fetch` is deterministic at any worker count.
        Serial (calling thread, no pool) when ``workers == 1`` or there is
        a single task.  The first failing task *in submission order* raises.
        """
        tasks = list(tasks)
        if len(tasks) <= 1 or self.workers == 1:
            return [task() for task in tasks]
        pool = self._ensure_pool()
        # contextvars do not flow into pool threads on their own: re-bind
        # the caller's query id in each lane so worker-side spans (range
        # queries, retries, backend errors) stay joinable with the query.
        query_id = current_query_id()

        def lane(task):
            with bind(query_id):
                return task()

        futures = [pool.submit(lane, task) for task in tasks]
        results = []
        first_error: Optional[BaseException] = None
        for future in futures:  # submission order, not completion order
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="cbcs-exec"
                )
            return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; pool recreates on use)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"Executor(workers={self.workers})"
