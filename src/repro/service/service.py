"""The overload-safe concurrent serving front for the CBCS engine.

Requests flow through four stages, each with an explicit, typed outcome:

1. **Coalesce** (:mod:`repro.service.coalesce`): a request identical to an
   in-flight query joins its execution (*dedup*); one whose region is a
   pure upper-bound shrink of an in-flight region is answered from that
   result via the paper's case analysis (*subsumed*).  Joined requests
   consume no queue slot and no storage work.
2. **Admission** (:mod:`repro.service.admission`): once the queue depth
   reaches its priority class's share of the capacity, the request
   resolves to a typed ``shed`` outcome.
3. **Ingress queue** (:mod:`repro.service.queue`): bounded, priority-
   ordered; a full queue resolves the request to ``rejected_queue_full``
   instead of blocking the caller.
4. **Execution**: a worker thread drains the queue and runs the shared
   engine.  A per-request deadline (armed at submit, so queue wait counts)
   rides into the engine's retry/degradation machinery; an expired
   deadline yields the stale-flagged best answer so far or a typed
   ``deadline_exceeded`` outcome -- never a silent hang.

Accounting closes exactly: every submitted request ends as *answered* (a
:class:`~repro.stats.QueryOutcome`), a typed :class:`RequestRejected`
(``shed`` / ``rejected_queue_full`` / ``deadline_exceeded``), or an error
reported through its future.  Coalesced answers are bit-identical to
standalone execution and carry their own ``query_id`` plus ``served_by``
naming the executing query.
"""

from __future__ import annotations

import inspect
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.cases import CASE_EXACT
from repro.obs import bind
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.service.admission import shed_reason
from repro.service.coalesce import (
    KIND_DEDUP,
    InFlightTable,
    derive_follower_skyline,
    follower_case,
)
from repro.service.queue import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    IngressQueue,
    priority_rank,
)
from repro.stats import QueryOutcome, StageTimings

__all__ = [
    "QueryService",
    "RequestRejected",
    "STATUS_ANSWERED",
    "STATUS_REJECTED_QUEUE_FULL",
    "STATUS_SHED",
    "STATUS_DEADLINE_EXCEEDED",
]

#: Typed terminal statuses of a submitted request.
STATUS_ANSWERED = "answered"
STATUS_REJECTED_QUEUE_FULL = "rejected_queue_full"
STATUS_SHED = "shed"
STATUS_DEADLINE_EXCEEDED = "deadline_exceeded"

REJECTED_STATUSES = (
    STATUS_REJECTED_QUEUE_FULL,
    STATUS_SHED,
    STATUS_DEADLINE_EXCEEDED,
)


@dataclass
class RequestRejected:
    """A typed non-answer: the request was shed, bounced off a full queue,
    or ran out of deadline.  Carries its own correlation ``query_id`` so
    rejected traffic is first-class in logs and joins."""

    status: str
    priority: str
    reason: str
    query_id: Optional[str] = None

    def as_record(self) -> dict:
        return {
            "query_id": self.query_id,
            "status": self.status,
            "priority": self.priority,
            "reason": self.reason,
        }

    def __repr__(self) -> str:
        return (
            f"RequestRejected(status={self.status!r}, "
            f"priority={self.priority!r}, reason={self.reason!r})"
        )


class _Request:
    """One submitted query riding through the ingress pipeline."""

    __slots__ = (
        "constraints",
        "priority",
        "deadline",
        "future",
        "query_id",
        "entry",
        "submitted_at",
    )

    def __init__(self, constraints, priority, deadline, query_id):
        self.constraints = constraints
        self.priority = priority
        self.deadline = deadline
        self.future: Future = Future()
        self.query_id = query_id
        self.entry = None
        self.submitted_at = time.perf_counter()


class QueryService:
    """Serve constrained skyline queries concurrently from one engine.

    ``workers`` bounds the number of concurrently *executing* queries
    (each fetches its plan's boxes on its own worker thread).  Worker
    threads and the ingress queue are created lazily and shut down by
    :meth:`close` / the context manager.

    ``capacity`` bounds the ingress queue; the priority classes shed at
    their share of it (:data:`~repro.service.admission.SHED_FRACTIONS`),
    so a service with headroom behaves exactly like a plain bounded pool.
    """

    def __init__(self, engine, workers: int = 4, capacity: int = 4096):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.engine = engine
        self.workers = int(workers)
        self.capacity = int(capacity)
        self._queue: Optional[IngressQueue] = None
        self._threads: List[threading.Thread] = []
        self._inflight = InFlightTable()
        self._lock = threading.Lock()
        self._executing = 0
        self._counters: Dict[str, int] = {
            "submitted": 0,
            STATUS_ANSWERED: 0,
            STATUS_REJECTED_QUEUE_FULL: 0,
            STATUS_SHED: 0,
            STATUS_DEADLINE_EXCEEDED: 0,
            "errors": 0,
            "coalesced_dedup": 0,
            "coalesced_subsumed": 0,
        }
        self._shed_by_class: Dict[str, int] = dict.fromkeys(PRIORITIES, 0)
        # Engines other than CBCS (Baseline, BBS) have no query_id/deadline
        # kwargs and no cache; probe once, not per request.
        params = inspect.signature(engine.query).parameters
        self._accepts_query_id = "query_id" in params
        self._accepts_deadline = "deadline" in params
        obs = getattr(engine, "obs", None)
        self._obs = obs if obs is not None and obs.enabled else None
        self._cache = getattr(engine, "cache", None)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self,
        constraints,
        priority: str = DEFAULT_PRIORITY,
        deadline_ms=None,
    ) -> Future:
        """Enqueue one query; returns a Future of its terminal outcome.

        The future resolves to a :class:`~repro.stats.QueryOutcome` when
        answered or a typed :class:`RequestRejected` when shed, bounced off
        a full queue, or expired past its deadline; it raises only when the
        engine itself raised (e.g. storage faults with resilience off).
        ``deadline_ms`` arms the request's end-to-end budget *now*, so time
        spent queued counts against it.
        """
        priority_rank(priority)  # validate before any side effects
        deadline = Deadline.normalize(deadline_ms)
        self._ensure_workers()
        query_id = (
            self._obs.correlation.new_id() if self._obs is not None else None
        )
        req = _Request(constraints, priority, deadline, query_id)
        with self._lock:
            self._counters["submitted"] += 1
        if self._inflight.try_join(req) is not None:
            return req.future
        reason = shed_reason(priority, self._queue.depth, self.capacity)
        if reason is not None:
            return self._reject(req, STATUS_SHED, reason)
        if self._inflight.register(req) is not None:
            return req.future  # raced: a compatible leader appeared; joined it
        if not self._queue.try_put(req, priority):
            for follower, _ in self._inflight.finish(req):
                self._redispatch(follower)
            return self._reject(
                req,
                STATUS_REJECTED_QUEUE_FULL,
                f"ingress queue full ({self._queue.capacity} slots)",
            )
        return req.future

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self, queue: IngressQueue) -> None:
        while True:
            req = queue.get()
            if req is None:
                return
            self._serve(req)

    def _serve(self, req: _Request) -> None:
        with self._lock:
            self._executing += 1
        try:
            wait_ms = (time.perf_counter() - req.submitted_at) * 1000.0
            if self._obs is not None:
                self._obs.metrics.observe(
                    "service_queue_wait_ms", wait_ms, priority=req.priority
                )
            if req.deadline is not None and req.deadline.expired:
                self._abandon_followers(req)
                self._reject(
                    req,
                    STATUS_DEADLINE_EXCEEDED,
                    f"deadline of {req.deadline.budget_ms:.1f}ms expired "
                    f"before execution ({wait_ms:.1f}ms of it queued)",
                )
                return
            try:
                outcome = self._execute(req)
            except DeadlineExceeded as exc:
                self._abandon_followers(req)
                self._reject(req, STATUS_DEADLINE_EXCEEDED, str(exc))
                return
            except Exception as exc:  # noqa: BLE001 - typed via the future
                with self._lock:
                    self._counters["errors"] += 1
                if self._obs is not None:
                    self._obs.metrics.inc(
                        "service_requests_total",
                        status="error",
                        priority=req.priority,
                    )
                self._abandon_followers(req)
                req.future.set_exception(exc)
                return
            self._record_answer(req, outcome)
            self._resolve_followers(req, outcome)
        finally:
            with self._lock:
                self._executing -= 1

    def _execute(self, req: _Request):
        kwargs = {}
        if req.query_id is not None and self._accepts_query_id:
            kwargs["query_id"] = req.query_id
        if req.deadline is not None and self._accepts_deadline:
            kwargs["deadline"] = req.deadline
        return self.engine.query(req.constraints, **kwargs)

    def _record_answer(self, req: _Request, outcome) -> None:
        with self._lock:
            self._counters[STATUS_ANSWERED] += 1
        if self._obs is not None:
            self._obs.metrics.inc(
                "service_requests_total",
                status=STATUS_ANSWERED,
                priority=req.priority,
            )
        req.future.set_result(outcome)

    # ------------------------------------------------------------------
    # Followers (dedup / subsumption coalescing)
    # ------------------------------------------------------------------
    def _resolve_followers(self, req: _Request, outcome) -> None:
        followers = self._inflight.finish(req)
        if not followers:
            return
        # Only a clean exact answer may be shared; a degraded, stale, or
        # unavailable parent would hand followers a flagged/partial answer
        # their own execution might beat -- they fall back instead.
        shareable = outcome.degraded is None and not outcome.stale
        for follower, kind in followers:
            if shareable:
                self._resolve_follower(follower, kind, req, outcome)
            else:
                self._redispatch(follower)

    def _abandon_followers(self, req: _Request) -> None:
        """The leader failed or timed out: its followers must not inherit
        that -- each falls back to its own execution."""
        for follower, _ in self._inflight.finish(req):
            self._redispatch(follower)

    def _resolve_follower(self, follower, kind, leader: _Request, outcome) -> None:
        if kind == KIND_DEDUP:
            skyline = outcome.skyline.copy()
            case = CASE_EXACT
        else:
            skyline = derive_follower_skyline(
                leader.constraints, follower.constraints, outcome.skyline
            )
            case = follower_case(leader.constraints, follower.constraints)
        child = QueryOutcome(
            skyline=skyline,
            method=outcome.method,
            timings=StageTimings(),
            case=case,
            stable=True,
            cache_hit=True,
            query_id=follower.query_id,
            served_by=outcome.query_id or leader.query_id,
        )
        with self._lock:
            self._counters[f"coalesced_{kind}"] += 1
        if self._obs is not None:
            self._obs.metrics.inc("service_coalesced_total", kind=kind)
            with bind(follower.query_id):
                # A zero-duration event span joins the piggybacked request
                # to its own query_id; correlation follows `served_by` from
                # the outcome record to the executing query's spans.
                self._obs.tracer.record(
                    "service.coalesced", 0.0, kind=kind, served_by=child.served_by
                )
            self._obs.record_outcome(child)
        self._record_answer(follower, child)

    def _redispatch(self, req: _Request) -> None:
        """Force-requeue an already-admitted follower for its own
        execution (it may instead join another live leader)."""
        req.entry = None
        if self._inflight.register(req) is not None:
            return
        queue = self._queue
        if queue is not None:
            queue.try_put(req, req.priority, force=True)

    # ------------------------------------------------------------------
    # Typed rejections + stats
    # ------------------------------------------------------------------
    def _reject(self, req: _Request, status: str, reason: str) -> Future:
        with self._lock:
            self._counters[status] += 1
            if status == STATUS_SHED:
                self._shed_by_class[req.priority] += 1
        if self._obs is not None:
            self._obs.metrics.inc(
                "service_requests_total", status=status, priority=req.priority
            )
            with bind(req.query_id):
                self._obs.tracer.record(
                    "service.rejected", 0.0, status=status, priority=req.priority
                )
        req.future.set_result(
            RequestRejected(
                status=status,
                priority=req.priority,
                reason=reason,
                query_id=req.query_id,
            )
        )
        return req.future

    def stats(self) -> dict:
        """A consistent snapshot of the ingress pipeline: queue depth and
        capacity, executing/in-flight counts, and the typed-outcome
        counters (``shed`` always equals the sum of ``shed_by_class``)."""
        with self._lock:
            counters = dict(self._counters)
            shed_by_class = dict(self._shed_by_class)
            executing = self._executing
        queue = self._queue
        return {
            "queue_depth": queue.depth if queue is not None else 0,
            "queue_capacity": self.capacity,
            "queue_high_watermark": (
                queue.stats.high_watermark if queue is not None else 0
            ),
            "executing": executing,
            "in_flight": len(self._inflight),
            "shed_by_class": shed_by_class,
            "coalesced": counters["coalesced_dedup"]
            + counters["coalesced_subsumed"],
            **counters,
            # None when the engine has no cache (Baseline/BBS)
            "cache": self._cache.stats() if self._cache is not None else None,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_workers(self) -> IngressQueue:
        with self._lock:
            if self._queue is None:
                self._queue = IngressQueue(self.capacity)
                self._inflight = InFlightTable()
                self._threads = [
                    threading.Thread(
                        target=self._worker_loop,
                        args=(self._queue,),
                        name=f"cbcs-svc_{i}",
                        daemon=True,
                    )
                    for i in range(self.workers)
                ]
                for thread in self._threads:
                    thread.start()
            return self._queue

    def close(self) -> None:
        """Drain queued and in-flight requests, then stop the workers
        (idempotent; the queue and workers lazily recreate on the next
        submit)."""
        with self._lock:
            queue = self._queue
            threads = list(self._threads)
        if queue is None:
            return
        queue.close()
        for thread in threads:
            thread.join()
        with self._lock:
            if self._queue is queue:
                self._queue = None
                self._threads = []

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"QueryService(engine={self.engine!r}, workers={self.workers})"
