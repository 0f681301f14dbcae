"""Per-request deadline budgets for overload-safe serving.

A :class:`Deadline` bounds how long one query may take end to end --
queueing, retries, and storage fetches included.  It tracks two costs:

- **wall-clock time** since the deadline was armed (so a request stuck in
  the ingress queue burns budget even before it executes), and
- **charged simulated milliseconds** -- the same simulated I/O and backoff
  delays the storage layer and retry loop account for instead of sleeping.

Both count against the same budget, mirroring how the bench charges
simulated disk time on top of real CPU time.  When the budget runs out the
next check raises :class:`~repro.resilience.errors.DeadlineExceeded`, which
is deliberately neither retryable nor degradable: the engine catches it
explicitly and serves the best cached answer (stale-serve) instead of
retrying fetches that cannot finish in time either.  It is the only time
budget a query has: the retry policy bounds attempts, not milliseconds.

A deadline never cancels completed work: an answer that finishes just past
its budget is still returned.  The guarantee is *no silent hang*, not
*no late answer*.
"""

from __future__ import annotations

import time
import threading
from typing import Optional, Union

from repro.resilience.errors import DeadlineExceeded

__all__ = ["Deadline", "DeadlineExceeded"]


class Deadline:
    """A per-request time budget in milliseconds.

    ``elapsed_ms`` is real wall-clock time since construction plus any
    simulated milliseconds charged via :meth:`charge`.  Thread-safe: the
    thread that submits a request arms it, a service worker charges it.
    """

    __slots__ = ("budget_ms", "_t0", "_charged_ms", "_lock", "_clock")

    def __init__(self, budget_ms: float, clock=time.perf_counter):
        if isinstance(budget_ms, bool):
            raise TypeError("deadline budget_ms must be a number of ms, not a bool")
        # (a NaN budget fails this test; past it, it would never expire)
        if not budget_ms > 0:
            raise ValueError(f"deadline budget_ms must be positive, got {budget_ms}")
        self.budget_ms = float(budget_ms)
        self._clock = clock
        self._t0 = clock()
        self._charged_ms = 0.0
        self._lock = threading.Lock()

    @classmethod
    def normalize(
        cls, value: Union["Deadline", float, int, None]
    ) -> Optional["Deadline"]:
        """None -> None, a number -> a fresh deadline armed now, a
        :class:`Deadline` -> itself (already running).  A bool is not a
        number of milliseconds."""
        if value is None:
            return None
        if isinstance(value, Deadline):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return cls(value)
        raise TypeError(
            f"deadline must be None, a number of ms, or a Deadline, "
            f"got {type(value)!r}"
        )

    def charge(self, ms: float) -> None:
        """Charge ``ms`` simulated milliseconds (I/O or backoff) to the
        budget.  Never raises; expiry surfaces at the next :meth:`check`."""
        if ms <= 0:
            return
        with self._lock:
            self._charged_ms += ms

    @property
    def charged_ms(self) -> float:
        with self._lock:
            return self._charged_ms

    @property
    def elapsed_ms(self) -> float:
        wall = (self._clock() - self._t0) * 1000.0
        with self._lock:
            return wall + self._charged_ms

    @property
    def remaining_ms(self) -> float:
        return max(0.0, self.budget_ms - self.elapsed_ms)

    @property
    def expired(self) -> bool:
        return self.elapsed_ms >= self.budget_ms

    def check(self, op: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        elapsed = self.elapsed_ms
        if elapsed >= self.budget_ms:
            where = f" during {op}" if op else ""
            raise DeadlineExceeded(
                f"deadline of {self.budget_ms:.1f}ms exceeded{where} "
                f"({elapsed:.1f}ms elapsed, {self.charged_ms:.1f}ms of it "
                f"simulated I/O/backoff)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(budget_ms={self.budget_ms:.1f}, "
            f"elapsed_ms={self.elapsed_ms:.1f})"
        )
