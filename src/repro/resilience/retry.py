"""Retry with capped exponential backoff and deterministic jitter.

Backoff delays are *simulated*, not slept: each retry charges its delay to
the request's :class:`~repro.resilience.deadline.Deadline`, when it has one
(mirroring how the storage layer charges simulated I/O milliseconds instead
of spinning real disks), so tests and chaos soaks run at CPU speed and
remain bit-deterministic.  The per-request deadline is the one time budget;
the policy itself bounds only the number of attempts per operation.

Jitter is deterministic too: instead of a PRNG, the delay for attempt ``a``
of operation token ``t`` is spread by an integer hash of ``(t, a)``.  Two
runs of the same workload therefore retry on the same schedule, which keeps
the chaos soak's fault replay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.metrics import NULL_METRICS
from repro.resilience.errors import RETRYABLE, DeadlineExceeded, RetriesExhausted


def _mix(token: int, attempt: int) -> int:
    """SplitMix64-style integer hash for deterministic jitter."""
    x = (token * 0x9E3779B97F4A7C15 + attempt * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff.

    An operation is tried at most ``max_attempts`` times; after that its
    failure surfaces as :class:`RetriesExhausted` (the cue to serve the
    query from the cache).
    """

    max_attempts: int = 4
    base_delay_ms: float = 1.0
    multiplier: float = 2.0
    max_delay_ms: float = 50.0
    jitter: float = 0.5  # spread as a fraction of the raw delay

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        for name in ("base_delay_ms", "multiplier", "max_delay_ms"):
            value = getattr(self, name)
            # (NaN fails both tests: min() and ** would carry it into delays)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff_ms(self, attempt: int, token: int = 0) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered."""
        raw = min(
            self.max_delay_ms,
            self.base_delay_ms * self.multiplier ** max(attempt - 1, 0),
        )
        if self.jitter == 0.0:
            return raw
        fraction = (_mix(token, attempt) % 10_000) / 9_999.0
        return raw * (1.0 - self.jitter / 2.0 + self.jitter * fraction)


class RetryState:
    """Per-query accumulator: the retries taken.

    ``deadline`` (a :class:`~repro.resilience.deadline.Deadline`, optional)
    is the request's end-to-end budget; every simulated backoff delay is
    charged against it, and the retry loop stops retrying the moment it
    expires.  One query, one thread: no lock.
    """

    def __init__(self, policy: RetryPolicy, deadline=None):
        self.policy = policy
        self.deadline = deadline
        self.retries = 0
        self._token = 0

    def next_token(self) -> int:
        """A fresh per-operation jitter token within this query."""
        self._token += 1
        return self._token

    def spend(self, delay_ms: float) -> None:
        """Count one retry and charge its backoff delay to the deadline."""
        self.retries += 1
        if self.deadline is not None:
            self.deadline.charge(delay_ms)


def call_with_retry(fn, state: RetryState, metrics=None, op: str = "fetch"):
    """Run ``fn`` with the state's retry policy; return its result.

    Retries on :data:`~repro.resilience.errors.RETRYABLE` errors, charging
    each deterministic backoff delay to the request's deadline.  Raises
    :class:`RetriesExhausted` (chaining the last error) once the attempts
    run out; non-retryable exceptions propagate unchanged.

    When the state carries a per-request deadline that expires mid-retry,
    the loop raises :class:`DeadlineExceeded` instead of burning further
    attempts -- the engine's cue to stop fetching and serve the best
    answer it already has.
    """
    metrics = NULL_METRICS if metrics is None else metrics
    policy = state.policy
    token = state.next_token()
    attempt = 1
    while True:
        try:
            return fn()
        except RETRYABLE as exc:
            if state.deadline is not None and state.deadline.expired:
                raise DeadlineExceeded(
                    f"{op} abandoned mid-retry: per-request deadline of "
                    f"{state.deadline.budget_ms:.1f}ms exceeded after "
                    f"attempt {attempt}"
                ) from exc
            if attempt >= policy.max_attempts:
                raise RetriesExhausted(
                    f"{op} failed after {attempt} attempts"
                ) from exc
            delay = policy.backoff_ms(attempt, token)
            state.spend(delay)
            metrics.inc("storage_retries_total", op=op)
            metrics.observe("retry_backoff_ms", delay, op=op)
            attempt += 1
