"""Retry with capped exponential backoff, deterministic jitter, and a
per-query deadline budget.

Backoff delays are *simulated*, not slept: each retry charges its delay to
the query's :class:`RetryState` budget (mirroring how the storage layer
charges simulated I/O milliseconds instead of spinning real disks), so
tests and chaos soaks run at CPU speed and remain bit-deterministic.

Jitter is deterministic too: instead of a PRNG, the delay for attempt ``a``
of operation token ``t`` is spread by an integer hash of ``(t, a)``.  Two
runs of the same workload therefore retry on the same schedule, which keeps
the chaos soak's fault replay exact.
"""

from __future__ import annotations

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
    """Capped exponential backoff with a per-query deadline budget.

    ``deadline_ms`` bounds the *total* simulated backoff a single query may
    accumulate across all its operations; once spent, further failures stop
    retrying and surface as :class:`RetriesExhausted` (the degradation
    ladder's cue).
    """

    max_attempts: int = 4
    base_delay_ms: float = 1.0
    multiplier: float = 2.0
    max_delay_ms: float = 50.0
    jitter: float = 0.5  # spread as a fraction of the raw delay
    deadline_ms: float = 500.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_ms < 0 or self.max_delay_ms < 0 or self.deadline_ms < 0:
            raise ValueError("delays and deadline must be non-negative")
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
    """Per-query accumulator: retries taken and backoff budget spent.

    ``deadline`` (a :class:`~repro.resilience.deadline.Deadline`, optional)
    is the request's end-to-end budget; every simulated backoff delay spent
    here is also charged against it, and the retry loop stops retrying the
    moment it expires.  One query, one thread, one budget: no lock.
    """

    def __init__(self, policy: RetryPolicy, deadline=None):
        self.policy = policy
        self.deadline = deadline
        self.retries = 0
        self.spent_ms = 0.0
        self._token = 0

    @property
    def remaining_ms(self) -> float:
        return max(0.0, self.policy.deadline_ms - self.spent_ms)

    def next_token(self) -> int:
        """A fresh per-operation jitter token within this query."""
        self._token += 1
        return self._token

    def try_spend(self, delay_ms: float) -> bool:
        """Charge one backoff delay to the budget.

        Returns False (leaving the budget untouched) when the charge would
        exceed the deadline -- the caller's cue to stop retrying.
        """
        if self.spent_ms + delay_ms > self.policy.deadline_ms:
            return False
        self.spent_ms += delay_ms
        self.retries += 1
        if self.deadline is not None:
            self.deadline.charge(delay_ms)
        return True


def call_with_retry(fn, state: RetryState, metrics=None, op: str = "fetch"):
    """Run ``fn`` with the state's retry policy; return its result.

    Retries on :data:`~repro.resilience.errors.RETRYABLE` errors, charging
    each deterministic backoff delay to the query budget.  Raises
    :class:`RetriesExhausted` (chaining the last error) once attempts or
    budget run out; non-retryable exceptions propagate unchanged.

    When the state carries a per-request deadline that expires mid-retry,
    the loop raises :class:`DeadlineExceeded` instead of burning further
    attempts -- the ladder's cue to stop descending and serve the best
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
                metrics.inc("deadline_exceeded_total", op=op)
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
            if not state.try_spend(delay):
                raise RetriesExhausted(
                    f"{op} abandoned: deadline budget exhausted "
                    f"({state.spent_ms:.1f}ms of {policy.deadline_ms:.1f}ms spent)"
                ) from exc
            metrics.inc("storage_retries_total", op=op)
            metrics.observe("retry_backoff_ms", delay, op=op)
            attempt += 1
