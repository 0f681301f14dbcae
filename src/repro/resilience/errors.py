"""Error types of the resilience layer.

The class hierarchy encodes the retry contract:

- :class:`repro.storage.faults.TransientStorageError` (an ``IOError``) and
  any other ``OSError`` are *retryable*: a later attempt may succeed.
- :class:`CorruptResultError` marks a fetched
  :class:`~repro.storage.table.RangeResult` that failed integrity
  validation (truncated payload, non-finite values); it subclasses the
  transient error because a re-read of healthy storage returns clean data.
- :class:`RetriesExhausted` and :class:`CircuitOpenError` are the two ways
  an operation gives up; both end the CBCS query pass, which is then served
  from the cache, and neither is allowed to escape
  :meth:`repro.core.cbcs.CBCS.query`.
"""

from __future__ import annotations

from repro.storage.faults import TransientStorageError


class CorruptResultError(TransientStorageError):
    """A fetched range result failed integrity validation."""


class RetriesExhausted(RuntimeError):
    """An operation kept failing for all of the retry policy's
    ``max_attempts``; the last underlying error is chained as
    ``__cause__``."""


class CircuitOpenError(RuntimeError):
    """The circuit breaker is open: the operation was rejected without
    touching storage."""


class DeadlineExceeded(RuntimeError):
    """A per-request deadline budget ran out before the query finished.

    Deliberately *not* retryable and *not* degradable: retrying cannot
    finish inside the deadline either.  The engine catches it explicitly
    and serves the best cached answer, flagged stale; if nothing is
    cached, the exception surfaces to the serving layer, which turns it
    into a typed ``deadline_exceeded`` outcome -- never a silent hang,
    never a partial unflagged result.
    """


#: Exceptions the retry loop treats as retryable.
RETRYABLE = (TransientStorageError, OSError)

#: Exceptions that end a query pass and send the query to the cache.
DEGRADABLE = (RetriesExhausted, CircuitOpenError, TransientStorageError, OSError)
