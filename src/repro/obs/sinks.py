"""Span sinks: where finished trace spans go.

Every sink implements one method, ``emit(record)``, receiving the span as a
plain dict (see :meth:`repro.obs.tracing.Span.to_dict`).  Sinks holding OS
resources also implement ``close()``.

- :class:`RingBufferSink` — keeps the last N spans in memory (tests,
  interactive inspection, post-mortem of a single run);
- :class:`JsonlSink` — streams one JSON object per line to ``trace.jsonl``,
  the benchmark harness's trace artifact.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Dict, List


class RingBufferSink:
    """Keep the most recent ``capacity`` spans in memory."""

    def __init__(self, capacity: int = 10000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._buffer: deque = deque(maxlen=capacity)

    def emit(self, record: Dict[str, object]) -> None:
        self._buffer.append(record)

    @property
    def spans(self) -> List[Dict[str, object]]:
        """Buffered spans, oldest first."""
        return list(self._buffer)

    def named(self, name: str) -> List[Dict[str, object]]:
        """Buffered spans with the given name, oldest first."""
        return [r for r in self._buffer if r["name"] == name]

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)


class JsonlSink:
    """Append one JSON line per span to a file (opened lazily).

    Every emitted line is flushed to the OS immediately, so the file is
    complete up to the last record even if the process exits without a
    clean ``close()``.  The sink is also a context manager; re-emitting
    after ``close()`` reopens the file in append mode rather than
    truncating what was already written.

    Safe for concurrent writers: each record is serialized *outside* the
    lock, then written to the handle as one string under it, so lines from
    different threads (``QueryService`` workers) can never
    interleave mid-record.  ``close()`` always releases the handle, even
    when the final flush raises (a full disk must not leak the file
    descriptor or wedge later reopens).
    """

    def __init__(self, path):
        self.path = path
        self._handle = None
        self.emitted = 0
        self._lock = threading.Lock()

    def emit(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, default=_jsonable) + "\n"
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a" if self.emitted else "w")
            self._handle.write(line)
            self._handle.flush()
            self.emitted += 1

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _jsonable(value):
    """Fallback serializer for span attributes (numpy scalars etc.)."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def read_jsonl(path) -> List[Dict[str, object]]:
    """Load a ``trace.jsonl`` file back into a list of span dicts."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
