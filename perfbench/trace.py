"""Outside-in layer trace: spans recorded around the engine's public callables.

The program under test is not edited.  :func:`install` replaces instance
attributes of one engine (``engine.cache.candidates``, ``engine.planner.select``
...) and the ``prune_shards`` / ``sfs_skyline`` names that ``repro.core.sharded``
and ``repro.core.dynamic`` imported, with wrappers that record a span per call;
:meth:`Installed.remove` puts everything back.  Spans stay in memory until the
run ends.  The benchmark is single-threaded (``workers=1``), so a plain stack
gives each span its parent.

A span is ``[name, start, end, parent, op, note]``: ``parent`` is an index into
the span list (-1 for a root), ``op`` the index of the benchmark op that caused
it, ``note`` an optional count taken at the same boundary.  A layer is the part
of the name before the first dot; its self time is the span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, OP, NOTE = range(6)


def duration(span: list) -> float:
    """Seconds between a span's start and end."""
    return span[END] - span[START]


class Recorder:
    """In-memory span store plus the wrapper factory that feeds it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: index of the benchmark op being executed (set by the pass loop)
        self.op = -1

    def wrap(self, fn: Callable, name: str, note: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording one span per call.

        ``note(result, *args)`` may return a number or dict to keep with the
        span (candidates returned, boxes planned, points in and out).
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result, *args)
            return result

        return traced

    def self_times(self) -> List[float]:
        """Per-span self time in seconds (duration minus direct children)."""
        own = [duration(span) for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= duration(span)
        return own

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "op": span[OP],
                            "note": span[NOTE],
                        }
                    )
                    + "\n"
                )


class Installed:
    """The set of attributes one :func:`install` call replaced."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: List[tuple] = []
        #: registry lent to the WAL for the traced pass (its own byte counter)
        self.wal_metrics = None

    def attr(self, obj, attr: str, name: str, note: Optional[Callable] = None) -> None:
        """Wrap ``obj.attr`` (a bound method or a stored callable)."""
        shadowed = attr in vars(obj)
        original = getattr(obj, attr)
        setattr(obj, attr, self.recorder.wrap(original, name, note))
        self._undo.append((obj, attr, shadowed, original))

    def value(self, obj, attr: str, replacement) -> None:
        """Set ``obj.attr`` to a plain value for the traced pass."""
        self._undo.append((obj, attr, True, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def counters(self) -> Dict[str, float]:
        """Counts the traced pass took from the program's own counters."""
        if self.wal_metrics is None:
            return {}
        return {"wal_bytes": self.wal_metrics.counter_total("wal_bytes_total")}

    def remove(self) -> None:
        for obj, attr, shadowed, original in reversed(self._undo):
            if shadowed:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._undo.clear()


def _sfs_note(result, points, *_):
    return {"in": len(points), "out": len(result)}


def _install_cbcs(done: Installed, engine) -> None:
    """One unsharded engine: cache, planner, region, executor, table, indexes."""
    done.attr(engine, "query", "cbcs.query")
    done.attr(engine.cache, "candidates", "cache.candidates", lambda r, *a: len(r))
    done.attr(engine.cache, "insert", "cache.insert")
    done.attr(engine.cache, "touch", "cache.touch")
    done.attr(engine.planner, "select", "planner.select")
    done.attr(engine.planner, "plan", "planner.plan")
    done.attr(engine.region, "compute", "region.compute", lambda r, *a: len(r.boxes))
    done.attr(engine.executor, "fetch", "executor.fetch")
    done.attr(engine, "skyline_algorithm", "sfs.skyline", _sfs_note)
    table = engine.table
    done.attr(table, "range_query", "table.range_query")
    for dim in range(table.ndim):
        done.attr(table.index(dim), "range_rows", "btree.range_rows")


def _install_dynamic(done: Installed, engine) -> None:
    """The write path of a durable ``DynamicCBCS`` on top of the query path."""
    import repro.core.dynamic as dynamic_module
    from repro.obs.metrics import MetricsRegistry

    done.attr(engine, "insert_points", "dynamic.insert")
    done.attr(engine, "delete_points", "dynamic.delete")
    done.attr(engine.table, "append", "table.append")
    done.attr(engine.table, "delete", "table.delete")
    done.attr(engine.cache, "replace_skyline", "cache.replace_skyline")
    done.attr(engine.cache, "remove", "cache.remove")
    # cache refreshes after a delete call the name the module imported
    done.attr(dynamic_module, "sfs_skyline", "sfs.skyline", _sfs_note)
    durability = engine.durability
    if durability is not None:
        done.attr(durability.wal, "append", "wal.append")
        done.wal_metrics = MetricsRegistry()
        done.value(durability.wal, "metrics", done.wal_metrics)
        done.attr(durability, "checkpoint", "durability.checkpoint")


def _install_sharded(done: Installed, fleet) -> None:
    import repro.core.sharded as sharded_module

    done.attr(fleet, "query", "sharded.query")
    done.attr(fleet.pruning_cache, "lookup", "shardplan.lookup")
    done.attr(fleet.pruning_cache, "store", "shardplan.store")
    done.attr(sharded_module, "prune_shards", "shardplan.prune")
    done.attr(fleet.executor, "map_ordered", "sharded.fanout")
    done.attr(fleet, "skyline_algorithm", "sharded.merge", _sfs_note)
    for engine in fleet.engines:
        _install_cbcs(done, engine)


def install(recorder: Recorder, engine) -> Installed:
    """Wrap every layer boundary of ``engine``; returns the handle to undo it."""
    done = Installed(recorder)
    if hasattr(engine, "engines"):
        _install_sharded(done, engine)
    else:
        _install_cbcs(done, engine)
        if hasattr(engine, "insert_points"):
            _install_dynamic(done, engine)
    return done


def layer_self_seconds(recorder: Recorder, ops: Optional[set] = None) -> Dict[str, float]:
    """Self time summed per span name, optionally for a subset of ops."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(recorder.spans, recorder.self_times()):
        if ops is None or span[OP] in ops:
            totals[span[NAME]] += own
    return totals
