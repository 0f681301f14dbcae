"""Labeled counters, gauges, and histograms for the CBCS engine.

A :class:`MetricsRegistry` is the engine-wide accumulator behind metrics such
as ``cache_lookups_total{strategy=..., outcome=hit|miss}`` or the
``mpr_rectangles_per_query`` histogram.  It is deliberately tiny and
dependency-free: a metric is identified by a name plus a sorted tuple of
``key=value`` labels, and the registry stores plain Python numbers, so a
snapshot serializes straight to JSON (``as_dict`` / ``save_json``).

:class:`NullMetrics` is the no-op twin used when observability is disabled:
every mutator returns immediately, so instrumented hot paths cost one
attribute lookup and a no-op call.  Code that wants to skip even argument
construction can guard on :attr:`MetricsRegistry.enabled`.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical, hashable form of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class HistogramData:
    """Running distribution of one labeled histogram series.

    All observed values are kept (benchmark runs observe thousands of
    values, not millions) up to ``max_samples``; beyond that the summary
    statistics stay exact while percentiles come from the retained prefix.
    """

    __slots__ = ("count", "sum", "min", "max", "_values", "_max_samples", "exemplar")

    def __init__(self, max_samples: int = 65536):
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._values: List[float] = []
        self._max_samples = max_samples
        #: Last ``(query_id, value)`` observed with an exemplar: a concrete
        #: query to pull up in the trace when this series looks wrong.
        self.exemplar: Optional[Tuple[str, float]] = None

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._values) < self._max_samples:
            self._values.append(value)
        if exemplar is not None:
            self.exemplar = (exemplar, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) of retained samples."""
        if not self._values:
            return float("nan")
        ordered = sorted(self._values)
        rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[int(rank)]

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0}
        summary = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }
        if self.exemplar is not None:
            summary["exemplar"] = {
                "query_id": self.exemplar[0],
                "value": self.exemplar[1],
            }
        return summary

    def merge(self, other: "HistogramData") -> None:
        """Fold another histogram's observations into this one.

        Summary statistics stay exact; retained samples are concatenated up
        to this histogram's ``max_samples`` cap.
        """
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        room = self._max_samples - len(self._values)
        if room > 0:
            self._values.extend(other._values[:room])
        if other.exemplar is not None:
            self.exemplar = other.exemplar


class MetricsRegistry:
    """Engine-wide store of labeled counters, gauges, and histograms."""

    enabled = True

    def __init__(self, max_histogram_samples: int = 65536):
        self._counters: Dict[Tuple[str, LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, LabelKey], float] = {}
        self._histograms: Dict[Tuple[str, LabelKey], HistogramData] = {}
        self._max_histogram_samples = max_histogram_samples
        # Mutations are read-modify-write on shared dicts/histograms; one
        # registry-wide lock keeps them safe under concurrent query workers.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` to the counter ``name`` for this label set."""
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge ``name`` to ``value`` for this label set."""
        with self._lock:
            self._gauges[(name, _label_key(labels))] = float(value)

    def observe(
        self, name: str, value: float, exemplar: Optional[str] = None, **labels
    ) -> None:
        """Record one observation into the histogram ``name``.

        ``exemplar`` optionally attaches a query id to the series (kept as
        the last-observed exemplar, never as a label -- per-query labels
        would explode series cardinality).
        """
        key = (name, _label_key(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = HistogramData(self._max_histogram_samples)
                self._histograms[key] = hist
            hist.observe(value, exemplar=exemplar)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one.

        Counters add, gauges take the other registry's (newer) value, and
        histograms merge observation-by-observation.  Used by the benchmark
        CLI to keep per-figure registries (for ``BENCH_*.json`` snapshots)
        while still producing one cumulative ``metrics.json`` per run.
        """
        with self._lock:
            for key, value in other._counters.items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            self._gauges.update(other._gauges)
            for key, hist in other._histograms.items():
                mine = self._histograms.get(key)
                if mine is None:
                    mine = HistogramData(self._max_histogram_samples)
                    self._histograms[key] = mine
                mine.merge(hist)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        """Value of one exactly-labeled counter series (0.0 if absent)."""
        return self._counters.get((name, _label_key(labels)), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over every label combination."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def counters(self, name: str) -> Iterator[Tuple[Dict[str, str], float]]:
        """Iterate ``(labels_dict, value)`` for every series of ``name``."""
        for (n, labels), value in sorted(self._counters.items()):
            if n == name:
                yield dict(labels), value

    def gauge_value(self, name: str, **labels) -> Optional[float]:
        return self._gauges.get((name, _label_key(labels)))

    def histogram(self, name: str, **labels) -> Optional[HistogramData]:
        return self._histograms.get((name, _label_key(labels)))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, list]:
        """JSON-serializable snapshot: one record per labeled series."""
        return {
            "counters": [
                {"name": n, "labels": dict(labels), "value": v}
                for (n, labels), v in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": n, "labels": dict(labels), "value": v}
                for (n, labels), v in sorted(self._gauges.items())
            ],
            "histograms": [
                {"name": n, "labels": dict(labels), **hist.summary()}
                for (n, labels), hist in sorted(
                    self._histograms.items(), key=lambda kv: kv[0]
                )
            ],
        }

    def save_json(self, path) -> None:
        """Write :meth:`as_dict` to ``path`` as indented, versioned JSON.

        The write is atomic (temp file + rename): a crash mid-export leaves
        the previous artifact intact, never a torn half-JSON.
        """
        from repro.ioutil import atomic_write_json
        from repro.obs.schema import stamp

        atomic_write_json(path, stamp(self.as_dict()))

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


class NullMetrics(MetricsRegistry):
    """No-op registry: accepts every call, records nothing."""

    enabled = False

    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels) -> None:
        pass

    def observe(
        self, name: str, value: float, exemplar: Optional[str] = None, **labels
    ) -> None:
        pass


#: Shared no-op registry; instrumented code defaults to this singleton so
#: disabled observability costs one attribute lookup per call site.
NULL_METRICS = NullMetrics()
