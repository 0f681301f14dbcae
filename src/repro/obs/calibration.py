"""Continuous cost-model calibration from explain records.

The :class:`CalibrationLedger` is the repo's one predicted-vs-actual
audit: every explain record produced during a real run (see
:mod:`repro.obs.explain`) contributes its query-level predicted-vs-actual
totals, and the ledger aggregates the mean absolute relative error per
stage -- ``points`` (selectivity estimator), ``pages`` and ``io_ms`` (disk
cost model) -- overall, per overlap case, and per cache search strategy.

The denominator is ``max(|actual|, 1)`` so exact hits (predicted 0, actual
0) contribute a clean zero error and empty boxes never divide by zero:
every reported MARE is finite by construction.

Outputs: a ``calibration.json`` artifact under ``--obs``, the
``calibration`` block of a ``BENCH_*.json`` snapshot (the gated source: an
optimisation that silently breaks the estimator shows up as a MARE jump
before it shows up as a wrong plan), and the ``--calibration`` table
(:func:`render_calibration`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.schema import stamp

#: Prediction stages aggregated by the ledger.
STAGES = ("points", "pages", "io_ms")


class CalibrationLedger:
    """Streaming aggregator of predicted-vs-actual error per stage.

    ``add`` consumes one explain record; records without full actuals
    (degraded queries whose fetch never completed) are counted as skipped,
    never poisoning the error means.  Thread-compatible with the engine's
    emit path: records arrive one at a time from ``ExplainRecorder.record``.
    """

    def __init__(self):
        #: (dimension, key, stage) -> [count, error_sum]
        self._cells: Dict[Tuple[str, str, str], List[float]] = {}
        self.queries = 0
        self.skipped = 0

    def add(self, record: dict) -> bool:
        """Fold one explain record in; returns False when skipped."""
        predicted = record.get("predicted")
        actual = record.get("actual")
        if not isinstance(predicted, dict) or not isinstance(actual, dict):
            self.skipped += 1
            return False
        case = str(record.get("case") or "none")
        strategy = str(record.get("strategy") or "?")
        for stage in STAGES:
            p = float(predicted.get(stage, 0) or 0)
            a = float(actual.get(stage, 0) or 0)
            error = abs(p - a) / max(abs(a), 1.0)
            for cell in (
                ("overall", "", stage),
                ("case", case, stage),
                ("strategy", strategy, stage),
            ):
                bucket = self._cells.setdefault(cell, [0, 0.0])
                bucket[0] += 1
                bucket[1] += error
        self.queries += 1
        return True

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def mare(self, stage: str, dimension: str = "overall", key: str = "") -> Optional[float]:
        """Mean absolute relative error of one cell, or None when empty."""
        bucket = self._cells.get((dimension, key, stage))
        if not bucket or not bucket[0]:
            return None
        return bucket[1] / bucket[0]

    def _group(self, dimension: str) -> Dict[str, Dict[str, float]]:
        group: Dict[str, Dict[str, float]] = {}
        for (dim, key, stage), (count, total) in sorted(self._cells.items()):
            if dim != dimension or not count:
                continue
            group.setdefault(key, {})[stage] = total / count
        return group

    def summary(self) -> dict:
        """JSON-ready aggregate: the ``calibration.json`` artifact body."""
        overall = {
            stage: {
                "mare": self.mare(stage),
                "count": int(
                    self._cells.get(("overall", "", stage), [0, 0.0])[0]
                ),
            }
            for stage in STAGES
            if self.mare(stage) is not None
        }
        return stamp(
            {
                "queries": self.queries,
                "skipped": self.skipped,
                "stages": list(STAGES),
                "overall": overall,
                "per_case": self._group("case"),
                "per_strategy": self._group("strategy"),
            }
        )

    def save_json(self, path) -> None:
        """Write :meth:`summary` to ``path`` atomically (temp + rename)."""
        from repro.ioutil import atomic_write_json

        atomic_write_json(path, self.summary())


def render_calibration(summary: dict) -> str:
    """Aligned-text rendering of a :meth:`CalibrationLedger.summary` dict."""
    from repro.bench.reporting import format_table

    queries = summary.get("queries", 0)
    skipped = summary.get("skipped", 0)
    if not queries:
        return (
            "# calibration\n"
            f"(no calibrated queries; {skipped} skipped without actuals)"
        )
    header = (
        f"queries: {queries} calibrated, {skipped} skipped "
        f"(no executed actuals)"
    )
    sections = [f"# calibration\n{header}"]
    overall = summary.get("overall") or {}
    rows = [
        [stage, entry.get("count", 0), f"{entry.get('mare', 0.0):.3f}"]
        for stage, entry in overall.items()
    ]
    if rows:
        sections.append(
            format_table(
                ["stage", "samples", "MARE"],
                rows,
                title="Predicted-vs-actual error (overall)",
            )
        )
    for dimension, title in (
        ("per_case", "MARE per overlap case"),
        ("per_strategy", "MARE per strategy"),
    ):
        group = summary.get(dimension) or {}
        if not group:
            continue
        stages = [s for s in STAGES if any(s in v for v in group.values())]
        rows = [
            [key]
            + [
                f"{values[s]:.3f}" if s in values else "-"
                for s in stages
            ]
            for key, values in sorted(group.items())
        ]
        sections.append(
            format_table([dimension.split("_")[1]] + stages, rows, title=title)
        )
    return "\n\n".join(sections)
