"""Benchmark snapshots and regression detection (``BENCH_*.json``).

The paper's claims are quantitative -- CBCS reads fewer points and issues
cheaper I/O than Baseline and BBS -- so every ``python -m repro.bench
--save-bench`` run serializes a schema-versioned snapshot of per-figure,
per-method means (points_read, range_queries, the stage breakdown with its
simulated ``fetch_io``, cache hit rate) plus scale and git revision, and
this module compares two snapshots for CI gating.

The per-method rows -- ``fetch_io_ms`` (simulated disk time),
``points_read`` and ``range_queries`` -- are deterministic given seed and
scale, so they gate tightly on ``rel_io``; ``points_read`` and
``range_queries`` also need an absolute excess to trip.  The serving
figure's latency percentiles are wall-clock numbers of whatever host ran
the snapshot, so they are carried in the snapshot but gate nothing.

Usage::

    python -m repro.bench --save-bench BENCH_ci.json --calibration fig5a
    python -m repro.bench.regress BENCH_old.json BENCH_new.json
    python -m repro.bench.regress BENCH_old.json BENCH_new.json --json report.json

The compare CLI exits 0 when no metric regresses beyond threshold, 1 on
regression, and 2 on unreadable/incompatible snapshots.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ioutil import atomic_write_json

SCHEMA = "repro.bench.snapshot"
SCHEMA_VERSION = 1

#: Stages serialized into each method's ``stage_ms`` breakdown.
STAGES = ("processing", "fetch_io", "fetch_wall", "skyline")


class SnapshotError(ValueError):
    """A snapshot file is missing, malformed, or schema-incompatible."""


# ----------------------------------------------------------------------
# Snapshot construction
# ----------------------------------------------------------------------
def summarize_registry(metrics) -> dict:
    """Distill one figure's :class:`~repro.obs.metrics.MetricsRegistry` into
    the per-method means the snapshot stores.

    The registry is the source of truth: ``points_read_total{method=X}`` is
    by construction the sum over X's ``QueryOutcome`` records, so snapshot
    numbers reconcile exactly with the figure tables.
    """
    methods: Dict[str, dict] = {}
    for labels, n in metrics.counters("queries_total"):
        method = labels.get("method", "?")
        if not n:
            continue
        stage_ms = {}
        for stage in STAGES:
            sh = metrics.histogram("stage_ms", method=method, stage=stage)
            if sh is not None and sh.count:
                stage_ms[stage] = sh.mean
        methods[method] = {
            "queries": n,
            "points_read": metrics.counter_value("points_read_total", method=method) / n,
            "range_queries": metrics.counter_value("range_queries_total", method=method) / n,
            "stage_ms": stage_ms,
        }
    hits = misses = 0.0
    for labels, value in metrics.counters("cache_lookups_total"):
        if labels.get("outcome") == "hit":
            hits += value
        else:
            misses += value
    lookups = hits + misses
    summary = {
        "methods": methods,
        "cache": {
            "lookups": lookups,
            "hit_rate": (hits / lookups) if lookups else None,
        },
    }
    # The warm-restart figure exports its cold/memory/warm comparison as
    # gauges; carry them into the snapshot so it records the cold-vs-warm
    # gap alongside the per-method means.
    cold_ms = metrics.gauge_value("warmstart_cold_io_ms")
    if cold_ms is not None:
        summary["warmstart"] = {
            "cold_io_ms": cold_ms,
            "mem_io_ms": metrics.gauge_value("warmstart_mem_io_ms"),
            "warm_io_ms": metrics.gauge_value("warmstart_warm_io_ms"),
            "cold_hit_rate": metrics.gauge_value("warmstart_cold_hit_rate"),
            "mem_hit_rate": metrics.gauge_value("warmstart_mem_hit_rate"),
            "warm_hit_rate": metrics.gauge_value("warmstart_warm_hit_rate"),
            "restored_items": metrics.gauge_value("warmstart_restored_items"),
        }
    # The serving figure exports the overload soak's wall-clock latency
    # percentiles and ingress rates as gauges; carry them into the snapshot
    # as a record of the overload behaviour.  They are not compared: a
    # wall-clock number from another host is no baseline.
    serving_p99 = metrics.gauge_value("serving_p99_ms")
    if serving_p99 is not None:
        summary["serving"] = {
            "p50_ms": metrics.gauge_value("serving_p50_ms"),
            "p95_ms": metrics.gauge_value("serving_p95_ms"),
            "p99_ms": serving_p99,
            "shed_rate": metrics.gauge_value("serving_shed_rate"),
            "coalesce_rate": metrics.gauge_value("serving_coalesce_rate"),
            "deadline_exceeded": metrics.gauge_value(
                "serving_deadline_exceeded"
            ),
            "submitted": metrics.gauge_value("serving_submitted"),
            "answered": metrics.gauge_value("serving_answered"),
            "target_rps": metrics.gauge_value("serving_target_rps"),
        }
    # The sharding figure exports total points read per shard count as
    # gauges; carry them into the snapshot so the gate holds that
    # (deterministic) curve tight.
    sharding = {}
    for count in SHARDING_COUNTS:
        points = metrics.gauge_value(f"sharding_points_read_{count}")
        if points is not None:
            sharding[f"points_read_{count}"] = points
    if sharding:
        summary["sharding"] = sharding
    return summary


def git_rev() -> Optional[str]:
    """Current git commit hash, or None outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def build_snapshot(
    scale: str,
    figures: Dict[str, dict],
    calibration: Optional[dict] = None,
    rev: Optional[str] = None,
    run_id: Optional[str] = None,
) -> dict:
    """Assemble the schema-versioned snapshot dict for one bench run.

    ``calibration`` is the run's predicted-vs-actual block, a
    :meth:`~repro.obs.calibration.CalibrationLedger.summary`.  Older
    snapshots carry an ``audit`` key in its place; the compare reads
    neither, so they still load and compare without complaint.
    """
    rev = git_rev() if rev is None else rev
    created_at = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    if run_id is None:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        run_id = f"{stamp}-{(rev or 'norev')[:7]}"
    snapshot = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "run_id": run_id,
        "created_at": created_at,
        "scale": scale,
        "git_rev": rev,
        "figures": figures,
    }
    if calibration is not None:
        snapshot["calibration"] = calibration
    return snapshot


def default_snapshot_name(snapshot: dict) -> str:
    return f"BENCH_{snapshot['run_id']}.json"


def save_snapshot(snapshot: dict, path) -> str:
    """Write a snapshot; a directory path gets ``BENCH_<runid>.json`` inside."""
    from pathlib import Path

    path = Path(path)
    if path.is_dir() or (not path.suffix and not path.exists()):
        path.mkdir(parents=True, exist_ok=True)
        path = path / default_snapshot_name(snapshot)
    # Atomic: a crash mid-save must never leave a torn BENCH_*.json for a
    # later compare to choke on.
    atomic_write_json(path, snapshot)
    return str(path)


def load_snapshot(path) -> dict:
    """Load and schema-validate a ``BENCH_*.json`` snapshot."""
    try:
        with open(path) as handle:
            snapshot = json.load(handle)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot {path} is not valid JSON: {exc}") from exc
    if not isinstance(snapshot, dict) or snapshot.get("schema") != SCHEMA:
        raise SnapshotError(
            f"snapshot {path} is not a {SCHEMA} file "
            f"(schema={snapshot.get('schema') if isinstance(snapshot, dict) else None!r})"
        )
    version = snapshot.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot {path} has schema_version={version!r}; "
            f"this build reads version {SCHEMA_VERSION}"
        )
    if not isinstance(snapshot.get("figures"), dict):
        raise SnapshotError(f"snapshot {path} has no figures mapping")
    return snapshot


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Thresholds:
    """Regression thresholds.

    A metric regresses only when the relative excess *and* the absolute
    delta both exceed their bound (``fetch_io_ms`` has no absolute floor);
    improvements are reported symmetrically but never fail the check.
    """

    rel_io: float = 0.10
    abs_points: float = 25.0
    abs_range_queries: float = 0.5


#: metric key -> (snapshot extractor, rel-threshold attr, abs-threshold attr;
#: None means no absolute floor)
_METRICS = {
    "fetch_io_ms": (lambda m: m.get("stage_ms", {}).get("fetch_io"), "rel_io", None),
    "points_read": (lambda m: m.get("points_read"), "rel_io", "abs_points"),
    "range_queries": (
        lambda m: m.get("range_queries"),
        "rel_io",
        "abs_range_queries",
    ),
}

#: Shard counts the sharding figure sweeps (gauge-name suffixes).
SHARDING_COUNTS = (1, 2, 4, 8)

STATUS_OK = "ok"
STATUS_REGRESSED = "regressed"
STATUS_IMPROVED = "improved"
STATUS_MISSING = "missing"
STATUS_NEW = "new"


@dataclass
class Finding:
    """One compared (figure, method, metric) cell."""

    figure: str
    method: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    status: str

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    @property
    def rel_delta(self) -> Optional[float]:
        if self.delta is None or not self.baseline:
            return None
        return self.delta / self.baseline

    def as_dict(self) -> dict:
        return {
            "figure": self.figure,
            "method": self.method,
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.delta,
            "rel_delta": self.rel_delta,
            "status": self.status,
        }


@dataclass
class RegressionReport:
    """The full outcome of comparing two snapshots."""

    baseline_id: str
    current_id: str
    scale: str
    thresholds: Thresholds
    findings: List[Finding] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.status == STATUS_REGRESSED]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def as_dict(self) -> dict:
        return {
            "baseline_id": self.baseline_id,
            "current_id": self.current_id,
            "scale": self.scale,
            "thresholds": {
                "rel_io": self.thresholds.rel_io,
                "abs_points": self.thresholds.abs_points,
                "abs_range_queries": self.thresholds.abs_range_queries,
            },
            "has_regressions": self.has_regressions,
            "findings": [f.as_dict() for f in self.findings],
            "warnings": list(self.warnings),
        }

    def render_text(self, verbose: bool = False) -> str:
        """Aligned-table report; ``verbose`` includes within-noise rows."""
        from repro.bench.reporting import format_table

        interesting = [
            f
            for f in self.findings
            if verbose or f.status != STATUS_OK
        ]
        header = (
            f"# bench regression check: {self.current_id} vs baseline "
            f"{self.baseline_id} (scale={self.scale})"
        )
        if not interesting:
            lines = [header]
            lines.extend(f"warning: {w}" for w in self.warnings)
            lines.append(
                f"OK: {len(self.findings)} compared metrics within thresholds"
            )
            return "\n".join(lines)
        rows = []
        for f in sorted(
            interesting, key=lambda f: (f.status != STATUS_REGRESSED, f.figure, f.method)
        ):
            rel = f"{f.rel_delta:+.1%}" if f.rel_delta is not None else "-"
            rows.append(
                [
                    f.figure,
                    f.method,
                    f.metric,
                    f.baseline if f.baseline is not None else float("nan"),
                    f.current if f.current is not None else float("nan"),
                    rel,
                    f.status.upper() if f.status == STATUS_REGRESSED else f.status,
                ]
            )
        table = format_table(
            ["figure", "method", "metric", "baseline", "current", "delta", "status"],
            rows,
        )
        verdict = (
            f"FAIL: {len(self.regressions)} regression(s) beyond threshold"
            if self.has_regressions
            else f"OK: no regressions ({len(self.findings)} metrics compared)"
        )
        parts = [header, table]
        parts.extend(f"warning: {w}" for w in self.warnings)
        parts.append(verdict)
        return "\n".join(parts)


def _classify(
    baseline: float, current: float, rel_tol: float, abs_floor: float
) -> str:
    if current > baseline * (1.0 + rel_tol) and (current - baseline) > abs_floor:
        return STATUS_REGRESSED
    if current < baseline * (1.0 - rel_tol) and (baseline - current) > abs_floor:
        return STATUS_IMPROVED
    return STATUS_OK


def compare_snapshots(
    baseline: dict,
    current: dict,
    thresholds: Optional[Thresholds] = None,
    require_same_scale: bool = True,
) -> RegressionReport:
    """Compare two loaded snapshots; returns the per-metric findings."""
    thresholds = thresholds or Thresholds()
    if require_same_scale and baseline.get("scale") != current.get("scale"):
        raise SnapshotError(
            f"scale mismatch: baseline ran at {baseline.get('scale')!r}, "
            f"current at {current.get('scale')!r} -- numbers are not comparable "
            f"(pass --allow-scale-mismatch to override)"
        )
    report = RegressionReport(
        baseline_id=str(baseline.get("run_id")),
        current_id=str(current.get("run_id")),
        scale=str(current.get("scale")),
        thresholds=thresholds,
    )
    base_figures = baseline.get("figures", {})
    cur_figures = current.get("figures", {})

    def methods_of(fig_name: str, fig: object, side: str) -> Optional[dict]:
        """The figure's methods mapping, or None (with a warning) if malformed."""
        if not isinstance(fig, dict) or not isinstance(fig.get("methods", {}), dict):
            report.warnings.append(
                f"{side} snapshot: figure {fig_name!r} entry is malformed; skipped"
            )
            return None
        return fig.get("methods", {})

    for fig_name, base_fig in sorted(base_figures.items()):
        base_methods = methods_of(fig_name, base_fig, "baseline")
        if base_methods is None:
            continue
        cur_fig = cur_figures.get(fig_name)
        if cur_fig is None:
            report.warnings.append(
                f"figure {fig_name!r} is in the baseline but missing from the "
                f"current snapshot"
            )
            for method in sorted(base_methods):
                report.findings.append(
                    Finding(fig_name, method, "*", None, None, STATUS_MISSING)
                )
            continue
        cur_methods = methods_of(fig_name, cur_fig, "current")
        if cur_methods is None:
            continue
        for method, base_entry in sorted(base_methods.items()):
            cur_entry = cur_methods.get(method)
            if cur_entry is None:
                report.warnings.append(
                    f"figure {fig_name!r}: method {method!r} is in the baseline "
                    f"but missing from the current snapshot"
                )
                report.findings.append(
                    Finding(fig_name, method, "*", None, None, STATUS_MISSING)
                )
                continue
            if not isinstance(base_entry, dict) or not isinstance(cur_entry, dict):
                report.warnings.append(
                    f"figure {fig_name!r}: method {method!r} entry is malformed; "
                    f"skipped"
                )
                continue
            for metric, (extract, rel_attr, abs_attr) in _METRICS.items():
                try:
                    b, c = extract(base_entry), extract(cur_entry)
                except (AttributeError, TypeError):
                    report.warnings.append(
                        f"figure {fig_name!r}: method {method!r} metric "
                        f"{metric!r} is malformed; skipped"
                    )
                    continue
                if b is None or c is None:
                    continue
                try:
                    b, c = float(b), float(c)
                except (TypeError, ValueError):
                    report.warnings.append(
                        f"figure {fig_name!r}: method {method!r} metric "
                        f"{metric!r} is not numeric; skipped"
                    )
                    continue
                if b != b or c != c:
                    continue
                status = _classify(
                    b,
                    c,
                    getattr(thresholds, rel_attr),
                    getattr(thresholds, abs_attr) if abs_attr else 0.0,
                )
                report.findings.append(
                    Finding(fig_name, method, metric, b, c, status)
                )
        for method in sorted(set(cur_methods) - set(base_methods)):
            report.findings.append(
                Finding(fig_name, method, "*", None, None, STATUS_NEW)
            )
        base_sharding = base_fig.get("sharding")
        cur_sharding = cur_fig.get("sharding")
        if isinstance(base_sharding, dict) and isinstance(cur_sharding, dict):
            for metric in sorted(set(base_sharding) & set(cur_sharding)):
                b, c = base_sharding.get(metric), cur_sharding.get(metric)
                if b is None or c is None:
                    continue
                try:
                    b, c = float(b), float(c)
                except (TypeError, ValueError):
                    report.warnings.append(
                        f"figure {fig_name!r}: sharding metric {metric!r} "
                        f"is not numeric; skipped"
                    )
                    continue
                if b != b or c != c:
                    continue
                # points_read is simulated and deterministic: gate tightly.
                status = _classify(
                    b, c, thresholds.rel_io, thresholds.abs_points
                )
                report.findings.append(
                    Finding(fig_name, "sharding", metric, b, c, status)
                )
    for fig_name in sorted(set(cur_figures) - set(base_figures)):
        report.warnings.append(
            f"figure {fig_name!r} is new in the current snapshot "
            f"(no baseline to compare against)"
        )
        report.findings.append(Finding(fig_name, "*", "*", None, None, STATUS_NEW))
    return report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """CLI: compare two ``BENCH_*.json`` snapshots; non-zero on regression."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regress",
        description="Compare two BENCH_*.json snapshots for regressions.",
    )
    parser.add_argument("baseline", metavar="BASELINE_JSON")
    parser.add_argument("current", metavar="CURRENT_JSON")
    defaults = Thresholds()
    parser.add_argument("--rel-io", type=float, default=defaults.rel_io,
                        help=f"relative tolerance for I/O metrics (default {defaults.rel_io})")
    parser.add_argument("--abs-points", type=float, default=defaults.abs_points,
                        help=f"absolute floor for points_read deltas (default {defaults.abs_points})")
    parser.add_argument("--abs-rq", type=float, default=defaults.abs_range_queries,
                        help=f"absolute floor for range_queries deltas (default {defaults.abs_range_queries})")
    parser.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    parser.add_argument("--verbose", action="store_true",
                        help="list within-noise metrics too")
    parser.add_argument("--allow-scale-mismatch", action="store_true",
                        help="compare snapshots from different REPRO_BENCH_SCALEs")
    try:
        opts = parser.parse_args(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    thresholds = Thresholds(
        rel_io=opts.rel_io,
        abs_points=opts.abs_points,
        abs_range_queries=opts.abs_rq,
    )
    try:
        baseline = load_snapshot(opts.baseline)
        current = load_snapshot(opts.current)
        report = compare_snapshots(
            baseline,
            current,
            thresholds,
            require_same_scale=not opts.allow_scale_mismatch,
        )
    except SnapshotError as exc:
        print(f"error: {exc}")
        return 2
    print(report.render_text(verbose=opts.verbose))
    if opts.json:
        with open(opts.json, "w") as handle:
            json.dump(report.as_dict(), handle, indent=2)
        print(f"[report written to {opts.json}]")
    return 1 if report.has_regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
