"""Human-readable summary of a metrics snapshot (``--obs-report``).

Renders the registry populated by an instrumented run -- or a saved
``metrics.json`` -- as the tables an experimenter actually wants to read:
queries per method, cache hit rate per strategy, the stable/unstable and
case a-d breakdowns, I/O totals, and p50/p95 stage latencies.

Pointed at a whole ``--obs`` output *directory*, it renders
``metrics.json`` and the ``trace.jsonl`` span counts, and warns (instead of
failing) about the artifacts a partial or interrupted run did not produce.
EXPLAIN records and the cost-model calibration have their own renderers:
``python -m repro.obs.explain DIR`` and ``python -m repro.bench
--calibration``.

Usage::

    python -m repro.obs.report out/metrics.json
    python -m repro.obs.report out/            # whole obs directory
    python -m repro.bench --obs out --obs-report fig5a
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.bench.reporting import format_table
from repro.obs.schema import check_version
from repro.obs.sinks import read_jsonl

Labeled = List[Tuple[Dict[str, str], Dict[str, float]]]


def _snapshot(metrics) -> dict:
    """Accept a MetricsRegistry, an ``as_dict()`` snapshot, or a JSON path."""
    if hasattr(metrics, "as_dict"):
        return metrics.as_dict()
    if isinstance(metrics, (str, bytes)) or hasattr(metrics, "read_text"):
        with open(metrics) as handle:
            return json.load(handle)
    return metrics


def _series(snapshot: dict, kind: str, name: str) -> Labeled:
    """All records of one metric, as ``(labels, record)`` pairs."""
    return [
        (rec.get("labels", {}), rec)
        for rec in snapshot.get(kind, [])
        if rec.get("name") == name
    ]


def _counter_map(snapshot: dict, name: str) -> Dict[tuple, float]:
    """Counter series keyed by sorted label items."""
    return {
        tuple(sorted(labels.items())): rec["value"]
        for labels, rec in _series(snapshot, "counters", name)
    }


def _label_values(records: Labeled, key: str) -> List[str]:
    seen: List[str] = []
    for labels, _ in records:
        value = labels.get(key, "")
        if value not in seen:
            seen.append(value)
    return seen


def render_report(metrics) -> str:
    """Render the per-run observability summary as aligned text tables."""
    snap = _snapshot(metrics)
    sections: List[str] = []

    queries = _series(snap, "counters", "queries_total")
    if queries:
        io_names = ("points_read", "pages_read", "seeks", "range_queries")
        io_maps = {n: _counter_map(snap, f"{n}_total") for n in io_names}
        rows = []
        for labels, rec in queries:
            method = labels.get("method", "?")
            key = (("method", method),)
            n = rec["value"]
            row = [method, int(n)]
            for name in io_names:
                total = io_maps[name].get(key, 0.0)
                row.append(total / n if n else float("nan"))
            rows.append(row)
        sections.append(
            format_table(
                ["method", "queries", "points/q", "pages/q", "seeks/q", "rq/q"],
                rows,
                title="Queries and I/O per method",
            )
        )

    lookups = _series(snap, "counters", "cache_lookups_total")
    if lookups:
        per_strategy: Dict[str, Dict[str, float]] = {}
        for labels, rec in lookups:
            entry = per_strategy.setdefault(
                labels.get("strategy", "?"), {"hit": 0.0, "miss": 0.0}
            )
            entry[labels.get("outcome", "miss")] = rec["value"]
        rows = []
        for strategy, entry in sorted(per_strategy.items()):
            total = entry["hit"] + entry["miss"]
            rate = entry["hit"] / total if total else float("nan")
            rows.append(
                [strategy, int(entry["hit"]), int(entry["miss"]), f"{rate:.1%}"]
            )
        sections.append(
            format_table(
                ["strategy", "hits", "misses", "hit rate"],
                rows,
                title="Cache lookups per strategy",
            )
        )

    stability = _series(snap, "counters", "query_stability_total")
    if stability:
        per_method: Dict[str, Dict[str, float]] = {}
        for labels, rec in stability:
            entry = per_method.setdefault(
                labels.get("method", "?"), {"stable": 0.0, "unstable": 0.0}
            )
            entry[labels.get("stable", "unstable")] = rec["value"]
        rows = []
        for method, entry in sorted(per_method.items()):
            total = entry["stable"] + entry["unstable"]
            share = entry["stable"] / total if total else float("nan")
            rows.append(
                [method, int(entry["stable"]), int(entry["unstable"]), f"{share:.1%}"]
            )
        sections.append(
            format_table(
                ["method", "stable", "unstable", "stable share"],
                rows,
                title="Stability of cache-hit queries",
            )
        )

    cases = _series(snap, "counters", "query_case_total")
    if cases:
        case_names = sorted(_label_values(cases, "case"))
        per_method = {}
        for labels, rec in cases:
            per_method.setdefault(labels.get("method", "?"), {})[
                labels.get("case", "?")
            ] = rec["value"]
        rows = [
            [method] + [int(entry.get(c, 0)) for c in case_names]
            for method, entry in sorted(per_method.items())
        ]
        sections.append(
            format_table(
                ["method"] + case_names, rows, title="Query case breakdown"
            )
        )

    stages = _series(snap, "histograms", "stage_ms")
    if stages:
        rows = []
        for labels, rec in stages:
            if not rec.get("count"):
                continue
            rows.append(
                [
                    labels.get("method", "?"),
                    labels.get("stage", "?"),
                    int(rec["count"]),
                    rec.get("mean", float("nan")),
                    rec.get("p50", float("nan")),
                    rec.get("p95", float("nan")),
                ]
            )
        if rows:
            sections.append(
                format_table(
                    ["method", "stage", "count", "mean ms", "p50 ms", "p95 ms"],
                    rows,
                    title="Stage latencies",
                )
            )

    rects = _series(snap, "histograms", "mpr_rectangles_per_query")
    if rects:
        rows = [
            [
                labels.get("region", "") or "-",
                int(rec.get("count", 0)),
                rec.get("mean", float("nan")),
                rec.get("p50", float("nan")),
                rec.get("p95", float("nan")),
                rec.get("max", float("nan")),
            ]
            for labels, rec in rects
        ]
        sections.append(
            format_table(
                ["region", "computations", "mean boxes", "p50", "p95", "max"],
                rows,
                title="MPR rectangles per computation",
            )
        )

    cache_rows = []
    for name in (
        "cache_insertions_total",
        "cache_evictions_total",
        "cache_refreshes_total",
        "cache_quarantined_total",
    ):
        for labels, rec in _series(snap, "counters", name):
            label = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            cache_rows.append([name, label or "-", int(rec["value"])])
    if cache_rows:
        sections.append(
            format_table(
                ["counter", "labels", "value"], cache_rows, title="Cache churn"
            )
        )

    resilience_rows = []
    for labels, rec in _series(snap, "counters", "faults_injected_total"):
        resilience_rows.append(
            [
                "faults injected",
                f"kind={labels.get('kind', '?')},op={labels.get('op', '?')}",
                int(rec["value"]),
            ]
        )
    for labels, rec in _series(snap, "counters", "storage_retries_total"):
        resilience_rows.append(
            ["storage retries", f"op={labels.get('op', '?')}", int(rec["value"])]
        )
    for labels, rec in _series(snap, "counters", "degraded_queries_total"):
        resilience_rows.append(
            [
                "degraded queries",
                f"method={labels.get('method', '?')},"
                f"rung={labels.get('rung', '?')}",
                int(rec["value"]),
            ]
        )
    for labels, rec in _series(snap, "counters", "stale_serves_total"):
        resilience_rows.append(
            [
                "stale serves",
                f"method={labels.get('method', '?')}",
                int(rec["value"]),
            ]
        )
    for labels, rec in _series(snap, "counters", "breaker_transitions_total"):
        resilience_rows.append(
            [
                "breaker transitions",
                f"{labels.get('from_state', '?')}->{labels.get('to_state', '?')}",
                int(rec["value"]),
            ]
        )
    if resilience_rows:
        sections.append(
            format_table(
                ["counter", "labels", "value"],
                resilience_rows,
                title="Resilience (faults, retries, degradation)",
            )
        )

    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)


def render_obs_dir(directory) -> Tuple[str, List[str], int]:
    """Render every artifact in an ``--obs`` directory.

    Returns ``(text, warnings, rendered_count)``.  Missing or unreadable
    artifacts produce warnings, never exceptions: a partial directory (an
    interrupted run) still yields a report from whatever is there.
    """
    directory = Path(directory)
    sections: List[str] = []
    warnings: List[str] = []

    def missing(name: str, why: str = "missing") -> None:
        warnings.append(f"warning: {directory / name}: {why}")

    def version_warning(record, name: str) -> None:
        warning = check_version(record, str(directory / name))
        if warning is not None:
            warnings.append(f"warning: {warning}")

    metrics_path = directory / "metrics.json"
    if metrics_path.is_file():
        try:
            with open(metrics_path) as handle:
                snap = json.load(handle)
            version_warning(snap, "metrics.json")
            sections.append(render_report(snap))
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            missing("metrics.json", f"unreadable ({exc})")
    else:
        missing("metrics.json")

    trace_path = directory / "trace.jsonl"
    if trace_path.is_file():
        try:
            spans = read_jsonl(trace_path)
            names: Dict[str, int] = {}
            correlated = 0
            for span in spans:
                names[str(span.get("name", "?"))] = (
                    names.get(str(span.get("name", "?")), 0) + 1
                )
                if (span.get("attrs") or {}).get("query_id"):
                    correlated += 1
            top = ", ".join(
                f"{n}: {c}"
                for n, c in sorted(names.items(), key=lambda kv: -kv[1])[:6]
            )
            sections.append(
                "# trace\n"
                f"spans: {len(spans)} ({correlated} carrying a query_id)\n"
                f"top names: {top or '-'}"
            )
        except (OSError, json.JSONDecodeError) as exc:
            missing("trace.jsonl", f"unreadable ({exc})")
    else:
        missing("trace.jsonl")

    if not (directory / "metrics.prom").is_file():
        missing("metrics.prom")

    return "\n\n".join(sections), warnings, len(sections)


def main(argv=None) -> int:
    """CLI: ``python -m repro.obs.report METRICS_JSON_OR_OBS_DIR``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description=(
            "Render the observability artifacts of an instrumented run: "
            "a metrics.json snapshot, or a whole --obs output directory."
        ),
    )
    parser.add_argument(
        "target", metavar="METRICS_JSON_OR_OBS_DIR",
        help="path to a metrics.json snapshot or an --obs directory",
    )
    try:
        opts = parser.parse_args(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    target = Path(opts.target)
    if target.is_dir():
        text, warnings, rendered = render_obs_dir(target)
        for warning in warnings:
            print(warning, file=sys.stderr)
        if rendered == 0:
            print(f"no readable observability artifacts in {target}")
            return 2
        print(text)
        return 0
    try:
        with open(target) as handle:
            snap = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read metrics snapshot {target}: {exc}")
        return 2
    warning = check_version(snap, str(target))
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)
    print(render_report(snap))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
