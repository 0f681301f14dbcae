"""Regenerate the paper's figures as text tables.

Usage::

    python -m repro.bench                 # every figure at the active scale
    python -m repro.bench fig5a fig9b     # selected figures
    python -m repro.bench --json out.json fig5a   # also dump raw series
    python -m repro.bench --svg charts/ fig5a     # also render SVG charts
    python -m repro.bench --obs out/ fig5a        # metrics.json + trace.jsonl
    python -m repro.bench --query-log q.jsonl fig5a     # per-query structured log
    python -m repro.bench --save-bench BENCH_ci.json fig5a   # performance snapshot
    python -m repro.bench --obs out/ --explain fig5a    # explain.jsonl provenance
    python -m repro.bench --calibration fig5a     # predicted-vs-actual MARE
    REPRO_BENCH_SCALE=default python -m repro.bench

Scales: quick (default; seconds per figure), default (minutes), full
(closest to paper scale).  Results and the paper-vs-measured comparison are
recorded in EXPERIMENTS.md; ``BENCH_*.json`` snapshots are compared by
``python -m repro.bench.regress``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext

from repro.bench import soak
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import activate_faults, bench_scale
from repro.obs import activate

#: flag -> (scenario in :mod:`repro.bench.soak`, exit code when it fails).
#: Soaks run in this order after the figures; the highest failing code wins.
SOAKS = {
    "chaos": ("chaos", 4),
    "overload": ("overload", 6),
    "shard_sweep": ("shards", 7),
    "crash_drill": ("crash", 5),
}


def _build_obs(obs_dir, query_log=None):
    """Create an Observability writing trace.jsonl under ``obs_dir``."""
    from pathlib import Path

    from repro.obs import MetricsRegistry, Observability, Tracer
    from repro.obs.sinks import JsonlSink

    obs = Observability(metrics=MetricsRegistry(), tracer=Tracer())
    if obs_dir is not None:
        out_dir = Path(obs_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        obs.tracer.add_sink(JsonlSink(out_dir / "trace.jsonl"))
    if query_log is not None:
        obs.add_outcome_sink(JsonlSink(query_log))
    return obs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures as text tables.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help="figure ids to run (default: all); see --list",
    )
    parser.add_argument("--list", action="store_true", help="list figure ids and exit")
    parser.add_argument("--json", metavar="PATH", help="dump raw series as JSON")
    parser.add_argument("--svg", metavar="DIR", help="render SVG charts into DIR")
    parser.add_argument(
        "--obs", metavar="DIR",
        help="write metrics.json and trace.jsonl into DIR",
    )
    parser.add_argument(
        "--query-log", metavar="PATH",
        help="append one structured JSON record per query to PATH",
    )
    parser.add_argument(
        "--save-bench", metavar="PATH",
        help="serialize this run as a BENCH_*.json snapshot "
             "(PATH may be a file or a directory)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="record per-query planner decision provenance (candidates "
             "considered, per-box predicted vs actual cost) to "
             "DIR/explain.jsonl; requires --obs DIR",
    )
    parser.add_argument(
        "--calibration", action="store_true",
        help="aggregate predicted-vs-actual cost-model error (MARE per "
             "stage/case/strategy) over the run; printed at the end and, "
             "with --obs DIR, written to DIR/calibration.json",
    )
    parser.add_argument(
        "--faults", metavar="PROFILE",
        help="inject storage faults into CBCS engines during figure runs "
             "(profiles: none, default, heavy); engines run with the "
             "resilience layer enabled",
    )
    parser.add_argument(
        "--workers", metavar="N", type=int,
        help="with --overload: how many queries the soak's QueryService "
             "runs at once (default and minimum 2)",
    )
    parser.add_argument(
        "--chaos", metavar="N", type=int,
        help="run an N-query chaos soak (fault-injected mixed workload with "
             "reference-checked answers and a circuit-breaker drill); exits "
             "4 if the soak fails.  Without explicit FIGUREs, runs the soak "
             "alone",
    )
    parser.add_argument(
        "--overload", metavar="N", type=int,
        help="run an N-request open-loop overload soak at 4x the calibrated "
             "per-query saturation rate, about 2x as served since about half "
             "the stream coalesces (zipf-skewed multi-user stream through the "
             "QueryService ingress: admission control, coalescing, "
             "deadlines); exits 6 if accounting leaks, an admitted answer "
             "differs from the reference, or p99 is unbounded.  Without "
             "explicit FIGUREs, runs the soak alone",
    )
    parser.add_argument(
        "--shard-sweep", metavar="N", type=int,
        help="run an N-query-per-cell sweep of one engine over two tables "
             "(seeds x shard counts {1,2,4,8} x strategies: CBCS over a "
             "ShardedTable must answer, and read, like CBCS over the plain "
             "table, byte for byte at one shard; with --faults, one shard "
             "is faulted and every non-stale answer is checked against the "
             "reference skyline); exits 7 on failure.  Without explicit "
             "FIGUREs, runs the sweep alone",
    )
    parser.add_argument(
        "--crash-drill", action="store_true",
        help="run the seeded crash-recovery drill: kill a durable engine at "
             "armed crash points mid-write, recover from the WAL, and check "
             "answers against the reference skyline of the committed rows; "
             "exits 5 on failure",
    )
    parser.add_argument(
        "--crash-out", metavar="DIR",
        help="keep the crash drill's durability/WAL directories and write "
             "recovery_report.json under DIR (CI artifacts)",
    )
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        opts = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if opts.list:
        print("\n".join(ALL_EXPERIMENTS))
        return 0
    if opts.chaos is not None and opts.chaos < 1:
        print("--chaos needs a positive query count")
        return 2
    if opts.overload is not None and opts.overload < 1:
        print("--overload needs a positive request count")
        return 2
    if opts.shard_sweep is not None and opts.shard_sweep < 1:
        print("--shard-sweep needs a positive query count")
        return 2
    if opts.workers is not None and opts.overload is None:
        print("--workers sizes the --overload soak's QueryService; "
              "it needs --overload N")
        return 2
    if opts.workers is not None and opts.workers < 2:
        parser.print_usage()
        print("--workers needs at least 2 workers")
        return 2
    if opts.explain and opts.obs is None:
        print("--explain needs --obs DIR (explain.jsonl lives there)")
        return 2
    soaks = [flag for flag in SOAKS if getattr(opts, flag)]
    if opts.figures:
        names = list(opts.figures)
    elif soaks:
        names = []  # soak-only run
    else:
        names = list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; available: {list(ALL_EXPERIMENTS)}")
        return 2

    obs = None
    if (
        opts.obs is not None
        or opts.query_log is not None
        or opts.save_bench is not None
        or opts.explain
        or opts.calibration
    ):
        obs = _build_obs(opts.obs, query_log=opts.query_log)

    ledger = None
    if opts.explain or opts.calibration:
        from repro.obs.calibration import CalibrationLedger
        from repro.obs.explain import ExplainRecorder
        from repro.obs.sinks import JsonlSink

        ledger = CalibrationLedger()
        explain_sink = None
        if opts.explain:
            from pathlib import Path

            explain_sink = JsonlSink(Path(opts.obs) / "explain.jsonl")
        obs.explainer = ExplainRecorder(sink=explain_sink, ledger=ledger)

    if opts.faults is not None:
        from repro.storage.faults import PROFILES

        if opts.faults not in PROFILES:
            print(
                f"unknown fault profile {opts.faults!r}; "
                f"available: {sorted(PROFILES)}"
            )
            return 2

    print(f"# repro benchmark run (scale={bench_scale()})\n")
    dump = {"scale": bench_scale(), "figures": {}}
    figure_summaries = {}
    figure_failures = []
    soak_failures = {}
    cumulative = obs.metrics if obs is not None else None
    faults_ctx = (
        nullcontext() if opts.faults is None else activate_faults(opts.faults)
    )
    with (
        activate(obs) if obs is not None else nullcontext()
    ), faults_ctx:
        for name in names:
            if obs is not None:
                # Fresh registry per figure: its distillate feeds the
                # BENCH_*.json snapshot, then merges into the cumulative
                # registry behind metrics.json.
                from repro.obs import MetricsRegistry

                obs.metrics = MetricsRegistry()
            start = time.perf_counter()
            try:
                report = ALL_EXPERIMENTS[name]()
            except Exception as exc:
                elapsed = time.perf_counter() - start
                figure_failures.append(name)
                print(
                    f"[{name} FAILED after {elapsed:.1f}s: "
                    f"{type(exc).__name__}: {exc}]\n"
                )
                if obs is not None:
                    cumulative.merge(obs.metrics)
                continue
            elapsed = time.perf_counter() - start
            print(str(report))
            print(f"[{name} regenerated in {elapsed:.1f}s]\n")
            dump["figures"][name] = {
                "title": report.title,
                "seconds": round(elapsed, 2),
                "series": json.loads(json.dumps(report.series, default=float)),
            }
            if obs is not None:
                from repro.bench.regress import summarize_registry

                figure_summaries[name] = {
                    "title": report.title,
                    "seconds": round(elapsed, 2),
                    **summarize_registry(obs.metrics),
                }
                cumulative.merge(obs.metrics)
            if opts.svg is not None:
                from pathlib import Path

                from repro.bench.svg import render_figure

                svg = render_figure(report)
                if svg is not None:
                    out_dir = Path(opts.svg)
                    out_dir.mkdir(parents=True, exist_ok=True)
                    target = out_dir / f"{name}.svg"
                    target.write_text(svg)
                    print(f"[chart written to {target}]")
        if obs is not None:
            obs.metrics = cumulative
        for flag in soaks:
            scenario, code = SOAKS[flag]
            # Without --faults each scenario keeps its own default profile.
            kwargs = {} if opts.faults is None else {"profile": opts.faults}
            if scenario == "crash":
                kwargs["out_dir"] = opts.crash_out
            else:
                kwargs.update(n=getattr(opts, flag), obs=obs)
            if scenario == "overload":
                kwargs["workers"] = opts.workers or 2
            report = getattr(soak, scenario)(**kwargs)
            print(report.render_text())
            print()
            if opts.json is not None:
                dump[flag] = report.as_dict()
            if not report.passed:
                soak_failures[scenario] = code

    if opts.json is not None:
        from repro.ioutil import atomic_write_json

        atomic_write_json(opts.json, dump)
        print(f"[series written to {opts.json}]")

    exit_code = 0
    if opts.save_bench is not None:
        from repro.bench.regress import build_snapshot, save_snapshot

        snapshot = build_snapshot(
            scale=bench_scale(),
            figures=figure_summaries,
            # the snapshot's predicted-vs-actual block: one source, the ledger
            calibration=ledger.summary() if ledger is not None else None,
        )
        written = save_snapshot(snapshot, opts.save_bench)
        print(f"[bench snapshot written to {written}]")

    if obs is not None:
        if obs.explainer is not None:
            obs.explainer.close()
        obs.close()
        if opts.obs is not None:
            from pathlib import Path

            out_dir = Path(opts.obs)
            metrics_path = out_dir / "metrics.json"
            obs.metrics.save_json(metrics_path)
            print(f"[metrics written to {metrics_path}]")
            print(f"[trace written to {out_dir / 'trace.jsonl'}]")
            if opts.explain:
                print(
                    f"[explain records written to {out_dir / 'explain.jsonl'}"
                    f" ({obs.explainer.records_emitted} queries)]"
                )
            if ledger is not None:
                calibration_path = out_dir / "calibration.json"
                ledger.save_json(calibration_path)
                print(f"[calibration written to {calibration_path}]")
        if opts.query_log is not None:
            print(f"[query log written to {opts.query_log}]")
        if opts.calibration:
            from repro.obs.calibration import render_calibration

            print()
            print(render_calibration(ledger.summary()))
            print()
    # Distinct exit codes: 2 usage error, 3 a figure run failed
    # mid-workload, 4-7 a soak failed (SOAKS); the highest wins.
    if figure_failures:
        print(f"[{len(figure_failures)} figure(s) failed: {figure_failures}]")
        exit_code = 3
    for scenario, code in soak_failures.items():
        print(f"[{scenario} soak FAILED]")
        exit_code = max(exit_code, code)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
