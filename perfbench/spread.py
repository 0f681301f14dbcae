#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the driver's form of the command once per seed on each workload and
reports, per (workload, metric), the median, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
and the largest value over the smallest.  A benchmark is steady when every
spread but ``setup_s``'s stays below a third of the metric's bound; two runs
agree in both directions when the range stays below the bound.  Three unbounded
rows follow per workload: the tail percentiles that were demoted from the
bounded metrics, and ``host.scale``, what the host-speed probe read in each run
(the factor already applied to the timings above it): how far the host moved.

The default is ten seeds, the held-out seed (1) not among them: it has its own
query geometry and sets no bound.  Naming one seed several times gives the
same-input repeat table.

    python perfbench/spread.py --out perfbench/results/spread.md
    python perfbench/spread.py --seeds 0 0 0 0 0 0 --out perfbench/results/repeat-seed0.md
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "perfbench" / "out" / "spread-run.json"
UNBOUNDED = ("query_p90_ms", "query_p95_ms", "host.scale")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, *range(2, 11)])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    lines = [
        f"seeds: {' '.join(map(str, args.seeds))}; run_seconds: {spec['run_seconds']}",
        "",
        "| workload | metric | median | spread (IQR/median) | range (max/min - 1) | bound | values |",
        "|---|---|---|---|---|---|---|",
    ]
    worst = widest = 0.0
    for name in names:
        values = {metric: [] for metric in [*bounds, *UNBOUNDED]}
        for seed in args.seeds:
            command = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
                "--out", str(RECORD),
            ]  # fmt: skip
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            with open(RECORD) as handle:
                unbounded = json.load(handle)["unbounded"]
            RECORD.unlink()
            for metric in UNBOUNDED:
                values[metric].append(unbounded[metric]["value"])
            print(f"{name} seed {seed} done", file=sys.stderr)
        for metric, series in values.items():
            median = statistics.median(series)
            quartiles = statistics.quantiles(series, n=4)
            spread = (quartiles[2] - quartiles[0]) / median
            extent = max(series) / min(series) - 1.0
            bound = bounds.get(metric)
            if bound is not None:
                if metric != "setup_s":
                    worst = max(worst, spread / bound)
                widest = max(widest, extent / bound)
            lines.append(
                f"| {name} | {metric} | {median:.5g} | {spread:.1%} | {extent:.1%} | "
                f"{'' if bound is None else format(bound, '.0%')} | "
                f"{' '.join(f'{v:.4g}' for v in series)} |"
            )
    lines += [
        "",
        f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}",
        f"largest range as a share of its bound: {widest:.2f}",
    ]
    text = "\n".join(lines) + "\n"
    print(text)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
