#!/usr/bin/env python3
"""The repo benchmark's one command.

Three forms::

    python perfbench/run.py --seed 0
        run all five workloads (one child process each, one after the other),
        print every metric by name with its unit, write
        perfbench/out/result-seed0.json; exits non-zero on any wrong answer

    python perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        the driver's form: one workload in this process; the last line of
        standard output is one JSON object (end-to-end metrics with --trace 0,
        per-layer metrics with --trace 1)

    python perfbench/run.py --compare A B
        per (metric, workload) change from A to B against the bounds in
        BENCHMARK.json; exits non-zero on a breach.  A and B are result files,
        or directories of result files (a set of runs, compared by its medians)
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    # Import as the ``perfbench`` package from the checkout root: with the
    # script's own directory first on the path, trace.py would shadow the
    # standard library's ``trace``.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# one workload, this process
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT))
    try:
        workload = WORKLOADS[name](seed)
        record = measure.measure(
            workload,
            seconds,
            trace,
            tmp,
            trace_path=OUT / f"trace-{name}.jsonl" if trace else None,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["seed"] = seed
    record["seconds"] = seconds
    return record


def driver_line(record: dict, trace: bool) -> str:
    """The contract's result object: exactly the declared metrics of one kind."""
    spec = _benchmark()
    source = record["per_layer"] if trace else record["end_to_end"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m["name"]: source[m["name"]] for m in declared},
        }
    )


# ----------------------------------------------------------------------
# all workloads, one child each
# ----------------------------------------------------------------------
def _print_metrics(title: str, metrics: dict) -> None:
    print(f"  {title}")
    for name, metric in metrics.items():
        print(f"    {name:<40} {metric['value']:>14.6g} {metric['unit']}")


def print_record(record: dict) -> None:
    print(
        f"\n== {record['workload']}  seed={record['seed']}  ops/pass={record['ops']}  "
        f"passes={record['passes']}  failed={record['failed']}/{record['attempted']}"
    )
    print(f"  params: {json.dumps(record['params'])}")
    _print_metrics("end to end (noise floor over passes)", record["end_to_end"])
    _print_metrics("end to end, unbounded (reported with the per-layer metrics)", record["unbounded"])
    for key, values in record["per_pass"].items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(
            f"  per pass {key}: median {median:.4g}  quartiles {q1:.4g} .. {q3:.4g}  "
            f"min {min(values):.4g}  (n={len(values)})"
        )
    if "per_layer" in record:
        _print_metrics("per layer (one traced pass)", record["per_layer"])


def run_suite(seed: int, seconds: float, out: Path) -> int:
    spec = _benchmark()
    results = {}
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in spec["workloads"]:
        name = workload["name"]
        part = OUT / f"part-{name}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1", "--out", str(part),
        ]  # fmt: skip
        part.unlink(missing_ok=True)
        done = subprocess.run(command, stdout=subprocess.DEVNULL)
        # a child that found wrong answers exits 1 too, but leaves its record:
        # only a child without one has crashed
        if not part.exists():
            print(f"perfbench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        with open(part) as handle:
            results[name] = json.load(handle)
        part.unlink()
        print_record(results[name])
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"seed": seed, "seconds": seconds, "workloads": results}, handle, indent=1)
    print(f"\nwrote {out}")
    failed = sum(r["failed"] for r in results.values())
    if failed:
        print(f"perfbench: {failed} ops disagreed with the oracle", file=sys.stderr)
    return 1 if failed else 0


# ----------------------------------------------------------------------
# compare two result files
# ----------------------------------------------------------------------
def _load_set(path: str) -> dict:
    """One result file, or a directory of them (one set of runs): per workload,
    the median of every end-to-end metric over the set and the failed ops summed."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    if not files:
        sys.exit(f"perfbench: no result files in {path}")
    runs = []
    for file in files:
        with open(file) as handle:
            runs.append(json.load(handle)["workloads"])
    merged = {}
    for name in runs[0]:
        records = [run[name] for run in runs if name in run]
        merged[name] = {
            "failed": sum(r["failed"] for r in records),
            "end_to_end": {
                key: statistics.median(r["end_to_end"][key]["value"] for r in records)
                for key in records[0]["end_to_end"]
            },
        }
    return merged


def compare(path_a: str, path_b: str) -> int:
    """B against A: worse by more than the metric's bound is a breach.  Two sets
    of runs of the same code agree when this passes in both orders."""
    spec = _benchmark()
    a, b = _load_set(path_a), _load_set(path_b)
    breaches = 0
    print(f"{'workload':<18}{'metric':<24}{'A':>12}{'B':>12}{'worse by':>10}{'bound':>8}")
    for name in a:
        if name not in b:
            print(f"{name:<18}missing from {path_b}")
            breaches += 1
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va, vb = a[name]["end_to_end"][key], b[name]["end_to_end"][key]
            worse = (vb - va) / va if metric["better"] == "lower" else (va - vb) / va
            breach = worse > metric["bound"]
            breaches += breach
            print(
                f"{name:<18}{key:<24}{va:>12.5g}{vb:>12.5g}{worse:>+10.1%}"
                f"{metric['bound']:>8.0%}{'  BREACH' if breach else ''}"
            )
        if b[name]["failed"]:
            print(f"{name:<18}{b[name]['failed']} failed ops in {path_b}  BREACH")
            breaches += 1
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result record here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds if args.seconds is not None else float(_benchmark()["run_seconds"])
    if args.workload is None:
        return run_suite(args.seed, seconds, args.out or OUT / f"result-seed{args.seed}.json")

    record = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
    print_record(record)
    print(driver_line(record, bool(args.trace)))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
