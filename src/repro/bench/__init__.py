"""Benchmark harness regenerating the paper's evaluation (Section 7).

:mod:`repro.bench.harness` runs a query workload through each method and
aggregates the per-query statistics; :mod:`repro.bench.reporting` prints the
paper-style series.  The ``benchmarks/`` directory at the repository root
contains one pytest-benchmark module per paper figure, all built on this
package, and ``python -m repro.bench`` regenerates every figure's numbers as
text tables (see EXPERIMENTS.md).
"""

from repro.bench.harness import (
    MethodResult,
    bench_scale,
    make_cbcs,
    run_independent_workload,
    run_interactive_workload,
)
from repro.bench.reporting import format_series, format_table

__all__ = [
    "MethodResult",
    "bench_scale",
    "format_series",
    "format_table",
    "make_cbcs",
    "run_independent_workload",
    "run_interactive_workload",
]
