"""Figure 6: exact MPR vs aMPR (independent, |D|=3, interactive).

Paper result: both cache-based variants beat Baseline; stable-case exact
MPR is the cheapest of all (it prunes the most), while unstable exact MPR
suffers from the many invalidation range queries.
"""

import math

import pytest

from repro.bench.experiments import fig6_mpr_vs_ampr


def last(values):
    finite = [v for v in values if not math.isnan(v)]
    return finite[-1] if finite else float("nan")


def test_fig6(figure_runner):
    report = figure_runner(fig6_mpr_vs_ampr)
    times = report.series["io_ms"]  # simulated I/O
    reads = report.series["points_read"]

    assert last(times["aMPR"]) < last(times["Baseline"])

    # The exact MPR is minimal: it never reads more points than the aMPR,
    # and both read fewer than Baseline.
    assert last(reads["MPR"]) <= last(reads["aMPR"]) + 1e-9
    assert last(reads["aMPR"]) < last(reads["Baseline"])


@pytest.mark.xfail(
    strict=True,
    reason="the exact MPR's many small boxes cost more seeks than the "
    "Baseline's one scan; ROADMAP item 2 (the full cost rule: coalesce "
    "whenever predicted io_ms falls) is what should clear it",
)
def test_fig6_mpr_beats_baseline(figure_runner):
    times = figure_runner(fig6_mpr_vs_ampr).series["io_ms"]
    assert last(times["MPR"]) < last(times["Baseline"])
