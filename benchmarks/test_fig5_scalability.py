"""Figure 5: scalability with dataset size (interactive, |D|=5).

Paper result: CBCS/aMPR scales significantly better than Baseline on all
three distributions; the stable-case curve is far below everything; BBS is
no better than Baseline on independent data.
"""

import math

import pytest

from repro.bench.experiments import fig5_scalability


def last(values):
    finite = [v for v in values if not math.isnan(v)]
    return finite[-1] if finite else float("nan")


@pytest.mark.parametrize(
    "distribution", ["independent", "correlated", "anticorrelated"]
)
def test_fig5(figure_runner, distribution):
    report = figure_runner(fig5_scalability, distribution=distribution)
    # simulated I/O: deterministic for a seed, so no noise slack
    times = report.series["io_ms"]

    # CBCS (aMPR) beats the Baseline on average at the largest size.
    assert last(times["aMPR"]) < last(times["Baseline"])
    # Stable cases are the cheap ones.
    if not math.isnan(last(times["aMPR (Stable)"])):
        assert last(times["aMPR (Stable)"]) <= last(times["aMPR"]) * 1.25

    reads = report.series["points_read"]
    # The core mechanism: the cache cuts points read from disk.
    assert last(reads["aMPR"]) < last(reads["Baseline"])


def test_fig5_bbs_not_better_than_baseline_on_independent(figure_runner):
    """Paper: 'BBS performs worse than Baseline ... consistently for
    independent data'."""
    report = figure_runner(fig5_scalability, distribution="independent", seed=3)
    times = report.series["io_ms"]
    assert last(times["BBS"]) > last(times["Baseline"]) * 0.8
