"""Figure 11: cache search strategies (interactive and independent).

Paper result: overlap-guided strategies clearly beat Random;
PrioritizednD(Bad) demonstrates that mis-weighted case scores hurt.
Exact strategy rankings vary with scale and noise, so the assertions stay
on the paper's robust claims.
"""

import pytest

from repro.bench.experiments import fig11_strategies


@pytest.mark.parametrize("workload", ["interactive", "independent"])
def test_fig11(figure_runner, workload):
    report = figure_runner(fig11_strategies, workload=workload)
    # simulated I/O per query; CPU wall is reported beside it
    means = {name: s["mean"] for name, s in report.series["io_ms"].items()}

    # Overlap as a guiding factor beats blind choice (paper: "there is a
    # clear benefit in using overlap as a guiding factor").
    overlap_best = min(means["MaxOverlap"], means["MaxOverlapSP"])
    assert overlap_best <= means["Random"] * 1.1

    # All strategies answered the full workload.
    expected = 6 if workload == "independent" else 7
    assert len(means) == expected
