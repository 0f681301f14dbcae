"""Figure 12: the Danish real-estate workload (synthetic substitute, 4-D).

Paper result (interactive): aMPR is superior to both Baseline and BBS, with
BBS several times slower than Baseline.  (Independent): performance depends
strongly on the number of aMPR neighbours; BBS is the stable-but-slow
reference.
"""

import pytest

from repro.bench.experiments import fig12_real_data


def test_fig12a_interactive(figure_runner):
    report = figure_runner(fig12_real_data, workload="interactive")
    # simulated I/O per query; CPU wall is reported beside it
    means = {name: s["mean"] for name, s in report.series["io_ms"].items()}

    # aMPR beats Baseline, Baseline beats BBS (paper: BBS ~2.2s vs
    # Baseline ~0.45s vs aMPR below both).
    assert means["aMPR"] < means["Baseline"]
    assert means["Baseline"] < means["BBS"]

    # Stable cases are cheap.
    assert means["aMPR (Stable)"] <= means["aMPR"] * 1.25


def test_fig12b_independent(figure_runner):
    report = figure_runner(fig12_real_data, workload="independent")
    means = {name: s["mean"] for name, s in report.series["io_ms"].items()}

    # All three aMPR variants ran, and every cache-based variant beats BBS
    # on this workload (the paper's 5/10-NN variants "greatly outperform"
    # BBS; at reduced scale we assert the weaker common claim).
    for k in (1, 5, 10):
        assert f"aMPR ({k}p)" in means
        assert means[f"aMPR ({k}p)"] < means["BBS"]
