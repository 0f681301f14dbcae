"""Figure 10: per-stage cost (processing / fetching / skyline) by case.

Paper result: Baseline has no processing stage but long fetching; aMPR
case 2 (upper bound decreased) has no fetching or skyline stage at all;
case 3 fetches significantly less than case 1 thanks to dominance pruning.
The paper's fetching stage is disk-bound, so its claims are checked on the
simulated fetch I/O column (``fetch_io``), not on in-process fetch CPU.
"""

from repro.bench.experiments import fig10_stage_breakdown


def test_fig10(figure_runner):
    report = figure_runner(fig10_stage_breakdown)
    stages = report.series["stages"]

    # "Baseline has no processing stage, but suffers long fetching."
    assert stages["Baseline"]["processing"] == 0.0
    assert stages["Baseline"]["fetch_io"] > 0.0

    # "aMPR Case 2 has no fetching stage or computation stage."
    if "aMPR Case 2" in stages:
        assert stages["aMPR Case 2"]["fetch_io"] < 1.0
        assert stages["aMPR Case 2"]["skyline"] < 1.0

    # "aMPR Case 3 shows ... a significantly smaller fetching stage than
    # both Baseline and aMPR Case 1."
    if "aMPR Case 3" in stages and "aMPR Case 1" in stages:
        case3 = stages["aMPR Case 3"]["fetch_io"]
        assert case3 < stages["Baseline"]["fetch_io"]
        assert case3 <= stages["aMPR Case 1"]["fetch_io"] * 1.5
