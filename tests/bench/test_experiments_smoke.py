"""Smoke tests for the figure experiments at quick scale.

The full runs live under ``benchmarks/``; these tests only verify that each
experiment function produces a well-formed report, so a broken experiment
fails fast in the unit suite.
"""

import pytest

from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    FigureReport,
    fig9_range_queries,
    fig10_stage_breakdown,
    fig11_strategies,
)


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {
            "fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8",
            "fig9a", "fig9b", "fig10", "fig11a", "fig11b",
            "fig12a", "fig12b", "warmstart", "serving", "sharding",
            "ablation-replacement", "ablation-invalidation",
            "ablation-skyline-algorithm", "ablation-page-cache",
            "ablation-cost-strategy",
        }
        assert expected == set(ALL_EXPERIMENTS)

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            fig9_range_queries("batch")
        with pytest.raises(ValueError):
            fig11_strategies("batch")


class TestReports:
    def test_fig9_report_structure(self):
        report = fig9_range_queries("interactive")
        assert isinstance(report, FigureReport)
        assert report.figure == "fig9a"
        assert "MPR" in report.series["range_queries"]
        assert len(report.series["dims"]) == len(
            report.series["range_queries"]["MPR"]
        )
        assert report.text.strip()
        assert str(report).startswith("== fig9a")

    def test_fig10_report_structure(self):
        report = fig10_stage_breakdown()
        stages = report.series["stages"]
        assert "Baseline" in stages
        for breakdown in stages.values():
            assert set(breakdown) == {
                "processing", "fetch_io", "fetch_wall", "skyline"
            }
        # no column adds the simulated fetch I/O to the measured stages
        assert "total" not in report.text

    def test_fig11_report_structure(self):
        report = fig11_strategies("interactive")
        io_ms, wall_ms = report.series["io_ms"], report.series["wall_ms"]
        assert "Random" in io_ms
        assert all("mean" in s for s in io_ms.values())
        assert set(wall_ms) == set(io_ms)
