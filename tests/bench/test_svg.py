"""Tests for the SVG chart renderer."""

import math

import pytest

from repro.bench.experiments import FigureReport
from repro.bench.svg import bar_chart, line_chart, render_figure


class TestLineChart:
    def test_basic_structure(self):
        svg = line_chart(
            "Title", "|S|", [10, 20, 30],
            {"A": [1.0, 2.0, 3.0], "B": [3.0, 2.0, 1.0]},
            y_label="ms",
        )
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<polyline") == 2
        assert "Title" in svg
        assert "|S|" in svg

    def test_nan_values_skipped(self):
        svg = line_chart(
            "T", "x", [1, 2, 3], {"A": [1.0, math.nan, 3.0]}
        )
        # two finite points still drawn as circles, polyline still possible
        assert svg.count("<circle") == 2

    def test_log_scale_excludes_nonpositive(self):
        svg = line_chart("T", "x", [1, 2], {"A": [0.0, 100.0]}, log_y=True)
        assert svg.count("<circle") == 1

    def test_empty_series(self):
        svg = line_chart("T", "x", [], {})
        assert "no data" in svg

    def test_escapes_markup(self):
        svg = line_chart("a < b & c", "x", [1, 2], {"s<1>": [1.0, 2.0]})
        assert "a &lt; b &amp; c" in svg
        assert "s&lt;1&gt;" in svg


class TestBarChart:
    def test_basic_structure(self):
        svg = bar_chart(
            "Bars", ["one", "two"], {"m": [1.0, 2.0], "n": [2.0, 1.0]}
        )
        # 4 data bars + 2 legend swatches
        assert svg.count("<rect") >= 6
        assert "one" in svg and "two" in svg

    def test_empty(self):
        assert "no data" in bar_chart("T", [], {})


class TestRenderFigure:
    def test_size_series(self):
        report = FigureReport(
            figure="fig5a", title="t", text="",
            series={"sizes": [10, 20], "io_ms": {"A": [1.0, 2.0]},
                    "wall_ms": {"A": [0.1, 0.2]}},
        )
        svg = render_figure(report)
        assert "<polyline" in svg and "simulated I/O" in svg

    def test_dims_series_log(self):
        report = FigureReport(
            figure="fig9a", title="t", text="",
            series={"dims": [2, 3], "range_queries": {"MPR": [5.0, 100.0]}},
        )
        svg = render_figure(report)
        assert "log" in svg

    def test_stage_series(self):
        report = FigureReport(
            figure="fig10", title="t", text="",
            series={"stages": {"Baseline": {
                "processing": 0.0, "fetch_io": 3.0, "fetch_wall": 1.0,
                "skyline": 2.0}}},
        )
        assert "<rect" in render_figure(report)

    def test_mean_series(self):
        report = FigureReport(
            figure="fig11a", title="t", text="",
            series={"io_ms": {"Random": {"mean": 5.0, "median": 4.0}},
                    "wall_ms": {"Random": 0.5}},
        )
        svg = render_figure(report)
        assert "<rect" in svg and "io_ms" in svg and "wall_ms" in svg

    def test_unknown_shape_returns_none(self):
        report = FigureReport(figure="x", title="t", text="", series={"odd": 1})
        assert render_figure(report) is None
