"""Tests for directory-mode obs reporting (partial dirs must not traceback)."""

import json

import numpy as np
import pytest

from repro.core.cbcs import CBCS
from repro.geometry.constraints import Constraints
from repro.obs import Observability
from repro.obs.report import main, render_obs_dir, render_report
from repro.obs.sinks import JsonlSink
from repro.storage.table import DiskTable


def _write_metrics_json(directory):
    obs = Observability()
    rng = np.random.default_rng(0)
    engine = CBCS(DiskTable(rng.random((500, 3)), obs=obs), obs=obs)
    for _ in range(4):
        engine.query(
            Constraints(lo=rng.random(3) * 0.3, hi=0.5 + rng.random(3) * 0.5)
        )
    path = directory / "metrics.json"
    path.write_text(json.dumps(obs.metrics.as_dict()))
    engine.close()
    return path


class TestRenderObsDir:
    def test_empty_dir_warns_for_every_artifact(self, tmp_path):
        text, warnings, rendered = render_obs_dir(tmp_path)
        assert rendered == 0
        assert text == ""
        warned = "\n".join(warnings)
        for name in ("metrics.json", "trace.jsonl", "metrics.prom"):
            assert name in warned
        assert all(w.startswith("warning: ") for w in warnings)

    def test_partial_dir_renders_what_exists(self, tmp_path):
        _write_metrics_json(tmp_path)
        text, warnings, rendered = render_obs_dir(tmp_path)
        assert rendered == 1
        assert "Queries and I/O per method" in text
        warned = "\n".join(warnings)
        assert "trace.jsonl" in warned and "metrics.json" not in warned

    def test_corrupt_metrics_is_a_warning_not_a_traceback(self, tmp_path):
        (tmp_path / "metrics.json").write_text("{not json")
        text, warnings, rendered = render_obs_dir(tmp_path)
        assert rendered == 0
        assert any(
            "metrics.json" in w and "unreadable" in w for w in warnings
        )

    def test_trace_section(self, tmp_path):
        trace = JsonlSink(tmp_path / "trace.jsonl")
        trace.emit({"name": "cbcs.query", "attrs": {"query_id": "q1"}})
        trace.emit({"name": "table.range_query", "attrs": {}})
        trace.close()
        text, warnings, rendered = render_obs_dir(tmp_path)
        assert rendered == 1
        assert "# trace" in text and "1 carrying a query_id" in text


class TestCLI:
    def test_directory_mode_success(self, tmp_path, capsys):
        _write_metrics_json(tmp_path)
        assert main([str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "Queries and I/O per method" in captured.out
        assert "warning:" in captured.err  # missing trace.jsonl etc.

    def test_directory_mode_nothing_renderable(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 2
        assert "no readable observability artifacts" in capsys.readouterr().out

    def test_single_file_mode_unchanged(self, tmp_path, capsys):
        path = _write_metrics_json(tmp_path)
        assert main([str(path)]) == 0
        assert "Queries and I/O per method" in capsys.readouterr().out

    def test_single_file_mode_bad_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestRenderReportStillWorksOnRegistry:
    def test_registry_object_accepted(self):
        obs = Observability()
        rng = np.random.default_rng(1)
        engine = CBCS(DiskTable(rng.random((300, 3)), obs=obs), obs=obs)
        engine.query(Constraints(lo=np.zeros(3), hi=np.full(3, 0.6)))
        text = render_report(obs.metrics)
        assert "Queries and I/O per method" in text
        engine.close()
