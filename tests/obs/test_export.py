"""Tests for the OpenMetrics exporter and the per-query structured log."""

import json

import numpy as np
import pytest

from repro.obs import Observability
from repro.obs.export import main, render_openmetrics, save_openmetrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import JsonlSink, read_jsonl
from repro.stats import QueryOutcome


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc("queries_total", 3, method="Baseline")
    reg.inc("cache_lookups_total", 2, strategy="MaxOverlapSP", outcome="hit")
    reg.set_gauge("cache_items", 7)
    for v in (1.0, 2.0, 3.0):
        reg.observe("query_wall_ms", v, method="Baseline")
    return reg


class TestRenderOpenMetrics:
    def test_counter_family_and_total_suffix(self):
        text = render_openmetrics(populated_registry())
        assert "# TYPE repro_queries counter" in text
        assert 'repro_queries_total{method="Baseline"} 3' in text

    def test_gauge_and_summary(self):
        text = render_openmetrics(populated_registry())
        assert "# TYPE repro_cache_items gauge" in text
        assert "repro_cache_items 7" in text
        assert "# TYPE repro_query_wall_ms summary" in text
        assert 'repro_query_wall_ms{method="Baseline",quantile="0.5"} 2' in text
        assert 'repro_query_wall_ms_count{method="Baseline"} 3' in text
        assert 'repro_query_wall_ms_sum{method="Baseline"} 6' in text

    def test_ends_with_eof_marker(self):
        assert render_openmetrics(populated_registry()).endswith("# EOF\n")

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.inc("weird_total", method='a"b\\c\nd')
        text = render_openmetrics(reg)
        assert 'method="a\\"b\\\\c\\nd"' in text

    @pytest.mark.parametrize(
        "raw, escaped",
        [
            ('say "hi"', 'say \\"hi\\"'),
            ("back\\slash", "back\\\\slash"),
            ("line\nbreak", "line\\nbreak"),
            ("\\n", "\\\\n"),  # a literal backslash-n is not a newline
            ("plain", "plain"),
        ],
    )
    def test_label_value_escaping_cases(self, raw, escaped):
        reg = MetricsRegistry()
        reg.inc("edge_total", method=raw)
        assert f'method="{escaped}"' in render_openmetrics(reg)

    def test_escaping_applies_to_gauges_and_summaries_too(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0, label='v"1\n')
        reg.observe("h_ms", 2.0, stage="a\\b")
        text = render_openmetrics(reg)
        assert 'label="v\\"1\\n"' in text
        assert 'stage="a\\\\b"' in text
        # every rendered sample line must stay single-line: name{...} value
        body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        for line in body:
            assert line.startswith("repro_")
            assert "\n" not in line

    def test_escaped_output_has_one_line_per_sample(self):
        reg = MetricsRegistry()
        reg.inc("multi_total", method="x\ny\nz")
        text = render_openmetrics(reg)
        sample_lines = [
            ln for ln in text.splitlines() if ln.startswith("repro_multi")
        ]
        assert len(sample_lines) == 1

    def test_name_sanitization(self):
        reg = MetricsRegistry()
        reg.inc("odd.metric-name_total")
        assert "repro_odd_metric_name_total 1" in render_openmetrics(reg)

    def test_accepts_saved_snapshot_dict_and_path(self, tmp_path):
        reg = populated_registry()
        snap_path = tmp_path / "metrics.json"
        reg.save_json(snap_path)
        from_registry = render_openmetrics(reg)
        assert render_openmetrics(reg.as_dict()) == from_registry
        assert render_openmetrics(str(snap_path)) == from_registry

    def test_save_and_cli(self, tmp_path, capsys):
        reg = populated_registry()
        snap_path = tmp_path / "metrics.json"
        reg.save_json(snap_path)
        out_path = tmp_path / "metrics.prom"
        assert main([str(snap_path), "-o", str(out_path)]) == 0
        assert out_path.read_text() == render_openmetrics(reg)
        assert main([str(tmp_path / "missing.json")]) == 2

    def test_save_openmetrics_writes_file(self, tmp_path):
        path = tmp_path / "m.prom"
        save_openmetrics(populated_registry(), path)
        assert path.read_text().endswith("# EOF\n")


class TestQueryLogSink:
    def test_outcomes_stream_to_jsonl(self, tmp_path):
        obs = Observability()
        path = tmp_path / "queries.jsonl"
        obs.add_outcome_sink(JsonlSink(path))
        outcome = QueryOutcome(
            skyline=np.zeros((4, 2)), method="Baseline", cache_hit=False
        )
        obs.record_outcome(outcome)
        obs.record_outcome(outcome)
        obs.close()
        records = read_jsonl(path)
        assert len(records) == 2
        assert records[0]["method"] == "Baseline"
        assert records[0]["skyline_size"] == 4
        assert set(records[0]["io"]) >= {"points_read", "range_queries"}
        assert set(records[0]["timings"]) == {
            "processing_ms", "fetch_io_ms", "fetch_wall_ms", "skyline_ms",
        }

    def test_record_is_strict_json(self):
        outcome = QueryOutcome(
            skyline=np.zeros((1, 2)), method="M", case="exact", stable=True
        )
        json.dumps(outcome.as_record(), allow_nan=False)
