"""Tests for the shard sweep (:func:`repro.bench.soak.shards`)."""

import json

import numpy as np
import pytest

from repro.bench.soak import SHARD_COUNTS, SWEEP_STRATEGIES, shards

#: two seeds x every strategy x every shard count
CELLS = 2 * len(SWEEP_STRATEGIES) * len(SHARD_COUNTS)


@pytest.fixture(scope="module")
def clean_report():
    return shards(8)


class TestCleanSweep:
    def test_passes_and_covers_every_cell(self, clean_report):
        assert clean_report.passed, clean_report.errors
        assert clean_report.counts["cells"] == CELLS
        assert clean_report.counts["queries_checked"] == CELLS * 8

    def test_a_clean_sweep_has_no_fallbacks_and_no_breaker(self, clean_report):
        assert clean_report.facts["rungs"] == {}
        assert clean_report.facts["breaker_transitions"] == {}

    def test_table_io_is_fully_attributed(self, clean_report):
        # The end-of-cell strict check ran without complaint, and the sweep
        # recorded per-shard-count totals for the trajectory.  Plans are
        # priced by the layout, so the totals need not be equal.
        assert not [e for e in clean_report.errors if "io attribution" in e]
        points = clean_report.facts["points_read_by_shards"]
        assert set(points) == set(SHARD_COUNTS)
        assert all(total > 0 for total in points.values())

    def test_a_table_that_loses_rows_is_caught(self, monkeypatch):
        """The sweep must fail on the defect it exists for: a fleet whose
        MBR test skips a shard that holds matching rows."""
        from repro.storage.sharding import ShardedTable

        honest = ShardedTable.range_query

        def lossy(self, lo, hi):
            self.counts = self.counts * (np.arange(len(self.counts)) != 1)
            return honest(self, lo, hi)

        monkeypatch.setattr(ShardedTable, "range_query", lossy)
        report = shards(8)
        assert not report.passed
        assert [e for e in report.errors if "answer differs from unsharded" in e]
        assert [e for e in report.errors if "answer differs from the reference" in e]
        # one shard has no shard 1 to skip: only the multi-shard cells fail
        assert not [e for e in report.errors if "shards=1 " in e]

    def test_report_serializes_and_renders(self, clean_report):
        payload = json.loads(json.dumps(clean_report.as_dict()))
        assert payload["passed"] is True
        assert payload["facts"]["points_read_by_shards"]
        text = clean_report.render_text()
        assert "PASS" in text
        assert "faults=none" in text


class TestFaultedSweep:
    def test_faulted_shard_keeps_answers_correct(self):
        report = shards(8, "default")
        assert report.passed, report.errors
        assert report.profile == "default"
        # every non-stale answer was reference-checked; stale ones flagged
        assert report.counts["queries_checked"] == CELLS * 8
        assert "stale_serves" in report.render_text()

    def test_report_records_failures(self, lossy_table):
        """Faulted cells have no unsharded twin: the reference verdict alone
        must catch a table that drops a matching row."""
        report = shards(4, "default")
        assert not report.passed
        assert [e for e in report.errors if "answer differs from the reference" in e]
        assert report.as_dict()["passed"] is False
        assert "FAIL" in report.render_text()
