"""Tests for the bit-identity shard sweep (:mod:`repro.bench.shardsweep`)."""

import json

import numpy as np
import pytest

from repro.bench.shardsweep import ShardSweepReport, run_shard_sweep


@pytest.fixture(scope="module")
def clean_report():
    return run_shard_sweep(
        n_queries=8, seeds=(0,), shard_counts=(1, 2, 4), n_points=800
    )


class TestCleanSweep:
    def test_passes_and_covers_every_cell(self, clean_report):
        assert clean_report.passed
        # 1 seed x 3 shard counts x 2 strategies
        assert clean_report.cells == 6
        assert clean_report.queries_checked == 6 * 8
        assert clean_report.answer_mismatches == 0
        assert clean_report.flag_mismatches == 0
        assert clean_report.io_mismatches == 0

    def test_table_io_is_fully_attributed(self, clean_report):
        # The end-of-cell strict check ran without complaint, and the sweep
        # recorded per-shard-count totals for the trajectory: under the
        # bitmap plan every shard count reads the same rows.
        assert set(clean_report.points_read_by_shards) == {1, 2, 4}
        assert len(set(clean_report.points_read_by_shards.values())) == 1
        assert clean_report.points_read_by_shards[1] > 0

    def test_a_table_that_loses_rows_is_caught(self, monkeypatch):
        """The sweep must fail on the defect it exists for: a fleet whose
        MBR test skips a shard that holds matching rows."""
        from repro.storage.sharding import ShardedTable

        honest = ShardedTable.range_query

        def lossy(self, box):
            self.counts = self.counts * (np.arange(len(self.counts)) != 1)
            return honest(self, box)

        monkeypatch.setattr(ShardedTable, "range_query", lossy)
        report = run_shard_sweep(
            n_queries=8, seeds=(0,), shard_counts=(1, 4),
            strategies=("max-overlap-sp",), n_points=800,
        )
        assert not report.passed
        assert report.answer_mismatches > 0 and report.io_mismatches > 0
        assert all("shards=4" in err for err in report.errors)

    def test_report_serializes_and_renders(self, clean_report):
        payload = clean_report.as_dict()
        json.dumps(payload)
        assert payload["passed"] is True
        text = clean_report.render_text()
        assert "PASS" in text
        assert "answer mismatches    : 0" in text

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            run_shard_sweep(n_queries=1, strategies=("quantum",))


class TestFaultedSweep:
    def test_faulted_shard_keeps_answers_correct(self):
        report = run_shard_sweep(
            n_queries=8,
            seeds=(0,),
            shard_counts=(1, 4),
            strategies=("max-overlap-sp",),
            n_points=800,
            profile="default",
        )
        assert report.passed
        assert report.profile == "default"
        # every non-stale answer was reference-checked; stale ones flagged
        assert report.queries_checked == 2 * 8
        text = report.render_text()
        assert "stale serves" in text

    def test_report_records_failures(self):
        report = ShardSweepReport(
            seeds=(0,),
            shard_counts=(1,),
            strategies=("max-overlap-sp",),
            profile=None,
            n_queries=1,
        )
        report.answer_mismatches = 1
        report.errors.append("cell x: answer differs")
        assert not report.passed
        assert "FAIL" in report.render_text()
        assert report.as_dict()["passed"] is False
