"""Tests for per-query decision provenance (repro.obs.explain)."""

import json

import numpy as np

from repro.core.cbcs import CBCS
from repro.data.generator import generate
from repro.geometry.constraints import Constraints
from repro.obs import Observability
from repro.obs.calibration import CalibrationLedger
from repro.obs.explain import (
    ExplainRecorder,
    load_records,
    main,
    render_record,
    render_summary,
)
from repro.obs.sinks import JsonlSink
from repro.storage.table import DiskTable

DATA = generate("independent", 2000, 3, seed=42)

BASE = Constraints([0.2] * 3, [0.8] * 3)
REFINED = Constraints([0.2] * 3, [0.8, 0.8, 0.85])


def make_engine(recorder=None, **kwargs):
    obs = Observability()
    if recorder is not None:
        obs.explainer = recorder
    engine = CBCS(DiskTable(DATA.copy(), obs=obs), obs=obs, **kwargs)
    return engine, obs


class TestRecordStructure:
    def test_one_record_per_query_joined_by_id(self):
        recorder = ExplainRecorder(keep=16)
        engine, _ = make_engine(recorder)
        outcomes = [engine.query(BASE), engine.query(REFINED)]
        assert recorder.records_emitted == 2
        records = recorder.records
        for outcome, record in zip(outcomes, records):
            assert record["query_id"] == outcome.query_id
            assert record["case"] == outcome.case
            assert record["schema"] == 1
        engine.close()

    def test_miss_record_explains_empty_cache(self):
        recorder = ExplainRecorder(keep=4)
        engine, _ = make_engine(recorder)
        engine.query(BASE)
        [record] = recorder.records
        assert record["case"] == "miss"
        assert record["candidates"] == []
        assert record["no_candidates_reason"] == "empty-cache"
        # the single bounding box carries predicted AND actual cost
        [box] = record["boxes"]
        assert box["predicted"]["points"] > 0
        assert box["actual"]["points"] > 0
        assert box["actual"]["io_ms"] > 0
        assert record["actual"]["points"] == box["actual"]["points"]
        engine.close()

    def test_hit_record_scores_candidates_and_joins_actuals(self):
        recorder = ExplainRecorder(keep=8)
        engine, _ = make_engine(recorder)
        engine.query(BASE)
        engine.query(Constraints([0.1] * 3, [0.7] * 3))
        outcome = engine.query(REFINED)
        record = recorder.records[-1]
        assert record["query_id"] == outcome.query_id
        assert record["cache_hit"] is True
        candidates = record["candidates"]
        assert len(candidates) == 2
        assert candidates[0]["selected"] is True
        assert candidates[0]["rejection"] is None
        assert candidates[1]["selected"] is False
        assert candidates[1]["rejection"] == engine.strategy.rejection_reason
        for box in record["boxes"]:
            assert set(box["predicted"]) == {"points", "pages", "seeks", "io_ms"}
            assert box["actual"] is not None
        # the forecast estimates the bitmap fetch per query: relative error
        # below 1, the calibration ledger's gate
        read = record["actual"]["points"]
        assert abs(record["predicted"]["points"] - read) < max(read, 1)
        assert record["actual"]["points"] == outcome.io.points_read
        engine.close()

    def test_exact_hit_has_zero_boxes_and_zero_cost(self):
        recorder = ExplainRecorder(keep=8)
        engine, _ = make_engine(recorder)
        engine.query(BASE)
        engine.query(Constraints(BASE.lo, BASE.hi))
        record = recorder.records[-1]
        assert record["case"] == "exact"
        assert record["boxes"] == []
        assert record["predicted"]["points"] == 0
        assert record["actual"] == {
            "points": 0,
            "pages": 0,
            "seeks": 0,
            "io_ms": 0.0,
        }
        engine.close()

    def test_records_feed_the_calibration_ledger(self):
        ledger = CalibrationLedger()
        recorder = ExplainRecorder(ledger=ledger)
        engine, _ = make_engine(recorder)
        engine.query(BASE)
        engine.query(REFINED)
        assert ledger.queries == 2
        for stage in ("points", "pages", "io_ms"):
            mare = ledger.mare(stage)
            assert mare is not None and np.isfinite(mare)
        engine.close()

    def test_records_are_strict_json(self, tmp_path):
        path = tmp_path / "explain.jsonl"
        recorder = ExplainRecorder(sink=JsonlSink(path))
        engine, _ = make_engine(recorder)
        engine.query(BASE)
        engine.query(REFINED)
        recorder.close()
        records = load_records(path)
        assert len(records) == 2
        json.dumps(records)  # round-trips
        engine.close()


class TestBitIdentity:
    def test_explainer_is_bit_identical(self):
        queries = [
            BASE,
            REFINED,
            Constraints([0.1] * 3, [0.7] * 3),
            Constraints([0.15] * 3, [0.75, 0.8, 0.9]),
        ]
        plain_engine = CBCS(DiskTable(DATA.copy()))
        plain = [plain_engine.query(c) for c in queries]
        recorder = ExplainRecorder(keep=16)
        instrumented_engine, _ = make_engine(recorder)
        instrumented = [instrumented_engine.query(c) for c in queries]
        assert recorder.records_emitted == len(queries)
        for p, i in zip(plain, instrumented):
            assert np.array_equal(
                np.sort(p.skyline, axis=0), np.sort(i.skyline, axis=0)
            )
            assert p.io.as_dict() == i.io.as_dict()
            assert p.case == i.case
        plain_engine.close()
        instrumented_engine.close()


class TestRendering:
    def _records(self):
        recorder = ExplainRecorder(keep=8)
        engine, _ = make_engine(recorder)
        engine.query(BASE)
        engine.query(REFINED)
        engine.close()
        return recorder.records

    def test_render_summary_lists_every_query(self):
        records = self._records()
        text = render_summary(records)
        assert "Explain records (2 queries)" in text
        for record in records:
            assert record["query_id"] in text

    def test_render_record_shows_candidates_and_boxes(self):
        records = self._records()
        text = render_record(records[-1])
        assert "<selected>" in text
        assert "Plan boxes (predicted vs actual)" in text
        assert "totals: predicted" in text
        miss = render_record(records[0])
        assert "candidates: none (empty-cache)" in miss


class TestCLI:
    def _write(self, tmp_path):
        path = tmp_path / "explain.jsonl"
        recorder = ExplainRecorder(sink=JsonlSink(path), keep=8)
        engine, _ = make_engine(recorder)
        engine.query(BASE)
        engine.query(REFINED)
        recorder.close()
        engine.close()
        return recorder.records

    def test_summary_mode(self, tmp_path, capsys):
        self._write(tmp_path)
        assert main([str(tmp_path)]) == 0
        assert "Explain records" in capsys.readouterr().out

    def test_single_query_mode(self, tmp_path, capsys):
        records = self._write(tmp_path)
        qid = records[-1]["query_id"]
        assert main([str(tmp_path), qid]) == 0
        assert f"# explain {qid}" in capsys.readouterr().out

    def test_unknown_query_id(self, tmp_path, capsys):
        self._write(tmp_path)
        assert main([str(tmp_path), "q99999999"]) == 1
        capsys.readouterr()

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 2
        assert "no explain records" in capsys.readouterr().out

    def test_json_mode(self, tmp_path, capsys):
        self._write(tmp_path)
        assert main([str(tmp_path), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert len(parsed) == 2


class TestShardedRecords:
    """An engine over a sharded table writes the ordinary record --
    candidates, plan, per-box predicted vs actual; no shard section."""

    def _sharded_records(self, ledger=None):
        from repro.storage.sharding import ShardedTable

        recorder = ExplainRecorder(keep=8, ledger=ledger)
        obs = Observability()
        obs.explainer = recorder
        engine = CBCS(ShardedTable(DATA.copy(), 4), obs=obs)
        engine.query(BASE)
        engine.query(Constraints([2.0] * 3, [3.0] * 3))  # meets no shard
        engine.close()
        return recorder.records

    def test_fleet_record_is_the_ordinary_record(self):
        ledger = CalibrationLedger()
        fleet, _ = self._sharded_records(ledger)
        recorder = ExplainRecorder(keep=8)
        make_engine(recorder)[0].query(BASE)
        (plain,) = recorder.records
        assert set(fleet) == set(plain) and "shard_pruning" not in fleet
        assert fleet["method"] == plain["method"]
        # a box is priced by the shards it touches (independence is assumed
        # inside each shard), so the row forecast differs with the layout
        assert fleet["plan"].pop("estimated_points") > 0
        assert plain["plan"].pop("estimated_points") > 0
        assert fleet["plan"] == plain["plan"]
        for ours, theirs in zip(fleet["boxes"], plain["boxes"], strict=True):
            assert ours["box"] == theirs["box"]
            assert ours["actual"]["points"] == theirs["actual"]["points"]
        # ... so fleet queries join the per-box calibration block
        assert ledger.queries == 2 and ledger.skipped == 0
        assert "shard" not in ledger.summary()

    def test_all_pruned_record(self):
        record = self._sharded_records()[1]
        assert record["actual"] == {"points": 0, "pages": 0, "seeks": 0, "io_ms": 0.0}
        assert [box["actual"]["points"] for box in record["boxes"]] == [0]

    def test_render_has_no_shard_section(self):
        records = self._sharded_records()
        assert "shards" not in render_summary(records)
        text = render_record(records[0])
        assert "Shard pruning decisions" not in text
        assert "candidates: none (empty-cache)" in text

    def test_records_are_json_serializable(self):
        for record in self._sharded_records():
            json.dumps(record)
