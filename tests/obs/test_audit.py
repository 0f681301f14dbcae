"""The predicted-vs-actual audit: one source, the calibration ledger.

``repro.obs.audit`` (a second auditor that re-ran a synthetic workload) is
gone; what it reported now comes from the :class:`CalibrationLedger` fed by
the EXPLAIN records of the queries a run actually executed.  These tests
keep the invariants it guarded: explain() predicts execution exactly on a
mixed workload, the points error is finite, and the numbers reach the
``BENCH_*.json`` snapshot.
"""

import json
import math
from pathlib import Path

from repro.bench.regress import (
    build_snapshot,
    compare_snapshots,
    load_snapshot,
    save_snapshot,
)
from repro.core.cbcs import CBCS
from repro.data.generator import generate
from repro.obs import Observability
from repro.obs.calibration import CalibrationLedger
from repro.obs.explain import ExplainRecorder
from repro.storage.table import DiskTable
from repro.workload.generator import WorkloadGenerator

BASELINE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_baseline_quick.json"
)


def audited_run(n_points=2000, ndim=3, n_queries=40, repeats=5, seed=3):
    """Explain-then-query a seeded exploratory stream (+ verbatim repeats,
    so misses, hits and exact matches all occur) with a ledger attached."""
    data = generate("independent", n_points, ndim, seed=seed)
    obs = Observability()
    ledger = CalibrationLedger()
    obs.explainer = ExplainRecorder(ledger=ledger)
    engine = CBCS(DiskTable(data), obs=obs)
    queries = WorkloadGenerator(data, seed=seed + 1).exploratory_stream(n_queries)
    pairs = [
        (engine.explain(c), engine.query(c)) for c in queries + queries[:repeats]
    ]
    return obs, ledger, pairs


class TestAuditor:
    def test_quick_workload_is_perfectly_predicted(self):
        _, ledger, pairs = audited_run()
        assert ledger.queries == len(pairs) == 45  # 40 + 5 repeats
        assert ledger.skipped == 0
        for plan, outcome in pairs:
            assert plan.case == outcome.case
            assert plan.range_queries == outcome.range_queries
        assert math.isfinite(ledger.mare("points"))
        # exact repeats guarantee all three top-level outcomes appear
        cases = {outcome.case for _, outcome in pairs}
        assert "miss" in cases
        assert "exact" in cases
        assert cases - {"miss", "exact"}, "no cache-hit refinement was audited"

    def test_auditor_over_explicit_engine(self):
        _, ledger, pairs = audited_run(n_points=1500, n_queries=12, seed=9)
        summary = ledger.summary()
        assert summary["queries"] == len(pairs)
        assert set(summary["per_case"]) == {o.case for _, o in pairs}
        assert set(summary["per_strategy"]) == {"MaxOverlapSP"}


class TestSnapshotBlock:
    def test_snapshot_carries_the_ledger_summary(self, tmp_path):
        _, ledger, _ = audited_run(n_points=800, n_queries=8)
        snapshot = build_snapshot(
            scale="quick", figures={}, calibration=ledger.summary(), rev="test"
        )
        assert "audit" not in snapshot
        path = save_snapshot(snapshot, tmp_path / "BENCH_x.json")
        assert load_snapshot(path)["calibration"] == ledger.summary()

    def test_baseline_with_legacy_audit_key_compares_warning_free(self, tmp_path):
        # Snapshots written before the auditor was retired carry an
        # ``audit`` block; the committed baseline no longer does, so graft
        # one on and go through the file loader.
        legacy = dict(
            load_snapshot(BASELINE), audit={"queries": 65, "case_accuracy": 1.0}
        )
        path = tmp_path / "BENCH_legacy.json"
        path.write_text(json.dumps(legacy))
        baseline = load_snapshot(path)
        assert "audit" in baseline
        current = build_snapshot(
            scale=baseline["scale"],
            figures=baseline["figures"],
            calibration=CalibrationLedger().summary(),
            rev="test",
        )
        report = compare_snapshots(baseline, current)
        assert report.warnings == []
        assert not report.has_regressions
