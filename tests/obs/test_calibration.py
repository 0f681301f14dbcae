"""Tests for the cost-model calibration ledger."""

import json

import pytest

from repro.obs.calibration import STAGES, CalibrationLedger, render_calibration


def record(predicted, actual, case="case_c", strategy="MaxOverlapSP"):
    return {
        "case": case,
        "strategy": strategy,
        "predicted": predicted,
        "actual": actual,
    }


class TestLedgerMath:
    def test_exact_prediction_scores_zero(self):
        ledger = CalibrationLedger()
        cost = {"points": 10, "pages": 2, "seeks": 1, "io_ms": 5.0}
        assert ledger.add(record(cost, dict(cost)))
        assert ledger.queries == 1
        for stage in STAGES:
            assert ledger.mare(stage) == 0.0

    def test_relative_error_uses_actual_denominator(self):
        ledger = CalibrationLedger()
        ledger.add(
            record(
                {"points": 150, "pages": 4, "seeks": 1, "io_ms": 6.0},
                {"points": 100, "pages": 2, "seeks": 1, "io_ms": 4.0},
            )
        )
        assert ledger.mare("points") == pytest.approx(0.5)
        assert ledger.mare("pages") == pytest.approx(1.0)
        assert ledger.mare("io_ms") == pytest.approx(0.5)

    def test_zero_actual_divides_by_one(self):
        """Exact hits (0 predicted, 0 actual) must stay finite and clean."""
        ledger = CalibrationLedger()
        ledger.add(
            record(
                {"points": 3, "pages": 0, "seeks": 0, "io_ms": 0.0},
                {"points": 0, "pages": 0, "seeks": 0, "io_ms": 0.0},
            )
        )
        assert ledger.mare("points") == pytest.approx(3.0)  # |3-0|/max(0,1)
        assert ledger.mare("io_ms") == 0.0

    def test_missing_actual_is_skipped(self):
        ledger = CalibrationLedger()
        assert not ledger.add(record({"points": 1}, None))
        assert ledger.queries == 0
        assert ledger.skipped == 1
        assert ledger.mare("points") is None

    def test_errors_average_across_queries(self):
        ledger = CalibrationLedger()
        zeros = {"pages": 0, "seeks": 0, "io_ms": 0.0}
        ledger.add(record({"points": 100, **zeros}, {"points": 100, **zeros}))
        ledger.add(record({"points": 200, **zeros}, {"points": 100, **zeros}))
        assert ledger.mare("points") == pytest.approx(0.5)

    def test_per_case_and_per_strategy_cells(self):
        ledger = CalibrationLedger()
        zeros = {"pages": 0, "seeks": 0, "io_ms": 0.0}
        ledger.add(
            record({"points": 110, **zeros}, {"points": 100, **zeros},
                   case="case_c", strategy="A")
        )
        ledger.add(
            record({"points": 300, **zeros}, {"points": 100, **zeros},
                   case="miss", strategy="B")
        )
        assert ledger.mare("points", "case", "case_c") == pytest.approx(0.1)
        assert ledger.mare("points", "case", "miss") == pytest.approx(2.0)
        assert ledger.mare("points", "strategy", "A") == pytest.approx(0.1)
        assert ledger.mare("points", "case", "absent") is None


class TestSummaryAndGauges:
    def _ledger(self):
        ledger = CalibrationLedger()
        ledger.add(
            record(
                {"points": 150, "pages": 4, "seeks": 1, "io_ms": 6.0},
                {"points": 100, "pages": 2, "seeks": 1, "io_ms": 4.0},
            )
        )
        ledger.add(record({"points": 1}, None))  # skipped
        return ledger

    def test_summary_is_stamped_and_json_ready(self):
        summary = self._ledger().summary()
        assert summary["schema"] == 1
        assert summary["queries"] == 1
        assert summary["skipped"] == 1
        assert summary["overall"]["points"]["mare"] == pytest.approx(0.5)
        assert summary["overall"]["points"]["count"] == 1
        assert "case_c" in summary["per_case"]
        assert "MaxOverlapSP" in summary["per_strategy"]
        json.dumps(summary)

    def test_save_json_round_trips(self, tmp_path):
        path = tmp_path / "calibration.json"
        self._ledger().save_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == 1
        assert loaded["overall"]["pages"]["mare"] == pytest.approx(1.0)


class TestRendering:
    def test_render_empty(self):
        text = render_calibration(CalibrationLedger().summary())
        assert "# calibration" in text
        assert "no calibrated queries" in text

    def test_render_populated(self):
        ledger = CalibrationLedger()
        ledger.add(
            record(
                {"points": 150, "pages": 4, "seeks": 1, "io_ms": 6.0},
                {"points": 100, "pages": 2, "seeks": 1, "io_ms": 4.0},
            )
        )
        text = render_calibration(ledger.summary())
        assert "# calibration" in text
        assert "Predicted-vs-actual error (overall)" in text
        assert "MARE per overlap case" in text
        assert "MARE per strategy" in text
        assert "0.500" in text  # points MARE
