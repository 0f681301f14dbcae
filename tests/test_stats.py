"""Tests for :mod:`repro.stats`."""

import time

import numpy as np
import pytest

from repro.stats import QueryOutcome, StageTimings, Stopwatch
from repro.storage.pager import IOStats


class TestStageTimings:
    def test_total(self):
        # wall_ms sums the measured stages and never the simulated fetch I/O
        t = StageTimings(
            processing_ms=1.0, fetch_io_ms=2.0, fetch_wall_ms=3.0, skyline_ms=4.0
        )
        assert t.wall_ms == pytest.approx(8.0)
        assert not hasattr(t, "total_ms")

    def test_defaults_zero(self):
        assert StageTimings().wall_ms == 0.0


class TestStopwatch:
    def test_accumulates_named_stage(self):
        watch = Stopwatch()
        with watch.stage("processing"):
            time.sleep(0.01)
        with watch.stage("processing"):
            time.sleep(0.01)
        assert watch.timings.processing_ms >= 15.0

    def test_unknown_stage_rejected(self):
        watch = Stopwatch()
        with pytest.raises(ValueError):
            with watch.stage("compile"):
                pass

    def test_exception_still_records(self):
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            with watch.stage("skyline"):
                time.sleep(0.005)
                raise RuntimeError
        assert watch.timings.skyline_ms > 0


class TestQueryOutcome:
    def test_derived_properties(self):
        io = IOStats(points_read=42, range_queries=5, empty_queries=2)
        out = QueryOutcome(
            skyline=np.zeros((3, 2)), method="X",
            timings=StageTimings(processing_ms=1.0), io=io,
        )
        assert out.skyline_size == 3
        assert out.points_read == 42
        assert out.range_queries == 5
        assert out.nonempty_queries == 3
        assert out.timings.wall_ms == pytest.approx(1.0)

    def test_defaults(self):
        out = QueryOutcome(skyline=np.empty((0, 2)), method="X")
        assert out.case is None
        assert not out.cache_hit
        assert out.points_read == 0
