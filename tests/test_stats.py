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


class FakeClock:
    """``time.perf_counter`` stand-in whose readings the test scripts."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


class TestStageObjects:
    """``stage(name)`` hands out one reused object per name; each keeps its
    own start, so nesting and re-entry time what they enclose."""

    def test_fetch_io_is_not_a_stage(self):
        # fetch_io_ms is the simulated disk time; a measured stage of that
        # name would add wall-clock time into it
        watch = Stopwatch()
        with pytest.raises(ValueError):
            with watch.stage("fetch_io"):
                pass
        assert watch.timings.fetch_io_ms == 0.0

    def test_nested_stages_of_different_names_each_get_their_own_duration(
        self, monkeypatch
    ):
        # processing enters at 1 s, skyline at 2 s and leaves at 5 s,
        # processing leaves at 10 s
        monkeypatch.setattr(time, "perf_counter", FakeClock(1.0, 2.0, 5.0, 10.0))
        watch = Stopwatch()
        with watch.stage("processing"):
            with watch.stage("skyline"):
                pass
        assert watch.timings.skyline_ms == 3000.0
        assert watch.timings.processing_ms == 9000.0

    def test_a_stage_entered_again_after_a_raise_still_accumulates(
        self, monkeypatch
    ):
        monkeypatch.setattr(time, "perf_counter", FakeClock(0.0, 0.5, 2.0, 2.25))
        watch = Stopwatch()
        with pytest.raises(RuntimeError):
            with watch.stage("fetch_wall"):
                raise RuntimeError
        with watch.stage("fetch_wall"):
            pass
        assert watch.timings.fetch_wall_ms == 750.0
        assert watch.stage("fetch_wall") is watch.stage("fetch_wall")


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
