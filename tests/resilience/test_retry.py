"""Tests for the retry policy, state budget, and validation helpers."""

import numpy as np
import pytest

from repro.resilience import (
    CorruptResultError,
    RetriesExhausted,
    RetryPolicy,
    RetryState,
    call_with_retry,
    validate_range_result,
)
from repro.storage.faults import TransientStorageError
from repro.storage.table import RangeResult


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_ms=1.0, multiplier=2.0, max_delay_ms=8.0, jitter=0.0
        )
        delays = [policy.backoff_ms(a) for a in range(1, 7)]
        assert delays == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay_ms=10.0, jitter=0.5)
        first = policy.backoff_ms(2, token=7)
        second = policy.backoff_ms(2, token=7)
        assert first == second  # same (token, attempt) -> same delay
        assert policy.backoff_ms(2, token=8) != first  # spread across tokens
        raw = 20.0
        assert raw * 0.75 <= first <= raw * 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_ms=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("multiplier", -2.0),
            ("multiplier", float("nan")),
            ("multiplier", float("inf")),
            ("base_delay_ms", float("nan")),
            ("base_delay_ms", float("inf")),
            ("max_delay_ms", float("nan")),
            ("max_delay_ms", float("inf")),
        ],
    )
    def test_values_that_make_no_backoff_are_rejected(self, field, value):
        # a negative multiplier made negative delays; a NaN base delay
        # slipped through min(max_delay_ms, nan) as the cap
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: value})


class TestCallWithRetry:
    def flaky(self, fail_times):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise TransientStorageError("boom")
            return "ok"

        return fn, calls

    def test_succeeds_after_transient_failures(self):
        fn, calls = self.flaky(2)
        state = RetryState(RetryPolicy(max_attempts=4))
        assert call_with_retry(fn, state) == "ok"
        assert calls["n"] == 3
        assert state.retries == 2

    def test_exhausts_attempts(self):
        fn, _ = self.flaky(10)
        state = RetryState(RetryPolicy(max_attempts=3))
        with pytest.raises(RetriesExhausted) as exc_info:
            call_with_retry(fn, state)
        assert isinstance(exc_info.value.__cause__, TransientStorageError)

    def test_only_attempts_bound_the_retries(self):
        # 24 backoffs sum to ~1 s of simulated delay: without a request
        # deadline nothing but max_attempts stops the loop
        fn, calls = self.flaky(24)
        state = RetryState(RetryPolicy(max_attempts=25, jitter=0.0))
        assert call_with_retry(fn, state) == "ok"
        assert calls["n"] == 25 and state.retries == 24

    def test_non_retryable_propagates(self):
        def fn():
            raise KeyError("not storage")

        with pytest.raises(KeyError):
            call_with_retry(fn, RetryState(RetryPolicy()))

    def test_retry_counters_recorded(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        fn, _ = self.flaky(2)
        call_with_retry(fn, RetryState(RetryPolicy()), metrics=metrics, op="fetch")
        assert metrics.counter_value("storage_retries_total", op="fetch") == 2


class TestValidateRangeResult:
    def make(self, points, rowids=None):
        points = np.asarray(points, dtype=float)
        if rowids is None:
            rowids = np.arange(len(points))
        return RangeResult(
            points=points, rowids=np.asarray(rowids), rows_fetched=len(points)
        )

    def test_clean_result_passes(self):
        validate_range_result(self.make([[1.0, 2.0], [3.0, 4.0]]))

    def test_truncation_detected(self):
        result = self.make([[1.0, 2.0]], rowids=[0, 1, 2])
        with pytest.raises(CorruptResultError):
            validate_range_result(result)

    def test_nan_detected(self):
        with pytest.raises(CorruptResultError):
            validate_range_result(self.make([[1.0, float("nan")]]))

    def test_corrupt_is_retryable(self):
        from repro.resilience import RETRYABLE

        assert issubclass(CorruptResultError, RETRYABLE)
