"""Tests for capped/jittered retry backoff and the execution-pool API."""

import pytest

from repro.robust.backoff import (
    DEFAULT_BACKOFF_CAP_S,
    DEFAULT_BACKOFF_JITTER,
    RetryPolicy,
)
from repro.robust.pool import ExecutionPool, PoolConfig
from repro.robust.sweep import SweepError, SweepFailure


class TestRetryPolicy:
    def test_grows_exponentially_until_cap(self):
        policy = RetryPolicy(base_s=0.1, cap_s=1.0, jitter=0.0)
        delays = [policy.delay_s(a) for a in range(1, 8)]
        assert delays[:4] == [0.1, 0.2, 0.4, 0.8]
        assert delays[4:] == [1.0, 1.0, 1.0]  # clamped, never minutes

    def test_huge_attempt_numbers_stay_capped(self):
        policy = RetryPolicy(base_s=0.05, cap_s=5.0, jitter=0.0)
        assert policy.delay_s(10_000) == 5.0

    def test_jitter_shaves_at_most_the_configured_fraction(self):
        policy = RetryPolicy(base_s=1.0, cap_s=1.0, jitter=0.5)
        rng = policy.rng(seed=123)
        for _ in range(200):
            d = policy.delay_s(5, rng)
            assert 0.5 <= d <= 1.0

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(base_s=0.05, cap_s=5.0, jitter=0.5)
        a = [policy.delay_s(i, policy.rng(7)) for i in range(1, 10)]
        b = [policy.delay_s(i, policy.rng(7)) for i in range(1, 10)]
        c = [policy.delay_s(i, policy.rng(8)) for i in range(1, 10)]
        assert a == b
        assert a != c

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(base_s=0.2, cap_s=5.0, jitter=0.9)
        assert policy.delay_s(1) == 0.2

    def test_zero_base_never_sleeps(self):
        policy = RetryPolicy(base_s=0.0)
        assert policy.delay_s(50, policy.rng(0)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="base_s"):
            RetryPolicy(base_s=-1)
        with pytest.raises(ValueError, match="cap_s"):
            RetryPolicy(cap_s=-0.1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_defaults_are_sane(self):
        policy = RetryPolicy()
        assert policy.cap_s == DEFAULT_BACKOFF_CAP_S
        assert policy.jitter == DEFAULT_BACKOFF_JITTER


def _square(x):
    return x * x


def _explode_on_three(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


class TestExecutionPool:
    def test_map_in_process(self):
        pool = ExecutionPool(_square)
        assert pool.run([1, 2, 3]).results == [1, 4, 9]
        assert pool.batches == 1

    def test_run_isolates_failures_in_order(self):
        pool = ExecutionPool(_explode_on_three, PoolConfig(retries=0))
        result = pool.run([1, 2, 3, 4])
        assert result.results[0] == 1 and result.results[3] == 4
        assert isinstance(result.results[2], SweepFailure)
        assert result.failures[0].index == 2

    def test_map_raises_on_failure(self):
        pool = ExecutionPool(_explode_on_three, PoolConfig(retries=0))
        result = pool.run([3])
        assert result.results == result.failures
        assert [(f.error_type, f.message) for f in result.failures] == [
            ("RuntimeError", "boom")
        ]
        assert "boom" in str(SweepError(result.failures, result.results))

    def test_forked_workers(self):
        with ExecutionPool(_square, PoolConfig(jobs=2)) as pool:
            result = pool.run(list(range(8)))
        assert result.results == [x * x for x in range(8)]

    def test_stats_accumulate_across_batches(self):
        pool = ExecutionPool(_square)
        pool.run([1])
        pool.run([2, 3])
        assert pool.batches == 2
        assert pool.attempts >= 3

    def test_config_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            PoolConfig(jobs=0)
        with pytest.raises(ValueError, match="retries"):
            PoolConfig(retries=-1)
        for timeout_s in (0, -1.0):
            with pytest.raises(ValueError, match="timeout_s"):
                PoolConfig(timeout_s=timeout_s)

