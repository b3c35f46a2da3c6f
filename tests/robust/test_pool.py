"""Contract tests for the long-lived worker pool: workers are reused across
batches, a worker killed at the stall timeout is replaced, and ``close()``
reaps every worker without retiring the pool."""

import multiprocessing
import os
import time

from repro.robust.pool import ExecutionPool, PoolConfig
from repro.robust.sweep import SweepFailure


# Item functions live at module level so they pickle into the workers.


def worker_pid(_x):
    return os.getpid()


def hang_on_two(x):
    if x == 2:
        time.sleep(60)
    return os.getpid()


class TestWorkerReuse:
    def test_batches_are_served_by_at_most_jobs_workers(self):
        pids = set()
        with ExecutionPool(worker_pid, PoolConfig(jobs=2, timeout_s=30)) as pool:
            for _ in range(3):
                result = pool.run(list(range(4)))
                assert result.ok
                pids.update(result.results)
        assert 1 <= len(pids) <= 2
        assert os.getpid() not in pids
        assert pool.batches == 3 and pool.pool_restarts == 0


class TestStallTimeout:
    def test_next_batch_runs_on_a_fresh_worker(self):
        config = PoolConfig(jobs=2, timeout_s=0.5, retries=0)
        started = time.perf_counter()
        with ExecutionPool(hang_on_two, config) as pool:
            (first_pid,) = pool.run([0]).results
            # The idle worker from the first batch takes the hanging item.
            hung = pool.run([2])
            (after_pid,) = pool.run([0]).results
        assert time.perf_counter() - started < 30
        failure = hung.results[0]
        assert isinstance(failure, SweepFailure)
        assert failure.error_type == "Timeout"
        assert hung.pool_restarts == 1
        assert after_pid not in (first_pid, os.getpid())


class TestContinuousDispatch:
    def test_hung_item_times_out_while_siblings_keep_completing(self):
        """The stall timeout is per item: a hung item is killed once it
        has run for its timeout, although the other worker never stops
        completing items."""
        finished = []
        config = PoolConfig(jobs=2, timeout_s=0.5, retries=0)
        started = time.perf_counter()
        with ExecutionPool(hang_on_two, config) as pool:
            hung = pool.submit(2, finished.append)
            while hung not in finished:
                quick = pool.submit(0, finished.append)
                while quick not in finished:
                    pool.poll()
                assert time.perf_counter() - started < 30
        assert isinstance(hung.result, SweepFailure)
        assert hung.result.error_type == "Timeout"
        assert len(finished) > 2 and pool.pool_restarts == 1


class TestClose:
    def test_close_reaps_workers_and_run_starts_new_ones(self):
        pool = ExecutionPool(worker_pid, PoolConfig(jobs=2, timeout_s=30))
        try:
            before = set(pool.run(list(range(4))).results)
            assert multiprocessing.active_children()
            pool.close()
            assert multiprocessing.active_children() == []
            after = set(pool.run(list(range(4))).results)
        finally:
            pool.close()
        assert multiprocessing.active_children() == []
        assert after and not before & after
