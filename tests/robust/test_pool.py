"""Contract tests for the long-lived worker pool: workers are reused across
batches, a worker killed at the stall timeout is replaced, ``close()``
reaps every worker without retiring the pool, and an item submitted under
a recorder brings one cell record per attempt back with its answer."""

import multiprocessing
import os
import threading
import time

import pytest

from repro.obs import TraceRecorder, recording
from repro.obs import recorder as obs
from repro.robust.pool import ExecutionPool, PoolConfig
from repro.robust.sweep import SweepFailure


# Item functions live at module level so they pickle into the workers.


def worker_pid(_x):
    return os.getpid()


def hang_on_two(x):
    if x == 2:
        time.sleep(60)
    return os.getpid()


def counted(x):
    """Counts and spans its own work; fails on 2, returns an unpicklable
    lock on 3."""
    obs.count("item.work", x)
    with obs.span("item"):
        pass
    if x == 2:
        raise ValueError("bad item")
    return threading.Lock() if x == 3 else x * 10


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


def _submit_one(pool, item):
    finished = []
    job = pool.submit(item, finished.append)
    while not finished:
        pool.poll()
    return job


@pytest.mark.parametrize("jobs", [1, 2])
class TestCellRecords:
    """Telemetry rides the result pipe: an item submitted under a recorder
    brings back one cell record per attempt, none without one."""

    def test_no_recorder_at_submit_means_no_record(self, jobs):
        with ExecutionPool(counted, PoolConfig(jobs=jobs, retries=1)) as pool:
            ok = _submit_one(pool, 1)
            failed = _submit_one(pool, 2)
            # Tracing turned on after submit does not record the item.
            finished = []
            late = pool.submit(4, finished.append)
            with recording() as rec:
                while not finished:
                    pool.poll()
        assert ok.result == 10 and isinstance(failed.result, SweepFailure)
        assert ok.telemetry == [] and failed.telemetry == []
        assert late.result == 40 and late.telemetry == []
        assert "item.work" not in rec.counters

    def test_one_record_per_attempt(self, jobs):
        with recording(TraceRecorder(sim_events=False)) as rec:
            with ExecutionPool(counted, PoolConfig(jobs=jobs, retries=1)) as pool:
                ok = _submit_one(pool, 1)
                failed = _submit_one(pool, 2)
        assert ok.result == 10
        (record,) = ok.telemetry
        assert record["ok"] is True and record["counters"] == {"item.work": 1}
        assert record["trace_id"] == rec.context.trace_id
        assert record["parent_span_id"] == f"cell-{ok.cell}"
        assert {s["name"] for s in record["spans"]} == {"sweep.cell", "item"}
        assert (record["pid"] == os.getpid()) == (jobs == 1)
        # A failing item: two attempts, two records, both not ok.
        assert isinstance(failed.result, SweepFailure)
        assert failed.result.attempts == 2
        assert [r["ok"] for r in failed.telemetry] == [False, False]
        assert all(r["counters"] == {"item.work": 2} for r in failed.telemetry)
        # The records were not merged into the submitting recorder: that
        # is the caller's (a sweep's or the service's) choice.
        assert "item.work" not in rec.counters

    def test_unpicklable_result(self, jobs):
        with recording():
            with ExecutionPool(counted, PoolConfig(jobs=jobs, retries=1)) as pool:
                job = _submit_one(pool, 3)
        if jobs == 1:
            # In-process, nothing crosses a pipe: the attempt succeeds.
            assert not isinstance(job.result, SweepFailure)
            assert [r["ok"] for r in job.telemetry] == [True]
        else:
            assert isinstance(job.result, SweepFailure)
            assert job.result.attempts == 2
            assert [r["ok"] for r in job.telemetry] == [False, False]

    def test_run_merges_records_into_recorder(self, jobs):
        with recording() as rec:
            with ExecutionPool(counted, PoolConfig(jobs=jobs, retries=0)) as pool:
                result = pool.run([0, 1, 2, 4])
        assert rec.counters["item.work"] == 0 + 1 + 2 + 4
        assert rec.counters["sweep.failures"] == 1
        cells = sorted(result.telemetry.cells, key=lambda c: c.cell)
        assert [c.ok for c in cells] == [True, True, False, True]
        assert sum(1 for s in rec.spans if s.name == "sweep.cell") == 4
