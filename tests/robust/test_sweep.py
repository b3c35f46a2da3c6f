"""Tests for the crash-tolerant sweep driver, including the regression the
old driver had: a worker that dies mid-sweep (``os._exit``) must not lose
sibling cells' results."""

import os
import sys
import time

import pytest

from repro.robust.sweep import (
    SweepError,
    SweepFailure,
    load_checkpoint,
    run_sweep_robust,
    schedule_cell,
)


# Cell functions live at module level so process pools can pickle them.


def square(x):
    return x * x


def pair(x, y):
    return (x, y)


def boom(x):
    if x == 2:
        raise ValueError(f"bad cell {x}")
    return x * 10


def flaky(x, _counts={}):
    _counts[x] = _counts.get(x, 0) + 1
    if _counts[x] == 1:
        raise RuntimeError(f"transient {x}")
    return x + 100


def hard_exit(x):
    if x == 2:
        os._exit(13)  # simulates a segfault: the worker dies uncleanly
    return x * 10


def hang(x):
    if x == 2:
        time.sleep(60)
    return x * 10


class TestSerial:
    def test_results_in_input_order(self):
        res = run_sweep_robust(square, [1, 2, 3])
        assert res.results == [1, 4, 9]
        assert res.ok and res.attempts == 3

    def test_tuple_params(self):
        res = run_sweep_robust(pair, [(1, 2), (3, 4)])
        assert res.results == [(1, 2), (3, 4)]

    def test_transient_failure_retried(self):
        res = run_sweep_robust(flaky, [11, 12], retries=2)
        assert res.results == [111, 112]
        assert res.attempts == 4  # one retry each

    def test_exhausted_retries_become_sweep_failure(self):
        res = run_sweep_robust(boom, [1, 2, 3], retries=1)
        assert res.results[0] == 10 and res.results[2] == 30
        failure = res.results[1]
        assert isinstance(failure, SweepFailure)
        assert failure.error_type == "ValueError"
        assert failure.attempts == 2
        assert res.failures == [failure]
        assert not res.ok

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep_robust(square, [1], retries=-1)
        with pytest.raises(ValueError):
            run_sweep_robust(square, [1], timeout_s=0)


class TestPool:
    def test_pool_results_in_input_order(self):
        res = run_sweep_robust(square, [1, 2, 3, 4], jobs=2)
        assert res.results == [1, 4, 9, 16] and res.ok

    def test_worker_exception_isolated(self):
        res = run_sweep_robust(boom, [1, 2, 3], jobs=2, retries=0)
        assert res.results[0] == 10 and res.results[2] == 30
        assert isinstance(res.results[1], SweepFailure)
        assert res.results[1].error_type == "ValueError"

    def test_worker_death_does_not_lose_sibling_results(self):
        # Regression: an early sweep driver let one os._exit worker abort
        # the whole sweep, and every sibling result was lost.
        res = run_sweep_robust(
            hard_exit, [0, 1, 2, 3, 4, 5], jobs=2, retries=1
        )
        failure = res.results[2]
        assert isinstance(failure, SweepFailure)
        assert failure.error_type == "WorkerDied"
        assert "exited with code 13" in failure.message
        assert failure.attempts == 2
        for i in (0, 1, 3, 4, 5):
            assert res.results[i] == i * 10
        # Blame is exact: each sibling ran once, the dying cell twice, and
        # each death cost exactly one worker.
        assert res.attempts == 7
        assert res.pool_restarts == 2

    def test_stall_timeout_abandons_hung_cell(self):
        started = time.perf_counter()
        res = run_sweep_robust(
            hang, [0, 1, 2, 3], jobs=2, timeout_s=0.5, retries=0
        )
        elapsed = time.perf_counter() - started
        failure = res.results[2]
        assert isinstance(failure, SweepFailure)
        assert failure.error_type == "Timeout"
        for i in (0, 1, 3):
            assert res.results[i] == i * 10
        assert elapsed < 30  # did not wait for the 60s sleep


class TestCheckpoint:
    def test_missing_file_is_empty(self, tmp_path):
        assert load_checkpoint(tmp_path / "nope.jsonl") == {}

    def test_interrupted_sweep_resumes_identically(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        params = [(w, s) for w in (2, 3) for s in (0, 1, 2)]
        full = run_sweep_robust(schedule_cell, params)
        assert full.ok

        # "Interrupt" after two cells: only those land in the checkpoint.
        partial = run_sweep_robust(schedule_cell, params[:2], checkpoint=ck)
        assert partial.ok and len(load_checkpoint(ck)) == 2

        resumed = run_sweep_robust(
            schedule_cell, params, jobs=2, checkpoint=ck
        )
        assert resumed.resumed == 2
        assert resumed.attempts == len(params) - 2
        # Identical to the uninterrupted run, types included (the pickle
        # payload round-trips tuples exactly).
        assert resumed.results == full.results
        assert all(isinstance(r, tuple) for r in resumed.results)

    def test_failures_are_not_checkpointed(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        res = run_sweep_robust(
            boom, [1, 2, 3], retries=0, checkpoint=ck
        )
        assert not res.ok
        done = load_checkpoint(ck)
        assert set(done) == {0, 2}  # the failed cell stays recomputable

    def test_torn_trailing_line_tolerated(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        run_sweep_robust(square, [1, 2], checkpoint=ck)
        with open(ck, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "index": 9, "pic')  # crash mid-append
        assert set(load_checkpoint(ck)) == {0, 1}
        res = run_sweep_robust(square, [1, 2, 3], checkpoint=ck)
        assert res.results == [1, 4, 9] and res.resumed == 2


class TestBenchmarksFacade:
    """benchmarks/common.py::run_sweep now rides on the robust driver."""

    @pytest.fixture
    def common(self):
        bench_dir = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks"
        )
        sys.path.insert(0, os.path.abspath(bench_dir))
        try:
            import common

            yield common
        finally:
            sys.path.pop(0)

    def test_plain_results(self, common):
        assert common.run_sweep(square, [1, 2, 3]) == [1, 4, 9]

    def test_raises_after_driving_whole_grid(self, common):
        with pytest.raises(SweepError) as info:
            common.run_sweep(boom, [1, 2, 3], jobs=1, retries=0)
        exc = info.value
        # Every sibling's result survives on the exception.
        assert exc.results[0] == 10 and exc.results[2] == 30
        assert len(exc.failures) == 1
        assert "cell 1" in str(exc)

    def test_sibling_results_survive_worker_death(self, common):
        with pytest.raises(SweepError) as info:
            common.run_sweep(hard_exit, [0, 1, 2, 3, 4, 5], jobs=2)
        exc = info.value
        for i in (0, 1, 3, 4, 5):
            assert exc.results[i] == i * 10
        assert [f.index for f in exc.failures] == [2]

    def test_jobs_default_from_env(self, common, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert common.sweep_jobs() == 2
        assert common.run_sweep(square, [1, 2, 3, 4]) == [1, 4, 9, 16]


class TestSpoolCrashSafety:
    """ISSUE PR 7 satellite: a worker killed via ``os._exit`` mid-cell must
    leave a *readable* spool — every completed cell's telemetry recovered
    into the merge, the dying cell's line simply absent (never torn)."""

    def test_dead_worker_spool_recovers_completed_cells(self, tmp_path):
        from repro.obs import recording
        from repro.obs.pipeline import read_spools

        with recording() as rec:
            res = run_sweep_robust(
                hard_exit, [0, 1, 2, 3, 4, 5], jobs=2, retries=1,
                telemetry_dir=tmp_path,
            )

        # The sweep behaves exactly as without telemetry: the dead cell is
        # a WorkerDied failure, every sibling completes.
        assert isinstance(res.results[2], SweepFailure)
        assert res.results[2].error_type == "WorkerDied"
        for i in (0, 1, 3, 4, 5):
            assert res.results[i] == i * 10

        # The spool files parse cleanly despite the uncleanly-dead worker:
        # os._exit skips the cell's append, so its line is absent — not
        # half-written.  (Torn-line tolerance is belt-and-braces on top.)
        cells = read_spools(tmp_path)
        spooled = {c.cell for c in cells}
        assert 2 not in spooled
        assert spooled == {0, 1, 3, 4, 5}
        assert all(c.ok for c in cells)

        # Completed cells were recovered into the merged telemetry and the
        # session recorder — one sweep.cell span per completed execution
        # (blame is exact, so no innocent sibling is ever re-run).
        merge = res.telemetry
        assert merge is not None
        assert {c.cell for c in merge.cells} == spooled
        assert len(merge.cells) == 5
        recovered = [s for s in rec.spans if s.name == "sweep.cell"]
        assert len(recovered) == len(merge.cells)
        assert {s.attrs["cell"] for s in recovered} == spooled


class TestSpoolOwnership:
    """The sweep is its spool's one writer: it clears the directory at sweep
    start and appends each finished cell's records as it lands."""

    def test_second_sweep_leaves_only_its_own_cells(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.pipeline import read_spools

        spool = tmp_path / "spool"
        assert main(["sweep", "--windows", "2", "--seeds", "3",
                     "--jobs", "2", "--spool-dir", str(spool)]) == 0
        first = read_spools(spool)
        assert sorted(c.cell for c in first) == [0, 1, 2]
        assert main(["sweep", "--windows", "3", "--seeds", "2",
                     "--jobs", "2", "--spool-dir", str(spool)]) == 0
        capsys.readouterr()
        second = read_spools(spool)
        assert sorted(c.cell for c in second) == [0, 1]
        assert {c.trace_id for c in second}.isdisjoint(c.trace_id for c in first)
        assert all(c.pid != os.getpid() for c in second)

    def test_sweep_under_default_recording_carries_sim_traces(self, tmp_path):
        from repro.obs import recording
        from repro.obs.pipeline import read_spools

        with recording() as rec:
            res = run_sweep_robust(
                schedule_cell, [(2, 0), (2, 1)], jobs=2, telemetry_dir=tmp_path
            )
        assert res.ok
        assert rec.sim_traces and res.telemetry.sim_traces
        assert all(c.sim_traces for c in read_spools(tmp_path))
