"""A pool of long-lived workers with exact crash blame.

:class:`ExecutionPool` binds a callable once and drives items through it.
With ``jobs == 1`` items run in-process (exceptions are still retried, but
the stall timeout cannot preempt a running item).  With ``jobs > 1`` the
pool owns up to ``jobs`` forked workers that live from the first item that
needs them until :meth:`ExecutionPool.close`.  Each worker is fed over its
own pipe and holds at most one item, so blame is exact:

- a worker that dies (``os._exit``, segfault, OOM kill) fails exactly the
  item it held, as ``WorkerDied`` with its exit code, and is replaced on
  the next dispatch; siblings keep their results and are never re-run;
- an item that has run for its own timeout is hung (``Timeout``): only its
  worker is killed and later replaced;
- a failed item gets up to ``retries`` more attempts, each after a capped,
  jittered backoff (:mod:`repro.robust.backoff`) that waits on a timer
  while the other items keep running;
- an item submitted while a recorder is active is recorded: each of its
  executions runs under its own :class:`~repro.obs.pipeline.recorded_cell`,
  a child of that recorder's trace context with its ``sim_events``
  setting, and the cell record comes back with the answer, so counter
  totals and span counts match between ``jobs=1`` and ``jobs=N``.  Other
  items run with tracing off.

Two ways in.  :meth:`ExecutionPool.submit` hands over one item and returns
at once; :meth:`ExecutionPool.poll` waits for the pool's next events
(results, deaths, timeouts, due retries, or a :meth:`~ExecutionPool.wake`
from another thread) and runs each finished item's callback.
:meth:`ExecutionPool.run` is "submit all, poll until done", for sweeps and
batches.

Items (argument tuples; bare values are 1-tuples), results and cell
records cross the pipe pickled; anything else an item needs must travel
with it or be bound into the callable (:func:`functools.partial`).  Each
worker closes every socket it inherited except its own pipe, so a
connection its parent closes is never held half-open by a worker.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import signal
import stat
import time
import weakref
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Sequence

from ..obs import recorder as obs
from ..obs.pipeline import SpoolMerge, recorded_cell
from .backoff import RetryPolicy

#: Wait before a retry: 50 ms doubling, capped at 5 s, jittered.
_RETRY = RetryPolicy()


@dataclass(frozen=True)
class SweepFailure:
    """One item that could not be completed.

    Appears in ``SweepResult.results`` at the failed item's position, so
    downstream shape logic can see exactly which items are missing.
    """

    index: int
    error_type: str
    message: str
    attempts: int

    def __str__(self) -> str:
        return (
            f"cell {self.index}: {self.error_type} after "
            f"{self.attempts} attempt(s): {self.message}"
        )


class SweepError(RuntimeError):
    """Raised by strict sweeps after the whole grid has been driven: some
    cells failed, but every completed sibling's result is preserved on the
    exception (``.results`` / ``.failures``)."""

    def __init__(self, failures: Sequence[SweepFailure], results: list) -> None:
        self.failures = list(failures)
        self.results = results
        lines = [f"{len(self.failures)} sweep cell(s) failed:"]
        lines += [f"  {f}" for f in self.failures]
        super().__init__("\n".join(lines))


@dataclass
class SweepResult:
    """Outcome of one batch or sweep: per-item results (a
    :class:`SweepFailure` at each failed position), the failure list, and
    bookkeeping counts."""

    results: list = field(default_factory=list)
    failures: list[SweepFailure] = field(default_factory=list)
    #: Cells loaded from the checkpoint instead of recomputed.
    resumed: int = 0
    #: Total item executions, including retries.
    attempts: int = 0
    #: Workers replaced because they died or were killed as hung.
    pool_restarts: int = 0
    #: The batch's cell records, merged (populated only when a recorder
    #: was active at the start of the batch).
    telemetry: SpoolMerge | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def completed(self) -> int:
        return len(self.results) - len(self.failures)


@dataclass(frozen=True)
class PoolConfig:
    """Execution knobs shared by every item a pool runs.

    ``jobs=1`` executes in-process; ``jobs>1`` runs every item in one of
    up to ``jobs`` long-lived workers.  ``timeout_s`` bounds how long an
    item may run on a worker before it is declared hung (an item may carry
    a tighter one of its own).  ``retries`` extra attempts follow a failed
    one.
    """

    jobs: int = 1
    timeout_s: float | None = None
    retries: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0 or None, got {self.timeout_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")


# -- worker side ---------------------------------------------------------------


def _call(fn: Callable, args: tuple, trace: tuple | None) -> tuple:
    """Run one item: ``(True, value, record)``, or ``(False, (error_type,
    message), record)`` when it raised.  With ``trace = (context, cell,
    sim_events)`` the item runs under a
    :class:`~repro.obs.pipeline.recorded_cell` and ``record`` is its cell
    record (``ok: false`` when it raised, since it still executed); without
    one it runs with tracing off and ``record`` is None."""
    cell = recorded_cell(*trace) if trace is not None else None
    previous = obs.set_recorder(None)
    try:
        with cell or nullcontext():
            value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the item's own failure
        outcome = (False, (type(exc).__name__, str(exc)))
    else:
        outcome = (True, value)
    finally:
        obs.set_recorder(previous)
    return (*outcome, cell and cell.record)


def _close_inherited_sockets(keep: int) -> None:
    """Point every inherited socket except ``keep`` at /dev/null.

    ``dup2`` rather than ``close``: the inherited Python socket objects
    still own those descriptor numbers, and must not close a file this
    worker opens later under the same number.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir(fd_dir):
            fd = int(name)
            if fd in (keep, null):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:  # the listing's own descriptor, closed by now
                pass
    finally:
        os.close(null)


def _worker_main(conn, fn: Callable) -> None:
    """A worker's life: receive ``(args, trace)``, answer with
    :func:`_call`'s triple, exit when the pipe closes."""
    _close_inherited_sockets(conn.fileno())
    # Ctrl-C reaches the whole process group; the parent stops workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            args, trace = conn.recv()
        except EOFError:
            return
        reply = _call(fn, args, trace)
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return
        except Exception as exc:  # noqa: BLE001 - a value that won't pickle
            record = reply[2]
            if record is not None:
                record["ok"] = False
            conn.send((False, (type(exc).__name__, str(exc)), record))


class _Worker:
    """One forked worker and the parent's end of its pipe."""

    def __init__(self, fn: Callable) -> None:
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child, fn), daemon=True)
        self.proc.start()
        child.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.join()
        self.conn.close()

    def stop(self) -> None:
        """Close the pipe, which ends the worker's loop, and reap it."""
        self.conn.close()
        self.proc.join(timeout=5)
        if self.proc.is_alive():
            self.kill()


# -- parent side -----------------------------------------------------------------


@dataclass(eq=False)
class Job:
    """One item on its way through the pool.

    ``on_start(job)``, if given, runs once, right before the first attempt
    reaches a worker (or runs in-process): it may rewrite ``args`` and
    ``timeout_s``, or return False to withdraw the job, whose ``on_done``
    then never runs.  ``on_done(job)`` runs once, from
    :meth:`ExecutionPool.poll`, when ``result`` holds the value or a
    :class:`SweepFailure`.
    """

    args: tuple
    on_done: Callable[["Job"], None]
    timeout_s: float | None = None
    on_start: Callable[["Job"], bool] | None = None
    cell: int = 0
    #: ``(context, cell, sim_events)`` each execution is recorded under,
    #: from the recorder active at submit; None: not recorded.
    trace: tuple | None = None
    attempts: int = 0
    #: Workers this job's attempts cost (deaths and hung kills).
    restarts: int = 0
    result: object = None
    #: Cell records of this job's executions, one per attempt that
    #: returned or raised (a worker that died took its record along).
    telemetry: list[dict] = field(default_factory=list)
    #: Monotonic start of the running attempt.
    started: float = 0.0


def _close_fds(*fds: int) -> None:
    for fd in fds:
        try:
            os.close(fd)
        except OSError:
            pass


class ExecutionPool:
    """A callable bound to a pool of long-lived workers.

    ``fn`` is called as ``fn(*item)``; with ``jobs > 1`` it runs in the
    workers, so items and return values must pickle.  Use the pool as a
    context manager, or call :meth:`close`, to stop the workers.  Only one
    thread may drive a pool; :meth:`wake` is the one call safe from others.
    """

    def __init__(self, fn: Callable, config: PoolConfig | None = None) -> None:
        self.fn = fn
        self.config = config or PoolConfig()
        #: Units of work handed over — :meth:`run` calls and
        #: :meth:`submit` calls, each a batch of one — and totals across
        #: them.
        self.batches = 0
        self.attempts = 0
        self.pool_restarts = 0
        self._idle: list[_Worker] = []
        self._busy: dict[_Worker, Job] = {}
        #: Jobs waiting for a worker, oldest first.
        self._ready: deque[Job] = deque()
        #: Failed jobs waiting out their backoff: (due, seq, job) heap.
        self._timers: list[tuple[float, int, Job]] = []
        #: Finished jobs whose on_done has not run yet.
        self._finished: list[Job] = []
        self._seq = itertools.count()
        self._rng = _RETRY.rng(0)
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        weakref.finalize(self, _close_fds, self._wake_r, self._wake_w)

    def __enter__(self) -> "ExecutionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker and drop every unfinished job (its
        ``on_done`` never runs); a later submit or run starts new
        workers."""
        busy, self._busy = self._busy, {}
        for worker in busy:
            worker.kill()
        idle, self._idle = self._idle, []
        for worker in idle:
            worker.stop()
        self._ready.clear()
        self._timers.clear()
        self._finished.clear()

    # -- the non-blocking core --------------------------------------------------

    def submit(
        self,
        item: object,
        on_done: Callable[[Job], None],
        on_start: Callable[[Job], bool] | None = None,
    ) -> Job:
        """Hand one item to the pool as a batch of its own: it starts on an
        idle worker now (forking one while fewer than ``jobs`` exist) or
        waits for one.  ``on_done(job)`` runs from a later :meth:`poll`."""
        self.batches += 1
        job = self._job(item, on_done, on_start, self.batches)
        self._enqueue(job)
        return job

    def poll(self) -> None:
        """Wait for the pool's next events and handle them: results and
        deaths, items that ran past their timeout, due retries and items
        waiting for a worker; in-process (``jobs == 1``) one waiting item
        runs.  Every job that finished has had its ``on_done`` run on
        return.  :meth:`wake` ends the wait early."""
        self._dispatch()
        if self.config.jobs == 1:
            self._run_inline()
        else:
            self._await_workers()
        self._dispatch()
        finished, self._finished = self._finished, []
        for job in finished:
            job.on_done(job)

    def wake(self) -> None:
        """End the current or next :meth:`poll` wait; safe from any
        thread."""
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:  # a wake-up is already pending
            pass

    # -- whole batches ---------------------------------------------------------

    def run(self, items: Sequence[object]) -> SweepResult:
        """Drive one batch to completion; failed items appear as
        :class:`SweepFailure` entries in input order instead of aborting
        the batch."""
        return self._run(items, range(len(items)))

    def _run(self, items, cells, on_done=None) -> SweepResult:
        """:meth:`run` for the sweep driver: ``cells`` are the items' ids
        (cell record ids and :attr:`SweepFailure.index`), and
        ``on_done(job)`` sees each finished job as it lands."""
        self.batches += 1
        left = len(items)

        def done(job: Job) -> None:
            nonlocal left
            left -= 1
            if on_done is not None:
                on_done(job)

        recorder = obs.get_recorder()
        jobs = [self._job(item, done, None, cell) for item, cell in zip(items, cells)]
        if jobs:
            with obs.span("sweep", cells=len(jobs), jobs=self.config.jobs):
                try:
                    for job in jobs:
                        self._enqueue(job)
                    while left:
                        self.poll()
                except BaseException:
                    # Interrupted: never let a later caller read these
                    # answers.
                    self.close()
                    raise
        results = [job.result for job in jobs]
        result = SweepResult(
            results=results,
            failures=[r for r in results if isinstance(r, SweepFailure)],
            attempts=sum(job.attempts for job in jobs),
            pool_restarts=sum(job.restarts for job in jobs),
        )
        if recorder is not None:
            result.telemetry = SpoolMerge.from_records(
                record for job in jobs for record in job.telemetry
            )
            result.telemetry.merge_into(recorder)
        return result

    # -- internals --------------------------------------------------------------

    def _job(self, item, on_done, on_start, cell) -> Job:
        """A job for ``item``, recorded if a recorder is active now."""
        recorder = obs.get_recorder()
        trace = None
        if recorder is not None:
            trace = (recorder.context.child(f"cell-{cell}"), cell, recorder.sim_events)
        return Job(
            args=item if isinstance(item, tuple) else (item,),
            on_done=on_done,
            timeout_s=self.config.timeout_s,
            on_start=on_start,
            cell=cell,
            trace=trace,
        )

    def _enqueue(self, job: Job) -> None:
        self._ready.append(job)
        self._dispatch()

    def _dispatch(self) -> None:
        """Put due retries at the head of the waiting jobs, then start
        waiting jobs on free workers (in-process jobs wait for poll)."""
        now = time.monotonic()
        due = []
        while self._timers and self._timers[0][0] <= now:
            due.append(heapq.heappop(self._timers)[2])
        self._ready.extendleft(reversed(due))
        if self.config.jobs == 1:
            return
        while self._ready and len(self._busy) < self.config.jobs:
            job = self._ready.popleft()
            if not self._begin(job):
                continue
            try:
                worker = self._checkout(job)
            except OSError as exc:  # fork failed
                self._fail(job, type(exc).__name__, str(exc))
                continue
            try:
                worker.conn.send((job.args, job.trace))
            except Exception as exc:  # noqa: BLE001 - unpicklable item, dead pipe
                worker.kill()
                self._restarted(job)
                self._fail(job, type(exc).__name__, str(exc))
                continue
            job.started = time.monotonic()
            self._busy[worker] = job

    def _begin(self, job: Job) -> bool:
        """Charge ``job`` an attempt; False when its ``on_start`` withdrew
        it."""
        if job.attempts == 0 and job.on_start is not None and not job.on_start(job):
            return False
        job.attempts += 1
        self.attempts += 1
        return True

    def _checkout(self, job: Job) -> _Worker:
        """An idle live worker, else a new one."""
        while self._idle:
            worker = self._idle.pop()
            if worker.proc.exitcode is None:
                return worker
            worker.conn.close()  # died while idle
            self._restarted(job)
        return _Worker(self.fn)

    def _restarted(self, job: Job) -> None:
        job.restarts += 1
        self.pool_restarts += 1

    def _wait_s(self) -> float | None:
        """Time until the first event the pool must act on by itself: a
        finished job to deliver, a running item's timeout or a due retry
        (None: no such event)."""
        if self._finished:
            return 0.0
        ends = [
            job.started + job.timeout_s
            for job in self._busy.values()
            if job.timeout_s is not None
        ]
        if self._timers:
            ends.append(self._timers[0][0])
        return max(min(ends) - time.monotonic(), 0.0) if ends else None

    def _await_workers(self) -> None:
        busy = list(self._busy.items())
        ready = wait(
            [w.conn for w, _ in busy] + [w.proc.sentinel for w, _ in busy]
            + [self._wake_r],
            self._wait_s(),
        )
        if self._wake_r in ready:
            self._drain_wake()
        for worker, job in busy:
            if worker.conn in ready or worker.proc.sentinel in ready:
                del self._busy[worker]
                self._collect(worker, job)
        now = time.monotonic()
        for worker, job in list(self._busy.items()):
            if job.timeout_s is not None and now - job.started >= job.timeout_s:
                # Hung: only this item's worker is killed.
                del self._busy[worker]
                worker.kill()
                self._restarted(job)
                self._fail(job, "Timeout", f"no result within {job.timeout_s:g}s")

    def _collect(self, worker: _Worker, job: Job) -> None:
        """A busy worker answered or died."""
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            worker.proc.join()
            worker.conn.close()
            self._restarted(job)
            proc = worker.proc
            message = f"worker {proc.pid} exited with code {proc.exitcode}"
            self._fail(job, "WorkerDied", message)
            return
        self._idle.append(worker)
        self._settle(job, *reply)

    def _run_inline(self) -> None:
        if not self._ready:
            if wait([self._wake_r], self._wait_s()):
                self._drain_wake()
            self._dispatch()
            if not self._ready:
                return
        job = self._ready.popleft()
        if self._begin(job):
            self._settle(job, *_call(self.fn, job.args, job.trace))

    def _drain_wake(self) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass

    def _settle(self, job: Job, ok: bool, payload, record: dict | None) -> None:
        """An attempt ended with an answer (:func:`_call`'s triple)."""
        if record is not None:
            job.telemetry.append(record)
        if ok:
            job.result = payload
            self._finished.append(job)
        else:
            self._fail(job, *payload)

    def _fail(self, job: Job, error_type: str, message: str) -> None:
        """A failed attempt: retried after a backoff while attempts remain,
        else the job finishes as a :class:`SweepFailure`."""
        if job.attempts <= self.config.retries:
            due = time.monotonic() + _RETRY.delay_s(job.attempts, self._rng)
            heapq.heappush(self._timers, (due, next(self._seq), job))
            obs.count("sweep.retries")
            return
        job.result = SweepFailure(job.cell, error_type, message, job.attempts)
        obs.count("sweep.failures")
        self._finished.append(job)
