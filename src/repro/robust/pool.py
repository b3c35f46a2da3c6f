"""A pool of long-lived workers with exact crash blame.

:class:`ExecutionPool` binds a callable once and drives batches of items
through it.  With ``jobs == 1`` items run in-process (exceptions are still
retried, but the stall timeout cannot preempt a running item).  With
``jobs > 1`` the pool owns up to ``jobs`` forked workers that live from the
first batch that needs them until :meth:`ExecutionPool.close`.  Each worker
is fed over its own pipe and holds at most one item, so blame is exact:

- a worker that dies (``os._exit``, segfault, OOM kill) fails exactly the
  item it held, as ``WorkerDied`` with its exit code, and is replaced on
  the next dispatch; siblings keep their results and are never re-run;
- when no item completes for a full ``timeout_s``, every busy item is
  declared hung (``Timeout``) and its worker killed and later replaced;
- a failed item gets up to ``retries`` more attempts, in rounds separated
  by a capped, jittered backoff (:mod:`repro.robust.backoff`);
- with ``telemetry_dir`` every execution runs under its own
  :class:`~repro.obs.pipeline.spooled_cell`, merged into the active
  recorder when the batch ends, so counter totals and span counts match
  between ``jobs=1`` and ``jobs=N``.

Items (argument tuples; bare values are 1-tuples) and results cross the
pipe pickled; anything else an item needs must travel with it or be bound
into the callable (:func:`functools.partial`).  Each worker closes every
socket it inherited except its own pipe, so a connection its parent closes
is never held half-open by a worker.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import stat
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Sequence

from ..obs import recorder as obs
from ..obs.pipeline import (
    SpoolMerge, clear_spools, current_context, merge_spools, spooled_cell,
)
from .backoff import RetryPolicy

#: Sleep between retry rounds: 50 ms doubling, capped at 5 s, jittered.
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
    #: Merged worker telemetry (populated only with a ``telemetry_dir``).
    telemetry: SpoolMerge | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def completed(self) -> int:
        return len(self.results) - len(self.failures)


@dataclass(frozen=True)
class PoolConfig:
    """Execution knobs shared by every batch a pool runs.

    ``jobs=1`` executes in-process; ``jobs>1`` runs every item in one of
    up to ``jobs`` long-lived workers.  ``timeout_s`` bounds the time a
    batch tolerates with no item completing before declaring the busy items
    hung.  ``retries`` extra attempts follow a failed one.
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


def _call(fn: Callable, args: tuple, spool: tuple | None):
    """Run one item; with ``spool = (directory, context, cell)`` under a
    spooled recorder, so its telemetry outlives the process.  A raising
    item is still spooled (``ok=False``) because it still executed."""
    if spool is None:
        return fn(*args)
    with spooled_cell(*spool):
        return fn(*args)


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
    """A worker's life: receive ``(args, spool)``, answer ``(True, value)``
    or ``(False, (error_type, message))``, exit when the pipe closes."""
    _close_inherited_sockets(conn.fileno())
    # Ctrl-C reaches the whole process group; the parent stops workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            args, spool = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, _call(fn, args, spool))
        except Exception as exc:  # noqa: BLE001 - the item's own failure
            reply = (False, (type(exc).__name__, str(exc)))
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return
        except Exception as exc:  # noqa: BLE001 - a value that won't pickle
            conn.send((False, (type(exc).__name__, str(exc))))


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


class _Batch:
    """Bookkeeping of one batch: outcomes, attempts and telemetry."""

    def __init__(self, calls, cells, retries, telemetry_dir, on_result) -> None:
        self.calls = calls
        self.cells = cells
        self.max_attempts = retries + 1
        self.attempts = [0] * len(calls)
        self.result = SweepResult(results=[None] * len(calls))
        self.on_result = on_result
        self.telemetry_dir = telemetry_dir
        self.context = None
        if telemetry_dir is not None:
            Path(telemetry_dir).mkdir(parents=True, exist_ok=True)
            clear_spools(telemetry_dir)
            self.context = current_context()

    def job(self, k: int) -> tuple:
        """Charge item ``k`` an attempt; returns ``(args, spool)``."""
        self.attempts[k] += 1
        self.result.attempts += 1
        spool = None
        if self.context is not None:
            cell = self.cells[k]
            spool = (
                os.fspath(self.telemetry_dir),
                self.context.child(f"cell-{cell}"),
                cell,
            )
        return self.calls[k], spool

    def succeed(self, k: int, value) -> None:
        self.result.results[k] = value
        if self.on_result is not None:
            self.on_result(self.cells[k], value)

    def fail(self, k: int, error_type: str, message: str, retry: list[int]) -> None:
        """A failed attempt: queued for the next round while attempts
        remain, else recorded as a :class:`SweepFailure`."""
        if self.attempts[k] < self.max_attempts:
            retry.append(k)
            return
        failure = SweepFailure(self.cells[k], error_type, message, self.attempts[k])
        self.result.results[k] = failure
        self.result.failures.append(failure)
        obs.count("sweep.failures")


class ExecutionPool:
    """A callable bound to a pool of long-lived workers.

    ``fn`` is called as ``fn(*item)``; with ``jobs > 1`` it runs in the
    workers, so items and return values must pickle.  Use the pool as a
    context manager, or call :meth:`close`, to stop the workers.
    """

    def __init__(
        self,
        fn: Callable,
        config: PoolConfig | None = None,
        telemetry_dir: str | os.PathLike | None = None,
    ) -> None:
        self.fn = fn
        self.config = config or PoolConfig()
        self.telemetry_dir = telemetry_dir
        #: Aggregate bookkeeping across batches.
        self.batches = 0
        self.attempts = 0
        self.pool_restarts = 0
        self._idle: list[_Worker] = []

    def __enter__(self) -> "ExecutionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker; a later :meth:`run` starts new ones."""
        workers, self._idle = self._idle, []
        for worker in workers:
            worker.stop()

    def run(
        self,
        items: Sequence[object],
        timeout_s: float | None = None,
    ) -> SweepResult:
        """Drive one batch to completion; failed items appear as
        :class:`SweepFailure` entries in input order instead of aborting
        the batch.

        ``timeout_s`` overrides the configured stall timeout for this
        batch only — the serving tier tightens it to the smallest
        remaining request deadline so a batch never outlives the clients
        waiting on it.  ``None`` keeps the config value.
        """
        return self._run(items, range(len(items)), timeout_s)

    def _run(self, items, cells, timeout_s=None, on_result=None) -> SweepResult:
        """:meth:`run` for the sweep driver: ``cells`` are the items' ids
        (spool cell ids and :attr:`SweepFailure.index`), and
        ``on_result(cell, value)`` sees each success as it lands."""
        cfg = self.config
        if timeout_s is None:
            timeout_s = cfg.timeout_s
        batch = _Batch(
            [p if isinstance(p, tuple) else (p,) for p in items],
            list(cells),
            cfg.retries,
            self.telemetry_dir,
            on_result,
        )
        queue = list(range(len(batch.calls)))
        rng = _RETRY.rng(0)
        if queue:
            with obs.span("sweep", cells=len(queue), jobs=cfg.jobs):
                while True:
                    if cfg.jobs == 1:
                        retry = self._inline_round(batch, queue)
                    else:
                        retry = self._worker_round(batch, queue, timeout_s)
                    if not retry:
                        break
                    worst = max(batch.attempts[k] for k in retry)
                    time.sleep(_RETRY.delay_s(worst, rng))
                    obs.count("sweep.retries", len(retry))
                    queue = sorted(retry)
        result = batch.result
        if self.telemetry_dir is not None:
            result.telemetry = merge_spools(self.telemetry_dir, obs.get_recorder())
        self.batches += 1
        self.attempts += result.attempts
        self.pool_restarts += result.pool_restarts
        return result

    def _inline_round(self, batch: _Batch, queue: list[int]) -> list[int]:
        retry: list[int] = []
        for k in queue:
            try:
                batch.succeed(k, _call(self.fn, *batch.job(k)))
            except Exception as exc:  # noqa: BLE001
                batch.fail(k, type(exc).__name__, str(exc), retry)
        return retry

    def _checkout(self, batch: _Batch) -> _Worker:
        """An idle live worker, else a new one."""
        while self._idle:
            worker = self._idle.pop()
            if worker.proc.exitcode is None:
                return worker
            worker.conn.close()  # died while idle
            batch.result.pool_restarts += 1
        return _Worker(self.fn)

    def _worker_round(
        self, batch: _Batch, queue: list[int], timeout_s: float | None
    ) -> list[int]:
        retry: list[int] = []
        todo = deque(queue)
        busy: dict[_Worker, int] = {}
        last_progress = time.monotonic()
        try:
            while todo or busy:
                while todo and len(busy) < self.config.jobs:
                    k = todo.popleft()
                    worker = self._checkout(batch)
                    worker.conn.send(batch.job(k))
                    busy[worker] = k
                wait_s = None
                if timeout_s is not None:
                    wait_s = max(last_progress + timeout_s - time.monotonic(), 0.0)
                ready = wait(
                    [w.conn for w in busy] + [w.proc.sentinel for w in busy], wait_s
                )
                if not ready:
                    # Stall timeout: no completion for a full timeout_s
                    # window, so every busy item is hung.
                    message = f"no completion within {timeout_s:g}s"
                    for worker, k in busy.items():
                        worker.kill()
                        batch.result.pool_restarts += 1
                        batch.fail(k, "Timeout", message, retry)
                    busy.clear()
                done = [w for w in busy if w.conn in ready or w.proc.sentinel in ready]
                for worker in done:
                    k = busy.pop(worker)
                    try:
                        ok, payload = worker.conn.recv()
                    except (EOFError, OSError):
                        worker.proc.join()
                        worker.conn.close()
                        batch.result.pool_restarts += 1
                        proc = worker.proc
                        message = f"worker {proc.pid} exited with code {proc.exitcode}"
                        batch.fail(k, "WorkerDied", message, retry)
                        continue
                    self._idle.append(worker)
                    if ok:
                        batch.succeed(k, payload)
                    else:
                        batch.fail(k, *payload, retry)
                last_progress = time.monotonic()
        finally:
            # Only an exception leaves items in flight: never let a later
            # batch read their answers.
            for worker in busy:
                worker.kill()
        return retry
