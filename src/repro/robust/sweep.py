"""Checkpointed experiment sweeps over the execution pool.

An experiment sweep maps one cell function over a parameter grid.
:func:`run_sweep_robust` runs the grid as one
:class:`~repro.robust.pool.ExecutionPool` batch, so a sweep keeps every
guarantee of the pool — per-cell stall timeouts, bounded retry, exact blame
for a worker that dies, cross-process telemetry — and adds **JSONL
checkpoint/resume**: each completed cell is appended to a checkpoint file
as it finishes (pickle + base64 for exact round-trip fidelity, plus a
human-readable preview); re-running with the same checkpoint recomputes
only the missing cells, so an interrupted sweep resumes where it stopped
and produces results identical to an uninterrupted run.

Results always come back in input order.  Cells must be independent; with
``jobs > 1`` their arguments and results must pickle.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from pathlib import Path
from typing import Callable, Sequence

from .pool import ExecutionPool, PoolConfig, SweepResult
from .pool import SweepError, SweepFailure  # noqa: F401  (re-export)


# -- checkpoint format -------------------------------------------------------

_CHECKPOINT_VERSION = 1


def _encode_cell(index: int, value) -> str:
    """One checkpoint line: pickle for fidelity, repr preview for humans."""
    payload = base64.b64encode(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")
    preview = repr(value)
    if len(preview) > 120:
        preview = preview[:117] + "..."
    return json.dumps(
        {
            "v": _CHECKPOINT_VERSION,
            "index": index,
            "pickle": payload,
            "preview": preview,
        }
    )


def load_checkpoint(path: str | os.PathLike) -> dict[int, object]:
    """Completed cells recorded in ``path`` (missing file → empty).

    Torn trailing lines (a crash mid-append) and unparseable records are
    skipped — resume recomputes those cells.
    """
    out: dict[int, object] = {}
    p = Path(path)
    if not p.exists():
        return out
    with p.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if rec.get("v") != _CHECKPOINT_VERSION:
                    continue
                out[int(rec["index"])] = pickle.loads(
                    base64.b64decode(rec["pickle"])
                )
            except Exception:  # noqa: BLE001 - torn/corrupt line: recompute
                continue
    return out


# -- the driver --------------------------------------------------------------


def run_sweep_robust(
    fn: Callable,
    params: Sequence[object],
    *,
    jobs: int = 1,
    timeout_s: float | None = None,
    retries: int = 1,
    checkpoint: str | os.PathLike | None = None,
    telemetry_dir: str | os.PathLike | None = None,
) -> SweepResult:
    """Map ``fn`` over ``params`` (argument tuples; bare values are
    1-tuples), surviving worker crashes, hangs and interruptions.

    ``jobs``, ``timeout_s`` and ``retries`` configure the
    :class:`~repro.robust.pool.ExecutionPool` the grid runs on (in-process
    at ``jobs == 1``; the pool's workers are stopped before this returns).
    ``checkpoint`` names a JSONL file appended to as cells finish and
    consulted before computing anything — pass the same path again to
    resume.  ``telemetry_dir`` spools every cell execution there under a
    child of the current trace context (cell ids are grid indices, also on
    resume) and merges the spools into the active recorder and
    ``result.telemetry``.  Returns a :class:`SweepResult`; failed cells
    appear as :class:`SweepFailure` entries instead of aborting the sweep.
    """
    config = PoolConfig(jobs=max(jobs, 1), timeout_s=timeout_s, retries=retries)
    done = load_checkpoint(checkpoint) if checkpoint is not None else {}
    pending = [i for i in range(len(params)) if i not in done]
    ckpt_fh = None
    if checkpoint is not None:
        Path(checkpoint).parent.mkdir(parents=True, exist_ok=True)
        ckpt_fh = open(checkpoint, "a", encoding="utf-8")

    def record(i: int, value) -> None:
        if ckpt_fh is not None:
            ckpt_fh.write(_encode_cell(i, value) + "\n")
            ckpt_fh.flush()

    try:
        with ExecutionPool(fn, config, telemetry_dir) as pool:
            result = pool._run([params[i] for i in pending], pending, on_result=record)
    finally:
        if ckpt_fh is not None:
            ckpt_fh.close()
    fresh = dict(zip(pending, result.results))
    result.results = [fresh[i] if i in fresh else done[i] for i in range(len(params))]
    result.resumed = len(params) - len(pending)
    return result


# -- demo cell for the CLI ---------------------------------------------------


def schedule_cell(
    window: int, seed: int, num_blocks: int = 3, lo: int = 4, hi: int = 7
) -> tuple[int, int, int, int, int]:
    """One cell of the CLI demo sweep (``repro sweep``): anticipatory vs
    per-block-local makespan on a seeded random trace at window W."""
    from ..core.lookahead import algorithm_lookahead, local_block_orders
    from ..machine.presets import paper_machine
    from ..sim.window import simulate_trace
    from ..workloads.traces import random_trace

    machine = paper_machine(window)
    trace = random_trace(
        num_blocks, (lo, hi), edge_probability=0.3,
        cross_probability=0.1, seed=seed,
    )
    anticipatory = simulate_trace(
        trace, algorithm_lookahead(trace, machine).block_orders, machine
    )
    local = simulate_trace(
        trace, local_block_orders(trace, machine), machine
    )
    return (
        window,
        seed,
        anticipatory.makespan,
        local.makespan,
        anticipatory.stall_cycles,
    )


def guarded_cell(
    window: int, seed: int, num_blocks: int = 3, lo: int = 4, hi: int = 7
) -> tuple[int, int, int, str, str]:
    """Fault-injected variant of :func:`schedule_cell` (``repro sweep
    --faults``): schedule a seeded random trace through
    :class:`~repro.robust.guard.GuardedScheduler` under a fault plan drawn
    deterministically from the default suite, then simulate the verified
    order under the same injection.  Exercises the full ``guard.*`` /
    ``faults.injected.*`` counter surface, and because the plan depends
    only on ``seed``, a ``jobs=1`` and a ``jobs=N`` run of the same grid
    inject byte-identical faults.  Returns ``(window, seed, makespan,
    source, plan_name)`` with ``makespan=-1`` when the injected adversity
    (deadlock, corrupted stream) stopped the simulation — the schedule
    itself is still verified-legal."""
    from ..machine.presets import paper_machine
    from ..sim.window import SimulationDeadlock, simulate_trace
    from ..workloads.traces import random_trace
    from . import faults
    from .guard import GuardedScheduler

    machine = paper_machine(window)
    trace = random_trace(
        num_blocks, (lo, hi), edge_probability=0.3,
        cross_probability=0.1, seed=seed,
    )
    plans = faults.default_fault_plans(seed=seed)
    plan = plans[seed % len(plans)]
    guard = GuardedScheduler(machine=machine)
    with faults.injection(plan):
        guarded = guard.schedule(trace)
        try:
            sim = simulate_trace(trace, guarded.block_orders, machine)
            makespan = sim.makespan
        except (SimulationDeadlock, ValueError):
            makespan = -1
    return (window, seed, makespan, guarded.source, plan.name)
