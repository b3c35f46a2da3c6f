"""The service's compute kernel: schedule one request under the robust
guard, ground-truth it in the window simulator, return plain data.

:func:`compute_request` takes a JSON-able wire document and returns a
JSON-able dict, so it can run in the long-lived workers of a
:class:`repro.robust.ExecutionPool`: items and results cross the pipe
pickled, and no live objects cross the process boundary.  Everything a
response or cache entry needs is in the returned dict.

Scheduling runs through :class:`~repro.robust.guard.GuardedScheduler`
with the request's own scheduler as the guarded primary: the emitted
orders on the happy path are exactly what :func:`compute_block_orders`
returns (the bit-identity contract with direct library calls is
untouched), but a budget blowout, crash-adjacent exception or verifier
rejection degrades to the verified always-legal per-block fallback, and
the result dict carries a ``"degraded"`` diagnostic the service surfaces
on the response and keeps out of the cache.  The guard's time budget is
the smaller of the service's worker budget (bound into the pool's
callable with :func:`functools.partial`) and the request's remaining
``deadline_ms``.

Chaos hooks: the service sends the installed :mod:`repro.serve.chaos`
plan with each request; the plan decides per request id whether this
compute exits hard, hangs past the pool's stall timeout, or schedules
slowly enough to degrade — the serve-tier fault injection the chaos
harness drives.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Mapping

from ..core import local_block_orders  # noqa: F401  (re-export compat)
from ..core import algorithm_lookahead
from ..ir.basicblock import Trace
from ..machine.model import MachineModel
from ..obs import recorder as obs
from ..obs.pipeline import TraceContext
from ..robust.guard import GuardedScheduler
from ..schedulers import (
    block_orders_with_priority,
    critical_path_priority,
    source_order_priority,
)
from ..sim import simulate_trace
from .chaos import ChaosPlan
from .protocol import ScheduleRequest


@contextmanager
def request_trace_context(trace_id: str | None, parent_span_id: str | None):
    """Re-stamp the active recorder's context with the *request's* trace id
    for the duration of one compute.

    Inside a pool worker the active recorder is the per-batch
    ``spooled_cell`` recorder, whose context carries the daemon's batch
    trace id.  Spans recorded while this context manager is active are
    instead stamped with the distributed trace id the client supplied — so
    a request's worker-side spans join *its* trace across the fork
    boundary, not just the worker's pid.  No-op when tracing is off or the
    request is untraced.
    """
    rec = obs.get_recorder()
    if rec is None or trace_id is None:
        yield
        return
    previous = rec.context
    rec.context = TraceContext(
        trace_id=trace_id, parent_span_id=parent_span_id, pid=os.getpid()
    )
    try:
        yield
    finally:
        rec.context = previous


def compute_block_orders(
    trace: Trace, machine: MachineModel, scheduler: str
) -> list[list[str]]:
    """Dispatch on scheduler name — the same table ``repro schedule``
    uses, shared so the daemon can never drift from the CLI."""
    if scheduler == "anticipatory":
        return algorithm_lookahead(trace, machine).block_orders
    if scheduler == "local":
        return local_block_orders(trace, machine)
    if scheduler == "critical-path":
        return block_orders_with_priority(trace, critical_path_priority, machine)
    if scheduler == "source":
        return block_orders_with_priority(trace, source_order_priority, machine)
    raise ValueError(f"unknown scheduler {scheduler!r}")


def _guard_budget_s(
    request: ScheduleRequest, budget: float | None
) -> float | None:
    """The effective time budget: the worker budget tightened to the
    request's remaining deadline (whichever is smaller)."""
    if request.deadline_ms is not None:
        deadline_s = request.deadline_ms / 1e3
        budget = deadline_s if budget is None else min(budget, deadline_s)
    return budget


def compute_schedule(
    request: ScheduleRequest,
    primary_delay_s: float | None = None,
    time_budget_s: float | None = None,
    node_budget: int | None = None,
) -> dict:
    """Schedule + simulate one decoded request under the guard.

    The returned dict is the full uncached answer: emitted block orders,
    the simulated makespan / stall count, the runtime schedule's start
    times and unit assignments (needed so cache hits can reconstruct the
    response without re-running anything), the schedule's own content
    digest (:meth:`repro.core.schedule.Schedule.digest`), a ``"worker"``
    block — pid, per-phase wall times, the request's trace id — that rides
    back through the pool pickle so the service can graft worker spans
    into the request's span tree even when spooling is off, and (only when
    the guard fell back) a ``"degraded"`` diagnostic dict.

    ``primary_delay_s`` injects a sleep *inside* the guarded primary —
    the chaos harness's slow-scheduler fault; the guard's budget is the
    mechanism that turns it into a degradation instead of a hang.
    ``time_budget_s`` and ``node_budget`` are the guard's budgets.
    """

    def primary(trace: Trace, machine: MachineModel) -> list[list[str]]:
        if primary_delay_s is not None:
            time.sleep(primary_delay_s)
        return compute_block_orders(trace, machine, request.scheduler)

    guard = GuardedScheduler(
        machine=request.machine,
        time_budget_s=_guard_budget_s(request, time_budget_s),
        node_budget=node_budget,
        primary=primary,
    )
    with request_trace_context(request.trace_id, request.parent_span_id):
        t0 = time.perf_counter_ns()
        with obs.span(
            "serve.worker.schedule",
            scheduler=request.scheduler,
            trace_id=request.trace_id,
        ):
            guarded = guard.schedule(request.trace)
        orders = guarded.block_orders
        t1 = time.perf_counter_ns()
        with obs.span("serve.worker.simulate", trace_id=request.trace_id):
            sim = simulate_trace(request.trace, orders, request.machine)
        t2 = time.perf_counter_ns()
    schedule = sim.schedule
    out = {
        "block_orders": [list(o) for o in orders],
        "makespan": sim.makespan,
        "stall_cycles": sim.stall_cycles,
        "starts": dict(schedule.starts),
        "units": {n: list(u) for n, u in schedule.units.items()},
        "schedule_digest": schedule.digest(),
        "worker": {
            "pid": os.getpid(),
            "trace_id": request.trace_id,
            "start_ns": t0,
            "phases": {
                "schedule_ns": t1 - t0,
                "simulate_ns": t2 - t1,
            },
        },
    }
    if guarded.degraded is not None:
        out["degraded"] = guarded.degraded.to_dict()
    return out


def compute_request(
    doc: Mapping,
    plan: ChaosPlan | None = None,
    time_budget_s: float | None = None,
    node_budget: int | None = None,
) -> dict:
    """Pool entry point: wire dict in, result dict out.

    ``plan`` is the chaos plan sent with the request, if any: it may order
    this compute to die or hang before any work happens — the crash-blame
    and stall-timeout paths the pool exists for — or to run its primary
    slowly enough that the guard degrades it.  ``time_budget_s`` and
    ``node_budget`` are the guard's budgets.
    """
    request = ScheduleRequest.from_dict(doc)
    delay_s = None
    if plan is not None:
        action = plan.worker_action(request.id)
        if action == "exit":
            os._exit(23)
        if action == "hang":
            time.sleep(plan.hang_s)
        elif action == "slow":
            delay_s = plan.slow_s
    return compute_schedule(request, delay_s, time_budget_s, node_budget)
