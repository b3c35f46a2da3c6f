"""Robustness subsystem: fault injection, guarded scheduling, crash-tolerant
sweeps (see ``docs/RELIABILITY.md``).

Four layers:

- :mod:`repro.robust.faults` — seeded :class:`FaultPlan` perturbations of
  the simulated runtime (latency jitter, window wobble, forced mispredicts,
  stream corruption, spurious deadlocks), installed with :func:`injection`
  and consulted by :mod:`repro.sim.window` behind a no-op default;
- :mod:`repro.robust.guard` — :class:`GuardedScheduler`, wrapping Algorithm
  Lookahead with node/time budgets and post-hoc verification; any failure
  degrades to the always-legal per-block rank order, recorded as a
  :class:`DegradedResult` and an obs counter;
- :mod:`repro.robust.pool` — :class:`ExecutionPool`, long-lived workers
  that each hold one item, with stall timeouts, bounded retry and exact
  blame for a worker that dies;
- :mod:`repro.robust.sweep` — :func:`run_sweep_robust`, one pool batch
  wrapped in JSONL checkpoint/resume;

plus :mod:`repro.robust.fuzz`, the differential fuzz driver that runs the
scheduler zoo under every fault plan and checks invariants.

Only :mod:`.faults` is imported eagerly (the simulator consults it on every
run); the heavier layers load lazily on first attribute access so that
``import repro.sim`` stays light.
"""

from __future__ import annotations

from .faults import (
    FaultPlan,
    FaultState,
    active_plan,
    default_fault_plans,
    fault_state,
    injection,
    perturbed_machine,
    set_plan,
    suspended,
)

__all__ = [
    "DegradedResult",
    "ExecutionPool",
    "FaultPlan",
    "FaultState",
    "FuzzReport",
    "GuardedResult",
    "GuardedScheduler",
    "PoolConfig",
    "RetryPolicy",
    "SweepError",
    "SweepFailure",
    "SweepResult",
    "active_plan",
    "default_fault_plans",
    "fault_state",
    "injection",
    "perturbed_machine",
    "run_fuzz",
    "run_sweep_robust",
    "set_plan",
    "suspended",
]

_LAZY = {
    "DegradedResult": ("guard", "DegradedResult"),
    "ExecutionPool": ("pool", "ExecutionPool"),
    "PoolConfig": ("pool", "PoolConfig"),
    "RetryPolicy": ("backoff", "RetryPolicy"),
    "GuardedResult": ("guard", "GuardedResult"),
    "GuardedScheduler": ("guard", "GuardedScheduler"),
    "FuzzReport": ("fuzz", "FuzzReport"),
    "run_fuzz": ("fuzz", "run_fuzz"),
    "SweepError": ("pool", "SweepError"),
    "SweepFailure": ("pool", "SweepFailure"),
    "SweepResult": ("pool", "SweepResult"),
    "run_sweep_robust": ("sweep", "run_sweep_robust"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), attr)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
