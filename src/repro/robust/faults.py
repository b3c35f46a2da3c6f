"""Seeded fault injection for the simulator, machine model and serving
workers.

The paper's safety argument (§1, §4) is a graceful-degradation contract:
anticipatory scheduling never moves an instruction across a basic-block
boundary, so any failure degrades to a still-correct per-block schedule.
This module provides the adversity that contract is exercised against: a
:class:`FaultPlan` describes a reproducible perturbation of the runtime
environment, and :func:`injection` installs it for the duration of a block.

Supported fault kinds (each off by default — a default-constructed plan is
a no-op, and with no plan installed the simulator's fast path is untouched):

- **latency perturbation** (``latency_jitter``): every dependence edge the
  issue logic observes gains a seeded extra latency in ``[0, jitter]``,
  modelling cache misses / load-delay variance (cf. Diavastos & Carlson's
  real-time load delay tracking);
- **window wobble** (``window_shrink`` / ``window_grow``): the effective
  lookahead window W is redrawn from ``[W - shrink, W + grow]`` (clamped to
  ≥ 1) at every window advance, modelling a window whose usable size varies
  mid-trace (partial flushes, shared-resource pressure);
- **forced branch mispredicts** (``mispredict_rate`` /
  ``mispredict_penalty``): each block entry of a trace execution is
  independently forced mispredicted, inserting a flush barrier;
- **stream corruption** (``truncate_stream`` / ``duplicate_stream``): the
  dynamic stream loses its last instruction or duplicates a seeded one —
  the simulator must *reject* such a stream, never execute it;
- **spurious deadlock** (``deadlock_after``): after N issues the simulator
  raises an injected :class:`~repro.sim.window.SimulationDeadlock`
  (``exc.injected`` is True), modelling a hardware watchdog / host fault
  that kills a simulation mid-flight;
- **serving faults** (``crash_rate`` / ``hang_rate`` / ``slow_rate``): a
  daemon worker exits, hangs or schedules too slowly.  The service sends
  the installed plan with each request and the worker obeys
  :meth:`FaultPlan.worker_action`, which ``repro serve-chaos`` calls too
  to predict each request's fault.  These faults change no simulation.

All randomness is derived from ``FaultPlan.seed`` via :meth:`FaultPlan.rng`
(CRC-salted, independent of ``PYTHONHASHSEED``), so every injected fault is
bit-reproducible from the plan alone.
"""

from __future__ import annotations

import random
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Iterator, Sequence

from ..machine.model import MachineModel
from ..obs import recorder as obs


#: Fields that enable no fault by themselves.
_SHAPING_FIELDS = ("name", "seed", "mispredict_penalty", "hang_s", "slow_s")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible description of runtime adversity.

    A default-constructed plan injects nothing (``is_noop`` is True); every
    field enables one fault kind.  Plans are immutable and hashable, so they
    can key result tables in the fuzz driver.
    """

    name: str = "noop"
    seed: int = 0
    #: Extra cycles in [0, latency_jitter] added per dependence edge.
    latency_jitter: int = 0
    #: Effective window may shrink by up to this many slots (clamped to 1).
    window_shrink: int = 0
    #: Effective window may grow by up to this many slots.
    window_grow: int = 0
    #: Probability that each block entry is forced mispredicted.
    mispredict_rate: float = 0.0
    #: Flush penalty (cycles) for forced mispredicts.
    mispredict_penalty: int = 2
    #: Drop the final stream instruction before simulation.
    truncate_stream: bool = False
    #: Duplicate one seeded stream instruction before simulation.
    duplicate_stream: bool = False
    #: Raise an injected SimulationDeadlock after this many issues.
    deadlock_after: int | None = None
    #: Serving faults, per request (see :meth:`worker_action`): the worker
    #: calls ``os._exit``; sleeps ``hang_s``, past the pool's stall timeout;
    #: or its primary scheduler sleeps ``slow_s``, past the guard's budget
    #: but under the pool timeout, so the request degrades.  Crashes and
    #: hangs need ``jobs >= 2``: in-process they would stop the daemon.
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    hang_s: float = 30.0
    slow_rate: float = 0.0
    slow_s: float = 0.4

    def __post_init__(self) -> None:
        if self.latency_jitter < 0:
            raise ValueError("latency_jitter must be >= 0")
        if self.window_shrink < 0 or self.window_grow < 0:
            raise ValueError("window_shrink/window_grow must be >= 0")
        for name in ("mispredict_rate", "crash_rate", "hang_rate", "slow_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.mispredict_penalty < 0:
            raise ValueError("mispredict_penalty must be >= 0")
        if self.deadlock_after is not None and self.deadlock_after < 0:
            raise ValueError("deadlock_after must be >= 0 or None")
        if self.hang_s <= 0 or self.slow_s <= 0:
            raise ValueError("hang_s and slow_s must be > 0")

    @property
    def is_noop(self) -> bool:
        """True iff this plan perturbs nothing: every fault field is at its
        default (``name``, ``seed`` and the penalty and sleep lengths only
        shape faults other fields enable)."""
        return all(
            getattr(self, f.name) == f.default
            for f in fields(self)
            if f.name not in _SHAPING_FIELDS
        )

    @property
    def corrupts_stream(self) -> bool:
        """True iff the plan makes the stream a non-permutation (the
        simulator must detect and reject it)."""
        return self.truncate_stream or self.duplicate_stream

    @property
    def slows_only(self) -> bool:
        """True iff every enabled fault can only delay execution (extra
        latency, smaller window, flush barriers) — the plans makespan
        monotonicity is checked against."""
        return (
            not self.is_noop
            and self.window_grow == 0
            and not self.corrupts_stream
            and self.deadlock_after is None
        )

    def rng(self, tag: str, salt: int = 0) -> random.Random:
        """A deterministic RNG for one injection site.

        Derivation avoids string hashing (which varies with
        ``PYTHONHASHSEED``): the site ``tag`` is CRC-mixed into the plan
        seed, so distinct sites draw independent, reproducible streams.
        """
        mix = zlib.crc32(tag.encode("utf-8"))
        return random.Random((self.seed * 1000003 + salt) ^ mix)

    def reseeded(self, seed: int) -> "FaultPlan":
        """The same fault mix under a different seed."""
        return replace(self, seed=seed)

    def worker_action(self, request_id: object) -> str | None:
        """The serving fault this plan assigns to ``request_id``: ``"exit"``,
        ``"hang"``, ``"slow"`` or ``None``.  A pure function of (plan, id):
        the harness predicts with the same call the worker obeys."""
        if not isinstance(request_id, str):
            return None
        draw = self.rng(
            "worker.action", zlib.crc32(request_id.encode("utf-8"))
        ).random()
        if draw < self.crash_rate:
            return "exit"
        draw -= self.crash_rate
        if draw < self.hang_rate:
            return "hang"
        draw -= self.hang_rate
        if draw < self.slow_rate:
            return "slow"
        return None

    def for_jobs(self, jobs: int) -> "FaultPlan":
        """The plan adjusted for the pool size: with in-process compute
        (``jobs < 2``) the process-killing serving faults are disabled."""
        if jobs >= 2:
            return self
        return replace(self, crash_rate=0.0, hang_rate=0.0)

    def describe(self) -> str:
        """Compact ``name(field=value, ...)`` of the enabled faults."""
        noop = FaultPlan()
        parts = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if f.name not in ("name", "seed")
            and getattr(self, f.name) != getattr(noop, f.name)
        ]
        return f"{self.name}({', '.join(parts)})"


def perturbed_machine(machine: MachineModel, plan: FaultPlan) -> MachineModel:
    """A machine whose *static* window size has the plan's wobble applied —
    for experiments that degrade the machine model itself rather than the
    running simulation.  No-op plans return ``machine`` unchanged."""
    if plan.window_shrink == 0 and plan.window_grow == 0:
        return machine
    rng = plan.rng("machine.window")
    w = machine.window_size + rng.randint(-plan.window_shrink, plan.window_grow)
    return machine.with_window(max(1, w))


# ---------------------------------------------------------------------------
# Active-plan registry (mirrors repro.obs.recorder: module-global slot, None
# by default, installed via context manager).

_active: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The currently injected plan, or ``None`` (fault injection off).
    No-op plans are never installed, so a non-None result means live
    faults."""
    return _active


def set_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` globally (``None`` or a no-op plan turns injection
    off); returns the previous plan."""
    global _active
    previous = _active
    _active = None if plan is None or plan.is_noop else plan
    return previous


@contextmanager
def injection(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of the block, restoring the
    previous plan on exit."""
    previous = set_plan(plan)
    try:
        yield plan
    finally:
        set_plan(previous)


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily disable fault injection (used by
    :class:`~repro.robust.guard.GuardedScheduler` to verify its fallback
    order under clean conditions)."""
    previous = set_plan(None)
    try:
        yield
    finally:
        set_plan(previous)


class FaultState:
    """Per-simulation mutable state derived from a plan.

    ``repro.sim.window.simulate_window`` builds one of these at entry when a
    plan is active; all draws are seeded per (plan, stream) so repeated
    simulations of the same stream under the same plan are bit-identical.
    """

    __slots__ = ("plan", "_lat_rng", "_win_rng", "_lat_extra", "_issue_limit")

    def __init__(self, plan: FaultPlan, stream: Sequence[str]) -> None:
        self.plan = plan
        salt = zlib.crc32(",".join(stream).encode("utf-8"))
        self._lat_rng = plan.rng("sim.latency", salt)
        self._win_rng = plan.rng("sim.window", salt)
        self._lat_extra: dict[tuple[str, str], int] = {}
        self._issue_limit = plan.deadlock_after

    def latency_extra(self, pred: str, node: str) -> int:
        """Seeded extra latency for dependence ``pred -> node`` (drawn once
        per edge per simulation)."""
        if self.plan.latency_jitter == 0:
            return 0
        key = (pred, node)
        extra = self._lat_extra.get(key)
        if extra is None:
            extra = self._lat_rng.randint(0, self.plan.latency_jitter)
            self._lat_extra[key] = extra
            if extra > 0:
                obs.count("faults.injected.latency_jitter")
        return extra

    def effective_window(self, base: int) -> int:
        """The window size to use until the next window advance."""
        if self.plan.window_shrink == 0 and self.plan.window_grow == 0:
            return base
        w = base + self._win_rng.randint(
            -self.plan.window_shrink, self.plan.window_grow
        )
        w = max(1, w)
        if w != base:
            obs.count("faults.injected.window_wobble")
        return w

    def perturb_stream(self, stream: Sequence[str]) -> list[str]:
        """Apply stream truncation/duplication (returns a new list)."""
        out = list(stream)
        if self.plan.truncate_stream and out:
            out.pop()
            obs.count("faults.injected.stream_truncate")
        if self.plan.duplicate_stream and out:
            rng = self.plan.rng("sim.duplicate", len(out))
            out.insert(rng.randrange(len(out) + 1), out[rng.randrange(len(out))])
            obs.count("faults.injected.stream_duplicate")
        return out

    def deadlock_due(self, issues: int) -> bool:
        """True once the injected-deadlock budget is exhausted."""
        due = self._issue_limit is not None and issues >= self._issue_limit
        if due:
            obs.count("faults.injected.deadlock")
        return due

    def guard_slack(self, num_edges: int) -> int:
        """Extra convergence-guard budget the injected faults may consume."""
        return num_edges * self.plan.latency_jitter


def fault_state(stream: Sequence[str]) -> FaultState | None:
    """The per-simulation fault state for the active plan, or ``None``."""
    plan = _active
    if plan is None:
        return None
    return FaultState(plan, stream)


def default_fault_plans(seed: int = 0) -> list[FaultPlan]:
    """The standard suite: one plan per fault kind plus a combined storm.

    Every fuzz seed runs every scheduler under every one of these; the
    ``noop`` member pins that an installed-but-empty plan never changes
    behaviour.
    """
    return [
        FaultPlan(name="noop", seed=seed),
        FaultPlan(name="latency_jitter", seed=seed, latency_jitter=3),
        FaultPlan(name="window_shrink", seed=seed, window_shrink=2),
        FaultPlan(name="window_grow", seed=seed, window_grow=3),
        FaultPlan(
            name="mispredict_storm",
            seed=seed,
            mispredict_rate=0.7,
            mispredict_penalty=3,
        ),
        FaultPlan(name="stream_truncate", seed=seed, truncate_stream=True),
        FaultPlan(name="stream_duplicate", seed=seed, duplicate_stream=True),
        FaultPlan(name="spurious_deadlock", seed=seed, deadlock_after=3),
        FaultPlan(
            name="storm",
            seed=seed,
            latency_jitter=2,
            window_shrink=1,
            mispredict_rate=0.3,
        ),
    ]


def serving_storm(seed: int = 0) -> FaultPlan:
    """The serving-fault mix the ``serve-chaos`` CI gate runs: worker
    crashes, hangs and slow schedulers together."""
    return FaultPlan(
        name="serving_storm",
        seed=seed,
        crash_rate=0.10,
        hang_rate=0.05,
        slow_rate=0.12,
    )
