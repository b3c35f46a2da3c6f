"""Guarded scheduling pipeline: budgets, post-hoc verification, and a
verified always-legal fallback.

The paper's safety contract (§1, §4) is that anticipatory scheduling only
reorders *within* basic blocks, so any failure can degrade to a per-block
schedule that is still correct.  :class:`GuardedScheduler` turns that
contract into machinery: it runs :func:`~repro.core.algorithm_lookahead`
under node/time budgets, verifies the emitted block orders with
:func:`~repro.analysis.verify.verify_scheduler_output`, and on *any*
failure — timeout, budget exhaustion, an exception (including an injected
:class:`~repro.sim.window.SimulationDeadlock`), or an
:class:`~repro.analysis.verify.OutputError` — falls back to the per-block
rank order of :func:`~repro.core.local_block_orders`, verifies *that*
(with fault injection suspended: the fallback's legality is a property of
the compiler, not of the simulated adversity), and returns it together
with a structured :class:`DegradedResult` diagnostic.  The fallback reason
is also recorded as an obs counter (``guard.fallback`` and
``guard.fallback.<reason>``), so degradation shows up in run reports.
The result carries the execution verification checked
(:attr:`GuardedResult.sim`), so a caller need not simulate again.

The scheduler never returns an unverified order: if even the fallback
fails verification under clean conditions, :class:`GuardError` is raised
(that would mean the core pipeline itself is broken — exactly what the
differential fuzz driver exists to catch).
"""

from __future__ import annotations

import signal
import threading
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from ..analysis.verify import OutputError, verify_scheduler_output
from ..core.lookahead import algorithm_lookahead, local_block_orders
from ..ir.basicblock import Trace
from ..machine.model import MachineModel, single_unit_machine
from ..obs import recorder as obs
from ..sim.window import SimResult, SimulationDeadlock
from . import faults

#: Degradation reasons a :class:`DegradedResult` may carry.
FALLBACK_REASONS = (
    "node_budget",
    "timeout",
    "output_error",
    "deadlock",
    "exception",
)


class GuardError(RuntimeError):
    """Even the per-block fallback failed verification under clean
    conditions — the pipeline cannot produce a legal order at all."""


#: Sentinel distinguishing "use the instance default" from an explicit
#: ``None`` ("no limit") in per-call budget overrides.
_UNSET = object()


class GuardTimeout(TimeoutError):
    """The primary scheduler exceeded the guard's time budget."""


@dataclass(frozen=True)
class DegradedResult:
    """Structured diagnostic attached when the guard fell back.

    ``reason`` is one of :data:`FALLBACK_REASONS`; ``detail`` is the
    human-readable cause (exception message, budget figures); ``elapsed_s``
    is the wall-clock the primary attempt consumed before it was killed or
    rejected.
    """

    reason: str
    detail: str
    scheduler: str = "lookahead"
    elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        if self.reason not in FALLBACK_REASONS:
            raise ValueError(
                f"unknown degradation reason {self.reason!r}; "
                f"expected one of {FALLBACK_REASONS}"
            )

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "detail": self.detail,
            "scheduler": self.scheduler,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class GuardedResult:
    """Outcome of one guarded scheduling run.

    ``block_orders`` is always verified-legal.  ``source`` is
    ``"lookahead"`` for the primary path and ``"fallback"`` for the
    per-block rank order; ``degraded`` carries the diagnostic in the
    latter case.  ``sim`` is the execution verification checked, in
    ``verify_s`` seconds: made under the caller's fault plan on the primary
    path, clean on the fallback path.  ``predicted_makespan`` is only
    available on the primary path (the fallback makes no cross-block
    prediction).
    """

    block_orders: list[list[str]]
    source: str
    sim: SimResult = field(repr=False)
    verify_s: float = field(repr=False)
    degraded: DegradedResult | None = None
    predicted_makespan: int | None = None

    @property
    def ok(self) -> bool:
        return self.degraded is None


@contextmanager
def _time_limit(budget_s: float | None) -> Iterator[None]:
    """Raise :class:`GuardTimeout` if the block runs past ``budget_s``.

    Uses a real ``SIGALRM`` interval timer when running on the main thread
    of the main interpreter (the only place Python delivers signals);
    elsewhere the caller's post-hoc elapsed check is the enforcement.
    """
    if budget_s is None or budget_s <= 0:
        yield
        return
    use_signal = (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_signal:
        yield
        return

    def _on_alarm(signum, frame):
        raise GuardTimeout(f"scheduling exceeded time budget {budget_s:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class GuardedScheduler:
    """Run the anticipatory pipeline under budgets with a verified fallback.

    Parameters
    ----------
    machine:
        Target machine (default: the paper's single-unit model).
    time_budget_s:
        Wall-clock budget for the primary schedule+verify attempt.  A hard
        ``SIGALRM`` limit on the main thread, and always a post-hoc check
        (a result that arrived late is discarded even where signals are
        unavailable).  ``None`` disables the limit.
    node_budget:
        Maximum trace size (instruction count) the primary scheduler is
        attempted on; larger traces degrade immediately — the
        combinatorial-solver "budget and fall back" discipline.
    primary:
        Override the primary scheduler (used by tests and the fuzz driver
        to inject broken/slow schedulers).  Must map ``(trace, machine)``
        to per-block orders.
    """

    def __init__(
        self,
        machine: MachineModel | None = None,
        time_budget_s: float | None = None,
        node_budget: int | None = None,
        primary: Callable[[Trace, MachineModel], Sequence[Sequence[str]]]
        | None = None,
    ) -> None:
        if node_budget is not None and node_budget < 0:
            raise ValueError("node_budget must be >= 0 or None")
        self.machine = machine or single_unit_machine()
        self.time_budget_s = time_budget_s
        self.node_budget = node_budget
        self.primary = primary

    # -- primary path -------------------------------------------------------

    def _run_primary(
        self, trace: Trace
    ) -> tuple[list[list[str]], int | None]:
        if self.primary is not None:
            orders = [list(o) for o in self.primary(trace, self.machine)]
            return orders, None
        result = algorithm_lookahead(trace, self.machine)
        return result.block_orders, result.predicted_makespan

    def schedule(
        self, trace: Trace, time_budget_s: object = _UNSET
    ) -> GuardedResult:
        """Schedule ``trace``; always returns a verified-legal result.

        ``time_budget_s`` overrides the instance budget for this call only
        (pass ``None`` explicitly to disable the limit) — the serving
        worker tightens it to the request's remaining deadline.
        """
        budget_s = (
            self.time_budget_s if time_budget_s is _UNSET else time_budget_s
        )
        obs.count("guard.schedule")
        with obs.span("guard.schedule", nodes=len(trace.graph)):
            n = len(trace.graph)
            if self.node_budget is not None and n > self.node_budget:
                return self._fallback(
                    trace,
                    "node_budget",
                    f"trace has {n} instructions, node budget is "
                    f"{self.node_budget}",
                    elapsed_s=0.0,
                )

            started = _time.perf_counter()
            try:
                with _time_limit(budget_s):
                    orders, predicted = self._run_primary(trace)
                    v0 = _time.perf_counter()
                    with obs.span("guard.verify", source="lookahead"):
                        sim = verify_scheduler_output(trace, orders, self.machine)
                    verify_s = _time.perf_counter() - v0
                elapsed = _time.perf_counter() - started
                if budget_s is not None and 0 < budget_s < elapsed:
                    raise GuardTimeout(
                        f"scheduling took {elapsed:.3f}s, over the "
                        f"{budget_s:g}s budget"
                    )
            except GuardTimeout as exc:
                return self._fallback(
                    trace, "timeout", str(exc),
                    elapsed_s=_time.perf_counter() - started,
                )
            except OutputError as exc:
                return self._fallback(
                    trace, "output_error", str(exc),
                    elapsed_s=_time.perf_counter() - started,
                )
            except Exception as exc:
                # Injected or real simulator deadlocks get their own reason.
                reason = (
                    "deadlock"
                    if isinstance(exc, SimulationDeadlock)
                    else "exception"
                )
                return self._fallback(
                    trace, reason, f"{type(exc).__name__}: {exc}",
                    elapsed_s=_time.perf_counter() - started,
                )

            obs.count("guard.primary_ok")
            return GuardedResult(
                block_orders=orders,
                source="lookahead",
                sim=sim,
                predicted_makespan=predicted,
                verify_s=verify_s,
            )

    # -- degraded path ------------------------------------------------------

    def _fallback(
        self, trace: Trace, reason: str, detail: str, elapsed_s: float
    ) -> GuardedResult:
        obs.count("guard.fallback")
        obs.count(f"guard.fallback.{reason}")
        degraded = DegradedResult(
            reason=reason, detail=detail, elapsed_s=elapsed_s
        )
        with obs.span("guard.fallback", reason=reason):
            # The fallback must never depend on the adversity that killed
            # the primary path: verify it under clean conditions.
            with faults.suspended():
                orders = local_block_orders(trace, self.machine)
                v0 = _time.perf_counter()
                try:
                    with obs.span("guard.verify", source="fallback"):
                        sim = verify_scheduler_output(trace, orders, self.machine)
                except OutputError as exc:
                    raise GuardError(
                        f"per-block fallback failed verification after "
                        f"degradation ({reason}: {detail}): {exc}"
                    ) from exc
                verify_s = _time.perf_counter() - v0
        return GuardedResult(
            block_orders=orders,
            source="fallback",
            sim=sim,
            degraded=degraded,
            verify_s=verify_s,
        )
