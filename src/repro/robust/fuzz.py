"""Differential fault-injection fuzzing of the scheduler zoo.

Each fuzz *cell* is one (trace seed, scheduler, fault plan) triple: the
scheduler compiles the trace under clean conditions, then the emitted block
orders are executed on the window simulator with the fault plan injected
(:mod:`repro.robust.faults`).  Every cell is held to the invariants the
paper's safety argument promises:

- **compile-time legality** — emitted orders are per-block permutations
  respecting intra-block dependences, and their windowed execution is a
  legal schedule (:func:`~repro.analysis.verify.check_execution`);
- **simulation consistency** — the issue order is a permutation and the
  stall-attribution breakdown sums exactly to the reported stall cycles
  (:func:`~repro.analysis.verify.check_sim_result`), checked on the same
  clean execution as legality;
- **makespan sanity** — every completed execution fits between the
  dependence-graph critical path and a generous serialization bound, and
  *slowdown-only* faults (extra latency, shrunken windows, forced
  mispredicts) never beat the clean makespan;
- **fault detection** — corrupted streams are rejected (never executed)
  and injected deadlocks surface as diagnosed
  :class:`~repro.sim.window.SimulationDeadlock`s, not hangs;
- **differential optimality** — in the rank regime (single FU, unit exec,
  0/1 latencies) the anticipatory pipeline is never beaten by any other
  safe scheduler in the zoo (§4.1);
- **guarded degradation** — :class:`~repro.robust.guard.GuardedScheduler`
  run under each killing fault (a corrupted stream, an injected deadlock)
  returns a verified fallback rather than an error or an unverified order,
  and under every other fault returns its primary path: only the simulator
  consults a plan, and delay, window wobble or extra flushes leave the
  execution it checks dependence- and resource-valid.

Everything is seeded, so a passing (seed budget, corpus) pair passes
forever — the CI ``chaos-smoke`` step runs a fixed budget and fails on the
first violation.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..analysis.verify import (
    OutputError,
    check_block_orders,
    check_execution,
    check_sim_result,
    verify_scheduler_output,
)
from ..ir.basicblock import Trace
from ..machine.model import MachineModel
from ..machine.presets import paper_machine
from ..obs import recorder as obs
from ..schedulers.table import SCHEDULERS, SchedulerFn
from ..sim.window import SimulationDeadlock, simulate_trace
from ..workloads.traces import random_trace
from .faults import FaultPlan, default_fault_plans, injection
from .guard import GuardedScheduler

#: Cell outcomes: ``ok`` — executed, all invariants held; ``detected`` —
#: the fault was caught as designed (rejected stream, diagnosed injected
#: deadlock); ``degraded`` — the guarded pipeline fell back (verified);
#: ``violation`` — an invariant broke.
CELL_STATUSES = ("ok", "detected", "degraded", "violation")


@dataclass
class FuzzCell:
    """Outcome of one scheduler×fault execution."""

    seed: int
    scheduler: str
    fault: str
    status: str
    detail: str = ""
    clean_makespan: int | None = None
    faulted_makespan: int | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "scheduler": self.scheduler,
            "fault": self.fault,
            "status": self.status,
            "detail": self.detail,
            "clean_makespan": self.clean_makespan,
            "faulted_makespan": self.faulted_makespan,
        }


@dataclass
class FuzzReport:
    """Aggregated fuzz outcome; ``ok`` iff no cell violated an invariant."""

    cells: list[FuzzCell] = field(default_factory=list)
    seeds: int = 0
    elapsed_s: float = 0.0
    stopped_early: bool = False

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def violations(self) -> list[FuzzCell]:
        return [c for c in self.cells if c.status == "violation"]

    @property
    def ok(self) -> bool:
        return not self.violations

    def status_counts(self) -> dict[str, int]:
        out = {status: 0 for status in CELL_STATUSES}
        for c in self.cells:
            out[c.status] += 1
        return out

    def by_fault(self) -> dict[str, dict[str, int]]:
        """Per fault-plan name: status → cell count."""
        out: dict[str, dict[str, int]] = {}
        for c in self.cells:
            row = out.setdefault(c.fault, {s: 0 for s in CELL_STATUSES})
            row[c.status] += 1
        return out

    def summary(self) -> str:
        from ..analysis.report import format_table

        rows = [
            [fault] + [counts[s] for s in CELL_STATUSES]
            for fault, counts in sorted(self.by_fault().items())
        ]
        totals = self.status_counts()
        rows.append(["TOTAL"] + [totals[s] for s in CELL_STATUSES])
        table = format_table(
            ["fault plan", *CELL_STATUSES],
            rows,
            title=(
                f"fault-injection fuzz: {self.num_cells} cells, "
                f"{self.seeds} seeds, {self.elapsed_s:.1f}s"
                + (" (budget hit)" if self.stopped_early else "")
            ),
        )
        if self.violations:
            lines = [table, "", "violations:"]
            lines += [
                f"  seed {c.seed} {c.scheduler} × {c.fault}: {c.detail}"
                for c in self.violations
            ]
            return "\n".join(lines)
        return table

    def to_dict(self) -> dict:
        return {
            "seeds": self.seeds,
            "num_cells": self.num_cells,
            "elapsed_s": self.elapsed_s,
            "stopped_early": self.stopped_early,
            "ok": self.ok,
            "status_counts": self.status_counts(),
            "by_fault": self.by_fault(),
            "violations": [c.to_dict() for c in self.violations],
        }


def _is_rank_regime(trace: Trace, machine: MachineModel) -> bool:
    """True in the regime where Algorithm Lookahead is provably optimal
    (§4.1): single FU, unit execution times, 0/1 latencies."""
    g = trace.graph
    return (
        machine.is_single_unit
        and machine.issue_width in (None, 1)
        and all(g.exec_time(n) == 1 for n in g.nodes)
        and all(lat in (0, 1) for _, _, lat in g.edges())
    )


def _serial_bound(trace: Trace, plan: FaultPlan) -> int:
    """A generous sound upper bound on any greedy windowed makespan under
    ``plan`` (doubled for slack; violations indicate runaway time, not a
    tight-schedule miss)."""
    g = trace.graph
    total = sum(g.exec_time(n) for n in g.nodes)
    total += sum(lat for _, _, lat in g.edges())
    total += g.num_edges() * plan.latency_jitter
    total += trace.num_blocks * plan.mispredict_penalty
    return 2 * (total + len(g.nodes) + 1)


def _check_faulted_cell(
    cell: FuzzCell,
    trace: Trace,
    orders: list[list[str]],
    machine: MachineModel,
    plan: FaultPlan,
) -> None:
    """Execute one scheduler's orders under ``plan`` and classify the cell
    (mutating ``cell.status``/``detail``/``faulted_makespan``)."""
    try:
        with injection(plan):
            sim = simulate_trace(
                trace,
                orders,
                machine,
                collect_trace=True,
                trace_label=f"fuzz:{cell.scheduler}:{plan.name}",
            )
    except ValueError as exc:
        if plan.corrupts_stream and "permutation" in str(exc):
            cell.status = "detected"
            cell.detail = f"corrupt stream rejected: {exc}"
        else:
            cell.status = "violation"
            cell.detail = f"unexpected ValueError: {exc}"
        return
    except SimulationDeadlock as exc:
        if plan.deadlock_after is not None and exc.injected:
            missing = [
                name
                for name, value in (
                    ("node", exc.node),
                    ("window", exc.window),
                )
                if value is None
            ]
            if missing:
                cell.status = "violation"
                cell.detail = (
                    f"injected deadlock lacks diagnostics {missing}: {exc}"
                )
            else:
                cell.status = "detected"
                cell.detail = f"injected deadlock diagnosed: {exc}"
        else:
            cell.status = "violation"
            cell.detail = f"unexpected deadlock: {exc}"
        return
    except Exception as exc:  # noqa: BLE001 - fuzz must classify anything
        cell.status = "violation"
        cell.detail = f"unexpected {type(exc).__name__}: {exc}"
        return

    cell.faulted_makespan = sim.makespan
    if plan.corrupts_stream or plan.deadlock_after is not None:
        cell.status = "violation"
        cell.detail = (
            f"fault {plan.name!r} should have been detected but the "
            f"simulation completed (makespan {sim.makespan})"
        )
        return
    try:
        check_sim_result(trace.graph, sim)
    except OutputError as exc:
        cell.status = "violation"
        cell.detail = f"sim-consistency: {exc}"
        return
    lower = trace.graph.critical_path_length()
    upper = _serial_bound(trace, plan)
    if not lower <= sim.makespan <= upper:
        cell.status = "violation"
        cell.detail = (
            f"makespan {sim.makespan} outside sane bounds "
            f"[{lower}, {upper}]"
        )
        return
    if (
        plan.slows_only
        and cell.clean_makespan is not None
        and sim.makespan < cell.clean_makespan
    ):
        cell.status = "violation"
        cell.detail = (
            f"slowdown-only fault improved makespan: "
            f"{sim.makespan} < clean {cell.clean_makespan}"
        )
        return
    cell.status = "ok"


def _guarded_cell(
    seed: int,
    trace: Trace,
    machine: MachineModel,
    plan: FaultPlan,
) -> FuzzCell:
    """Run the guarded pipeline with ``plan`` injected during both
    scheduling and verification; it must come back verified, degrading
    (with a counted reason) exactly when the plan kills verification."""
    cell = FuzzCell(
        seed=seed, scheduler="guarded", fault=plan.name, status="ok"
    )
    guard = GuardedScheduler(machine=machine)
    try:
        with injection(plan):
            result = guard.schedule(trace)
    except Exception as exc:  # noqa: BLE001 - fuzz must classify anything
        cell.status = "violation"
        cell.detail = f"guarded pipeline raised {type(exc).__name__}: {exc}"
        return cell
    try:
        verify_scheduler_output(trace, result.block_orders, machine)
    except OutputError as exc:
        cell.status = "violation"
        cell.detail = f"guarded output not legal under clean re-check: {exc}"
        return cell
    kills_verification = plan.corrupts_stream or plan.deadlock_after is not None
    fell_back = result.source == "fallback"
    if fell_back != kills_verification:
        cell.status = "violation"
        cell.detail = (
            f"fault {plan.name!r} cannot fail verification but the guard "
            f"fell back: {result.degraded.detail}"
            if fell_back
            else f"fault {plan.name!r} kills verification but the guard "
            f"returned the primary path"
        )
    elif fell_back:
        cell.status = "degraded"
        cell.detail = f"fell back: {result.degraded.reason}"
    return cell


def run_fuzz(
    seeds: int = 8,
    base_seed: int = 0,
    num_blocks: int = 3,
    block_size: tuple[int, int] = (4, 7),
    schedulers: Mapping[str, SchedulerFn] | None = None,
    plans: Sequence[FaultPlan] | None = None,
    machine: MachineModel | None = None,
    include_guarded: bool = True,
    time_budget_s: float | None = None,
) -> FuzzReport:
    """Run the differential fuzz matrix and return a :class:`FuzzReport`.

    ``seeds`` traces are generated (windows cycling over 2/3/4/6 when no
    explicit ``machine`` is given); each is compiled by every scheduler in
    ``schedulers`` (default: the scheduler table,
    :data:`repro.schedulers.SCHEDULERS`) and executed
    under every plan in ``plans`` (default:
    :func:`~repro.robust.faults.default_fault_plans` reseeded per trace).
    ``include_guarded`` adds one :class:`GuardedScheduler` cell per fault
    plan.  ``time_budget_s`` stops the sweep early (the report notes it);
    cells already produced are still checked.
    """
    scheduler_map = dict(schedulers) if schedulers is not None else dict(SCHEDULERS)
    report = FuzzReport(seeds=0)
    started = _time.perf_counter()
    windows = (2, 3, 4, 6)

    with obs.span("fuzz", seeds=seeds):
        for s in range(seeds):
            if (
                time_budget_s is not None
                and _time.perf_counter() - started > time_budget_s
            ):
                report.stopped_early = True
                break
            trace_seed = base_seed + s
            m = machine or paper_machine(windows[s % len(windows)])
            trace = random_trace(
                num_blocks,
                block_size,
                edge_probability=0.3,
                cross_probability=0.1,
                seed=trace_seed,
            )
            cell_plans = (
                list(plans)
                if plans is not None
                else default_fault_plans(seed=trace_seed)
            )
            rank_regime = _is_rank_regime(trace, m)

            compiled: dict[str, list[list[str]] | None] = {}
            clean: dict[str, int | None] = {}
            for name, fn in scheduler_map.items():
                cell = FuzzCell(
                    seed=trace_seed, scheduler=name, fault="compile",
                    status="ok",
                )
                try:
                    orders = fn(trace, m)
                    check_block_orders(trace, orders)
                    sim = check_execution(simulate_trace(
                        trace, orders, m, collect_trace=True,
                        trace_label=f"fuzz:{name}:clean",
                    ))
                    check_sim_result(trace.graph, sim)
                    compiled[name] = orders
                    clean[name] = cell.clean_makespan = sim.makespan
                except Exception as exc:  # noqa: BLE001
                    compiled[name] = None
                    clean[name] = None
                    cell.status = "violation"
                    cell.detail = (
                        f"clean compile/verify failed: "
                        f"{type(exc).__name__}: {exc}"
                    )
                report.cells.append(cell)

            # Differential check: §4.1 optimality in the rank regime.
            if (
                rank_regime
                and "anticipatory" in clean
                and clean["anticipatory"] is not None
            ):
                best = clean["anticipatory"]
                for name, makespan in clean.items():
                    if makespan is not None and makespan < best:
                        report.cells.append(
                            FuzzCell(
                                seed=trace_seed,
                                scheduler="anticipatory",
                                fault="differential",
                                status="violation",
                                detail=(
                                    f"{name} beat anticipatory in the rank "
                                    f"regime: {makespan} < {best}"
                                ),
                                clean_makespan=best,
                                faulted_makespan=makespan,
                            )
                        )

            for plan in cell_plans:
                for name, orders in compiled.items():
                    if orders is None:
                        continue  # compile violation already recorded
                    cell = FuzzCell(
                        seed=trace_seed,
                        scheduler=name,
                        fault=plan.name,
                        status="ok",
                        clean_makespan=clean[name],
                    )
                    _check_faulted_cell(cell, trace, orders, m, plan)
                    report.cells.append(cell)
                if include_guarded and not plan.is_noop:
                    report.cells.append(_guarded_cell(trace_seed, trace, m, plan))
            report.seeds += 1

    report.elapsed_s = _time.perf_counter() - started
    obs.count("fuzz.cells", report.num_cells)
    obs.count("fuzz.violations", len(report.violations))
    return report
