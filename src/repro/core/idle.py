"""Idle-slot delaying: Procedure Move_Idle_Slot (Fig. 4) and
Delay_Idle_Slots (Fig. 6).

Moving idle slots as late as possible within a block's schedule — without
increasing the makespan — is the paper's key enabling idea: a late idle slot
can be filled at runtime by an instruction of the *next* basic block sitting
in the hardware lookahead window.

State model.  A :class:`~repro.core.rank.RankEngine` holds the deadlines and
their ranks, re-ranked after every deadline change (rank computation commutes
with uniform deadline shifts, so this matches the paper's "decrement every
deadline, and consequently every rank"); the deadline maps returned are
copies of its map.  Each call to :func:`move_idle_slot`:

1. clamps the deadlines of the nodes in the u-set σᵢ (scheduled between the
   previous idle slot and tᵢ) to tᵢ — the paper's "this step insures that idle
   slots don't move earlier".  Beyond the paper's single unit that can fail:
   with several units of a class a trial can still open an earlier slot (see
   :func:`move_idle_slot`).  These clamps are *retained* even on failure,
   because later idle-slot processing relies on them;
2. repeatedly forces the *tail* node (the node completing at tᵢ) one time
   unit earlier — d(tail) := tᵢ − 1 — and re-runs the Rank Algorithm, until
   the i-th idle slot moves later (success: keep all modifications) or the
   deadline system becomes infeasible or the slot moves earlier (failure:
   undo the tail reductions and return the input schedule).  A trial whose
   tail cannot complete by tᵢ − 1 even with unlimited units — its
   dependence-only earliest completion (:func:`earliest_completions`) is
   ≥ tᵢ — is settled as infeasible without re-ranking or list scheduling:
   a list schedule starts no node before its predecessors' completions
   plus latencies, so the trial's schedule would miss d(tail).

A slot with no tail — the unit is also idle at tᵢ − 1, or tᵢ = 0 — has an
empty σᵢ and cannot move, so :func:`delay_idle_slots` skips it.

In the optimal regime (unit times, 0/1 latencies, one FU) repeated
application yields a minimum-makespan schedule in which every idle slot is as
late as it can be over all optimal schedules (paper §3, citing [11]).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.depgraph import DependenceGraph
from ..machine.model import MachineModel, single_unit_machine
from ..obs import recorder as obs
from .rank import RankEngine, default_deadline, fill_deadlines, rank_schedule
from .schedule import SINGLE_UNIT, Schedule, Unit


@dataclass
class IdleMoveResult:
    """Outcome of one :func:`move_idle_slot` call."""

    schedule: Schedule
    deadlines: dict[str, int]
    #: Start time of the i-th idle slot after the call; ``None`` when the slot
    #: was eliminated outright (possible only outside the optimal regime, on
    #: one unit as well as on several).
    new_time: int | None
    moved: bool


def earliest_completions(graph: DependenceGraph) -> dict[str, int]:
    """Each node's dependence-only earliest completion: its
    :meth:`~repro.ir.depgraph.DependenceGraph.earliest_start_times` entry
    plus its execution time.  No list schedule completes a node earlier.
    Cached per graph revision (live — treat as read-only)."""
    table = graph.analysis_cache.get("earliest_completions")
    if table is None:
        table = graph.analysis_cache["earliest_completions"] = {
            n: start + graph.exec_time(n)
            for n, start in graph.earliest_start_times().items()
        }
    return table


def move_idle_slot(
    schedule: Schedule,
    deadlines: dict[str, int],
    index: int,
    machine: MachineModel | None = None,
    unit: Unit = SINGLE_UNIT,
    engine: RankEngine | None = None,
) -> IdleMoveResult:
    """Try to delay the ``index``-th (0-based, by time) idle slot on ``unit``.

    Returns the new schedule and deadline map on success; the input schedule
    (with σᵢ deadline clamps retained) on failure.  ``deadlines`` must cover
    every node (see :func:`repro.core.rank.fill_deadlines`); it is not
    mutated — the map returned is a copy of the engine's.

    ``engine`` is a :class:`RankEngine` whose deadlines equal ``deadlines``
    on entry; without one, a fresh engine is built with one
    :func:`~repro.core.rank.compute_ranks`.  Each trial re-ranks only the
    changed node and its ancestors, and schedules with
    :meth:`RankEngine.schedule`; a trial whose tail's
    :func:`earliest_completions` entry is ≥ tᵢ fails without either, as its
    list schedule would.  On exit the engine's deadlines equal the
    returned map (on failure, restored from a snapshot taken after the
    clamps and before the first tail reduction).
    """
    machine = machine or single_unit_machine()
    times = schedule.idle_times(unit)
    if index >= len(times):
        return IdleMoveResult(schedule, dict(deadlines), None, False)
    if engine is None:
        engine = RankEngine(schedule.graph, deadlines, machine)
    return _move_idle_slot(schedule, times, index, unit, engine)


def _move_idle_slot(
    schedule: Schedule, times: list[int], index: int, unit: Unit, engine: RankEngine
) -> IdleMoveResult:
    """:func:`move_idle_slot` given ``times = schedule.idle_times(unit)``,
    an ``index`` into them and the engine holding the deadlines."""
    graph = schedule.graph
    t_i = times[index]
    prev_t = times[index - 1] if index > 0 else -1

    # Step 1: clamp σᵢ deadlines to tᵢ; the engine hears only those lowered.
    # (Nodes starting at prev_t + 0 == 0 when index == 0 are covered by
    # prev_t = -1; an idle slot itself never holds a node.)
    lowered = {
        n: t_i
        for n, t in schedule.starts.items()
        if prev_t < t < t_i and schedule.units[n] == unit and engine.deadlines[n] > t_i
    }
    if lowered:
        engine.set_deadlines(lowered)

    current = schedule
    saved = None  # the engine's state before the first tail reduction
    earliest = earliest_completions(graph)
    for _ in range(len(graph) + 1):
        tail = current.tail_node(t_i, unit)
        if tail is None:
            break  # nothing ends at the slot: cannot push it later
        obs.count("idle.trials")
        if earliest[tail] >= t_i:
            break  # the tail cannot complete by tᵢ − 1 in any list schedule
        if engine.ranks[tail] < t_i:
            break  # paper's guard: no node in σᵢ can still complete at tᵢ
        if saved is None:
            saved = engine.snapshot()
        engine.set_deadlines({tail: t_i - 1})
        new_sched = engine.schedule()
        if new_sched is None:
            break  # rank_alg cannot meet all deadlines
        new_times = new_sched.idle_times(unit)
        if index >= len(new_times):
            return IdleMoveResult(new_sched, dict(engine.deadlines), None, True)
        t_new = new_times[index]
        if t_new > t_i:
            return IdleMoveResult(new_sched, dict(engine.deadlines), t_new, True)
        if t_new < t_i:
            # The clamps are meant to rule this out, but with sibling units
            # of a class the trial's list schedule can move a node between
            # this unit and a sibling and so open an earlier slot here.
            # Such a trial fails like an infeasible one.
            break
        current = new_sched  # same position, different arrangement: retry
    # Failure: undo the tail reductions, keep the clamps, return input.
    if saved is not None:
        engine.restore(saved)
    return IdleMoveResult(schedule, dict(engine.deadlines), t_i, False)


def delay_idle_slots(
    schedule: Schedule,
    deadlines: dict[str, int] | None = None,
    machine: MachineModel | None = None,
    unit: Unit = SINGLE_UNIT,
    engine: RankEngine | None = None,
) -> tuple[Schedule, dict[str, int]]:
    """Procedure Delay_Idle_Slots (Fig. 6): process idle slots earliest to
    latest, repeatedly delaying each one until it no longer moves.

    Returns the final schedule and the finalized deadline map.

    ``engine`` optionally carries rank state whose deadlines equal the
    filled ``deadlines`` on entry; without one, a fresh engine is built
    with one :func:`~repro.core.rank.compute_ranks`.  Every
    :func:`move_idle_slot` call re-ranks through it, and on exit its
    deadlines equal the returned map.
    """
    machine = machine or single_unit_machine()
    d = fill_deadlines(schedule.graph, deadlines)
    if unit not in schedule.busy_units():
        return schedule, d  # nothing runs on this unit: nothing to delay
    times = schedule.idle_times(unit)
    if not times:
        return schedule, d
    if engine is None:
        engine = RankEngine(schedule.graph, d, machine)
    with obs.span(
        "delay_idle_slots",
        unit=f"{unit[0]}{unit[1]}",
        slots=len(times),
    ):
        index = 0
        while index < len(times):
            t = times[index]
            if t == 0 or (index and times[index - 1] == t - 1):
                # Nothing runs on the unit just before the slot: σᵢ is
                # empty and there is no tail, so the slot cannot move.
                index += 1
                continue
            result = _move_idle_slot(schedule, times, index, unit, engine)
            schedule, d = result.schedule, result.deadlines
            if result.moved:
                # Moved later, or eliminated so that the next slot shifted
                # into ``index``: work on the same positional slot again.
                obs.count("idle.slots_moved")
                times = schedule.idle_times(unit)  # a failed move keeps them
            else:
                index += 1  # cannot move further: freeze and go to the next slot
        return schedule, d


def makespan_deadlines(schedule: Schedule) -> dict[str, int]:
    """Uniform deadlines equal to the schedule's makespan — the paper's
    reduction "give all sink nodes a rank of T" before idle-slot processing."""
    span = schedule.makespan
    return {n: span for n in schedule.graph.nodes}


def schedule_block_with_late_idle_slots(
    graph, machine: MachineModel | None = None, unit: Unit = SINGLE_UNIT
) -> tuple[Schedule, dict[str, int]]:
    """Convenience pipeline for a single basic block: Rank-Algorithm schedule
    with the artificial deadline, then reduce deadlines to the makespan and
    delay every idle slot as late as possible (paper §3, "Moving the idle
    slots").  This is the per-block form of anticipatory scheduling used when
    no trace or loop information is available (paper §1)."""
    machine = machine or single_unit_machine()
    sched, ranks = rank_schedule(graph, None, machine)
    assert sched is not None  # unconstrained scheduling cannot miss deadlines
    d = makespan_deadlines(sched)
    # Reducing every deadline to the makespan is a uniform shift, which
    # commutes with ranks — seed the engine for free from the ranks we have.
    engine = RankEngine(graph, None, machine, ranks=ranks)
    engine.shift(sched.makespan - default_deadline(graph))
    return delay_idle_slots(sched, d, machine, unit, engine=engine)
