"""Minimum-tardiness scheduling with the Rank Algorithm.

Palem & Simons' result (cited in paper §2.1 and §6): besides minimizing
makespan, "the Rank Algorithm constructs a minimum tardiness schedule if the
problem input has deadlines".  Tardiness of a schedule is
``max_v max(0, completion(v) − d(v))``.

The construction: the instance with deadlines ``d + L`` (every deadline
relaxed by L) is feasible iff a schedule with tardiness ≤ L exists, so the
minimum tardiness is the smallest L for which ``rank_schedule`` succeeds —
found here by binary search (the greedy schedule with all deadlines relaxed
bounds L from above).  In the optimal regime (unit execution times, 0/1
latencies, single FU) the result is exactly the minimum-tardiness schedule;
elsewhere it inherits the Rank Algorithm's heuristic status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..ir.depgraph import DependenceGraph
from ..machine.model import MachineModel, single_unit_machine
from .rank import RankEngine, fill_deadlines, rank_schedule_lenient
from .schedule import Schedule


@dataclass
class TardinessResult:
    """A schedule together with its achieved maximum tardiness."""

    schedule: Schedule
    tardiness: int
    #: True when the binary search certified optimality via rank-feasibility
    #: (always in the optimal regime; heuristic machines may be lucky too).
    certified: bool


def minimize_tardiness(
    graph: DependenceGraph,
    deadlines: Mapping[str, int],
    machine: MachineModel | None = None,
) -> TardinessResult:
    """Find a schedule minimizing the maximum lateness against ``deadlines``.

    ``deadlines`` may be partial; unconstrained nodes never contribute
    tardiness (they receive the artificial large deadline).
    """
    machine = machine or single_unit_machine()
    base = fill_deadlines(graph, deadlines)

    # Upper bound: the tardiness of the plain greedy rank schedule.  Its
    # ranks seed an engine for every probe: ``base + L`` is a uniform shift
    # of ``base``, and ranks commute with uniform deadline shifts
    # (:meth:`RankEngine.shift`), so the search needs exactly one rank
    # computation total.
    lenient, base_ranks, feasible = rank_schedule_lenient(graph, base, machine)
    if feasible:
        return TardinessResult(lenient, 0, True)
    engine = RankEngine(graph, base, machine, ranks=base_ranks)
    hi = lenient.tardiness(base)
    lo = 0
    best = lenient
    best_l = hi

    def probe(shift: int) -> Schedule | None:
        engine.shift(shift)
        sched = engine.schedule()
        engine.shift(-shift)
        return sched

    while lo < hi:
        mid = (lo + hi) // 2
        sched = probe(mid)
        if sched is not None:
            hi = mid
            best = sched
            best_l = mid
        else:
            lo = mid + 1
    if lo < best_l:
        sched = probe(lo)
        if sched is not None:
            best, best_l = sched, lo
    achieved = best.tardiness(base)
    return TardinessResult(best, achieved, achieved == lo or achieved == best_l)


def max_lateness(schedule: Schedule, deadlines: Mapping[str, int]) -> int:
    """Signed maximum lateness (negative = every node early)."""
    worst: int | None = None
    for n in schedule.starts:
        if n in deadlines:
            late = schedule.completion(n) - deadlines[n]
            worst = late if worst is None else max(worst, late)
    return worst if worst is not None else 0
