"""Procedure Merge (paper Fig. 7).

Merges the uncommitted suffix of the schedule built so far (``old``) with the
instructions of the next basic block (``new``), producing a schedule of
``old ∪ new`` in which new instructions may only *fill idle slots* between old
instructions — they never displace them.  This is enforced with deadlines:

1. a first Rank-Algorithm pass with the artificial large deadline gives a
   lower bound T on the merged makespan;
2. old nodes keep ``d(w) := min(d(w), T_old)`` (T_old = makespan of the old
   suffix schedule), so the old instructions still finish in their own
   window; new nodes get ``d(w) := T``;
3. if the deadline system is infeasible, all *new* deadlines are increased by
   one until a feasible schedule exists (paper: at most 2W iterations in the
   optimal regime — we bound the loop by a provable fallback deadline and
   fall back to a best-effort lenient schedule in heuristic regimes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..ir.depgraph import DependenceGraph
from ..machine.model import MachineModel, single_unit_machine
from ..obs import recorder as obs
from .rank import (
    RankEngine,
    default_deadline,
    list_schedule,
    minimum_makespan_schedule,
    rank_priority_list,
)
from .schedule import Schedule


@dataclass
class MergeCarry:
    """Incremental rank state threaded across Algorithm Lookahead's block
    loop (owned and mutated by :func:`merge`).

    Two engine chains survive from one merged graph to the next, both
    justified by the suffix being descendant-closed (chop only ever commits
    a prefix — no retained node depends on a committed one) and by ranks
    commuting with uniform deadline shifts:

    - ``uniform`` — ranks under the uniform artificial deadline
      ``uniform_value``, used for the merge lower-bound pass; on carry, old
      nodes shift by the difference of the artificial deadlines and only the
      new block's nodes (plus their ancestors through cross edges) re-rank;
    - ``constrained`` — ranks under the working deadline map as left by
      Delay_Idle_Slots; on carry, old nodes shift by the chop ``shift``.
      The new block re-ranks in neither this chain nor its relaxations: it
      is descendant-closed and due at T here and at ``uniform_value`` in
      the uniform chain, so its ranks are the uniform chain's shifted by
      the difference (``RankEngine.carried_into(block_ranks=)``,
      ``RankEngine.raise_block``), and its ancestors re-rank only where the
      block can bind them.  The first block's engine is the uniform ranks
      shifted, with no second rank computation.
    """

    uniform: RankEngine | None = None
    uniform_value: int = 0
    constrained: RankEngine | None = None
    #: Chop shift accumulated since the constrained engine's state (set by
    #: the caller between merges, consumed by the next merge).
    shift: int = 0


@dataclass
class MergeResult:
    """Schedule of ``old ∪ new`` plus the deadline map that produced it."""

    schedule: Schedule
    deadlines: dict[str, int]
    #: Lower bound T on the merged makespan (first, unconstrained pass).
    lower_bound: int
    #: Number of +1 deadline relaxations needed (0 in the optimal regime when
    #: the lower bound is achievable).
    relaxations: int
    #: False when even the fallback deadline failed and a lenient best-effort
    #: schedule was accepted (only possible in heuristic machine models).
    feasible: bool
    #: Rank engine over the merged graph whose deadlines ``deadlines`` is a
    #: copy of, for reuse by the idle-slot delaying that follows (it is also
    #: ``carry.constrained``).
    engine: RankEngine = field(repr=False, compare=False)


def merge(
    trace_graph: DependenceGraph,
    old_nodes: Iterable[str],
    old_deadlines: Mapping[str, int],
    old_makespan: int,
    new_nodes: Iterable[str],
    machine: MachineModel | None = None,
    carry: MergeCarry | None = None,
) -> MergeResult:
    """Run Procedure Merge on ``old ∪ new`` within ``trace_graph``.

    ``trace_graph`` supplies the dependence edges (including the cross-block
    edges from old to new); ``old_deadlines`` are the deadlines carried by the
    old suffix (already shifted by chop); ``old_makespan`` is T_old.

    Every rank map comes from a :class:`~repro.core.rank.RankEngine`.
    ``carry`` threads the engines from the previous merge (see
    :class:`MergeCarry`) and is updated in place for the next one; without
    it a fresh carry is made, and each engine starts with one
    :func:`~repro.core.rank.compute_ranks`.  Results are the same either
    way.  With ``old`` empty every node is the new block's, due at T, so
    the constrained ranks are the lower-bound ranks shifted and the
    lower-bound schedule, which completes by T, is the first attempt's
    schedule.  Each relaxation is one
    :meth:`~repro.core.rank.RankEngine.raise_block` of the new block.
    """
    machine = machine or single_unit_machine()
    if carry is None:
        carry = MergeCarry()
    old_list = list(old_nodes)
    new_list = list(new_nodes)
    overlap = set(old_list) & set(new_list)
    if overlap:
        raise ValueError(f"old and new overlap: {sorted(overlap)}")
    with obs.span("merge", old=len(old_list), new=len(new_list)):
        result = _merge(trace_graph, old_list, new_list, old_deadlines,
                        old_makespan, machine, carry)
    obs.count("merge.relaxations", result.relaxations)
    return result


def _merge(
    trace_graph: DependenceGraph,
    old_list: list[str],
    new_list: list[str],
    old_deadlines: Mapping[str, int],
    old_makespan: int,
    machine: MachineModel,
    carry: MergeCarry,
) -> MergeResult:
    cur = trace_graph.subgraph(old_list + new_list)

    # Pass 1: lower bound with the artificial deadline only, which no greedy
    # schedule misses.
    artificial = default_deadline(cur)
    if carry.uniform is None:
        carry.uniform = RankEngine(cur, None, machine)
    else:
        carry.uniform = carry.uniform.carried_into(
            cur, shift=artificial - carry.uniform_value, fill=artificial
        )
    carry.uniform_value = artificial
    bound = carry.uniform.schedule()
    lower = bound.makespan

    deadlines = {
        w: min(old_deadlines.get(w, old_makespan), old_makespan) for w in old_list
    }
    new_deadline = lower
    deadlines.update(dict.fromkeys(new_list, new_deadline))
    # The new block is descendant-closed (no edge leaves a later block) and
    # due at ``lower`` here, at ``artificial`` in the uniform chain: its
    # ranks are the uniform ones shifted by the difference.
    block_ranks = {
        y: carry.uniform.ranks[y] + lower - artificial for y in new_list
    }

    if not old_list:
        # Every node is the block's: the lower-bound ranks shifted, and the
        # lower-bound schedule, which completes by ``lower``, meets them.
        engine = RankEngine(cur, deadlines, machine, ranks=block_ranks)
        sched: Schedule | None = bound
    else:
        if carry.constrained is None:
            engine = RankEngine(cur, deadlines, machine)
        else:
            # Old nodes carry their post-delay deadlines shifted by chop;
            # set_deadlines then applies only the (rare) binding T_old
            # clamps as an incremental diff.
            engine = carry.constrained.carried_into(
                cur, shift=-carry.shift, fill=new_deadline,
                block_ranks=block_ranks,
            )
            engine.set_deadlines(deadlines)
        sched = engine.schedule()
    carry.constrained = engine
    carry.shift = 0

    # A deadline that is always sufficient in the optimal regime: schedule old
    # alone (feasible by construction of its deadlines), then new strictly
    # after, separated by the largest latency in the graph.  Only needed when
    # the first attempt fails, so computed lazily.
    fallback: int | None = None

    relaxations = 0
    while True:
        if sched is not None:
            return MergeResult(sched, dict(engine.deadlines), lower,
                               relaxations, True, engine=engine)
        if fallback is None:
            max_lat = max((lat for _, _, lat in cur.edges()), default=0)
            new_alone = (
                minimum_makespan_schedule(cur.subgraph(new_list), machine).makespan
                if new_list
                else 0
            )
            fallback = old_makespan + max_lat + new_alone
        if new_deadline >= max(fallback, lower) + len(cur):
            break  # heuristic regime: give up on exact deadline search
        new_deadline += 1
        relaxations += 1
        engine.raise_block(new_list)
        sched = engine.schedule()

    # Best-effort fallback: accept the greedy rank schedule and raise every
    # deadline it misses to the node's completion time, so downstream phases
    # see a consistent (self-feasible) state.
    sched = list_schedule(cur, rank_priority_list(cur, engine.ranks), machine)
    engine.set_deadlines({
        w: max(d, sched.completion(w)) for w, d in engine.deadlines.items()
    })
    return MergeResult(sched, dict(engine.deadlines), lower, relaxations,
                       False, engine=engine)
