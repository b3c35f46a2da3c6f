"""Anticipatory instruction scheduling for loops (paper §5).

Two cases:

* **Trace of m > 1 blocks inside a loop** (§5.1): run Algorithm Lookahead on
  the trace, then perform one extra merge in which a *virtual copy* of BB₁
  (the next iteration's instance, order-pinned to BB₁'s already-emitted
  order) is scheduled as the successor of the final suffix, connected through
  the loop-carried dependences.  This lets the tail blocks leave their idle
  slots where the next iteration's head can fill them.  The virtual copy is
  then discarded; only real block orders are emitted.

* **Single-block loops** (§5.2): the overlap is between instances of the
  *same* block.  The loop graph is rewritten into an acyclic graph G′ with a
  dummy node representing a neighbouring iteration's instance of a chosen
  node, G′ is scheduled with the Rank Algorithm + Move_Idle_Slot, and the
  dummy is dropped:

  - §5.2.1 (single source y of G_li, target of all carried edges): dummy
    *sink* z = next iteration's y; zero-latency edges from every node to z;
    each carried edge (x, y)⟨lat, d⟩ becomes (x, z)⟨lat, 0⟩.
  - §5.2.2 (single sink y of G_li, source of all carried edges): dummy
    *source* z = previous iteration's y; zero-latency edges from z to every
    node; each carried edge (y, v)⟨lat, d⟩ becomes (z, v)⟨lat, 0⟩.
  - §5.2.3 (general): try §5.2.1 with every target of a carried edge and
    §5.2.2 with every source of one, and keep the candidate whose schedule
    has the best measured steady-state behaviour (paper: "select the best of
    the candidate schedules").

All three constructions are provably optimal in the Rank-Algorithm regime
(0/1 latencies, unit times, single FU — paper §5, citing [11]) and are used
as heuristics otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.basicblock import LoopTrace
from ..ir.depgraph import DependenceGraph
from ..ir.loopgraph import LoopGraph
from ..machine.model import MachineModel, single_unit_machine
from .idle import delay_idle_slots, makespan_deadlines
from .lookahead import LookaheadResult, algorithm_lookahead
from .merge import merge
from .rank import rank_schedule
from .schedule import Schedule

#: Name of the dummy iteration-boundary node added by the §5.2 transforms.
DUMMY = "__iter__"


def single_source_transform(loop: LoopGraph, source: str) -> DependenceGraph:
    """§5.2.1 rewrite: acyclic G′ with a dummy *sink* standing for the next
    iteration's instance of ``source``.  Carried edges that target ``source``
    are redirected onto the dummy (same latency, distance 0); other carried
    edges are dropped (they constrain later candidates, not this one)."""
    if source not in loop:
        raise KeyError(f"unknown node {source!r}")
    g = loop.loop_independent_subgraph()
    g.add_node(DUMMY, exec_time=loop.exec_time(source), fu_class=loop.fu_class(source))
    for n in loop.nodes:
        g.add_edge(n, DUMMY, 0)
    for e in loop.carried_edges():
        if e.dst == source:
            g.add_edge(e.src, DUMMY, e.latency)
    return g


def single_sink_transform(loop: LoopGraph, sink: str) -> DependenceGraph:
    """§5.2.2 rewrite (the dual): acyclic G′ with a dummy *source* standing
    for the previous iteration's instance of ``sink``.  Carried edges leaving
    ``sink`` are re-rooted at the dummy (same latency, distance 0)."""
    if sink not in loop:
        raise KeyError(f"unknown node {sink!r}")
    gli = loop.loop_independent_subgraph()
    g = DependenceGraph()
    g.add_node(DUMMY, exec_time=loop.exec_time(sink), fu_class=loop.fu_class(sink))
    for n in loop.nodes:
        g.add_node(n, loop.exec_time(n), loop.fu_class(n))
    for u, v, lat in gli.edges():
        g.add_edge(u, v, lat)
    for n in loop.nodes:
        g.add_edge(DUMMY, n, 0)
    for e in loop.carried_edges():
        if e.src == sink:
            g.add_edge(DUMMY, e.dst, e.latency)
    return g


def _schedule_transform(
    transformed: DependenceGraph, machine: MachineModel
) -> list[str]:
    """Rank-schedule G′, delay its idle slots, and return the per-iteration
    instruction order with the dummy removed."""
    sched, _ = rank_schedule(transformed, None, machine)
    assert sched is not None
    sched, _ = delay_idle_slots(sched, makespan_deadlines(sched), machine)
    return [n for n in sched.permutation() if n != DUMMY]


@dataclass
class LoopCandidate:
    """One candidate per-iteration order and how it was obtained."""

    order: list[str]
    kind: str  # "source" (§5.2.1) or "sink" (§5.2.2) or "block" (no carried deps)
    pivot: str | None
    completion: int  # simulated completion of the evaluation horizon
    single_iteration_makespan: int


@dataclass
class LoopScheduleResult:
    """Result of single-block-loop anticipatory scheduling."""

    order: list[str]
    best: LoopCandidate
    candidates: list[LoopCandidate] = field(default_factory=list)


def schedule_single_block_loop(
    loop: LoopGraph,
    machine: MachineModel | None = None,
    horizon: int = 8,
    restrict_candidates: bool = False,
) -> LoopScheduleResult:
    """§5.2.3 general algorithm: enumerate source/sink candidates, schedule
    each transform, and keep the order with the smallest simulated completion
    over ``horizon`` iterations (ties: smaller single-iteration makespan,
    then candidate enumeration order).

    ``restrict_candidates`` applies the paper's 0/1-latency compile-time
    optimization: only G_li-sources are tried as §5.2.1 pivots and only
    G_li-sinks as §5.2.2 pivots.
    """
    from ..sim.loop_runner import simulate_loop_order

    machine = machine or single_unit_machine()
    gli = loop.loop_independent_subgraph()

    def block_makespan(order: list[str]) -> int:
        return simulate_loop_order(loop, order, 1, machine).makespan

    candidates: list[LoopCandidate] = []
    seen_orders: set[tuple[str, ...]] = set()

    def add(order: list[str], kind: str, pivot: str | None) -> None:
        key = tuple(order)
        if key in seen_orders:
            return
        seen_orders.add(key)
        sim = simulate_loop_order(loop, order, horizon, machine)
        candidates.append(
            LoopCandidate(
                order=order,
                kind=kind,
                pivot=pivot,
                completion=sim.makespan,
                single_iteration_makespan=block_makespan(order),
            )
        )

    carried = [e for e in loop.carried_edges()]
    if not carried:
        # No carried dependences: ordinary block scheduling suffices.
        sched, _ = rank_schedule(gli, None, machine)
        assert sched is not None
        sched, _ = delay_idle_slots(sched, makespan_deadlines(sched), machine)
        add(sched.permutation(), "block", None)
    else:
        gli_sources = set(gli.sources())
        gli_sinks = set(gli.sinks())
        targets = sorted({e.dst for e in carried}, key=loop.nodes.index)
        sources = sorted({e.src for e in carried}, key=loop.nodes.index)
        for t in targets:
            if restrict_candidates and t not in gli_sources:
                continue
            add(_schedule_transform(single_source_transform(loop, t), machine), "source", t)
        for s in sources:
            if restrict_candidates and s not in gli_sinks:
                continue
            add(_schedule_transform(single_sink_transform(loop, s), machine), "sink", s)
        if not candidates:  # all pivots filtered out: fall back to block order
            sched, _ = rank_schedule(gli, None, machine)
            assert sched is not None
            add(sched.permutation(), "block", None)

    best = min(
        candidates,
        key=lambda c: (c.completion, c.single_iteration_makespan),
    )
    return LoopScheduleResult(order=best.order, best=best, candidates=candidates)


@dataclass
class LoopTraceResult:
    """Result of §5.1 loop-trace scheduling."""

    block_orders: list[list[str]]
    lookahead: LookaheadResult


def schedule_loop_trace(
    loop_trace: LoopTrace, machine: MachineModel | None = None
) -> LoopTraceResult:
    """§5.1: Algorithm Lookahead plus one extra merge of a virtual
    next-iteration copy of BB₁ after the last block."""
    machine = machine or single_unit_machine()
    result = algorithm_lookahead(loop_trace, machine)
    if loop_trace.num_blocks < 2 or not loop_trace.carried_edges:
        return LoopTraceResult(result.block_orders, result)

    # Build an extended graph: the trace plus a pinned copy of BB1.
    bb1 = loop_trace.blocks[0]
    clone_of = {n: f"{n}'" for n in bb1.node_names}
    extended = loop_trace.graph.copy()
    for n in bb1.node_names:
        extended.add_node(
            clone_of[n], loop_trace.graph.exec_time(n), loop_trace.graph.fu_class(n)
        )
    for u, v, lat in bb1.graph.edges():
        extended.add_edge(clone_of[u], clone_of[v], lat)
    # Pin the clone's internal order to BB1's emitted order (a block must run
    # the same schedule every iteration).
    emitted_bb1 = result.block_orders[0]
    for a, b in zip(emitted_bb1, emitted_bb1[1:]):
        extended.add_edge(clone_of[a], clone_of[b], 0)
    # Distance-1 carried edges into BB1 become real edges into the clone
    # (the source is always the *current* iteration's real instance).
    for e in loop_trace.carried_edges:
        if e.distance == 1 and e.dst in clone_of:
            extended.add_edge(e.src, clone_of[e.dst], e.latency)

    # One extra merge: the final suffix (old) against the clone (new).
    committed: list[str] = []
    for step in result.steps:
        committed.extend(step.committed)
    suffix_order = [n for n in result.schedule_order if n not in set(committed)]
    old_nodes = suffix_order
    # Recover suffix deadlines/makespan by rescheduling the suffix alone.
    sub = extended.subgraph(old_nodes)
    sub_sched, _ = rank_schedule(sub, None, machine)
    assert sub_sched is not None
    old_makespan = sub_sched.makespan
    old_deadlines = {n: old_makespan for n in old_nodes}

    merged = merge(
        extended,
        old_nodes,
        old_deadlines,
        old_makespan,
        list(clone_of.values()),
        machine,
    )
    delayed, _ = delay_idle_slots(
        merged.schedule, merged.deadlines, machine, engine=merged.engine
    )

    # Re-derive the real blocks' orders from committed prefix + new suffix.
    clone_set = set(clone_of.values())
    new_order = committed + [n for n in delayed.permutation() if n not in clone_set]
    position = {n: i for i, n in enumerate(new_order)}
    block_orders = [
        sorted(bb.node_names, key=lambda n: position[n]) for bb in loop_trace.blocks
    ]
    return LoopTraceResult(block_orders, result)
