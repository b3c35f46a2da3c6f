"""Cycle-accurate simulator of hardware instruction lookahead (paper §2.3).

The machine model: at any instant the lookahead window holds W instructions
i_n … i_{n+W−1} that occur *contiguously* in the dynamic instruction stream.
The hardware may issue any window instruction whose operands are ready; it
never skips a ready earlier instruction in favour of a ready later one
(Ordering Constraint), and the window only moves ahead when its first
instruction has been issued.  The greedy window-W execution of the priority
list L = P₁∘P₂∘…∘Pₘ is, by Definition 2.3, exactly the set of *legal*
runtime schedules — so this simulator is the ground truth that every
experiment measures against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..ir.depgraph import DependenceGraph
from ..machine.model import MachineModel, single_unit_machine
from ..core.schedule import Schedule, Unit
from ..obs import recorder as obs
from ..obs.events import SimEvent, SimTrace
from ..robust import faults


class SimulationDeadlock(RuntimeError):
    """The stream can never make progress: some window instruction depends on
    an instruction more than W−1 positions later in the stream.

    Diagnostic attributes (``None`` for the generic convergence guard):
    ``node`` — the blocked window instruction; ``dependence`` — its unmet
    predecessor; ``window`` — the ``(head, head + W)`` stream span the
    window covered when progress stopped; ``window_nodes`` — the unissued
    instructions the window held at that point.  ``injected`` is True when
    the deadlock was raised by an active fault plan
    (:class:`repro.robust.faults.FaultPlan.deadlock_after`) rather than by
    the stream's own dependences.
    """

    def __init__(
        self,
        message: str,
        node: str | None = None,
        dependence: str | None = None,
        window: tuple[int, int] | None = None,
        window_nodes: tuple[str, ...] = (),
        injected: bool = False,
    ) -> None:
        super().__init__(message)
        self.node = node
        self.dependence = dependence
        self.window = window
        self.window_nodes = tuple(window_nodes)
        self.injected = injected


@dataclass
class SimResult:
    """Outcome of one windowed execution."""

    schedule: Schedule
    #: Instructions in issue order (the runtime permutation P).
    issue_order: list[str]
    #: Cycles up to (and excluding) the last issue in which no instruction
    #: was issued — the head-of-window stalls the lookahead failed to hide.
    stall_cycles: int
    #: Cycle-level event stream, populated when tracing was enabled (an
    #: explicit ``collect_trace=True`` or an active recorder wanting sim
    #: events); ``trace.stall_cycles == stall_cycles`` always holds.
    trace: SimTrace | None = field(default=None, repr=False)

    @property
    def makespan(self) -> int:
        return self.schedule.makespan

    def start(self, node: str) -> int:
        return self.schedule.start(node)


def simulate_window(
    graph: DependenceGraph,
    stream: Sequence[str],
    machine: MachineModel | None = None,
    barriers: Mapping[int, int] | None = None,
    collect_trace: bool | None = None,
    trace_label: str = "",
) -> SimResult:
    """Greedily execute ``stream`` on ``machine``'s lookahead hardware.

    ``stream`` must be a permutation of ``graph``'s nodes — the static
    instruction order the compiler emitted (concatenated per-block orders
    for a trace).  ``barriers`` optionally maps stream positions to stall
    penalties: position ``b → p`` forbids any instruction at index ≥ b from
    issuing before every instruction at index < b has *completed*, plus ``p``
    extra cycles — this models a branch misprediction flush at a block
    boundary (the hardware rolls back eagerly executed instructions of the
    wrong path and refills the window).

    ``collect_trace`` controls cycle-level event tracing (see
    :class:`~repro.obs.events.SimTrace`): ``True``/``False`` force it, and
    the default ``None`` collects whenever an active
    :class:`~repro.obs.recorder.TraceRecorder` wants simulator events.  The
    finished trace is attached as ``SimResult.trace`` and published to the
    active recorder.

    Raises :class:`SimulationDeadlock` for streams whose dependences point
    more than W−1 positions forward (cannot occur for streams derived from
    valid per-block schedules of a trace).

    An active :class:`~repro.robust.faults.FaultPlan` (see
    :func:`repro.robust.faults.injection`) perturbs this execution: extra
    dependence latency, a wobbling effective window, corrupted streams
    (rejected by the permutation check below) and injected deadlocks.  With
    no plan installed — the default — none of the fault hooks cost more
    than a ``None`` test.
    """
    machine = machine or single_unit_machine()
    fstate = faults.fault_state(stream)
    if fstate is not None:
        stream = fstate.perturb_stream(stream)
    if sorted(stream) != sorted(graph.nodes):
        nodes = set(graph.nodes)
        missing = sorted(nodes - set(stream))
        unknown = sorted(set(stream) - nodes)
        counts: dict[str, int] = {}
        for s in stream:
            counts[s] = counts.get(s, 0) + 1
        duplicated = sorted(s for s, c in counts.items() if c > 1)
        details = [
            f"{label} {names}"
            for label, names in (
                ("missing", missing),
                ("duplicated", duplicated),
                ("unknown", unknown),
            )
            if names
        ]
        raise ValueError(
            "stream must be a permutation of the graph nodes"
            + (f" ({'; '.join(details)})" if details else "")
        )
    if not machine.can_execute(graph):
        raise ValueError("machine lacks a functional unit for some instruction")
    barriers = dict(barriers or {})

    n = len(stream)
    w = machine.window_size
    # Effective window for the current head position; redrawn at every
    # window advance when a fault plan wobbles it, otherwise constant.
    w_eff = w if fstate is None else fstate.effective_window(w)
    width = machine.issue_width or machine.total_units
    position = {node: i for i, node in enumerate(stream)}

    completion: dict[str, int] = {}
    starts: dict[str, int] = {}
    units: dict[str, Unit] = {}
    issued: list[bool] = [False] * n
    issue_order: list[str] = []
    unit_free_at: dict[Unit, int] = {u: 0 for u in machine.unit_names()}

    # Barrier release times become known once every instruction before the
    # barrier has issued (completion times are then fixed).  Barriers sit at
    # increasing stream positions, so they release in ascending order; the
    # issue logic therefore only ever needs, per stream position, the prefix
    # of barriers at or before it and the running max of (release + penalty)
    # over that prefix — both O(1) lookups instead of a scan over every
    # barrier per window slot per cycle.
    barrier_release: dict[int, int | None] = {b: None for b in barriers}
    barrier_list = sorted(barriers)
    barriers_before: list[int] | None = None
    if barrier_list:
        barriers_before = [0] * n
        k = 0
        for pos in range(n):
            while k < len(barrier_list) and barrier_list[k] <= pos:
                k += 1
            barriers_before[pos] = k
    released = 0
    barrier_constraint: list[int] = []  # running max of release + penalty
    # Max completion time over stream[:i+1], filled as the head passes i —
    # barrier b's release time is prefix_completion_max[b - 1].
    prefix_completion_max: list[int] = [0] * n

    if collect_trace is None:
        collect_trace = obs.sim_events_enabled()
    trace_obj = (
        SimTrace(window_size=w, num_instructions=n, label=trace_label)
        if collect_trace
        else None
    )

    def window_occupancy() -> int:
        """Unissued instructions currently visible to the issue logic."""
        return sum(1 for i in range(head, min(head + w_eff, n)) if not issued[i])

    def ready_time(node: str) -> int | None:
        """Earliest issue time permitted by dependences and barriers, or None
        if a predecessor has not issued yet."""
        t = 0
        for p, lat in graph.predecessors(node).items():
            if p not in completion:
                return None
            if fstate is not None:
                lat += fstate.latency_extra(p, node)
            t = max(t, completion[p] + lat)
        if barriers_before is not None:
            k = barriers_before[position[node]]
            if k:
                if k > released:
                    return None  # some applicable barrier not yet released
                if barrier_constraint[k - 1] > t:
                    t = barrier_constraint[k - 1]
        return t

    def update_barriers() -> None:
        # ``head`` is the first unissued stream index, so "every instruction
        # before b has issued" is exactly ``head >= b``.
        nonlocal released
        while released < len(barrier_list) and head >= barrier_list[released]:
            b = barrier_list[released]
            release = prefix_completion_max[b - 1] if b > 0 else 0
            barrier_release[b] = release
            constraint = release + barriers[b]
            if barrier_constraint and barrier_constraint[-1] > constraint:
                constraint = barrier_constraint[-1]
            barrier_constraint.append(constraint)
            released += 1
            if trace_obj is not None:
                trace_obj.events.append(
                    SimEvent(
                        cycle=release,
                        kind="barrier_release",
                        head=head,
                        detail=(
                            f"barrier at stream position {b} releases at "
                            f"cycle {release} (+{barriers[b]} penalty)"
                        ),
                    )
                )

    head = 0
    time = 0
    update_barriers()
    guard = 0
    max_guard = 4 * (
        sum(graph.exec_time(x) for x in graph.nodes)
        + sum(lat for _, _, lat in graph.edges())
        + sum(barriers.values())
        + n
        + 1
        + (fstate.guard_slack(graph.num_edges()) if fstate is not None else 0)
    )
    while head < n:
        if fstate is not None and fstate.deadlock_due(len(issue_order)):
            exc = SimulationDeadlock(
                f"injected spurious deadlock at cycle {time} after "
                f"{len(issue_order)} issues (fault plan "
                f"{fstate.plan.name!r}); window spans [{head}, "
                f"{head + w_eff})",
                node=stream[head],
                window=(head, head + w_eff),
                window_nodes=tuple(
                    stream[i]
                    for i in range(head, min(head + w_eff, n))
                    if not issued[i]
                ),
                injected=True,
            )
            if trace_obj is not None:
                trace_obj.events.append(
                    SimEvent(
                        cycle=time,
                        kind="deadlock",
                        node=exc.node,
                        head=head,
                        occupancy=window_occupancy(),
                        detail=str(exc),
                    )
                )
                obs.publish_sim_trace(trace_obj)
            raise exc
        issued_this_cycle = 0
        for i in range(head, min(head + w_eff, n)):
            if issued[i]:
                continue
            node = stream[i]
            rt = ready_time(node)
            if rt is None or rt > time:
                continue
            unit = next(
                (
                    u
                    for u in machine.units_for(graph.fu_class(node))
                    if unit_free_at[u] <= time
                ),
                None,
            )
            if unit is None:
                continue
            issued[i] = True
            starts[node] = time
            units[node] = unit
            completion[node] = time + graph.exec_time(node)
            unit_free_at[unit] = completion[node]
            issue_order.append(node)
            issued_this_cycle += 1
            if trace_obj is not None:
                trace_obj.events.append(
                    SimEvent(
                        cycle=time,
                        kind="issue",
                        node=node,
                        unit=f"{unit[0]}{unit[1]}",
                        head=head,
                        occupancy=window_occupancy(),
                    )
                )
            if issued_this_cycle >= width:
                break
        old_head = head
        while head < n and issued[head]:
            c = completion[stream[head]]
            if head > 0 and prefix_completion_max[head - 1] > c:
                c = prefix_completion_max[head - 1]
            prefix_completion_max[head] = c
            head += 1
        if head > old_head and fstate is not None:
            w_eff = fstate.effective_window(w)
        if trace_obj is not None and head > old_head:
            trace_obj.events.append(
                SimEvent(
                    cycle=time,
                    kind="window_advance",
                    head=head,
                    occupancy=window_occupancy(),
                    detail=f"head {old_head} -> {head}",
                )
            )
        update_barriers()
        if head >= n:
            break
        # Advance to the next event: a window instruction becoming ready, a
        # unit freeing up, or simply the next cycle if issue width was the
        # only limiter.
        events: list[int] = []
        blocked_now = False
        for i in range(head, min(head + w_eff, n)):
            if issued[i]:
                continue
            rt = ready_time(stream[i])
            if rt is None:
                continue
            if rt <= time:
                blocked_now = True
            else:
                events.append(rt)
        events.extend(t for t in unit_free_at.values() if t > time)
        if blocked_now:
            next_time = time + 1
        elif events:
            next_time = min(events)
        else:
            exc = _deadlock(
                graph, stream, head, w_eff, n, completion, position, time
            )
            if trace_obj is not None:
                trace_obj.events.append(
                    SimEvent(
                        cycle=time,
                        kind="deadlock",
                        node=exc.node,
                        head=head,
                        occupancy=window_occupancy(),
                        detail=str(exc),
                    )
                )
                obs.publish_sim_trace(trace_obj)
            raise exc
        if trace_obj is not None:
            # Every cycle passed over without an issue is a stall the
            # lookahead failed to hide; classify each against current state.
            first_stall = time + 1 if issued_this_cycle else time
            for c in range(first_stall, next_time):
                trace_obj.events.append(
                    _stall_event(
                        c,
                        stream,
                        head,
                        w_eff,
                        graph,
                        completion,
                        position,
                        barriers,
                        barrier_release,
                        ready_time,
                        window_occupancy(),
                    )
                )
        time = next_time
        guard += 1
        if guard > max_guard:  # pragma: no cover - defensive
            raise SimulationDeadlock("simulation failed to converge")

    schedule = Schedule(graph, starts, units)
    if starts:
        issue_cycles = set(starts.values())
        stalls = max(starts.values()) + 1 - len(issue_cycles)
    else:
        stalls = 0
    if trace_obj is not None:
        obs.publish_sim_trace(trace_obj)
    return SimResult(
        schedule=schedule,
        issue_order=issue_order,
        stall_cycles=stalls,
        trace=trace_obj,
    )


def _barrier_holding(
    pos: int,
    cycle: int,
    barriers: Mapping[int, int],
    barrier_release: Mapping[int, int | None],
) -> int | None:
    """The first barrier that still holds stream position ``pos`` at
    ``cycle`` (not yet released, or its penalty not yet served), or None."""
    for b, penalty in barriers.items():
        if pos < b:
            continue
        release = barrier_release[b]
        if release is None or release + penalty > cycle:
            return b
    return None


def _stall_event(
    cycle: int,
    stream: Sequence[str],
    head: int,
    w_eff: int,
    graph: DependenceGraph,
    completion: Mapping[str, int],
    position: Mapping[str, int],
    barriers: Mapping[int, int],
    barrier_release: Mapping[int, int | None],
    ready_time,
    occupancy: int,
) -> SimEvent:
    """Classify one no-issue cycle against the window head, first match
    wins: barrier wait; resource (the head is ready but no compatible unit
    is free); window (an unissued instruction beyond the window is ready —
    the stall anticipatory scheduling recovers); otherwise the head's
    unissued predecessor or dependence latency.

    Readiness beyond the window is judged from current completions, the
    graph's own latencies and the barrier state, never through
    ``ready_time``: under a latency-jitter fault plan that would draw
    jitter for edges the simulator has not reached yet and shift every
    later draw, so tracing would change the schedule.  Without faults the
    window label is exact; under jitter it is approximate."""
    node = stream[head]
    b = _barrier_holding(position[node], cycle, barriers, barrier_release)
    if b is not None:
        release = barrier_release[b]
        detail = (
            f"window flushed: {node} waits on barrier at stream position {b}"
            + ("" if release is None else f" (releases {release}+{barriers[b]})")
        )
        return SimEvent(
            cycle=cycle,
            kind="barrier_wait",
            node=node,
            head=head,
            occupancy=occupancy,
            detail=detail,
            cause="barrier",
        )
    missing = [p for p in graph.predecessors(node) if p not in completion]
    rt = None if missing else ready_time(node)
    if rt is not None and rt <= cycle:
        detail = f"{node} ready but no free {graph.fu_class(node)} unit"
        cause = "resource"
    else:
        outside = next(
            (
                i
                for i in range(head + w_eff, len(stream))
                if stream[i] not in completion
                and all(
                    p in completion and completion[p] + lat <= cycle
                    for p, lat in graph.predecessors(stream[i]).items()
                )
                and _barrier_holding(i, cycle, barriers, barrier_release) is None
            ),
            None,
        )
        if outside is not None:
            detail = (
                f"{stream[outside]} ready at stream position {outside} but "
                f"window [{head}, {head + w_eff}) is pinned by {node}"
            )
            cause = "window"
        elif missing:
            blocker = max(missing, key=lambda p: position[p])
            detail = f"{node} waits on unissued predecessor {blocker}"
            cause = "predecessor"
        else:
            blocker, lat = max(
                graph.predecessors(node).items(),
                key=lambda kv: completion[kv[0]] + kv[1],
            )
            detail = (
                f"{node} waits on {blocker} "
                f"(completes {completion[blocker]}, latency {lat})"
            )
            cause = "dependence"
    return SimEvent(
        cycle=cycle,
        kind="stall",
        node=node,
        head=head,
        occupancy=occupancy,
        detail=detail,
        cause=cause,
    )


def _deadlock(
    graph: DependenceGraph,
    stream: Sequence[str],
    head: int,
    w: int,
    n: int,
    completion: Mapping[str, int],
    position: Mapping[str, int],
    time: int,
) -> SimulationDeadlock:
    """Build a diagnostic deadlock exception naming the blocked head
    instruction, its unmet dependence, and the current window span and
    contents."""
    node = stream[head]
    window_end = min(head + w, n)
    window_nodes = tuple(stream[head:window_end])
    contents = " ".join(window_nodes)
    missing = [p for p in graph.predecessors(node) if p not in completion]
    blocker = max(missing, key=lambda p: position[p]) if missing else None
    if blocker is not None:
        where = (
            "beyond the window"
            if position[blocker] >= window_end
            else "itself blocked inside the window"
        )
        message = (
            f"simulation deadlock at cycle {time}: '{node}' (stream position "
            f"{head}) waits on '{blocker}' (stream position "
            f"{position[blocker]}, {where}); window spans [{head}, "
            f"{head + w}) holding [{contents}] — window too small for the "
            f"stream's dependences"
        )
    else:  # pragma: no cover - unreachable for well-formed streams
        message = (
            f"simulation deadlock at cycle {time}: no instruction in the "
            f"window [{head}, {head + w}) holding [{contents}] can ever "
            f"become ready"
        )
    return SimulationDeadlock(
        message,
        node=node,
        dependence=blocker,
        window=(head, head + w),
        window_nodes=window_nodes,
    )


def simulate_trace(
    trace,
    block_orders: Iterable[Sequence[str]],
    machine: MachineModel | None = None,
    mispredicted_blocks: Iterable[int] = (),
    misprediction_penalty: int = 2,
    collect_trace: bool | None = None,
    trace_label: str = "",
) -> SimResult:
    """Execute a trace given its emitted per-block instruction orders.

    ``mispredicted_blocks`` lists block indices whose *entry* was
    mispredicted: the window cannot overlap instructions across that block's
    leading boundary, and ``misprediction_penalty`` flush cycles are added
    (the paper's safety story: eagerly executed instructions of the wrong
    path are rolled back by hardware).

    An active fault plan with ``mispredict_rate > 0`` forces additional
    block entries mispredicted (seeded, at the plan's own penalty) — the
    load-anomaly scenario the per-block safety contract must survive.
    """
    machine = machine or single_unit_machine()
    orders = [list(o) for o in block_orders]
    if len(orders) != trace.num_blocks:
        raise ValueError("need exactly one order per trace block")
    for i, order in enumerate(orders):
        if sorted(order) != sorted(trace.block_nodes(i)):
            raise ValueError(f"order for block {i} is not a permutation of it")
    stream: list[str] = [n for order in orders for n in order]
    mispredicted = set(mispredicted_blocks)
    penalty_of = {i: misprediction_penalty for i in mispredicted}
    plan = faults.active_plan()
    if plan is not None and plan.mispredict_rate > 0.0:
        rng = plan.rng("trace.mispredict", trace.num_blocks)
        for i in range(1, trace.num_blocks):
            if rng.random() < plan.mispredict_rate and i not in mispredicted:
                mispredicted.add(i)
                penalty_of[i] = plan.mispredict_penalty
                obs.count("faults.injected.mispredict")
    barriers: dict[int, int] = {}
    boundary = 0
    for i, order in enumerate(orders):
        if i > 0 and i in mispredicted:
            barriers[boundary] = penalty_of[i]
        boundary += len(order)
    with obs.span(
        "sim.trace", blocks=trace.num_blocks, instructions=len(stream)
    ):
        return simulate_window(
            trace.graph,
            stream,
            machine,
            barriers,
            collect_trace=collect_trace,
            trace_label=trace_label or "trace execution",
        )
