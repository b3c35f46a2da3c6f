"""Executing loops on the lookahead hardware and steady-state analysis.

Paper §5: "The completion time of n iterations of the loop on a machine with
hardware lookahead equals the completion time that would be obtained if the
loop was completely unrolled (ignoring the cost of the loop-back branches)".
:func:`simulate_loop_order` implements exactly that: unroll, repeat the
per-iteration instruction order, run the window simulator.

The *periodic* steady-state view used in the paper's Figure 3 discussion
("this schedule executes one iteration every 7 cycles") treats the block
schedule as a fixed pattern repeated every II cycles;
:func:`periodic_initiation_interval` computes the smallest feasible II for a
given block schedule, and :func:`simulated_initiation_interval` measures the
asymptotic per-iteration cost under the window model.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from ..ir.basicblock import LoopTrace
from ..ir.loopgraph import LoopGraph, instance_name
from ..machine.model import MachineModel, single_unit_machine
from ..obs import recorder as obs
from .window import SimResult, simulate_window


def loop_stream(order: Sequence[str], iterations: int) -> list[str]:
    """The dynamic instruction stream of ``iterations`` repetitions."""
    return [
        instance_name(node, k) for k in range(iterations) for node in order
    ]


def simulate_loop_order(
    loop: LoopGraph,
    order: Sequence[str],
    iterations: int,
    machine: MachineModel | None = None,
) -> SimResult:
    """Run ``iterations`` repetitions of per-iteration ``order`` through the
    window simulator on the fully unrolled dependence graph."""
    machine = machine or single_unit_machine()
    if sorted(order) != sorted(loop.nodes):
        raise ValueError("order must be a permutation of the loop body")
    with obs.span("sim.loop", iterations=iterations, body=len(loop.nodes)):
        graph = loop.unroll(iterations)
        return simulate_window(
            graph,
            loop_stream(order, iterations),
            machine,
            trace_label=f"loop x{iterations}",
        )


def simulate_loop_trace_orders(
    loop_trace: LoopTrace,
    block_orders: Sequence[Sequence[str]],
    iterations: int,
    machine: MachineModel | None = None,
) -> SimResult:
    """Same for a multi-block loop trace: the stream is the concatenated
    per-block orders, repeated per iteration."""
    machine = machine or single_unit_machine()
    per_iter: list[str] = [n for order in block_orders for n in order]
    if sorted(per_iter) != sorted(loop_trace.program_order()):
        raise ValueError("block orders must cover the trace exactly once")
    with obs.span(
        "sim.loop", iterations=iterations, body=len(per_iter)
    ):
        graph = loop_trace.unrolled_graph(iterations)
        stream = [
            instance_name(node, k) for k in range(iterations) for node in per_iter
        ]
        return simulate_window(
            graph, stream, machine, trace_label=f"loop trace x{iterations}"
        )


def iteration_completions(
    result: SimResult, order: Sequence[str], iterations: int
) -> list[int]:
    """Completion time of each iteration (max completion over its instances)."""
    out = []
    for k in range(iterations):
        out.append(
            max(result.schedule.completion(instance_name(n, k)) for n in order)
        )
    return out


def simulated_initiation_interval(
    loop: LoopGraph,
    order: Sequence[str],
    machine: MachineModel | None = None,
    iterations: int = 12,
) -> int:
    """Asymptotic cycles per iteration under the window model, measured as
    the completion-time difference of the last two simulated iterations
    (steady state is reached within a couple of iterations for bounded
    latencies)."""
    if iterations < 3:
        raise ValueError("need at least 3 iterations to measure steady state")
    sim = simulate_loop_order(loop, order, iterations, machine)
    comps = iteration_completions(sim, order, iterations)
    return comps[-1] - comps[-2]


def periodic_initiation_interval(
    loop: LoopGraph,
    offsets: Mapping[str, int],
    machine: MachineModel | None = None,
) -> int:
    """Smallest initiation interval at which the fixed block schedule
    ``offsets`` (node → start time within the iteration) can repeat:

    - every carried edge (u, v)⟨lat, d⟩ needs
      ``offset(v) + II·d >= offset(u) + exec(u) + lat``;
    - modulo resource feasibility: instances k·II + offset must never
      oversubscribe a functional-unit class.

    Reproduces Figure 3: schedule L4 ST C4 M BT has II = 7; L4 ST M C4 BT
    has II = 6.
    """
    machine = machine or single_unit_machine()
    if sorted(offsets) != sorted(loop.nodes):
        raise ValueError("offsets must cover the loop body exactly")
    lower = 1
    for e in loop.carried_edges():
        gap = offsets[e.src] + loop.exec_time(e.src) + e.latency - offsets[e.dst]
        lower = max(lower, math.ceil(gap / e.distance))
    makespan = max(offsets[n] + loop.exec_time(n) for n in loop.nodes)
    for ii in range(lower, makespan + 1):
        if _modulo_resources_ok(loop, offsets, ii, machine):
            return ii
    return max(lower, makespan)


def _modulo_resources_ok(
    loop: LoopGraph,
    offsets: Mapping[str, int],
    ii: int,
    machine: MachineModel,
) -> bool:
    """Check per-class capacity of the modulo reservation table for ``ii``."""
    usage: dict[str, dict[int, int]] = {}
    for n in loop.nodes:
        pool = machine.pool(loop.fu_class(n))
        table = usage.setdefault(pool, {})
        for step in range(loop.exec_time(n)):
            slot = (offsets[n] + step) % ii
            table[slot] = table.get(slot, 0) + 1
    for pool, table in usage.items():
        cap = machine.capacity(pool)
        if any(count > cap for count in table.values()):
            return False
    return True


def in_order_offsets(
    loop: LoopGraph, order: Sequence[str], machine: MachineModel | None = None
) -> dict[str, int]:
    """Start offsets of one iteration executed in ``order`` in isolation
    (intra-iteration dependences only) — the single-iteration schedule whose
    periodic repetition the paper's Figure 3 analyses."""
    machine = machine or single_unit_machine()
    sim = simulate_loop_order(loop, order, 1, machine)
    return {n: sim.start(instance_name(n, 0)) for n in loop.nodes}
