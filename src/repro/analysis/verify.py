"""End-to-end output verification helpers.

These checks are what a compiler integration, and the guarded scheduler,
run on the emitted block orders: every block order is a permutation of its
block and a topological order of its dependences (so no instruction
crosses a block boundary); the orders execute on the window simulator (no
rejected stream, no deadlock); and that one execution is dependence- and
resource-valid.  The checked execution is returned, so a caller need not
simulate again.  The simulator *is* Definition 2.3's greedy execution, so
greediness is not checked here: re-running it would check it against
itself.
"""

from __future__ import annotations

from typing import Sequence

from ..core.schedule import ScheduleError
from ..ir.basicblock import Trace
from ..machine.model import MachineModel, single_unit_machine
from ..sim.window import SimResult, simulate_trace


class OutputError(AssertionError):
    """Raised when emitted block orders violate a required property."""


def check_block_orders(trace: Trace, block_orders: Sequence[Sequence[str]]) -> None:
    """Structural checks on a scheduler's emitted per-block orders."""
    if len(block_orders) != trace.num_blocks:
        raise OutputError(
            f"expected {trace.num_blocks} block orders, got {len(block_orders)}"
        )
    for i, order in enumerate(block_orders):
        members = trace.block_nodes(i)
        if sorted(order) != sorted(members):
            raise OutputError(
                f"block {i}: order is not a permutation of the block "
                f"(got {list(order)}, expected a permutation of {members})"
            )
        pos = {n: k for k, n in enumerate(order)}
        sub = trace.blocks[i].graph
        for u, v, _ in sub.edges():
            if pos[u] > pos[v]:
                raise OutputError(
                    f"block {i}: order violates intra-block dependence {u}->{v}"
                )


def check_execution(sim: SimResult) -> SimResult:
    """Return ``sim`` once :meth:`~repro.core.schedule.Schedule.validate`
    accepts its schedule; a violated dependence, latency or unit capacity
    raises :class:`OutputError`."""
    try:
        sim.schedule.validate()
    except ScheduleError as exc:
        raise OutputError(
            f"windowed execution is not a valid schedule: {exc}"
        ) from exc
    return sim


def check_runtime_legality(
    trace: Trace,
    block_orders: Sequence[Sequence[str]],
    machine: MachineModel | None = None,
) -> SimResult:
    """Execute the emitted orders once, under the caller's fault plan if
    one is installed, and return that execution once
    :func:`check_execution` accepts it.  A rejected stream or a deadlock
    propagates from the simulator."""
    return check_execution(
        simulate_trace(trace, block_orders, machine or single_unit_machine())
    )


def verify_scheduler_output(
    trace: Trace,
    block_orders: Sequence[Sequence[str]],
    machine: MachineModel | None = None,
) -> SimResult:
    """All checks; raises :class:`OutputError` on the first failure and
    returns the checked execution otherwise."""
    check_block_orders(trace, block_orders)
    return check_runtime_legality(trace, block_orders, machine)


def check_sim_result(graph, result) -> None:
    """Internal-consistency checks on a :class:`~repro.sim.window.SimResult`
    — the invariants the fault-injection fuzz driver holds every simulated
    execution to, faulted or not:

    - the issue order is a permutation of the graph's nodes;
    - when a cycle-level trace was collected, its stall count and the
      per-cause :func:`~repro.obs.metrics.stall_attribution` breakdown both
      agree with ``result.stall_cycles`` (every stalled cycle is attributed
      exactly once).
    """
    if sorted(result.issue_order) != sorted(graph.nodes):
        raise OutputError(
            "issue order is not a permutation of the graph nodes "
            f"(got {len(result.issue_order)} of {len(graph)} instructions)"
        )
    if result.trace is not None:
        from ..obs.metrics import stall_attribution

        if result.trace.stall_cycles != result.stall_cycles:
            raise OutputError(
                f"trace counted {result.trace.stall_cycles} stall cycles, "
                f"simulator reported {result.stall_cycles}"
            )
        attribution = stall_attribution(result.trace)
        total = sum(attribution.values())
        if total != result.stall_cycles:
            raise OutputError(
                f"stall attribution sums to {total}, expected "
                f"{result.stall_cycles} ({attribution})"
            )
