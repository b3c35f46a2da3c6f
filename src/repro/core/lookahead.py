"""Algorithm Lookahead (paper §4, Fig. 5) — anticipatory instruction
scheduling for a trace of basic blocks.

For each block in trace order the algorithm:

1. **merges** the block's instructions into the uncommitted suffix of the
   schedule built so far (new instructions may only fill idle slots — see
   :mod:`repro.core.merge`);
2. **delays** every idle slot of the merged schedule as late as possible
   (:mod:`repro.core.idle`), maximizing the overlap opportunity with the
   *next* block;
3. **chops** off the committed prefix that can no longer interact with
   future blocks through the W-instruction hardware window
   (:mod:`repro.core.chop`).

The emitted object is *per-basic-block instruction orders*: instructions are
never moved across block boundaries (safety / serviceability).  The predicted
runtime schedule — in which instructions of adjacent blocks overlap — is
realized by the hardware window at runtime and can be measured with
:mod:`repro.sim.window`.

In the Rank-Algorithm regime (unit execution times, 0/1 latencies, single
functional unit) the algorithm is provably optimal (paper §4.1, citing [11]);
for general machines it is the recommended heuristic (§4.2).

Note on long latencies: chop drops the dependence edges from committed nodes
into the retained suffix.  With 0/1 latencies this loses nothing (any edge
from a node completing at or before the committed idle slot t_j is satisfied
by every suffix start time); with longer latencies it makes the *predicted*
schedule slightly optimistic — the simulator remains exact, and this is part
of the §4.2 heuristic territory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.basicblock import Trace
from ..machine.model import MachineModel, single_unit_machine
from ..obs import recorder as obs
from .chop import chop
from .idle import delay_idle_slots
from .merge import MergeCarry, MergeResult, merge
from .schedule import Schedule


@dataclass
class LookaheadStep:
    """Diagnostics for one iteration of the main loop (one basic block)."""

    block: str
    merge: MergeResult
    delayed: Schedule
    committed: list[str]
    shift: int


@dataclass
class LookaheadResult:
    """Output of Algorithm Lookahead.

    ``block_orders[i]`` is the emitted instruction order of trace block i —
    the compiler's actual output.  ``priority_list`` is their concatenation
    L = P₁∘P₂∘…∘Pₘ, which Definition 2.3 ties to the runtime behaviour:
    the hardware's window-W greedy execution of L is the predicted schedule.
    ``predicted_makespan`` is the completion time of the final merged
    schedule chain (committed shifts + final suffix makespan).
    """

    trace: Trace
    block_orders: list[list[str]]
    predicted_makespan: int
    steps: list[LookaheadStep] = field(default_factory=list)
    _final_suffix_order: list[str] = field(
        init=False, repr=False, default_factory=list
    )

    @property
    def priority_list(self) -> list[str]:
        return [n for order in self.block_orders for n in order]

    @property
    def schedule_order(self) -> list[str]:
        """The merged (runtime-predicted) order the algorithm constructed,
        i.e. committed prefixes followed by the final suffix."""
        out: list[str] = []
        for step in self.steps:
            out.extend(step.committed)
        out.extend(self._final_suffix_order)
        return out


def algorithm_lookahead(
    trace: Trace,
    machine: MachineModel | None = None,
    delay_idles: bool = True,
) -> LookaheadResult:
    """Run Algorithm Lookahead on ``trace`` for ``machine`` (its
    ``window_size`` is the W of the paper).

    ``delay_idles=False`` disables the Delay_Idle_Slots step — an ablation
    switch for measuring the contribution of the paper's key idea (the merge
    deadline discipline remains active).

    One pair of :class:`~repro.core.rank.RankEngine` chains
    (:class:`~repro.core.merge.MergeCarry`) supplies every rank the merges
    and idle-slot trials use, carried from block to block.
    """
    machine = machine or single_unit_machine()
    window = machine.window_size

    old_nodes: list[str] = []
    old_deadlines: dict[str, int] = {}
    old_makespan = 0
    steps: list[LookaheadStep] = []
    offset = 0
    suffix: Schedule | None = None
    carry = MergeCarry()

    with obs.span("lookahead", blocks=trace.num_blocks, window=window):
        for bb in trace.blocks:
            with obs.span("lookahead.block", block=bb.name):
                new_nodes = bb.node_names
                merged = merge(
                    trace.graph,
                    old_nodes,
                    old_deadlines,
                    old_makespan,
                    new_nodes,
                    machine,
                    carry=carry,
                )
                delayed, deadlines = merged.schedule, merged.deadlines
                if delay_idles:
                    for unit in machine.unit_names():
                        delayed, deadlines = delay_idle_slots(
                            delayed,
                            deadlines,
                            machine,
                            unit=unit,
                            engine=merged.engine,
                        )
                result = chop(delayed, deadlines, window)
                carry.shift = result.shift
                steps.append(
                    LookaheadStep(
                        block=bb.name,
                        merge=merged,
                        delayed=delayed,
                        committed=result.committed,
                        shift=result.shift,
                    )
                )
                offset += result.shift
                suffix = result.suffix
                old_nodes = suffix.graph.nodes
                old_deadlines = result.suffix_deadlines
                old_makespan = suffix.makespan

    assert suffix is not None  # traces have at least one block
    predicted = offset + suffix.makespan
    final_order = suffix.permutation()

    # Emitted per-block orders: sub-permutations (Definition 2.1) of the
    # constructed order — instructions never cross block boundaries in the
    # output.
    constructed: list[str] = []
    for step in steps:
        constructed.extend(step.committed)
    constructed.extend(final_order)
    position = {n: i for i, n in enumerate(constructed)}
    block_orders = [
        sorted(bb.node_names, key=lambda n: position[n]) for bb in trace.blocks
    ]

    result = LookaheadResult(
        trace=trace,
        block_orders=block_orders,
        predicted_makespan=predicted,
        steps=steps,
    )
    result._final_suffix_order = final_order
    return result


def local_block_orders(
    trace: Trace, machine: MachineModel | None = None, delay_idles: bool = True
) -> list[list[str]]:
    """Baseline: schedule each basic block independently with the Rank
    Algorithm (optionally delaying idle slots within the block — the paper's
    "simple application of this idea ... independently in each basic block"),
    ignoring all cross-block edges.  Returns per-block orders."""
    from .idle import schedule_block_with_late_idle_slots
    from .rank import minimum_makespan_schedule

    machine = machine or single_unit_machine()
    orders: list[list[str]] = []
    for bb in trace.blocks:
        if delay_idles:
            sched, _ = schedule_block_with_late_idle_slots(bb.graph, machine)
        else:
            sched = minimum_makespan_schedule(bb.graph, machine)
        orders.append(sched.permutation())
    return orders
