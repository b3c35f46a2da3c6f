"""Iterative modulo scheduling (software pipelining substrate).

The paper observes (§2.4, §5.2) that anticipatory instruction scheduling is
*complementary* to software pipelining: Figure 3's loop body was already
software-pipelined by the back end (the store belongs to the previous
iteration), and anticipatory scheduling then orders the pipelined body.  This
module implements the classic iterative modulo scheduler (Rau-style):

1. MII = max(resource MII, recurrence MII);
2. for increasing II, attempt a modulo list schedule: place operations at
   the earliest start satisfying intra- and inter-iteration dependences,
   with a modulo reservation table enforcing per-class capacity; eject and
   retry with a budget when stuck.

The result is a *kernel*: per-iteration start offsets whose repetition every
II cycles is legal.  :func:`kernel_order` linearizes the kernel into a
per-iteration instruction order suitable as input to the §5.2 anticipatory
post-pass (benchmark E11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..ir.loopgraph import LoopGraph
from ..machine.model import MachineModel, single_unit_machine


@dataclass
class ModuloScheduleResult:
    """Kernel offsets and the initiation interval that admits them."""

    initiation_interval: int
    offsets: dict[str, int]

    def kernel_order(self) -> list[str]:
        """Per-iteration instruction order: by start offset (ties by name
        insertion order preserved by dict ordering)."""
        return sorted(self.offsets, key=lambda n: self.offsets[n])


def resource_mii(loop: LoopGraph, machine: MachineModel) -> int:
    """ceil(work per class / units of that class), maximized over classes."""
    work: dict[str, int] = {}
    for n in loop.nodes:
        pool = machine.pool(loop.fu_class(n))
        work[pool] = work.get(pool, 0) + loop.exec_time(n)
    best = 1
    for pool, cycles in work.items():
        best = max(best, math.ceil(cycles / max(machine.capacity(pool), 1)))
    return best


def recurrence_mii(loop: LoopGraph) -> int:
    """Dependence-cycle lower bound (delegates to the loop graph)."""
    return loop.recurrence_bound()


def modulo_schedule(
    loop: LoopGraph,
    machine: MachineModel | None = None,
    max_ii: int | None = None,
    budget_factor: int = 8,
) -> ModuloScheduleResult:
    """Iterative modulo scheduling.  Raises ``RuntimeError`` if no II up to
    ``max_ii`` (default: total work + total latency) admits a schedule —
    cannot happen for sane inputs since II = that bound always succeeds."""
    machine = machine or single_unit_machine()
    total = sum(loop.exec_time(n) for n in loop.nodes) + sum(
        e.latency for e in loop.edges()
    )
    if max_ii is None:
        max_ii = max(total, 1)
    mii = max(resource_mii(loop, machine), recurrence_mii(loop))
    for ii in range(mii, max_ii + 1):
        offsets = _try_ii(loop, machine, ii, budget_factor * len(loop))
        if offsets is not None:
            # Normalize: shifting every offset by a constant preserves both
            # the dependence inequalities and the modulo reservation table.
            base = min(offsets.values())
            return ModuloScheduleResult(
                ii, {n: t - base for n, t in offsets.items()}
            )
    raise RuntimeError(f"no modulo schedule found up to II={max_ii}")


def _try_ii(
    loop: LoopGraph, machine: MachineModel, ii: int, budget: int
) -> dict[str, int] | None:
    """One iterative attempt at initiation interval ``ii``."""
    # Height-based priority: longest latency path to any node (acyclic part).
    gli = loop.loop_independent_subgraph()
    height = gli.path_length_to_sinks()
    order = sorted(loop.nodes, key=lambda n: -height[n])

    offsets: dict[str, int] = {}
    table: dict[str, dict[int, list[str]]] = {}

    def pool_of(node: str) -> str:
        return machine.pool(loop.fu_class(node))

    def reserve(node: str, start: int) -> list[str]:
        """Place node at start, ejecting conflicting nodes; returns ejected."""
        pool = pool_of(node)
        slots = table.setdefault(pool, {})
        ejected: list[str] = []
        for step in range(loop.exec_time(node)):
            slot = (start + step) % ii
            occupants = slots.setdefault(slot, [])
            while len(occupants) >= machine.capacity(pool):
                victim = occupants.pop(0)
                if victim not in ejected:
                    ejected.append(victim)
        for step in range(loop.exec_time(node)):
            slots[(start + step) % ii].append(node)
        for v in ejected:
            _unreserve(v)
        offsets[node] = start
        return ejected

    def _unreserve(node: str) -> None:
        pool = pool_of(node)
        slots = table.get(pool, {})
        for occupants in slots.values():
            while node in occupants:
                occupants.remove(node)
        offsets.pop(node, None)

    def earliest_start(node: str) -> int:
        est = 0
        for e in loop.edges():
            if e.dst != node or e.src not in offsets:
                continue
            est = max(
                est,
                offsets[e.src]
                + loop.exec_time(e.src)
                + e.latency
                - ii * e.distance,
            )
        return max(est, 0)

    worklist = list(order)
    last_try: dict[str, int] = {}
    steps = 0
    while worklist:
        steps += 1
        if steps > budget + len(loop) * ii + 64:
            return None
        node = worklist.pop(0)
        est = earliest_start(node)
        if node in last_try and est <= last_try[node]:
            est = last_try[node] + 1
        placed = False
        for start in range(est, est + ii):
            # Check capacity without ejection first.
            pool = pool_of(node)
            slots = table.setdefault(pool, {})
            ok = all(
                len(slots.get((start + s) % ii, [])) < machine.capacity(pool)
                for s in range(loop.exec_time(node))
            )
            if ok:
                reserve(node, start)
                last_try[node] = start
                placed = True
                break
        if not placed:
            ejected = reserve(node, est)
            last_try[node] = est
            worklist.extend(ejected)
            continue
        # Evict successors whose dependence is now violated.
        for e in loop.edges():
            if e.src == node and e.dst in offsets:
                need = (
                    offsets[node]
                    + loop.exec_time(node)
                    + e.latency
                    - ii * e.distance
                )
                if offsets[e.dst] < need:
                    _unreserve(e.dst)
                    worklist.append(e.dst)
    # Final verification.
    for e in loop.edges():
        need = (
            offsets[e.src] + loop.exec_time(e.src) + e.latency - ii * e.distance
        )
        if offsets[e.dst] < need:
            return None
    return dict(offsets)
