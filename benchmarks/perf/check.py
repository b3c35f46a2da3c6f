"""Independent output checks.

Works on the wire documents alone and shares no code with
``repro.analysis.verify`` or ``repro.core.legality``: a check must not reuse
the logic it checks.  Every failure is one string; the harness counts each
checked answer with a failure as failed.
"""

from __future__ import annotations

ANY = "any"


def lower_bound(program: dict, machine: dict) -> int:
    """A makespan no windowed execution can beat: the larger of the
    latency-weighted critical path and the issue/unit capacity bound."""
    exec_time, fu, preds = {}, {}, {}
    for block in program["blocks"]:
        for name, e, cls in block["nodes"]:
            exec_time[name], fu[name], preds[name] = int(e), cls, []
    edges = [e for b in program["blocks"] for e in b["edges"]]
    for u, v, lat in edges + list(program["cross_edges"]):
        preds[v].append((u, int(lat)))
    # Program order is a topological order: edges only point forward.
    earliest: dict[str, int] = {}
    for name in exec_time:
        earliest[name] = max(
            (earliest[u] + exec_time[u] + lat for u, lat in preds[name]), default=0
        )
    critical = max(earliest[n] + exec_time[n] for n in exec_time)

    units = {str(c): int(n) for c, n in machine["fu_counts"].items()}
    total = sum(units.values())
    width = machine.get("issue_width") or total
    capacity = -(-len(exec_time) // min(width, total))
    resource = -(-sum(exec_time.values()) // total)
    for cls in set(fu.values()) - {ANY}:
        work = sum(exec_time[n] for n in exec_time if fu[n] == cls)
        resource = max(resource, -(-work // (units.get(cls, 0) + units.get(ANY, 0))))
    return max(critical, capacity, resource)


def check_answer(program: dict, machine: dict, answer: dict) -> list[str]:
    """Failures of one answer (``block_orders``, ``makespan``,
    ``stall_cycles``) for ``program`` on ``machine``; empty when it passes.

    - every block order is a permutation of its block and a topological
      order of the block's own edges;
    - the makespan is at least :func:`lower_bound`;
    - the stall count lies in ``[0, makespan)``.
    """
    errors = []
    orders = answer.get("block_orders")
    blocks = program["blocks"]
    if not isinstance(orders, list) or len(orders) != len(blocks):
        return [f"expected {len(blocks)} block orders, got {orders!r:.80}"]
    for i, (order, block) in enumerate(zip(orders, blocks)):
        members = [n[0] for n in block["nodes"]]
        if sorted(order) != sorted(members):
            errors.append(f"block {i}: order is not a permutation of the block")
            continue
        pos = {n: k for k, n in enumerate(order)}
        for u, v, _ in block["edges"]:
            if pos[u] > pos[v]:
                errors.append(f"block {i}: {u} -> {v} scheduled out of order")
    makespan, stalls = answer.get("makespan"), answer.get("stall_cycles")
    if not isinstance(makespan, int) or not isinstance(stalls, int):
        return errors + [f"makespan/stall_cycles missing: {makespan!r}/{stalls!r}"]
    bound = lower_bound(program, machine)
    if makespan < bound:
        errors.append(f"makespan {makespan} beats the lower bound {bound}")
    if not 0 <= stalls < makespan:
        errors.append(f"stall_cycles {stalls} outside [0, {makespan})")
    return errors
