#!/usr/bin/env python
"""Diagnose *why* a schedule stalls, and evaluate a whole CFG.

Demonstrates the analysis tooling on top of the core algorithms:

1. stall attribution (`repro.obs.stall_attribution`) — the simulator's
   trace gives each stalled cycle one cause: a dependence latency, an
   unissued predecessor, a window limit, a resource conflict or a barrier;
   the window-limited stalls are exactly what anticipatory scheduling
   targets;
2. the cycle-by-cycle log of the same trace;
3. whole-CFG expected completion (`repro.sim.evaluate_cfg`) — the
   trace-scheduling contrast: hot-path anticipation with a bounded cold-path
   cost.

Run:  python examples/stall_analysis.py
"""

from repro import algorithm_lookahead, paper_machine
from repro.analysis import cycle_log, format_table, stall_attribution_summary
from repro.core import local_block_orders
from repro.ir import ControlFlowGraph, Trace, block_from_graph
from repro.sim import evaluate_cfg, simulate_trace
from repro.workloads import figure2_trace, random_dag


def stall_study() -> None:
    trace = figure2_trace(with_cross_edge=False)
    for label, orders_fn in (
        ("local (no idle delaying)", lambda m: local_block_orders(trace, m, delay_idles=False)),
        ("anticipatory", lambda m: algorithm_lookahead(trace, m).block_orders),
    ):
        machine = paper_machine(2)
        orders = orders_fn(machine)
        sim = simulate_trace(trace, orders, machine, collect_trace=True)
        print(f"\n=== {label}: completion {sim.makespan} cycles ===")
        print(stall_attribution_summary(sim.trace))
        for line in cycle_log(sim.trace):
            print(" ", line)


def cfg_study() -> None:
    machine = paper_machine(4)
    cfg = ControlFlowGraph()
    graphs = {
        name: random_dag(
            6, edge_probability=0.3, latencies=(0, 1, 2, 4),
            seed=i * 7, prefix=f"{name}_",
        )
        for i, name in enumerate(["entry", "hot", "cold", "exit"])
    }
    for name, g in graphs.items():
        cfg.add_block(block_from_graph(name, g), entry=(name == "entry"))
    cfg.add_edge("entry", "hot", 0.85)
    cfg.add_edge("entry", "cold", 0.15)
    cfg.add_edge("hot", "exit", 1.0)
    cfg.add_edge("cold", "exit", 1.0)

    hot_trace = Trace([cfg.block(n) for n in ("entry", "hot", "exit")])
    res = algorithm_lookahead(hot_trace, machine)
    orders = dict(zip(("entry", "hot", "exit"), res.block_orders))
    orders["cold"] = local_block_orders(Trace([cfg.block("cold")]), machine)[0]

    ev = evaluate_cfg(
        cfg, orders, ["entry", "hot", "exit"], machine=machine,
        misprediction_penalty=4,
    )
    print("\n=== whole-CFG evaluation (hot path p=0.85, flush penalty 4) ===")
    rows = [
        [" -> ".join(p.blocks), f"{p.probability:.3f}", p.makespan]
        for p in ev.paths
    ]
    print(format_table(["path", "probability", "completion"], rows))
    print(f"expected completion: {ev.expected_makespan:.2f} cycles "
          f"(coverage {ev.coverage:.3f})")


def main() -> None:
    stall_study()
    cfg_study()


if __name__ == "__main__":
    main()
