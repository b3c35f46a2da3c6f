"""Unit tests for the §4.2 heuristic variants and the top-level dispatch."""

import pytest

from repro.core import (
    anticipatory_schedule,
    class_demand,
    compute_ranks,
    compute_ranks_split,
    delay_idle_slots_by_demand,
    minimum_makespan_schedule,
)
from repro.core.lookahead import LookaheadResult
from repro.core.loops import LoopScheduleResult, LoopTraceResult
from repro.ir import (
    ANY,
    FIXED,
    FLOAT,
    MEMORY,
    LoopTrace,
    block_from_graph,
    graph_from_edges,
)
from repro.machine import MachineModel, paper_machine
from repro.workloads import figure2_trace, figure3_loop, random_dag


class TestSplitRanks:
    def test_equals_whole_for_unit_times(self):
        g = random_dag(15, edge_probability=0.25, latencies=(0, 1), seed=4)
        d = {n: 30 for n in g.nodes}
        assert compute_ranks_split(g, d) == compute_ranks(g, d)
        # Typed classes on a single unit share its one pool: x -> a, b due
        # at 10 complete at 10 and 9, so x completes by 8.
        g = graph_from_edges(
            [("x", "a", 0), ("x", "b", 0)], fu_classes={"a": FIXED, "b": FLOAT}
        )
        d = {"x": 50, "a": 10, "b": 10}
        assert compute_ranks_split(g, d) == compute_ranks(g, d)
        assert compute_ranks(g, d)["x"] == 8

    def test_split_at_most_whole(self):
        """Splitting can only pack descendants later or equally, so split
        ranks are >= whole-insertion ranks (a weaker upper bound is fine;
        both are upper bounds)."""
        g = random_dag(
            12, edge_probability=0.3, latencies=(0, 1, 2),
            exec_times=(1, 2, 3), seed=8,
        )
        d = {n: 60 for n in g.nodes}
        whole = compute_ranks(g, d)
        split = compute_ranks_split(g, d)
        assert all(split[n] >= whole[n] for n in g.nodes)

    def test_multicycle_example(self):
        g = graph_from_edges([("a", "b", 0)], exec_times={"b": 3})
        d = {"a": 10, "b": 10}
        # whole insertion: b occupies 8..10, starts at 7, a completes by 7.
        assert compute_ranks(g, d)["a"] == 7
        assert compute_ranks_split(g, d)["a"] == 7


class TestClassDemand:
    def test_orders_by_pressure(self):
        g = graph_from_edges(
            [],
            nodes=["m1", "m2", "m3", "f1"],
            fu_classes={"m1": MEMORY, "m2": MEMORY, "m3": MEMORY, "f1": FIXED},
        )
        m = MachineModel(window_size=2, fu_counts={MEMORY: 1, FIXED: 1})
        assert class_demand(g, m)[0] == MEMORY

    def test_delay_by_demand_runs_all_units(self):
        g = graph_from_edges(
            [("m1", "f1", 2)],
            nodes=["m1", "m2", "f1"],
            fu_classes={"m1": MEMORY, "m2": MEMORY, "f1": FIXED},
        )
        m = MachineModel(window_size=2, fu_counts={MEMORY: 1, FIXED: 1})
        s = minimum_makespan_schedule(g, m)
        s2, _ = delay_idle_slots_by_demand(s, None, m)
        assert s2.makespan <= s.makespan
        s2.validate()


class TestDispatch:
    def test_trace_dispatch(self):
        res = anticipatory_schedule(figure2_trace(), paper_machine(2))
        assert isinstance(res, LookaheadResult)

    def test_loop_dispatch(self):
        res = anticipatory_schedule(figure3_loop(), paper_machine(1))
        assert isinstance(res, LoopScheduleResult)

    def test_loop_trace_dispatch(self):
        g1 = graph_from_edges([("a", "b", 1)])
        g2 = graph_from_edges([], nodes=["c"])
        lt = LoopTrace(
            [block_from_graph("B1", g1), block_from_graph("B2", g2)],
            carried_edges=[("c", "a", 1, 1)],
        )
        res = anticipatory_schedule(lt, paper_machine(2))
        assert isinstance(res, LoopTraceResult)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            anticipatory_schedule(42, paper_machine(2))  # type: ignore[arg-type]
