"""Unit + oracle tests for minimum-tardiness scheduling."""

import pytest

from repro.core.tardiness import max_lateness, minimize_tardiness
from repro.ir import graph_from_edges
from repro.machine import paper_machine
from repro.workloads import figure1_bb1, random_dag


def bruteforce_min_tardiness(graph, deadlines, machine=None):
    """Oracle: smallest L such that deadlines+L admit a feasible schedule."""
    from repro.schedulers import is_feasible_instance

    for level in range(0, 64):
        relaxed = {n: deadlines.get(n, 10**6) + level for n in graph.nodes}
        if is_feasible_instance(graph, relaxed, machine):
            return level
    raise AssertionError("no feasible relaxation found")  # pragma: no cover


def tardiness_instance(seed):
    """A random 7-node DAG (latencies 0/1) with tight deadlines 1-4, on one
    unit: real tardiness to minimize."""
    g = random_dag(7, edge_probability=0.3, latencies=(0, 1), seed=seed)
    deadlines = {n: 1 + (i % 4) for i, n in enumerate(g.nodes)}
    return g, deadlines, paper_machine(1)


class TestBasics:
    def test_feasible_instance_zero_tardiness(self):
        g = figure1_bb1()
        res = minimize_tardiness(g, {n: 7 for n in g.nodes})
        assert res.tardiness == 0
        assert res.schedule.makespan == 7

    def test_impossible_deadline(self):
        g = figure1_bb1()
        res = minimize_tardiness(g, {n: 6 for n in g.nodes})
        assert res.tardiness == 1  # optimal makespan 7, uniform deadline 6
        res.schedule.validate()

    def test_single_tight_node(self):
        g = graph_from_edges([("a", "b", 2)])
        # b cannot complete before 4; deadline 1 -> tardiness 3.
        res = minimize_tardiness(g, {"b": 1})
        assert res.tardiness == 3

    def test_partial_deadlines(self):
        g = graph_from_edges([], nodes=["a", "b", "c"])
        res = minimize_tardiness(g, {"c": 1})
        assert res.tardiness == 0
        assert res.schedule.start("c") == 0

    def test_empty_graph(self):
        from repro.ir import DependenceGraph

        assert minimize_tardiness(DependenceGraph(), {}).tardiness == 0

    def test_max_lateness_signed(self):
        g = graph_from_edges([], nodes=["a"])
        res = minimize_tardiness(g, {"a": 5})
        assert max_lateness(res.schedule, {"a": 5}) == -4


class TestOptimality:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_oracle(self, seed):
        g, deadlines, machine = tardiness_instance(seed)
        ours = minimize_tardiness(g, deadlines, machine)
        oracle = bruteforce_min_tardiness(g, deadlines, machine)
        assert ours.tardiness == oracle
        ours.schedule.validate()

    def test_conflicting_deadlines(self):
        """Two independent unit jobs both due at time 1: one must be late."""
        g = graph_from_edges([], nodes=["a", "b"])
        res = minimize_tardiness(g, {"a": 1, "b": 1})
        assert res.tardiness == 1
