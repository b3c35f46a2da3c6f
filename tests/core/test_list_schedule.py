"""The event-driven ``list_schedule`` against the step-by-step scan it
replaced, kept here as the test-only reference.

The reference advances time one step at a time and rescans every node at
every step; the library version keeps released nodes in a heap and jumps
over steps at which nothing can issue.  Both must give the same start times
and the same units, and raise the same errors.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    compute_ranks,
    fill_deadlines,
    list_schedule,
    minimum_makespan_schedule,
    rank_priority_list,
    rank_schedule,
)
from repro.core.schedule import Schedule
from repro.ir import FU_CLASSES, FIXED, FLOAT, DependenceGraph
from repro.machine import PAPER_CORE, WIDE_VLIW, MachineModel, paper_machine


def reference_list_schedule(graph, priority, machine):
    """Greedy list scheduling by a full scan per time step: at each step
    issue ready instructions in priority-list order onto free compatible
    units, up to the issue width."""
    if sorted(priority) != sorted(graph.nodes):
        raise ValueError("priority list must be a permutation of the graph nodes")
    if not machine.can_execute(graph):
        raise ValueError("machine lacks a functional unit for some instruction")

    npred = {n: len(graph.predecessors(n)) for n in graph.nodes}
    est = {n: 0 for n in graph.nodes}
    starts = {}
    units = {}
    unit_free_at = {u: 0 for u in machine.unit_names()}
    width = machine.issue_width or machine.total_units

    time = 0
    remaining = len(graph)
    while remaining > 0:
        issued = 0
        for n in priority:
            if n in starts or npred[n] > 0 or est[n] > time:
                continue
            unit = next(
                (
                    u
                    for u in machine.units_for(graph.fu_class(n))
                    if unit_free_at[u] <= time
                ),
                None,
            )
            if unit is None:
                continue
            starts[n] = time
            units[n] = unit
            completion = time + graph.exec_time(n)
            unit_free_at[unit] = completion
            remaining -= 1
            for s, lat in graph.successors(n).items():
                npred[s] -= 1
                est[s] = max(est[s], completion + lat)
            issued += 1
            if issued >= width:
                break
        if remaining == 0:
            break
        blocked_now = any(
            n not in starts and npred[n] == 0 and est[n] <= time
            for n in graph.nodes
        )
        if blocked_now:
            time += 1
            continue
        events = [est[n] for n in graph.nodes if n not in starts and npred[n] == 0]
        events += [t for t in unit_free_at.values() if t > time]
        future = [t for t in events if t > time]
        if not future:
            raise RuntimeError("list scheduling stalled (cyclic graph?)")
        time = min(future)
    return Schedule(graph, starts, units)


MACHINES = (
    PAPER_CORE,
    paper_machine(2),
    WIDE_VLIW,
    MachineModel(window_size=4, fu_counts={"any": 3}, issue_width=2),
    MachineModel(window_size=4, fu_counts={FIXED: 1, "any": 1}, issue_width=1),
)


@st.composite
def instances(draw):
    """A random DAG (1-30 nodes, execution times 1-3, latencies 0-4, mixed
    fu classes), a shuffled priority list and one of ``MACHINES``."""
    n = draw(st.integers(min_value=1, max_value=30))
    graph = DependenceGraph()
    for i in range(n):
        graph.add_node(
            f"n{i}",
            exec_time=draw(st.integers(min_value=1, max_value=3)),
            fu_class=draw(st.sampled_from(FU_CLASSES)),
        )
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=4),
            ),
            max_size=3 * n,
        )
    )
    for a, b, lat in pairs:
        if a != b:
            graph.add_edge(f"n{min(a, b)}", f"n{max(a, b)}", lat)
    priority = draw(st.permutations(graph.nodes))
    machine = draw(st.sampled_from(MACHINES))
    return graph, priority, machine


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(instances())
    def test_same_starts_and_units(self, instance):
        graph, priority, machine = instance
        got = list_schedule(graph, priority, machine)
        want = reference_list_schedule(graph, priority, machine)
        assert got.starts == want.starts
        assert got.units == want.units

    @pytest.mark.parametrize("machine", MACHINES, ids=repr)
    def test_chain_with_latency(self, machine):
        graph = DependenceGraph()
        for name in "abc":
            graph.add_node(name, exec_time=2)
        graph.add_edge("a", "b", 3)
        graph.add_edge("b", "c", 0)
        got = list_schedule(graph, ["c", "b", "a"], machine)
        assert got.starts == {"a": 0, "b": 5, "c": 7}
        assert got == reference_list_schedule(graph, ["c", "b", "a"], machine)


class TestErrors:
    @staticmethod
    def both(graph, priority, machine, exc, match):
        for schedule in (list_schedule, reference_list_schedule):
            with pytest.raises(exc, match=match):
                schedule(graph, priority, machine)

    @pytest.mark.parametrize(
        "priority", [["a"], ["a", "a"], ["a", "b", "c"], ["a", "z"]]
    )
    def test_priority_not_a_permutation(self, priority):
        graph = DependenceGraph()
        graph.add_node("a")
        graph.add_node("b")
        self.both(graph, priority, PAPER_CORE, ValueError, "permutation")

    def test_machine_lacks_a_unit(self):
        graph = DependenceGraph()
        graph.add_node("a", fu_class=FIXED)
        graph.add_node("b", fu_class=FLOAT)
        machine = MachineModel(window_size=2, fu_counts={FIXED: 1})
        self.both(graph, ["a", "b"], machine, ValueError, "lacks a functional unit")

    def test_cycle_makes_no_progress(self):
        graph = DependenceGraph()
        for name in "abc":
            graph.add_node(name)
        graph.add_edge("b", "c", 0)
        graph.add_edge("c", "b", 0)
        self.both(graph, ["a", "b", "c"], PAPER_CORE, RuntimeError, "stalled")


def misses(schedule, deadlines):
    """Whether some node of ``schedule`` completes after its deadline."""
    graph = schedule.graph
    return any(
        schedule.starts[n] + graph.exec_time(n) > deadlines[n] for n in graph.nodes
    )


@st.composite
def deadline_offsets(draw, graph):
    """Per node an offset from its completion: a cycle early, on time or
    late by one or three cycles."""
    return {n: draw(st.sampled_from((-1, 0, 0, 1, 3))) for n in graph.nodes}


class TestDeadlineEarlyExit:
    """``list_schedule`` with deadlines stops at the first node that
    completes late; it must return None exactly when the whole schedule
    misses a deadline, and otherwise the schedule made without them."""

    @settings(max_examples=300, deadline=None)
    @given(instances(), st.data())
    def test_none_exactly_when_the_scan_misses(self, instance, data):
        graph, priority, machine = instance
        assume(machine.can_execute(graph))
        want = reference_list_schedule(graph, priority, machine)
        offsets = data.draw(deadline_offsets(graph))
        deadlines = {n: want.completion(n) + k for n, k in offsets.items()}
        got = list_schedule(graph, priority, machine, deadlines)
        if misses(want, deadlines):
            assert got is None
        else:
            assert got == want

    @settings(max_examples=300, deadline=None)
    @given(instances(), st.data())
    def test_rank_schedule_matches_a_full_schedule(self, instance, data):
        """rank_schedule against a full list schedule of its priority list
        and a feasibility check made here."""
        graph, _, machine = instance
        assume(machine.can_execute(graph))
        base = minimum_makespan_schedule(graph, machine)
        offsets = data.draw(deadline_offsets(graph))
        deadlines = {n: base.completion(n) + k for n, k in offsets.items()}
        got, ranks = rank_schedule(graph, deadlines, machine)
        assert ranks == compute_ranks(graph, deadlines, machine)
        full = list_schedule(graph, rank_priority_list(graph, ranks), machine)
        if misses(full, fill_deadlines(graph, deadlines)):
            assert got is None
        else:
            assert got == full

    @pytest.mark.parametrize("slack,met", [(-1, False), (0, True), (1, True)])
    def test_completing_at_the_deadline_meets_it(self, slack, met):
        graph = DependenceGraph()
        graph.add_node("a", exec_time=2)
        graph.add_node("b")
        graph.add_edge("a", "b", 1)
        deadlines = {"a": 2, "b": 4 + slack}
        got = list_schedule(graph, ["a", "b"], PAPER_CORE, deadlines)
        assert (got is not None) == met
