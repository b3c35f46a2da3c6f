"""Unit tests for Move_Idle_Slot / Delay_Idle_Slots (paper §3, Figs 4 & 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    RankEngine,
    compute_ranks,
    delay_idle_slots,
    makespan_deadlines,
    minimum_makespan_schedule,
    move_idle_slot,
    rank_schedule,
    schedule_block_with_late_idle_slots,
)
from repro.core.rank import fill_deadlines
from repro.ir import ANY, FIXED, FLOAT, MEMORY, DependenceGraph, graph_from_edges
from repro.machine import PAPER_CORE, RS6000_LIKE, WIDE_VLIW, MachineModel
from repro.workloads import figure1_bb1, random_dag


class TestFigure1:
    def test_single_move(self):
        """Paper §2.2: the idle slot at t=2 moves to t=5 with d(x)=1."""
        g = figure1_bb1()
        s, _ = rank_schedule(g)
        d = makespan_deadlines(s)
        result = move_idle_slot(s, d, 0)
        assert result.moved
        assert result.new_time == 5
        assert result.schedule.makespan == 7
        assert result.deadlines["x"] == 1  # the deadline the paper derives

    def test_full_delay_reaches_paper_schedule(self):
        """Paper Fig. 1 bottom: x e r b w _ a."""
        g = figure1_bb1()
        s, _ = rank_schedule(g)
        s2, d2 = delay_idle_slots(s, makespan_deadlines(s))
        assert s2.permutation() == ["x", "e", "r", "b", "w", "a"]
        assert s2.idle_times() == [5]
        assert s2.makespan == 7

    def test_convenience_pipeline(self):
        g = figure1_bb1()
        s, d = schedule_block_with_late_idle_slots(g)
        assert s.idle_times() == [5]
        assert s.makespan == 7


class TestInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_makespan_preserved_and_idles_never_earlier(self, seed):
        g = random_dag(12, edge_probability=0.3, latencies=(0, 1), seed=seed)
        s, _ = rank_schedule(g)
        assert s is not None
        before = s.idle_times()
        s2, _ = delay_idle_slots(s, makespan_deadlines(s))
        after = s2.idle_times()
        assert s2.makespan == s.makespan
        assert len(after) == len(before)  # work + makespan fixed => count fixed
        for b, a in zip(before, after):
            assert a >= b
        s2.validate()

    def test_no_idle_slots_noop(self):
        g = graph_from_edges([], nodes=["a", "b", "c"])
        s, _ = rank_schedule(g)
        s2, _ = delay_idle_slots(s, makespan_deadlines(s))
        assert s2.starts == s.starts

    def test_immovable_idle_slot(self):
        """A latency-forced gap in a chain cannot move."""
        g = graph_from_edges([("a", "b", 1)])
        s, _ = rank_schedule(g)
        assert s.idle_times() == [1]
        s2, _ = delay_idle_slots(s, makespan_deadlines(s))
        assert s2.idle_times() == [1]

    def test_failure_returns_input_schedule(self):
        g = graph_from_edges([("a", "b", 1)])
        s, _ = rank_schedule(g)
        d = fill_deadlines(g, makespan_deadlines(s))
        result = move_idle_slot(s, d, 0)
        assert not result.moved
        assert result.schedule.starts == s.starts
        # Tail-node reductions must have been rolled back.
        assert result.deadlines["a"] >= 1

    def test_out_of_range_index(self):
        g = graph_from_edges([], nodes=["a"])
        s, _ = rank_schedule(g)
        d = fill_deadlines(g, makespan_deadlines(s))
        result = move_idle_slot(s, d, 3)
        assert not result.moved

    def test_input_deadlines_not_mutated(self):
        g = figure1_bb1()
        s, _ = rank_schedule(g)
        d = fill_deadlines(g, makespan_deadlines(s))
        snapshot = dict(d)
        move_idle_slot(s, d, 0)
        assert d == snapshot


class TestMultipleIdleSlots:
    def test_two_gaps_chain(self):
        """a ->(2) b ->(2) c: two 2-cycle gaps, all frozen by dependences."""
        g = graph_from_edges([("a", "b", 2), ("b", "c", 2)])
        s, _ = rank_schedule(g)
        assert s.idle_times() == [1, 2, 4, 5]
        s2, _ = delay_idle_slots(s, makespan_deadlines(s))
        assert s2.makespan == s.makespan
        s2.validate()

    def test_fillable_gap_moves_late(self):
        """Chain with latency plus independent fillers: the free instructions
        fill the early gap, pushing idleness to the end."""
        g = graph_from_edges(
            [("a", "b", 3)], nodes=["a", "b", "f1", "f2"]
        )
        s2, _ = schedule_block_with_late_idle_slots(g)
        # Optimal makespan 5: a f1 f2 b fits with gap filled... a@0, b>=4.
        # 4 nodes in 5 slots -> exactly one idle slot, as late as possible.
        assert s2.makespan == 5
        assert s2.idle_times() == [3]
        assert s2.start("a") == 0


def reference_delay_idle_slots(schedule, deadlines, machine, unit):
    """Delay_Idle_Slots as Fig. 6 states it: Move_Idle_Slot on every idle
    slot of ``unit``, earliest first, each call with a fresh engine (one
    from-scratch rank computation on the map it is given); stay on a slot
    while it moves later or vanishes."""
    d = fill_deadlines(schedule.graph, deadlines)
    index = 0
    while index < len(schedule.idle_times(unit)):
        result = move_idle_slot(schedule, d, index, machine, unit)
        schedule, d = result.schedule, result.deadlines
        if not result.moved:
            index += 1
    return schedule, d


#: Several units per class, one unit per class, typed pools beside a
#: universal unit, and a single unit.
TYPED_MACHINES = (
    WIDE_VLIW,
    RS6000_LIKE,
    MachineModel(window_size=4, fu_counts={FIXED: 2, FLOAT: 1, ANY: 1}),
    PAPER_CORE,
)


@st.composite
def delay_instances(draw):
    """A rank schedule of a random DAG (1-14 nodes over fixed/float/memory,
    latencies 0/1/2/4, some two-cycle nodes) on one of ``TYPED_MACHINES``,
    with deadlines it meets: its makespan, or each node's completion plus
    0-3."""
    machine = draw(st.sampled_from(TYPED_MACHINES))
    n = draw(st.integers(min_value=1, max_value=14))
    graph = DependenceGraph()
    for i in range(n):
        graph.add_node(
            f"n{i}",
            exec_time=draw(st.sampled_from((1, 1, 1, 2))),
            fu_class=draw(st.sampled_from((FIXED, FLOAT, MEMORY))),
        )
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.sampled_from((0, 1, 2, 4)),
            ),
            max_size=2 * n,
        )
    )
    for a, b, lat in pairs:
        if a != b:
            graph.add_edge(f"n{min(a, b)}", f"n{max(a, b)}", lat)
    schedule = minimum_makespan_schedule(graph, machine)
    if draw(st.booleans()):
        deadlines = makespan_deadlines(schedule)
    else:
        deadlines = {
            v: schedule.completion(v) + draw(st.integers(min_value=0, max_value=3))
            for v in graph.nodes
        }
    return schedule, deadlines, machine


class TestDelayAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(delay_instances())
    def test_same_schedule_and_deadlines(self, instance):
        """Unit after unit, as Algorithm Lookahead runs it, with one engine
        shared by every unit: the reference's schedule and deadline map."""
        schedule, deadlines, machine = instance
        graph = schedule.graph
        got = want = schedule
        got_d = want_d = fill_deadlines(graph, deadlines)
        engine = RankEngine(graph, got_d, machine)
        for unit in machine.unit_names():
            got, got_d = delay_idle_slots(got, got_d, machine, unit, engine=engine)
            want, want_d = reference_delay_idle_slots(want, want_d, machine, unit)
            assert got == want
            assert got_d == want_d
        assert engine.deadlines == got_d
        assert engine.ranks == compute_ranks(graph, got_d, machine)

    @settings(max_examples=300, deadline=None)
    @given(delay_instances())
    def test_every_move_leaves_the_engine_exact(self, instance):
        """After each Move_Idle_Slot, moved or not, the engine holds the
        returned deadlines and their from-scratch ranks; the result equals
        that of a call that builds its own engine from ``d``; a failed move
        returns its input schedule with σᵢ's deadlines clamped to tᵢ and
        every other one unchanged."""
        schedule, deadlines, machine = instance
        graph = schedule.graph
        d = fill_deadlines(graph, deadlines)
        engine = RankEngine(graph, d, machine)
        for unit in machine.unit_names():
            index = 0
            while index < len(schedule.idle_times(unit)):
                times = schedule.idle_times(unit)
                t_i = times[index]
                prev_t = times[index - 1] if index else -1
                result = move_idle_slot(schedule, d, index, machine, unit, engine)
                assert result == move_idle_slot(schedule, d, index, machine, unit)
                assert engine.deadlines == result.deadlines
                assert engine.ranks == compute_ranks(graph, result.deadlines, machine)
                if not result.moved:
                    sigma = {
                        v
                        for v, t in schedule.starts.items()
                        if prev_t < t < t_i and schedule.units[v] == unit
                    }
                    assert result.schedule is schedule
                    assert result.deadlines == {
                        v: min(x, t_i) if v in sigma else x for v, x in d.items()
                    }
                    index += 1
                schedule, d = result.schedule, result.deadlines


class TestSlotMovingEarlier:
    """The smallest ``WIDE_VLIW`` case found in which a trial opens an
    earlier slot: the clamps keep σᵢ's deadlines at tᵢ, but the trial's list
    schedule moves a σᵢ node to the sibling unit of its class."""

    UNIT = (MEMORY, 0)

    @staticmethod
    def graph():
        g = DependenceGraph()
        for v in ("n0", "n1", "n2", "n3"):
            g.add_node(v, fu_class=MEMORY)
        g.add_node("n4", fu_class=FLOAT)
        for a, b, lat in (("n0", "n4", 4), ("n1", "n4", 2), ("n2", "n3", 0),
                          ("n3", "n4", 0)):
            g.add_edge(a, b, lat)
        return g

    def test_move_fails_and_returns_its_input(self):
        g = self.graph()
        s = minimum_makespan_schedule(g, WIDE_VLIW)
        assert {v: (s.starts[v], s.units[v]) for v in g.nodes} == {
            "n0": (0, (MEMORY, 0)),
            "n1": (0, (MEMORY, 1)),
            "n2": (1, (MEMORY, 0)),
            "n3": (2, (MEMORY, 0)),
            "n4": (5, (FLOAT, 0)),
        }
        assert s.idle_times(self.UNIT) == [3, 4, 5]
        d = makespan_deadlines(s)
        clamped = {**d, "n0": 3, "n2": 3, "n3": 3}  # σ₀ = n0, n2, n3

        # The first trial: the tail n3 due at 2.  n2 moves to memory1, and
        # memory0 idles at 2, before the slot at 3.
        trial, _ = rank_schedule(g, {**clamped, "n3": 2}, WIDE_VLIW)
        assert trial.units["n2"] == (MEMORY, 1)
        assert trial.idle_times(self.UNIT)[0] == 2

        engine = RankEngine(g, d, WIDE_VLIW)
        result = move_idle_slot(s, d, 0, WIDE_VLIW, self.UNIT, engine)
        assert not result.moved
        assert result.new_time == 3
        assert result.schedule is s
        assert result.deadlines == clamped
        assert engine.deadlines == clamped
        assert engine.ranks == compute_ranks(g, clamped, WIDE_VLIW)
