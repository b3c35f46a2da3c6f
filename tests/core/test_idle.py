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
from repro.core.idle import IdleMoveResult, earliest_completions
from repro.core.rank import fill_deadlines
from repro.ir import ANY, FIXED, FLOAT, MEMORY, DependenceGraph, graph_from_edges
from repro.machine import PAPER_CORE, RS6000_LIKE, WIDE_VLIW, MachineModel
from repro.obs import TraceRecorder, recording
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


def reference_move_idle_slot(schedule, deadlines, index, machine, unit, trials=None):
    """Move_Idle_Slot as Fig. 4 states it, every trial run: clamp σᵢ's
    deadlines to tᵢ, then per trial the paper's rank guard and a
    from-scratch ``rank_schedule`` with d(tail) = tᵢ − 1.  A trial that
    keeps the slot at tᵢ is retried on its schedule; one that opens an
    earlier slot fails like an infeasible one.  ``trials``, when given,
    collects each trial's (tail, tᵢ, deadlines before the reduction)."""
    graph = schedule.graph
    d = dict(deadlines)
    times = schedule.idle_times(unit)
    if index >= len(times):
        return IdleMoveResult(schedule, d, None, False)
    t_i = times[index]
    prev_t = times[index - 1] if index else -1
    for v, t in schedule.starts.items():
        if prev_t < t < t_i and schedule.units[v] == unit:
            d[v] = min(d[v], t_i)
    clamped = dict(d)
    current = schedule
    for _ in range(len(graph) + 1):
        tail = current.tail_node(t_i, unit)
        if tail is None:
            break
        if trials is not None:
            trials.append((tail, t_i, dict(d)))
        if compute_ranks(graph, d, machine)[tail] < t_i:
            break
        d = {**d, tail: t_i - 1}
        trial, _ = rank_schedule(graph, d, machine)
        if trial is None:
            break
        new_times = trial.idle_times(unit)
        if index >= len(new_times):
            return IdleMoveResult(trial, d, None, True)
        if new_times[index] > t_i:
            return IdleMoveResult(trial, d, new_times[index], True)
        if new_times[index] < t_i:
            break
        current = trial
    return IdleMoveResult(schedule, clamped, t_i, False)


def reference_delay_idle_slots(schedule, deadlines, machine, unit, trials=None):
    """Delay_Idle_Slots as Fig. 6 states it: :func:`reference_move_idle_slot`
    on every idle slot of ``unit``, earliest first; stay on a slot while it
    moves later or vanishes."""
    d = fill_deadlines(schedule.graph, deadlines)
    index = 0
    while index < len(schedule.idle_times(unit)):
        result = reference_move_idle_slot(schedule, d, index, machine, unit, trials)
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
        that of a call that builds its own engine from ``d``, and that of
        :func:`reference_move_idle_slot`; a failed move
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
                assert result == reference_move_idle_slot(
                    schedule, d, index, machine, unit
                )
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


class TestEarliestCompletionBound:
    """A trial whose tail's dependence-only earliest completion is ≥ tᵢ is
    settled as infeasible without a list schedule."""

    @settings(max_examples=300, deadline=None)
    @given(delay_instances())
    def test_a_decided_trial_is_infeasible(self, instance):
        """Over every trial of the reference Delay_Idle_Slots, unit after
        unit: when the bound decides one, ``rank_schedule`` with
        d(tail) = tᵢ − 1 returns None."""
        schedule, deadlines, machine = instance
        graph = schedule.graph
        earliest = earliest_completions(graph)
        d = deadlines
        trials = []
        for unit in machine.unit_names():
            schedule, d = reference_delay_idle_slots(
                schedule, d, machine, unit, trials
            )
        for tail, t_i, before in trials:
            assert earliest[tail] <= t_i  # the tail completes at tᵢ
            if earliest[tail] == t_i:
                trial, _ = rank_schedule(graph, {**before, tail: t_i - 1}, machine)
                assert trial is None

    def test_the_bound_decides_a_chain_tail(self):
        """a ->(1) b idles at 1 behind a, whose earliest completion is 1:
        the trial ends without an engine update or a list schedule, and
        returns what the reference's infeasible trial returns."""
        g = graph_from_edges([("a", "b", 1)])
        s, _ = rank_schedule(g)
        assert s.idle_times() == [1]
        d = {"a": 1, "b": 3}  # σ₀ = {a} already clamped to t₀
        engine = RankEngine(g, d, PAPER_CORE)
        engine.schedule = lambda: pytest.fail("a decided trial list-schedules")
        with recording(TraceRecorder(sim_events=False)) as rec:
            result = move_idle_slot(s, d, 0, PAPER_CORE, engine=engine)
        assert rec.counters["idle.trials"] == 1
        assert "rank.engine.updates" not in rec.counters
        assert not any(span.name == "rank.incremental" for span in rec.spans)
        unit = PAPER_CORE.unit_names()[0]
        assert result == reference_move_idle_slot(s, d, 0, PAPER_CORE, unit)
        assert result.schedule is s and not result.moved
        assert engine.deadlines == d

    def test_the_table_follows_its_graph(self):
        """The table lives in the graph's analysis cache, so an edit gives a
        recomputed one."""
        g = graph_from_edges([("a", "b", 1)], nodes=["a", "b", "c"])
        first = earliest_completions(g)
        assert first == {"a": 1, "b": 3, "c": 1}
        assert earliest_completions(g) is first
        g.add_edge("b", "c", 2)
        assert earliest_completions(g) == {"a": 1, "b": 3, "c": 6}
        g.add_node("d", exec_time=2)
        assert earliest_completions(g)["d"] == 2


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
