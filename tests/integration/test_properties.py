"""Property-based tests (hypothesis) for the core invariants.

These fuzz the theorems the paper states for the optimal regime (unit
execution times, 0/1 latencies, single functional unit) and the structural
invariants that must hold for *every* machine model.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import verify_scheduler_output
from repro.core import (
    algorithm_lookahead,
    compute_ranks,
    delay_idle_slots,
    list_schedule,
    makespan_deadlines,
    rank_schedule,
)
from repro.core.rank import fill_deadlines
from repro.machine import paper_machine
from repro.schedulers import optimal_makespan
from repro.sim import simulate_window
from repro.workloads import random_dag, random_trace

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_dag(draw, max_nodes=9, latencies=(0, 1)):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    p = draw(st.sampled_from([0.1, 0.25, 0.4, 0.6]))
    return random_dag(n, edge_probability=p, latencies=latencies, seed=seed)


@st.composite
def medium_dag(draw, max_nodes=20, latencies=(0, 1, 2, 4)):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_dag(n, edge_probability=0.25, latencies=latencies, seed=seed)


class TestRankOptimality:
    @settings(max_examples=60, **COMMON)
    @given(small_dag())
    def test_rank_schedule_within_one_of_optimum(self, g):
        """On every fuzzed 0/1-latency instance the Rank Algorithm is at
        most one cycle longer than the exact optimum, under either
        tie-break.  Exactness holds on the deterministic corpus in
        tests/core/test_tie_breaking.py, which also pins the instances
        where label ties miss the optimum by one cycle."""
        opt = optimal_makespan(g)
        for tie_break in ("labels", "program"):
            s, _ = rank_schedule(g, tie_break=tie_break)
            assert s is not None
            assert s.makespan <= opt + 1

    @settings(max_examples=40, **COMMON)
    @given(small_dag())
    def test_feasibility_brackets_bruteforce_optimum(self, g):
        """rank_schedule (label ties) never meets deadlines one below the
        exact optimum, and always meets deadlines one above it."""
        opt = optimal_makespan(g)
        s_bad, _ = rank_schedule(
            g, {n: opt - 1 for n in g.nodes}, tie_break="labels"
        )
        assert s_bad is None
        s_ok, _ = rank_schedule(
            g, {n: opt + 1 for n in g.nodes}, tie_break="labels"
        )
        assert s_ok is not None and s_ok.makespan <= opt + 1


class TestScheduleValidity:
    @settings(max_examples=40, **COMMON)
    @given(medium_dag())
    def test_rank_schedules_always_valid(self, g):
        s, _ = rank_schedule(g)
        assert s is not None
        s.validate()

    @settings(max_examples=40, **COMMON)
    @given(medium_dag(), st.integers(min_value=1, max_value=8))
    def test_simulation_always_valid_and_complete(self, g, w):
        sim = simulate_window(g, g.nodes, paper_machine(w))
        sim.schedule.validate()
        assert len(sim.issue_order) == len(g)


class TestIdleDelayInvariants:
    @settings(max_examples=40, **COMMON)
    @given(small_dag(max_nodes=12))
    def test_makespan_preserved_and_slots_monotone(self, g):
        s, _ = rank_schedule(g)
        assert s is not None
        before = s.idle_times()
        s2, _ = delay_idle_slots(s, makespan_deadlines(s))
        s2.validate()
        # Delaying idle slots never hurts, and can occasionally *improve* the
        # makespan: rank_schedule's program-order tie-breaking is +1-cycle
        # suboptimal on rare instances (see rank.py), and re-timing a slot can
        # recover that cycle.
        assert s2.makespan <= s.makespan
        if s2.makespan == s.makespan:
            # Same makespan: slots are preserved, each moved later or kept.
            after = s2.idle_times()
            assert len(after) == len(before)
            assert all(a >= b for a, b in zip(after, before))


class TestRankDefinition:
    @settings(max_examples=40, **COMMON)
    @given(small_dag(max_nodes=10))
    def test_rank_is_achievable_completion_bound(self, g):
        """In the optimal regime the rank-list greedy schedule completes
        every node by its rank (ranks are tight upper bounds)."""
        d = fill_deadlines(g)
        ranks = compute_ranks(g, d)
        s, _ = rank_schedule(g, d)
        assert s is not None
        assert all(s.completion(n) <= ranks[n] for n in g.nodes)

    @settings(max_examples=30, **COMMON)
    @given(small_dag(max_nodes=10), st.integers(min_value=1, max_value=30))
    def test_translation_invariance(self, g, shift):
        base = {n: 100 for n in g.nodes}
        shifted = {n: 100 + shift for n in g.nodes}
        r0 = compute_ranks(g, base)
        r1 = compute_ranks(g, shifted)
        assert all(r1[n] - r0[n] == shift for n in g.nodes)


@st.composite
def small_trace(draw):
    blocks = draw(st.integers(min_value=1, max_value=4))
    size = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    cross = draw(st.sampled_from([0.0, 0.1, 0.25]))
    return random_trace(
        blocks, size, cross_probability=cross, latencies=(0, 1), seed=seed
    )


class TestLookaheadInvariants:
    @settings(max_examples=40, **COMMON)
    @given(small_trace(), st.integers(min_value=1, max_value=6))
    def test_output_always_safe_and_legal(self, trace, w):
        m = paper_machine(w)
        res = algorithm_lookahead(trace, m)
        verify_scheduler_output(trace, res.block_orders, m)

    @settings(max_examples=30, **COMMON)
    @given(small_trace(), st.integers(min_value=1, max_value=6))
    def test_simulation_never_exceeds_prediction(self, trace, w):
        m = paper_machine(w)
        res = algorithm_lookahead(trace, m)
        from repro.sim import simulate_trace

        sim = simulate_trace(trace, res.block_orders, m)
        assert sim.makespan <= res.predicted_makespan

    def test_anticipatory_beats_source_order_in_aggregate(self):
        """Algorithm Lookahead is a heuristic, not a per-instance dominator:
        on rare instances its anticipatory reordering loses a cycle to plain
        source order even in the 0/1-latency regime (first known
        counterexample: blocks=2, size=4, cross=0.0, seed=219 — 9 vs 8
        cycles; every known loss is exactly +1).  The paper's claim is about
        expected improvement, so the pinned property is aggregate: over a
        deterministic corpus the anticipatory total is strictly better, and
        no single instance loses more than a bounded slack."""
        from repro.sim import simulate_trace

        m = paper_machine(4)
        corpus = [
            (blocks, size, cross, seed)
            for blocks in (1, 2, 3, 4)
            for size in (2, 3, 4, 5)
            for cross in (0.0, 0.1, 0.25)
            for seed in range(12)
        ]
        corpus.append((2, 4, 0.0, 219))  # the known worst case, pinned
        total_ours = total_src = 0
        worst = 0
        for blocks, size, cross, seed in corpus:
            trace = random_trace(
                blocks, size, cross_probability=cross,
                latencies=(0, 1), seed=seed,
            )
            res = algorithm_lookahead(trace, m)
            ours = simulate_trace(trace, res.block_orders, m).makespan
            src = simulate_trace(
                trace,
                [list(trace.block_nodes(i)) for i in range(trace.num_blocks)],
                m,
            ).makespan
            total_ours += ours
            total_src += src
            worst = max(worst, ours - src)
        assert total_ours < total_src
        # Bounded per-instance slack: a loss of 2+ cycles would be a new
        # kind of counterexample worth investigating, not heuristic noise.
        assert worst <= 1


class TestListScheduleGreedy:
    @settings(max_examples=40, **COMMON)
    @given(medium_dag(), st.integers(min_value=0, max_value=1000))
    def test_any_priority_gives_valid_greedy_schedule(self, g, seed):
        rng = np.random.default_rng(seed)
        priority = list(g.nodes)
        rng.shuffle(priority)
        s = list_schedule(g, priority)
        s.validate()
        # Greedy: the single unit is never idle while some node is ready.
        busy = {s.starts[n] for n in g.nodes}
        est = {}
        for n in g.topological_order():
            est[n] = max(
                (s.completion(p) + lat for p, lat in g.predecessors(n).items()),
                default=0,
            )
        for t in range(s.makespan):
            if t in busy:
                continue
            ready_now = [
                n for n in g.nodes if est[n] <= t and s.starts[n] > t
            ]
            assert not ready_now, f"unit idle at {t} while {ready_now} ready"
