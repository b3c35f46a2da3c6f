"""Unit tests for the fault-injection layer: plan semantics, the
active-plan registry, seeded determinism, and the simulator hooks."""

import pytest

from repro import graph_from_edges, parse_trace
from repro.machine import paper_machine
from repro.robust.faults import (
    FaultPlan,
    FaultState,
    active_plan,
    default_fault_plans,
    fault_state,
    injection,
    perturbed_machine,
    serving_storm,
    set_plan,
    suspended,
)
from repro.sim import SimulationDeadlock, simulate_trace, simulate_window

TWO_BLOCK = """
block top
  a op=li  defs=r1 lat=1
  b op=li  defs=r2 lat=1
  c op=mul defs=r3 uses=r1,r2 lat=4
block bottom
  d op=add defs=r4 uses=r3 lat=1
"""


class TestFaultPlan:
    def test_default_is_noop(self):
        plan = FaultPlan()
        assert plan.is_noop
        assert not plan.corrupts_stream
        assert not plan.slows_only

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(latency_jitter=-1)
        with pytest.raises(ValueError):
            FaultPlan(window_shrink=-1)
        with pytest.raises(ValueError):
            FaultPlan(mispredict_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(deadlock_after=-1)

    def test_slows_only_classification(self):
        assert FaultPlan(latency_jitter=2).slows_only
        assert FaultPlan(window_shrink=1).slows_only
        assert FaultPlan(mispredict_rate=0.5).slows_only
        assert not FaultPlan(window_grow=1).slows_only
        assert not FaultPlan(truncate_stream=True).slows_only
        assert not FaultPlan(deadlock_after=1).slows_only

    def test_corrupts_stream(self):
        assert FaultPlan(truncate_stream=True).corrupts_stream
        assert FaultPlan(duplicate_stream=True).corrupts_stream
        assert not FaultPlan(latency_jitter=3).corrupts_stream

    def test_rng_is_deterministic_and_site_independent(self):
        plan = FaultPlan(seed=7)
        a = [plan.rng("site.a").random() for _ in range(3)]
        b = [plan.rng("site.a").random() for _ in range(3)]
        c = [plan.rng("site.b").random() for _ in range(3)]
        assert a == b
        assert a != c

    def test_reseeded(self):
        plan = FaultPlan(name="jitter", latency_jitter=2, seed=1)
        other = plan.reseeded(9)
        assert other.seed == 9
        assert other.latency_jitter == 2 and other.name == "jitter"

    def test_describe_lists_enabled_fields_only(self):
        text = FaultPlan(name="j", latency_jitter=2).describe()
        assert text == "j(latency_jitter=2)"

    def test_default_suite_covers_every_kind(self):
        plans = {p.name: p for p in default_fault_plans(seed=3)}
        assert plans["noop"].is_noop
        assert plans["latency_jitter"].latency_jitter > 0
        assert plans["window_shrink"].window_shrink > 0
        assert plans["window_grow"].window_grow > 0
        assert plans["mispredict_storm"].mispredict_rate > 0
        assert plans["stream_truncate"].corrupts_stream
        assert plans["stream_duplicate"].corrupts_stream
        assert plans["spurious_deadlock"].deadlock_after is not None
        assert all(p.seed == 3 for p in plans.values())


class TestRegistry:
    def test_off_by_default(self):
        assert active_plan() is None
        assert fault_state(["a"]) is None

    def test_noop_plans_are_never_installed(self):
        previous = set_plan(FaultPlan())
        try:
            assert active_plan() is None
        finally:
            set_plan(previous)

    def test_injection_restores_previous(self):
        plan = FaultPlan(name="j", latency_jitter=1)
        with injection(plan):
            assert active_plan() is plan
            with injection(FaultPlan(name="k", window_shrink=1)) as inner:
                assert active_plan() is inner
            assert active_plan() is plan
        assert active_plan() is None

    def test_suspended_masks_active_plan(self):
        with injection(FaultPlan(name="j", latency_jitter=1)):
            with suspended():
                assert active_plan() is None
            assert active_plan() is not None


class TestFaultState:
    def test_latency_extra_cached_and_bounded(self):
        state = FaultState(FaultPlan(latency_jitter=3, seed=1), ["a", "b"])
        first = state.latency_extra("a", "b")
        assert 0 <= first <= 3
        assert state.latency_extra("a", "b") == first  # one draw per edge

    def test_latency_extra_zero_without_jitter(self):
        state = FaultState(FaultPlan(window_shrink=1), ["a", "b"])
        assert state.latency_extra("a", "b") == 0

    def test_effective_window_clamped_to_one(self):
        state = FaultState(FaultPlan(window_shrink=10, seed=2), ["a"])
        assert all(state.effective_window(2) >= 1 for _ in range(20))

    def test_perturb_stream_truncate_and_duplicate(self):
        trunc = FaultState(FaultPlan(truncate_stream=True), ["a", "b", "c"])
        assert trunc.perturb_stream(["a", "b", "c"]) == ["a", "b"]
        dup = FaultState(FaultPlan(duplicate_stream=True), ["a", "b", "c"])
        out = dup.perturb_stream(["a", "b", "c"])
        assert len(out) == 4 and sorted(set(out)) == ["a", "b", "c"]

    def test_deadlock_due(self):
        state = FaultState(FaultPlan(deadlock_after=2), ["a"])
        assert not state.deadlock_due(1)
        assert state.deadlock_due(2)

    def test_draws_reproducible_per_plan_and_stream(self):
        plan = FaultPlan(latency_jitter=3, window_shrink=1, seed=5)
        s1 = FaultState(plan, ["a", "b", "c"])
        s2 = FaultState(plan, ["a", "b", "c"])
        assert [s1.latency_extra("a", "b"), s1.effective_window(4)] == [
            s2.latency_extra("a", "b"),
            s2.effective_window(4),
        ]


class TestPerturbedMachine:
    def test_noop_returns_same_object(self):
        m = paper_machine(4)
        assert perturbed_machine(m, FaultPlan(latency_jitter=3)) is m

    def test_window_wobble_applied_and_clamped(self):
        m = paper_machine(2)
        out = perturbed_machine(m, FaultPlan(window_shrink=5, seed=1))
        assert out.window_size >= 1


class TestSimulatorHooks:
    """End-to-end behaviour of each fault kind inside the simulator."""

    def _clean(self, machine):
        trace = parse_trace(TWO_BLOCK)
        orders = [["a", "b", "c"], ["d"]]
        return trace, orders, simulate_trace(trace, orders, machine)

    def test_no_plan_and_noop_plan_identical(self):
        machine = paper_machine(2)
        trace, orders, clean = self._clean(machine)
        with injection(FaultPlan()):
            faulted = simulate_trace(trace, orders, machine)
        assert faulted.makespan == clean.makespan
        assert faulted.stall_cycles == clean.stall_cycles

    def test_latency_jitter_slows_and_is_deterministic(self):
        machine = paper_machine(2)
        trace, orders, clean = self._clean(machine)
        plan = FaultPlan(name="j", latency_jitter=3, seed=4)
        with injection(plan):
            one = simulate_trace(trace, orders, machine)
            two = simulate_trace(trace, orders, machine)
        assert one.makespan == two.makespan
        assert one.makespan >= clean.makespan

    def test_window_shrink_never_deadlocks_valid_stream(self):
        # All dependences in a per-block-order stream point backward, so a
        # shrunken window can only slow execution, never wedge it.
        machine = paper_machine(4)
        trace, orders, clean = self._clean(machine)
        with injection(FaultPlan(name="s", window_shrink=3, seed=2)):
            faulted = simulate_trace(trace, orders, machine)
        assert faulted.makespan >= clean.makespan

    def test_truncated_stream_rejected_naming_instruction(self):
        g = graph_from_edges([("a", "b", 1)])
        with injection(FaultPlan(truncate_stream=True)):
            with pytest.raises(ValueError, match="permutation") as info:
                simulate_window(g, ["a", "b"], paper_machine(2))
        assert "b" in str(info.value)

    def test_duplicated_stream_rejected(self):
        g = graph_from_edges([("a", "b", 1)])
        with injection(FaultPlan(duplicate_stream=True, seed=1)):
            with pytest.raises(ValueError, match="permutation"):
                simulate_window(g, ["a", "b"], paper_machine(2))

    def test_injected_deadlock_is_diagnosed(self):
        g = graph_from_edges([("a", "b", 1)])
        with injection(FaultPlan(name="dl", deadlock_after=1, seed=0)):
            with pytest.raises(SimulationDeadlock) as info:
                simulate_window(g, ["a", "b"], paper_machine(2))
        exc = info.value
        assert exc.injected
        assert exc.node is not None
        assert exc.window is not None
        assert "injected" in str(exc)

    def test_forced_mispredicts_slow_multiblock_trace(self):
        machine = paper_machine(2)
        trace, orders, clean = self._clean(machine)
        plan = FaultPlan(
            name="mp", mispredict_rate=1.0, mispredict_penalty=5, seed=0
        )
        with injection(plan):
            faulted = simulate_trace(trace, orders, machine)
        assert faulted.makespan > clean.makespan

    def test_serving_faults_change_no_simulation(self):
        from repro.core import algorithm_lookahead
        from repro.machine.presets import PAPER_CORE
        from repro.workloads.traces import random_trace

        for machine in (PAPER_CORE, paper_machine(2), paper_machine(4)):
            for seed in range(40):
                trace = random_trace(3, (3, 6), cross_probability=0.2, seed=seed)
                orders = algorithm_lookahead(trace, machine).block_orders
                clean = simulate_trace(trace, orders, machine)
                with injection(serving_storm(seed)):
                    served = simulate_trace(trace, orders, machine)
                assert served.schedule.digest() == clean.schedule.digest()
                assert served.stall_cycles == clean.stall_cycles

    def test_suspended_restores_clean_behaviour(self):
        machine = paper_machine(2)
        trace, orders, clean = self._clean(machine)
        with injection(FaultPlan(truncate_stream=True)):
            with suspended():
                ok = simulate_trace(trace, orders, machine)
        assert ok.makespan == clean.makespan
