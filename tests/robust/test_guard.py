"""Tests for the guarded scheduling pipeline: every degradation path must
come back as a verified per-block fallback with a counted reason."""

import time

import pytest

from repro import parse_trace
from repro.analysis.verify import verify_scheduler_output
from repro.core import local_block_orders
from repro.machine import paper_machine
from repro.obs import TraceRecorder, recording
from repro.robust.faults import FaultPlan, default_fault_plans, injection
from repro.robust.guard import (
    FALLBACK_REASONS,
    DegradedResult,
    GuardedScheduler,
    GuardError,
)
from repro.sim import simulate_trace
from repro.workloads.traces import random_trace

TWO_BLOCK = """
block top
  a op=li  defs=r1 lat=1
  b op=li  defs=r2 lat=1
  c op=mul defs=r3 uses=r1,r2 lat=4
block bottom
  d op=add defs=r4 uses=r3 lat=1
"""


@pytest.fixture
def trace():
    return parse_trace(TWO_BLOCK)


@pytest.fixture
def machine():
    return paper_machine(2)


def _slow_primary(trace, machine):
    time.sleep(5.0)
    return local_block_orders(trace, machine)


def _broken_primary(trace, machine):
    raise RuntimeError("scheduler exploded")


def _illegal_primary(trace, machine):
    # Drops a block entirely: fails verification with an OutputError.
    return local_block_orders(trace, machine)[:-1]


def _fuzz_shape(seed):
    """The trace and machine ``repro fuzz`` schedules for ``seed``."""
    trace = random_trace(
        3, (4, 7), edge_probability=0.3, cross_probability=0.1, seed=seed
    )
    return trace, paper_machine((2, 3, 4, 6)[seed % 4])


def _mispredict_storm(seed):
    return next(
        p for p in default_fault_plans(seed) if p.name == "mispredict_storm"
    )


class TestPrimaryPath:
    def test_success_returns_lookahead(self, trace, machine):
        result = GuardedScheduler(machine=machine).schedule(trace)
        assert result.ok
        assert result.source == "lookahead"
        assert result.degraded is None
        assert result.predicted_makespan is not None
        verify_scheduler_output(trace, result.block_orders, machine)

    def test_success_counts_primary_ok(self, trace, machine):
        with recording(TraceRecorder(sim_events=False)) as rec:
            GuardedScheduler(machine=machine).schedule(trace)
        assert rec.counters.get("guard.primary_ok") == 1
        assert rec.counters.get("guard.schedule") == 1
        assert "guard.fallback" not in rec.counters


class TestVerifiedExecution:
    @pytest.mark.parametrize("seed", range(16))
    def test_mispredict_storm_keeps_the_primary_path(self, seed):
        # Extra flush barriers delay the execution but cannot make it
        # invalid, so verification must accept the orders.
        trace, machine = _fuzz_shape(seed)
        with injection(_mispredict_storm(seed)):
            result = GuardedScheduler(machine=machine).schedule(trace)
        assert result.source == "lookahead", result.degraded
        verify_scheduler_output(trace, result.block_orders, machine)

    def test_primary_sim_is_made_under_the_callers_plan(self):
        trace, machine = _fuzz_shape(0)
        with injection(_mispredict_storm(0)):
            result = GuardedScheduler(machine=machine).schedule(trace)
            faulted = simulate_trace(trace, result.block_orders, machine)
        clean = simulate_trace(trace, result.block_orders, machine)
        assert result.sim.schedule.starts == faulted.schedule.starts
        assert result.sim.makespan > clean.makespan

    def test_fallback_sim_is_clean(self, trace, machine):
        with injection(FaultPlan(name="dl", deadlock_after=0)):
            result = GuardedScheduler(machine=machine).schedule(trace)
        assert result.source == "fallback"
        clean = simulate_trace(trace, result.block_orders, machine)
        assert result.sim.schedule.starts == clean.schedule.starts


class TestDegradedPaths:
    def _assert_fallback(self, result, trace, machine, reason):
        assert not result.ok
        assert result.source == "fallback"
        assert result.degraded.reason == reason
        assert result.block_orders == local_block_orders(trace, machine)
        verify_scheduler_output(trace, result.block_orders, machine)

    def test_node_budget(self, trace, machine):
        guard = GuardedScheduler(machine=machine, node_budget=2)
        result = guard.schedule(trace)
        self._assert_fallback(result, trace, machine, "node_budget")
        assert "node budget" in result.degraded.detail

    def test_exception(self, trace, machine):
        guard = GuardedScheduler(machine=machine, primary=_broken_primary)
        result = guard.schedule(trace)
        self._assert_fallback(result, trace, machine, "exception")
        assert "scheduler exploded" in result.degraded.detail

    def test_output_error(self, trace, machine):
        guard = GuardedScheduler(machine=machine, primary=_illegal_primary)
        result = guard.schedule(trace)
        self._assert_fallback(result, trace, machine, "output_error")

    def test_timeout(self, trace, machine):
        guard = GuardedScheduler(
            machine=machine, time_budget_s=0.1, primary=_slow_primary
        )
        started = time.perf_counter()
        result = guard.schedule(trace)
        elapsed = time.perf_counter() - started
        self._assert_fallback(result, trace, machine, "timeout")
        assert elapsed < 4.0  # the SIGALRM limit preempted the sleep

    def test_injected_deadlock(self, trace, machine):
        guard = GuardedScheduler(machine=machine)
        with injection(FaultPlan(name="dl", deadlock_after=0)):
            result = guard.schedule(trace)
        self._assert_fallback(result, trace, machine, "deadlock")

    def test_corrupt_stream_fault_degrades(self, trace, machine):
        # Verification simulates under the active plan; the corrupted
        # stream is rejected, and the fallback is verified with injection
        # suspended — so the returned order is still legal.
        guard = GuardedScheduler(machine=machine)
        with injection(FaultPlan(name="tr", truncate_stream=True)):
            result = guard.schedule(trace)
        assert result.source == "fallback"
        verify_scheduler_output(trace, result.block_orders, machine)

    def test_fallback_reason_counted(self, trace, machine):
        guard = GuardedScheduler(machine=machine, primary=_broken_primary)
        with recording(TraceRecorder(sim_events=False)) as rec:
            guard.schedule(trace)
        assert rec.counters.get("guard.fallback") == 1
        assert rec.counters.get("guard.fallback.exception") == 1


class TestGuardHardFailure:
    def test_broken_fallback_raises_guard_error(
        self, trace, machine, monkeypatch
    ):
        import repro.robust.guard as guard_mod

        monkeypatch.setattr(
            guard_mod, "local_block_orders", lambda t, m: _illegal_primary(t, m)
        )
        guard = GuardedScheduler(machine=machine, primary=_broken_primary)
        with pytest.raises(GuardError, match="fallback failed verification"):
            guard.schedule(trace)


class TestDegradedResult:
    def test_reason_validated(self):
        with pytest.raises(ValueError, match="unknown degradation reason"):
            DegradedResult(reason="cosmic_rays", detail="")

    def test_to_dict_round_trip(self):
        d = DegradedResult(
            reason=FALLBACK_REASONS[0], detail="x", elapsed_s=0.5
        ).to_dict()
        assert d["reason"] == FALLBACK_REASONS[0]
        assert d["elapsed_s"] == 0.5


class TestGuardConfig:
    def test_negative_node_budget_rejected(self):
        with pytest.raises(ValueError):
            GuardedScheduler(node_budget=-1)


class TestPerCallBudget:
    def test_call_budget_overrides_instance_budget(self, trace, machine):
        # Instance has no budget; the call's tight one degrades the slow
        # primary — the serving worker's deadline-tightening path.
        guard = GuardedScheduler(machine=machine, primary=_quick_sleeper)
        result = guard.schedule(trace, time_budget_s=0.05)
        assert not result.ok and result.degraded.reason == "timeout"

    def test_explicit_none_disables_instance_budget(self, trace, machine):
        guard = GuardedScheduler(
            machine=machine, time_budget_s=0.05, primary=_quick_sleeper
        )
        result = guard.schedule(trace, time_budget_s=None)
        assert result.ok

    def test_unset_keeps_instance_budget(self, trace, machine):
        guard = GuardedScheduler(
            machine=machine, time_budget_s=0.05, primary=_quick_sleeper
        )
        result = guard.schedule(trace)
        assert not result.ok and result.degraded.reason == "timeout"


def _quick_sleeper(trace, machine):
    time.sleep(0.15)
    return local_block_orders(trace, machine)
