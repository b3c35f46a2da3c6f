"""The worker's compute kernel answers a miss from the one execution the
guard verified."""

import pytest

import repro.sim.window as window
from repro.machine.presets import PAPER_CORE
from repro.serve.protocol import ScheduleRequest
from repro.serve.worker import compute_request
from repro.sim import simulate_trace
from repro.workloads.traces import random_trace


def _doc(seed, scheduler="anticipatory"):
    trace = random_trace(
        3, (4, 8), cross_probability=0.2, latencies=(0, 1, 2), seed=seed
    )
    return ScheduleRequest(
        trace=trace, machine=PAPER_CORE, scheduler=scheduler
    ).to_dict()


@pytest.fixture
def sim_calls(monkeypatch):
    """Count ``simulate_window`` calls, wrapped where its callers look it
    up."""
    calls = []
    real = window.simulate_window

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(window, "simulate_window", counting)
    return calls


class TestOneSimulationPerMiss:
    @pytest.mark.parametrize(
        "scheduler", ["anticipatory", "local", "critical-path", "source"]
    )
    def test_compute_request_simulates_once(self, sim_calls, scheduler):
        compute_request(_doc(1, scheduler))
        assert len(sim_calls) == 1

    def test_fallback_simulates_once(self, sim_calls):
        answer = compute_request(_doc(2), node_budget=1)
        assert answer["degraded"]["reason"] == "node_budget"
        assert len(sim_calls) == 1

    def test_answer_is_the_execution_of_its_orders(self):
        doc = _doc(3)
        answer = compute_request(doc)
        request = ScheduleRequest.from_dict(doc)
        sim = simulate_trace(
            request.trace, answer["block_orders"], request.machine
        )
        assert answer["makespan"] == sim.makespan
        assert answer["stall_cycles"] == sim.stall_cycles
        assert answer["starts"] == sim.schedule.starts
        assert answer["schedule_digest"] == sim.schedule.digest()

    def test_worker_keeps_its_two_phases(self):
        phases = compute_request(_doc(4))["worker"]["phases"]
        assert set(phases) == {"schedule_ns", "simulate_ns"}
        assert phases["schedule_ns"] > 0 and phases["simulate_ns"] > 0
