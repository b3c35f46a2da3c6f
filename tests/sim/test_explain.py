"""Stall attribution on the simulator's own trace.

Every stalled cycle of a traced execution carries one cause from
:data:`repro.obs.STALL_CAUSES`, including the paper's window-limited stall:
an instruction is ready but sits beyond the lookahead window behind a
stalled head.  The property test below recomputes that cause from the final
schedule alone, so it does not share its logic with the simulator.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import algorithm_lookahead
from repro.analysis import cycle_log, stall_attribution_summary
from repro.core import local_block_orders
from repro.ir import graph_from_edges
from repro.machine import PAPER_CORE, WIDE_VLIW, paper_machine
from repro.obs import stall_attribution
from repro.robust.faults import default_fault_plans, injection
from repro.sim import SimulationDeadlock, simulate_trace, simulate_window
from repro.workloads import figure2_trace, random_trace


def _stalls(result):
    return [e for e in result.trace.events if e.kind == "stall"]


class TestDependenceStalls:
    def test_latency_gap_attributed(self):
        g = graph_from_edges([("a", "b", 3)])
        sim = simulate_window(g, ["a", "b"], paper_machine(2), collect_trace=True)
        attribution = stall_attribution(sim.trace)
        assert attribution["dependence"] == 3
        assert attribution["window"] == 0
        assert all(
            e.node == "b" and "waits on a" in e.detail for e in _stalls(sim)
        )

    def test_no_stalls_on_packed_schedule(self):
        g = graph_from_edges([], nodes=["a", "b", "c"])
        sim = simulate_window(
            g, ["a", "b", "c"], paper_machine(2), collect_trace=True
        )
        assert _stalls(sim) == []


class TestWindowStalls:
    def test_ready_outside_window_detected(self):
        """Stream [a, b (waits a+5), c, d] at W=2: c fills the window's
        second slot, then d is ready but beyond the window that the stalled
        head b pins."""
        g = graph_from_edges([("a", "b", 5)], nodes=["a", "b", "c", "d"])
        sim = simulate_window(
            g, ["a", "b", "c", "d"], paper_machine(2), collect_trace=True
        )
        assert stall_attribution(sim.trace)["window"] > 0
        first = _stalls(sim)[0]
        assert first.cause == "window"
        assert first.node == "b"  # the stalled head pinning the window
        assert "d ready at stream position 3" in first.detail

    def test_bigger_window_removes_window_stalls(self):
        g = graph_from_edges([("a", "b", 5)], nodes=["a", "b", "c", "d"])
        sim = simulate_window(
            g, ["a", "b", "c", "d"], paper_machine(4), collect_trace=True
        )
        assert stall_attribution(sim.trace)["window"] == 0


class TestSummaryAndLog:
    def test_summary_counts(self):
        g = graph_from_edges([("a", "b", 2)])
        sim = simulate_window(g, ["a", "b"], paper_machine(2), collect_trace=True)
        rows = {
            line.split()[0]: line.split()[1]
            for line in stall_attribution_summary(sim.trace).splitlines()[3:]
        }
        assert rows["dependence"] == "2"
        assert rows["window"] == "0"
        assert rows["total"] == "2"

    def test_event_log_contents(self):
        g = graph_from_edges([("a", "b", 2)])
        sim = simulate_window(g, ["a", "b"], paper_machine(2), collect_trace=True)
        text = "\n".join(cycle_log(sim.trace))
        assert "issue a" in text
        assert (
            "STALL (dependence): b waits on a (completes 1, latency 2)" in text
        )
        assert "issue b" in text

    def test_log_on_figure1(self):
        from repro.core import rank_schedule
        from repro.workloads import figure1_bb1

        g = figure1_bb1()
        s, _ = rank_schedule(g)
        sim = simulate_window(
            g, s.permutation(), paper_machine(len(g)), collect_trace=True
        )
        stalls = _stalls(sim)
        assert len(stalls) == 1  # the single forced idle slot
        assert stalls[0].cause == "dependence"


class TestFigure2:
    """Figure 2 at W=2: the local order leaves an idle slot the window
    cannot reach; the anticipatory order moves it within reach."""

    def test_local_order_stalls_on_the_window(self):
        trace = figure2_trace(with_cross_edge=False)
        m = paper_machine(2)
        sim = simulate_trace(
            trace,
            local_block_orders(trace, m, delay_idles=False),
            m,
            collect_trace=True,
        )
        assert sim.makespan == 13
        attribution = stall_attribution(sim.trace)
        assert attribution["dependence"] == 1
        assert attribution["window"] == 1
        assert sum(attribution.values()) == 2
        window = next(e for e in _stalls(sim) if e.cause == "window")
        assert window.detail == (
            "z ready at stream position 6 but window [2, 4) is pinned by b"
        )

    def test_anticipatory_order_does_not_stall(self):
        trace = figure2_trace(with_cross_edge=False)
        m = paper_machine(2)
        sim = simulate_trace(
            trace, algorithm_lookahead(trace, m).block_orders, m,
            collect_trace=True,
        )
        assert sim.makespan == 11
        assert sim.stall_cycles == 0


def _window_stalls_from_schedule(graph, stream, schedule, w):
    """Per stalled cycle, whether it is window-limited, judged from the
    final schedule alone: the head is the first stream index starting after
    t; the stall is window-limited iff the head is not ready at t and some
    instruction at index >= head + w starts after t with every predecessor's
    completion + latency <= t."""
    starts = schedule.starts

    def ready(node, t):
        return all(
            schedule.completion(p) + lat <= t
            for p, lat in graph.predecessors(node).items()
        )

    issue_cycles = set(starts.values())
    out = {}
    for t in range(max(starts.values()) + 1):
        if t in issue_cycles:
            continue
        head = next(i for i, n in enumerate(stream) if starts[n] > t)
        out[t] = not ready(stream[head], t) and any(
            starts[stream[i]] > t and ready(stream[i], t)
            for i in range(head + w, len(stream))
        )
    return out


MACHINES = [paper_machine(2), paper_machine(4), PAPER_CORE, WIDE_VLIW]


class TestWindowCauseFromSchedule:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        machine=st.sampled_from(MACHINES),
        anticipatory=st.booleans(),
    )
    def test_window_cause_matches_schedule(self, seed, machine, anticipatory):
        trace = random_trace(3, (4, 8), latencies=(0, 1, 2, 3), seed=seed)
        orders = (
            algorithm_lookahead(trace, machine).block_orders
            if anticipatory
            else local_block_orders(trace, machine)
        )
        sim = simulate_trace(trace, orders, machine, collect_trace=True)
        stream = [n for order in orders for n in order]
        expected = _window_stalls_from_schedule(
            trace.graph, stream, sim.schedule, machine.window_size
        )
        got = {e.cycle: e.cause == "window" for e in _stalls(sim)}
        assert got == expected


class TestResourceBeforeWindow:
    def test_busy_unit_reads_resource(self):
        """a occupies the only unit for three cycles; the head b is ready
        and c, beyond the W=1 window, is ready too: the unit is the cause."""
        g = graph_from_edges([], nodes=["a", "b", "c"], exec_times={"a": 3})
        sim = simulate_window(
            g, ["a", "b", "c"], paper_machine(1), collect_trace=True
        )
        stalls = _stalls(sim)
        assert [e.cycle for e in stalls] == [1, 2]
        assert all(e.cause == "resource" and e.node == "b" for e in stalls)


class TestTracingNeverChangesSchedule:
    @pytest.mark.parametrize("seed", range(20))
    def test_default_fault_plans(self, seed):
        """Tracing classifies stalls without drawing fault jitter, so under
        every default fault plan the traced run starts every instruction
        when the untraced run does (or fails the same way)."""
        trace = random_trace(
            3, (4, 8), latencies=(0, 1, 2, 3), cross_probability=0.1, seed=seed
        )
        m = paper_machine(2 + seed % 3)
        orders = algorithm_lookahead(trace, m).block_orders

        def run(plan, collect):
            try:
                with injection(plan):
                    sim = simulate_trace(trace, orders, m, collect_trace=collect)
            except (ValueError, SimulationDeadlock) as exc:
                return type(exc).__name__, str(exc)
            return sim.schedule.starts

        for plan in default_fault_plans(seed):
            assert run(plan, True) == run(plan, False), plan.name
