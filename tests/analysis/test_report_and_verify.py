"""Unit tests for table rendering and output verification."""

import pytest

import repro.analysis.verify as verify
from repro.analysis import (
    OutputError,
    check_block_orders,
    check_runtime_legality,
    format_table,
    verify_scheduler_output,
)
from repro.core import Schedule
from repro.ir import Trace, block_from_graph, graph_from_edges
from repro.machine import paper_machine
from repro.sim import SimResult, simulate_trace


class TestFormatTable:
    def test_alignment_and_rule(self):
        out = format_table(["name", "n"], [["alpha", 1], ["b", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert set(lines[2]) <= {"-", " "}
        assert "alpha" in lines[3]

    def test_float_formatting(self):
        out = format_table(["x"], [[1.23456]])
        assert "1.235" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="row width"):
            format_table(["a", "b"], [[1]])


def make_trace():
    g1 = graph_from_edges([("a", "b", 1)])
    g2 = graph_from_edges([], nodes=["c"])
    return Trace([block_from_graph("B1", g1), block_from_graph("B2", g2)])


class TestVerify:
    def test_accepts_valid_orders(self):
        t = make_trace()
        verify_scheduler_output(t, [["a", "b"], ["c"]], paper_machine(2))

    def test_rejects_wrong_block_count(self):
        t = make_trace()
        with pytest.raises(OutputError, match="block orders"):
            check_block_orders(t, [["a", "b"]])

    def test_rejects_non_permutation(self):
        t = make_trace()
        with pytest.raises(OutputError, match="permutation"):
            check_block_orders(t, [["a", "a"], ["c"]])

    def test_rejects_cross_block_motion(self):
        t = make_trace()
        with pytest.raises(OutputError, match="permutation"):
            check_block_orders(t, [["a", "c"], ["b"]])

    def test_rejects_dependence_violating_order(self):
        t = make_trace()
        with pytest.raises(OutputError, match="dependence"):
            check_block_orders(t, [["b", "a"], ["c"]])


class TestRuntimeLegality:
    ORDERS = [["a", "b"], ["c"]]

    def test_returns_the_execution_it_checked(self):
        t, m = make_trace(), paper_machine(2)
        sim = verify_scheduler_output(t, self.ORDERS, m)
        expected = simulate_trace(t, self.ORDERS, m)
        assert sim.schedule.starts == expected.schedule.starts

    @staticmethod
    def _execute_as(monkeypatch, starts):
        """Make the simulator hand the check a schedule with ``starts``."""

        def execution(trace, block_orders, machine):
            order = sorted(starts, key=starts.get)
            return SimResult(Schedule(trace.graph, starts), order, 0)

        monkeypatch.setattr(verify, "simulate_trace", execution)

    def test_rejects_execution_violating_a_dependence(self, monkeypatch):
        # a -> b has latency 1, so b may start at 2 at the earliest.
        self._execute_as(monkeypatch, {"a": 0, "b": 1, "c": 2})
        with pytest.raises(
            OutputError, match=r"dependence violated: 'b' starts at 1 but 'a'"
        ):
            check_runtime_legality(make_trace(), self.ORDERS, paper_machine(2))

    def test_rejects_execution_over_unit_capacity(self, monkeypatch):
        self._execute_as(monkeypatch, {"a": 0, "b": 2, "c": 0})
        with pytest.raises(OutputError, match="runs both 'a' and 'c' at time 0"):
            check_runtime_legality(make_trace(), self.ORDERS, paper_machine(2))
