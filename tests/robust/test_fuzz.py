"""Tests for the differential fault-injection fuzz driver."""

import repro.sim.window as window
from repro.core import local_block_orders
from repro.robust.faults import FaultPlan
from repro.robust.fuzz import CELL_STATUSES, SCHEDULERS, run_fuzz


def _drop_a_block(trace, machine):
    return local_block_orders(trace, machine)[:-1]


class TestRunFuzz:
    def test_small_budget_is_clean(self):
        report = run_fuzz(seeds=2)
        assert report.ok
        assert report.violations == []
        assert report.seeds == 2
        assert report.num_cells > 0

    def test_matrix_covers_zoo_and_fault_suite(self):
        report = run_fuzz(seeds=1)
        schedulers = {c.scheduler for c in report.cells}
        assert set(SCHEDULERS) <= schedulers
        assert "guarded" in schedulers
        faults = {c.fault for c in report.cells}
        assert {"noop", "latency_jitter", "stream_truncate",
                "spurious_deadlock"} <= faults

    def test_corrupt_and_deadlock_faults_detected(self):
        report = run_fuzz(seeds=1)
        by_fault = report.by_fault()
        for fault in ("stream_truncate", "stream_duplicate",
                      "spurious_deadlock"):
            assert by_fault[fault]["violation"] == 0
            assert by_fault[fault]["detected"] > 0
            # The zoo members never execute a corrupted stream.
            assert by_fault[fault]["ok"] == 0

    def test_deterministic_given_seeds(self):
        a = run_fuzz(seeds=2, base_seed=11)
        b = run_fuzz(seeds=2, base_seed=11)
        assert [c.to_dict() for c in a.cells] == [c.to_dict() for c in b.cells]

    def test_time_budget_stops_early(self):
        report = run_fuzz(seeds=500, time_budget_s=0.05)
        assert report.stopped_early
        assert report.seeds < 500

    def test_broken_scheduler_is_caught(self):
        report = run_fuzz(
            seeds=1,
            schedulers={"broken": _drop_a_block},
            include_guarded=False,
        )
        assert not report.ok
        assert any(
            c.scheduler == "broken" and c.fault == "compile"
            and c.status == "violation"
            for c in report.cells
        )

    def test_status_counts_partition_cells(self):
        report = run_fuzz(seeds=2)
        counts = report.status_counts()
        assert set(counts) == set(CELL_STATUSES)
        assert sum(counts.values()) == report.num_cells

    def test_summary_and_to_dict(self):
        report = run_fuzz(seeds=1)
        text = report.summary()
        assert "fault-injection fuzz" in text
        doc = report.to_dict()
        assert doc["ok"] is True
        assert doc["num_cells"] == report.num_cells

    def test_one_simulation_per_compile_cell(self, monkeypatch):
        """A compile cell's one clean execution, with its cycle trace, gets
        both the legality check and the stall-attribution check."""
        real = window.simulate_window
        traced = []

        def counting(*args, **kwargs):
            traced.append(kwargs.get("collect_trace"))
            return real(*args, **kwargs)

        monkeypatch.setattr(window, "simulate_window", counting)
        report = run_fuzz(seeds=2, plans=[], include_guarded=False)
        assert [c.fault for c in report.cells] == ["compile"] * 8
        assert report.ok
        assert traced == [True] * 8

    def test_single_plan_override(self):
        plan = FaultPlan(name="only", latency_jitter=1, seed=3)
        report = run_fuzz(seeds=1, plans=[plan], include_guarded=False)
        assert {c.fault for c in report.cells} == {"compile", "only"}
        assert report.ok


class TestCiBudget:
    def test_ci_smoke_budget_reaches_500_cells(self):
        # The chaos-smoke CI step runs 16 seeds; the acceptance floor is
        # >= 500 scheduler x fault cells with zero violations.
        report = run_fuzz(seeds=16)
        assert report.num_cells >= 500
        assert report.ok
