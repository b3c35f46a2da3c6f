"""Tests for the serve-tier chaos harness: the serving faults of
:class:`FaultPlan` (determinism and purity), the active-plan registry, and
small end-to-end :func:`run_chaos` runs."""

from collections import Counter

import pytest

from repro.robust import faults
from repro.robust.faults import (
    FaultPlan,
    active_plan,
    default_fault_plans,
    injection,
    serving_storm,
    set_plan,
)
from repro.serve.harness import build_corpus, check_answers, drive, run_chaos
from repro.serve.worker import compute_request


class TestChaosPlan:
    def test_noop_by_default(self):
        plan = FaultPlan()
        assert plan.is_noop
        assert plan.worker_action("anything") is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"crash_rate": 1.1},
            {"hang_s": 0},
            {"slow_s": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_worker_action_is_pure_and_deterministic(self):
        plan = serving_storm(seed=7)
        ids = [f"req-{i}" for i in range(200)]
        first = [plan.worker_action(i) for i in ids]
        second = [plan.worker_action(i) for i in ids]
        assert first == second
        # The storm plan actually injects something at this sample size.
        assert any(a is not None for a in first)
        assert all(a in (None, "exit", "hang", "slow") for a in first)

    def test_ci_storm_assigns_the_committed_mix(self):
        # The serve-chaos gate's plan at seed 0 over its cold-phase ids.
        plan = serving_storm(0)
        actions = {
            f"c{i}": plan.worker_action(f"c{i}") for i in range(36)
        }
        assert {rid: a for rid, a in actions.items() if a is not None} == {
            "c14": "slow",
            "c22": "slow",
            "c24": "exit",
            "c27": "slow",
        }

    def test_simulator_faults_assign_no_worker_action(self):
        ids = [f"c{i}" for i in range(200)]
        for plan in default_fault_plans(seed=3):
            assert all(plan.worker_action(i) is None for i in ids), plan.name

    def test_different_seeds_draw_different_mixes(self):
        ids = [f"req-{i}" for i in range(200)]
        a = [serving_storm(0).worker_action(i) for i in ids]
        b = [serving_storm(1).worker_action(i) for i in ids]
        assert a != b

    def test_non_string_ids_never_injected(self):
        plan = serving_storm(0)
        assert plan.worker_action(None) is None
        assert plan.worker_action(123) is None

    def test_for_jobs_disables_process_killers_in_process(self):
        plan = serving_storm(0)
        solo = plan.for_jobs(1)
        assert solo.crash_rate == 0.0 and solo.hang_rate == 0.0
        assert solo.slow_rate == plan.slow_rate
        assert plan.for_jobs(2) is plan

    def test_reseeded(self):
        assert serving_storm(0).reseeded(5).seed == 5


class TestActivePlanRegistry:
    def test_injection_installs_and_restores(self):
        assert active_plan() is None
        plan = serving_storm(3)
        with injection(plan):
            assert active_plan() is plan
        assert active_plan() is None

    def test_noop_plan_never_installs(self):
        previous = set_plan(FaultPlan())
        try:
            assert active_plan() is None
        finally:
            set_plan(previous)

    def test_worker_honours_installed_plan(self):
        # Find an id the plan crashes, then check the worker would act
        # on it (without actually computing).
        plan = serving_storm(0)
        crash_id = next(
            f"x{i}" for i in range(10_000)
            if plan.worker_action(f"x{i}") == "exit"
        )
        with injection(plan):
            assert faults.active_plan().worker_action(crash_id) == "exit"


class TestHarnessPieces:
    def test_the_plan_decides_which_answers_may_fail(self):
        plan = serving_storm(0)  # over c0-c35: c14 slow, c24 exit
        c = build_corpus(25, 0, prefix="c")
        good = dict(compute_request(c[0]), ok=True)
        crash = {"ok": False, "code": "scheduling_failed", "error": "WorkerDied"}
        cases = [
            (c[0], good, True),
            (c[0], dict(good, makespan=good["makespan"] + 1), False),
            (c[0], crash, False),
            (c[0], dict(good, degraded={"reason": "timeout"}), False),
            (c[0], None, False),
            (c[14], dict(good, degraded={"reason": "timeout"}), True),
            # c4 shares c24's scheduler class; c1's class has no fault.
            (c[4], {"ok": False, "code": "breaker_open"}, True),
            (c[1], {"ok": False, "code": "breaker_open"}, False),
        ]
        for doc, response, allowed in cases:
            observed = Counter()
            violations = check_answers(
                [c[24], doc], [crash, response], observed, plan=plan
            )
            assert len(violations) == (0 if allowed else 1), (doc["id"], response)
            assert observed["crash_errors"] == 1
        assert check_answers([c[0]], [good], Counter(), cached=True)

    def test_drive_answers_none_for_a_dead_socket(self, tmp_path):
        docs = build_corpus(3, 0)
        assert drive(tmp_path / "absent.sock", docs, 2) == [None, None, None]


class TestRunChaos:
    def test_small_run_holds_all_invariants(self, tmp_path):
        report = run_chaos(
            requests=10,
            burst=12,
            queue_capacity=4,
            jobs=2,
            seed=0,
            report_path=str(tmp_path / "chaos.json"),
        )
        invariants = report.metrics["invariants"]
        assert all(v == 1 for v in invariants.values())
        assert (tmp_path / "chaos.json").exists()
        observed = report.provenance["observed"]
        admission = report.provenance["admission"]
        # The burst must actually overload the tiny queue.
        assert observed["shed_seen"] > 0
        assert admission["peak_depth"] <= 4
        # Every cold-phase/burst request is accounted for (the harness also
        # submits frame-handling and recovery probes on top).
        assert (
            admission["accepted"] + admission["shed"]
            >= report.provenance["requests"] + report.provenance["burst"]
        )

    def test_frames_run_before_the_plan_opens_a_breaker(self):
        # At seed 385, c0, c4 and c8 exit, which opens the anticipatory
        # breaker during the cold phase; the frame phase's anticipatory
        # neighbour must not meet that breaker.
        plan = serving_storm(385)
        assert [plan.worker_action(f"c{i}") for i in (0, 4, 8)] == ["exit"] * 3
        report = run_chaos(requests=10, burst=8, queue_capacity=4, seed=385)
        assert all(v == 1 for v in report.metrics["invariants"].values())
        # c0, c4, c7 and c8 all reach a worker and exit.
        assert report.provenance["observed"]["crash_errors"] == 4

    def test_same_seed_same_fault_assignment(self):
        ids = [f"c{i}" for i in range(50)]
        plan_a = serving_storm(9)
        plan_b = serving_storm(9)
        assert [plan_a.worker_action(i) for i in ids] == [
            plan_b.worker_action(i) for i in ids
        ]
