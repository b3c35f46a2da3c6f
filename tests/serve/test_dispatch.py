"""Continuous dispatch in the daemon: each request goes to a free worker as
it arrives and is answered when its own compute ends — a slow or failing
request never holds back another one, and a request whose digest is
already being computed waits for that computation instead of running its
own."""

import sys
import threading
import time
from itertools import count

from repro.machine.presets import PAPER_CORE
from repro.robust.faults import FaultPlan, injection
from repro.serve.admission import AdmissionController
from repro.serve.client import ScheduleClient
from repro.serve.daemon import ScheduleServer, ServerHandle
from repro.serve.harness import drive
from repro.serve.protocol import ScheduleRequest
from repro.serve.service import ScheduleService
from repro.workloads.traces import random_trace

IDENTITY_KEYS = ("block_orders", "makespan", "stall_cycles", "schedule_digest")


def _doc(seed, rid):
    trace = random_trace(2, (3, 4), cross_probability=0.2, seed=seed)
    return ScheduleRequest(trace=trace, machine=PAPER_CORE, id=rid).to_dict()


def _planned_id(plan, action, prefix):
    """The first ``{prefix}{k}`` the plan assigns ``action`` (None: no
    fault)."""
    return next(
        f"{prefix}{k}" for k in count() if plan.worker_action(f"{prefix}{k}") == action
    )


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "daemon did not get there in time"
        time.sleep(0.002)


def _race(server, first, second, second_when):
    """Send ``first``, then — once ``second_when()`` holds — ``second`` on
    its own connection; returns the replies' ids in arrival order and the
    replies by id."""
    arrived, replies = [], {}

    def send(doc):
        with ScheduleClient(server.socket_path) as client:
            reply = client.call(doc)
        replies[doc["id"]] = reply
        arrived.append(doc["id"])

    threads = [threading.Thread(target=send, args=(first,))]
    threads[0].start()
    _wait_until(second_when)
    threads.append(threading.Thread(target=send, args=(second,)))
    threads[1].start()
    for thread in threads:
        thread.join(timeout=30)
    return arrived, replies


def _server(tmp_path, service):
    return ScheduleServer(service, socket_path=tmp_path / "serve.sock")


class TestNoBatchBarrier:
    def test_retry_backoff_does_not_delay_a_clean_request(self, tmp_path):
        """A request whose worker exits waits out its retry backoff on a
        timer: a clean request in flight with it is answered first."""
        plan = FaultPlan(name="crash", crash_rate=0.5)
        failing = _doc(1, _planned_id(plan, "exit", "doomed-"))
        clean = _doc(2, _planned_id(plan, None, "clean-"))
        service = ScheduleService(jobs=2, timeout_s=30, retries=1)
        # Both workers exist before the race starts.
        warm = service.handle_batch([_doc(3, "w0"), _doc(4, "w1")])
        assert all(r["ok"] for r in warm)
        server = _server(tmp_path, service)
        with ServerHandle(server), injection(plan):
            arrived, replies = _race(
                server, failing, clean,
                second_when=lambda: service.pool.attempts >= 3,
            )
        assert arrived == [clean["id"], failing["id"]]
        assert replies[clean["id"]]["ok"] is True
        doomed = replies[failing["id"]]
        assert doomed["ok"] is False and doomed["code"] == "scheduling_failed"
        assert "WorkerDied" in doomed["error"] and "2 attempt(s)" in doomed["error"]

    def test_no_head_of_line_blocking(self, tmp_path):
        """A slow request on one worker does not hold back a fast one
        that arrives after it."""
        plan = FaultPlan(name="slow", slow_rate=0.5, slow_s=0.4)
        slow = _doc(5, _planned_id(plan, "slow", "slow-"))
        fast = _doc(6, _planned_id(plan, None, "fast-"))
        service = ScheduleService(jobs=2, timeout_s=30)
        server = _server(tmp_path, service)
        with ServerHandle(server), injection(plan):
            arrived, replies = _race(
                server, slow, fast,
                second_when=lambda: service.pool.attempts >= 1,
            )
        assert arrived == [fast["id"], slow["id"]]
        assert replies[fast["id"]]["server"]["duration_s"] < plan.slow_s
        assert replies[slow["id"]]["ok"] is True
        assert replies[slow["id"]].get("degraded") is None


class TestQueuedUntilDispatched:
    def test_waiting_miss_is_queued_and_checked_when_a_worker_frees(self):
        """A miss waiting for a worker still counts as queued, and a budget
        that dies while it waits is answered before it costs a compute."""
        plan = FaultPlan(name="slow", slow_rate=0.5, slow_s=0.3)
        slow = _doc(8, _planned_id(plan, "slow", "slow-"))
        late = dict(_doc(9, _planned_id(plan, None, "late-")), deadline_ms=100)
        service = ScheduleService()  # in-process: one compute at a time
        service.admission = AdmissionController()
        replies = {}
        with injection(plan):
            for doc in (slow, late):
                assert service.admission.try_admit("unix") is None
                service.submit(
                    doc, "unix", None, lambda r: replies.__setitem__(r["id"], r)
                )
            assert service.admission.queue_depth == 2
            while len(replies) < 2:
                service.pool.poll()
        assert replies[slow["id"]]["ok"] is True
        assert replies[late["id"]]["code"] == "deadline_exceeded"
        assert service.admission.queue_depth == 0
        assert service.pool.attempts == 1


class TestSingleFlight:
    def _pair(self, tmp_path, service, plan):
        """A slow leader, then an identical request once the leader is on
        a worker."""
        lead = _doc(7, _planned_id(plan, "slow", "lead-"))
        joiner = dict(lead, id=_planned_id(plan, None, "join-"))
        server = _server(tmp_path, service)
        with ServerHandle(server), injection(plan):
            _, replies = _race(
                server, lead, joiner,
                second_when=lambda: service.pool.attempts >= 1,
            )
        return replies[lead["id"]], replies[joiner["id"]]

    def test_joiner_waits_for_the_running_computation(self, tmp_path):
        plan = FaultPlan(name="slow", slow_rate=0.5, slow_s=0.3)
        service = ScheduleService(jobs=2, timeout_s=30)
        lead, joiner = self._pair(tmp_path, service, plan)
        assert lead["ok"] and joiner["ok"]
        assert lead["cached"] is False and joiner["cached"] is True
        assert {k: lead[k] for k in IDENTITY_KEYS} == {
            k: joiner[k] for k in IDENTITY_KEYS
        }
        assert service.cache.misses == 1 and service.cache.hits == 1
        assert service.pool.attempts == 1  # computed once

    def test_degraded_leader_answers_joiner_and_is_never_cached(self, tmp_path):
        # The guard gives up on the slow leader after 0.2 s: time enough for
        # the joiner to arrive while the leader computes.
        plan = FaultPlan(name="slow", slow_rate=0.5, slow_s=0.5)
        service = ScheduleService(jobs=2, timeout_s=30, guard_budget_s=0.2)
        lead, joiner = self._pair(tmp_path, service, plan)
        assert lead["ok"] and joiner["ok"]
        assert lead["degraded"]["reason"] == "timeout"
        assert joiner["degraded"] == lead["degraded"]
        assert joiner["cached"] is True
        assert joiner["block_orders"] == lead["block_orders"]
        assert service.cache.misses == 1 and service.cache.hits == 1
        assert service.cache.peek(lead["digest"]) is None and len(service.cache) == 0


class TestContention:
    def test_every_request_answered_once(self, tmp_path):
        """More clients than cores, a short thread switch interval, and
        each kernel requested eight times: every request gets exactly one
        answer, each digest computes once, and the queue drains."""
        docs = [_doc(i % 6, f"r{i}") for i in range(48)]
        service = ScheduleService(jobs=2, timeout_s=30)
        server = _server(tmp_path, service)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServerHandle(server):
                responses = drive(server.socket_path, docs, clients=8)
        finally:
            sys.setswitchinterval(interval)
        assert [r["id"] for r in responses] == [d["id"] for d in docs]
        assert all(r["ok"] for r in responses)
        answers = {}
        for r in responses:
            answers.setdefault(r["digest"], set()).add(r["schedule_digest"])
        assert all(len(s) == 1 for s in answers.values())
        assert service.pool.attempts == service.cache.misses == len(answers)
        assert service.cache.hits == len(docs) - len(answers)
        snap = server.admission.snapshot()
        assert snap["accepted"] == len(docs)
        assert snap["queue_depth"] == 0 and snap["inflight_total"] == 0
