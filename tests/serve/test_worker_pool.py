"""The service's side of the worker-pool contract: state that workers
cannot inherit — fault plans, guard budgets, sockets — travels explicitly
or is shed, so long-lived workers behave like fresh ones."""

import json
import multiprocessing
import socket

import pytest

from repro.machine.presets import PAPER_CORE
from repro.robust.faults import FaultPlan, injection
from repro.serve.client import ScheduleClient
from repro.serve.daemon import ScheduleServer, ServerHandle
from repro.serve.protocol import ScheduleRequest
from repro.serve.service import ScheduleService
from repro.workloads.traces import random_trace


def _doc(seed=0, rid=None):
    trace = random_trace(2, (3, 4), cross_probability=0.2, seed=seed)
    return ScheduleRequest(trace=trace, machine=PAPER_CORE, id=rid).to_dict()


class TestChaosPlanTravels:
    def test_plan_installed_after_workers_exist_is_obeyed(self):
        service = ScheduleService(jobs=2, timeout_s=30, retries=0)
        try:
            assert service.handle(_doc(seed=1))["ok"]  # workers now exist
            doc = _doc(seed=2, rid="doomed")
            with injection(FaultPlan(name="crash", crash_rate=1.0)):
                crashed = service.handle(doc)
            assert crashed["ok"] is False
            assert crashed["code"] == "scheduling_failed"
            assert "WorkerDied" in crashed["error"]
            assert "exited with code 23" in crashed["error"]
            # Cleared: the same request now computes normally.
            cleared = service.handle(doc)
            assert cleared["ok"] is True and cleared["cached"] is False
        finally:
            service.close()


class TestGuardBudgets:
    def test_budgets_belong_to_their_service(self):
        patient = ScheduleService(guard_budget_s=5.0)
        hasty = ScheduleService(guard_budget_s=0.01)
        plan = FaultPlan(name="slow", slow_rate=1.0, slow_s=0.1)
        with injection(plan):
            a = patient.handle(_doc(seed=3, rid="to-patient"))
            b = hasty.handle(_doc(seed=3, rid="to-hasty"))
        assert a["ok"] is True and a.get("degraded") is None
        assert b["ok"] is True and b["degraded"]["reason"] == "timeout"


class TestValidation:
    @pytest.mark.parametrize("timeout_s", [0, -1.0])
    def test_non_positive_timeout_rejected_at_construction(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s"):
            ScheduleService(timeout_s=timeout_s)


class TestInheritedSockets:
    def test_oversized_frame_gets_error_then_eof(self, tmp_path):
        service = ScheduleService(jobs=2, timeout_s=30)
        srv = ScheduleServer(
            service,
            socket_path=tmp_path / "serve.sock",
            max_line=4096,
        )
        with ServerHandle(srv):
            # Connect first, so the daemon's end of this connection is open
            # when the workers fork below.
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(1.0)
            sock.connect(str(srv.socket_path))
            try:
                with ScheduleClient(srv.socket_path) as client:
                    assert client.call(_doc(seed=4))["ok"]
                assert multiprocessing.active_children()  # a live worker
                sock.sendall(b"x" * 8192 + b"\n")
                fh = sock.makefile("rb")
                error = json.loads(fh.readline())
                assert error["ok"] is False and "too long" in error["error"]
                # The daemon closed its end; no worker holds it half-open.
                assert fh.readline() == b""
            finally:
                sock.close()
