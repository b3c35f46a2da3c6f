"""Daemon-level overload-safety tests: shedding with structured
``overloaded`` errors (HTTP 503 + Retry-After), request deadlines
(``deadline_exceeded`` / HTTP 504), brownout gating of the debug surface,
unix-socket error paths that must not poison pipelined neighbours, and
the ServerHandle shutdown contract."""

import json
import socket
import threading
import time

import pytest

from repro.machine.presets import PAPER_CORE
from repro.serve.admission import AdmissionConfig
from repro.serve.client import ScheduleClient, http_get, http_schedule
from repro.serve.daemon import ScheduleServer, ServerHandle
from repro.serve.protocol import ScheduleRequest
from repro.serve.service import ScheduleService
from repro.workloads.traces import random_trace


def _doc(seed=0, rid=None, **extra):
    trace = random_trace(2, (3, 4), cross_probability=0.2, seed=seed)
    doc = ScheduleRequest(trace=trace, machine=PAPER_CORE, id=rid).to_dict()
    doc.update(extra)
    return doc


def _make_server(tmp_path, **kwargs):
    service = ScheduleService()
    return ScheduleServer(
        service,
        socket_path=tmp_path / "serve.sock",
        port=0,
        **kwargs,
    )


def _raw_http(server, payload: bytes) -> bytes:
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _post(server, doc: dict) -> bytes:
    body = json.dumps(doc).encode()
    head = (
        f"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    return _raw_http(server, head + body)


class TestShedding:
    def test_unix_shed_when_queue_full(self, tmp_path):
        srv = _make_server(
            tmp_path, admission=AdmissionConfig(queue_capacity=1)
        )
        with ServerHandle(srv):
            # Fill the ledger out-of-band so the next admission fails
            # deterministically (the batch loop can't drain what was
            # never enqueued).
            assert srv.admission.try_admit("unix") is None
            with ScheduleClient(srv.socket_path) as client:
                response = client.call(_doc(seed=1, rid="shed-me"))
            srv.admission.note_dequeued()
            srv.admission.release("unix")
        assert response["ok"] is False
        assert response["code"] == "overloaded"
        assert response["retry_after_s"] > 0
        assert "queue full" in response["error"]
        snap = srv.admission.snapshot()
        assert snap["shed"] == {"queue_full": 1}

    def test_http_shed_is_503_with_retry_after(self, tmp_path):
        srv = _make_server(
            tmp_path, admission=AdmissionConfig(queue_capacity=1)
        )
        with ServerHandle(srv):
            assert srv.admission.try_admit("unix") is None
            raw = _post(srv, _doc(seed=2))
            srv.admission.note_dequeued()
            srv.admission.release("unix")
        assert raw.startswith(b"HTTP/1.1 503")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"Retry-After:" in head
        parsed = json.loads(body)
        assert parsed["code"] == "overloaded"

    def test_accepted_after_release(self, tmp_path):
        srv = _make_server(
            tmp_path, admission=AdmissionConfig(queue_capacity=1)
        )
        with ServerHandle(srv):
            with ScheduleClient(srv.socket_path) as client:
                response = client.call(_doc(seed=3))
            assert response["ok"] is True
            snap = srv.admission.snapshot()
        assert snap["shed_total"] == 0
        assert snap["queue_depth"] == 0 and snap["inflight_total"] == 0


class TestDeadlines:
    def test_expired_deadline_is_structured_error(self, tmp_path):
        srv = _make_server(tmp_path)
        with ServerHandle(srv):
            with ScheduleClient(srv.socket_path) as client:
                # 1 microsecond: dead long before the batch loop runs.
                response = client.call(
                    _doc(seed=4, rid="late", deadline_ms=0.001)
                )
        assert response["ok"] is False
        assert response["code"] == "deadline_exceeded"
        assert response["id"] == "late"
        assert srv.service.deadline_exceeded == 1

    def test_expired_deadline_http_504(self, tmp_path):
        srv = _make_server(tmp_path)
        with ServerHandle(srv):
            raw = _post(srv, _doc(seed=5, deadline_ms=0.001))
        assert raw.startswith(b"HTTP/1.1 504")

    def test_generous_deadline_is_served(self, tmp_path):
        srv = _make_server(tmp_path)
        with ServerHandle(srv):
            with ScheduleClient(srv.socket_path) as client:
                response = client.call(_doc(seed=6, deadline_ms=30_000))
        assert response["ok"] is True

    def test_invalid_deadline_rejected_not_crashed(self, tmp_path):
        srv = _make_server(tmp_path)
        with ServerHandle(srv):
            with ScheduleClient(srv.socket_path) as client:
                response = client.call(_doc(seed=7, deadline_ms=-5))
                assert client.ping()["ok"]
        assert response["ok"] is False

    def test_deadline_counter_in_metrics(self, tmp_path):
        srv = _make_server(tmp_path)
        with ServerHandle(srv):
            with ScheduleClient(srv.socket_path) as client:
                client.call(_doc(seed=8, deadline_ms=0.001))
            status, body = http_get(srv.host, srv.port, "/metrics")
        assert status == 200
        assert b"repro_serve_deadline_exceeded_total 1" in body


class TestBrownout:
    def _brown(self, srv, n):
        admitted = 0
        for _ in range(n):
            if srv.admission.try_admit("unix") is None:
                admitted += 1
        return admitted

    def test_debug_surface_gated_but_health_stays(self, tmp_path):
        srv = _make_server(
            tmp_path,
            admission=AdmissionConfig(
                queue_capacity=4, brownout_fraction=0.75
            ),
        )
        with ServerHandle(srv):
            admitted = self._brown(srv, 3)
            assert srv.admission.brownout
            status, _ = http_get(srv.host, srv.port, "/debug/traces")
            assert status == 503
            status, _ = http_get(srv.host, srv.port, "/healthz")
            assert status == 200
            status, _ = http_get(srv.host, srv.port, "/metrics")
            assert status == 200
            status, body = http_get(srv.host, srv.port, "/stats")
            assert status == 200
            assert json.loads(body)["admission"]["brownout"] is True
            with ScheduleClient(srv.socket_path) as client:
                gated = client.call({"op": "traces"})
                assert gated["ok"] is False and gated["code"] == "overloaded"
                assert client.ping()["ok"]
            srv.admission.note_dequeued(admitted)
            for _ in range(admitted):
                srv.admission.release("unix")
            assert not srv.admission.brownout
            status, _ = http_get(srv.host, srv.port, "/debug/traces")
            assert status == 200


class TestUnixErrorPaths:
    """The unix-socket mirror of the HTTP error-path suite: oversized
    lines, malformed JSON mid-pipeline and disconnects mid-line must
    never poison the connection's other requests or the daemon."""

    def test_oversized_line_answered_then_connection_closed(self, tmp_path):
        srv = _make_server(tmp_path, max_line=2048)
        with ServerHandle(srv):
            with ScheduleClient(srv.socket_path) as client:
                good = _doc(seed=10, rid="before")
                client._file.write(json.dumps(good).encode() + b"\n")
                client._file.write(b"[" + b"1," * 4096 + b"1]\n")
                client._file.flush()
                first = json.loads(client._file.readline())
                second = json.loads(client._file.readline())
                rest = client._file.readline()
            # The pipelined neighbour before the oversized frame is
            # served; the frame itself gets a structured error and the
            # connection closes.
            assert first["ok"] is True and first["id"] == "before"
            assert second["ok"] is False
            assert "too long" in second["error"]
            assert rest == b""
            # The daemon itself is unharmed.
            with ScheduleClient(srv.socket_path) as client:
                assert client.ping()["ok"]

    def test_malformed_json_mid_pipeline_spares_neighbours(self, tmp_path):
        srv = _make_server(tmp_path)
        with ServerHandle(srv):
            with ScheduleClient(srv.socket_path) as client:
                before = _doc(seed=11, rid="ok-before")
                after = _doc(seed=12, rid="ok-after")
                client._file.write(json.dumps(before).encode() + b"\n")
                client._file.write(b"{definitely not json\n")
                client._file.write(json.dumps(after).encode() + b"\n")
                client._file.flush()
                responses = [
                    json.loads(client._file.readline()) for _ in range(3)
                ]
        assert responses[0]["ok"] is True and responses[0]["id"] == "ok-before"
        assert responses[1]["ok"] is False
        assert "bad JSON" in responses[1]["error"]
        assert responses[2]["ok"] is True and responses[2]["id"] == "ok-after"

    def test_disconnect_mid_line_does_not_poison_daemon(self, tmp_path):
        srv = _make_server(tmp_path)
        with ServerHandle(srv):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(srv.socket_path))
            sock.sendall(b'{"scheduler": "anticip')  # no newline — hang up
            sock.close()
            with ScheduleClient(srv.socket_path) as client:
                response = client.call(_doc(seed=13))
                assert response["ok"] is True

    def test_disconnect_after_submit_still_completes_batch(self, tmp_path):
        srv = _make_server(tmp_path)
        with ServerHandle(srv):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(srv.socket_path))
            sock.sendall(json.dumps(_doc(seed=14, rid="orphan")).encode()
                         + b"\n")
            sock.close()  # gone before the response is written
            deadline = time.monotonic() + 10
            while (srv.service.requests < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert srv.service.requests == 1
            # Inflight accounting still drains to zero.
            deadline = time.monotonic() + 10
            while (srv.admission.inflight() and
                   time.monotonic() < deadline):
                time.sleep(0.01)
            assert srv.admission.inflight() == 0


class TestServerHandleShutdown:
    def test_stop_raises_when_thread_will_not_join(self, tmp_path):
        srv = _make_server(tmp_path)
        handle = ServerHandle(srv)
        stuck = threading.Thread(target=time.sleep, args=(5,), daemon=True)
        stuck.start()
        handle._thread = stuck
        with pytest.raises(RuntimeError, match="failed to stop"):
            handle.stop(timeout_s=0.05)
        # The handle keeps the thread reference so a later stop can retry.
        assert handle._thread is stuck

    def test_exit_does_not_mask_propagating_exception(self, tmp_path):
        srv = _make_server(tmp_path)
        handle = ServerHandle(srv)
        handle.stop = lambda timeout_s=10.0: (_ for _ in ()).throw(
            RuntimeError("hung")
        )
        try:
            with pytest.warns(RuntimeWarning, match="failed to stop"):
                with pytest.raises(ValueError, match="the real error"):
                    with handle:
                        raise ValueError("the real error")
        finally:
            ServerHandle.stop(handle)  # the real stop, for cleanup

    def test_clean_stop_clears_thread(self, tmp_path):
        srv = _make_server(tmp_path)
        with ServerHandle(srv) as handle:
            pass
        assert handle._thread is None


class TestMaxLineValidation:
    def test_rejects_tiny_limit(self, tmp_path):
        with pytest.raises(ValueError, match="max_line"):
            _make_server(tmp_path, max_line=16)


class TestDegradedRing:
    def test_degraded_ring_reachable_on_both_transports(self, tmp_path):
        service = ScheduleService(guard_budget_s=0.05)
        srv = ScheduleServer(
            service,
            socket_path=tmp_path / "serve.sock",
            port=0,
        )
        with ServerHandle(srv):
            with ScheduleClient(srv.socket_path) as client:
                # A primary that overruns the 50 ms budget degrades to
                # the verified fallback.
                from repro.robust.faults import FaultPlan, injection

                plan = FaultPlan(
                    name="slowpoke", seed=0, slow_rate=1.0, slow_s=0.2
                )
                with injection(plan):
                    response = client.call(_doc(seed=15, rid="slow-req"))
                assert response["ok"] is True
                assert response["degraded"]["reason"] == "timeout"
                out = client.traces("degraded")
                assert out["ok"] and out["ring"] == "degraded"
                assert [t["id"] for t in out["traces"]] == ["slow-req"]
            status, body = http_get(srv.host, srv.port, "/debug/degraded")
            assert status == 200
            assert json.loads(body)["ring"] == "degraded"
            # Degraded responses are never cached: the same document
            # misses again.
            status, body = http_get(srv.host, srv.port, "/stats")
            assert json.loads(body)["cache"]["hits"] == 0
