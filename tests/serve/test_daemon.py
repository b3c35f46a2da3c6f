"""Tests for the asyncio daemon: both transports, batching, control ops,
malformed input, debug endpoints, access logging and HTTP error paths."""

import json
import socket

import pytest

from repro.machine.presets import PAPER_CORE
from repro.serve.client import ScheduleClient, http_get, http_schedule
from repro.serve.daemon import ScheduleServer, ServerHandle, _MAX_LINE
from repro.serve.protocol import ScheduleRequest
from repro.serve.service import ScheduleService
from repro.workloads.traces import random_trace


def _doc(seed=0, rid=None, trace_id=None):
    trace = random_trace(2, (3, 4), cross_probability=0.2, seed=seed)
    return ScheduleRequest(
        trace=trace, machine=PAPER_CORE, id=rid, trace_id=trace_id
    ).to_dict()


@pytest.fixture()
def server(tmp_path):
    service = ScheduleService(spool_dir=tmp_path / "spool")
    srv = ScheduleServer(
        service,
        socket_path=tmp_path / "serve.sock",
        port=0,
    )
    with ServerHandle(srv):
        yield srv


class TestUnixTransport:
    def test_schedule_miss_then_hit(self, server):
        doc = _doc(seed=1, rid="a")
        with ScheduleClient(server.socket_path) as client:
            first = client.call(doc)
            second = client.call(dict(doc, id="b"))
        assert first["ok"] and first["cached"] is False
        assert second["ok"] and second["cached"] is True
        assert first["id"] == "a" and second["id"] == "b"
        assert first["block_orders"] == second["block_orders"]

    def test_control_ops(self, server):
        with ScheduleClient(server.socket_path) as client:
            assert client.ping() == {"ok": True, "op": "ping"}
            client.call(_doc(seed=2))
            stats = client.stats()
            assert stats["requests"] == 1
            assert "serve_cache_miss_total" in client.metrics_text()

    def test_bad_json_line_gets_error_response(self, server):
        with ScheduleClient(server.socket_path) as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            response = json.loads(client._file.readline())
        assert response["ok"] is False and "bad JSON" in response["error"]

    def test_unknown_op(self, server):
        with ScheduleClient(server.socket_path) as client:
            out = client.call({"op": "frobnicate"})
        assert out["ok"] is False

    def test_pipelined_requests_answered_in_order(self, server):
        docs = [_doc(seed=s, rid=f"r{s}") for s in range(6)]
        with ScheduleClient(server.socket_path) as client:
            for doc in docs:
                client._file.write(json.dumps(doc).encode() + b"\n")
            client._file.flush()
            responses = [json.loads(client._file.readline()) for _ in docs]
        assert [r["id"] for r in responses] == [f"r{s}" for s in range(6)]
        assert all(r["ok"] for r in responses)


class TestHttpTransport:
    def test_healthz(self, server):
        status, body = http_get(server.host, server.port, "/healthz")
        assert status == 200 and body == b"ok\n"

    def test_schedule_and_metrics(self, server):
        status, response = http_schedule(server.host, server.port, _doc(seed=3))
        assert status == 200 and response["ok"]
        status, body = http_get(server.host, server.port, "/metrics")
        assert status == 200
        assert b"repro_serve_requests_total" in body

    def test_batch_post(self, server):
        doc = _doc(seed=4)
        status, out = http_schedule(
            server.host, server.port,
            {"requests": [doc, dict(doc, id="dup")]},
        )
        assert status == 200
        responses = out["responses"]
        assert len(responses) == 2 and all(r["ok"] for r in responses)
        # The pair shares a digest: exactly one computed, one cache-served.
        assert sorted(r["cached"] for r in responses) == [False, True]

    def test_stats_endpoint(self, server):
        http_schedule(server.host, server.port, _doc(seed=5))
        status, body = http_get(server.host, server.port, "/stats")
        assert status == 200
        assert json.loads(body)["requests"] >= 1

    def test_unknown_path_404(self, server):
        status, _ = http_get(server.host, server.port, "/nope")
        assert status == 404


class TestDebugEndpoints:
    def test_debug_traces_round_trip(self, server):
        with ScheduleClient(server.socket_path) as client:
            client.call(_doc(seed=20, trace_id="cafe1234"))
        status, body = http_get(
            server.host, server.port, "/debug/traces?trace_id=cafe1234"
        )
        assert status == 200
        doc = json.loads(body)
        assert doc["ring"] == "recent" and len(doc["traces"]) == 1
        spans = doc["traces"][0]["spans"]
        assert {s["trace_id"] for s in spans} == {"cafe1234"}
        assert any(s["name"].startswith("serve.worker.") for s in spans)

    def test_debug_traces_n_limit(self, server):
        with ScheduleClient(server.socket_path) as client:
            for seed in range(3):
                client.call(_doc(seed=30 + seed))
        status, body = http_get(server.host, server.port, "/debug/traces?n=2")
        assert status == 200 and len(json.loads(body)["traces"]) == 2

    def test_debug_traces_jsonl_waterfall(self, server):
        with ScheduleClient(server.socket_path) as client:
            client.call(_doc(seed=21, trace_id="beef5678"))
        status, body = http_get(
            server.host, server.port,
            "/debug/traces?trace_id=beef5678&format=jsonl",
        )
        assert status == 200
        records = [json.loads(line) for line in body.splitlines() if line]
        assert records[0]["type"] == "meta"
        assert records[0]["kind"] == "request_waterfall"
        assert any(r.get("type") == "span" for r in records)

    def test_debug_errors_ring(self, server):
        status, _ = http_schedule(server.host, server.port,
                                  {"scheduler": "nope"})
        assert status == 200
        status, body = http_get(server.host, server.port, "/debug/errors")
        assert status == 200
        traces = json.loads(body)["traces"]
        assert traces and traces[-1]["status"] == "error"

    def test_debug_top_document(self, server):
        http_schedule(server.host, server.port, _doc(seed=22))
        status, body = http_get(server.host, server.port, "/debug/top")
        assert status == 200
        doc = json.loads(body)
        assert doc["stats"]["requests"] >= 1
        assert "serve.requests" in doc["metrics"]

    def test_debug_slow_endpoint_exists(self, server):
        status, body = http_get(server.host, server.port, "/debug/slow")
        assert status == 200 and json.loads(body)["ring"] == "slow"

    def test_unix_control_ops_traces_and_top(self, server):
        with ScheduleClient(server.socket_path) as client:
            client.call(_doc(seed=23, trace_id="abcd9999"))
            out = client.traces(trace_id="abcd9999")
            assert out["ok"] and len(out["traces"]) == 1
            top = client.top()
            assert top["ok"] and top["stats"]["requests"] == 1

    def test_debug_profile_collapsed(self, server):
        status, body = http_get(
            server.host, server.port,
            "/debug/profile?seconds=0.05&interval_ms=1&format=collapsed",
        )
        assert status == 200

    def test_debug_profile_rejects_bad_params(self, server):
        status, _ = http_get(
            server.host, server.port, "/debug/profile?seconds=banana"
        )
        assert status == 400
        status, _ = http_get(
            server.host, server.port, "/debug/profile?format=svg"
        )
        assert status == 400

    def test_metrics_exposes_burn_rate_gauges(self, server):
        http_schedule(server.host, server.port, _doc(seed=24))
        status, body = http_get(server.host, server.port, "/metrics")
        assert status == 200
        assert b"serve_slo_fast_burn_rate" in body
        assert b"serve_cache_hit_ratio" in body


class TestHttpErrorPaths:
    def _raw(self, server, payload: bytes) -> bytes:
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    def test_oversized_body_413(self, server):
        huge = _MAX_LINE + 1
        head = (
            f"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {huge}\r\n\r\n"
        ).encode()
        response = self._raw(server, head)
        assert response.startswith(b"HTTP/1.1 413")

    def test_bad_json_400(self, server):
        body = b"{not json"
        head = (
            f"POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        response = self._raw(server, head + body)
        assert response.startswith(b"HTTP/1.1 400")

    def test_unknown_endpoint_404(self, server):
        status, _ = http_get(server.host, server.port, "/debug/nope")
        assert status == 404

    def test_mid_body_disconnect_does_not_poison_daemon(self, server):
        head = (
            "POST /v1/schedule HTTP/1.1\r\nHost: x\r\n"
            "Content-Length: 1000\r\n\r\n"
        ).encode()
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as sock:
            sock.sendall(head + b'{"partial')  # then hang up mid-body
        # The daemon must shrug it off: both transports stay healthy.
        status, response = http_schedule(server.host, server.port,
                                         _doc(seed=25))
        assert status == 200 and response["ok"]
        with ScheduleClient(server.socket_path) as client:
            assert client.ping()["ok"]

    def test_error_path_does_not_poison_batch(self, server):
        good = _doc(seed=26, rid="good")
        status, out = http_schedule(
            server.host, server.port,
            {"requests": [{"scheduler": "nope", "id": "bad"}, good]},
        )
        assert status == 200
        bad_r, good_r = out["responses"]
        assert bad_r["ok"] is False and good_r["ok"] is True


class TestAccessLog:
    def test_one_line_per_request(self, tmp_path):
        log = tmp_path / "access.jsonl"
        service = ScheduleService(spool_dir=tmp_path / "spool")
        srv = ScheduleServer(
            service,
            socket_path=tmp_path / "serve.sock",
            port=0,
            access_log=log,
        )
        with ServerHandle(srv):
            with ScheduleClient(srv.socket_path) as client:
                client.call(_doc(seed=27, rid="r1", trace_id="feed0001"))
                client.call(_doc(seed=27, rid="r2"))
            http_schedule(srv.host, srv.port, {"scheduler": "nope"})
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(lines) == 3
        first = lines[0]
        assert first["trace_id"] == "feed0001" and first["id"] == "r1"
        assert first["status"] == "ok" and first["cached"] is False
        assert first["transport"] == "unix"
        assert first["duration_ms"] >= 0
        assert lines[1]["cached"] is True
        assert lines[2]["status"] == "error"
        assert lines[2]["transport"] == "http"

    def test_no_log_without_flag(self, tmp_path, server):
        with ScheduleClient(server.socket_path) as client:
            client.call(_doc(seed=28))
        assert not list(tmp_path.glob("*.jsonl"))


class TestClientRetry:
    def test_connect_retries_until_daemon_appears(self, tmp_path):
        import threading
        import time as _time

        path = tmp_path / "late.sock"
        service = ScheduleService()
        srv = ScheduleServer(service, socket_path=path)

        result = {}

        def dial():
            with ScheduleClient(path, connect_attempts=20) as client:
                result["ping"] = client.ping()
                result["attempts"] = client.connect_attempts

        t = threading.Thread(target=dial)
        t.start()
        _time.sleep(0.15)  # let a few ENOENT attempts fail first
        with ServerHandle(srv):
            t.join(timeout=30)
        assert not t.is_alive()
        assert result["ping"]["ok"] and result["attempts"] > 1

    def test_fail_fast_with_single_attempt(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ScheduleClient(tmp_path / "absent.sock", connect_attempts=1)

    def test_refused_socket_retries_then_raises(self, tmp_path):
        stale = tmp_path / "stale.sock"
        # A bound-but-unaccepted socket file: connects are refused.
        holder = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        holder.bind(str(stale))
        holder.close()
        with pytest.raises((ConnectionRefusedError, OSError)):
            ScheduleClient(stale, connect_attempts=2)

    def test_attempts_validation(self, tmp_path):
        with pytest.raises(ValueError, match="connect_attempts"):
            ScheduleClient(tmp_path / "x.sock", connect_attempts=0)


class TestLifecycle:
    def test_requires_some_transport(self):
        with pytest.raises(ValueError, match="socket path and/or a TCP port"):
            ScheduleServer(ScheduleService())

    def test_socket_file_removed_on_stop(self, tmp_path):
        path = tmp_path / "s.sock"
        srv = ScheduleServer(ScheduleService(), socket_path=path)
        with ServerHandle(srv):
            assert path.exists()
        assert not path.exists()
