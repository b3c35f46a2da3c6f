"""Asyncio front-end of the scheduling service: ``repro serve``.

Two transports over one :class:`~repro.serve.service.ScheduleService`:

- **unix socket** (``--socket PATH``): newline-delimited JSON.  Each line
  is either a scheduling request (:mod:`repro.serve.protocol`) or a
  control op — ``{"op": "ping"}``, ``{"op": "stats"}``,
  ``{"op": "metrics"}``, ``{"op": "traces"|"slow"|"errors"}``,
  ``{"op": "top"}`` — and receives exactly one response line.
  Multiple requests may be pipelined on one connection; responses come
  back in order.
- **HTTP** (``--port N``): a deliberately minimal HTTP/1.1 subset —
  ``POST /v1/schedule`` (a request document, or ``{"requests": [...]}``
  for an explicit batch), ``GET /metrics`` (Prometheus text exposition of
  the service registry), ``GET /healthz``, ``GET /stats``, and the live
  introspection surface: ``GET /debug/traces`` / ``/debug/slow`` /
  ``/debug/errors`` (tail-sampled request traces, ``?trace_id=``, ``?n=``,
  ``&format=jsonl`` for replayable waterfall JSONL), ``GET /debug/top``
  (one self-contained stats+metrics document for ``repro top``), and
  ``GET /debug/profile?seconds=S`` (on-demand flamegraph of the dispatcher
  thread).  No keep-alive, no chunked bodies; enough for curl, load
  generators and scrapers without pulling in a web framework.

Continuous dispatch: one **dispatcher thread** owns the service and its
worker pool — the obs recorder is process-global, so request handling
must not interleave in threads; CPU parallelism comes from the service's
worker pool (``--jobs``), not from threading the daemon.  The dispatcher
takes each admitted request as soon as it is queued (a hit or an error is
answered at once, a miss goes to the first free worker) and otherwise
waits in the pool's ``poll()`` until a worker returns, a timer falls due
or a new request wakes it.  Each response goes back to the event loop the
moment it exists; no request waits for another's compute.

Overload safety: the queue is **bounded** by an
:class:`~repro.serve.admission.AdmissionController` — every request must
be admitted before it is enqueued, and a request beyond the queue
capacity (or its transport's inflight limit) is shed immediately with a
structured ``overloaded`` error carrying ``retry_after_s`` (HTTP answers
503 with a ``Retry-After`` header).  A miss stays queued until it reaches
a worker.  Above the brownout threshold the ``/debug/*`` endpoints answer
503 — optional work is shed before requests are.  A request document may
carry ``deadline_ms``; the daemon stamps its expiry at admission, and the
service drops it with ``deadline_exceeded`` (HTTP 504) if the budget dies
before it reaches a worker.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import queue
import threading
import time
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from ..obs.expo import prometheus_text
from ..obs.profiler import (
    SamplingProfiler,
    collapsed_stacks,
    flamegraph_html,
)
from .admission import AdmissionConfig, AdmissionController
from .protocol import deadline_s_from_doc, error_response
from .service import ScheduleService

_MAX_LINE = 32 * 1024 * 1024  # 32 MiB: generous bound for one JSON request


class ScheduleServer:
    """The daemon: transports + dispatcher around a
    :class:`ScheduleService`."""

    def __init__(
        self,
        service: ScheduleService,
        socket_path: str | os.PathLike | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        access_log: str | os.PathLike | None = None,
        admission: AdmissionConfig | None = None,
        max_line: int = _MAX_LINE,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("need a unix socket path and/or a TCP port")
        if max_line < 1024:
            raise ValueError(f"max_line must be >= 1024, got {max_line}")
        self.service = service
        self.max_line = int(max_line)
        #: Bounded-queue admission ledger, shared by both transports and
        #: attached to the service so /stats and /metrics can surface it.
        self.admission = AdmissionController(
            admission, registry=service.registry
        )
        service.admission = self.admission
        self.socket_path = Path(socket_path) if socket_path is not None else None
        self.host = host
        self.port = port
        self.access_log_path = (
            Path(access_log) if access_log is not None else None
        )
        self._access_log = None
        self._servers: list[asyncio.base_events.Server] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Admitted requests on their way to the dispatcher; None stops it.
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._dispatcher: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        if self.access_log_path is not None:
            self.access_log_path.parent.mkdir(parents=True, exist_ok=True)
            self._access_log = self.access_log_path.open("a", encoding="utf-8")
        if self.socket_path is not None:
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            if self.socket_path.exists():
                self.socket_path.unlink()
            self._servers.append(
                await asyncio.start_unix_server(
                    self._serve_unix,
                    path=str(self.socket_path),
                    limit=self.max_line,
                )
            )
        if self.port is not None:
            server = await asyncio.start_server(
                self._serve_http,
                host=self.host,
                port=self.port,
                limit=self.max_line,
            )
            self._servers.append(server)
            # Resolve port 0 to the actual bound port for clients.
            self.port = server.sockets[0].getsockname()[1]
        # Last, so a transport that fails to bind leaves no thread behind;
        # requests accepted meanwhile wait in the inbox.
        self._dispatcher = threading.Thread(
            target=self._dispatch, name="serve-dispatch", daemon=True
        )
        self._dispatcher.start()

    async def stop(self) -> None:
        for server in self._servers:
            server.close()
            await server.wait_closed()
        self._servers.clear()
        if self._dispatcher is not None:
            # Requests still in flight get no answer: their connections
            # close with the daemon.
            self._inbox.put(None)
            self.service.pool.wake()
            await asyncio.to_thread(self._dispatcher.join)
            self._dispatcher = None
        self.service.close()
        if self._access_log is not None:
            self._access_log.close()
            self._access_log = None
        if self.socket_path is not None and self.socket_path.exists():
            self.socket_path.unlink()

    async def serve_forever(self) -> None:
        if not self._servers:
            await self.start()
        try:
            await asyncio.gather(*(s.serve_forever() for s in self._servers))
        finally:
            await self.stop()

    def endpoints(self) -> list[str]:
        """Human-readable listening endpoints (valid after :meth:`start`)."""
        out = []
        if self.socket_path is not None:
            out.append(f"unix:{self.socket_path}")
        if self.port is not None:
            out.append(f"http://{self.host}:{self.port}")
        return out

    # -- dispatch ------------------------------------------------------------

    async def _submit(self, doc: dict, transport: str = "unknown") -> dict:
        """Admit + enqueue one request document; resolves to its response.

        Admission is the bounded front door: a request beyond the queue
        capacity or the transport's inflight limit is answered
        ``overloaded`` right here — it never touches the queue, the
        dispatcher, or the pool.  Admitted requests get their
        ``deadline_ms`` expiry stamped now, so queue wait counts against
        the budget.
        """
        request_id = doc.get("id") if isinstance(doc, dict) else None
        reason = self.admission.try_admit(transport)
        if reason is not None:
            return error_response(
                request_id,
                f"overloaded: {reason.replace('_', ' ')} "
                f"(retry after {self.admission.config.retry_after_s:g}s)",
                code="overloaded",
                retry_after_s=self.admission.config.retry_after_s,
            )
        budget_s = deadline_s_from_doc(doc)
        expires = None if budget_s is None else time.monotonic() + budget_s
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inbox.put((doc, transport, time.monotonic(), expires, future))
        self.service.pool.wake()
        try:
            return await future
        finally:
            self.admission.release(transport)

    def _dispatch(self) -> None:
        """The dispatcher thread: submit every queued request, then wait in
        the pool for the next completion, timer or arrival."""
        while True:
            while True:
                try:
                    entry = self._inbox.get_nowait()
                except queue.Empty:
                    break
                if entry is None:
                    return
                self._take(*entry)
            self.service.pool.poll()

    def _take(self, doc, transport, enqueued, expires, future) -> None:
        # The budget left now, queue wait already spent; the service drops
        # an expired request before it reaches a worker.
        remaining = None if expires is None else expires - time.monotonic()
        reply = functools.partial(self._reply, doc, transport, enqueued, future)
        try:
            self.service.submit(doc, transport, remaining, reply)
        except Exception as exc:  # defensive: the service shouldn't raise
            reply(error_response(
                doc.get("id") if isinstance(doc, dict) else None,
                f"internal error: {exc}",
                code="internal",
            ))

    def _reply(self, doc, transport, enqueued, future, response) -> None:
        """Called by the service in the dispatcher thread; hands the
        response to the event loop."""
        self._loop.call_soon_threadsafe(
            self._resolve, doc, transport, enqueued, future, response
        )

    def _resolve(self, doc, transport, enqueued, future, response) -> None:
        if not future.done():
            future.set_result(response)
            self._log_access(
                doc, transport, response, time.monotonic() - enqueued
            )

    def _log_access(
        self, doc, transport: str, response: dict, duration_s: float
    ) -> None:
        """One structured access-log line per answered request (no-op
        without ``--access-log``)."""
        if self._access_log is None:
            return
        trace = response.get("trace") if isinstance(response, dict) else None
        digest = response.get("digest") if isinstance(response, dict) else None
        line = {
            "ts": time.time(),
            "transport": transport,
            "trace_id": (trace or {}).get("trace_id"),
            "id": response.get("id") if isinstance(response, dict) else None,
            "scheduler": (
                doc.get("scheduler", "anticipatory")
                if isinstance(doc, dict)
                else None
            ),
            "digest": digest[:12] if isinstance(digest, str) else None,
            "cached": (
                response.get("cached") if isinstance(response, dict) else None
            ),
            "status": (
                "ok"
                if isinstance(response, dict) and response.get("ok")
                else "error"
            ),
            "duration_ms": round(duration_s * 1e3, 3),
        }
        self._access_log.write(json.dumps(line, sort_keys=True) + "\n")
        self._access_log.flush()

    # -- unix-socket transport ------------------------------------------------

    def _control(self, doc: dict) -> dict | None:
        op = doc.get("op")
        if op is None:
            return None
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.service.stats()}
        if op == "metrics":
            self.service.refresh_gauges()
            return {
                "ok": True,
                "op": "metrics",
                "text": prometheus_text(self.service.registry),
            }
        if op in ("traces", "slow", "errors", "degraded", "top"):
            # Debug introspection is the first thing brownout sheds: these
            # ops serialize whole trace rings while the daemon is already
            # behind (stats/metrics stay up — operators need them most
            # exactly now).
            if self.admission.brownout:
                return {
                    "ok": False,
                    "op": op,
                    "error": "debug surface disabled during brownout",
                    "code": "overloaded",
                    "retry_after_s": self.admission.config.retry_after_s,
                }
            if op == "top":
                return {"ok": True, "op": "top", **self._top_doc()}
            return {
                "ok": True,
                "op": op,
                **self._traces_doc(
                    ring=op if op != "traces" else "recent",
                    n=doc.get("n"),
                    trace_id=doc.get("trace_id"),
                ),
            }
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- debug documents (shared by both transports) --------------------------

    def _traces_doc(
        self,
        ring: str = "recent",
        n: object = None,
        trace_id: str | None = None,
    ) -> dict:
        buf = self.service.tracebuf
        select = {
            "recent": buf.recent,
            "slow": buf.slow,
            "errors": buf.errors,
            "degraded": buf.degraded,
        }[ring]
        limit = None
        if n is not None:
            try:
                limit = int(n)
            except (TypeError, ValueError):
                limit = None
        traces = select(n=limit, trace_id=trace_id or None)
        return {
            "ring": ring,
            "count": len(traces),
            "buffer": buf.stats(),
            "traces": [t.to_dict() for t in traces],
        }

    def _top_doc(self) -> dict:
        self.service.refresh_gauges()
        return {
            "stats": self.service.stats(),
            "metrics": self.service.registry.to_dict(),
        }

    async def _serve_unix(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write_line(
                        writer, error_response(None, "request line too long")
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                except ValueError as exc:
                    await self._write_line(
                        writer, error_response(None, f"bad JSON: {exc}")
                    )
                    continue
                if isinstance(doc, dict) and (control := self._control(doc)):
                    await self._write_line(writer, control)
                    continue
                await self._write_line(
                    writer, await self._submit(doc, transport="unix")
                )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _write_line(writer: asyncio.StreamWriter, doc: dict) -> None:
        writer.write(json.dumps(doc, sort_keys=True).encode() + b"\n")
        await writer.drain()

    # -- HTTP transport --------------------------------------------------------

    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            result = await self._http_response(reader)
            status, content_type, body = result[:3]
            extra_headers = result[3] if len(result) > 3 else {}
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                + "".join(
                    f"{name}: {value}\r\n"
                    for name, value in extra_headers.items()
                )
                + "Connection: close\r\n\r\n"
            )
            writer.write(head.encode() + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _http_response(self, reader: asyncio.StreamReader) -> tuple:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return "400 Bad Request", "text/plain", b"bad request line\n"
        method, target = parts[0].upper(), parts[1]
        url = urlsplit(target)
        path = url.path
        query = {
            key: values[-1]
            for key, values in parse_qs(url.query, keep_blank_values=True).items()
        }
        content_length = 0
        while True:
            header = (await reader.readline()).decode("latin-1").strip()
            if not header:
                break
            key, _, value = header.partition(":")
            if key.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return "400 Bad Request", "text/plain", b"bad content-length\n"
        if method == "GET" and path == "/healthz":
            return "200 OK", "text/plain", b"ok\n"
        if method == "GET" and path == "/metrics":
            self.service.refresh_gauges()
            text = prometheus_text(self.service.registry)
            return "200 OK", "text/plain; version=0.0.4", text.encode()
        if method == "GET" and path == "/stats":
            body = json.dumps(self.service.stats(), sort_keys=True) + "\n"
            return "200 OK", "application/json", body.encode()
        if path.startswith("/debug/") and self.admission.brownout:
            # Brownout sheds the debug surface before it sheds requests.
            retry = self.admission.config.retry_after_s
            return (
                "503 Service Unavailable",
                "text/plain",
                b"debug surface disabled during brownout\n",
                {"Retry-After": f"{max(int(retry + 0.999), 1)}"},
            )
        if method == "GET" and path in (
            "/debug/traces", "/debug/slow", "/debug/errors", "/debug/degraded"
        ):
            ring = {"/debug/traces": "recent", "/debug/slow": "slow",
                    "/debug/errors": "errors",
                    "/debug/degraded": "degraded"}[path]
            doc = self._traces_doc(
                ring=ring,
                n=query.get("n"),
                trace_id=query.get("trace_id"),
            )
            if query.get("format") == "jsonl":
                # The selected traces as waterfall JSONL — the same schema
                # `repro trace` replays and Perfetto export consumes.
                from .tracebuf import RequestTrace

                lines = []
                for t in doc["traces"]:
                    for record in RequestTrace.from_dict(t).waterfall_records():
                        lines.append(json.dumps(record, sort_keys=True))
                return (
                    "200 OK",
                    "application/jsonl",
                    ("\n".join(lines) + "\n").encode() if lines else b"",
                )
            body = json.dumps(doc, sort_keys=True) + "\n"
            return "200 OK", "application/json", body.encode()
        if method == "GET" and path == "/debug/top":
            body = json.dumps(self._top_doc(), sort_keys=True) + "\n"
            return "200 OK", "application/json", body.encode()
        if method == "GET" and path == "/debug/profile":
            return await self._profile_response(query)
        if method == "POST" and path == "/v1/schedule":
            if content_length > self.max_line:
                return (
                    "413 Payload Too Large",
                    "text/plain",
                    f"body exceeds {self.max_line} bytes\n".encode(),
                )
            if content_length <= 0:
                return "400 Bad Request", "text/plain", b"need a JSON body\n"
            raw = await reader.readexactly(content_length)
            try:
                doc = json.loads(raw)
            except ValueError as exc:
                body = json.dumps(
                    error_response(None, f"bad JSON: {exc}", code="bad_request")
                ) + "\n"
                return "400 Bad Request", "application/json", body.encode()
            if isinstance(doc, dict) and isinstance(doc.get("requests"), list):
                responses = await asyncio.gather(
                    *(self._submit(d, transport="http") for d in doc["requests"])
                )
                body = json.dumps({"responses": responses}, sort_keys=True) + "\n"
                # Batch answers stay 200: per-request outcomes (including
                # sheds) are in the response documents.
                return "200 OK", "application/json", body.encode()
            response = await self._submit(doc, transport="http")
            body = json.dumps(response, sort_keys=True) + "\n"
            return self._single_schedule_http(response, body)
        return "404 Not Found", "text/plain", b"not found\n"

    def _single_schedule_http(self, response: dict, body: str) -> tuple:
        """Status line + headers for a single ``POST /v1/schedule`` answer:
        structured error codes map onto the matching HTTP semantics
        (``overloaded`` / ``breaker_open`` -> 503 + Retry-After,
        ``deadline_exceeded`` -> 504).  Decodable-but-invalid requests keep
        answering 200 with a structured ``ok: false`` body — that contract
        predates the error codes and clients rely on it."""
        status = "200 OK"
        headers: dict = {}
        if isinstance(response, dict) and not response.get("ok", False):
            code = response.get("code")
            if code in ("overloaded", "breaker_open"):
                status = "503 Service Unavailable"
                retry = response.get("retry_after_s")
                if retry:
                    headers["Retry-After"] = f"{max(int(retry + 0.999), 1)}"
            elif code == "deadline_exceeded":
                status = "504 Gateway Timeout"
        return status, "application/json", body.encode(), headers

    async def _profile_response(self, query: dict) -> tuple[str, str, bytes]:
        """``GET /debug/profile``: sample the dispatcher thread for
        ``seconds`` and answer a flamegraph (``format=html``, default) or
        collapsed stacks (``format=collapsed``)."""
        try:
            seconds = min(max(float(query.get("seconds", 1.0)), 0.05), 30.0)
            interval_ms = min(
                max(float(query.get("interval_ms", 5.0)), 0.5), 100.0
            )
        except ValueError:
            return "400 Bad Request", "text/plain", b"bad profile parameters\n"
        fmt = query.get("format", "html")
        if fmt not in ("html", "collapsed"):
            return "400 Bad Request", "text/plain", b"format: html|collapsed\n"
        prof = SamplingProfiler(
            interval_s=interval_ms / 1e3,
            target_thread_id=(
                self._dispatcher.ident if self._dispatcher is not None else None
            ),
        )
        try:
            prof.start()
        except RuntimeError as exc:  # another profiler already active
            return "409 Conflict", "text/plain", f"{exc}\n".encode()
        try:
            await asyncio.sleep(seconds)
        finally:
            prof.stop()
        if fmt == "collapsed":
            return "200 OK", "text/plain", collapsed_stacks(prof.samples).encode()
        html = flamegraph_html(
            prof.samples,
            title=f"repro serve pid {os.getpid()} — {seconds:g}s @ "
            f"{interval_ms:g}ms",
        )
        return "200 OK", "text/html", html.encode()


class ServerHandle:
    """A daemon running on a background thread (tests, smoke, notebooks).

    ``with ServerHandle(server):`` starts the asyncio loop on a daemon
    thread, waits until the transports are bound, and tears everything
    down on exit.
    """

    def __init__(self, server: ScheduleServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "ServerHandle":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("schedule server failed to start within 10 s")
        if self._startup_error is not None:
            raise RuntimeError("schedule server failed to start") from (
                self._startup_error
            )
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.stop())
            self._loop.close()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop the daemon thread; raises :class:`RuntimeError` if it does
        not join within ``timeout_s`` (a hung shutdown must not be silently
        reported as a clean one — a leaked daemon thread still owns the
        sockets and the dispatcher)."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            if self._thread.is_alive():
                raise RuntimeError(
                    f"schedule server thread failed to stop within "
                    f"{timeout_s:g}s; daemon thread leaked (endpoints: "
                    f"{', '.join(self.server.endpoints()) or 'none'})"
                )
            self._thread = None

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.stop()
        except RuntimeError:
            if exc_type is None:
                raise
            # An exception is already propagating out of the with-block;
            # don't mask it — surface the hung shutdown as a warning.
            import warnings

            warnings.warn(
                "schedule server thread failed to stop within 10s while "
                "handling an exception; daemon thread leaked",
                RuntimeWarning,
                stacklevel=2,
            )
