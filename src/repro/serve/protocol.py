"""Wire format of the scheduling service.

Requests and responses are JSON documents — one per line on the unix-socket
transport, one per HTTP body on the TCP transport (see
:mod:`repro.serve.daemon` and ``docs/SERVING.md`` for the full protocol
spec).  A request names a program (trace of basic blocks), a machine
config and a scheduler; a response carries the emitted per-block
instruction orders, the simulated makespan/stall count, the canonical
digest the request hashed to, the schedule's own content digest, and
whether the answer came from cache.

Everything here is transport-agnostic pure data plumbing:
encode/decode between JSON dicts and the library's value types
(:class:`~repro.ir.basicblock.Trace`,
:class:`~repro.machine.model.MachineModel`), with
:class:`ProtocolError` raised on any malformed input so the daemon can
answer a structured error instead of dying.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from ..ir.basicblock import BasicBlock, Trace
from ..ir.depgraph import DependenceGraph
from ..ir.instruction import ANY
from ..machine.model import MachineModel
from ..schedulers.table import SCHEDULERS

#: Version of the request/response schema.
PROTOCOL_VERSION = 1

#: Scheduler names accepted on the wire: the scheduler table's.
SCHEDULER_NAMES = tuple(SCHEDULERS)

#: Legal trace ids on the wire: they end up in file names, log lines and
#: Prometheus labels, so the alphabet is deliberately narrow.
TRACE_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

#: Structured error codes an error response may carry (``code`` field).
#: ``bad_request`` — the document failed decode; ``overloaded`` — shed by
#: admission control (comes with ``retry_after_s``); ``deadline_exceeded``
#: — the request's ``deadline_ms`` expired before dispatch;
#: ``breaker_open`` — the scheduler class's circuit breaker is open;
#: ``scheduling_failed`` — the compute itself failed after retries;
#: ``internal`` — anything else.
ERROR_CODES = (
    "bad_request",
    "overloaded",
    "deadline_exceeded",
    "breaker_open",
    "scheduling_failed",
    "internal",
)


class ProtocolError(ValueError):
    """Raised when a wire document cannot be decoded into a request."""


def validate_trace_id(trace_id: object) -> str:
    """``trace_id`` as a string, or :class:`ProtocolError` if it is not
    1–64 chars of ``[A-Za-z0-9_-]``."""
    if not isinstance(trace_id, str) or not TRACE_ID_RE.match(trace_id):
        raise ProtocolError(
            f"bad trace_id {trace_id!r}: need 1-64 chars of [A-Za-z0-9_-]"
        )
    return trace_id


def trace_from_wire(value: object) -> tuple[str, str | None] | None:
    """Decode a request's ``trace`` field into ``(trace_id,
    parent_span_id)``.

    Accepted shapes: a bare string (just the trace id) or an object
    ``{"trace_id": ..., "parent_span_id": ...}`` — the dict form of
    :class:`repro.obs.pipeline.TraceContext`.  ``None``/absent means the
    daemon mints an id.  Anything else is a :class:`ProtocolError`.
    """
    if value is None:
        return None
    if isinstance(value, str):
        return validate_trace_id(value), None
    if isinstance(value, Mapping):
        trace_id = validate_trace_id(value.get("trace_id"))
        parent = value.get("parent_span_id")
        if parent is not None and not isinstance(parent, str):
            raise ProtocolError(
                f"bad parent_span_id {parent!r}: need a string or null"
            )
        return trace_id, parent
    raise ProtocolError(
        f"bad trace field: need a string or an object, got "
        f"{type(value).__name__}"
    )


def deadline_from_wire(value: object) -> float | None:
    """Decode a request's ``deadline_ms`` field into a relative budget in
    **seconds**.

    ``None``/absent means no deadline.  The value is the client's total
    patience in milliseconds, measured from the moment the daemon admits
    the request; it must be a positive real number.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            f"bad deadline_ms {value!r}: need a positive number of "
            f"milliseconds"
        )
    if not value > 0 or value != value or value == float("inf"):
        raise ProtocolError(
            f"bad deadline_ms {value!r}: need a positive finite number"
        )
    return float(value) / 1e3


def deadline_s_from_doc(doc: object) -> float | None:
    """Lenient :func:`deadline_from_wire` for the daemon's admission path:
    invalid values answer ``None`` (no deadline) so the later full decode
    produces the structured error instead of the transport loop."""
    if not isinstance(doc, Mapping):
        return None
    try:
        return deadline_from_wire(doc.get("deadline_ms"))
    except ProtocolError:
        return None


# -- machine ------------------------------------------------------------------


def machine_to_dict(machine: MachineModel) -> dict:
    return {
        "window_size": machine.window_size,
        "fu_counts": dict(machine.fu_counts),
        "issue_width": machine.issue_width,
    }


def machine_from_dict(doc: Mapping) -> MachineModel:
    if not isinstance(doc, Mapping):
        raise ProtocolError(f"machine must be an object, got {type(doc).__name__}")
    try:
        fu_counts = {
            str(cls): int(count)
            for cls, count in dict(doc.get("fu_counts") or {ANY: 1}).items()
        }
        machine = MachineModel(
            window_size=int(doc.get("window_size", 4)),
            fu_counts=fu_counts,
            issue_width=(
                None
                if doc.get("issue_width") is None
                else int(doc["issue_width"])
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad machine config: {exc}") from exc
    return machine


# -- trace --------------------------------------------------------------------


def trace_to_dict(trace: Trace) -> dict:
    blocks = []
    for bb in trace.blocks:
        g = bb.graph
        blocks.append(
            {
                "name": bb.name,
                "nodes": [
                    [n, g.exec_time(n), g.fu_class(n)] for n in g.nodes
                ],
                "edges": [[u, v, lat] for u, v, lat in g.edges()],
            }
        )
    return {
        "blocks": blocks,
        "cross_edges": [[u, v, lat] for u, v, lat in trace.cross_edges],
    }


def _block_from_dict(doc: Mapping, index: int) -> BasicBlock:
    name = str(doc.get("name") or f"BB{index + 1}")
    graph = DependenceGraph()
    nodes = doc.get("nodes")
    if not isinstance(nodes, (list, tuple)) or not nodes:
        raise ProtocolError(f"block {name!r} needs a non-empty 'nodes' list")
    for entry in nodes:
        if isinstance(entry, str):
            entry = [entry]
        try:
            node = str(entry[0])
            exec_time = int(entry[1]) if len(entry) > 1 else 1
            fu_class = str(entry[2]) if len(entry) > 2 else ANY
            graph.add_node(node, exec_time=exec_time, fu_class=fu_class)
        except (LookupError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"block {name!r}: bad node entry {entry!r}: {exc}"
            ) from exc
    for edge in doc.get("edges") or ():
        try:
            u, v = str(edge[0]), str(edge[1])
            lat = int(edge[2]) if len(edge) > 2 else 0
            graph.add_edge(u, v, lat)
        except (LookupError, TypeError, ValueError, KeyError) as exc:
            raise ProtocolError(
                f"block {name!r}: bad edge {edge!r}: {exc}"
            ) from exc
    return BasicBlock(name=name, graph=graph)


def trace_from_dict(doc: Mapping) -> Trace:
    if not isinstance(doc, Mapping):
        raise ProtocolError(f"program must be an object, got {type(doc).__name__}")
    blocks_doc = doc.get("blocks")
    if not isinstance(blocks_doc, (list, tuple)) or not blocks_doc:
        raise ProtocolError("program needs a non-empty 'blocks' list")
    blocks = [
        _block_from_dict(b, i) if isinstance(b, Mapping) else _bad_block(b)
        for i, b in enumerate(blocks_doc)
    ]
    cross = []
    for edge in doc.get("cross_edges") or ():
        try:
            cross.append(
                (
                    str(edge[0]),
                    str(edge[1]),
                    int(edge[2]) if len(edge) > 2 else 0,
                )
            )
        except (LookupError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad cross edge {edge!r}: {exc}") from exc
    try:
        return Trace(blocks, cross_edges=cross)
    except (KeyError, ValueError) as exc:
        raise ProtocolError(f"bad program: {exc}") from exc


def _bad_block(doc) -> BasicBlock:
    raise ProtocolError(f"block must be an object, got {type(doc).__name__}")


# -- request / response -------------------------------------------------------


@dataclass
class ScheduleRequest:
    """One decoded scheduling request."""

    trace: Trace
    machine: MachineModel
    scheduler: str = "anticipatory"
    #: Opaque client correlation id, echoed on the response.
    id: object = None
    #: Distributed-trace id this request belongs to (client-stamped or
    #: daemon-minted; always set after decode by the service).
    trace_id: str | None = None
    #: Client-side parent span this request hangs under, if the caller is
    #: itself traced.
    parent_span_id: str | None = None
    #: Remaining time budget in **milliseconds** (the wire unit).  The
    #: daemon drops the request with ``deadline_exceeded`` if it cannot be
    #: dispatched within this budget, and the worker's guard inherits the
    #: remaining budget as its time limit.
    deadline_ms: float | None = None

    def to_dict(self) -> dict:
        out = {
            "v": PROTOCOL_VERSION,
            "program": trace_to_dict(self.trace),
            "machine": machine_to_dict(self.machine),
            "scheduler": self.scheduler,
        }
        if self.id is not None:
            out["id"] = self.id
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        if self.trace_id is not None:
            trace: dict = {"trace_id": self.trace_id}
            if self.parent_span_id is not None:
                trace["parent_span_id"] = self.parent_span_id
            out["trace"] = trace
        return out

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ScheduleRequest":
        if not isinstance(doc, Mapping):
            raise ProtocolError(
                f"request must be an object, got {type(doc).__name__}"
            )
        version = doc.get("v", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version!r} "
                f"(this daemon speaks v{PROTOCOL_VERSION})"
            )
        scheduler = str(doc.get("scheduler", "anticipatory"))
        if scheduler not in SCHEDULER_NAMES:
            raise ProtocolError(
                f"unknown scheduler {scheduler!r} "
                f"(choose from {', '.join(SCHEDULER_NAMES)})"
            )
        if "program" not in doc:
            raise ProtocolError("request needs a 'program' field")
        trace = trace_from_dict(doc["program"])
        machine = machine_from_dict(doc.get("machine") or {})
        if not machine.can_execute(trace.graph):
            raise ProtocolError(
                "machine cannot execute program: some fu class has no "
                "usable unit"
            )
        wire_trace = trace_from_wire(doc.get("trace"))
        trace_id, parent_span_id = wire_trace if wire_trace else (None, None)
        deadline_s = deadline_from_wire(doc.get("deadline_ms"))
        return cls(
            trace=trace,
            machine=machine,
            scheduler=scheduler,
            id=doc.get("id"),
            trace_id=trace_id,
            parent_span_id=parent_span_id,
            deadline_ms=None if deadline_s is None else deadline_s * 1e3,
        )


def ok_response(
    request_id: object,
    digest: str,
    cached: bool,
    result: Mapping,
    trace_id: str | None = None,
    server: Mapping | None = None,
    degraded: Mapping | None = None,
) -> dict:
    """A success response: the schedule result plus cache provenance.

    ``trace_id`` echoes the request's distributed-trace id; ``server`` is
    the daemon's phase-timing breakdown (``server.phases.<name>_s`` plus
    pids), so a client can report where its latency went without a second
    round trip.  ``degraded`` marks a guarded-fallback answer: the
    schedule is still verified-legal, but it came from the always-legal
    per-block fallback, with the diagnostic (``reason`` / ``detail`` /
    ``elapsed_s``) attached — degraded answers are never cached.
    """
    out = {
        "v": PROTOCOL_VERSION,
        "ok": True,
        "digest": digest,
        "cached": bool(cached),
        "block_orders": [list(o) for o in result["block_orders"]],
        "makespan": result["makespan"],
        "stall_cycles": result["stall_cycles"],
        "schedule_digest": result["schedule_digest"],
    }
    if request_id is not None:
        out["id"] = request_id
    if trace_id is not None:
        out["trace"] = {"trace_id": trace_id}
    if server is not None:
        out["server"] = dict(server)
    if degraded is not None:
        out["degraded"] = dict(degraded)
    return out


def error_response(
    request_id: object,
    message: str,
    trace_id: str | None = None,
    server: Mapping | None = None,
    code: str | None = None,
    retry_after_s: float | None = None,
) -> dict:
    """A structured failure.  ``code`` (one of :data:`ERROR_CODES`) lets
    clients branch without parsing the message; ``retry_after_s`` is the
    advisory backoff stamped on ``overloaded`` / ``breaker_open`` sheds
    (the unix-socket equivalent of HTTP's ``Retry-After``)."""
    out = {"v": PROTOCOL_VERSION, "ok": False, "error": str(message)}
    if code is not None:
        out["code"] = str(code)
    if retry_after_s is not None:
        out["retry_after_s"] = float(retry_after_s)
    if request_id is not None:
        out["id"] = request_id
    if trace_id is not None:
        out["trace"] = {"trace_id": trace_id}
    if server is not None:
        out["server"] = dict(server)
    return out


def server_timings(response: Mapping) -> dict | None:
    """The ``server`` phase-timing block of a response, or ``None``."""
    server = response.get("server")
    return dict(server) if isinstance(server, Mapping) else None
