"""Trace exporters: JSONL and Chrome trace-event format.

Two output formats cover the two consumption modes:

- **JSONL** (:func:`write_jsonl`) — one self-describing JSON object per
  line, the machine-readable source of truth.  ``repro trace FILE`` replays
  it; any analysis script can stream it.  Line types: ``meta``, ``span``,
  ``counter``, ``sim_trace`` (header) and ``sim`` (one event).
- **Chrome trace-event JSON** (:func:`write_chrome_trace`) — openable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Pipeline
  spans appear as nested slices on a "pipeline (wall time)" track per
  process (cross-process traces merged from worker spools keep one track
  per worker pid, microsecond timebase); obs counters appear as Perfetto
  counter ("C"-phase) timelines next to the spans; each simulated
  execution gets its own "simulator" track on a 1 cycle = 1 µs timebase
  with issue slices, stall instants and a window-occupancy counter track.

Schema versions: v1 files carry no ``pid``/``trace_id`` on spans and no
``counter_sample`` records; readers treat those fields as absent and still
load v1 files (``repro trace`` replays either).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator

from .events import SimEvent, SimTrace, STALL_KINDS
from .recorder import SpanRecord, TraceRecorder

JSONL_FORMAT = "repro-trace"
#: v2 adds span ``pid``/``trace_id`` fields, ``counter_sample`` records and
#: the meta ``trace_id``; v1 files remain loadable.
JSONL_VERSION = 2

_PID = 1
_PIPELINE_TID = 1
_SIM_TID_BASE = 2


def recorder_records(recorder: TraceRecorder) -> Iterator[dict]:
    """All records of ``recorder`` as JSON-serializable dicts (the JSONL
    line stream)."""
    yield {
        "type": "meta",
        "format": JSONL_FORMAT,
        "version": JSONL_VERSION,
        "trace_id": recorder.context.trace_id,
        "pid": recorder.context.pid,
        "spans": len(recorder.spans),
        "sim_traces": len(recorder.sim_traces),
    }
    for s in recorder.spans:
        yield s.to_dict()
    for name, value in sorted(recorder.counters.items()):
        yield {"type": "counter", "name": name, "value": value}
    for t, name, value, pid in recorder.counter_samples:
        # Same absolute perf_counter_ns//1000 timebase as span start_us, so
        # replay can timestamp-order samples against spans across processes.
        yield {
            "type": "counter_sample",
            "t_us": t // 1000,
            "name": name,
            "value": value,
            "pid": pid,
        }
    for i, trace in enumerate(recorder.sim_traces):
        yield {
            "type": "sim_trace",
            "index": i,
            "label": trace.label,
            "window_size": trace.window_size,
            "instructions": trace.num_instructions,
            "events": len(trace.events),
            "stall_cycles": trace.stall_cycles,
        }
        for e in trace.events:
            yield {**e.to_dict(), "trace": i}


def write_jsonl(path: str | Path, recorder: TraceRecorder) -> Path:
    """Write the recorder's full record stream as JSONL; returns the path."""
    path = Path(path)
    with path.open("w") as fh:
        for record in recorder_records(recorder):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def records_to_recorder(records: list[dict]) -> TraceRecorder:
    """Rebuild a :class:`TraceRecorder` from parsed JSONL records — the
    inverse of :func:`recorder_records` (modulo the meta line).  Lets a
    trace fetched from elsewhere (e.g. a daemon's ``/debug/traces``
    waterfall) flow through the Chrome/Perfetto exporter unchanged."""
    from .pipeline import TraceContext

    recorder = TraceRecorder(sim_events=False, counter_samples=False)
    meta = next((r for r in records if r.get("type") == "meta"), None)
    if meta is not None and meta.get("trace_id"):
        recorder.context = TraceContext(
            trace_id=str(meta["trace_id"]),
            pid=int(meta.get("pid") or recorder.context.pid),
        )
    for r in records:
        kind = r.get("type")
        if kind == "span":
            recorder.spans.append(SpanRecord.from_dict(r))
        elif kind == "counter":
            recorder.counters[str(r["name"])] = int(r["value"])
        elif kind == "counter_sample":
            recorder.counter_samples.append(
                (
                    int(r["t_us"]) * 1000,
                    str(r["name"]),
                    int(r["value"]),
                    int(r.get("pid", 0)),
                )
            )
    recorder.spans.sort(key=lambda s: s.start_ns)
    for trace in sim_traces_from_records(records):
        recorder.add_sim_trace(trace)
    return recorder


def sim_traces_from_records(records: list[dict]) -> list[SimTrace]:
    """Rebuild :class:`SimTrace` objects from parsed JSONL records."""
    headers = [r for r in records if r.get("type") == "sim_trace"]
    traces: dict[int, SimTrace] = {}
    for h in headers:
        traces[h["index"]] = SimTrace(
            window_size=h["window_size"],
            num_instructions=h["instructions"],
            label=h.get("label", ""),
        )
    for r in records:
        if r.get("type") == "sim":
            idx = r.get("trace", 0)
            if idx not in traces:
                traces[idx] = SimTrace(window_size=0, num_instructions=0)
            traces[idx].events.append(SimEvent.from_dict(r))
    return [traces[i] for i in sorted(traces)]


def chrome_trace_events(recorder: TraceRecorder) -> list[dict]:
    """The recorder's streams as Chrome trace-event dicts.

    Cross-process traces (worker spans merged from telemetry spools carry
    their own ``pid``) get one "pipeline (wall time)" track per process,
    and obs counters are emitted as Perfetto counter ("C"-phase) timelines
    so counter trajectories render alongside the span slices.
    """
    own_pid = recorder.context.pid
    span_pids = sorted(
        {s.pid if s.pid is not None else own_pid for s in recorder.spans}
        | {own_pid}
    )
    events: list[dict] = []
    for pid in span_pids:
        role = "parent" if pid == own_pid else f"worker {pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro {role}"},
            }
        )
        events.append(_thread_meta(_PIPELINE_TID, "pipeline (wall time)", pid))
    t0 = min((s.start_ns for s in recorder.spans), default=0)
    if recorder.counter_samples:
        t0 = min(t0, recorder.counter_samples[0][0]) if recorder.spans else (
            recorder.counter_samples[0][0]
        )
    for s in recorder.spans:
        events.append(
            {
                "name": s.name,
                "cat": "pipeline",
                "ph": "X",
                "ts": (s.start_ns - t0) / 1000,
                "dur": s.duration_ns / 1000,
                "pid": s.pid if s.pid is not None else own_pid,
                "tid": _PIPELINE_TID,
                "args": {k: _jsonable(v) for k, v in s.attrs.items()},
            }
        )
    # Obs counters as Perfetto counter timelines, one series per
    # (pid, counter name); the value is the recorder-cumulative total.
    for t, name, value, pid in recorder.counter_samples:
        events.append(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": (t - t0) / 1000,
                "pid": pid,
                "tid": _PIPELINE_TID,
                "args": {"value": value},
            }
        )
    for i, trace in enumerate(recorder.sim_traces):
        tid = _SIM_TID_BASE + i
        label = trace.label or f"simulation {i}"
        events.append(
            _thread_meta(tid, f"{label} (1 cycle = 1 µs)", own_pid)
        )
        events.extend(_sim_trace_events(trace, tid, own_pid))
    return events


def _sim_trace_events(
    trace: SimTrace, tid: int, pid: int = _PID
) -> Iterator[dict]:
    for e in trace.events:
        if e.kind == "issue":
            yield {
                "name": e.node or "issue",
                "cat": "sim",
                "ph": "X",
                "ts": e.cycle,
                "dur": 1,
                "pid": pid,
                "tid": tid,
                "args": {"unit": e.unit, "head": e.head},
            }
        elif e.kind in STALL_KINDS or e.kind == "deadlock":
            yield {
                "name": e.kind,
                "cat": "sim",
                "ph": "i",
                "s": "t",
                "ts": e.cycle,
                "pid": pid,
                "tid": tid,
                "args": {"detail": e.detail},
            }
        if e.occupancy is not None:
            yield {
                "name": f"window occupancy (tid {tid})",
                "cat": "sim",
                "ph": "C",
                "ts": e.cycle,
                "pid": pid,
                "tid": tid,
                "args": {"occupancy": e.occupancy},
            }


def _thread_meta(tid: int, name: str, pid: int = _PID) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def write_chrome_trace(path: str | Path, recorder: TraceRecorder) -> Path:
    """Write a Chrome trace-event JSON file (Perfetto-compatible); returns
    the path."""
    path = Path(path)
    payload = {
        "traceEvents": chrome_trace_events(recorder),
        "displayTimeUnit": "ms",
        "otherData": {"format": JSONL_FORMAT, "version": JSONL_VERSION},
    }
    path.write_text(json.dumps(payload))
    return path


def chrome_trace_path(jsonl_path: str | Path) -> Path:
    """Conventional Chrome-trace sibling of a JSONL path
    (``trace.jsonl`` → ``trace.chrome.json``)."""
    path = Path(jsonl_path)
    return path.with_suffix(".chrome.json")
