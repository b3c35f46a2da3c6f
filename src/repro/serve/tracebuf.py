"""Tail-sampling trace buffer: the daemon's flight recorder.

Head sampling (keep every Nth trace) is the wrong tool for a serving tier:
the traces worth keeping — errors, cache misses that ran the scheduler,
p99 outliers — are precisely the rare ones a uniform sample discards.
:class:`TraceBuffer` samples on the *tail* instead: the keep/drop decision
is made after the request finishes, when its status and duration are
known.  Three bounded rings:

- ``recent`` — the last N requests regardless of outcome (context for the
  interesting ones);
- ``errors`` — every request that answered ``ok: false``;
- ``slow`` — every request at or above the rolling-window p99 duration,
  plus every cache miss slower than the rolling median (a miss ran the
  scheduler; a slow miss is where capacity goes);
- ``degraded`` — every request answered from the guard's verified
  fallback (``degraded: <reason>`` on the response): degradation is the
  serving tier's canary, so it gets its own keep-rule instead of hiding
  in ``recent``.

Each retained :class:`RequestTrace` carries the full span tree the service
recorded for that request — daemon-side phases (decode / canonicalize /
cache_probe / dispatch / respond) and the pool worker's spans, all stamped
with the request's trace id — and exports through the existing JSONL
schema (:mod:`repro.obs.export`), so ``repro trace`` renders a retained
request as a waterfall and ``write_chrome_trace`` ships it to Perfetto.

Thread-safety: ``add`` runs on the daemon's dispatcher thread while
``snapshot`` runs on the asyncio thread answering ``/debug/traces``; a
single lock covers both.
"""

from __future__ import annotations

import bisect
import threading
from collections import deque
from dataclasses import dataclass, field

from ..obs.export import JSONL_FORMAT, JSONL_VERSION
from ..obs.metrics import nearest_rank
from ..obs.recorder import SpanRecord

#: Meta-record tag marking a JSONL file as one request's span waterfall.
WATERFALL_KIND = "request_waterfall"

#: Default ring sizes.
DEFAULT_CAPACITY = 256
DEFAULT_SLOW_CAPACITY = 64
DEFAULT_ERROR_CAPACITY = 64
DEFAULT_DEGRADED_CAPACITY = 64

#: Rolling duration window used for the p99 / median thresholds.
DEFAULT_SAMPLE_WINDOW = 512


@dataclass
class RequestTrace:
    """One finished request and everything known about where its time went."""

    trace_id: str
    request_id: object
    scheduler: str
    digest: str | None
    cached: bool
    status: str  # "ok" | "error"
    start_ns: int
    duration_ns: int
    batch: int
    transport: str = "unknown"
    worker_pid: int | None = None
    error: str | None = None
    #: Guard degradation reason (``timeout``, ``node_budget``, ...) when the
    #: response was served from the verified fallback; None on the primary
    #: path.
    degraded: str | None = None
    #: Full span tree: ``serve.request`` root at depth 0, daemon phases at
    #: depth 1, worker spans at depth 2+ — every one stamped with
    #: ``trace_id``.
    spans: list[SpanRecord] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.duration_ns / 1e9

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "id": self.request_id,
            "scheduler": self.scheduler,
            "digest": self.digest,
            "cached": self.cached,
            "status": self.status,
            "error": self.error,
            "degraded": self.degraded,
            "start_us": self.start_ns // 1000,
            "duration_s": self.duration_s,
            "batch": self.batch,
            "transport": self.transport,
            "worker_pid": self.worker_pid,
            "spans": [s.to_dict() for s in self.spans],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RequestTrace":
        return cls(
            trace_id=str(d["trace_id"]),
            request_id=d.get("id"),
            scheduler=str(d.get("scheduler", "")),
            digest=d.get("digest"),
            cached=bool(d.get("cached", False)),
            status=str(d.get("status", "ok")),
            error=d.get("error"),
            degraded=d.get("degraded"),
            start_ns=int(d.get("start_us", 0)) * 1000,
            duration_ns=int(float(d.get("duration_s", 0.0)) * 1e9),
            batch=int(d.get("batch", 0)),
            transport=str(d.get("transport", "unknown")),
            worker_pid=d.get("worker_pid"),
            spans=[SpanRecord.from_dict(s) for s in d.get("spans", [])],
        )

    def waterfall_records(self) -> list[dict]:
        """The trace as JSONL records (meta + spans) loadable by
        :func:`repro.obs.read_jsonl` — the same schema ``repro
        trace`` replays, tagged ``kind: request_waterfall`` so the CLI
        renders a per-span waterfall instead of aggregate phase tables."""
        meta = {
            "type": "meta",
            "format": JSONL_FORMAT,
            "version": JSONL_VERSION,
            "kind": WATERFALL_KIND,
            "trace_id": self.trace_id,
            "request": {
                "id": self.request_id,
                "scheduler": self.scheduler,
                "digest": self.digest,
                "cached": self.cached,
                "status": self.status,
                "error": self.error,
                "duration_s": self.duration_s,
                "transport": self.transport,
                "worker_pid": self.worker_pid,
            },
            "spans": len(self.spans),
            "sim_traces": 0,
        }
        return [meta] + [s.to_dict() for s in self.spans]


class _DurationWindow:
    """Rolling window of the last N durations with O(log n) percentile
    lookup (a sorted shadow list updated by bisect on insert/evict)."""

    def __init__(self, size: int) -> None:
        self._fifo: deque[int] = deque(maxlen=size)
        self._sorted: list[int] = []

    def add(self, duration_ns: int) -> None:
        if len(self._fifo) == self._fifo.maxlen:
            oldest = self._fifo[0]
            del self._sorted[bisect.bisect_left(self._sorted, oldest)]
        self._fifo.append(duration_ns)
        bisect.insort(self._sorted, duration_ns)

    def percentile(self, p: float) -> int | None:
        """Nearest-rank percentile over the window (None when empty)."""
        return nearest_rank(self._sorted, p)

    def __len__(self) -> int:
        return len(self._fifo)


class TraceBuffer:
    """Bounded tail-sampling rings over finished :class:`RequestTrace`\\ s."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        slow_capacity: int = DEFAULT_SLOW_CAPACITY,
        error_capacity: int = DEFAULT_ERROR_CAPACITY,
        sample_window: int = DEFAULT_SAMPLE_WINDOW,
        degraded_capacity: int = DEFAULT_DEGRADED_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._recent: deque[RequestTrace] = deque(maxlen=capacity)
        self._slow: deque[RequestTrace] = deque(maxlen=slow_capacity)
        self._errors: deque[RequestTrace] = deque(maxlen=error_capacity)
        self._degraded: deque[RequestTrace] = deque(maxlen=degraded_capacity)
        self._window = _DurationWindow(sample_window)
        self._lock = threading.Lock()
        self.added = 0

    # -- writing (dispatcher thread) -------------------------------------------

    def add(self, trace: RequestTrace) -> None:
        with self._lock:
            self.added += 1
            self._recent.append(trace)
            if trace.status != "ok":
                self._errors.append(trace)
            if trace.degraded is not None:
                self._degraded.append(trace)
            self._window.add(trace.duration_ns)
            p99 = self._window.percentile(99.0)
            p50 = self._window.percentile(50.0)
            if (p99 is not None and trace.duration_ns >= p99) or (
                not trace.cached
                and trace.status == "ok"
                and p50 is not None
                and trace.duration_ns > p50
            ):
                self._slow.append(trace)

    # -- reading (asyncio thread) ---------------------------------------------

    def _select(
        self,
        ring: deque,
        n: int | None,
        trace_id: str | None,
    ) -> list[RequestTrace]:
        out = [
            t
            for t in ring
            if trace_id is None or t.trace_id == trace_id
        ]
        if n is not None and n >= 0:
            out = out[-n:]
        return out

    def recent(
        self, n: int | None = None, trace_id: str | None = None
    ) -> list[RequestTrace]:
        with self._lock:
            return self._select(self._recent, n, trace_id)

    def slow(
        self, n: int | None = None, trace_id: str | None = None
    ) -> list[RequestTrace]:
        with self._lock:
            return self._select(self._slow, n, trace_id)

    def errors(
        self, n: int | None = None, trace_id: str | None = None
    ) -> list[RequestTrace]:
        with self._lock:
            return self._select(self._errors, n, trace_id)

    def degraded(
        self, n: int | None = None, trace_id: str | None = None
    ) -> list[RequestTrace]:
        with self._lock:
            return self._select(self._degraded, n, trace_id)

    def find(self, trace_id: str) -> RequestTrace | None:
        """The most recent retained trace with this id, from any ring."""
        with self._lock:
            for ring in (
                self._recent,
                self._slow,
                self._errors,
                self._degraded,
            ):
                for trace in reversed(ring):
                    if trace.trace_id == trace_id:
                        return trace
        return None

    def stats(self) -> dict:
        with self._lock:
            return {
                "added": self.added,
                "recent": len(self._recent),
                "slow": len(self._slow),
                "errors": len(self._errors),
                "degraded": len(self._degraded),
                "p50_s": _ns_to_s(self._window.percentile(50.0)),
                "p99_s": _ns_to_s(self._window.percentile(99.0)),
            }


def _ns_to_s(ns: int | None) -> float | None:
    return None if ns is None else ns / 1e9


def waterfall_text(records: list[dict]) -> list[str]:
    """Render waterfall JSONL records as indented text lines — one bar per
    span, offset + duration, worker spans marked with their pid.  Shared by
    ``repro trace`` and the smoke harness."""
    spans = [SpanRecord.from_dict(r) for r in records if r.get("type") == "span"]
    if not spans:
        return ["(no spans)"]
    t0 = min(s.start_ns for s in spans)
    t_end = max(s.start_ns + s.duration_ns for s in spans)
    total = max(t_end - t0, 1)
    width = 32
    lines = []
    for s in sorted(spans, key=lambda s: (s.start_ns, s.depth)):
        left = int((s.start_ns - t0) * width / total)
        bar = int(max(1, (s.duration_ns * width) // total))
        gutter = " " * left + "#" * min(bar, width - left)
        tag = f" [pid {s.pid}]" if s.pid is not None else ""
        lines.append(
            f"{gutter:<{width}}  {'  ' * s.depth}{s.name:<28} "
            f"+{(s.start_ns - t0) / 1e6:8.3f} ms  "
            f"{s.duration_ns / 1e6:8.3f} ms{tag}"
        )
    return lines
