"""Cross-process telemetry pipeline: trace contexts, cell records, spools.

The recorder (:mod:`repro.obs.recorder`) is strictly in-process: the moment
work fans out over the workers of :class:`repro.robust.pool.ExecutionPool`,
every worker-side span, counter and :class:`~repro.obs.events.SimTrace`
would be recorded into the worker's *copy* of the recorder and silently
dropped.  This module is the substrate that carries that telemetry back to
the parent:

- :class:`TraceContext` — a ``(trace_id, parent_span_id, pid)`` triple every
  recorder carries and stamps onto its spans.  The parent derives one child
  context per item (:meth:`TraceContext.child`), the worker activates it,
  and the whole sweep shares one ``trace_id`` — so the merged stream
  renders as a single coherent trace tree across processes.
- **Cell records** — :class:`recorded_cell` runs one execution under a
  fresh recorder and turns everything it collected into one self-contained
  JSON-able record (:func:`cell_record`).  The pool sends it back over the
  worker's result pipe together with the answer, so a worker that dies
  mid-item loses only that item's record.
- **Spools** — a parent that wants its telemetry on disk appends each
  record as one line to its own ``spool-<pid>.jsonl``
  (:class:`spooled_cell`, :func:`append_cell`) and flushes it at once: a
  writer killed mid-append leaves at worst a torn trailing line.
  :func:`merge_spools` reads every spool of a directory (skipping torn
  lines), timestamp-orders the spans across processes, and folds the
  records into a :class:`~repro.obs.recorder.TraceRecorder` and a
  :class:`~repro.obs.metrics.MetricsRegistry`.

The spools' :func:`append_jsonl` / :func:`read_jsonl` also back the serve
cache's store and the sweep's checkpoints.

Merging counts *executions*, not logical cells: a cell that ran twice
(a retried attempt that raised, then succeeded) has two records and is
counted twice, exactly as it would have been had both executions happened
in-process.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .events import SimEvent, SimTrace
from .metrics import MetricsRegistry
from .recorder import SpanRecord, TraceRecorder

#: Version of the one-line-per-cell spool schema.
SPOOL_VERSION = 1

#: Spool file name pattern (one file per writing process).
SPOOL_GLOB = "spool-*.jsonl"

#: Default histogram buckets (seconds) for span-duration metrics derived
#: from merged spools — log-spaced from 10 µs to 10 s.
SPAN_DURATION_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)


@dataclass(frozen=True)
class TraceContext:
    """Identity a recorder stamps on its telemetry.

    ``trace_id`` names the whole distributed trace (one per session or
    sweep); ``parent_span_id`` names the parent-side span this context is a
    child of (``None`` for a root context); ``pid`` is the process that
    created the context.  Contexts are immutable and survive fork by
    construction: a worker never *inherits* one, it activates the child
    context it was explicitly handed (re-stamped with its own pid).
    """

    trace_id: str
    parent_span_id: str | None = None
    pid: int = field(default_factory=os.getpid)

    @classmethod
    def new(cls) -> "TraceContext":
        """A fresh root context with a random 16-hex trace id."""
        return cls(trace_id=uuid.uuid4().hex[:16])

    def child(self, parent_span_id: str) -> "TraceContext":
        """A child context under ``parent_span_id`` (e.g. ``"cell-3"``),
        sharing this trace id, stamped with the calling process's pid."""
        return TraceContext(
            trace_id=self.trace_id,
            parent_span_id=parent_span_id,
            pid=os.getpid(),
        )

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "pid": self.pid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TraceContext":
        return cls(
            trace_id=str(d["trace_id"]),
            parent_span_id=d.get("parent_span_id"),
            pid=int(d.get("pid", 0)),
        )


# -- cell records and spool writing -----------------------------------------


def spool_path(directory: str | os.PathLike) -> Path:
    """The spool file this process appends to inside ``directory``."""
    return Path(directory) / f"spool-{os.getpid()}.jsonl"


def _sim_trace_dict(trace: SimTrace) -> dict:
    return {
        "window_size": trace.window_size,
        "instructions": trace.num_instructions,
        "label": trace.label,
        "events": [e.to_dict() for e in trace.events],
    }


def _sim_trace_from_dict(d: dict) -> SimTrace:
    trace = SimTrace(
        window_size=int(d.get("window_size", 0)),
        num_instructions=int(d.get("instructions", 0)),
        label=str(d.get("label", "")),
    )
    trace.events = [SimEvent.from_dict(e) for e in d.get("events", [])]
    return trace


def cell_record(recorder: TraceRecorder, cell: int, ok: bool = True) -> dict:
    """One spool line: everything ``recorder`` collected for one cell."""
    ctx = recorder.context
    return {
        "type": "cell",
        "v": SPOOL_VERSION,
        "cell": cell,
        "ok": ok,
        "trace_id": ctx.trace_id,
        "parent_span_id": ctx.parent_span_id,
        "pid": os.getpid(),
        "spans": [s.to_dict() for s in recorder.spans],
        "counters": dict(recorder.counters),
        "counter_samples": [
            [t, name, value] for t, name, value, _pid in recorder.counter_samples
        ],
        "sim_traces": [_sim_trace_dict(t) for t in recorder.sim_traces],
    }


def append_jsonl(path: str | os.PathLike, record: dict) -> None:
    """Append ``record`` to ``path`` as one sorted-keys JSON line, creating
    the directory first, and flush so the line survives ``os._exit`` of
    the writer: a record is either fully on disk or a torn last line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # flush() pushes the line into the OS page cache, which survives
    # os._exit / SIGKILL of the writer (only a machine crash could lose it).
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()


def read_jsonl(path: str | os.PathLike) -> Iterator[dict | None]:
    """One item per non-blank line of an append-only JSONL file: the parsed
    record, or ``None`` for a torn, non-UTF-8 or non-object line (a writer
    died mid-append), so callers can skip or count it.  A missing file
    yields nothing."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return
    for line in data.splitlines():
        if line.strip():
            yield _json_object(line)


def _json_object(line: bytes) -> dict | None:
    try:
        rec = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return rec if isinstance(rec, dict) else None


def append_cell(directory: str | os.PathLike, record: dict) -> Path:
    """Append one cell record to this process's spool file — the whole
    crash-safety story is "a cell is either fully on disk or absent"."""
    path = spool_path(directory)
    append_jsonl(path, record)
    return path


class recorded_cell:
    """Context manager that records one cell execution.

    Installs a fresh :class:`TraceRecorder` under ``context`` (re-stamped
    with this process's pid) with the given ``sim_events`` setting, records
    a ``sweep.cell`` root span around the cell, and on exit — *including*
    the exception path, since a raising cell still executed — restores the
    previously active recorder and leaves the finished :func:`cell_record`
    in :attr:`record` (``ok: false`` when the cell raised).
    """

    def __init__(
        self, context: TraceContext, cell: int, sim_events: bool = True
    ) -> None:
        self.context = TraceContext(
            trace_id=context.trace_id,
            parent_span_id=context.parent_span_id,
        )
        self.cell = cell
        self.sim_events = sim_events
        self.record: dict | None = None

    def __enter__(self) -> TraceRecorder:
        from . import recorder as obs

        self.recorder = TraceRecorder(
            sim_events=self.sim_events, context=self.context
        )
        self._previous = obs.set_recorder(self.recorder)
        self._span = self.recorder.span("sweep.cell", cell=self.cell)
        self._span.__enter__()
        return self.recorder

    def __exit__(self, exc_type, exc, tb) -> bool:
        from . import recorder as obs

        self._span.__exit__(exc_type, exc, tb)
        obs.set_recorder(self._previous)
        self.record = cell_record(self.recorder, self.cell, ok=exc_type is None)
        return False


class spooled_cell(recorded_cell):
    """A :class:`recorded_cell` whose record is appended to ``directory``'s
    spool on exit.  A process that dies mid-cell never reaches the append,
    so completed cells are never torn."""

    def __init__(
        self,
        directory: str | os.PathLike,
        context: TraceContext,
        cell: int,
        sim_events: bool = True,
    ) -> None:
        super().__init__(context, cell, sim_events)
        self.directory = directory

    def __exit__(self, exc_type, exc, tb) -> bool:
        super().__exit__(exc_type, exc, tb)
        append_cell(self.directory, self.record)
        return False


# -- spool reading and merging (parent side) ---------------------------------


@dataclass
class CellTelemetry:
    """One cell execution recovered from its cell record."""

    cell: int
    pid: int
    trace_id: str
    parent_span_id: str | None
    ok: bool
    spans: list[SpanRecord] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    #: ``(t_ns, name, worker-cumulative total, pid)`` samples.
    counter_samples: list[tuple[int, str, int, int]] = field(default_factory=list)
    sim_traces: list[SimTrace] = field(default_factory=list)

    @property
    def start_ns(self) -> int:
        return min((s.start_ns for s in self.spans), default=0)


def _cell_from_record(rec: dict) -> CellTelemetry:
    pid = int(rec.get("pid", 0))
    return CellTelemetry(
        cell=int(rec.get("cell", -1)),
        pid=pid,
        trace_id=str(rec.get("trace_id", "")),
        parent_span_id=rec.get("parent_span_id"),
        ok=bool(rec.get("ok", True)),
        spans=[SpanRecord.from_dict(s) for s in rec.get("spans", [])],
        counters={str(k): int(v) for k, v in rec.get("counters", {}).items()},
        counter_samples=[
            (int(t), str(name), int(value), pid)
            for t, name, value in rec.get("counter_samples", [])
        ],
        sim_traces=[_sim_trace_from_dict(t) for t in rec.get("sim_traces", [])],
    )


def iter_spool_records(path: str | os.PathLike) -> Iterator[dict]:
    """Parsed cell records of one spool file.  Torn trailing lines (a
    worker died mid-append) and non-cell records are skipped, so a spool is
    readable at any moment — during the sweep, and after a crash."""
    for rec in read_jsonl(path):
        if _is_cell(rec):
            yield rec


def _is_cell(rec: dict | None) -> bool:
    return bool(rec) and rec.get("type") == "cell" and rec.get("v") == SPOOL_VERSION


def read_spools(directory: str | os.PathLike) -> list[CellTelemetry]:
    """All cell executions recovered from ``directory``'s spool files,
    ordered by earliest span start (i.e. wall-clock across processes)."""
    return SpoolMerge.from_records(
        rec
        for path in sorted(Path(directory).glob(SPOOL_GLOB))
        for rec in iter_spool_records(path)
    ).cells


def clear_spools(directory: str | os.PathLike) -> int:
    """Delete existing spool files in ``directory`` (a new sweep must not
    merge a previous sweep's telemetry); returns the number removed."""
    removed = 0
    for path in Path(directory).glob(SPOOL_GLOB):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


@dataclass
class SpoolMerge:
    """The merged view of a set of cell executions: a spool directory, or
    the records a pool batch brought back."""

    cells: list[CellTelemetry]

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "SpoolMerge":
        """The merge of ``records`` (:func:`cell_record` dicts), cells
        ordered by earliest span start, then pid and cell id."""
        cells = [_cell_from_record(rec) for rec in records]
        cells.sort(key=lambda c: (c.start_ns, c.pid, c.cell))
        return cls(cells)

    @property
    def spans(self) -> list[SpanRecord]:
        """All worker spans, timestamp-ordered across processes (fork
        children share the parent's monotonic clock base, so cross-process
        ordering by ``start_ns`` is meaningful)."""
        out = [s for c in self.cells for s in c.spans]
        out.sort(key=lambda s: s.start_ns)
        return out

    @property
    def counters(self) -> dict[str, int]:
        """Counter totals summed over every cell execution."""
        out: dict[str, int] = {}
        for c in self.cells:
            for name, value in c.counters.items():
                out[name] = out.get(name, 0) + value
        return out

    @property
    def counter_samples(self) -> list[tuple[int, str, int, int]]:
        out = [s for c in self.cells for s in c.counter_samples]
        out.sort(key=lambda s: s[0])
        return out

    @property
    def sim_traces(self) -> list[SimTrace]:
        return [t for c in self.cells for t in c.sim_traces]

    @property
    def pids(self) -> list[int]:
        return sorted({c.pid for c in self.cells})

    def span_durations(self) -> dict[str, list[float]]:
        """Per span name: every recorded duration in seconds."""
        out: dict[str, list[float]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span.duration_s)
        return out

    def merge_into(self, recorder: TraceRecorder) -> None:
        """Fold every cell record into ``recorder`` — spans
        timestamp-ordered, counters accumulated (with their sample
        timelines), sim traces appended with a ``[pid N]`` label suffix so
        per-worker tracks stay distinguishable in exports."""
        recorder.spans.extend(self.spans)
        recorder.spans.sort(key=lambda s: s.start_ns)
        for name, value in sorted(self.counters.items()):
            recorder.counters[name] = recorder.counters.get(name, 0) + value
        recorder.counter_samples.extend(self.counter_samples)
        recorder.counter_samples.sort(key=lambda s: s[0])
        for cell in self.cells:
            for trace in cell.sim_traces:
                tag = f"[pid {cell.pid}]"
                if tag not in trace.label:
                    trace.label = f"{trace.label} {tag}".strip()
                recorder.add_sim_trace(trace)

    def registry(self, prefix: str = "") -> MetricsRegistry:
        """A :class:`MetricsRegistry` view of the merge: every merged
        counter, per-phase span-duration histograms
        (``<prefix>span.<name>.duration_s``), and cell bookkeeping."""
        registry = MetricsRegistry()
        for name, value in sorted(self.counters.items()):
            registry.counter(f"{prefix}{name}").inc(value)
        for name, durations in sorted(self.span_durations().items()):
            hist = registry.histogram(
                f"{prefix}span.{name}.duration_s", SPAN_DURATION_BUCKETS
            )
            for d in durations:
                hist.observe(d)
        registry.counter(f"{prefix}cells").inc(len(self.cells))
        registry.gauge(f"{prefix}workers").set(len(self.pids))
        return registry


def merge_spools(
    directory: str | os.PathLike, recorder: TraceRecorder | None = None
) -> SpoolMerge:
    """Read every spool in ``directory`` and (optionally) fold the result
    into ``recorder``; returns the :class:`SpoolMerge`."""
    merge = SpoolMerge(cells=read_spools(directory))
    if recorder is not None:
        merge.merge_into(recorder)
    return merge
