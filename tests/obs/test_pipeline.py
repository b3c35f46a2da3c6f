"""Tests for the cross-process telemetry pipeline: trace contexts, worker
spools, and the parent-side merge."""

import json
import os

from repro.obs import TraceRecorder, get_recorder, recording
from repro.obs.events import SimEvent, SimTrace
from repro.obs.pipeline import (
    SPOOL_VERSION,
    CellTelemetry,
    TraceContext,
    append_cell,
    append_jsonl,
    cell_record,
    clear_spools,
    iter_spool_records,
    merge_spools,
    read_spools,
    spool_path,
    spooled_cell,
)
from repro.obs.recorder import SpanRecord


class TestTraceContext:
    def test_new_has_random_trace_id_and_own_pid(self):
        a, b = TraceContext.new(), TraceContext.new()
        assert a.trace_id != b.trace_id
        assert len(a.trace_id) == 16
        assert a.parent_span_id is None
        assert a.pid == os.getpid()

    def test_child_shares_trace_id(self):
        root = TraceContext.new()
        child = root.child("cell-3")
        assert child.trace_id == root.trace_id
        assert child.parent_span_id == "cell-3"
        assert child.pid == os.getpid()

    def test_dict_roundtrip(self):
        ctx = TraceContext.new().child("cell-1")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_recorder_stamps_context_on_spans(self):
        ctx = TraceContext.new()
        rec = TraceRecorder(context=ctx)
        with rec.span("phase"):
            pass
        assert rec.spans[0].trace_id == ctx.trace_id
        assert rec.spans[0].pid == os.getpid()


class TestSpanRecordSchema:
    def test_v2_dict_roundtrip(self):
        rec = TraceRecorder()
        with rec.span("work", cell=3):
            pass
        d = rec.spans[0].to_dict()
        assert d["pid"] == os.getpid()
        assert d["trace_id"] == rec.context.trace_id
        back = SpanRecord.from_dict(d)
        assert back.name == "work"
        assert back.pid == os.getpid()
        assert back.trace_id == rec.context.trace_id
        assert back.attrs == {"cell": 3}

    def test_v1_dict_loads_without_pid(self):
        # A span record written before the pipeline existed.
        v1 = {"type": "span", "name": "rank", "start_us": 10,
              "dur_us": 5.0, "depth": 1}
        back = SpanRecord.from_dict(v1)
        assert back.pid is None and back.trace_id is None
        assert back.start_ns == 10_000 and back.duration_ns == 5_000


def _run_cell(directory, ctx, cell, fail=False, sim_trace=False):
    """One fake worker cell under spooled_cell."""
    try:
        with spooled_cell(directory, ctx, cell) as rec:
            from repro.obs import recorder as obs

            obs.count("cell.work", cell + 1)
            with obs.span("cell.inner"):
                pass
            if sim_trace:
                trace = SimTrace(window_size=2, num_instructions=1,
                                 label=f"sim {cell}")
                trace.events.append(SimEvent(cycle=0, kind="issue", node="a"))
                rec.add_sim_trace(trace)
            if fail:
                raise RuntimeError("cell blew up")
    except RuntimeError:
        pass


class TestSpooledCell:
    def test_one_line_per_cell_flushed(self, tmp_path):
        ctx = TraceContext.new()
        _run_cell(tmp_path, ctx.child("cell-0"), 0)
        _run_cell(tmp_path, ctx.child("cell-1"), 1)
        path = spool_path(tmp_path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["type"] == "cell" and rec["v"] == SPOOL_VERSION
        assert rec["trace_id"] == ctx.trace_id
        assert rec["pid"] == os.getpid()
        assert rec["ok"] is True

    def test_restores_previous_recorder(self, tmp_path):
        with recording() as outer:
            _run_cell(tmp_path, TraceContext.new(), 0)
            assert get_recorder() is outer
            # The cell's telemetry went to the spool, not the outer recorder.
            assert not outer.counters

    def test_exception_path_spools_ok_false(self, tmp_path):
        _run_cell(tmp_path, TraceContext.new(), 0, fail=True)
        cells = read_spools(tmp_path)
        assert len(cells) == 1 and cells[0].ok is False
        # The sweep.cell span and the counters still made it out.
        assert any(s.name == "sweep.cell" for s in cells[0].spans)
        assert cells[0].counters == {"cell.work": 1}

    def test_records_sweep_cell_root_span(self, tmp_path):
        _run_cell(tmp_path, TraceContext.new(), 7)
        (cell,) = read_spools(tmp_path)
        root = [s for s in cell.spans if s.name == "sweep.cell"]
        assert len(root) == 1 and root[0].attrs == {"cell": 7}
        assert root[0].depth == 0


class TestSpoolReading:
    def test_torn_trailing_line_skipped(self, tmp_path):
        ctx = TraceContext.new()
        _run_cell(tmp_path, ctx, 0)
        with spool_path(tmp_path).open("a", encoding="utf-8") as fh:
            fh.write('{"type": "cell", "v": 1, "cel')  # died mid-append
        assert len(list(iter_spool_records(spool_path(tmp_path)))) == 1
        assert len(read_spools(tmp_path)) == 1

    def test_missing_directory_is_empty(self, tmp_path):
        assert read_spools(tmp_path / "nope") == []

    def test_clear_spools(self, tmp_path):
        _run_cell(tmp_path, TraceContext.new(), 0)
        assert clear_spools(tmp_path) == 1
        assert read_spools(tmp_path) == []

    def test_non_utf8_line_skipped_by_every_reader(self, tmp_path):
        """One line of invalid UTF-8 is a torn line like any other: the
        cache store, a sweep checkpoint and a spool each keep their good
        line and skip the bad one."""
        from repro.robust.sweep import load_checkpoint, run_sweep_robust
        from repro.serve.cache import ScheduleCache

        bad = b'{"digest": "\xff\xfe\n'
        store = tmp_path / "store.jsonl"
        append_jsonl(store, {"digest": "d0", "entry": {"makespan": 3}})
        checkpoint = tmp_path / "checkpoint.jsonl"
        run_sweep_robust(abs, [-4], checkpoint=checkpoint)
        spool = tmp_path / "spool"
        _run_cell(spool, TraceContext.new(), 0)
        for path in (store, checkpoint, spool_path(spool)):
            with path.open("ab") as fh:
                fh.write(bad)

        cache = ScheduleCache(path=store)
        assert cache.get("d0") == {"makespan": 3}
        assert cache.store_lines == 2
        assert load_checkpoint(checkpoint) == {0: 4}
        assert [c.cell for c in read_spools(spool)] == [0]

    def test_unknown_version_skipped(self, tmp_path):
        path = spool_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"type": "cell", "v": 999}) + "\n")
        assert read_spools(tmp_path) == []


class TestMerge:
    def _spool(self, tmp_path, cells=3):
        ctx = TraceContext.new()
        for i in range(cells):
            _run_cell(tmp_path, ctx.child(f"cell-{i}"), i, sim_trace=True)
        return ctx

    def test_counters_summed_over_executions(self, tmp_path):
        self._spool(tmp_path)
        merge = merge_spools(tmp_path)
        # cell.work incremented by (cell + 1) per cell: 1 + 2 + 3.
        assert merge.counters == {"cell.work": 6}

    def test_spans_timestamp_ordered(self, tmp_path):
        self._spool(tmp_path)
        merge = merge_spools(tmp_path)
        starts = [s.start_ns for s in merge.spans]
        assert starts == sorted(starts)
        names = {s.name for s in merge.spans}
        assert names == {"sweep.cell", "cell.inner"}

    def test_merge_into_recorder_accumulates(self, tmp_path):
        self._spool(tmp_path)
        with recording() as rec:
            rec.count("parent.counter")
            merge_spools(tmp_path, rec)
        assert rec.counters["cell.work"] == 6
        assert rec.counters["parent.counter"] == 1
        assert len([s for s in rec.spans if s.name == "sweep.cell"]) == 3
        # Worker sim traces arrive labelled with their pid.
        assert all(f"[pid {os.getpid()}]" in t.label for t in rec.sim_traces)

    def test_registry_view(self, tmp_path):
        self._spool(tmp_path)
        merge = merge_spools(tmp_path)
        registry = merge.registry()
        assert registry["cell.work"].to_value() == 6
        assert registry["cells"].to_value() == 3
        assert registry["workers"].to_value() == 1
        hist = registry["span.sweep.cell.duration_s"]
        assert hist.to_value()["count"] == 3

    def test_merge_counts_executions_not_logical_cells(self, tmp_path):
        ctx = TraceContext.new()
        _run_cell(tmp_path, ctx.child("cell-0"), 0)
        _run_cell(tmp_path, ctx.child("cell-0"), 0)  # requeued re-execution
        merge = merge_spools(tmp_path)
        assert len(merge.cells) == 2
        assert merge.counters == {"cell.work": 2}

    def test_cell_telemetry_start_ns_default(self):
        empty = CellTelemetry(
            cell=0, pid=1, trace_id="t", parent_span_id=None, ok=True
        )
        assert empty.start_ns == 0


class TestCellRecordShape:
    def test_counter_samples_survive_roundtrip(self, tmp_path):
        ctx = TraceContext.new()
        rec = TraceRecorder(context=ctx)
        rec.count("x", 2)
        rec.count("x", 3)
        append_cell(tmp_path, cell_record(rec, cell=4))
        (cell,) = read_spools(tmp_path)
        assert [(n, v) for _, n, v, _ in cell.counter_samples] == [
            ("x", 2), ("x", 5),
        ]
        assert all(pid == os.getpid() for _, _, _, pid in cell.counter_samples)
