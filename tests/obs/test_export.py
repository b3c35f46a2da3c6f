"""Tests for the JSONL and Chrome trace-event exporters."""

import json

from repro import graph_from_edges
from repro.machine import paper_machine
from repro.obs import (
    TraceRecorder,
    chrome_trace_events,
    chrome_trace_path,
    read_jsonl,
    recording,
    sim_traces_from_records,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim import simulate_window


def _record_run():
    """A recorder holding one span, one counter and one simulated trace."""
    g = graph_from_edges([("a", "b", 2), ("a", "c", 0)])
    with recording(TraceRecorder()) as rec:
        from repro.obs import count, span

        with span("rank", nodes=3):
            pass
        count("merge.relaxations", 2)
        result = simulate_window(g, ["a", "b", "c"], paper_machine(2))
    return rec, result


class TestJsonl:
    def test_round_trip(self, tmp_path):
        rec, result = _record_run()
        path = write_jsonl(tmp_path / "t.jsonl", rec)
        records = list(read_jsonl(path))
        types = {r["type"] for r in records}
        assert {"meta", "span", "counter", "sim_trace", "sim"} <= types
        meta = records[0]
        assert meta["format"] == "repro-trace"

        rebuilt = sim_traces_from_records(records)
        assert len(rebuilt) == 1
        assert rebuilt[0].stall_cycles == result.stall_cycles
        assert rebuilt[0].issue_count == 3
        assert rebuilt[0].window_size == 2

    def test_sim_trace_header_carries_stall_count(self, tmp_path):
        rec, result = _record_run()
        records = list(read_jsonl(write_jsonl(tmp_path / "t.jsonl", rec)))
        header = next(r for r in records if r["type"] == "sim_trace")
        assert header["stall_cycles"] == result.stall_cycles
        assert header["window_size"] == 2


class TestChromeTrace:
    def test_valid_json_with_expected_phases(self, tmp_path):
        rec, _ = _record_run()
        path = write_chrome_trace(tmp_path / "t.chrome.json", rec)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        phases = {e["ph"] for e in events}
        assert "X" in phases  # spans + issue slices
        assert "M" in phases  # thread metadata
        assert "C" in phases  # occupancy counter
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "rank" in names  # the pipeline span
        assert {"a", "b", "c"} <= names  # issue slices

    def test_stall_instants_present(self):
        rec, result = _record_run()
        events = chrome_trace_events(rec)
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == result.stall_cycles

    def test_chrome_trace_path_convention(self):
        assert chrome_trace_path("run.jsonl").name == "run.chrome.json"
        assert chrome_trace_path("run").name == "run.chrome.json"


class TestRecordsToRecorder:
    def test_waterfall_records_replay_through_chrome_exporter(self):
        from repro.obs.export import records_to_recorder
        from repro.obs.recorder import SpanRecord

        records = [
            {"type": "meta", "format": "repro-trace", "version": 2,
             "trace_id": "cafe", "pid": 10, "spans": 2, "sim_traces": 0},
            SpanRecord("serve.request", 1_000_000, 2_000_000, 0,
                       {}, 10, "cafe").to_dict(),
            SpanRecord("serve.worker.schedule", 1_500_000, 500_000, 2,
                       {}, 99, "cafe").to_dict(),
            {"type": "counter", "name": "serve.cache.miss", "value": 1},
        ]
        rec = records_to_recorder(records)
        assert rec.context.trace_id == "cafe" and rec.context.pid == 10
        assert [s.name for s in rec.spans] == [
            "serve.request", "serve.worker.schedule",
        ]
        assert rec.counters == {"serve.cache.miss": 1}
        events = chrome_trace_events(rec)
        slices = [e for e in events if e.get("ph") == "X"]
        assert {e["pid"] for e in slices} == {10, 99}
