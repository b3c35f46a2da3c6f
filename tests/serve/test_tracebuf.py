"""Tests for the tail-sampling trace buffer and waterfall export."""

import pytest

from repro.obs import read_jsonl
from repro.obs.recorder import SpanRecord
from repro.serve.tracebuf import (
    RequestTrace,
    TraceBuffer,
    WATERFALL_KIND,
    _DurationWindow,
    waterfall_text,
)


def _trace(
    trace_id="t1",
    duration_ms=1.0,
    status="ok",
    cached=False,
    spans=(),
    **kw,
):
    return RequestTrace(
        trace_id=trace_id,
        request_id=kw.pop("request_id", None),
        scheduler="anticipatory",
        digest="d" * 16,
        cached=cached,
        status=status,
        start_ns=kw.pop("start_ns", 0),
        duration_ns=int(duration_ms * 1e6),
        batch=1,
        spans=list(spans),
        **kw,
    )


def _span(name, start_ns=0, dur_ns=1000, depth=0, pid=1, trace_id="t1"):
    return SpanRecord(
        name=name,
        start_ns=start_ns,
        duration_ns=dur_ns,
        depth=depth,
        attrs={},
        pid=pid,
        trace_id=trace_id,
    )


class TestDurationWindow:
    def test_nearest_rank_percentiles(self):
        w = _DurationWindow(size=100)
        for v in range(1, 101):
            w.add(v)
        assert w.percentile(50.0) == 50
        assert w.percentile(99.0) == 99
        assert w.percentile(100.0) == 100

    def test_eviction_keeps_shadow_sorted(self):
        w = _DurationWindow(size=3)
        for v in (10, 1, 5, 7):  # evicts 10
            w.add(v)
        assert w.percentile(100.0) == 7
        assert len(w) == 3

    def test_empty_window(self):
        assert _DurationWindow(4).percentile(99.0) is None


class TestTraceBufferSampling:
    def test_recent_ring_keeps_everything_bounded(self):
        buf = TraceBuffer(capacity=4)
        for i in range(10):
            buf.add(_trace(trace_id=f"t{i}"))
        assert [t.trace_id for t in buf.recent()] == ["t6", "t7", "t8", "t9"]
        assert buf.stats()["added"] == 10

    def test_errors_always_retained(self):
        buf = TraceBuffer()
        buf.add(_trace(trace_id="ok1"))
        buf.add(_trace(trace_id="bad", status="error"))
        assert [t.trace_id for t in buf.errors()] == ["bad"]

    def test_slow_retains_p99_outlier(self):
        buf = TraceBuffer()
        for i in range(100):
            buf.add(_trace(trace_id=f"fast{i}", duration_ms=1.0, cached=True))
        buf.add(_trace(trace_id="whale", duration_ms=50.0, cached=True))
        assert any(t.trace_id == "whale" for t in buf.slow())

    def test_slow_retains_uncached_above_median(self):
        buf = TraceBuffer()
        for i in range(50):
            buf.add(_trace(trace_id=f"hit{i}", duration_ms=1.0, cached=True))
        buf.add(_trace(trace_id="miss", duration_ms=2.0, cached=False))
        assert any(t.trace_id == "miss" for t in buf.slow())

    def test_fast_cached_ok_not_in_slow_ring(self):
        buf = TraceBuffer()
        for i in range(50):
            buf.add(_trace(trace_id=f"w{i}", duration_ms=5.0, cached=True))
        buf.add(_trace(trace_id="quick", duration_ms=0.01, cached=True))
        assert all(t.trace_id != "quick" for t in buf.slow())

    def test_find_and_filtering(self):
        buf = TraceBuffer()
        for i in range(5):
            buf.add(_trace(trace_id=f"t{i}"))
        assert buf.find("t3").trace_id == "t3"
        assert buf.find("nope") is None
        assert len(buf.recent(n=2)) == 2
        assert [t.trace_id for t in buf.recent(trace_id="t1")] == ["t1"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            TraceBuffer(capacity=0)

    def test_stats_shape(self):
        buf = TraceBuffer()
        buf.add(_trace(duration_ms=2.0))
        stats = buf.stats()
        assert stats["recent"] == 1
        assert stats["p50_s"] == pytest.approx(0.002)


class TestWaterfall:
    def _spans(self):
        return [
            _span("serve.request", 0, 10_000, depth=0),
            _span("serve.phase.dispatch", 2_000, 7_000, depth=1),
            _span("serve.worker.schedule", 3_000, 5_000, depth=2, pid=99),
        ]

    def test_roundtrip_dict(self):
        t = _trace(spans=self._spans(), worker_pid=99)
        back = RequestTrace.from_dict(t.to_dict())
        assert back.trace_id == t.trace_id
        assert [s.name for s in back.spans] == [s.name for s in t.spans]
        assert back.spans[2].pid == 99

    def test_waterfall_records_are_jsonl_schema(self, tmp_path):
        t = _trace(spans=self._spans())
        records = t.waterfall_records()
        meta = records[0]
        assert meta["type"] == "meta" and meta["kind"] == WATERFALL_KIND
        assert meta["trace_id"] == "t1" and meta["spans"] == 3
        path = tmp_path / "wf.jsonl"
        import json

        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert [r.get("type") for r in read_jsonl(path)] == [
            "meta", "span", "span", "span",
        ]

    def test_waterfall_text_renders_every_span(self):
        lines = waterfall_text(_trace(spans=self._spans()).waterfall_records())
        assert len(lines) == 3
        assert "serve.request" in lines[0]
        assert "[pid 99]" in lines[2]
        # Deeper spans are indented further right than their parents.
        assert lines[2].index("serve.worker") > lines[0].index("serve.request")

    def test_waterfall_text_empty(self):
        assert waterfall_text([]) == ["(no spans)"]
