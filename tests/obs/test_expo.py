"""Tests for Prometheus-style exposition and the live `repro top` view."""

import io

from repro.obs import recorder as obs
from repro.obs.expo import (
    daemon_snapshot,
    prometheus_text,
    sanitize_metric_name,
    top_snapshot,
    watch,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.pipeline import TraceContext, merge_spools, spooled_cell


class TestSanitize:
    def test_dots_and_dashes_become_underscores(self):
        assert sanitize_metric_name("span.sweep-cell.wall_s") == (
            "span_sweep_cell_wall_s"
        )

    def test_leading_digit_prefixed(self):
        name = sanitize_metric_name("0weird")
        assert not name[0].isdigit()


class TestPrometheusText:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("guard.fallback").inc(3)
        reg.gauge("workers").set(2)
        h = reg.histogram(
            "span.sweep.cell.duration_s", buckets=(0.001, 0.01, 0.1)
        )
        h.observe(0.0005)
        h.observe(0.05)
        h.observe(5.0)
        return reg

    def test_counter_gets_total_suffix(self):
        text = prometheus_text(self._registry())
        assert "# TYPE repro_guard_fallback_total counter" in text
        assert "repro_guard_fallback_total 3" in text

    def test_gauge_plain(self):
        text = prometheus_text(self._registry())
        assert "# TYPE repro_workers gauge" in text
        assert "repro_workers 2" in text

    def test_histogram_buckets_cumulative_with_inf(self):
        text = prometheus_text(self._registry())
        prefix = "repro_span_sweep_cell_duration_s"
        assert f'{prefix}_bucket{{le="0.001"}} 1' in text
        assert f'{prefix}_bucket{{le="0.01"}} 1' in text
        assert f'{prefix}_bucket{{le="0.1"}} 2' in text
        assert f'{prefix}_bucket{{le="+Inf"}} 3' in text
        assert f"{prefix}_count 3" in text
        assert f"{prefix}_sum 5.0505" in text

    def test_labels_applied_to_every_sample(self):
        text = prometheus_text(
            self._registry(), labels={"trace_id": "abc123"}
        )
        sample_lines = [
            ln for ln in text.splitlines() if ln and not ln.startswith("#")
        ]
        assert sample_lines
        assert all('trace_id="abc123"' in ln for ln in sample_lines)

    def test_label_values_escape_quotes_backslashes_and_newlines(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        text = prometheus_text(
            reg, labels={"path": 'a"b\\c\nd'}
        )
        # The exposition format requires \n inside label values to be the
        # two-character escape, never a raw newline (which would tear the
        # sample line in half and corrupt the whole scrape).
        sample = [
            ln for ln in text.splitlines()
            if ln and not ln.startswith("#")
        ]
        assert len(sample) == 1
        assert '\\"b' in sample[0]
        assert "\\\\c" in sample[0]
        assert "\\nd" in sample[0]

    def test_namespace_override(self):
        text = prometheus_text(self._registry(), namespace="spaa96")
        assert "spaa96_guard_fallback_total 3" in text
        assert "repro_" not in text

    def test_help_lines_present(self):
        text = prometheus_text(self._registry())
        assert "# HELP repro_guard_fallback_total" in text

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()).strip() == ""


def _make_spool(directory, cells=3):
    ctx = TraceContext.new()
    for i in range(cells):
        with spooled_cell(directory, ctx.child(f"cell-{i}"), i):
            obs.count("guard.schedule")
            with obs.span("rank"):
                pass
    return ctx


class TestTopSnapshot:
    def test_snapshot_shows_phases_and_counters(self, tmp_path):
        _make_spool(tmp_path)
        snap = top_snapshot(merge_spools(tmp_path))
        assert "cells 3 (3 ok)" in snap
        assert "workers 1" in snap
        assert "sweep.cell" in snap and "rank" in snap
        assert "p50 ms" in snap and "p99 ms" in snap
        assert "guard.schedule" in snap

    def test_rates_need_previous_frame(self, tmp_path):
        _make_spool(tmp_path)
        merge = merge_spools(tmp_path)
        no_prev = top_snapshot(merge)
        with_prev = top_snapshot(merge, previous=merge, dt_s=1.0)
        # Without a previous frame the rate column is a dash; with an
        # identical previous frame the delta is zero.
        assert "-" in no_prev
        assert "rate/s" in with_prev

    def test_empty_directory_snapshot(self, tmp_path):
        snap = top_snapshot(merge_spools(tmp_path))
        assert "cells 0" in snap


class TestWatchSpools:
    def test_bounded_iterations_with_fake_clock(self, tmp_path):
        _make_spool(tmp_path)
        out = io.StringIO()
        times = iter(float(i) for i in range(10))
        slept = []
        frames = watch(
            lambda: merge_spools(tmp_path),
            top_snapshot,
            str(tmp_path),
            interval_s=0.5,
            iterations=3,
            out=out,
            clock=lambda: next(times),
            sleep=slept.append,
        )
        assert frames == 3
        text = out.getvalue()
        assert text.count("repro top") == 3
        assert "frame 3" in text
        # Sleeps between frames, none after the last.
        assert len(slept) == 2

    def test_keyboard_interrupt_exits_cleanly(self, tmp_path):
        _make_spool(tmp_path)
        out = io.StringIO()

        def boom(_):
            raise KeyboardInterrupt

        frames = watch(
            lambda: merge_spools(tmp_path), top_snapshot, str(tmp_path),
            interval_s=0.1, iterations=5, out=out, sleep=boom,
        )
        assert frames == 1


class TestDaemonSnapshot:
    def _doc(self):
        return {
            "stats": {
                "requests": 10,
                "errors": 1,
                "batches": 4,
                "uptime_s": 12.5,
                "cache": {"hits": 6, "misses": 4},
                "cache_hit_ratio": 0.6,
                "transports": {"unix": 8, "http": 2},
                "traces": {"added": 10, "recent": 10, "slow": 1, "errors": 1},
                "slo": {
                    "objective": 0.99,
                    "total": 10,
                    "bad": 1,
                    "fast_burn_rate": 10.0,
                    "slow_burn_rate": 10.0,
                    "page": False,
                    "ticket": True,
                },
            },
            "metrics": {
                "serve.requests": 10,
                "serve.request.anticipatory.duration_s": {
                    "count": 10, "mean": 0.002, "min": 0.001, "max": 0.01,
                    "p50": 0.002, "p90": 0.005, "p99": 0.01,
                },
            },
        }

    def test_frame_contains_core_fields(self):
        frame = daemon_snapshot(self._doc())
        assert "requests 10" in frame
        assert "60% hit" in frame
        assert "unix" in frame and "http" in frame
        assert "anticipatory" in frame

    def test_throughput_from_previous_frame(self):
        doc = self._doc()
        prev = {"stats": {"requests": 5}}
        frame = daemon_snapshot(doc, previous=prev, dt_s=1.0, width=120)
        assert "5.0 req/s" in frame

    def test_empty_doc_renders(self):
        assert "requests 0" in daemon_snapshot({})


class TestWatchDaemon:
    def test_renders_requested_frames(self):
        docs = iter([
            {"stats": {"requests": 1}},
            {"stats": {"requests": 2}},
        ])
        out = io.StringIO()
        t = [0.0]

        def clock():
            t[0] += 1.0
            return t[0]

        frames = watch(
            lambda: next(docs), daemon_snapshot, "test", interval_s=0.01,
            iterations=2, out=out, clock=clock, sleep=lambda s: None,
        )
        assert frames == 2
        assert "repro top — test" in out.getvalue()
        assert "frame 2" in out.getvalue()
