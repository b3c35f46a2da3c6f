"""Tests for the sampling profiler and flamegraph rendering."""

import threading

import pytest

from repro.obs.profiler import (
    SamplingProfiler,
    collapsed_stacks,
    flamegraph_html,
    parse_collapsed,
    profile,
    profile_overhead,
    write_flamegraph,
)


def _spin(ms: float = 120.0) -> int:
    """CPU-bound busy loop; the frame the profiler should catch."""
    import time

    total = 0
    deadline = time.process_time() + ms / 1000.0
    while time.process_time() < deadline:
        total += sum(range(200))
    return total


def _thread_profiler(interval_s: float) -> SamplingProfiler:
    """A profiler of the calling thread on the thread engine."""
    return SamplingProfiler(
        interval_s=interval_s, target_thread_id=threading.get_ident()
    )


class TestSamplingProfiler:
    @pytest.mark.parametrize("engine", ["thread", "itimer"])
    def test_collects_samples_on_cpu_bound_fn(self, engine):
        if engine == "thread":
            prof = _thread_profiler(0.002)
        else:
            prof = SamplingProfiler(interval_s=0.002)
        with prof:
            _spin()
        assert prof.sample_count > 0
        assert prof.engine == engine
        leaves = {stack[-1] for stack in prof.samples}
        assert any("_spin" in leaf for leaf in leaves)
        # Stack roots point back at this test via pytest's runner.
        assert all(isinstance(s, tuple) and s for s in prof.samples)

    def test_auto_mode_resolves(self):
        # On the main thread with setitimer available, the itimer runs.
        prof = SamplingProfiler(interval_s=0.002)
        with prof:
            _spin(40)
        assert prof.engine == "itimer"

    def test_off_main_thread_uses_thread_engine(self):
        engines = []

        def run():
            with SamplingProfiler(interval_s=0.002) as prof:
                _spin(40)
            engines.append((prof.engine, prof.sample_count))

        t = threading.Thread(target=run)
        t.start()
        t.join()
        assert engines[0][0] == "thread" and engines[0][1] > 0

    def test_one_profiler_per_process(self):
        outer = _thread_profiler(0.01)
        inner = _thread_profiler(0.01)
        with outer:
            with pytest.raises(RuntimeError, match="already"):
                inner.start()

    def test_reusable_after_stop(self):
        prof = _thread_profiler(0.002)
        with prof:
            _spin(30)
        first = prof.sample_count
        with prof:
            _spin(30)
        assert prof.sample_count >= first

    def test_profile_helper_returns_result_and_profiler(self):
        result, prof = profile(_spin, 60, interval_s=0.002)
        assert result == _spin(0.0) or result > 0
        assert prof.sample_count > 0

    def test_profile_overhead_is_small(self):
        overhead, prof = profile_overhead(
            lambda: _spin(50), repeat=2, interval_s=0.005
        )
        assert prof.sample_count > 0
        # The ISSUE gate is <5% on the E10 workload with the default 5 ms
        # interval; in-test we only sanity-check it is not pathological.
        assert overhead < 0.50


class TestCollapsedStacks:
    SAMPLES = {
        ("main", "run", "hot"): 7,
        ("main", "run"): 2,
        ("main", "other;weird"): 1,
    }

    def test_roundtrip(self):
        text = collapsed_stacks(self.SAMPLES)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert "main;run;hot 7" in lines
        back = parse_collapsed(text)
        assert back[("main", "run", "hot")] == 7
        assert back[("main", "run")] == 2
        assert sum(back.values()) == sum(self.SAMPLES.values())

    def test_parse_skips_blank_and_malformed(self):
        assert parse_collapsed("\n\nnot-a-count abc\nmain;f 3\n") == {
            ("main", "f"): 3
        }


class TestFlamegraph:
    def test_html_contains_svg_and_frames(self):
        html = flamegraph_html(TestCollapsedStacks.SAMPLES, title="unit test")
        assert "<svg" in html and "</html>" in html
        assert "unit test" in html
        assert "hot" in html
        # Self-contained: no external scripts or stylesheets.
        assert "<script src" not in html and "<link" not in html

    def test_deterministic(self):
        a = flamegraph_html(TestCollapsedStacks.SAMPLES)
        b = flamegraph_html(TestCollapsedStacks.SAMPLES)
        assert a == b

    def test_empty_samples_still_renders(self):
        html = flamegraph_html({})
        assert "<html" in html and "no samples" in html.lower()

    def test_write_flamegraph(self, tmp_path):
        out = write_flamegraph(
            tmp_path / "flame.html", TestCollapsedStacks.SAMPLES
        )
        assert out.exists()
        assert "<svg" in out.read_text()

    def test_real_profile_renders(self):
        _, prof = profile(_spin, 60, interval_s=0.002)
        html = flamegraph_html(prof.samples)
        assert "_spin" in html


class TestTargetThread:
    def test_profiles_a_specific_thread(self):
        done = threading.Event()
        started = threading.Event()
        ident = {}

        def worker():
            ident["tid"] = threading.get_ident()
            started.set()
            _spin(150)
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        started.wait(5)
        prof = SamplingProfiler(
            interval_s=0.002, target_thread_id=ident["tid"]
        )
        prof.start()
        done.wait(10)
        prof.stop()
        t.join()
        assert prof.samples
        assert any(
            any(frame.endswith("_spin") for frame in stack)
            for stack in prof.samples
        )

    def test_target_thread_forces_thread_mode(self):
        # Even on the main thread, where the itimer could run.
        with _thread_profiler(0.01) as prof:
            pass
        assert prof.engine == "thread"
