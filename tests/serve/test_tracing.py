"""End-to-end request tracing through the service: trace-id propagation,
span trees, server-side timings, tail sampling, SLO accounting — including
the cross-process hop into pool workers (the spool spans must carry the
*request's* trace id, not the worker's own)."""

import pytest

from repro.machine.presets import PAPER_CORE
from repro.obs.pipeline import merge_spools
from repro.serve.protocol import ScheduleRequest, server_timings
from repro.serve.service import ScheduleService
from repro.serve.tracebuf import TraceBuffer
from repro.workloads.traces import random_trace


def _doc(seed=0, rid=None, trace_id=None):
    trace = random_trace(
        2, (3, 5), cross_probability=0.2, latencies=(0, 1, 2), seed=seed
    )
    return ScheduleRequest(
        trace=trace, machine=PAPER_CORE, id=rid, trace_id=trace_id
    ).to_dict()


class TestTraceIdPropagation:
    def test_caller_id_round_trips(self):
        svc = ScheduleService()
        response = svc.handle(_doc(seed=1, trace_id="cafef00d"))
        assert response["ok"]
        assert response["trace"] == {"trace_id": "cafef00d"}

    def test_daemon_mints_id_when_absent(self):
        svc = ScheduleService()
        a = svc.handle(_doc(seed=1))
        b = svc.handle(_doc(seed=2))
        ta, tb = a["trace"]["trace_id"], b["trace"]["trace_id"]
        assert ta and tb and ta != tb

    def test_error_response_carries_trace_id(self):
        svc = ScheduleService()
        response = svc.handle({"scheduler": "nope", "trace": "abad1dea"})
        assert response["ok"] is False
        assert response["trace"]["trace_id"] == "abad1dea"

    def test_cache_hit_keeps_callers_id(self):
        svc = ScheduleService()
        svc.handle(_doc(seed=3, trace_id="aaaa"))
        hit = svc.handle(_doc(seed=3, trace_id="bbbb"))
        assert hit["cached"] is True
        assert hit["trace"]["trace_id"] == "bbbb"


class TestSpanTree:
    def _miss_trace(self, svc, trace_id="cafef00d"):
        svc.handle(_doc(seed=4, trace_id=trace_id))
        return svc.tracebuf.recent()[-1]

    def test_miss_has_full_tree(self):
        svc = ScheduleService()
        t = self._miss_trace(svc)
        names = [s.name for s in t.spans]
        assert names[0] == "serve.request"
        for phase in ("decode", "canonicalize", "cache_probe", "dispatch",
                      "respond"):
            assert f"serve.phase.{phase}" in names
        assert "serve.worker.schedule" in names
        assert "serve.worker.simulate" in names

    def test_every_span_stamped_with_request_id(self):
        svc = ScheduleService()
        t = self._miss_trace(svc, trace_id="0ddba11")
        assert t.spans and all(s.trace_id == "0ddba11" for s in t.spans)

    def test_depths_nest(self):
        svc = ScheduleService()
        t = self._miss_trace(svc)
        depth = {s.name: s.depth for s in t.spans}
        assert depth["serve.request"] == 0
        assert depth["serve.phase.dispatch"] == 1
        assert depth["serve.worker.schedule"] == 2

    def test_hit_has_no_worker_spans(self):
        svc = ScheduleService()
        doc = _doc(seed=5)
        svc.handle(doc)
        svc.handle(doc)
        hit = svc.tracebuf.recent()[-1]
        assert hit.cached is True
        assert not any(
            s.name.startswith("serve.worker.") for s in hit.spans
        )

    def test_worker_spans_fit_inside_dispatch(self):
        svc = ScheduleService()
        t = self._miss_trace(svc)
        spans = {s.name: s for s in t.spans}
        dispatch = spans["serve.phase.dispatch"]
        worker = spans["serve.worker.schedule"]
        assert worker.start_ns >= dispatch.start_ns
        assert (worker.start_ns + worker.duration_ns
                <= dispatch.start_ns + dispatch.duration_ns + 1_000_000)


class TestServerTimings:
    def test_response_carries_phase_timings(self):
        svc = ScheduleService()
        response = svc.handle(_doc(seed=6))
        server = server_timings(response)
        assert server["pid"] > 0 and server["duration_s"] > 0
        for key in ("decode_s", "canonicalize_s", "cache_probe_s",
                    "dispatch_s", "respond_s"):
            assert server["phases"][key] >= 0.0
        assert server["worker"]["phases"]["schedule_s"] > 0.0

    def test_hit_timings_have_no_worker_block(self):
        svc = ScheduleService()
        doc = _doc(seed=7)
        svc.handle(doc)
        hit = svc.handle(doc)
        assert "worker" not in server_timings(hit)


class TestCrossProcessHop:
    def test_worker_spool_spans_carry_request_trace_id(self, tmp_path):
        """The pinned fork-hop invariant: with a real worker pool, the spans
        the workers spool must be stamped with each *request's* trace id
        and the worker's own pid."""
        import os

        svc = ScheduleService(jobs=2, spool_dir=tmp_path / "spool")
        docs = [
            _doc(seed=8, trace_id="feedbeef"),
            _doc(seed=9, trace_id="deadc0de"),
        ]
        try:
            responses = svc.handle_batch(docs)
        finally:
            svc.close()
        assert all(r["ok"] for r in responses)
        merge = merge_spools(tmp_path / "spool" / "pool")
        worker_spans = [
            s for s in merge.spans if s.name.startswith("serve.worker.")
        ]
        assert {s.trace_id for s in worker_spans} == {"feedbeef", "deadc0de"}
        assert all(s.pid != os.getpid() for s in worker_spans)
        # And the retained traces report which worker pid served each one.
        by_id = {t.trace_id: t for t in svc.tracebuf.recent()}
        for trace_id in ("feedbeef", "deadc0de"):
            assert by_id[trace_id].worker_pid is not None
            assert by_id[trace_id].worker_pid != os.getpid()

    def test_pool_spool_is_scoped_under_subdir(self, tmp_path):
        """Worker spool clears must not eat the daemon's own per-batch
        spools: the pool spools into ``spool/pool``."""
        svc = ScheduleService(jobs=2, spool_dir=tmp_path / "spool")
        try:
            svc.handle(_doc(seed=10))
            svc.handle(_doc(seed=11))
        finally:
            svc.close()
        daemon_cells = merge_spools(tmp_path / "spool").cells
        assert daemon_cells  # per-batch daemon spools survived both batches


class TestTailSampling:
    def test_errors_land_in_error_ring_with_minted_id(self):
        svc = ScheduleService()
        svc.handle({"scheduler": "nope"})
        errors = svc.tracebuf.errors()
        assert len(errors) == 1
        assert errors[0].status == "error" and errors[0].trace_id

    def test_injectable_tracebuf(self):
        buf = TraceBuffer(capacity=2)
        svc = ScheduleService(tracebuf=buf)
        for seed in range(4):
            svc.handle(_doc(seed=20 + seed))
        assert len(buf.recent()) == 2 and buf.added == 4

    def test_batch_span_links_member_trace_ids(self, tmp_path):
        svc = ScheduleService(spool_dir=tmp_path / "spool")
        svc.handle_batch([
            _doc(seed=30, trace_id="aaaa"), _doc(seed=31, trace_id="bbbb"),
        ])
        merge = merge_spools(tmp_path / "spool")
        batch = [s for s in merge.spans if s.name == "serve.batch"]
        assert batch and batch[-1].attrs.get("trace_ids") == ["aaaa", "bbbb"]


class TestSLOAndStats:
    def test_stats_gains_observability_keys(self):
        svc = ScheduleService()
        doc = _doc(seed=40)
        svc.handle(doc)
        svc.handle(doc)
        stats = svc.stats()
        assert stats["uptime_s"] > 0
        assert stats["cache_hit_ratio"] == pytest.approx(0.5)
        assert stats["traces"]["recent"] == 2
        assert stats["slo"]["total"] == 2 and stats["slo"]["bad"] == 0
        assert stats["transports"] == {"unknown": 2}

    def test_transport_tagging(self):
        svc = ScheduleService()
        svc.handle(_doc(seed=41), transport="unix")
        svc.handle_batch([_doc(seed=42)], transports=["http"])
        assert svc.stats()["transports"] == {"http": 1, "unix": 1}
        assert svc.registry.counter("serve.requests.unix").value == 1
        assert svc.registry.counter("serve.requests.http").value == 1

    def test_run_report_slo_block_is_deterministic(self):
        svc = ScheduleService()
        svc.handle(_doc(seed=43))
        svc.handle({"scheduler": "nope"})
        slo = svc.run_report().metrics["slo"]
        assert slo["bad"] == 1
        assert slo["lifetime_burn_rate"] == pytest.approx(
            (1 / 2) / (1 - 0.99)
        )

    def test_latency_slo_breach_counts_bad(self):
        svc = ScheduleService(latency_slo_s=0.0)  # everything breaches
        svc.handle(_doc(seed=44))
        assert svc.stats()["slo"]["bad"] == 1

    def test_cache_hit_ratio_gauge_refreshes(self):
        svc = ScheduleService()
        doc = _doc(seed=45)
        svc.handle(doc)
        svc.handle(doc)
        svc.refresh_gauges()
        out = svc.registry.to_dict()
        assert out["serve.cache.hit_ratio"] == pytest.approx(0.5)
        assert out["serve.uptime_s"] > 0
