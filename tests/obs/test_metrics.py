"""Tests for the metrics registry and the SimTrace-derived counters.

The load-bearing property: :func:`stall_attribution` is a *partition* of the
simulator's stalled cycles — the per-cause counts sum exactly to
``SimResult.stall_cycles`` on every execution, including mispredicted
barriers and the deadlock path.
"""

import pytest

from repro.core import algorithm_lookahead
from repro.ir import graph_from_edges
from repro.machine import paper_machine
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    STALL_CAUSES,
    TraceRecorder,
    classify_stall,
    recording,
    sim_metrics,
    stall_attribution,
)
from repro.obs.events import SimEvent
from repro.sim import SimulationDeadlock, simulate_trace, simulate_window
from repro.workloads import random_trace


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.to_value() == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)

    def test_gauge_keeps_last(self):
        g = Gauge("x")
        assert g.to_value() is None
        g.set(3)
        g.set(1.5)
        assert g.to_value() == 1.5

    def test_histogram_buckets_and_percentiles(self):
        h = Histogram("occ", buckets=[0, 1, 2, 3])
        for v in (0, 1, 1, 2, 3):
            h.observe(v)
        assert h.count == 5
        assert h.mean == pytest.approx(7 / 5)
        assert h.percentile(50) == 1
        assert h.percentile(99) == 3
        assert h.to_value()["p90"] == 3
        assert h.to_value()["min"] == 0 and h.to_value()["max"] == 3

    def test_histogram_overflow_reports_true_max(self):
        h = Histogram("lat", buckets=[1, 2])
        h.observe(10)
        assert h.percentile(99) == 10

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("empty", buckets=[])

    def test_histogram_empty_summaries(self):
        h = Histogram("x", buckets=[1])
        assert h.mean is None and h.percentile(50) is None


class TestRegistry:
    def test_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert "a" in r and r["a"].to_value() == 0

    def test_kind_collision_is_an_error(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            r.gauge("a")

    def test_to_dict_sorted_and_serializable(self):
        import json

        r = MetricsRegistry()
        r.counter("b").inc(2)
        r.gauge("a").set(1.5)
        r.histogram("c", [1, 2]).observe(1)
        d = r.to_dict()
        assert list(d) == ["a", "b", "c"]
        json.dumps(d)  # must be JSON-serializable


class TestClassifyStall:
    def test_structured_cause_wins(self):
        e = SimEvent(cycle=0, kind="stall", detail="whatever", cause="resource")
        assert classify_stall(e) == "resource"

    def test_barrier_wait_kind(self):
        e = SimEvent(cycle=0, kind="barrier_wait", detail="")
        assert classify_stall(e) == "barrier"

    def test_detail_fallback_for_old_traces(self):
        mk = lambda d: SimEvent(cycle=0, kind="stall", detail=d)
        assert classify_stall(mk("head x waits on unissued predecessor y")) \
            == "predecessor"
        assert classify_stall(mk("x ready but no free fixed unit")) == "resource"
        assert classify_stall(mk("x waits on y (latency)")) == "dependence"


class TestSimMetricsKnownChain:
    """a -> b with latency 2 at W=2: issue a@0, stall 1-2, issue b@3."""

    def setup_method(self):
        g = graph_from_edges([("a", "b", 2)])
        self.res = simulate_window(
            g, ["a", "b"], paper_machine(2), collect_trace=True
        )

    def test_counters(self):
        m = sim_metrics(self.res.trace).to_dict()
        assert m["sim.instructions"] == 2
        assert m["sim.issued"] == 2
        assert m["sim.cycles"] == 4
        assert m["sim.stall_cycles"] == 2
        assert m["sim.ipc"] == pytest.approx(0.5)
        assert m["sim.window_size"] == 2

    def test_attribution_all_dependence(self):
        att = stall_attribution(self.res.trace)
        assert att == {
            "dependence": 2, "predecessor": 0, "window": 0, "resource": 0,
            "barrier": 0,
        }

    def test_stall_counters_match_attribution(self):
        m = sim_metrics(self.res.trace).to_dict()
        assert sum(m[f"sim.stall.{c}"] for c in STALL_CAUSES) \
            == m["sim.stall_cycles"] == self.res.stall_cycles

    def test_occupancy_histogram_bounded_by_window(self):
        m = sim_metrics(self.res.trace).to_dict()
        occ = m["sim.occupancy"]
        assert occ["count"] == 4
        assert occ["max"] <= 2


class TestAttributionInvariant:
    """sum(stall_attribution) == SimResult.stall_cycles, always."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_random_traces(self, seed, window):
        m = paper_machine(window)
        t = random_trace(
            3, (4, 7), edge_probability=0.3, cross_probability=0.08,
            latencies=(0, 1, 2, 4), seed=seed,
        )
        res = simulate_trace(
            t, algorithm_lookahead(t, m).block_orders, m, collect_trace=True
        )
        att = stall_attribution(res.trace)
        assert sum(att.values()) == res.stall_cycles
        assert res.trace.stall_cycles == res.stall_cycles

    @pytest.mark.parametrize("seed", range(4))
    def test_with_misprediction_barriers(self, seed):
        m = paper_machine(4)
        t = random_trace(
            4, (4, 7), edge_probability=0.3, cross_probability=0.05,
            latencies=(0, 1, 2, 4), seed=seed,
        )
        res = simulate_trace(
            t,
            algorithm_lookahead(t, m).block_orders,
            m,
            mispredicted_blocks=[1, 3],
            collect_trace=True,
        )
        att = stall_attribution(res.trace)
        assert sum(att.values()) == res.stall_cycles
        # A flushed window must spend at least one cycle on the barrier.
        assert att["barrier"] > 0

    def test_deadlock_path(self):
        # z depends on w, one position later than W=1 can ever see.
        g = graph_from_edges([("x", "y", 3), ("w", "z", 0)])
        rec = TraceRecorder()
        with recording(rec):
            with pytest.raises(SimulationDeadlock):
                simulate_window(g, ["x", "y", "z", "w"], paper_machine(1))
        trace = rec.sim_traces[-1]
        att = stall_attribution(trace)
        assert sum(att.values()) == trace.stall_cycles > 0
        # The published partial trace still feeds sim_metrics.
        m = sim_metrics(trace).to_dict()
        assert m["sim.issued"] < m["sim.instructions"]


class TestSimMetricsRegistryReuse:
    def test_prefix_isolates_multiple_traces(self):
        g = graph_from_edges([("a", "b", 2)])
        res = simulate_window(g, ["a", "b"], paper_machine(2),
                              collect_trace=True)
        r = MetricsRegistry()
        sim_metrics(res.trace, r, prefix="sim.0.")
        sim_metrics(res.trace, r, prefix="sim.1.")
        d = r.to_dict()
        assert d["sim.0.cycles"] == d["sim.1.cycles"] == 4


class TestHistogramProperties:
    """Property tests (hypothesis) for the percentile edge-case contract:
    empty histograms answer None, all-overflow answers the true observed
    maximum, and in between the answer is a deterministic bucket bound that
    is monotone in p and bounds the observations."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    bounds_st = st.lists(
        st.integers(min_value=0, max_value=50), min_size=1, max_size=6,
        unique=True,
    )
    values_st = st.lists(
        st.integers(min_value=0, max_value=100), min_size=0, max_size=40
    )
    p_st = st.floats(
        min_value=0.001, max_value=100.0,
        allow_nan=False, allow_infinity=False,
    )

    @staticmethod
    def _build(bounds, values):
        h = Histogram("h", bounds)
        for v in values:
            h.observe(v)
        return h

    @settings(max_examples=80)
    @given(bounds=bounds_st, values=values_st, p=p_st)
    def test_percentile_total_and_deterministic(self, bounds, values, p):
        h = self._build(bounds, values)
        q = h.percentile(p)
        if not values:
            assert q is None
        else:
            # Always answers, from a closed set: a bucket bound or the max.
            assert q in set(h.bounds) | {max(values)}
            assert h.percentile(p) == q  # repeatable

    @settings(max_examples=60)
    @given(bounds=bounds_st, values=values_st)
    def test_percentile_monotone_in_p(self, bounds, values):
        h = self._build(bounds, values)
        qs = [h.percentile(p) for p in (1, 25, 50, 75, 90, 99, 100)]
        if values:
            assert all(a <= b for a, b in zip(qs, qs[1:]))
        else:
            assert qs == [None] * len(qs)

    @settings(max_examples=60)
    @given(bounds=bounds_st, values=values_st.filter(bool))
    def test_p100_bounds_every_observation(self, bounds, values):
        h = self._build(bounds, values)
        assert h.percentile(100) >= max(values)

    @settings(max_examples=60)
    @given(bounds=bounds_st, extra=st.lists(
        st.integers(min_value=1, max_value=100), min_size=1, max_size=10))
    def test_all_overflow_answers_observed_max(self, bounds, extra):
        # Every observation strictly above the last bound → overflow bucket.
        top = max(bounds)
        values = [top + e for e in extra]
        h = self._build(bounds, values)
        for p in (1, 50, 100):
            assert h.percentile(p) == max(values)

    @settings(max_examples=40)
    @given(bounds=bounds_st, values=values_st)
    def test_zero_weight_observation_is_invisible(self, bounds, values):
        h = self._build(bounds, values)
        before = h.to_value()
        h.observe(12345, n=0)
        assert h.to_value() == before

    @settings(max_examples=40)
    @given(bounds=bounds_st, p=st.one_of(
        st.just(0), st.just(-5.0), st.just(100.001), st.just(101)))
    def test_p_out_of_range_rejected(self, bounds, p):
        h = self._build(bounds, [1])
        with pytest.raises(ValueError, match="percentile"):
            h.percentile(p)
