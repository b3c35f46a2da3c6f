"""Prometheus text exposition of :class:`~repro.obs.metrics.MetricsRegistry`
and the ``repro top`` live terminal view.

:func:`prometheus_text` renders a registry in the Prometheus text exposition
format (version 0.0.4): counters become ``<ns>_<name>_total`` series,
gauges plain series, and histograms the conventional cumulative
``_bucket{le="..."}`` / ``_sum`` / ``_count`` triple.  Metric names are
sanitised (dots and other invalid characters to ``_``); optional ``labels``
are attached to every series — e.g. ``{"trace_id": ...}`` for a sweep.

:func:`top_snapshot` renders one frame of the ``repro top`` view from a
spool directory: per-phase call counts, completion rates, p50/p90/p99 span
latencies, and the ``guard.*`` / ``faults.*`` / ``sweep.*`` reliability
counters — readable while a sweep is still running, because workers flush
their spool per completed cell.
"""

from __future__ import annotations

import math
import re
import sys
import time
from typing import Mapping

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, nearest_rank
from .pipeline import SpoolMerge

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str) -> str:
    """A valid Prometheus metric name: invalid chars to ``_``, leading
    digits prefixed."""
    out = _NAME_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _render_labels(labels: Mapping[str, object] | None) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        k = _LABEL_RE.sub("_", str(key))
        # The text exposition format requires escaping backslash, double
        # quote AND newline inside label values — a raw newline would tear
        # the series line in two and corrupt the whole exposition.
        v = (
            str(labels[key])
            .replace("\\", r"\\")
            .replace('"', r"\"")
            .replace("\n", r"\n")
        )
        parts.append(f'{k}="{v}"')
    return "{" + ",".join(parts) + "}"


def _merge_label_sets(
    base: str, extra: Mapping[str, object] | None, **more
) -> str:
    merged: dict[str, object] = dict(extra or {})
    merged.update(more)
    return _render_labels(merged)


def _fmt(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(
    registry: MetricsRegistry,
    namespace: str = "repro",
    labels: Mapping[str, object] | None = None,
) -> str:
    """The registry in Prometheus text exposition format, sorted by metric
    name for deterministic output."""
    ns = sanitize_metric_name(namespace)
    lines: list[str] = []
    for name in registry.names():
        metric = registry[name]
        base = f"{ns}_{sanitize_metric_name(name)}" if ns else sanitize_metric_name(name)
        if isinstance(metric, Counter):
            series = f"{base}_total"
            lines.append(f"# HELP {series} Counter {name!r}.")
            lines.append(f"# TYPE {series} counter")
            lines.append(f"{series}{_render_labels(labels)} {metric.value}")
        elif isinstance(metric, Gauge):
            lines.append(f"# HELP {base} Gauge {name!r}.")
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base}{_render_labels(labels)} {_fmt(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# HELP {base} Histogram {name!r}.")
            lines.append(f"# TYPE {base} histogram")
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.counts):
                cumulative += count
                le = _merge_label_sets(base, labels, le=_fmt(float(bound)))
                lines.append(f"{base}_bucket{le} {cumulative}")
            inf = _merge_label_sets(base, labels, le="+Inf")
            lines.append(f"{base}_bucket{inf} {metric.count}")
            lines.append(
                f"{base}_sum{_render_labels(labels)} {_fmt(metric.total)}"
            )
            lines.append(
                f"{base}_count{_render_labels(labels)} {metric.count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# -- repro top ----------------------------------------------------------------


#: Counter prefixes surfaced in the ``repro top`` reliability section.
TOP_COUNTER_PREFIXES = ("guard.", "faults.", "sweep.", "fuzz.")


def top_snapshot(
    merge: SpoolMerge,
    previous: SpoolMerge | None = None,
    dt_s: float | None = None,
    width: int = 78,
) -> str:
    """One rendered frame of the ``repro top`` view.

    ``previous``/``dt_s`` (the prior snapshot and the seconds since it) turn
    absolute counts into rates; without them the rate column shows ``-``.
    """
    lines: list[str] = []
    cells = len(merge.cells)
    pids = merge.pids
    completed = sum(1 for c in merge.cells if c.ok)
    head = (
        f"cells {cells} ({completed} ok)  workers {len(pids)}"
        f"  pids {','.join(str(p) for p in pids[:8])}"
    )
    if previous is not None and dt_s and dt_s > 0:
        rate = (cells - len(previous.cells)) / dt_s
        head += f"  throughput {rate:.1f} cells/s"
    lines.append(head[:width])
    lines.append("-" * min(width, len(head)))

    durations = merge.span_durations()
    prev_counts = (
        {name: len(v) for name, v in previous.span_durations().items()}
        if previous is not None
        else {}
    )
    if durations:
        lines.append(
            f"{'phase':<24} {'calls':>7} {'rate/s':>8} "
            f"{'p50 ms':>8} {'p90 ms':>8} {'p99 ms':>8} {'total s':>9}"
        )
        for name in sorted(durations, key=lambda n: -sum(durations[n])):
            values = sorted(durations[name])
            calls = len(values)
            if previous is not None and dt_s and dt_s > 0:
                rate = f"{(calls - prev_counts.get(name, 0)) / dt_s:8.1f}"
            else:
                rate = f"{'-':>8}"
            p50, p90, p99 = (nearest_rank(values, p) for p in (50, 90, 99))
            lines.append(
                f"{name[:24]:<24} {calls:>7} {rate} "
                f"{p50 * 1e3:8.2f} {p90 * 1e3:8.2f} {p99 * 1e3:8.2f} "
                f"{sum(values):9.3f}"
            )
    else:
        lines.append("(no spans spooled yet)")

    counters = merge.counters
    interesting = {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith(TOP_COUNTER_PREFIXES)
    }
    if interesting:
        lines.append("")
        lines.append("reliability counters:")
        for name, value in interesting.items():
            delta = ""
            if previous is not None:
                prev = previous.counters.get(name, 0)
                if value != prev:
                    delta = f"  (+{value - prev})"
            lines.append(f"  {name:<38} {value:>10}{delta}")
    return "\n".join(lines)


def daemon_snapshot(
    doc: Mapping,
    previous: Mapping | None = None,
    dt_s: float | None = None,
    width: int = 78,
) -> str:
    """One rendered frame of ``repro top --connect`` from a daemon's
    ``/debug/top`` document (``{"stats": ..., "metrics": ...}``).

    Same layout philosophy as :func:`top_snapshot`, but sourced from the
    live registry instead of spool files: request/error/uptime header,
    per-class latency histograms with p50/p90/p99, cache and SLO health,
    and the ``serve.*`` counters.
    """
    stats = doc.get("stats", {}) or {}
    metrics = doc.get("metrics", {}) or {}
    lines: list[str] = []
    requests = stats.get("requests", 0)
    cache = stats.get("cache", {}) or {}
    ratio = stats.get("cache_hit_ratio")
    head = (
        f"requests {requests}  errors {stats.get('errors', 0)}"
        f"  degraded {stats.get('degraded', 0)}"
        f"  batches {stats.get('batches', 0)}"
        f"  uptime {stats.get('uptime_s', 0.0):.0f}s"
        f"  cache {cache.get('hits', 0)}/{cache.get('misses', 0)}"
        + (f" ({ratio * 100:.0f}% hit)" if ratio is not None else "")
    )
    if previous is not None and dt_s and dt_s > 0:
        prev_requests = (previous.get("stats", {}) or {}).get("requests", 0)
        head += f"  throughput {(requests - prev_requests) / dt_s:.1f} req/s"
    lines.append(head[:width])
    lines.append("-" * min(width, len(head)))

    transports = stats.get("transports") or {}
    if transports:
        lines.append(
            "transports: "
            + "  ".join(f"{k}={v}" for k, v in sorted(transports.items()))
        )
    admission = stats.get("admission") or {}
    if admission:
        lines.append(
            f"admission: queue {admission.get('queue_depth', 0)}"
            f"/{admission.get('queue_capacity', 0)}"
            f" (peak {admission.get('peak_depth', 0)})"
            f"  inflight {admission.get('inflight_total', 0)}"
            f"  shed {admission.get('shed_total', 0)}"
            f"  deadline_exceeded {stats.get('deadline_exceeded', 0)}"
            + ("  BROWNOUT" if admission.get("brownout") else "")
        )
    breakers = stats.get("breakers") or {}
    if breakers:
        parts = [
            f"{name}={snap.get('state', '?')}"
            for name, snap in sorted(breakers.items())
        ]
        line = "breakers: " + "  ".join(parts)
        opened = sum(s.get("opened", 0) for s in breakers.values())
        if opened:
            line += f"  (opened {opened}x)"
        lines.append(line)
    slo = stats.get("slo") or {}
    if slo:
        lines.append(
            f"slo: objective {slo.get('objective')}"
            f"  bad {slo.get('bad', 0)}/{slo.get('total', 0)}"
            f"  burn fast {slo.get('fast_burn_rate', 0.0):.2f}x"
            f" / slow {slo.get('slow_burn_rate', 0.0):.2f}x"
            + ("  PAGE" if slo.get("page") else "")
            + ("  ticket" if slo.get("ticket") else "")
        )
    traces = stats.get("traces") or {}
    if traces:
        p99 = traces.get("p99_s")
        lines.append(
            f"traces: {traces.get('added', 0)} seen"
            f"  rings recent={traces.get('recent', 0)}"
            f" slow={traces.get('slow', 0)}"
            f" errors={traces.get('errors', 0)}"
            f" degraded={traces.get('degraded', 0)}"
            + (f"  p99 {p99 * 1e3:.2f} ms" if p99 is not None else "")
        )

    histograms = {
        name: value
        for name, value in metrics.items()
        if isinstance(value, Mapping) and "count" in value
    }
    if histograms:
        lines.append("")
        lines.append(
            f"{'histogram':<34} {'count':>7} {'rate/s':>8} "
            f"{'p50 ms':>8} {'p90 ms':>8} {'p99 ms':>8}"
        )
        prev_metrics = (previous or {}).get("metrics", {}) or {}
        for name in sorted(histograms):
            value = histograms[name]
            count = value.get("count", 0)
            if previous is not None and dt_s and dt_s > 0:
                prev = prev_metrics.get(name) or {}
                rate = f"{(count - prev.get('count', 0)) / dt_s:8.1f}"
            else:
                rate = f"{'-':>8}"
            cells = []
            for p in ("p50", "p90", "p99"):
                v = value.get(p)
                cells.append(f"{v * 1e3:8.2f}" if v is not None else f"{'-':>8}")
            lines.append(
                f"{name[:34]:<34} {count:>7} {rate} " + " ".join(cells)
            )

    counters = {
        name: value
        for name, value in sorted(metrics.items())
        if isinstance(value, int) and name.startswith("serve.")
    }
    if counters:
        lines.append("")
        lines.append("serve counters:")
        for name, value in counters.items():
            lines.append(f"  {name:<38} {value:>10}")
    return "\n".join(lines)


def watch(
    fetch,
    render,
    label: str,
    interval_s: float = 1.0,
    iterations: int | None = None,
    out=None,
    clock=time.monotonic,
    sleep=time.sleep,
) -> int:
    """The ``repro top`` loop: every ``interval_s`` call ``fetch()`` and
    print ``render(doc, previous_doc, dt_s)`` as a fresh frame headed by
    ``label`` (ANSI clear between frames).  ``render`` is
    :func:`top_snapshot` over a spool merge or :func:`daemon_snapshot` over
    a daemon's ``/debug/top`` document.  ``iterations`` bounds the number
    of frames (``None`` = until interrupted).  Returns the number of frames
    rendered."""
    out = out or sys.stdout
    frames = 0
    previous = None
    last_t: float | None = None
    try:
        while iterations is None or frames < iterations:
            if frames:
                sleep(interval_s)
            doc = fetch()
            now = clock()
            dt = (now - last_t) if last_t is not None else None
            if frames:
                out.write("\x1b[2J\x1b[H")
            out.write(
                f"repro top — {label}  "
                f"(refresh {interval_s:g}s, frame {frames + 1})\n"
            )
            out.write(render(doc, previous, dt) + "\n")
            out.flush()
            previous, last_t = doc, now
            frames += 1
    except KeyboardInterrupt:
        pass
    return frames
