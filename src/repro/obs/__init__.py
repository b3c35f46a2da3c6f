"""Observability: pipeline spans, counters, cycle-level simulator event
traces, derived hardware-counter metrics, schema-versioned run reports,
exporters (JSONL, Chrome trace-event / Perfetto), the cross-process
telemetry pipeline (trace contexts, cell records, spools), a sampling profiler
with flamegraph output, and Prometheus text exposition.

See ``docs/OBSERVABILITY.md`` for the event schema and usage guide.
"""

from .events import EVENT_KINDS, STALL_KINDS, SimEvent, SimTrace
from .metrics import (
    STALL_CAUSES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    classify_stall,
    sim_metrics,
    stall_attribution,
)
from .runreport import (
    RUNREPORT_SCHEMA_VERSION,
    Delta,
    ReportDiff,
    RunReport,
    collect_provenance,
    compare_reports,
    flatten_metrics,
    is_timing_path,
)
from .export import (
    chrome_trace_events,
    chrome_trace_path,
    recorder_records,
    sim_traces_from_records,
    write_chrome_trace,
    write_jsonl,
)
from .recorder import (
    SpanRecord,
    TraceRecorder,
    count,
    get_recorder,
    publish_sim_trace,
    recording,
    set_recorder,
    sim_events_enabled,
    span,
)
from .pipeline import (
    CellTelemetry,
    SpoolMerge,
    TraceContext,
    clear_spools,
    merge_spools,
    read_jsonl,
    read_spools,
    recorded_cell,
    spool_path,
    spooled_cell,
)
from .profiler import (
    SamplingProfiler,
    collapsed_stacks,
    flamegraph_html,
    parse_collapsed,
    profile,
    profile_overhead,
    write_flamegraph,
)
from .expo import prometheus_text, top_snapshot, watch

__all__ = [
    "CellTelemetry",
    "SamplingProfiler",
    "SpoolMerge",
    "TraceContext",
    "clear_spools",
    "collapsed_stacks",
    "flamegraph_html",
    "merge_spools",
    "parse_collapsed",
    "profile",
    "profile_overhead",
    "prometheus_text",
    "read_spools",
    "recorded_cell",
    "spool_path",
    "spooled_cell",
    "top_snapshot",
    "watch",
    "write_flamegraph",
    "Counter",
    "Delta",
    "EVENT_KINDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RUNREPORT_SCHEMA_VERSION",
    "ReportDiff",
    "RunReport",
    "STALL_CAUSES",
    "STALL_KINDS",
    "SimEvent",
    "SimTrace",
    "SpanRecord",
    "TraceRecorder",
    "classify_stall",
    "collect_provenance",
    "compare_reports",
    "flatten_metrics",
    "is_timing_path",
    "sim_metrics",
    "stall_attribution",
    "chrome_trace_events",
    "chrome_trace_path",
    "count",
    "get_recorder",
    "publish_sim_trace",
    "read_jsonl",
    "recorder_records",
    "recording",
    "set_recorder",
    "sim_events_enabled",
    "sim_traces_from_records",
    "span",
    "write_chrome_trace",
    "write_jsonl",
]
