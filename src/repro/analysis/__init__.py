"""Metrics, reporting, DOT export and output verification."""

from .dot import graph_to_dot, loop_to_dot, schedule_to_dot, trace_to_dot
from .metrics import (
    IdleStats,
    gap_recovered,
    geometric_mean,
    idle_stats,
    overlap_cycles,
    speedup,
    utilization,
)
from .report import (
    cycle_log,
    format_markdown_table,
    format_table,
    phase_summary,
    print_table,
    render_report_diff,
    render_run_report,
    stall_attribution_summary,
    trace_summary,
)
from .verify import (
    OutputError,
    check_block_orders,
    check_runtime_legality,
    verify_scheduler_output,
)

__all__ = [
    "IdleStats",
    "OutputError",
    "check_block_orders",
    "check_runtime_legality",
    "cycle_log",
    "format_markdown_table",
    "format_table",
    "gap_recovered",
    "geometric_mean",
    "graph_to_dot",
    "idle_stats",
    "loop_to_dot",
    "overlap_cycles",
    "phase_summary",
    "print_table",
    "render_report_diff",
    "render_run_report",
    "stall_attribution_summary",
    "trace_summary",
    "schedule_to_dot",
    "speedup",
    "trace_to_dot",
    "utilization",
    "verify_scheduler_output",
]
