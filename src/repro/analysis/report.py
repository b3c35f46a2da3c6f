"""Plain-text table rendering for the benchmark harness.

Each benchmark prints the rows the paper (or our prospective-study design in
DESIGN.md) reports, in a stable ASCII format so EXPERIMENTS.md can quote them
verbatim.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width table with a header rule."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def format_markdown_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a GitHub-flavoured-markdown table (optionally under a
    bold title line)."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
    lines: list[str] = []
    if title:
        lines.append(f"**{title}**")
        lines.append("")
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in str_rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def print_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> None:
    print()
    print(format_table(headers, rows, title))
    print()


def trace_summary(trace) -> str:
    """Stall/occupancy summary of a :class:`~repro.obs.events.SimTrace`:
    issue and stall totals and window-occupancy statistics (the stall
    causes are :func:`stall_attribution_summary`)."""
    counts = trace.counts()
    occupancy = list(trace.occupancy_by_cycle().values())
    rows = [
        ["instructions", trace.num_instructions],
        ["window size", trace.window_size],
        ["cycles traced", trace.max_cycle + 1 if trace.events else 0],
        ["issues", counts.get("issue", 0)],
        ["stall cycles", trace.stall_cycles],
        ["window advances", counts.get("window_advance", 0)],
        ["barrier releases", counts.get("barrier_release", 0)],
    ]
    if occupancy:
        rows.append(
            ["mean window occupancy", sum(occupancy) / len(occupancy)]
        )
        rows.append(["max window occupancy", max(occupancy)])
    title = "simulation summary" + (f" — {trace.label}" if trace.label else "")
    return format_table(["metric", "value"], rows, title=title)


def cycle_log(trace) -> list[str]:
    """Cycle-by-cycle timeline of a :class:`~repro.obs.events.SimTrace`:
    one line per cycle with its issues, window advances, stalls (cause and
    reason) and the window occupancy at the end of the cycle."""
    lines: list[str] = []
    for cycle, events in trace.events_by_cycle().items():
        parts = []
        for e in events:
            if e.kind == "issue":
                unit = f" [{e.unit}]" if e.unit else ""
                parts.append(f"issue {e.node}{unit}")
            elif e.kind == "window_advance":
                parts.append(e.detail or f"advance head -> {e.head}")
            else:
                tag = e.kind.upper() + (f" ({e.cause})" if e.cause else "")
                parts.append(f"{tag}: {e.detail}" if e.detail else tag)
        occ = next(
            (e.occupancy for e in reversed(events) if e.occupancy is not None),
            None,
        )
        occ_txt = f"  [window occupancy {occ}]" if occ is not None else ""
        lines.append(f"cycle {cycle:>5}: " + "; ".join(parts) + occ_txt)
    return lines


def phase_summary(recorder) -> str:
    """Wall-time-per-phase summary of a
    :class:`~repro.obs.recorder.TraceRecorder`'s spans."""
    rows = [
        [name, calls, f"{total * 1e3:.3f}", f"{total * 1e3 / calls:.3f}"]
        for name, (calls, total) in recorder.span_stats().items()
    ]
    return format_table(
        ["phase", "calls", "total ms", "mean ms"],
        rows,
        title="pipeline phase wall time",
    )


def stall_attribution_summary(trace, markdown: bool = False) -> str:
    """Stall-attribution table of a :class:`~repro.obs.events.SimTrace`:
    one row per cause, totalling exactly ``trace.stall_cycles``."""
    from ..obs.metrics import stall_attribution

    attribution = stall_attribution(trace)
    total = trace.stall_cycles
    rows = [
        [cause, stalled, f"{stalled / total * 100:.1f}%" if total else "-"]
        for cause, stalled in attribution.items()
    ]
    rows.append(["total", total, "100.0%" if total else "-"])
    table = format_markdown_table if markdown else format_table
    title = "stall attribution" + (f" — {trace.label}" if trace.label else "")
    return table(["cause", "stall cycles", "share"], rows, title=title)


def render_run_report(report, markdown: bool = False) -> str:
    """Render a :class:`~repro.obs.runreport.RunReport` as a terminal (or
    markdown) summary: provenance, flattened metrics, per-phase wall times."""
    from ..obs.runreport import flatten_metrics

    table = format_markdown_table if markdown else format_table
    parts: list[str] = []
    header = f"RunReport {report.name or '(unnamed)'} " \
             f"(schema v{report.schema_version})"
    parts.append(f"## {header}" if markdown else header)

    if report.provenance:
        rows = [
            [key, _fmt(value)]
            for key, value in sorted(flatten_metrics(report.provenance).items())
        ]
        parts.append(table(["provenance", "value"], rows))

    metric_rows = [
        [path, _fmt(value)]
        for path, value in sorted(flatten_metrics(report.metrics).items())
    ]
    parts.append(table(["metric", "value"], metric_rows))

    if report.phases:
        phase_rows = [
            [name, f"{seconds * 1e3:.3f}"]
            for name, seconds in sorted(
                report.phases.items(), key=lambda kv: -kv[1]
            )
        ]
        parts.append(table(["phase", "total ms"], phase_rows,
                           title="pipeline phase wall time"))
    return "\n\n".join(parts)


def render_report_diff(diff, markdown: bool = False) -> str:
    """Render a :class:`~repro.obs.runreport.ReportDiff` as a delta table
    plus a pass/fail summary line."""
    table = format_markdown_table if markdown else format_table
    changed = diff.changed()
    parts: list[str] = []
    if changed:
        rows = [
            [d.metric, _fmt(d.baseline), _fmt(d.new), d.status, d.note]
            for d in changed
        ]
        parts.append(table(
            ["metric", "baseline", "new", "status", "note"],
            rows,
            title=f"report deltas (threshold {diff.threshold_pct:g}%)",
        ))
    ok_count = sum(1 for d in diff.deltas if d.status == "ok")
    failures = diff.failures
    if failures:
        parts.append(
            f"FAIL: {len(failures)} regression(s)/drift(s), "
            f"{len(changed) - len(failures)} warning(s), {ok_count} metrics ok"
        )
    else:
        parts.append(
            f"OK: {ok_count} metrics within tolerance"
            + (f", {len(changed)} warning(s)" if changed else "")
        )
    return "\n\n".join(parts)
