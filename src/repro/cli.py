"""Command-line interface.

Usage (also via ``python -m repro``)::

    repro schedule prog.s --window 4 --scheduler anticipatory --simulate
    repro schedule prog.s --simulate --trace run.jsonl
    repro trace run.jsonl
    repro report run.jsonl
    repro report benchmarks/results/E10_scaling.json --markdown
    repro compare baseline.json new.json --threshold 25
    repro ranks prog.s --deadline 100
    repro loop prog.s --window 2 --iterations 8
    repro dot prog.s -o deps.dot
    repro fuzz --seeds 16 --min-cells 500
    repro sweep --windows 2,3,4 --seeds 8 --jobs 4 --checkpoint ck.jsonl
    repro sweep --windows 2,3,4 --seeds 8 --checkpoint ck.jsonl --resume
    repro sweep --faults --jobs 2 --spool-dir spool/ --report sweep.json
    repro serve --socket /tmp/repro.sock --jobs 4 --cache-path sched.jsonl
    repro top spool/ --interval 1
    repro metrics spool/ -o metrics.prom
    repro flame --repeat 20 -o flame.html --max-overhead 5

``prog.s`` uses the textual format of :mod:`repro.ir.parser` (see its
docstring or ``examples/``); ``loop`` treats a single-block program as a
loop body and derives its carried dependences automatically.

``--trace FILE`` (on ``schedule``, ``ranks`` and ``loop``) records pipeline
spans and cycle-level simulator events, writing both ``FILE`` (JSONL) and a
Chrome trace-event sibling ``FILE`` with a ``.chrome.json`` suffix (openable
in Perfetto).  ``repro trace FILE`` replays a recorded JSONL stream as a
per-cycle timeline; see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analysis.dot import loop_to_dot, trace_to_dot
from .analysis.report import (
    format_table,
    render_report_diff,
    render_run_report,
    stall_attribution_summary,
    trace_summary,
)
from .core import algorithm_lookahead, compute_ranks
from .core.loops import schedule_single_block_loop
from .ir.loop_builder import build_loop_graph
from .ir.parser import ParseError, parse_program, parse_trace
from .machine import (
    MachineModel,
    NO_LOOKAHEAD,
    PAPER_CORE,
    RS6000_LIKE,
    WIDE_VLIW,
)
from .obs import TraceRecorder, recording
from .obs.runreport import RunReport, compare_reports
from .obs.export import (
    chrome_trace_path,
    read_jsonl,
    sim_traces_from_records,
    write_chrome_trace,
    write_jsonl,
)
from .serve.tracebuf import WATERFALL_KIND, waterfall_text
from .sim import simulate_loop_order, simulate_trace, simulated_initiation_interval

MACHINES = {
    "paper": PAPER_CORE,
    "inorder": NO_LOOKAHEAD,
    "rs6000": RS6000_LIKE,
    "vliw": WIDE_VLIW,
}


def _machine(args: argparse.Namespace) -> MachineModel:
    base = MACHINES[args.machine]
    if args.window is not None:
        base = MachineModel(
            window_size=args.window,
            fu_counts=dict(base.fu_counts),
            issue_width=base.issue_width,
        )
    return base


def _load_trace(path: str):
    return parse_trace(Path(path).read_text())


def cmd_schedule(args: argparse.Namespace) -> int:
    trace = _load_trace(args.file)
    machine = _machine(args)
    # Shared dispatch table with the serving daemon (repro.serve.worker),
    # so `repro serve` can never drift from `repro schedule`.
    from .serve.worker import compute_block_orders

    orders = compute_block_orders(trace, machine, args.scheduler)
    for bb, order in zip(trace.blocks, orders):
        print(f"{bb.name}: {' '.join(order)}")
    # --trace implies a simulation: cycle-level events only exist at runtime.
    if args.simulate or args.trace:
        sim = simulate_trace(trace, orders, machine)
        print(f"completion: {sim.makespan} cycles "
              f"(stalls: {sim.stall_cycles}, W={machine.window_size})")
        if args.simulate:
            print(sim.schedule.gantt())
    return 0


def cmd_ranks(args: argparse.Namespace) -> int:
    trace = _load_trace(args.file)
    deadlines = {n: args.deadline for n in trace.graph.nodes}
    for item in (args.deadlines or "").split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        if not sep or not name.strip():
            print(f"error: malformed --deadlines entry {item!r} "
                  "(expected name=int)", file=sys.stderr)
            return 2
        try:
            deadlines[name.strip()] = int(value)
        except ValueError:
            print(f"error: malformed --deadlines entry {item!r} "
                  "(expected name=int)", file=sys.stderr)
            return 2
    try:
        ranks = compute_ranks(trace.graph, deadlines, _machine(args))
    except ValueError as exc:  # unknown instruction names, from fill_deadlines
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        [n, trace.blocks[trace.block_index(n)].name, ranks[n]]
        for n in sorted(trace.graph.nodes, key=lambda n: ranks[n])
    ]
    print(format_table(["instruction", "block", "rank"], rows,
                       title=f"ranks at deadline {args.deadline}"))
    return 0


def cmd_loop(args: argparse.Namespace) -> int:
    blocks = parse_program(Path(args.file).read_text())
    if len(blocks) != 1:
        print("error: 'loop' needs a single-block program", file=sys.stderr)
        return 2
    _, instructions = blocks[0]
    loop = build_loop_graph(instructions)
    machine = _machine(args)
    res = schedule_single_block_loop(loop, machine)
    print("carried dependences:")
    for e in loop.carried_edges():
        print(f"  {e.src} -> {e.dst}  <{e.latency},{e.distance}>")
    rows = [
        [c.kind, c.pivot or "-", " ".join(c.order),
         c.single_iteration_makespan, c.completion]
        for c in res.candidates
    ]
    print(format_table(
        ["transform", "pivot", "order", "1-iter", "horizon completion"],
        rows, title="candidate schedules (§5.2.3)",
    ))
    ii = simulated_initiation_interval(loop, res.order, machine)
    sim = simulate_loop_order(loop, res.order, args.iterations, machine)
    print(f"chosen order: {' '.join(res.order)}")
    print(f"steady-state II: {ii} cycles/iteration; "
          f"{args.iterations} iterations complete in {sim.makespan} cycles")
    return 0


def _render_waterfalls(records: list[dict]) -> int:
    """Render one or more concatenated request waterfalls (the
    ``/debug/traces?format=jsonl`` output) as indented span timelines."""
    groups: list[list[dict]] = []
    for r in records:
        if r.get("type") == "meta":
            groups.append([r])
        elif groups:
            groups[-1].append(r)
    for i, group in enumerate(groups):
        meta = group[0]
        req = meta.get("request") or {}
        if i:
            print()
        status = req.get("status", "ok")
        if status != "ok" and req.get("error"):
            status = f"error ({req['error']})"
        print(
            f"request {meta.get('trace_id', '?')} "
            f"[{req.get('scheduler', '?')}, "
            f"{'cache hit' if req.get('cached') else 'miss'}, {status}] "
            f"{float(req.get('duration_s') or 0.0) * 1e3:.3f} ms "
            f"via {req.get('transport', 'unknown')}"
        )
        for line in waterfall_text(group):
            print(f"  {line}")
    print(f"\n{len(groups)} request waterfall(s)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Replay a recorded JSONL trace as a per-cycle timeline."""
    try:
        records = read_jsonl(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: not a repro trace file: {exc}", file=sys.stderr)
        return 2
    meta = next((r for r in records if r.get("type") == "meta"), None)
    if meta is None:
        print("error: not a repro trace file (no meta record)", file=sys.stderr)
        return 2
    if meta.get("kind") == WATERFALL_KIND:
        # A request waterfall captured from the daemon's trace buffer
        # (/debug/traces?format=jsonl or smoke --waterfall): render the span
        # tree as an indented timeline instead of the simulator replay.
        return _render_waterfalls(records)
    # Schema v1 files carry no trace_id/pid fields; everything below treats
    # them as absent, so either version replays.
    if meta.get("trace_id"):
        span_pids = sorted(
            {
                r["pid"]
                for r in records
                if r.get("type") == "span" and r.get("pid") is not None
            }
        )
        procs = f", {len(span_pids)} process(es)" if span_pids else ""
        print(
            f"trace {meta['trace_id']} "
            f"(format v{meta.get('version', 1)}{procs})"
        )
    sim_traces = sim_traces_from_records(records)
    if not sim_traces:
        print("no simulator events in this trace "
              "(recorded without a simulation?)")
    total_stalls = 0
    for trace in sim_traces:
        if trace.label:
            print(f"== {trace.label} "
                  f"(W={trace.window_size}, {trace.num_instructions} instructions)")
        for cycle, events in trace.events_by_cycle().items():
            parts = []
            for e in events:
                if e.kind == "issue":
                    unit = f" [{e.unit}]" if e.unit else ""
                    parts.append(f"issue {e.node}{unit}")
                elif e.kind == "window_advance":
                    parts.append(e.detail or f"advance head -> {e.head}")
                else:
                    parts.append(f"{e.kind.upper()}: {e.detail}" if e.detail
                                 else e.kind.upper())
            occ = next(
                (e.occupancy for e in reversed(events) if e.occupancy is not None),
                None,
            )
            occ_txt = f"  [window occupancy {occ}]" if occ is not None else ""
            print(f"cycle {cycle:>5}: " + "; ".join(parts) + occ_txt)
        print(f"total: {trace.issue_count} issues, {trace.stall_cycles} stall "
              f"cycles, {trace.window_advances} window advances")
        total_stalls += trace.stall_cycles
    if len(sim_traces) > 1:
        print(f"all simulations: {total_stalls} stall cycles")
    spans = [r for r in records if r.get("type") == "span"]
    # Timestamp-order spans before aggregating: a v2 file merged from worker
    # spools interleaves records from several processes, not one stream
    # (fork children share the parent's monotonic clock base).
    spans.sort(key=lambda s: s.get("start_us", 0))
    if spans:
        stats: dict[str, tuple[int, float]] = {}
        for s in spans:
            calls, total = stats.get(s["name"], (0, 0.0))
            stats[s["name"]] = (calls + 1, total + s["dur_us"] / 1000)
        rows = [
            [name, calls, f"{total:.3f}"]
            for name, (calls, total) in sorted(
                stats.items(), key=lambda kv: -kv[1][1]
            )
        ]
        print()
        print(format_table(["phase", "calls", "total ms"], rows,
                           title="pipeline phase wall time"))
        per_pid: dict[int, tuple[int, float]] = {}
        for s in spans:
            pid = s.get("pid")
            if pid is None:
                continue
            calls, total = per_pid.get(pid, (0, 0.0))
            per_pid[pid] = (calls + 1, total + s["dur_us"] / 1000)
        if len(per_pid) > 1:
            rows = [
                [pid, calls, f"{total:.3f}"]
                for pid, (calls, total) in sorted(per_pid.items())
            ]
            print()
            print(format_table(["pid", "spans", "total ms"], rows,
                               title="per-process span activity"))
    counters = [r for r in records if r.get("type") == "counter"]
    if counters:
        rows = [[c["name"], c["value"]]
                for c in sorted(counters, key=lambda c: c["name"])]
        print()
        print(format_table(["counter", "value"], rows, title="counters"))
    return 0


def _report_from_jsonl(path: str) -> tuple["RunReport", list]:
    """Build an in-memory RunReport (plus the sim traces) from a recorded
    JSONL trace file."""
    from .obs.metrics import MetricsRegistry, sim_metrics
    from .obs.runreport import collect_provenance

    records = read_jsonl(path)
    if not any(r.get("type") == "meta" for r in records):
        raise ValueError("no meta record")
    sim_traces = sim_traces_from_records(records)
    registry = MetricsRegistry()
    for i, trace in enumerate(sim_traces):
        prefix = "sim." if len(sim_traces) == 1 else f"sim.{i}."
        sim_metrics(trace, registry, prefix)
    phases: dict[str, float] = {}
    for r in records:
        if r.get("type") == "span":
            phases[r["name"]] = phases.get(r["name"], 0.0) + r["dur_us"] / 1e6
    report = RunReport(
        name=Path(path).name,
        metrics=registry.to_dict(),
        phases=phases,
        provenance=collect_provenance(source="trace-jsonl"),
    )
    return report, sim_traces


def cmd_report(args: argparse.Namespace) -> int:
    """Render a RunReport JSON or a recorded JSONL trace as a summary."""
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A RunReport is one (possibly pretty-printed) JSON document; a trace
    # is JSONL whose first record is the meta line.
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and doc.get("type") != "meta":
        try:
            report = RunReport.from_dict(doc)
        except ValueError as exc:
            print(f"error: not a RunReport: {exc}", file=sys.stderr)
            return 2
        print(render_run_report(report, markdown=args.markdown))
        return 0

    first_line = next((ln for ln in text.splitlines() if ln.strip()), "")
    try:
        first = json.loads(first_line)
    except json.JSONDecodeError:
        first = None
    if not (isinstance(first, dict) and first.get("type") == "meta"):
        print(f"error: {args.file} is neither a RunReport JSON nor a "
              "repro trace file", file=sys.stderr)
        return 2
    try:
        report, sim_traces = _report_from_jsonl(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: not a repro trace file: {exc}", file=sys.stderr)
        return 2
    print(render_run_report(report, markdown=args.markdown))
    for trace in sim_traces:
        print()
        print(trace_summary(trace))
        print()
        print(stall_attribution_summary(trace, markdown=args.markdown))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Diff two RunReports; exit 1 when an invariant metric drifted or a
    wall-time regressed beyond the threshold."""
    try:
        baseline = RunReport.load(args.baseline)
        new = RunReport.load(args.new)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.threshold < 0:
        print("error: --threshold must be >= 0", file=sys.stderr)
        return 2
    diff = compare_reports(baseline, new, threshold_pct=args.threshold)
    print(f"comparing {args.baseline} (baseline) vs {args.new}")
    print(render_report_diff(diff, markdown=args.markdown))
    return 0 if diff.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run the differential fault-injection fuzz matrix (chaos smoke)."""
    from .robust.fuzz import run_fuzz

    report = run_fuzz(
        seeds=args.seeds,
        base_seed=args.base_seed,
        time_budget_s=args.budget_s,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    if not report.ok:
        print(
            f"error: {len(report.violations)} invariant violation(s)",
            file=sys.stderr,
        )
        return 1
    if args.min_cells and report.num_cells < args.min_cells:
        print(
            f"error: only {report.num_cells} cells ran, --min-cells "
            f"requires {args.min_cells}",
            file=sys.stderr,
        )
        return 1
    return 0


def _sweep_report(res, params, args) -> "RunReport":
    """A RunReport over the sweep's merged worker telemetry: every merged
    counter and per-span-name call count is invariant (so ``repro compare``
    between a ``--jobs 1`` and a ``--jobs N`` run of the same grid is the
    cross-process parity gate); wall-times land under timing keys, which
    comparisons threshold rather than pin."""
    from .obs.runreport import collect_provenance

    merge = res.telemetry
    metrics: dict[str, object] = dict(sorted(merge.counters.items()))
    metrics["cells"] = len(merge.cells)
    metrics["cells_ok"] = sum(1 for c in merge.cells if c.ok)
    metrics["failures"] = len(res.failures)
    phases: dict[str, float] = {}
    for name, durations in sorted(merge.span_durations().items()):
        metrics[f"span.{name}.count"] = len(durations)
        metrics[f"span.{name}.wall_s"] = sum(durations)
        phases[name] = sum(durations)
    return RunReport(
        name="sweep",
        metrics=metrics,
        phases=phases,
        provenance=collect_provenance(
            cells=len(params),
            jobs=args.jobs,
            faults=bool(args.faults),
            workers=len(merge.pids),
            trace_id=merge.cells[0].trace_id if merge.cells else None,
        ),
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    """Crash-tolerant demo sweep: anticipatory vs per-block-local makespan
    over a windows×seeds grid, with checkpoint/resume.  ``--faults`` swaps
    in the guarded fault-injected cell; ``--spool-dir`` turns on the
    cross-process telemetry pipeline; ``--report`` writes the merged
    telemetry as a RunReport."""
    import tempfile

    from .robust.sweep import (
        SweepFailure,
        guarded_cell,
        run_sweep_robust,
        schedule_cell,
    )

    try:
        windows = [int(x) for x in args.windows.split(",") if x.strip()]
    except ValueError:
        windows = []
    if not windows or any(w < 1 for w in windows):
        print(
            f"error: malformed --windows {args.windows!r} "
            "(expected comma-separated positive ints)",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.checkpoint and not args.resume:
        # A fresh sweep must not silently reuse a stale checkpoint.
        Path(args.checkpoint).unlink(missing_ok=True)

    params = [(w, s) for w in windows for s in range(args.seeds)]
    cell_fn = guarded_cell if args.faults else schedule_cell
    spool_dir = args.spool_dir
    tmp_spool = None
    if args.report and spool_dir is None:
        # --report needs merged telemetry even without a user spool dir.
        tmp_spool = tempfile.TemporaryDirectory(prefix="repro-spool-")
        spool_dir = tmp_spool.name
    try:
        res = run_sweep_robust(
            cell_fn,
            params,
            jobs=args.jobs,
            timeout_s=args.timeout_s,
            retries=args.retries,
            checkpoint=args.checkpoint,
            telemetry_dir=spool_dir,
        )
        rows = []
        if args.faults:
            for (w, s), value in zip(params, res.results):
                if isinstance(value, SweepFailure):
                    rows.append([w, s, "-", "-", "-", value.error_type])
                else:
                    _, _, makespan, source, plan = value
                    rows.append(
                        [w, s, makespan if makespan >= 0 else "-",
                         source, plan, "ok"]
                    )
            text = format_table(
                ["W", "seed", "makespan", "source", "fault plan", "status"],
                rows,
                title=f"guarded scheduling under fault injection "
                      f"({len(params)} cells)",
            )
        else:
            for (w, s), value in zip(params, res.results):
                if isinstance(value, SweepFailure):
                    rows.append([w, s, "-", "-", "-", value.error_type])
                else:
                    _, _, ant, local, stalls = value
                    rows.append([w, s, ant, local, stalls, "ok"])
            text = format_table(
                ["W", "seed", "anticipatory", "local", "stalls", "status"],
                rows,
                title=f"anticipatory vs per-block-local makespan "
                      f"({len(params)} cells)",
            )
        print(text)
        print(
            f"cells: {res.completed}/{len(params)} completed, "
            f"{res.resumed} resumed, {res.attempts} attempts, "
            f"{res.pool_restarts} pool restarts"
        )
        if res.telemetry is not None:
            print(
                f"telemetry: {len(res.telemetry.cells)} cell(s) spooled by "
                f"{len(res.telemetry.pids)} worker(s)"
            )
        if args.output:
            Path(args.output).write_text(text + "\n")
            print(f"wrote {args.output}")
        if args.report:
            path = _sweep_report(res, params, args).write(args.report)
            print(f"report: wrote {path}")
        if res.failures:
            for failure in res.failures:
                print(f"error: {failure}", file=sys.stderr)
            return 1
        return 0
    finally:
        if tmp_spool is not None:
            tmp_spool.cleanup()


def cmd_flame(args: argparse.Namespace) -> int:
    """Profile a scheduling workload with the sampling profiler and write a
    flamegraph HTML (plus optional collapsed stacks / overhead gate)."""
    from .obs.profiler import (
        collapsed_stacks,
        profile,
        profile_overhead,
        write_flamegraph,
    )

    machine = _machine(args)
    if args.file:
        trace = _load_trace(args.file)
        label = args.file
    else:
        # The E10 reference workload (benchmarks/bench_scaling.py): 4 blocks
        # of 20 instructions at W=4 — the size the <5% overhead gate uses.
        from .workloads.traces import random_trace

        trace = random_trace(
            4, 20, edge_probability=0.2, cross_probability=0.05,
            latencies=(0, 1, 2), seed=0,
        )
        label = "E10 workload (4x20, W=4)"

    def workload() -> None:
        for _ in range(args.repeat):
            orders = algorithm_lookahead(trace, machine).block_orders
            simulate_trace(trace, orders, machine)

    interval_s = args.interval_ms / 1000.0
    measure_overhead = args.overhead or args.max_overhead is not None
    overhead = None
    if measure_overhead:
        overhead, prof = profile_overhead(workload, interval_s=interval_s)
    else:
        _, prof = profile(workload, interval_s=interval_s)
    print(
        f"profiled {label}: {prof.sample_count} samples "
        f"({len(prof.samples)} stacks, mode {prof.mode}, "
        f"interval {args.interval_ms:g} ms)"
    )
    out = write_flamegraph(
        args.output, prof.samples, title=f"repro flame — {label}"
    )
    print(f"flamegraph: wrote {out}")
    if args.collapsed:
        Path(args.collapsed).write_text(collapsed_stacks(prof.samples))
        print(f"collapsed stacks: wrote {args.collapsed}")
    if overhead is not None:
        print(f"profiler overhead: {overhead * 100:.2f}%")
        if args.max_overhead is not None and overhead * 100 > args.max_overhead:
            print(
                f"error: overhead {overhead * 100:.2f}% exceeds "
                f"--max-overhead {args.max_overhead:g}%",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the scheduling daemon (see docs/SERVING.md)."""
    import asyncio

    from .serve.admission import AdmissionConfig
    from .serve.daemon import ScheduleServer
    from .serve.service import ScheduleService

    if args.socket is None and args.port is None:
        print("error: need --socket PATH and/or --port N", file=sys.stderr)
        return 2
    try:
        service = ScheduleService(
            jobs=args.jobs,
            cache_size=args.cache_size,
            cache_path=args.cache_path,
            spool_dir=args.spool_dir,
            timeout_s=args.timeout_s,
            retries=args.retries,
            guard_budget_s=args.guard_budget_s,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown_s,
        )
        server = ScheduleServer(
            service,
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            batch_max=args.batch_max,
            batch_window_s=args.batch_window_ms / 1000.0,
            access_log=args.access_log,
            admission=AdmissionConfig(
                queue_capacity=args.queue_capacity,
                inflight_limit=args.inflight_limit,
            ),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _run() -> None:
        await server.start()
        print(
            f"repro serve: listening on {', '.join(server.endpoints())} "
            f"(jobs={args.jobs}, cache={args.cache_size}"
            + (f", store={args.cache_path}" if args.cache_path else "")
            + ")",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    stats = service.stats()
    cache = stats["cache"]
    admission = stats.get("admission") or {}
    print(
        f"repro serve: stopped after {stats['requests']} request(s) "
        f"({cache['hits']} cache hit(s), {cache['misses']} miss(es), "
        f"{stats['errors']} error(s), {admission.get('shed_total', 0)} "
        f"shed)"
    )
    return 0


def cmd_serve_chaos(args: argparse.Namespace) -> int:
    """Run the serve-tier chaos harness against a live daemon
    (see docs/RELIABILITY.md)."""
    from .serve.chaos import ChaosFailure, run_chaos

    try:
        report = run_chaos(
            requests=args.requests,
            burst=args.burst,
            queue_capacity=args.queue_capacity,
            jobs=args.jobs,
            seed=args.seed,
            report_path=args.report,
        )
    except ChaosFailure as exc:
        print(f"serve chaos FAILED: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        inv = report.metrics["invariants"]
        observed = report.provenance["observed"]
        print(
            "serve chaos OK: "
            f"{sum(inv.values())}/{len(inv)} invariants held "
            f"(shed {observed['shed_seen']}, "
            f"degraded {observed['degraded']}, "
            f"crash errors {observed['crash_errors']}, "
            f"{report.metrics['chaos_wall_s']:.2f}s)"
        )
    if args.report:
        print(f"report: wrote {args.report}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Render a spool directory's merged telemetry in Prometheus text
    exposition format."""
    from .obs.expo import prometheus_text
    from .obs.pipeline import merge_spools

    if not Path(args.spool_dir).is_dir():
        print(f"error: {args.spool_dir} is not a directory", file=sys.stderr)
        return 2
    merge = merge_spools(args.spool_dir)
    labels = {"trace_id": merge.cells[0].trace_id} if merge.cells else None
    text = prometheus_text(
        merge.registry(), namespace=args.namespace, labels=labels
    )
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    if not merge.cells:
        print("warning: no spooled cells found", file=sys.stderr)
    return 0


def _daemon_fetch(addr: str):
    """A zero-arg fetcher for ``repro top --connect ADDR`` — ADDR is either
    ``host:port`` (HTTP ``/debug/top``) or a unix socket path (``top`` op).
    """
    host, sep, port = addr.rpartition(":")
    if sep and port.isdigit() and "/" not in addr:
        from .serve.client import http_get

        def fetch() -> dict:
            status, body = http_get(host or "127.0.0.1", int(port), "/debug/top")
            if status != 200:
                raise ConnectionError(f"GET /debug/top -> {status}")
            return json.loads(body)

        return fetch

    from .serve.client import ScheduleClient

    def fetch() -> dict:
        with ScheduleClient(addr, connect_attempts=1) as client:
            return client.top()

    return fetch


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view of a running sweep's spool directory, or — with
    ``--connect`` — of a running scheduling daemon."""
    from .obs.expo import watch_daemon, watch_spools

    if args.connect:
        try:
            watch_daemon(
                _daemon_fetch(args.connect),
                interval_s=args.interval_s,
                iterations=args.frames,
                label=args.connect,
            )
        except (ConnectionError, OSError) as exc:
            print(f"error: cannot reach daemon at {args.connect}: {exc}",
                  file=sys.stderr)
            return 2
        return 0
    if not args.spool_dir:
        print("error: need a spool directory or --connect ADDR",
              file=sys.stderr)
        return 2
    if not Path(args.spool_dir).is_dir():
        print(f"error: {args.spool_dir} is not a directory", file=sys.stderr)
        return 2
    watch_spools(
        args.spool_dir, interval_s=args.interval_s, iterations=args.frames
    )
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    if args.loop:
        blocks = parse_program(Path(args.file).read_text())
        if len(blocks) != 1:
            print("error: --loop needs a single-block program", file=sys.stderr)
            return 2
        text = loop_to_dot(build_loop_graph(blocks[0][1]))
    else:
        text = trace_to_dot(_load_trace(args.file))
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Anticipatory instruction scheduling (SPAA'96) toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="program in the repro textual format")
        p.add_argument("--machine", choices=sorted(MACHINES), default="paper")
        p.add_argument("--window", "-w", type=int, default=None,
                       help="override the machine's lookahead window size")
        p.add_argument(
            "--trace", metavar="FILE", default=None,
            help="record pipeline spans and cycle-level simulator events to "
                 "FILE (JSONL) plus a Chrome-trace .chrome.json sibling "
                 "(open in Perfetto); replay with 'repro trace FILE'",
        )

    p = sub.add_parser("schedule", help="schedule a trace and print block orders")
    common(p)
    p.add_argument(
        "--scheduler",
        choices=["anticipatory", "local", "critical-path", "source"],
        default="anticipatory",
    )
    p.add_argument("--simulate", action="store_true",
                   help="execute the result on the window simulator")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("ranks", help="print Rank-Algorithm ranks")
    p.add_argument(
        "--deadlines",
        metavar="NAME=INT[,NAME=INT...]",
        help="per-instruction deadline overrides (unknown names are an error)",
    )
    common(p)
    p.add_argument("--deadline", type=int, default=100)
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("loop", help="schedule a single-block loop (§5.2)")
    common(p)
    p.add_argument("--iterations", "-n", type=int, default=8)
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("dot", help="emit Graphviz DOT for a program")
    common(p)
    p.add_argument("--loop", action="store_true",
                   help="derive and render the loop dependence graph")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser(
        "fuzz",
        help="differential fault-injection fuzz of the scheduler zoo "
             "(nonzero exit on invariant violations)",
    )
    p.add_argument("--seeds", type=int, default=8,
                   help="number of random traces to fuzz (default 8)")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--budget-s", type=float, default=None, metavar="SEC",
                   help="stop starting new seeds after SEC seconds")
    p.add_argument("--min-cells", type=int, default=0, metavar="N",
                   help="fail (exit 1) unless at least N cells ran")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "sweep",
        help="crash-tolerant demo sweep (anticipatory vs per-block-local "
             "makespan) with checkpoint/resume",
    )
    p.add_argument("--windows", default="2,3,4", metavar="W1,W2,...",
                   help="comma-separated lookahead window sizes (default 2,3,4)")
    p.add_argument("--seeds", type=int, default=8,
                   help="random-trace seeds per window (default 8)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1: in-process)")
    p.add_argument("--checkpoint", metavar="FILE", default=None,
                   help="JSONL checkpoint appended to as cells complete")
    p.add_argument("--resume", action="store_true",
                   help="reuse completed cells from --checkpoint instead of "
                        "starting fresh")
    p.add_argument("--timeout-s", type=float, default=None, metavar="SEC",
                   help="declare running cells hung when no cell completes "
                        "for SEC seconds (jobs > 1)")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts per failed cell (default 1)")
    p.add_argument("--output", "-o", metavar="FILE", default=None,
                   help="also write the result table to FILE")
    p.add_argument("--faults", action="store_true",
                   help="run the fault-injected guarded cell instead of the "
                        "plain comparison cell (exercises guard.*/faults.* "
                        "telemetry)")
    p.add_argument("--spool-dir", metavar="DIR", default=None,
                   help="spool per-cell worker telemetry to DIR and merge it "
                        "at sweep end (watch live with 'repro top DIR')")
    p.add_argument("--report", metavar="FILE", default=None,
                   help="write the merged telemetry as a RunReport JSON "
                        "(counters and span counts invariant across --jobs)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run the scheduling daemon with the content-addressed "
             "schedule cache (see docs/SERVING.md)",
    )
    p.add_argument("--socket", metavar="PATH", default=None,
                   help="unix socket to listen on (JSONL protocol)")
    p.add_argument("--port", type=int, default=None, metavar="N",
                   help="TCP port for the HTTP transport (0 = ephemeral)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for --port (default 127.0.0.1)")
    p.add_argument("--jobs", "-j", type=int, default=1,
                   help="long-lived worker processes (default 1: in-process)")
    p.add_argument("--cache-size", type=int, default=1024, metavar="N",
                   help="max resident schedule-cache entries (LRU, "
                        "default 1024)")
    p.add_argument("--cache-path", metavar="FILE", default=None,
                   help="append-only JSONL schedule store; reloaded on "
                        "restart so the cache survives the daemon")
    p.add_argument("--spool-dir", metavar="DIR", default=None,
                   help="spool per-batch telemetry to DIR (inspect live "
                        "with 'repro top DIR' / 'repro metrics DIR')")
    p.add_argument("--batch-max", type=int, default=16, metavar="N",
                   help="max requests coalesced into one batch (default 16)")
    p.add_argument("--batch-window-ms", type=float, default=2.0,
                   metavar="MS",
                   help="coalescing window after the first request of a "
                        "batch (default 2 ms)")
    p.add_argument("--timeout-s", type=float, default=None, metavar="SEC",
                   help="declare a batch's running requests hung after no "
                        "completion for SEC seconds (jobs > 1)")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts per request on worker crash or "
                        "timeout (default 1)")
    p.add_argument("--access-log", metavar="FILE", default=None,
                   help="append one structured JSON line per request "
                        "(trace_id, digest, hit/miss, duration, status)")
    p.add_argument("--queue-capacity", type=int, default=128, metavar="N",
                   help="admission queue bound; requests beyond it are shed "
                        "with a structured 'overloaded' error (default 128)")
    p.add_argument("--inflight-limit", type=int, default=256, metavar="N",
                   help="max requests in flight per transport before "
                        "shedding (default 256)")
    p.add_argument("--guard-budget-s", type=float, default=5.0, metavar="SEC",
                   help="per-request scheduling time budget; blowouts "
                        "return a verified legal fallback marked "
                        "'degraded' (default 5)")
    p.add_argument("--breaker-threshold", type=int, default=5, metavar="K",
                   help="consecutive failures before a scheduler class's "
                        "circuit breaker opens (default 5)")
    p.add_argument("--breaker-cooldown-s", type=float, default=30.0,
                   metavar="SEC",
                   help="open-breaker cooldown before the half-open probe "
                        "(default 30)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "serve-chaos",
        help="fault-injection harness for the serving daemon: seeded "
             "worker crashes/hangs, slow schedulers, malformed frames, "
             "client disconnects and overload bursts against a live "
             "daemon, asserting every accepted request gets exactly one "
             "structured response (see docs/RELIABILITY.md)",
    )
    p.add_argument("--requests", type=int, default=36, metavar="N",
                   help="chaotic pipelined requests (default 36)")
    p.add_argument("--burst", type=int, default=48, metavar="N",
                   help="concurrent overload-burst requests (default 48)")
    p.add_argument("--queue-capacity", type=int, default=8, metavar="N",
                   help="admission queue capacity under test (default 8)")
    p.add_argument("--jobs", type=int, default=2,
                   help="service worker processes (default 2; crash/hang "
                        "chaos needs >= 2)")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-plan seed (default 0)")
    p.add_argument("--report", metavar="FILE", default=None,
                   help="write the invariant RunReport JSON to FILE")
    p.add_argument("--json", action="store_true",
                   help="print the RunReport to stdout")
    p.set_defaults(func=cmd_serve_chaos)

    p = sub.add_parser(
        "flame",
        help="profile a scheduling workload with the sampling profiler and "
             "write a flamegraph HTML",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="program to profile (default: the E10 scaling "
                        "workload, 4 blocks x 20 instructions)")
    p.add_argument("--machine", choices=sorted(MACHINES), default="paper")
    p.add_argument("--window", "-w", type=int, default=None,
                   help="override the machine's lookahead window size")
    p.add_argument("--repeat", type=int, default=20,
                   help="schedule+simulate iterations to profile (default 20)")
    p.add_argument("--interval-ms", type=float, default=5.0, metavar="MS",
                   help="sampling interval in milliseconds (default 5)")
    p.add_argument("--output", "-o", metavar="FILE", default="flame.html",
                   help="flamegraph HTML path (default flame.html)")
    p.add_argument("--collapsed", metavar="FILE", default=None,
                   help="also write Brendan-Gregg collapsed stacks to FILE")
    p.add_argument("--overhead", action="store_true",
                   help="also measure profiler overhead (bare vs profiled "
                        "wall-clock)")
    p.add_argument("--max-overhead", type=float, default=None, metavar="PCT",
                   help="exit 1 if measured overhead exceeds PCT percent "
                        "(implies --overhead)")
    p.set_defaults(func=cmd_flame)

    p = sub.add_parser(
        "metrics",
        help="render a spool directory's merged telemetry in Prometheus "
             "text exposition format",
    )
    p.add_argument("spool_dir", help="spool directory of a telemetry sweep")
    p.add_argument("--namespace", default="repro",
                   help="metric name prefix (default 'repro')")
    p.add_argument("--output", "-o", metavar="FILE", default=None,
                   help="write the exposition to FILE instead of stdout")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "top",
        help="live terminal view of a running sweep's spool directory "
             "(per-phase rates, latency percentiles, guard/fault counters) "
             "or, with --connect, of a running scheduling daemon",
    )
    p.add_argument("spool_dir", nargs="?", default=None,
                   help="spool directory being written by a sweep")
    p.add_argument("--connect", metavar="ADDR", default=None,
                   help="watch a running daemon instead: host:port (HTTP "
                        "/debug/top) or a unix socket path")
    p.add_argument("--interval", dest="interval_s", type=float, default=1.0,
                   metavar="SEC", help="refresh interval (default 1s)")
    p.add_argument("--frames", type=int, default=None, metavar="N",
                   help="render N frames then exit (default: until Ctrl-C)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "trace",
        help="replay a recorded JSONL trace as a per-cycle timeline",
    )
    p.add_argument("file", help="JSONL trace written by --trace")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "report",
        help="render a RunReport JSON (or a recorded JSONL trace) as a "
             "metrics/stall-attribution summary",
    )
    p.add_argument("file", help="RunReport .json or JSONL trace written by --trace")
    p.add_argument("--markdown", action="store_true",
                   help="emit GitHub-flavoured-markdown tables")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "compare",
        help="diff two RunReports; nonzero exit on metric drift or "
             "wall-time regression",
    )
    p.add_argument("baseline", help="baseline RunReport JSON")
    p.add_argument("new", help="new RunReport JSON")
    p.add_argument("--threshold", type=float, default=25.0, metavar="PCT",
                   help="allowed wall-time increase in percent (default 25); "
                        "all other metrics must match exactly")
    p.add_argument("--markdown", action="store_true",
                   help="emit GitHub-flavoured-markdown tables")
    p.set_defaults(func=cmd_compare)
    return parser


def _package_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # pragma: no cover - not installed
        return __version__


def _run_traced(args: argparse.Namespace) -> int:
    """Run a subcommand under a recorder and export both trace formats."""
    with recording(TraceRecorder()) as rec:
        code = args.func(args)
    jsonl = write_jsonl(args.trace, rec)
    chrome = write_chrome_trace(chrome_trace_path(jsonl), rec)
    sim_events = sum(len(t.events) for t in rec.sim_traces)
    print(f"trace: wrote {jsonl} and {chrome} "
          f"({len(rec.spans)} spans, {sim_events} simulator events)")
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "trace", None) and args.func is not cmd_trace:
            return _run_traced(args)
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager that exited early (e.g. `| head`).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
