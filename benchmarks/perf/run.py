"""Layered benchmark of the library path and the scheduling daemon.

    python3 benchmarks/perf/run.py [--workload W] [--seed S] [--seconds T]
                                   [--trace 0|1] [--quick] [--out FILE]

Without ``--workload`` every workload runs, each in its own process.  Each
run prints its metrics by name and unit, then, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a separate traced pass.  ``--out`` writes everything measured
(both tables, the failures, the environment) as JSON for ``compare.py``.
The exit code is 0 only when every output check passed.

A library run times each trace of its corpus in several rounds and keeps
the best timing (``libpath.ROUNDS``); a serve run sends its sequence once.

Load: one process, one asyncio thread, 2 unix-socket clients in a closed
loop.  The client count and the serve-mixed traffic mix are assumptions, not
measured from a recorded request trace; see README.md for them and for the
workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

import check  # noqa: E402
import layers  # noqa: E402
import libpath  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SECONDS = 20.0
QUICK_SECONDS = 2.0
#: Fresh starts whose median is setup_s.  Half run before the timed phase
#: and half after it, so that one slow spell of a shared machine (all of a
#: run's starts once read 0.41 s against a usual 0.27 s) moves a few of them,
#: not the median.
SETUP_STARTS = 7
QUICK_SETUP_STARTS = 3
SERVE_CLIENTS = 2
SAMPLE_CHECKS = 64
CALIBRATION_OPS = 300_000

#: Requests per serve throughput window, about one second at today's rates.
#: Serve throughput is the median window rate, so a rare slow request or a
#: burst of contention on a shared machine moves one window, not the result.
WINDOW = {"serve-cold": 40, "serve-mixed": 200}

#: End-to-end values reported besides BENCHMARK.json's, never gated by a
#: bound: p99 (serve workloads only, where a run has over 800 samples),
#: the cycle counts (compared exactly) and error_rate (must be 0).
END_TO_END_EXTRA = (
    ("latency_p99_ms", "ms"),
    ("code_cycles", "cycles"),
    ("stall_cycles", "cycles"),
    ("error_rate", "ratio"),
)

#: Serve-only layer metrics, in the table and in --out but not in the
#: result line: the library workloads do not run these layers, so their
#: timings there would be a constant zero.  BENCHMARK.json's per-layer
#: metrics are measured on every workload.  Per request, except the pool,
#: worker and verify rows, which are per cache miss.
SERVE_LAYERS = (
    ("serve.protocol.decode_ms", "ms"),
    ("serve.canonical.canonicalize_ms", "ms"),
    ("serve.canonical.calls", "count"),
    ("serve.cache.probe_ms", "ms"),
    ("robust.pool.dispatch_ms", "ms"),
    ("robust.pool.overhead_ms", "ms"),
    ("serve.worker.schedule_ms", "ms"),
    ("serve.worker.simulate_ms", "ms"),
    ("robust.guard.verify_ms", "ms"),
    ("serve.protocol.respond_ms", "ms"),
    ("serve.daemon.queue_ms", "ms"),
)


def metric_table(section: str) -> list[tuple[str, str]]:
    """(name, unit) of BENCHMARK.json's ``end_to_end`` or ``per_layer``
    metrics, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


class HarnessError(RuntimeError):
    """The benchmark could not run (not a failed output check)."""


# -- environment ---------------------------------------------------------------


def calibration_ops_per_s() -> float:
    """Rate of a fixed pure-Python loop: recorded so that runs on a
    slowed machine can be flagged, never used to normalize a metric."""
    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_OPS):
            acc = (acc + i * i) % 1_000_003
        rates.append(CALIBRATION_OPS / (time.perf_counter() - t0))
    return statistics.median(rates)


def environment() -> dict:
    return {
        "started_unix": time.time(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "calibration_ops_s": calibration_ops_per_s(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@contextlib.contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A private directory under the checkout's ``.perfbench/`` (sockets,
    cache stores, spools), removed afterwards."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def median_rate(completions: list[float], size: int) -> float:
    """Median over consecutive windows of ``size`` completions of the
    window's rate; ``completions`` are seconds from the phase start."""
    done = sorted(completions)
    if len(done) < 2 * size:
        return len(done) / done[-1]
    edges = [0.0] + done[size - 1 :: size]
    return statistics.median(size / (b - a) for a, b in zip(edges, edges[1:]))


def timing_metrics(workload: str, latencies_s: list[float],
                   throughput_rps: float) -> dict:
    ms = [x * 1e3 for x in latencies_s]
    out = {
        "throughput_rps": throughput_rps,
        "latency_p50_ms": percentile(ms, 50),
        "latency_p90_ms": percentile(ms, 90),
    }
    if workload in workloads.SERVE_WORKLOADS:
        out["latency_p99_ms"] = percentile(ms, 99)
    return out


# -- library workloads -----------------------------------------------------------


def lib_child(args: list[str], timeout_s: float) -> tuple[dict, float]:
    """Run libpath.py with ``args``; returns its JSON line and the time from
    spawn to that line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "libpath.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=timeout_s)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise HarnessError(f"libpath.py {' '.join(args)} failed:\n{err[-2000:]}")
    return json.loads(line), elapsed


def run_library(workload: str, seed: int, seconds: float, prefix: int,
                setup_starts: int, traced: bool) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--prefix", str(prefix)]

    def setup_times(starts: int) -> list[float]:
        return [lib_child(base + ["--setup"], 120)[1] for _ in range(starts)]

    setup = setup_times(setup_starts // 2)
    timed, _ = lib_child(base + ["--seconds", str(seconds)], 170)
    setup += setup_times(setup_starts - setup_starts // 2)
    # Each trace's best timing of the child's rounds (libpath.ROUNDS);
    # throughput is traces per second of those timings.
    lat = timed["latencies_s"]
    e2e = {
        **timing_metrics(workload, lat, len(lat) / sum(lat)),
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": timed["peak_rss_mb"],
        "code_cycles_vs_bound": timed["code_cycles"] / timed["bound_cycles"],
        "code_cycles": timed["code_cycles"],
        "stall_cycles": timed["stall_cycles"],
    }
    result = {
        "end_to_end": e2e,
        "samples": len(lat),
        "attempted": len(lat) * timed["rounds"],
        "failures": timed["failures"],
        "setup_runs_s": setup,
        "latencies_s": lat,
    }
    if traced:
        out, _ = lib_child(base + ["--traced"], 170)
        per_layer = dict.fromkeys((name for name, _ in metric_table("per_layer")), 0.0)
        per_layer.update(out["layers"])
        per_layer["obs.trace_overhead_pct"] = overhead_pct(
            out["untraced_rps"], out["traced_rps"]
        )
        result["per_layer"] = per_layer
        result["attempted"] += prefix
    return result


def overhead_pct(untraced_rps: float, traced_rps: float) -> float:
    """Throughput lost to tracing, both measured over the same first
    requests of the sequence."""
    return (untraced_rps - traced_rps) / untraced_rps * 100


# -- serve workloads ---------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process on a unix socket under ``rundir``."""

    def __init__(self, rundir: Path, name: str, extra: list[str], traced: bool):
        self.socket = rundir / f"{name}.sock"
        self.log = rundir / f"{name}.log"
        entry = (
            [str(HERE / "launch_daemon.py")] if traced else ["-m", "repro", "serve"]
        )
        self.started = time.perf_counter()
        with self.log.open("w") as log:
            # Its own process group, so that stop() can reach forked pool
            # workers too if the daemon has to be killed.
            self.proc = subprocess.Popen(
                [sys.executable, *entry, "--socket", os.path.relpath(self.socket, ROOT),
                 *extra],
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.DEVNULL,
                stderr=log,
                start_new_session=True,
            )

    @property
    def address(self) -> str:
        """The socket path for clients.  Relative paths (the daemon's from
        ROOT, this one from the working directory) stay short of the
        108-byte AF_UNIX limit wherever the checkout is."""
        return os.path.relpath(self.socket)

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Seconds from spawn until the first ``ping`` is answered."""
        while True:
            if self.proc.poll() is not None:
                raise HarnessError(f"daemon exited early:\n{self.log.read_text()[-2000:]}")
            try:
                reply = self.call({"op": "ping"})
            except (FileNotFoundError, ConnectionRefusedError):
                if time.perf_counter() - self.started > timeout_s:
                    raise HarnessError("daemon did not answer ping") from None
                time.sleep(0.002)
                continue
            if reply.get("ok"):
                return time.perf_counter() - self.started

    def call(self, doc: dict) -> dict:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(60)
            s.connect(self.address)
            with s.makefile("rwb") as f:
                f.write(json.dumps(doc).encode() + b"\n")
                f.flush()
                return json.loads(f.readline())

    def stop(self) -> None:
        """SIGINT (the daemon drains and reaps its workers), then SIGKILL
        to the whole process group if it does not exit in time."""
        if self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


async def _drive(path: str, lines: list[bytes], seconds: float | None,
                 min_count: int) -> list[tuple[float, float, bytes]]:
    """Closed loop: SERVE_CLIENTS connections take the next request in
    sequence order, send it, and wait for its reply.  After ``seconds``
    (and at least ``min_count`` requests) no new request is sent.  Returns,
    per sent request, its latency, its completion time from the start, and
    the raw reply."""
    conns = [
        await asyncio.open_unix_connection(path, limit=1 << 24)
        for _ in range(SERVE_CLIENTS)
    ]
    replies: list = []
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    async def client(reader, writer) -> None:
        while len(replies) < len(lines):
            if deadline is not None and len(replies) >= min_count and (
                time.perf_counter() >= deadline
            ):
                return
            i = len(replies)
            replies.append(None)
            t0 = time.perf_counter()
            writer.write(lines[i])
            await writer.drain()
            raw = await reader.readline()
            t1 = time.perf_counter()
            if not raw:
                raise HarnessError("daemon closed a connection before replying")
            replies[i] = (t1 - t0, t1 - start, raw)

    try:
        await asyncio.gather(*(client(r, w) for r, w in conns))
    finally:
        for _, writer in conns:
            writer.close()
            await writer.wait_closed()
    return replies


def drive(daemon: Daemon, docs: list[dict], seconds: float | None = None,
          min_count: int = 0) -> tuple[list[float], list[dict], list[float]]:
    """Send ``docs`` in order; returns latencies, parsed replies and
    completion times of the requests sent."""
    lines = [json.dumps(d).encode() + b"\n" for d in docs]
    sent = asyncio.run(_drive(daemon.address, lines, seconds, min_count))
    return (
        [lat for lat, _, _ in sent],
        [json.loads(raw) for _, _, raw in sent],
        [done for _, done, _ in sent],
    )


def daemon_args(workload: str, rundir: Path, name: str) -> list[str]:
    # A 256-entry cache fills within both serve workloads' timed phases,
    # so the daemon's peak RSS stops growing with the number of requests,
    # and a faster daemon does not read as one that uses more memory.
    args = ["--jobs", "2", "--cache-size", "256"]
    if workload == "serve-mixed":
        args += ["--cache-path", os.path.relpath(rundir / f"{name}.cache.jsonl", ROOT)]
    return args


def warmup_docs(workload: str, seed: int) -> list[dict]:
    if workload == "serve-mixed":
        return workloads.hot_set(seed)
    return workloads.sequence(workload, seed, 20, stream="warmup")


def distinct_answers(docs: list[dict], replies: list[dict]) -> list[tuple[dict, dict]]:
    """One (request, reply) per distinct canonical digest, in order."""
    seen, out = set(), []
    for doc, reply in zip(docs, replies):
        if reply.get("ok") and reply["digest"] not in seen:
            seen.add(reply["digest"])
            out.append((doc, reply))
    return out


def serve_phases(latencies: list[float], replies: list[dict]) -> dict:
    """Mean time per request (per miss for the pool and worker rows) in
    each daemon phase, from the ``server`` block of every reply."""
    ok = [r for r in replies if r.get("ok")]
    misses = [r for r in ok if not r["cached"]]

    def mean_ms(rows, key) -> float:
        vals = [key(r) for r in rows]
        return statistics.fmean(vals) * 1e3 if vals else 0.0

    phase = lambda name: lambda r: r["server"]["phases"].get(name, 0.0)  # noqa: E731
    worker = lambda name: lambda r: r["server"]["worker"]["phases"][name]  # noqa: E731

    def overhead(r) -> float:
        w = r["server"]["worker"]["phases"]
        return r["server"]["phases"]["dispatch_s"] - w["schedule_s"] - w["simulate_s"]

    return {
        "serve.protocol.decode_ms": mean_ms(ok, phase("decode_s")),
        "serve.canonical.canonicalize_ms": mean_ms(ok, phase("canonicalize_s")),
        "serve.cache.probe_ms": mean_ms(ok, phase("cache_probe_s")),
        "robust.pool.dispatch_ms": mean_ms(misses, phase("dispatch_s")),
        "robust.pool.overhead_ms": mean_ms(misses, overhead),
        "serve.worker.schedule_ms": mean_ms(misses, worker("schedule_s")),
        "serve.worker.simulate_ms": mean_ms(misses, worker("simulate_s")),
        "serve.protocol.respond_ms": mean_ms(ok, phase("respond_s")),
        "serve.daemon.queue_ms": statistics.fmean(
            lat - r["server"]["duration_s"] for lat, r in zip(latencies, replies) if r.get("ok")
        ) * 1e3,
    }


def serve_counts(replies: list[dict], before: dict, after: dict) -> dict:
    """Batching, pool and cache ratios of one fixed-count pass, from the
    daemon's ``stats`` op before and after it and the replies' worker pids.
    A fixed count keeps them independent of how fast the daemon is."""

    def delta(*path) -> float:
        a, b = before, after
        for key in path:
            a, b = a[key], b[key]
        return b - a

    lookups = delta("cache", "hits") + delta("cache", "misses")
    pids = {r["server"]["worker"]["pid"] for r in replies if r.get("ok") and not r["cached"]}
    return {
        "serve.daemon.batch_size": delta("requests") / max(delta("batches"), 1),
        "robust.pool.worker_pids_per_batch": len(pids) / max(delta("pool", "batches"), 1),
        "robust.pool.attempts_per_miss": (
            delta("pool", "attempts") / max(delta("cache", "misses"), 1)
        ),
        "serve.cache.hit_ratio": delta("cache", "hits") / lookups if lookups else 0.0,
        "serve.admission.shed": (after.get("admission") or {}).get("shed_total", 0),
    }


def check_replies(docs: list[dict], replies: list[dict]) -> list[str]:
    failures = []
    for doc, reply in zip(docs, replies):
        if not reply.get("ok"):
            failures.append(f"{doc['id']}: {reply.get('code')}: {reply.get('error')}")
            continue
        errors = check.check_answer(doc["program"], doc["machine"], reply)
        failures.extend(f"{doc['id']}: {e}" for e in errors[:1])
    return failures


def check_sample(workload: str, seed: int, docs: list[dict],
                 replies: list[dict]) -> list[str]:
    """Served answers of a seeded sample must equal a direct
    ``compute_request`` bit for bit."""
    from repro.serve.worker import compute_request

    rng = random.Random(f"sample:{workload}:{seed}")
    failures = []
    for i in sorted(rng.sample(range(len(docs)), min(SAMPLE_CHECKS, len(docs)))):
        if not replies[i].get("ok"):
            continue  # already counted by check_replies
        direct = compute_request(docs[i])
        for key in ("block_orders", "makespan", "stall_cycles", "schedule_digest"):
            if replies[i][key] != direct[key]:
                failures.append(f"{docs[i]['id']}: served {key} differs from direct")
                break
    return failures


def daemon_setup_times(workload: str, rundir: Path, starts: range) -> list[float]:
    """Spawn-to-first-ping time of one fresh daemon per start."""
    times = []
    for k in starts:
        daemon = Daemon(rundir, f"setup{k}", daemon_args(workload, rundir, f"setup{k}"), False)
        try:
            times.append(daemon.wait_ready())
        finally:
            daemon.stop()
    return times


def run_serve(workload: str, seed: int, seconds: float, prefix: int,
              setup_starts: int, traced: bool, rundir: Path) -> dict:
    setup = daemon_setup_times(workload, rundir, range(setup_starts // 2))
    count = max(prefix, math.ceil(seconds * workloads.RATE_CAP[workload]))
    docs = workloads.sequence(workload, seed, count)
    daemon = Daemon(rundir, "main", daemon_args(workload, rundir, "main"), False)
    try:
        daemon.wait_ready()
        drive(daemon, warmup_docs(workload, seed))
        latencies, replies, done = drive(daemon, docs, seconds, prefix)
        rss = libpath.peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    setup += daemon_setup_times(workload, rundir, range(setup_starts // 2, setup_starts))
    docs = docs[: len(replies)]
    failures = check_replies(docs, replies)
    failures += check_sample(workload, seed, docs, replies)
    code = distinct_answers(docs[:prefix], replies[:prefix])
    code_cycles = sum(r["makespan"] for _, r in code)
    e2e = {
        **timing_metrics(workload, latencies, median_rate(done, WINDOW[workload])),
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": rss,
        "code_cycles_vs_bound": code_cycles / sum(
            check.lower_bound(d["program"], d["machine"]) for d, _ in code
        ),
        "code_cycles": code_cycles,
        "stall_cycles": sum(r["stall_cycles"] for _, r in code),
    }
    result = {
        "end_to_end": e2e,
        "samples": len(latencies),
        "attempted": len(replies),
        "failures": failures,
        "setup_runs_s": setup,
        "latencies_s": latencies,
        "completions_s": done,
        "serve_layers": serve_phases(latencies, replies),
    }
    if traced:
        per_layer = dict.fromkeys((name for name, _ in metric_table("per_layer")), 0.0)
        traced_out = traced_serve(workload, seed, prefix, rundir)
        per_layer.update(traced_out["layers"])
        per_layer["obs.trace_overhead_pct"] = overhead_pct(
            prefix / max(done[:prefix]), traced_out["throughput_rps"]
        )
        result["per_layer"] = per_layer
        result["attempted"] += prefix
        result["failures"] += traced_out["failures"]
    return result


def traced_serve(workload: str, seed: int, prefix: int, rundir: Path) -> dict:
    """The fixed-count traced pass: a fresh daemon started through
    launch_daemon.py with a spool directory; layer spans and counters are
    read back from the spools once the daemon has stopped, batching, pool
    and cache ratios from its ``stats`` op."""
    from repro.obs.pipeline import clear_spools, merge_spools

    spool = rundir / "spool"
    extra = daemon_args(workload, rundir, "traced") + [
        "--spool-dir", os.path.relpath(spool, ROOT)
    ]
    docs = workloads.sequence(workload, seed, prefix)
    daemon = Daemon(rundir, "traced", extra, True)
    try:
        daemon.wait_ready()
        drive(daemon, warmup_docs(workload, seed))
        # A batch's spool line is written before its replies are sent, so
        # the warm-up's telemetry is all on disk here.
        clear_spools(spool)
        before = daemon.call({"op": "stats"})["stats"]
        _, replies, done = drive(daemon, docs)
        after = daemon.call({"op": "stats"})["stats"]
    finally:
        daemon.stop()
    merged = merge_spools(spool)
    computed = sum(1 for r in replies if r.get("ok") and not r["cached"])
    out = layers.core_layers(merged.spans, merged.counters, prefix, computed)
    out.update(serve_counts(replies, before, after))
    code = distinct_answers(docs, replies)
    out["code_cycles"] = sum(r["makespan"] for _, r in code)
    out["stall_cycles"] = sum(r["stall_cycles"] for _, r in code)
    return {
        "layers": out,
        "throughput_rps": prefix / max(done),
        "failures": check_replies(docs, replies),
    }


# -- one workload ----------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> dict:
    workload, seed = args.workload, args.seed
    quick, traced = args.quick, args.trace == 1
    seconds = args.seconds if args.seconds is not None else (
        QUICK_SECONDS if quick else DEFAULT_SECONDS
    )
    prefix = (workloads.QUICK_EXACT_PREFIX if quick else workloads.EXACT_PREFIX)[workload]
    # The result line carries per-layer metrics when traced; set-up time is
    # only measured for the end-to-end result.
    setup_starts = 0 if traced else (QUICK_SETUP_STARTS if quick else SETUP_STARTS)
    env = environment()
    with scratch_dir(f"{workload}-") as rundir:
        if workload in workloads.LIB_WORKLOADS:
            result = run_library(workload, seed, seconds, prefix, setup_starts, traced)
        else:
            result = run_serve(workload, seed, seconds, prefix, setup_starts, traced, rundir)
    result["end_to_end"]["error_rate"] = len(result["failures"]) / result["attempted"]
    result.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        traced=traced,
        quick=quick,
        prefix=prefix,
        inputs_sha256=workloads.digest(workloads.sequence(workload, seed, prefix)),
        env=env,
        failed=len(result["failures"]),
        correct=not result["failures"],
    )
    return result


def result_line(result: dict) -> dict:
    """The contract line: BENCHMARK.json's end-to-end metrics, or its
    per-layer metrics for a traced run."""
    table = metric_table("per_layer" if result["traced"] else "end_to_end")
    values = result["per_layer"] if result["traced"] else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }


def print_table(result: dict) -> None:
    w = result["workload"]
    print(
        f"== {w}  seed {result['seed']}  {result['samples']} samples  "
        f"{result['attempted']} attempted  {result['failed']} failed  "
        f"(nproc {result['env']['nproc']}, load {result['env']['loadavg_1m']:.2f}, "
        f"calibration {result['env']['calibration_ops_s'] / 1e6:.2f} Mops/s)"
    )
    e2e = result["end_to_end"]
    for name, unit in metric_table("end_to_end") + list(END_TO_END_EXTRA):
        value = e2e.get(name)
        if value is not None:
            print(f"  {name:<36} {value:>14.6g} {unit}")
    if "per_layer" in result:
        print(f"  -- per layer (traced pass of {result['prefix']} requests; serve phase "
              "times from the untraced timed phase)")
        for name, unit in metric_table("per_layer"):
            print(f"  {name:<36} {result['per_layer'][name]:>14.6g} {unit}")
    serve = {**result.get("serve_layers", {}), **result.get("per_layer", {})}
    for name, unit in SERVE_LAYERS:
        if name in serve and w in workloads.SERVE_WORKLOADS:
            print(f"  {name:<36} {serve[name]:>14.6g} {unit}")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")


# -- entry point -----------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh harness process, so that no
    workload's state or imports carry over into another's timings."""
    results, ok = {}, True
    with scratch_dir("all-") as tmp:
        for workload in workloads.WORKLOADS:
            out = Path(tmp) / f"{workload}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--trace", str(args.trace),
                   "--out", str(out)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            if args.quick:
                cmd.append("--quick")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if not out.exists():
                print(proc.stderr[-2000:], file=sys.stderr)
                ok = False
                continue
            result = json.loads(out.read_text())["workloads"][workload]
            results[workload] = result
            ok = ok and proc.returncode == 0 and result["correct"]
    if args.out:
        Path(args.out).write_text(json.dumps({"workloads": results}, indent=1) + "\n")
    summary = {
        "correct": ok and len(results) == len(workloads.WORKLOADS),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {w: result_line(r)["metrics"] for w, r in results.items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        description="Layered benchmark of the library path and the daemon."
    )
    p.add_argument("--workload", choices=workloads.WORKLOADS,
                   help="run one workload (default: all, each in its own process)")
    p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    p.add_argument("--seconds", type=float, default=None,
                   help=f"timed phase length (default {DEFAULT_SECONDS:g}, "
                        f"--quick {QUICK_SECONDS:g})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: also run the traced pass and report per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help="about 2 s per workload, smaller traced passes (self-test)")
    p.add_argument("--out", metavar="FILE", help="write every measurement as JSON")
    args = p.parse_args(argv)
    # On SIGTERM, unwind, so that the cleanup paths stop every child process
    # (library children, daemons and their pool workers).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    try:
        result = run_workload(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_table(result)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"workloads": {args.workload: result}}, indent=1) + "\n"
        )
    print(json.dumps(result_line(result)), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
