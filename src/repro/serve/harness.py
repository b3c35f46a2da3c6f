"""End-to-end harness for the scheduling daemon: ``repro serve-smoke`` and
``repro serve-chaos``.

Both boot a real :class:`~repro.serve.daemon.ScheduleServer` in-process
and drive a seeded corpus through it from concurrent clients.  Every
answer the installed :class:`~repro.robust.faults.FaultPlan` leaves alone
must be ok and bit-identical to a direct
:func:`repro.serve.worker.compute_request` call.

:func:`run_smoke` runs with no plan: **cold** (every request misses the
cache), **warm** (every request again plus a relabeled isomorph of each;
all must hit), **tracing** (trace-id round-trip, ``/debug/traces``,
``/debug/slow``, a replayable waterfall) and **metrics**.

:func:`run_chaos` runs the same cold phase under a plan with serving
faults, between chaos-only phases: bad frames (first, while every breaker
is closed), an overload burst, a torn cache store, and recovery.  Its
headline invariant: **every accepted request receives exactly one
structured response**; sheds carry retry guidance, degraded answers are
verified-legal and never cached, and no worker leaks.

CI gates each RunReport against ``benchmarks/baselines/serve_{smoke,
chaos}.json``: counts and invariants exactly, wall times thresholded; the
chaos run's timing-dependent fault mix goes to provenance, not gated.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from typing import Iterator

from ..analysis.verify import verify_scheduler_output
from ..ir.instruction import FIXED, FLOAT, MEMORY
from ..machine.presets import PAPER_CORE, WIDE_VLIW, paper_machine
from ..obs.runreport import RunReport, collect_provenance
from ..robust.faults import FaultPlan, injection, serving_storm
from ..workloads.traces import random_trace
from .admission import AdmissionConfig
from .cache import ScheduleCache
from .canonical import relabel_trace
from .client import ScheduleClient, http_get, http_schedule
from .daemon import ScheduleServer, ServerHandle
from .protocol import (
    SCHEDULER_NAMES,
    ScheduleRequest,
    machine_from_dict,
    trace_from_dict,
    trace_to_dict,
)
from .service import ScheduleService
from .worker import compute_request

_MACHINES = (PAPER_CORE, paper_machine(2), WIDE_VLIW)

#: Concurrent client connections of the cold phase (the smoke's default).
CLIENTS = 4


class HarnessFailure(AssertionError):
    """One smoke or chaos invariant did not hold."""


# -- the shared pieces -------------------------------------------------------


def request_doc(i: int, seed: int, request_id: str) -> dict:
    """Request ``i`` of the seeded corpus: machines, schedulers and block
    counts cycle with ``i``, so every request class appears."""
    machine = _MACHINES[i % len(_MACHINES)]
    fu_classes = (FIXED, FLOAT, MEMORY) if machine is WIDE_VLIW else None
    trace = random_trace(
        num_blocks=2 + i % 3,
        block_size=(3, 6),
        cross_probability=0.15,
        latencies=(0, 1, 2),
        seed=seed + i,
        **({"fu_classes": fu_classes} if fu_classes else {}),
    )
    return ScheduleRequest(
        trace=trace,
        machine=machine,
        scheduler=SCHEDULER_NAMES[i % len(SCHEDULER_NAMES)],
        id=request_id,
    ).to_dict()


def build_corpus(n: int, seed: int, prefix: str = "cold-") -> list[dict]:
    """``n`` structurally distinct request documents with ids
    ``{prefix}{i}``."""
    return [request_doc(i, seed, f"{prefix}{i}") for i in range(n)]


def relabeled_doc(doc: dict, tag: str) -> dict:
    """An isomorphic variant of ``doc``: every node renamed (order
    preserved), block names changed, correlation id re-tagged."""
    trace = trace_from_dict(doc["program"])
    mapping = {n: f"{tag}_{i}" for i, n in enumerate(trace.graph.nodes)}
    program = trace_to_dict(relabel_trace(trace, mapping))
    for j, block in enumerate(program["blocks"]):
        block["name"] = f"{tag.upper()}BB{j}"
    return dict(doc, program=program, id=tag)


def drive(
    socket_path: Path, docs: list[dict], clients: int
) -> list[dict | None]:
    """Send ``docs`` through ``clients`` concurrent connections
    (round-robin shards, pipelined within a client).  Responses come back
    in input order, ``None`` for every request of a shard whose connection
    failed — a dropped connection is a missing answer, not an exception."""
    responses: list[dict | None] = [None] * len(docs)

    def run_shard(first: int) -> None:
        try:
            with ScheduleClient(socket_path) as client:
                for i in range(first, len(docs), clients):
                    responses[i] = client.call(docs[i])
        except (ConnectionError, OSError):
            pass

    with ThreadPoolExecutor(max_workers=clients) as pool:
        list(pool.map(run_shard, range(min(clients, len(docs)))))
    return responses


def _raw_unix(socket_path: Path, payload: bytes, read_lines: int) -> list[bytes]:
    """Write raw bytes to the unix transport; read up to ``read_lines``
    response lines (stops early on EOF)."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30.0)
    lines: list[bytes] = []
    try:
        sock.connect(str(socket_path))
        sock.sendall(payload)
        fh = sock.makefile("rb")
        for _ in range(read_lines):
            line = fh.readline()
            if not line:
                break
            lines.append(line)
    finally:
        sock.close()
    return lines


@contextmanager
def booted(
    workdir: str | None,
    server_options: dict | None = None,
    **service_options,
) -> Iterator[ScheduleServer]:
    """A daemon whose store, spools and socket live in a fresh temp
    directory (under ``workdir``), removed on exit; start it with
    :class:`~repro.serve.daemon.ServerHandle`."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        root = Path(tmp)
        service = ScheduleService(
            cache_path=root / "cache.jsonl",
            spool_dir=root / "spool",
            **service_options,
        )
        yield ScheduleServer(
            service,
            socket_path=root / "serve.sock",
            port=0,  # bind an ephemeral HTTP port too
            **(server_options or {}),
        )


def check_answers(
    docs: list[dict],
    responses: list[dict | None],
    observed: Counter,
    plan: FaultPlan | None = None,
    cached: bool | None = None,
) -> list[str]:
    """The answer contract, as a list of violations.

    Every ok, non-degraded answer must be bit-identical to a direct
    :func:`~repro.serve.worker.compute_request` of its document without
    ``deadline_ms``, and carry ``cached`` as its cache provenance unless
    ``cached`` is None.  The plan decides which answers may fail: a request
    it makes exit or hang may get an error, one it slows may degrade, and
    a scheduler class it faults may answer ``breaker_open``.  Every other
    answer must be ok.  Outcomes are tallied into ``observed``.
    """
    action = (plan or FaultPlan()).worker_action
    faulted = {doc["scheduler"] for doc in docs if action(doc["id"])}
    violations = []
    for doc, response in zip(docs, responses):
        rid = doc["id"]
        planned = action(rid)
        if not isinstance(response, dict) or "ok" not in response:
            observed["unexpected_exceptions"] += 1
            violations.append(
                f"request {rid!r} got no structured response: {response!r}"
            )
            continue
        code = response.get("code")
        if response["ok"] and not response.get("degraded"):
            if cached is not None and response.get("cached") != cached:
                violations.append(
                    f"request {rid!r} expected cached={cached}, got "
                    f"{response.get('cached')}"
                )
            direct = compute_request(
                {k: v for k, v in doc.items() if k != "deadline_ms"}
            )
            for key in ("block_orders", "makespan", "stall_cycles", "schedule_digest"):
                if response[key] != direct[key]:
                    violations.append(
                        f"request {rid!r} field {key!r} diverges from direct "
                        f"computation:\n  served: {response[key]!r}\n"
                        f"  direct: {direct[key]!r}"
                    )
                    break
        elif response["ok"]:
            observed["degraded"] += 1
            if planned != "slow":
                violations.append(
                    f"request {rid!r} degraded unplanned: "
                    f"{response['degraded']!r}"
                )
        elif code == "breaker_open" and doc["scheduler"] in faulted:
            observed["breaker_open_seen"] += 1
        elif planned == "exit":
            observed["crash_errors"] += 1
        elif planned == "hang":
            observed["hang_errors"] += 1
        else:
            violations.append(
                f"request {rid!r} (action {planned}) failed: "
                f"{response.get('error')!r} (code {code!r})"
            )
    return violations


def _raise_on(violations: list[str]) -> None:
    if violations:
        raise HarnessFailure(
            f"{len(violations)} violation(s):\n  - " + "\n  - ".join(violations)
        )


def _report(
    name: str,
    metrics: dict,
    phases: dict,
    report_path: str | None,
    **provenance,
) -> RunReport:
    report = RunReport(
        name=name,
        metrics=metrics,
        phases=phases,
        provenance=collect_provenance(**provenance),
    )
    if report_path:
        report.write(report_path)
    return report


# -- the smoke ---------------------------------------------------------------


def check_tracing(
    server: ScheduleServer, seed: int, waterfall_path: str | None
) -> dict:
    """Tracing phase: one forced-slow request with a caller-supplied
    trace id must round-trip the id, land in ``/debug/traces`` with a full
    span tree, populate ``/debug/slow``, and export a replayable waterfall.
    Returns the deterministic tally for the RunReport."""
    trace_id = f"smoke{seed & 0xFFFFFFFF:08x}"
    # A cache miss over a large trace: runs the scheduler, so it lands far
    # above the rolling median of warm hits and must be tail-sampled.
    slow_trace = random_trace(
        num_blocks=4,
        block_size=(10, 14),
        cross_probability=0.2,
        latencies=(0, 1, 2, 3),
        seed=seed + 10_000,
    )
    request = ScheduleRequest(
        trace=slow_trace,
        machine=PAPER_CORE,
        scheduler="anticipatory",
        id="traced-slow",
        trace_id=trace_id,
    )
    with ScheduleClient(server.socket_path) as client:
        response = client.call(request.to_dict())
    if not response.get("ok"):
        raise HarnessFailure(f"traced request failed: {response.get('error')}")
    echoed = (response.get("trace") or {}).get("trace_id")
    if echoed != trace_id:
        raise HarnessFailure(
            f"trace_id did not round-trip: sent {trace_id!r}, got {echoed!r}"
        )
    server_block = response.get("server") or {}
    if "phases" not in server_block or "dispatch_s" not in server_block["phases"]:
        raise HarnessFailure(
            f"response carries no server-side phase timings: {server_block!r}"
        )

    # The same kernel again, over HTTP: a cache hit tagged transport=http.
    doc = dict(request.to_dict(), id="traced-http")
    doc.pop("trace", None)
    status, http_response = http_schedule(server.host, server.port, doc)
    if status != 200 or not http_response.get("ok"):
        raise HarnessFailure(f"HTTP re-request failed: {status}, {http_response}")
    if not http_response.get("cached"):
        raise HarnessFailure("HTTP re-request of the traced kernel missed")

    status, body = http_get(
        server.host, server.port, f"/debug/traces?trace_id={trace_id}"
    )
    if status != 200:
        raise HarnessFailure(f"GET /debug/traces: status {status}")
    retained = json.loads(body)["traces"]
    if not retained:
        raise HarnessFailure(f"/debug/traces retained nothing for {trace_id}")
    spans = retained[-1]["spans"]
    names = {s["name"] for s in spans}
    if "serve.request" not in names or not any(
        n.startswith("serve.worker.") for n in names
    ):
        raise HarnessFailure(
            f"span tree incomplete for {trace_id}: {sorted(names)}"
        )
    wrong = [s for s in spans if s.get("trace_id") != trace_id]
    if wrong:
        raise HarnessFailure(
            f"{len(wrong)} span(s) lost the request trace_id: {wrong[:3]}"
        )

    status, body = http_get(server.host, server.port, "/debug/slow")
    if status != 200 or not json.loads(body)["traces"]:
        raise HarnessFailure("/debug/slow empty after the forced-slow request")

    status, waterfall = http_get(
        server.host,
        server.port,
        f"/debug/traces?trace_id={trace_id}&format=jsonl",
    )
    if status != 200 or not waterfall.strip():
        raise HarnessFailure("waterfall export (format=jsonl) came back empty")
    records = [json.loads(line) for line in waterfall.splitlines() if line]
    wf_spans = sum(1 for r in records if r.get("type") == "span")
    if wf_spans != len(spans):
        raise HarnessFailure(
            f"waterfall exported {wf_spans} spans, ring holds {len(spans)}"
        )
    if waterfall_path:
        Path(waterfall_path).write_bytes(waterfall)
    return {
        "trace_roundtrip": 1,
        "retained_for_id": len(retained),
        "slow_ring_nonempty": 1,
        "waterfall_spans": wf_spans,
    }


def run_smoke(
    requests: int = 12,
    clients: int = CLIENTS,
    jobs: int = 1,
    seed: int = 0,
    report_path: str | None = None,
    workdir: str | None = None,
    waterfall_path: str | None = None,
) -> RunReport:
    """Run the full smoke; raises :class:`HarnessFailure` on any violated
    invariant, returns the (optionally written) RunReport otherwise."""
    cold_docs = build_corpus(requests, seed)
    warm_docs = [
        dict(doc, id=f"warm-{i}") for i, doc in enumerate(cold_docs)
    ] + [relabeled_doc(doc, f"iso{i}") for i, doc in enumerate(cold_docs)]

    with booted(workdir, jobs=jobs, cache_size=4 * requests + 8) as server:
        with ServerHandle(server):
            t0 = time.perf_counter()
            cold = drive(server.socket_path, cold_docs, clients)
            t_cold = time.perf_counter() - t0
            _raise_on(check_answers(cold_docs, cold, Counter(), cached=False))

            t1 = time.perf_counter()
            warm = drive(server.socket_path, warm_docs, clients)
            t_warm = time.perf_counter() - t1
            _raise_on(check_answers(warm_docs, warm, Counter(), cached=True))

            tracing = check_tracing(server, seed, waterfall_path)

            status, metrics_body = http_get(server.host, server.port, "/metrics")
            if status != 200 or b"serve_cache_hit_total" not in metrics_body:
                raise HarnessFailure(
                    f"GET /metrics: status {status}, cache-hit series missing"
                )
            if b"serve_cache_hit_ratio" not in metrics_body:
                raise HarnessFailure("serve_cache_hit_ratio gauge missing")
            status, _ = http_get(server.host, server.port, "/healthz")
            if status != 200:
                raise HarnessFailure(f"GET /healthz: status {status}")
            stats = server.service.stats()

    cache = stats["cache"]
    # The tracing phase adds one unix-socket miss and one HTTP hit on top
    # of the cold/warm phases.
    if cache["hits"] != len(warm_docs) + 1:
        raise HarnessFailure(
            f"expected exactly {len(warm_docs) + 1} cache hits "
            f"(every warm request + the HTTP re-request), got {cache['hits']}"
        )
    if cache["misses"] != len(cold_docs) + 1:
        raise HarnessFailure(
            f"expected exactly {len(cold_docs) + 1} cache misses "
            f"(every cold request + the traced request), got {cache['misses']}"
        )
    if stats["errors"]:
        raise HarnessFailure(f"{stats['errors']} error response(s)")
    if stats.get("cache_hit_ratio") is None:
        raise HarnessFailure("/stats carries no cache_hit_ratio")
    # A clean smoke run must never trip the overload/degradation machinery:
    # nothing shed, no deadline misses, no degraded fallbacks, every
    # breaker closed.
    admission = stats.get("admission") or {}
    if admission.get("shed_total", 0):
        raise HarnessFailure(
            f"admission shed {admission['shed_total']} request(s) on a "
            f"clean run"
        )
    if stats.get("degraded", 0) or stats.get("deadline_exceeded", 0):
        raise HarnessFailure(
            f"clean run produced {stats.get('degraded', 0)} degraded and "
            f"{stats.get('deadline_exceeded', 0)} deadline-exceeded "
            f"response(s)"
        )
    open_breakers = {
        name: snap["state"]
        for name, snap in (stats.get("breakers") or {}).items()
        if snap.get("state") != "closed"
    }
    if open_breakers:
        raise HarnessFailure(f"breakers not closed: {open_breakers}")
    if stats.get("transports", {}).get("http", 0) < 1:
        raise HarnessFailure(
            f"per-transport counts missed the HTTP request: "
            f"{stats.get('transports')}"
        )
    unique = len({r["digest"] for r in cold})
    if unique != len(cold_docs):
        raise HarnessFailure(
            f"cold corpus collapsed to {unique} digests, expected "
            f"{len(cold_docs)} distinct"
        )

    return _report(
        "serve_smoke",
        {
            "requests": stats["requests"],
            "errors": stats["errors"],
            "unique_digests": unique,
            "bit_identical": len(cold_docs) + len(warm_docs),
            "cache": {
                "hits": cache["hits"],
                "misses": cache["misses"],
                "evictions": cache["evictions"],
            },
            "latency": {
                "cold_wall_s": t_cold,
                "warm_wall_s": t_warm,
                "cold_per_request_s": t_cold / len(cold_docs),
                "warm_per_request_s": t_warm / len(warm_docs),
            },
            "tracing": tracing,
            "transports": dict(sorted(stats["transports"].items())),
        },
        {"cold": t_cold, "warm": t_warm},
        report_path,
        seed=seed,
        requests=requests,
        clients=clients,
        jobs=jobs,
    )


# -- chaos -------------------------------------------------------------------


#: The fault mix one chaos run observed (provenance, not gated).
OBSERVED = (
    "crash_errors", "hang_errors", "degraded", "shed_seen",
    "deadline_exceeded_seen", "breaker_open_seen", "unexpected_exceptions",
)


def _planned_id(plan: FaultPlan, prefix: str, actions: tuple) -> str:
    """The first ``{prefix}{k}`` id the plan assigns one of ``actions``."""
    return next(
        f"{prefix}{k}" for k in count() if plan.worker_action(f"{prefix}{k}") in actions
    )


def run_chaos(
    requests: int = 36,
    burst: int = 48,
    queue_capacity: int = 8,
    jobs: int = 2,
    seed: int = 0,
    report_path: str | None = None,
    workdir: str | None = None,
    plan: FaultPlan | None = None,
) -> RunReport:
    """Drive a seeded fault plan against a live daemon; raises
    :class:`HarnessFailure` on any violated invariant, returns the
    (optionally written) RunReport otherwise."""
    plan = (plan or serving_storm(seed)).for_jobs(jobs)
    #: Timing ladder: guard budget < slow_s < pool timeout < hang_s, so a
    #: slow scheduler degrades, a hung worker is settled by the pool, and
    #: nothing waits on the hang itself.
    guard_budget_s = 0.15
    pool_timeout_s = 2.0
    breaker_cooldown_s = 0.3
    violations: list[str] = []
    observed = Counter(dict.fromkeys(OBSERVED, 0))
    #: Well-formed schedule requests clients actually delivered to the
    #: daemon (frame-level chaos — garbage, oversized, half-frames — does
    #: not count: those never reach admission).
    submitted = 0

    t_start = time.perf_counter()
    with booted(
        workdir,
        server_options={
            "admission": AdmissionConfig(
                queue_capacity=queue_capacity,
                inflight_limit=max(4 * burst, 64),
                retry_after_s=0.5,
            ),
            "max_line": 256 * 1024,
        },
        jobs=jobs,
        cache_size=4 * (requests + burst) + 16,
        timeout_s=pool_timeout_s,
        retries=0,
        guard_budget_s=guard_budget_s,
        breaker_threshold=3,
        breaker_cooldown_s=breaker_cooldown_s,
    ) as server:
        service = server.service
        with ServerHandle(server):
            with injection(plan):
                # -- frames, first: every breaker is still closed ----------
                # Malformed line between two valid pipelined requests: the
                # garbage gets its own error, neither neighbour is harmed.
                # The neighbours get fault-free ids — this phase tests
                # frame handling, not worker faults.
                good_a, good_b = (
                    request_doc(
                        requests + k, seed, _planned_id(plan, f"frame{k}-", (None,))
                    )
                    for k in (1, 2)
                )
                payload = (
                    json.dumps(good_a).encode()
                    + b"\n{not json%%\n"
                    + json.dumps(good_b).encode()
                    + b"\n"
                )
                lines = _raw_unix(server.socket_path, payload, read_lines=3)
                submitted += 2  # the garbage line never reaches admission
                frames_ok = len(lines) == 3
                if frames_ok:
                    r_a, r_bad, r_b = (json.loads(line) for line in lines)
                    frames_ok = (
                        bool(r_a.get("ok"))
                        and not r_bad.get("ok")
                        and bool(r_b.get("ok"))
                    )
                if not frames_ok:
                    violations.append(
                        f"malformed frame poisoned the pipeline: "
                        f"{[line[:80] for line in lines]!r}"
                    )
                # Oversized frame: structured error, connection closed,
                # daemon alive.
                big = b"x" * (server.max_line + 1024) + b"\n"
                lines = _raw_unix(server.socket_path, big, read_lines=1)
                if not (len(lines) == 1 and not json.loads(lines[0]).get("ok")):
                    violations.append(
                        f"oversized frame not answered with a structured "
                        f"error: {lines!r}"
                    )
                # Disconnect mid-frame: no response owed, daemon alive.
                for _ in range(2):
                    _raw_unix(server.socket_path, b'{"scheduler": "anticip', 0)

                # -- the smoke's cold phase, under the plan ----------------
                # No more clients than queue slots, so nothing is shed.
                cold_docs = build_corpus(requests, seed, prefix="c")
                clients = min(CLIENTS, queue_capacity)
                cold = drive(server.socket_path, cold_docs, clients)
                submitted += len(cold_docs)

                # -- overload burst against a busy pool --------------------
                # Pin one worker with one guaranteed-slow request, then
                # fire `burst` concurrent requests at a queue of capacity
                # C: admission must answer every one (ok or shed) and depth
                # must never exceed C.
                blocker = request_doc(
                    requests + 3, seed, _planned_id(plan, "blocker-", ("hang", "slow"))
                )
                burst_docs = [
                    request_doc(requests + 10 + i, seed, f"burst-{i}")
                    for i in range(burst)
                ]
                # A slice of the burst carries a deadline too short to
                # survive queueing behind the blocker.
                for doc in burst_docs[: max(burst // 6, 1)]:
                    doc["deadline_ms"] = 1
                with ThreadPoolExecutor(max_workers=1) as pool:
                    blocked = pool.submit(drive, server.socket_path, [blocker], 1)
                    time.sleep(0.05)  # let the blocker occupy a worker
                    burst_responses = drive(server.socket_path, burst_docs, burst)
                    blocked.result()
                submitted += 1 + len(burst_docs)
                for doc, response in zip(burst_docs, burst_responses):
                    if response is None or "ok" not in response:
                        violations.append(
                            f"burst request {doc['id']!r} got no structured "
                            f"response: {response!r}"
                        )
                        observed["unexpected_exceptions"] += 1
                        continue
                    code = response.get("code")
                    if code == "overloaded":
                        observed["shed_seen"] += 1
                        if not response.get("retry_after_s"):
                            violations.append(
                                f"shed response for {doc['id']!r} carries "
                                f"no retry_after_s"
                            )
                    elif code == "deadline_exceeded":
                        observed["deadline_exceeded_seen"] += 1
                    elif code == "breaker_open":
                        observed["breaker_open_seen"] += 1
                    elif response.get("ok") and response.get("degraded"):
                        observed["degraded"] += 1

                # -- corrupt the cache store on disk -----------------------
                with service.cache.path.open("a") as fh:
                    fh.write('{"digest": "deadbeef", "entry"')  # torn line

            # -- plan cleared: answers, then recovery ----------------------
            violations += check_answers(cold_docs, cold, observed, plan=plan)
            # Degraded answers must be verified-legal and never cached.
            degraded_legal = True
            degraded_uncached = True
            for doc, response in zip(cold_docs + burst_docs, cold + burst_responses):
                if not (response and response.get("ok") and response.get("degraded")):
                    continue
                trace = trace_from_dict(doc["program"])
                machine = machine_from_dict(doc["machine"])
                try:
                    verify_scheduler_output(trace, response["block_orders"], machine)
                except Exception as exc:
                    degraded_legal = False
                    violations.append(
                        f"degraded schedule for {doc['id']!r} is illegal: {exc}"
                    )
                if service.cache.peek(response["digest"]) is not None:
                    degraded_uncached = False
                    violations.append(
                        f"degraded result for {doc['id']!r} was cached"
                    )

            # Every scheduler class must serve a clean, non-degraded miss
            # after the plan ends; open breakers get their half-open probe
            # (the cooldown is short) and must close.
            recovered = True
            time.sleep(breaker_cooldown_s + 0.05)
            with ScheduleClient(server.socket_path) as client:
                for j, scheduler in enumerate(SCHEDULER_NAMES):
                    for attempt in range(25):
                        doc = request_doc(
                            10_000 + 100 * j + attempt,
                            seed,
                            f"recover-{scheduler}-{attempt}",
                        )
                        doc["scheduler"] = scheduler
                        submitted += 1
                        response = client.call(doc)
                        if response.get("code") != "breaker_open":
                            break
                        time.sleep(breaker_cooldown_s / 2)
                    if not response.get("ok") or response.get("degraded"):
                        recovered = False
                        violations.append(
                            f"no clean response for scheduler "
                            f"{scheduler!r} after the plan ended: "
                            f"{response!r}"
                        )
            breaker_states = {
                name: snap["state"]
                for name, snap in service.breakers.snapshot().items()
            }
            breakers_closed = all(
                state == "closed" for state in breaker_states.values()
            )
            if not breakers_closed:
                violations.append(
                    f"breakers not closed after recovery: {breaker_states}"
                )

            admission_snap = server.admission.snapshot()
            stats = service.stats()

        # -- post-shutdown checks ---------------------------------------------
        # Stopping the daemon closes its pool and reaps every worker, so
        # any surviving child process is leaked.
        leaked = len(multiprocessing.active_children())
        # The corrupted store must not poison a reload, and compaction
        # must leave a loadable file.
        cache_path = service.cache.path
        reloaded = ScheduleCache(capacity=64, path=cache_path)
        store_reload_ok = len(reloaded) > 0
        reloaded.compact()
        store_reload_ok = store_reload_ok and len(
            ScheduleCache(capacity=64, path=cache_path)
        ) == len(reloaded)

    # -- invariants ------------------------------------------------------------
    accepted, shed = admission_snap["accepted"], admission_snap["shed_total"]
    invariants = {
        "one_response_per_accepted": int(
            observed["unexpected_exceptions"] == 0
        ),
        "accepted_plus_shed_equals_submitted": int(
            accepted + shed == submitted and submitted > 0
        ),
        "shed_matches_overloaded_responses": int(
            shed == observed["shed_seen"]
        ),
        "queue_depth_bounded": int(
            admission_snap["peak_depth"] <= queue_capacity
        ),
        "degraded_verified_legal": int(degraded_legal),
        "degraded_never_cached": int(degraded_uncached),
        "frame_chaos_contained": int(frames_ok),
        "recovered_clean": int(recovered),
        "breakers_closed": int(breakers_closed),
        "no_leaked_workers": int(leaked == 0),
        "store_survived_corruption": int(store_reload_ok),
    }
    failed = [name for name, held in invariants.items() if not held]
    if failed:
        violations.append(
            f"invariants {failed} failed: {submitted} submitted, {leaked} "
            f"live workers, admission {admission_snap}, observed "
            f"{dict(observed)}"
        )
    _raise_on(violations)

    wall_s = time.perf_counter() - t_start
    return _report(
        "serve_chaos",
        {"invariants": invariants, "chaos_wall_s": wall_s},
        {"chaos": wall_s},
        report_path,
        seed=seed,
        requests=requests,
        burst=burst,
        queue_capacity=queue_capacity,
        jobs=jobs,
        plan=plan.name,
        observed=dict(observed),
        admission={
            "accepted": accepted,
            "shed": shed,
            "peak_depth": admission_snap["peak_depth"],
            "brownouts": admission_snap["brownouts"],
        },
        service={
            "requests": stats["requests"],
            "errors": stats["errors"],
            "degraded": stats["degraded"],
            "deadline_exceeded": stats["deadline_exceeded"],
        },
    )
