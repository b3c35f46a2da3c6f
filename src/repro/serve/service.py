"""Transport-independent brain of the scheduling service.

:class:`ScheduleService` owns the canonical-digest cache, the robust
execution pool and the metrics registry; the asyncio daemon
(:mod:`repro.serve.daemon`) is a thin front-end that decodes bytes and
feeds request batches here.

Batch lifecycle
---------------

1. **decode** every wire document (:class:`~repro.serve.protocol
   .ScheduleRequest`); malformed ones become structured error responses
   without touching the rest of the batch;
2. **canonicalize** each request to its isomorphism-safe digest
   (:func:`~repro.serve.canonical.canonical_form`);
3. **cache lookup** — a hit translates the stored canonical schedule
   through the request's own labeling (no scheduler run, no simulation);
   duplicate digests *within* one batch collapse onto a single compute
   and the duplicates count as hits;
4. **compute misses** through the :class:`~repro.robust.ExecutionPool`
   (long-lived workers, one request each, when ``jobs > 1``) and insert
   the canonical form of each fresh result;
5. **respond** in input order.

Overload safety (the robustness layer threaded through the lifecycle):

- a request whose ``deadline_ms`` budget has expired is answered
  ``deadline_exceeded`` *before* it reaches the pool — during batch
  assembly for requests that waited out their budget in the queue, and
  again at dispatch time for budgets that died during decode; cache hits
  are still served (they are nearly free).  The tightest remaining budget
  in a batch also caps the pool's stall timeout, and each dispatched
  document's ``deadline_ms`` is rewritten to its remaining budget so the
  worker guard receives it;
- each scheduler class has a :class:`~repro.serve.admission.CircuitBreaker`
  (K consecutive compute failures open it; while open, cache misses for
  that class short-circuit with ``breaker_open`` instead of burning pool
  capacity; a half-open probe after the cooldown closes or re-opens it);
- a worker answer that degraded to the guard's verified fallback is
  served with a ``degraded`` diagnostic and **never cached** — the cache
  holds only primary-path schedules.


Bit-identity contract: a miss is answered with the worker's raw result —
exactly what a direct :func:`repro.serve.worker.compute_request` call
returns — and a hit for an order-preserving relabeling of a cached request
reproduces that result through the canonical translation (the scheduler
tie-breaks by program index, never by name; pinned in
``tests/serve/test_canonical.py``).

Telemetry: every batch runs under a ``serve.batch`` span (spooled to
``spool_dir`` when set, so ``repro metrics`` / ``repro top`` work on a live
daemon's spool directory), each request gets a child ``serve.request``
span, and the registry carries ``serve.requests`` / ``serve.errors``
counters plus per-request-class latency histograms
(``serve.request.<scheduler>.duration_s``).
"""

from __future__ import annotations

import os
import time
import uuid
from functools import partial
from pathlib import Path

from ..core.schedule import schedule_digest
from ..obs import recorder as obs
from ..obs.metrics import MetricsRegistry
from ..obs.pipeline import SPAN_DURATION_BUCKETS, TraceContext, spooled_cell
from ..obs.recorder import SpanRecord
from ..obs.runreport import RunReport, collect_provenance
from ..obs.timeseries import SLOTracker, burn_rate_gauges
from ..robust import faults
from ..robust.pool import ExecutionPool, PoolConfig
from .admission import BreakerBoard
from .cache import ScheduleCache
from .canonical import CanonicalForm, canonical_form
from .protocol import (
    ProtocolError,
    ScheduleRequest,
    deadline_s_from_doc,
    error_response,
    ok_response,
    trace_from_wire,
)
from .tracebuf import RequestTrace, TraceBuffer
from .worker import compute_request

#: Guard degradation reasons that count as *failures* for the circuit
#: breaker.  ``node_budget`` degradations are deterministic policy (the
#: trace was too big, by configuration) and ``output_error`` means the
#: verifier caught a bad schedule once — neither indicates the scheduler
#: class is currently unhealthy the way timeouts/crashes do.
BREAKER_FAILURE_REASONS = ("timeout", "deadlock", "exception")

#: Floor on the pool stall timeout derived from request deadlines: a
#: pool.run() with a microscopic timeout would declare every worker hung.
MIN_POOL_TIMEOUT_S = 0.05


def entry_from_result(form: CanonicalForm, result: dict) -> dict:
    """A freshly computed result, re-expressed in canonical ids for the
    cache."""
    cid = form.id_map()
    return {
        "block_orders": [[cid[n] for n in order] for order in result["block_orders"]],
        "makespan": result["makespan"],
        "stall_cycles": result["stall_cycles"],
        "starts": [[cid[n], t] for n, t in sorted(result["starts"].items())],
        "units": [[cid[n], list(u)] for n, u in sorted(result["units"].items())],
    }


def result_from_entry(form: CanonicalForm, entry: dict) -> dict:
    """A cached canonical entry, translated into the requesting trace's own
    node names — including the translated schedule's content digest."""
    names = form.order
    starts = {names[c]: t for c, t in entry["starts"]}
    units = {names[c]: tuple(u) for c, u in entry["units"]}
    return {
        "block_orders": [[names[c] for c in order] for order in entry["block_orders"]],
        "makespan": entry["makespan"],
        "stall_cycles": entry["stall_cycles"],
        "starts": starts,
        "units": units,
        "schedule_digest": schedule_digest(starts, units),
    }


class ScheduleService:
    """Decode, canonicalize, cache, compute, respond."""

    def __init__(
        self,
        jobs: int = 1,
        cache_size: int = 1024,
        cache_path: str | os.PathLike | None = None,
        spool_dir: str | os.PathLike | None = None,
        timeout_s: float | None = None,
        retries: int = 1,
        registry: MetricsRegistry | None = None,
        tracebuf: TraceBuffer | None = None,
        slo_objective: float = 0.99,
        latency_slo_s: float | None = None,
        guard_budget_s: float | None = 5.0,
        node_budget: int | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 30.0,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self.cache = ScheduleCache(
            capacity=cache_size, path=cache_path, registry=self.registry
        )
        # The pool spools worker telemetry into its own subdirectory: each
        # batch's run() clears its telemetry dir first, which must never
        # delete the daemon's own per-batch spool files one level up.
        pool_spool = Path(spool_dir) / "pool" if spool_dir is not None else None
        self.pool = ExecutionPool(
            partial(
                compute_request,
                time_budget_s=guard_budget_s,
                node_budget=node_budget,
            ),
            PoolConfig(jobs=jobs, timeout_s=timeout_s, retries=retries),
            telemetry_dir=pool_spool,
        )
        self.spool_dir = spool_dir
        self.context = TraceContext.new()
        self.tracebuf = tracebuf or TraceBuffer()
        self.slo = SLOTracker(
            objective=slo_objective, latency_slo_s=latency_slo_s
        )
        self.requests = 0
        self.errors = 0
        self.batches = 0
        #: Responses served from the guard's verified fallback.
        self.degraded = 0
        #: Requests dropped before dispatch because their budget expired.
        self.deadline_exceeded = 0
        #: Lifetime request counts per transport ("unix" / "http" / ...).
        self.transports: dict[str, int] = {}
        #: Per-scheduler-class circuit breakers.
        self.breakers = BreakerBoard(
            failure_threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
        )
        #: The daemon's AdmissionController, attached by ScheduleServer so
        #: /stats and /metrics can surface queue depth and shed counts;
        #: None when the service is driven directly (tests, CLI).
        self.admission = None
        self.started_monotonic = time.monotonic()

    def close(self) -> None:
        """Stop the pool's workers; a later batch starts new ones."""
        self.pool.close()

    # -- public entry points -------------------------------------------------

    def handle(
        self,
        doc: dict,
        transport: str = "unknown",
        deadline_s: float | None = None,
    ) -> dict:
        """One request through the full batch path."""
        return self.handle_batch(
            [doc], transports=[transport], deadlines=[deadline_s]
        )[0]

    def handle_batch(
        self,
        docs: list,
        transports: list[str] | None = None,
        deadlines: list | None = None,
    ) -> list[dict]:
        """Answer a batch of wire documents, responses in input order.

        ``transports`` (parallel to ``docs``) tags each request with the
        transport it arrived on for per-transport stats and access logs.
        ``deadlines`` (parallel to ``docs``) is each request's **remaining**
        budget in seconds as measured by the daemon at dequeue time (queue
        wait already subtracted); ``None`` entries fall back to the
        document's own ``deadline_ms``.

        Runs synchronously in the calling thread; the daemon serializes
        batches through a single executor thread because the obs recorder
        is process-global.
        """
        self.batches += 1
        if self.spool_dir is not None:
            cell = spooled_cell(
                self.spool_dir,
                self.context.child(f"batch-{self.batches}"),
                cell=self.batches,
                sim_events=False,
            )
            with cell:
                return self._handle_batch(docs, transports, deadlines)
        return self._handle_batch(docs, transports, deadlines)

    # -- internals -----------------------------------------------------------

    def _handle_batch(
        self,
        docs: list,
        transports: list[str] | None = None,
        deadlines: list | None = None,
    ) -> list[dict]:
        t_batch = time.perf_counter()
        responses: list[dict | None] = [None] * len(docs)
        slots: list[dict] = []  # decoded, not yet answered
        with obs.span("serve.batch", size=len(docs), batch=self.batches) as sp:
            # 1/2: decode + canonicalize
            for i, doc in enumerate(docs):
                self.requests += 1
                transport = (
                    transports[i]
                    if transports is not None and i < len(transports)
                    else "unknown"
                )
                self.transports[transport] = self.transports.get(transport, 0) + 1
                self.registry.counter("serve.requests").inc()
                self.registry.counter(f"serve.requests.{transport}").inc()
                t0 = time.perf_counter_ns()
                remaining_s = (
                    deadlines[i]
                    if deadlines is not None and i < len(deadlines)
                    else None
                )
                if remaining_s is None:
                    remaining_s = deadline_s_from_doc(doc)
                if remaining_s is not None and remaining_s <= 0.0:
                    # The budget died in the queue: drop before spending
                    # decode/canonicalize/compute on an answer nobody is
                    # waiting for.
                    responses[i] = self._error(
                        doc,
                        "deadline expired before dispatch",
                        transport=transport,
                        started_ns=t0,
                        code="deadline_exceeded",
                    )
                    continue
                try:
                    request = ScheduleRequest.from_dict(doc)
                except ProtocolError as exc:
                    responses[i] = self._error(
                        doc,
                        str(exc),
                        transport=transport,
                        started_ns=t0,
                        code="bad_request",
                        phases=[("decode", t0, time.perf_counter_ns() - t0)],
                    )
                    continue
                t1 = time.perf_counter_ns()
                if request.trace_id is None:
                    # The daemon mints an id for untraced requests so every
                    # retained trace is addressable via /debug/traces.
                    request.trace_id = uuid.uuid4().hex[:16]
                form = canonical_form(
                    request.trace, request.machine, request.scheduler
                )
                t2 = time.perf_counter_ns()
                slots.append(
                    {
                        "index": i,
                        "request": request,
                        "form": form,
                        "started_ns": t0,
                        "transport": transport,
                        # Absolute expiry on the perf_counter_ns clock; None
                        # when the request carries no deadline.
                        "deadline_ns": (
                            None
                            if remaining_s is None
                            else t0 + int(remaining_s * 1e9)
                        ),
                        "phases": [
                            ("decode", t0, t1 - t0),
                            ("canonicalize", t1, t2 - t1),
                        ],
                    }
                )
            if sp is not None:
                # The batch span links its member requests' trace ids.
                sp.attrs["trace_ids"] = [
                    s["request"].trace_id for s in slots
                ]

            # 3: cache lookup with within-batch dedupe
            pending: dict[str, list[dict]] = {}
            for slot in slots:
                form = slot["form"]
                t_probe = time.perf_counter_ns()
                waiting = pending.get(form.digest)
                if waiting is not None:
                    # Another request in this batch is already computing
                    # this digest: served without a scheduler run == a hit.
                    self.cache.note_hit()
                    slot["cached"] = True
                    slot["phases"].append(
                        ("cache_probe", t_probe, time.perf_counter_ns() - t_probe)
                    )
                    waiting.append(slot)
                    continue
                entry = self.cache.get(form.digest)
                slot["phases"].append(
                    ("cache_probe", t_probe, time.perf_counter_ns() - t_probe)
                )
                if entry is not None:
                    # Hits are served even past their deadline: answering
                    # from cache is cheaper than synthesizing the error.
                    responses[slot["index"]] = self._ok(
                        slot, result_from_entry(form, entry), cached=True
                    )
                    continue
                deadline_ns = slot["deadline_ns"]
                if (
                    deadline_ns is not None
                    and time.perf_counter_ns() >= deadline_ns
                ):
                    # Budget died during decode/canonicalize: still before
                    # dispatch, so no pool capacity is spent on it.
                    responses[slot["index"]] = self._error(
                        slot["request"],
                        "deadline expired before dispatch",
                        decoded=True,
                        slot=slot,
                        code="deadline_exceeded",
                    )
                    continue
                breaker = self.breakers.get(slot["request"].scheduler)
                if not breaker.allow():
                    responses[slot["index"]] = self._error(
                        slot["request"],
                        f"circuit breaker open for scheduler "
                        f"{slot['request'].scheduler!r}",
                        decoded=True,
                        slot=slot,
                        code="breaker_open",
                        retry_after_s=breaker.retry_after_s() or None,
                    )
                    continue
                slot["cached"] = False
                pending[form.digest] = [slot]

            # 4: compute misses through the robust pool
            if pending:
                order = list(pending.values())
                t_dispatch = time.perf_counter_ns()
                plan = faults.active_plan()
                items = []
                budgets_s = []
                for group in order:
                    item = group[0]["request"].to_dict()
                    deadline_ns = group[0]["deadline_ns"]
                    if deadline_ns is not None:
                        # Rewrite the wire deadline to the budget actually
                        # left at dispatch, so the worker guard receives a
                        # deadline that accounts for queueing and decode.
                        left_s = max(
                            (deadline_ns - t_dispatch) / 1e9, 1e-6
                        )
                        item["deadline_ms"] = left_s * 1e3
                        budgets_s.append(left_s)
                    items.append((item, plan))
                # The tightest remaining deadline caps the pool's stall
                # timeout — nobody waits on a compute whose requester has
                # already given up (floored so a near-dead budget doesn't
                # declare every worker hung).
                run_timeout_s = self.pool.config.timeout_s
                if budgets_s:
                    tightest = max(min(budgets_s), MIN_POOL_TIMEOUT_S)
                    run_timeout_s = (
                        tightest
                        if run_timeout_s is None
                        else min(run_timeout_s, tightest)
                    )
                with obs.span("serve.compute", misses=len(order)):
                    outcome = self.pool.run(items, timeout_s=run_timeout_s)
                dispatch_ns = time.perf_counter_ns() - t_dispatch
                for group, result in zip(order, outcome.results):
                    for slot in group:
                        slot["phases"].append(
                            ("dispatch", t_dispatch, dispatch_ns)
                        )
                    first = group[0]
                    breaker = self.breakers.get(first["request"].scheduler)
                    if not isinstance(result, dict):  # a SweepFailure
                        breaker.record_failure()
                        for slot in group:
                            responses[slot["index"]] = self._error(
                                slot["request"],
                                f"scheduling failed: {result}",
                                decoded=True,
                                slot=slot,
                                code="scheduling_failed",
                            )
                        continue
                    degraded = result.get("degraded")
                    if (
                        degraded is not None
                        and degraded.get("reason") in BREAKER_FAILURE_REASONS
                    ):
                        breaker.record_failure()
                    else:
                        breaker.record_success()
                    if degraded is None:
                        # Only primary-path schedules enter the cache: a
                        # degraded answer is legal but not the answer this
                        # digest deserves, and must not outlive the fault.
                        self.cache.put(
                            first["form"].digest,
                            entry_from_result(first["form"], result),
                        )
                    # The computing request gets the worker's raw answer —
                    # bit-identical to an uncached direct call.
                    responses[first["index"]] = self._ok(
                        first, result, cached=False, degraded=degraded
                    )
                    if len(group) > 1:
                        entry = entry_from_result(first["form"], result)
                        for slot in group[1:]:
                            responses[slot["index"]] = self._ok(
                                slot,
                                result_from_entry(slot["form"], entry),
                                cached=True,
                                degraded=degraded,
                            )
        self.registry.histogram(
            "serve.batch.duration_s", SPAN_DURATION_BUCKETS
        ).observe(time.perf_counter() - t_batch)
        return [r for r in responses]  # all filled by construction

    def _span_tree(
        self,
        slot: dict,
        end_ns: int,
        trace_id: str,
        worker: dict | None,
        status: str,
        cached: bool,
    ) -> list[SpanRecord]:
        """The request's span tree: ``serve.request`` root, daemon phases
        at depth 1 (including the trailing ``respond`` phase up to
        ``end_ns``), worker phases at depth 2 — every span stamped with the
        request's trace id."""
        pid = os.getpid()
        started_ns = slot["started_ns"]
        phases = list(slot["phases"])
        last_end = max(t + d for _, t, d in phases) if phases else started_ns
        phases.append(("respond", last_end, max(end_ns - last_end, 0)))
        spans = [
            SpanRecord(
                name="serve.request",
                start_ns=started_ns,
                duration_ns=end_ns - started_ns,
                depth=0,
                attrs={
                    "scheduler": getattr(
                        slot.get("request"), "scheduler", None
                    ),
                    "cached": cached,
                    "status": status,
                    "transport": slot.get("transport", "unknown"),
                    "batch": self.batches,
                },
                pid=pid,
                trace_id=trace_id,
            )
        ]
        for name, start, dur in phases:
            spans.append(
                SpanRecord(
                    name=f"serve.phase.{name}",
                    start_ns=start,
                    duration_ns=dur,
                    depth=1,
                    attrs={},
                    pid=pid,
                    trace_id=trace_id,
                )
            )
        if worker is not None:
            # Fork children share the parent's perf_counter base, so the
            # worker's own timestamps nest correctly under dispatch.
            w_start = int(worker.get("start_ns", started_ns))
            offset = w_start
            for phase, dur in worker.get("phases", {}).items():
                spans.append(
                    SpanRecord(
                        name=f"serve.worker.{phase.removesuffix('_ns')}",
                        start_ns=offset,
                        duration_ns=int(dur),
                        depth=2,
                        attrs={},
                        pid=worker.get("pid"),
                        trace_id=trace_id,
                    )
                )
                offset += int(dur)
        return spans

    def _server_block(
        self, slot: dict, end_ns: int, worker: dict | None
    ) -> dict:
        """The response's ``server`` phase-timing echo."""
        phases = {
            f"{name}_s": dur / 1e9 for name, _, dur in slot["phases"]
        }
        last_end = max(
            (t + d for _, t, d in slot["phases"]), default=slot["started_ns"]
        )
        phases["respond_s"] = max(end_ns - last_end, 0) / 1e9
        server = {
            "pid": os.getpid(),
            "duration_s": (end_ns - slot["started_ns"]) / 1e9,
            "phases": phases,
        }
        if worker is not None:
            server["worker"] = {
                "pid": worker.get("pid"),
                "phases": {
                    f"{name.removesuffix('_ns')}_s": dur / 1e9
                    for name, dur in worker.get("phases", {}).items()
                },
            }
        return server

    def _finish(
        self,
        slot: dict,
        status: str,
        cached: bool,
        worker: dict | None,
        error: str | None = None,
        degraded_reason: str | None = None,
    ) -> tuple[str, dict, float]:
        """Shared request epilogue: retain the trace and feed the SLO
        tracker; returns ``(trace_id, server_block, elapsed_s)``."""
        end_ns = time.perf_counter_ns()
        request = slot.get("request")
        trace_id = (
            getattr(request, "trace_id", None) or slot.get("trace_id")
            or uuid.uuid4().hex[:16]
        )
        elapsed = (end_ns - slot["started_ns"]) / 1e9
        server = self._server_block(slot, end_ns, worker)
        self.tracebuf.add(
            RequestTrace(
                trace_id=trace_id,
                request_id=getattr(request, "id", None) or slot.get("id"),
                scheduler=getattr(request, "scheduler", "") or "",
                digest=(
                    slot["form"].digest if slot.get("form") is not None else None
                ),
                cached=cached,
                status=status,
                error=error,
                degraded=degraded_reason,
                start_ns=slot["started_ns"],
                duration_ns=end_ns - slot["started_ns"],
                batch=self.batches,
                transport=slot.get("transport", "unknown"),
                worker_pid=worker.get("pid") if worker else None,
                spans=self._span_tree(
                    slot, end_ns, trace_id, worker, status, cached
                ),
            )
        )
        self.slo.record(status == "ok", elapsed)
        return trace_id, server, elapsed

    def _ok(
        self,
        slot: dict,
        result: dict,
        cached: bool,
        degraded: dict | None = None,
    ) -> dict:
        request: ScheduleRequest = slot["request"]
        worker = result.get("worker")
        reason = degraded.get("reason", "unknown") if degraded else None
        trace_id, server, elapsed = self._finish(
            slot,
            status="ok",
            cached=cached,
            worker=worker,
            degraded_reason=reason,
        )
        if degraded is not None:
            self.degraded += 1
            self.registry.counter("serve.degraded").inc()
            self.registry.counter(f"serve.degraded.{reason}").inc()
            obs.count("serve.degraded")
        self.registry.counter(f"serve.requests.{request.scheduler}").inc()
        self.registry.histogram(
            f"serve.request.{request.scheduler}.duration_s",
            SPAN_DURATION_BUCKETS,
        ).observe(elapsed)
        with obs.span(
            "serve.request",
            scheduler=request.scheduler,
            digest=slot["form"].digest[:16],
            cached=cached,
            trace_id=trace_id,
        ):
            pass
        return ok_response(
            request.id,
            slot["form"].digest,
            cached,
            result,
            trace_id=trace_id,
            server=server,
            degraded=degraded,
        )

    def _error(
        self,
        doc_or_request,
        message: str,
        decoded: bool = False,
        slot: dict | None = None,
        transport: str = "unknown",
        started_ns: int | None = None,
        phases: list | None = None,
        code: str | None = None,
        retry_after_s: float | None = None,
    ) -> dict:
        self.errors += 1
        self.registry.counter("serve.errors").inc()
        obs.count("serve.error")
        if code is not None:
            self.registry.counter(f"serve.errors.{code}").inc()
            if code == "deadline_exceeded":
                self.deadline_exceeded += 1
                self.registry.counter("serve.deadline_exceeded").inc()
        if decoded:
            request_id = doc_or_request.id
        else:
            request_id = (
                doc_or_request.get("id") if isinstance(doc_or_request, dict) else None
            )
        if slot is None:
            # Decode-stage failure: build a minimal slot, recovering the
            # caller's trace id from the raw document when it is valid.
            trace_id = None
            if isinstance(doc_or_request, dict):
                try:
                    wire = trace_from_wire(doc_or_request.get("trace"))
                    trace_id = wire[0] if wire else None
                except ProtocolError:
                    pass
            slot = {
                "started_ns": (
                    started_ns
                    if started_ns is not None
                    else time.perf_counter_ns()
                ),
                "phases": phases or [],
                "transport": transport,
                "trace_id": trace_id,
                "id": request_id,
            }
        trace_id, server, _ = self._finish(
            slot, status="error", cached=False, worker=None, error=message
        )
        return error_response(
            request_id,
            message,
            trace_id=trace_id,
            server=server,
            code=code,
            retry_after_s=retry_after_s,
        )

    # -- introspection -------------------------------------------------------

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_monotonic

    def refresh_gauges(self) -> None:
        """Push derived values (cache hit ratio, uptime, SLO burn rates)
        into the registry — called at scrape time so ``/metrics`` is always
        current without a background ticker."""
        ratio = self.cache.hit_ratio
        if ratio is not None:
            self.registry.gauge("serve.cache.hit_ratio").set(ratio)
        self.registry.gauge("serve.uptime_s").set(self.uptime_s)
        burn_rate_gauges(self.slo, self.registry)
        self.breakers.publish(self.registry)
        if self.admission is not None:
            self.admission.publish(self.registry)

    def stats(self) -> dict:
        self.refresh_gauges()
        return {
            "requests": self.requests,
            "errors": self.errors,
            "batches": self.batches,
            "degraded": self.degraded,
            "deadline_exceeded": self.deadline_exceeded,
            "uptime_s": self.uptime_s,
            "cache": self.cache.stats(),
            "cache_hit_ratio": self.cache.hit_ratio,
            "transports": dict(sorted(self.transports.items())),
            "traces": self.tracebuf.stats(),
            "slo": self.slo.snapshot(),
            "admission": (
                self.admission.snapshot()
                if self.admission is not None
                else None
            ),
            "breakers": self.breakers.snapshot(),
            "pool": {
                "jobs": self.pool.config.jobs,
                "batches": self.pool.batches,
                "attempts": self.pool.attempts,
                "pool_restarts": self.pool.pool_restarts,
            },
        }

    def run_report(self, name: str = "serve") -> RunReport:
        """The service's lifetime metrics as a comparable RunReport.

        Deterministic facts (request/error/cache counts, the lifetime SLO
        burn rate) live under invariant keys; latency histograms and
        windowed rates live under ``_s``-suffixed paths, which ``repro
        compare`` thresholds instead of pinning — so the report doubles as
        a latency-SLO gate.
        """
        return RunReport(
            name=name,
            metrics={
                "requests": self.requests,
                "errors": self.errors,
                "batches": self.batches,
                "cache": self.cache.stats(),
                "robustness": {
                    # Deterministic robustness counts: all zero on a clean
                    # run, so a baseline pins "no degradation, no sheds".
                    "degraded": self.degraded,
                    "deadline_exceeded": self.deadline_exceeded,
                    "shed": (
                        self.admission.shed_total
                        if self.admission is not None
                        else 0
                    ),
                    "breaker_opened": sum(
                        snap["opened"]
                        for snap in self.breakers.snapshot().values()
                    ),
                },
                "slo": {
                    "objective": self.slo.objective,
                    "bad": self.slo.bad,
                    # Count-based, deterministic — safe to pin (the
                    # windowed burn rates are wall-clock-bucketed and are
                    # exposed via /stats and /metrics instead).
                    "lifetime_burn_rate": self.slo.lifetime_burn_rate,
                },
                "latency": {
                    key: self.registry[key].to_value()
                    for key in self.registry.names()
                    if key.endswith(".duration_s")
                },
            },
            provenance=collect_provenance(jobs=self.pool.config.jobs),
        )
