"""Transport-independent brain of the scheduling service.

:class:`ScheduleService` owns the canonical-digest cache, the robust
execution pool and the metrics registry; the asyncio daemon
(:mod:`repro.serve.daemon`) is a thin front-end that decodes bytes and
hands each request here the moment it arrives.

Request lifecycle
-----------------

Arrival half (:meth:`ScheduleService.submit`), run as soon as a request is
queued:

1. **decode** the wire document (:class:`~repro.serve.protocol
   .ScheduleRequest`); a malformed one becomes a structured error
   response;
2. **canonicalize** it to its isomorphism-safe digest
   (:func:`~repro.serve.canonical.canonical_form`);
3. **cache lookup** — a hit translates the stored canonical schedule
   through the request's own labeling (no scheduler run, no simulation)
   and is answered at once.  A miss whose digest is already being computed
   joins that computation (**single-flight**) and counts as a hit; any
   other miss starts a flight: it goes to the
   :class:`~repro.robust.ExecutionPool`, onto the first free worker.

Completion half, run from :meth:`~repro.robust.ExecutionPool.poll` when
the flight's worker returns:

4. **respond** — the leading request gets the worker's raw result, every
   request that joined gets it through the canonical translation, and a
   fresh primary-path result enters the cache.

:meth:`ScheduleService.handle_batch` is "submit all, then poll until each
is answered", for explicit batches and direct use.

Overload safety (the robustness layer threaded through the lifecycle):

- a request whose ``deadline_ms`` budget has expired is answered
  ``deadline_exceeded`` *before* it reaches a worker — at arrival when it
  died in the daemon's queue, and again when a worker frees for it, for a
  budget that died while it waited; cache hits are still served (they are
  nearly free).  A flight's remaining budget caps its own stall timeout,
  and its document's ``deadline_ms`` is rewritten to that budget so the
  worker guard receives it;
- each scheduler class has a :class:`~repro.serve.admission.CircuitBreaker`
  (K consecutive compute failures open it; while open, a flight for that
  class is answered ``breaker_open`` instead of burning pool capacity; a
  half-open probe after the cooldown closes or re-opens it);
- a worker answer that degraded to the guard's verified fallback is
  served with a ``degraded`` diagnostic — to the leader and to every
  request that joined it — and **never cached**: the cache holds only
  primary-path schedules;
- with an attached :class:`~repro.serve.admission.AdmissionController`, a
  miss counts as queued until it reaches a worker, so the queue bound
  keeps bounding admitted work that has not started.


Bit-identity contract: a miss is answered with the worker's raw result —
exactly what a direct :func:`repro.serve.worker.compute_request` call
returns — and a hit for an order-preserving relabeling of a cached request
reproduces that result through the canonical translation (the scheduler
tie-breaks by program index, never by name; pinned in
``tests/serve/test_canonical.py``).

Telemetry: every arrival runs under a ``serve.batch`` span.  A miss
submitted while a recorder is active is recorded on its worker, and its
cell record, which comes back with the answer, is merged into the
recorder active at completion.  With ``spool_dir`` every arrival and every
completion is one spooled cell, written by the service alone and on disk
before any reply it covers is sent (so ``repro metrics`` / ``repro top``
work on a live daemon's spool directory); its recorder keeps no
cycle-level simulator events, and neither do its misses' records.  Each
answered request gets a ``serve.request`` span, and the registry carries
``serve.requests`` / ``serve.errors`` counters plus per-request-class
latency histograms (``serve.request.<scheduler>.duration_s``).
"""

from __future__ import annotations

import os
import time
import uuid
from contextlib import contextmanager
from functools import partial
from typing import Callable

from ..core.schedule import schedule_digest
from ..obs import recorder as obs
from ..obs.metrics import MetricsRegistry
from ..obs.pipeline import (
    SPAN_DURATION_BUCKETS, SpoolMerge, TraceContext, spooled_cell,
)
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

#: Floor on an item's stall timeout derived from its request's deadline: a
#: microscopic timeout would declare a healthy worker hung.
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
        self.pool = ExecutionPool(
            partial(
                compute_request,
                time_budget_s=guard_budget_s,
                node_budget=node_budget,
            ),
            PoolConfig(jobs=jobs, timeout_s=timeout_s, retries=retries),
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
        #: Misses being computed, by digest: the request whose document
        #: the worker runs first, then every request that joined it.
        self._flights: dict[str, list[dict]] = {}
        #: Answers made inside the current telemetry scope, sent when the
        #: outermost scope closes.
        self._outbox: list[tuple[Callable[[dict], None], dict]] = []
        self._scopes = 0

    def close(self) -> None:
        """Stop the pool's workers and forget unanswered flights; a later
        request starts new workers."""
        self.pool.close()
        self._flights.clear()

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
        """Answer a batch of wire documents, responses in input order:
        submit them all, then poll the pool until each is answered.

        ``transports`` (parallel to ``docs``) tags each request with the
        transport it arrived on for per-transport stats and access logs.
        ``deadlines`` (parallel to ``docs``) is each request's **remaining**
        budget in seconds; ``None`` entries fall back to the document's own
        ``deadline_ms``.  The requests were not admitted by a daemon, so
        they never count against its queue.
        """
        responses: list[dict | None] = [None] * len(docs)
        self._arrive(
            docs,
            transports or [],
            deadlines or [],
            [partial(responses.__setitem__, i) for i in range(len(docs))],
            queued=False,
        )
        while any(r is None for r in responses):
            self.pool.poll()
        return responses

    def submit(
        self,
        doc: dict,
        transport: str,
        deadline_s: float | None,
        reply: Callable[[dict], None],
    ) -> None:
        """Arrival half of one admitted request, a batch of its own:
        decode, canonicalize and probe the cache now.  A hit or an error is
        answered at once; a miss joins the flight already computing its
        digest or starts one, and is answered from the pool's
        :meth:`~repro.robust.ExecutionPool.poll` when the worker returns.

        ``deadline_s`` is the budget left when the daemon dequeued the
        request (``None``: the document's own ``deadline_ms``).
        ``reply(response)`` runs exactly once, in the calling thread, after
        the telemetry that covers the answer is spooled.  Only one thread
        may submit and poll: the obs recorder is process-global.
        """
        self._arrive([doc], [transport], [deadline_s], [reply], queued=True)

    # -- arrival half --------------------------------------------------------

    def _arrive(self, docs, transports, deadlines, replies, queued) -> None:
        self.batches += 1
        batch = self.batches
        with self._scope(batch):
            with obs.span("serve.batch", size=len(docs), batch=batch) as sp:
                slots = []
                for i, doc in enumerate(docs):
                    slot = self._decode(
                        doc,
                        transports[i] if i < len(transports) else "unknown",
                        deadlines[i] if i < len(deadlines) else None,
                        replies[i],
                        batch,
                        queued,
                    )
                    if slot is not None:
                        slots.append(slot)
                if sp is not None:
                    # The batch span links its member requests' trace ids.
                    sp.attrs["trace_ids"] = [
                        s["request"].trace_id for s in slots
                    ]
                for slot in slots:
                    self._probe(slot)

    def _decode(self, doc, transport, remaining_s, reply, batch, queued):
        """Steps 1 and 2: the request's slot, or None once it has been
        answered with an error."""
        self.requests += 1
        self.transports[transport] = self.transports.get(transport, 0) + 1
        self.registry.counter("serve.requests").inc()
        self.registry.counter(f"serve.requests.{transport}").inc()
        t0 = time.perf_counter_ns()
        slot = {
            "doc": doc,
            "started_ns": t0,
            "phases": [],
            "transport": transport,
            "reply": reply,
            "batch": batch,
            "queued": queued,
        }
        if remaining_s is None:
            remaining_s = deadline_s_from_doc(doc)
        if remaining_s is not None and remaining_s <= 0.0:
            # The budget died in the queue: drop before spending
            # decode/canonicalize/compute on an answer nobody is waiting
            # for.
            self._error(
                slot, "deadline expired before dispatch",
                code="deadline_exceeded",
            )
            return None
        try:
            request = ScheduleRequest.from_dict(doc)
        except ProtocolError as exc:
            slot["phases"].append(("decode", t0, time.perf_counter_ns() - t0))
            self._error(slot, str(exc), code="bad_request")
            return None
        t1 = time.perf_counter_ns()
        if request.trace_id is None:
            # The daemon mints an id for untraced requests so every
            # retained trace is addressable via /debug/traces.
            request.trace_id = uuid.uuid4().hex[:16]
        form = canonical_form(request.trace, request.machine, request.scheduler)
        t2 = time.perf_counter_ns()
        slot["request"] = request
        slot["form"] = form
        # Absolute expiry on the perf_counter_ns clock; None when the
        # request carries no deadline.
        slot["deadline_ns"] = (
            None if remaining_s is None else t0 + int(remaining_s * 1e9)
        )
        slot["phases"] += [("decode", t0, t1 - t0), ("canonicalize", t1, t2 - t1)]
        return slot

    def _probe(self, slot: dict) -> None:
        """Step 3: answer a hit, join a flight, or start one."""
        digest = slot["form"].digest
        t_probe = time.perf_counter_ns()
        flight = self._flights.get(digest)
        if flight is not None:
            # Single-flight: this digest is already being computed, so the
            # request waits for that answer without a scheduler run of its
            # own — a hit.
            self.cache.note_hit()
            entry = None
        else:
            entry = self.cache.get(digest)
        now = time.perf_counter_ns()
        slot["phases"].append(("cache_probe", t_probe, now - t_probe))
        if entry is not None:
            # Hits are served even past their deadline: answering from
            # cache is cheaper than synthesizing the error.
            self._ok(slot, result_from_entry(slot["form"], entry), cached=True)
            return
        slot["waiting_ns"] = now
        if flight is not None:
            slot["cached"] = True
            flight.append(slot)
            self._dequeue(slot)  # it will never occupy a worker
            return
        slot["cached"] = False
        self._flights[digest] = [slot]
        # The document is built when a worker frees for it (_launch).
        self.pool.submit(
            (),
            on_done=partial(self._land, digest),
            on_start=partial(self._launch, digest),
        )

    def _launch(self, digest: str, job) -> bool:
        """A worker is free for this flight: the last moment to answer a
        leader whose budget died (the next request in the flight leads
        instead) or the whole flight while its breaker is open.  Sets the
        worker's document, its ``deadline_ms`` rewritten to the budget left
        now, and caps the item's stall timeout by that budget."""
        flight = self._flights[digest]
        now = time.perf_counter_ns()
        expired = []
        while flight and flight[0]["deadline_ns"] is not None and (
            now >= flight[0]["deadline_ns"]
        ):
            expired.append(flight.pop(0))
        breaker = self.breakers.get(flight[0]["request"].scheduler) if flight else None
        refused = breaker is not None and not breaker.allow()
        if expired or refused:
            with self._scope((expired or flight)[0]["batch"]):
                for slot in expired:
                    # Budget died while waiting for a worker: still before
                    # dispatch, so no pool capacity is spent on it.
                    self._error(
                        slot, "deadline expired before dispatch",
                        code="deadline_exceeded",
                    )
                for slot in flight if refused else ():
                    self._error(
                        slot,
                        f"circuit breaker open for scheduler "
                        f"{slot['request'].scheduler!r}",
                        code="breaker_open",
                        retry_after_s=breaker.retry_after_s() or None,
                    )
        if refused or not flight:
            del self._flights[digest]
            return False
        leader = flight[0]
        self._dequeue(leader)
        item = leader["request"].to_dict()
        timeout_s = self.pool.config.timeout_s
        if leader["deadline_ns"] is not None:
            left_s = max((leader["deadline_ns"] - now) / 1e9, 1e-6)
            item["deadline_ms"] = left_s * 1e3
            # Nobody waits on a compute whose requester has given up
            # (floored so a near-dead budget doesn't declare the worker
            # hung at once).
            cap = max(left_s, MIN_POOL_TIMEOUT_S)
            timeout_s = cap if timeout_s is None else min(timeout_s, cap)
        job.args = (item, faults.active_plan())
        job.timeout_s = timeout_s
        return True

    # -- completion half -----------------------------------------------------

    def _land(self, digest: str, job) -> None:
        """Step 4: the flight's worker returned (or every attempt
        failed)."""
        flight = self._flights.pop(digest)
        with self._scope(flight[0]["batch"]):
            try:
                self._respond(flight, job)
            except Exception as exc:  # defensive: never strand a request
                for slot in flight:
                    if "answered" not in slot:
                        self._error(
                            slot, f"internal error: {exc}", code="internal"
                        )

    def _respond(self, flight: list[dict], job) -> None:
        recorder = obs.get_recorder()
        if recorder is not None and job.telemetry:
            SpoolMerge.from_records(job.telemetry).merge_into(recorder)
        end = time.perf_counter_ns()
        for slot in flight:
            slot["phases"].append(
                ("dispatch", slot["waiting_ns"], end - slot["waiting_ns"])
            )
        leader = flight[0]
        result = job.result
        breaker = self.breakers.get(leader["request"].scheduler)
        if not isinstance(result, dict):  # a SweepFailure
            breaker.record_failure()
            for slot in flight:
                self._error(
                    slot, f"scheduling failed: {result}",
                    code="scheduling_failed",
                )
            return
        degraded = result.get("degraded")
        if degraded is not None and degraded.get("reason") in BREAKER_FAILURE_REASONS:
            breaker.record_failure()
        else:
            breaker.record_success()
        entry = entry_from_result(leader["form"], result)
        if degraded is None:
            # Only primary-path schedules enter the cache: a degraded
            # answer is legal but not the answer this digest deserves, and
            # must not outlive the fault.
            self.cache.put(leader["form"].digest, entry)
        # The leader gets the worker's raw answer — bit-identical to an
        # uncached direct call.
        self._ok(leader, result, cached=False, degraded=degraded)
        for slot in flight[1:]:
            self._ok(
                slot,
                result_from_entry(slot["form"], entry),
                cached=True,
                degraded=degraded,
            )

    # -- answers -------------------------------------------------------------

    @contextmanager
    def _scope(self, cell: int):
        """Run under the service's spooled telemetry cell, then send every
        answer made inside: a reply never leaves before the spool line that
        covers it is on disk.  Nested scopes share the outermost one."""
        outer = self._scopes == 0
        self._scopes += 1
        try:
            if outer and self.spool_dir is not None:
                with spooled_cell(
                    self.spool_dir,
                    self.context.child(f"batch-{cell}"),
                    cell=cell,
                    sim_events=False,
                ):
                    yield
            else:
                yield
        finally:
            self._scopes -= 1
        if outer:
            outbox, self._outbox = self._outbox, []
            for reply, response in outbox:
                reply(response)

    def _dequeue(self, slot: dict) -> None:
        """The request left the daemon's queue: answered, or on a worker."""
        if slot.pop("queued", False) and self.admission is not None:
            self.admission.note_dequeued()

    def _answer(self, slot: dict, response: dict) -> None:
        self._dequeue(slot)
        slot["answered"] = True
        self._outbox.append((slot["reply"], response))

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
                    "batch": slot["batch"],
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
                batch=slot["batch"],
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
    ) -> None:
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
        self._answer(slot, ok_response(
            request.id,
            slot["form"].digest,
            cached,
            result,
            trace_id=trace_id,
            server=server,
            degraded=degraded,
        ))

    def _error(
        self,
        slot: dict,
        message: str,
        code: str | None = None,
        retry_after_s: float | None = None,
    ) -> None:
        self.errors += 1
        self.registry.counter("serve.errors").inc()
        obs.count("serve.error")
        if code is not None:
            self.registry.counter(f"serve.errors.{code}").inc()
            if code == "deadline_exceeded":
                self.deadline_exceeded += 1
                self.registry.counter("serve.deadline_exceeded").inc()
        request = slot.get("request")
        if request is not None:
            request_id = request.id
        else:
            # Decode-stage failure: recover the caller's id, and its trace
            # id when that is valid, from the raw document.
            doc = slot["doc"]
            request_id = doc.get("id") if isinstance(doc, dict) else None
            slot["id"] = request_id
            if isinstance(doc, dict):
                try:
                    wire = trace_from_wire(doc.get("trace"))
                    slot["trace_id"] = wire[0] if wire else None
                except ProtocolError:
                    pass
        trace_id, server, _ = self._finish(
            slot, status="error", cached=False, worker=None, error=message
        )
        self._answer(slot, error_response(
            request_id,
            message,
            trace_id=trace_id,
            server=server,
            code=code,
            retry_after_s=retry_after_s,
        ))

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
