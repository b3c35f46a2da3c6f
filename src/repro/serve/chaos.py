"""Serve-tier chaos harness: seeded fault plans against a live daemon —
``repro serve-chaos``.

:mod:`repro.robust.faults` injects adversity *inside* the simulator; this
module injects it around the **serving** path, where the failure modes are
operational: workers that die mid-compute (``os._exit``), workers that
hang past the pool's stall timeout, schedulers that run long enough to
blow the guard's budget, clients that disconnect mid-frame or send
malformed / oversized frames, a cache store corrupted on disk, and
request bursts that exceed the admission queue.

A :class:`ChaosPlan` is a frozen, seeded description of that adversity,
installed via the same module-global registry pattern as
:func:`repro.robust.faults.injection` — the daemon reads the installed
plan when it dispatches a batch and sends it to the pool workers with each
request, and every per-request action is drawn from a CRC-seeded RNG keyed
by the request id, so a plan replays bit-identically and the harness can
predict which request suffers what.

:func:`run_chaos` boots a real daemon in-process, drives a seeded mix of
clean and chaotic traffic through it, and asserts the serving tier's core
overload invariant:

    **every accepted request receives exactly one structured response**
    (ok, degraded, or error), shed requests get ``overloaded`` with retry
    guidance, degraded responses carry a verified-legal schedule and are
    never cached, and the daemon serves clean requests after the plan
    ends — no wedge, no leaked workers.

The outcome is a :class:`~repro.obs.runreport.RunReport` whose
``invariants`` block is deterministic booleans (exact-match gated in CI
against ``benchmarks/baselines/serve_chaos.json``); the observed fault
mix — how many crashes, sheds, degradations actually landed — is
timing-dependent and therefore recorded in provenance, which the gate
does not compare.
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import sys
import tempfile
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

#: Worker-side actions a plan can assign to one request.
WORKER_ACTIONS = ("exit", "hang", "slow")

#: Client-side actions (applied by the harness's drive loop, not the
#: worker): break the connection mid-frame, send a non-JSON line, send a
#: line larger than the transport limit.
CLIENT_ACTIONS = ("disconnect", "malformed", "oversized")


@dataclass(frozen=True)
class ChaosPlan:
    """A reproducible description of serve-tier adversity.

    Worker rates are per-request probabilities drawn deterministically
    from ``seed`` and the request id; a default-constructed plan injects
    nothing.  ``hang_s`` must exceed the service's pool stall timeout (so
    a hang is settled by the pool, not by finishing early) and ``slow_s``
    must exceed the worker guard's time budget but stay under the pool
    timeout (so a slow scheduler degrades instead of being declared
    hung).
    """

    name: str = "noop"
    seed: int = 0
    #: Probability one compute calls ``os._exit`` mid-request (needs
    #: ``jobs >= 2``: with in-process compute this would kill the daemon).
    crash_rate: float = 0.0
    #: Probability one compute hangs hard (pool stall timeout settles it;
    #: needs ``jobs >= 2`` for the same reason).
    hang_rate: float = 0.0
    hang_s: float = 30.0
    #: Probability the primary scheduler sleeps ``slow_s`` inside the
    #: guard — degrading to the verified fallback.
    slow_rate: float = 0.0
    slow_s: float = 0.4

    def __post_init__(self) -> None:
        for field_name in ("crash_rate", "hang_rate", "slow_rate"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        if self.hang_s <= 0 or self.slow_s <= 0:
            raise ValueError("hang_s and slow_s must be > 0")

    @property
    def is_noop(self) -> bool:
        return (
            self.crash_rate == 0.0
            and self.hang_rate == 0.0
            and self.slow_rate == 0.0
        )

    def rng(self, tag: str, salt: int = 0) -> random.Random:
        """A deterministic RNG for one injection site (CRC-mixed so it is
        independent of ``PYTHONHASHSEED``, same derivation as
        :meth:`repro.robust.faults.FaultPlan.rng`)."""
        mix = zlib.crc32(tag.encode("utf-8"))
        return random.Random((self.seed * 1000003 + salt) ^ mix)

    def worker_action(self, request_id: object) -> str | None:
        """The worker-side action this plan assigns to ``request_id`` —
        one of :data:`WORKER_ACTIONS` or ``None``.  Pure function of
        (plan, id): the harness predicts with the same call the worker
        obeys."""
        if not isinstance(request_id, str) or self.is_noop:
            return None
        draw = self.rng(
            "worker.action", zlib.crc32(request_id.encode("utf-8"))
        ).random()
        if draw < self.crash_rate:
            return "exit"
        draw -= self.crash_rate
        if draw < self.hang_rate:
            return "hang"
        draw -= self.hang_rate
        if draw < self.slow_rate:
            return "slow"
        return None

    def for_jobs(self, jobs: int) -> "ChaosPlan":
        """The plan adjusted for the pool size: with in-process compute
        (``jobs < 2``) the process-killing actions are disabled."""
        if jobs >= 2:
            return self
        return replace(self, crash_rate=0.0, hang_rate=0.0)

    def reseeded(self, seed: int) -> "ChaosPlan":
        return replace(self, seed=seed)


#: The standard chaos mix the CI gate runs (crash + hang + slow together).
def default_chaos_plan(seed: int = 0) -> ChaosPlan:
    return ChaosPlan(
        name="storm",
        seed=seed,
        crash_rate=0.10,
        hang_rate=0.05,
        slow_rate=0.12,
    )


# ---------------------------------------------------------------------------
# Active-plan registry (mirrors repro.robust.faults: module-global slot,
# None by default, installed via context manager; the service reads it at
# dispatch and sends it with each request).

_active: ChaosPlan | None = None


def active_plan() -> ChaosPlan | None:
    """The installed plan, or ``None`` (chaos off — the hot path)."""
    return _active


def set_plan(plan: ChaosPlan | None) -> ChaosPlan | None:
    """Install ``plan`` globally (``None``/no-op turns chaos off); returns
    the previous plan."""
    global _active
    previous = _active
    _active = None if plan is None or plan.is_noop else plan
    return previous


@contextmanager
def injection(plan: ChaosPlan) -> Iterator[ChaosPlan]:
    """Install ``plan`` for the duration of the block."""
    previous = set_plan(plan)
    try:
        yield plan
    finally:
        set_plan(previous)


# ---------------------------------------------------------------------------
# The harness.


class ChaosFailure(AssertionError):
    """One chaos invariant did not hold."""


def _chaos_doc(i: int, seed: int, request_id: str, **extra) -> dict:
    """One structurally distinct request document (always a cache miss
    within a run, so worker-side chaos actually reaches the worker)."""
    from ..machine.presets import PAPER_CORE, paper_machine
    from ..workloads.traces import random_trace
    from .protocol import SCHEDULER_NAMES, ScheduleRequest

    machine = (PAPER_CORE, paper_machine(2))[i % 2]
    trace = random_trace(
        num_blocks=2 + i % 2,
        block_size=(3, 5),
        cross_probability=0.15,
        latencies=(0, 1, 2),
        seed=seed * 100_003 + i,
    )
    doc = ScheduleRequest(
        trace=trace,
        machine=machine,
        scheduler=SCHEDULER_NAMES[i % len(SCHEDULER_NAMES)],
        id=request_id,
    ).to_dict()
    doc.update(extra)
    return doc


def _raw_unix(socket_path, payload: bytes, read_lines: int) -> list[bytes]:
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


def _leaked_workers() -> int:
    """Live child processes once the daemon has stopped: stopping it
    closes its pool and reaps every worker, so any survivor is leaked."""
    import multiprocessing

    return len(multiprocessing.active_children())


def run_chaos(
    requests: int = 36,
    burst: int = 48,
    queue_capacity: int = 8,
    jobs: int = 2,
    seed: int = 0,
    report_path: str | None = None,
    workdir: str | None = None,
    plan: ChaosPlan | None = None,
):
    """Drive a seeded chaos plan against a live daemon; raises
    :class:`ChaosFailure` on any violated invariant, returns the
    (optionally written) RunReport otherwise."""
    from concurrent.futures import ThreadPoolExecutor

    from ..analysis.verify import verify_scheduler_output
    from ..obs.runreport import RunReport, collect_provenance
    from .admission import AdmissionConfig
    from .client import ScheduleClient
    from .daemon import ScheduleServer, ServerHandle
    from .protocol import machine_from_dict, trace_from_dict
    from .service import ScheduleService

    plan = (plan or default_chaos_plan(seed)).for_jobs(jobs)
    #: Timing ladder: guard budget < slow_s < pool timeout < hang_s, so a
    #: slow scheduler degrades, a hung worker is settled by the pool, and
    #: nothing waits on the hang itself.
    guard_budget_s = 0.15
    pool_timeout_s = 2.0
    breaker_cooldown_s = 0.3
    violations: list[str] = []
    observed = {
        "crash_errors": 0,
        "hang_errors": 0,
        "degraded": 0,
        "shed_seen": 0,
        "deadline_exceeded_seen": 0,
        "breaker_open_seen": 0,
        "unexpected_exceptions": 0,
    }
    #: Well-formed schedule requests clients actually delivered to the
    #: daemon (frame-level chaos — garbage, oversized, half-frames — does
    #: not count: those never reach admission).
    submitted = 0

    t_start = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        root = Path(tmp)
        cache_path = root / "cache.jsonl"
        service = ScheduleService(
            jobs=jobs,
            cache_size=4 * (requests + burst) + 16,
            cache_path=cache_path,
            spool_dir=root / "spool",
            timeout_s=pool_timeout_s,
            retries=0,
            guard_budget_s=guard_budget_s,
            breaker_threshold=3,
            breaker_cooldown_s=breaker_cooldown_s,
        )
        server = ScheduleServer(
            service,
            socket_path=root / "serve.sock",
            port=0,
            admission=AdmissionConfig(
                queue_capacity=queue_capacity,
                inflight_limit=max(4 * burst, 64),
                retry_after_s=0.5,
            ),
            max_line=256 * 1024,
        )

        with ServerHandle(server):
            admission = server.admission
            with injection(plan):
                # -- phase 1: mixed clean/chaotic pipelined traffic --------
                chaos_docs = [
                    _chaos_doc(i, seed, f"c{i}") for i in range(requests)
                ]
                degraded_responses: list[tuple[dict, dict]] = []
                with ScheduleClient(server.socket_path) as client:
                    for doc in chaos_docs:
                        rid = doc["id"]
                        action = plan.worker_action(rid)
                        submitted += 1
                        try:
                            response = client.call(doc)
                        except (ConnectionError, OSError) as exc:
                            violations.append(
                                f"request {rid!r} (action {action}) got no "
                                f"response: {exc}"
                            )
                            observed["unexpected_exceptions"] += 1
                            break
                        if not isinstance(response, dict) or (
                            "ok" not in response
                        ):
                            violations.append(
                                f"request {rid!r} answered a non-structured "
                                f"document: {response!r}"
                            )
                            continue
                        code = response.get("code")
                        if response.get("ok"):
                            if response.get("degraded"):
                                observed["degraded"] += 1
                                degraded_responses.append((doc, response))
                        elif code == "overloaded":
                            observed["shed_seen"] += 1
                        elif code == "breaker_open":
                            observed["breaker_open_seen"] += 1
                        elif action == "exit":
                            observed["crash_errors"] += 1
                        elif action == "hang":
                            observed["hang_errors"] += 1
                        elif code not in (
                            "scheduling_failed",
                            "deadline_exceeded",
                        ):
                            violations.append(
                                f"request {rid!r} (action {action}) failed "
                                f"unexpectedly: {response.get('error')!r} "
                                f"(code {code!r})"
                            )

                # -- phase 2: frame-level client chaos ---------------------
                # Malformed line between two valid pipelined requests: the
                # garbage gets its own error, neither neighbour is harmed.
                # The neighbours get chaos-free ids — this phase tests
                # frame handling, not worker adversity.
                def _clean_id(prefix: str) -> str:
                    return next(
                        f"{prefix}{k}"
                        for k in range(10_000)
                        if plan.worker_action(f"{prefix}{k}") is None
                    )

                good_a = _chaos_doc(requests + 1, seed, _clean_id("frame-a"))
                good_b = _chaos_doc(requests + 2, seed, _clean_id("frame-b"))
                payload = (
                    json.dumps(good_a).encode()
                    + b"\n{not json%%\n"
                    + json.dumps(good_b).encode()
                    + b"\n"
                )
                lines = _raw_unix(server.socket_path, payload, read_lines=3)
                submitted += 2  # good_a and good_b (the garbage line is not
                # a schedule request and never reaches admission)
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
                if not (
                    len(lines) == 1
                    and not json.loads(lines[0]).get("ok")
                ):
                    violations.append(
                        f"oversized frame not answered with a structured "
                        f"error: {lines!r}"
                    )
                # Disconnect mid-frame: no response owed, daemon alive.
                for k in range(2):
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.connect(str(server.socket_path))
                    sock.sendall(b'{"scheduler": "anticip')
                    sock.close()

                # -- phase 3: overload burst against a busy executor -------
                # Pin the batch executor with one guaranteed-slow request,
                # then fire `burst` concurrent requests at a queue of
                # capacity C: admission must answer every one (ok or shed)
                # and depth must never exceed C.
                blocker_id = next(
                    f"blocker-{k}"
                    for k in range(10_000)
                    if plan.worker_action(f"blocker-{k}")
                    in (("slow",) if jobs < 2 else ("hang", "slow"))
                )
                blocker = _chaos_doc(requests + 3, seed, blocker_id)
                burst_docs = [
                    _chaos_doc(requests + 10 + i, seed, f"burst-{i}")
                    for i in range(burst)
                ]
                # A slice of the burst carries a deadline too short to
                # survive queueing behind the blocker.
                for doc in burst_docs[: max(burst // 6, 1)]:
                    doc["deadline_ms"] = 1

                def fire(doc: dict) -> dict | None:
                    try:
                        with ScheduleClient(server.socket_path) as c:
                            return c.call(doc)
                    except (ConnectionError, OSError):
                        return None

                with ThreadPoolExecutor(max_workers=burst + 1) as pool:
                    blocker_future = pool.submit(fire, blocker)
                    time.sleep(0.05)  # let the blocker occupy the executor
                    burst_responses = list(pool.map(fire, burst_docs))
                    blocker_future.result()
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
                        degraded_responses.append((doc, response))

                # -- phase 4: corrupt the cache store on disk --------------
                with cache_path.open("a") as fh:
                    fh.write('{"digest": "deadbeef", "entry"')  # torn line

            # -- plan cleared: recovery --------------------------------------
            # Degraded answers must be verified-legal and never cached.
            degraded_legal = True
            degraded_uncached = True
            for doc, response in degraded_responses:
                trace = trace_from_dict(doc["program"])
                machine = machine_from_dict(doc["machine"])
                try:
                    verify_scheduler_output(
                        trace, response["block_orders"], machine
                    )
                except Exception as exc:
                    degraded_legal = False
                    violations.append(
                        f"degraded schedule for {doc['id']!r} is illegal: "
                        f"{exc}"
                    )
                if service.cache.peek(response["digest"]) is not None:
                    degraded_uncached = False
                    violations.append(
                        f"degraded result for {doc['id']!r} was cached"
                    )

            # Every scheduler class must serve a clean, non-degraded miss
            # after the plan ends; open breakers get their half-open probe
            # (the cooldown is short) and must close.
            from .protocol import SCHEDULER_NAMES

            recovered = True
            time.sleep(breaker_cooldown_s + 0.05)
            with ScheduleClient(server.socket_path) as client:
                for j, scheduler in enumerate(SCHEDULER_NAMES):
                    ok = False
                    for attempt in range(25):
                        doc = _chaos_doc(
                            10_000 + 100 * j + attempt,
                            seed,
                            f"recover-{scheduler}-{attempt}",
                        )
                        doc["scheduler"] = scheduler
                        submitted += 1
                        response = client.call(doc)
                        if response.get("ok") and not response.get("degraded"):
                            ok = True
                            break
                        if response.get("code") == "breaker_open":
                            time.sleep(breaker_cooldown_s / 2)
                            continue
                        break  # any other failure is a real violation
                    if not ok:
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

            admission_snap = admission.snapshot()
            stats = service.stats()

        # -- post-shutdown checks ---------------------------------------------
        leaked = _leaked_workers()
        if leaked:
            violations.append(f"{leaked} leaked worker process(es)")
        # The corrupted store must not poison a reload, and compaction
        # must leave a loadable file.
        from .cache import ScheduleCache

        reloaded = ScheduleCache(capacity=64, path=cache_path)
        store_reload_ok = len(reloaded) > 0
        reloaded.compact()
        store_reload_ok = store_reload_ok and len(
            ScheduleCache(capacity=64, path=cache_path)
        ) == len(reloaded)
        if not store_reload_ok:
            violations.append(
                "cache store failed to reload/compact after corruption"
            )

    # -- invariants ------------------------------------------------------------
    accepted, shed = admission_snap["accepted"], admission_snap["shed_total"]
    queue_bounded = admission_snap["peak_depth"] <= queue_capacity
    if not queue_bounded:
        violations.append(
            f"queue depth peaked at {admission_snap['peak_depth']} "
            f"(capacity {queue_capacity})"
        )
    if shed != observed["shed_seen"]:
        violations.append(
            f"admission shed {shed} request(s) but clients saw "
            f"{observed['shed_seen']} overloaded response(s)"
        )
    if accepted + shed != submitted:
        violations.append(
            f"admission accounted {accepted} accepted + {shed} shed, but "
            f"clients delivered {submitted} request(s)"
        )
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
        "queue_depth_bounded": int(queue_bounded),
        "degraded_verified_legal": int(degraded_legal),
        "degraded_never_cached": int(degraded_uncached),
        "frame_chaos_contained": int(frames_ok),
        "recovered_clean": int(recovered),
        "breakers_closed": int(breakers_closed),
        "no_leaked_workers": int(leaked == 0),
        "store_survived_corruption": int(store_reload_ok),
    }
    if violations:
        raise ChaosFailure(
            f"{len(violations)} chaos invariant violation(s):\n  - "
            + "\n  - ".join(violations)
        )

    wall_s = time.perf_counter() - t_start
    report = RunReport(
        name="serve_chaos",
        metrics={
            "invariants": invariants,
            "chaos_wall_s": wall_s,
        },
        phases={"chaos": wall_s},
        provenance=collect_provenance(
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
        ),
    )
    if report_path:
        report.write(report_path)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve-chaos",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--requests", type=int, default=36,
                        help="chaotic pipelined requests (default 36)")
    parser.add_argument("--burst", type=int, default=48,
                        help="concurrent overload-burst requests (default 48)")
    parser.add_argument("--queue-capacity", type=int, default=8,
                        help="admission queue capacity under test (default 8)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="service worker processes (default 2; crash/hang "
                             "chaos needs >= 2)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the RunReport JSON here")
    parser.add_argument("--json", action="store_true",
                        help="print the RunReport to stdout")
    args = parser.parse_args(argv)
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
        print(f"report written to {args.report}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    sys.exit(main())
