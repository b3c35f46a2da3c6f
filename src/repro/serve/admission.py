"""Admission control and circuit breaking for the scheduling daemon.

The daemon's north star is heavy online traffic, and a server that accepts
every request fails worst exactly when it matters: an unbounded queue turns
overload into unbounded memory and unbounded latency, and a broken
scheduler class turns every request into a slow failure.  This module
provides the two load-safety primitives the serve tier threads through
both transports:

- :class:`AdmissionController` — a bounded admission ledger.  Every
  request must be admitted before it may enter the request queue; admission
  fails (the request is **shed** with a structured ``overloaded`` error)
  when the queue is at capacity or the request's transport already has too
  many requests in flight.  Between "healthy" and "shedding" sits
  **brownout**: above a configurable queue-depth fraction the daemon
  disables the debug endpoints, shedding optional work before it sheds
  requests.
- :class:`CircuitBreaker` / :class:`BreakerBoard` — per-scheduler-class
  failure isolation.  K consecutive compute failures (crashes, timeouts,
  guard degradations that indicate adversity rather than policy) open the
  breaker; while open, cache misses for that scheduler short-circuit with
  a structured ``breaker_open`` error instead of burning pool capacity;
  after a cooldown one half-open probe is admitted, and its outcome closes
  or re-opens the breaker.

Everything here is transport-agnostic bookkeeping guarded by a lock: the
asyncio thread admits and releases, the dispatcher thread notes dequeues
and records compute outcomes, and ``/stats`` snapshots from whichever
thread asks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry

#: Structured protocol error codes the serving tier emits (the ``code``
#: field of an error response; see :func:`repro.serve.protocol
#: .error_response`).
SHED_QUEUE_FULL = "queue_full"
SHED_INFLIGHT_LIMIT = "inflight_limit"

#: Circuit-breaker states (also exposed as 0/1/2 gauges for Prometheus).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Numeric encoding of breaker states for the ``/metrics`` gauges.
BREAKER_STATE_CODES = {
    BREAKER_CLOSED: 0,
    BREAKER_OPEN: 1,
    BREAKER_HALF_OPEN: 2,
}


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of the daemon's admission policy.

    ``queue_capacity`` bounds the request queue: requests beyond it are
    shed.
    ``inflight_limit`` bounds admitted-but-unanswered requests *per
    transport* (``unix`` / ``http``), so one greedy transport cannot starve
    the other.  ``brownout_fraction`` is the queue-depth fraction at which
    brownout engages; ``retry_after_s`` is the advisory retry hint stamped
    on shed responses (and the HTTP ``Retry-After`` header).
    """

    queue_capacity: int = 128
    inflight_limit: int = 256
    brownout_fraction: float = 0.75
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.inflight_limit < 1:
            raise ValueError(
                f"inflight_limit must be >= 1, got {self.inflight_limit}"
            )
        if not 0.0 < self.brownout_fraction <= 1.0:
            raise ValueError(
                f"brownout_fraction must be in (0, 1], got "
                f"{self.brownout_fraction}"
            )
        if self.retry_after_s <= 0:
            raise ValueError(
                f"retry_after_s must be > 0, got {self.retry_after_s}"
            )


class AdmissionController:
    """Bounded admission ledger shared by both transports.

    Protocol: :meth:`try_admit` before enqueueing (``None`` means admitted,
    a string is the shed reason), :meth:`note_dequeued` when the request
    is answered or its computation reaches a worker, :meth:`release` when
    its response future resolves.  ``queue_depth`` can therefore never exceed
    ``config.queue_capacity`` — the property the bounded-queue test pins.
    """

    def __init__(
        self,
        config: AdmissionConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or AdmissionConfig()
        self.registry = registry
        self._lock = threading.Lock()
        self._depth = 0
        self._inflight: dict[str, int] = {}
        self.accepted = 0
        self.shed_total = 0
        #: Shed counts by reason (queue_full / inflight_limit).
        self.shed: dict[str, int] = {}
        self.peak_depth = 0
        self.peak_inflight = 0
        #: Times the controller transitioned healthy -> brownout.
        self.brownouts = 0
        self._browned_out = False

    def _count(self, name: str) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc()

    # -- admission ------------------------------------------------------------

    def try_admit(self, transport: str) -> str | None:
        """Admit one request from ``transport``; returns ``None`` on
        success or the shed reason when the request must be rejected."""
        with self._lock:
            if self._depth >= self.config.queue_capacity:
                reason = SHED_QUEUE_FULL
            elif (
                self._inflight.get(transport, 0) >= self.config.inflight_limit
            ):
                reason = SHED_INFLIGHT_LIMIT
            else:
                self.accepted += 1
                self._depth += 1
                self._inflight[transport] = (
                    self._inflight.get(transport, 0) + 1
                )
                self.peak_depth = max(self.peak_depth, self._depth)
                total = sum(self._inflight.values())
                self.peak_inflight = max(self.peak_inflight, total)
                self._note_brownout_locked()
                return None
            self.shed_total += 1
            self.shed[reason] = self.shed.get(reason, 0) + 1
        self._count("serve.shed")
        self._count(f"serve.shed.{reason}")
        return reason

    def note_dequeued(self, n: int = 1) -> None:
        """``n`` requests left the queue: answered, or on a worker (they
        stay inflight until their futures resolve)."""
        with self._lock:
            self._depth = max(0, self._depth - n)
            self._note_brownout_locked()

    def release(self, transport: str) -> None:
        """One admitted request's response future resolved."""
        with self._lock:
            count = self._inflight.get(transport, 0)
            if count <= 1:
                self._inflight.pop(transport, None)
            else:
                self._inflight[transport] = count - 1

    def _note_brownout_locked(self) -> None:
        browned = self._depth >= self._brownout_depth
        if browned and not self._browned_out:
            self.brownouts += 1
        self._browned_out = browned

    # -- state ----------------------------------------------------------------

    @property
    def _brownout_depth(self) -> int:
        return max(
            1,
            int(self.config.queue_capacity * self.config.brownout_fraction),
        )

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._depth

    def inflight(self, transport: str | None = None) -> int:
        with self._lock:
            if transport is not None:
                return self._inflight.get(transport, 0)
            return sum(self._inflight.values())

    @property
    def brownout(self) -> bool:
        """True while queue depth is at or above the brownout threshold —
        the daemon disables its debug endpoints."""
        with self._lock:
            return self._depth >= self._brownout_depth

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "queue_capacity": self.config.queue_capacity,
                "inflight_limit": self.config.inflight_limit,
                "queue_depth": self._depth,
                "peak_depth": self.peak_depth,
                "inflight": dict(sorted(self._inflight.items())),
                "inflight_total": sum(self._inflight.values()),
                "peak_inflight": self.peak_inflight,
                "accepted": self.accepted,
                "shed_total": self.shed_total,
                "shed": dict(sorted(self.shed.items())),
                "brownout": self._depth >= self._brownout_depth,
                "brownouts": self.brownouts,
                "retry_after_s": self.config.retry_after_s,
            }

    def publish(self, registry: MetricsRegistry) -> None:
        """Push the live admission gauges into ``registry`` (scrape-time,
        like the service's other derived gauges)."""
        snap = self.snapshot()
        registry.gauge("serve.queue_depth").set(snap["queue_depth"])
        registry.gauge("serve.queue_capacity").set(snap["queue_capacity"])
        registry.gauge("serve.inflight").set(snap["inflight_total"])
        registry.gauge("serve.brownout").set(1 if snap["brownout"] else 0)
        for transport, count in snap["inflight"].items():
            registry.gauge(f"serve.inflight.{transport}").set(count)


class CircuitBreaker:
    """Closed -> open after K consecutive failures -> half-open probe.

    While **closed**, every call is allowed and consecutive failures are
    counted (any success resets the streak).  After ``failure_threshold``
    consecutive failures the breaker **opens**: :meth:`allow` refuses (the
    caller answers a structured ``breaker_open`` error) until
    ``cooldown_s`` has elapsed, at which point exactly one probe call is
    admitted (**half-open**).  The probe's success closes the breaker; its
    failure re-opens it with a fresh cooldown.

    ``clock`` is injectable for deterministic lifecycle tests.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be > 0, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probe_inflight = False
        self.opened = 0
        self.reclosed = 0
        self.short_circuits = 0
        self.failures = 0
        self.successes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a compute for this class proceed right now?  Refusals are
        counted as short-circuits."""
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                if (
                    self._opened_at is not None
                    and self._clock() - self._opened_at >= self.cooldown_s
                ):
                    self._state = BREAKER_HALF_OPEN
                    self._probe_inflight = True
                    return True
                self.short_circuits += 1
                return False
            # half-open: exactly one probe at a time
            if not self._probe_inflight:
                self._probe_inflight = True
                return True
            self.short_circuits += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            if self._state != BREAKER_CLOSED:
                self._state = BREAKER_CLOSED
                self._opened_at = None
                self.reclosed += 1
            self._probe_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            if self._state == BREAKER_HALF_OPEN:
                # Failed probe: straight back to open, fresh cooldown.
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                self.opened += 1
            elif (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                self.opened += 1
            self._probe_inflight = False

    def retry_after_s(self) -> float:
        """Seconds until the next probe would be admitted (0 when not
        open)."""
        with self._lock:
            if self._state != BREAKER_OPEN or self._opened_at is None:
                return 0.0
            return max(
                0.0, self.cooldown_s - (self._clock() - self._opened_at)
            )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "cooldown_s": self.cooldown_s,
                "opened": self.opened,
                "reclosed": self.reclosed,
                "short_circuits": self.short_circuits,
                "failures": self.failures,
                "successes": self.successes,
            }


class BreakerBoard:
    """Lazily-created per-scheduler-class circuit breakers."""

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def get(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self.failure_threshold,
                    cooldown_s=self.cooldown_s,
                    clock=self._clock,
                )
                self._breakers[name] = breaker
            return breaker

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._breakers)

    def snapshot(self) -> dict:
        with self._lock:
            items = list(self._breakers.items())
        return {name: breaker.snapshot() for name, breaker in sorted(items)}

    def short_circuits(self) -> int:
        with self._lock:
            items = list(self._breakers.values())
        return sum(b.short_circuits for b in items)

    def publish(self, registry: MetricsRegistry) -> None:
        """Breaker state/transition gauges and counters for ``/metrics``:
        ``serve.breaker.<class>.state`` is 0 closed / 1 open / 2
        half-open."""
        for name, snap in self.snapshot().items():
            registry.gauge(f"serve.breaker.{name}.state").set(
                BREAKER_STATE_CODES[snap["state"]]
            )
            registry.gauge(f"serve.breaker.{name}.opened").set(snap["opened"])
            registry.gauge(f"serve.breaker.{name}.reclosed").set(
                snap["reclosed"]
            )
            registry.gauge(f"serve.breaker.{name}.short_circuits").set(
                snap["short_circuits"]
            )
