"""Hardware-counter-style metrics derived from simulator event traces.

A small metrics registry — :class:`Counter`, :class:`Gauge` and fixed-bucket
:class:`Histogram` instruments collected in a :class:`MetricsRegistry` — plus
the derivation that turns a raw :class:`~repro.obs.events.SimTrace` event
stream into the named counters a hardware performance-monitoring unit would
expose: cycles, issued instructions, IPC, a window-occupancy histogram, and a
full **stall attribution** breakdown.

Stall attribution
-----------------

Every distinct stalled cycle of a trace is attributed to exactly one cause.
The simulator classifies each one against the window head, in the order
barrier, resource, window, then predecessor or dependence:

``dependence``
    The head-of-window instruction waits on a dependence *latency* — its
    producer has issued but the result is still in flight.
``predecessor``
    The head waits on a predecessor that has not even issued yet (typically
    sitting later in the stream, reachable only once the window advances).
``window``
    The head is not ready, but an unissued instruction *beyond* the window
    is: the lookahead is pinned by a stalled head (paper §2.3).  This is
    the stall anticipatory scheduling recovers, by ordering each block so
    its idle slots fall late, within reach of the next block.
``resource``
    The head was ready but every compatible functional unit was busy.
``barrier``
    The cycle was spent waiting on a misprediction barrier (window flush).

:func:`stall_attribution` guarantees that the per-cause counts sum exactly
to ``SimTrace.stall_cycles`` (== ``SimResult.stall_cycles`` of the same
execution) — the breakdown is a partition, never an estimate.  This holds on
the deadlock path too: the trace published just before
:class:`~repro.sim.window.SimulationDeadlock` is raised attributes every
stalled cycle up to the point progress stopped.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .events import STALL_KINDS, SimEvent, SimTrace

#: The stall-attribution categories, in reporting order; see the module
#: docstring for each cause.
STALL_CAUSES = ("dependence", "predecessor", "window", "resource", "barrier")

#: Percentiles reported in histogram summaries.
SUMMARY_PERCENTILES = (50, 90, 99)


def nearest_rank(sorted_values: Sequence[float], p: float) -> float | None:
    """Nearest-rank ``p``-th percentile of an ascending sequence: the
    smallest value with at least ``p`` percent of the values at or below
    it (``None`` when empty)."""
    if not sorted_values:
        return None
    return sorted_values[max(1, math.ceil(len(sorted_values) * p / 100.0)) - 1]


class Counter:
    """A monotonically increasing named integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        self.value += n

    def to_value(self) -> int:
        return self.value


class Gauge:
    """A named value that records the last observation."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | int | None = None

    def set(self, value: float | int) -> None:
        self.value = value

    def to_value(self) -> float | int | None:
        return self.value


class Histogram:
    """Fixed-bucket histogram with percentile summaries.

    ``buckets`` are inclusive upper bounds in ascending order; observations
    above the last bound land in an implicit overflow bucket.  Percentiles
    are resolved to bucket bounds (exact when the bounds enumerate every
    possible value, as the window-occupancy histogram's do).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "_min", "_max")

    def __init__(self, name: str, buckets: Iterable[float]) -> None:
        self.name = name
        self.bounds = sorted(buckets)
        if not self.bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bucket")
        self.counts = [0] * (len(self.bounds) + 1)  # + overflow
        self.count = 0
        self.total = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float, n: int = 1) -> None:
        if n < 0:
            raise ValueError(
                f"histogram {self.name!r} cannot un-observe (n={n})"
            )
        if n == 0:
            # A zero-weight observation must not touch min/max either —
            # otherwise a later percentile() could report a value that was
            # never actually observed.
            return
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += n
        self.count += n
        self.total += value * n
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def percentile(self, p: float) -> float | None:
        """The smallest bucket bound covering ``p`` percent of observations.

        Deterministic resolution, never interpolation:

        - an **empty** histogram returns ``None`` for every ``p``;
        - a percentile that lands in the **overflow bucket** (including the
          case where *every* sample is above the last bound) returns the
          true observed maximum — the only deterministic upper edge the
          overflow bucket has;
        - otherwise the inclusive upper bound of the covering bucket is
          returned (exact when the bounds enumerate every possible value,
          as the window-occupancy histogram's do).

        ``p`` must satisfy ``0 < p <= 100``.
        """
        if not 0 < p <= 100:
            raise ValueError(f"percentile p must be in (0, 100], got {p!r}")
        if not self.count:
            return None
        target = max(1, math.ceil(self.count * p / 100.0))
        cumulative = 0
        for bound, n in zip(self.bounds, self.counts):
            cumulative += n
            if cumulative >= target:
                return bound
        return self._max

    def to_value(self) -> dict:
        out: dict = {
            "count": self.count,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
        }
        for p in SUMMARY_PERCENTILES:
            out[f"p{p}"] = self.percentile(p)
        return out


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are get-or-create: asking twice for the same name returns
    the same object; asking for an existing name as a different instrument
    kind is an error.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, buckets: Iterable[float]) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, buckets))

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Counter | Gauge | Histogram:
        return self._metrics[name]

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def to_dict(self) -> dict[str, object]:
        """All instruments as JSON-serializable values, sorted by name
        (histograms become their summary dicts)."""
        return {name: self._metrics[name].to_value() for name in self.names()}


def classify_stall(event: SimEvent) -> str:
    """The attribution category of one stall-kind event.

    Prefers the simulator's structured ``cause`` field; falls back to the
    ``detail`` text for traces recorded before the field existed.
    """
    if event.kind == "barrier_wait":
        return "barrier"
    if event.cause in STALL_CAUSES:
        return event.cause
    detail = event.detail
    if "unissued predecessor" in detail:
        return "predecessor"
    if "no free" in detail:
        return "resource"
    if "barrier" in detail:
        return "barrier"
    return "dependence"


def stall_attribution(trace: SimTrace) -> dict[str, int]:
    """Stalled cycles by cause; the values sum exactly to
    ``trace.stall_cycles``.

    Each distinct stalled cycle is counted once, under the cause of its
    first stall event (the simulator emits one stall event per stalled
    cycle, so ties cannot occur in practice).
    """
    seen: set[int] = set()
    out: dict[str, int] = {cause: 0 for cause in STALL_CAUSES}
    for event in trace.events:
        if event.kind not in STALL_KINDS or event.cycle in seen:
            continue
        seen.add(event.cycle)
        out[classify_stall(event)] += 1
    return out


def sim_metrics(
    trace: SimTrace,
    registry: MetricsRegistry | None = None,
    prefix: str = "sim.",
) -> MetricsRegistry:
    """Derive hardware-style counters from a simulator event trace.

    Populates (and returns) ``registry`` with:

    - ``<prefix>instructions`` / ``<prefix>issued`` — stream length and
      instructions actually issued (they differ only on the deadlock path);
    - ``<prefix>cycles`` — cycles up to and including the last issue (the
      span ``stall_cycles`` is defined over);
    - ``<prefix>stall_cycles`` and ``<prefix>stall.<cause>`` — the stall
      attribution breakdown of :func:`stall_attribution`;
    - ``<prefix>window_advances`` / ``<prefix>barrier_releases``;
    - ``<prefix>ipc`` — issued / cycles (a gauge);
    - ``<prefix>window_size`` — the configured lookahead W (a gauge);
    - ``<prefix>occupancy`` — histogram of the window occupancy per cycle.
    """
    registry = registry if registry is not None else MetricsRegistry()
    counts = trace.counts()
    issue_cycles = [e.cycle for e in trace.events if e.kind == "issue"]
    cycles = max(issue_cycles) + 1 if issue_cycles else 0

    registry.counter(f"{prefix}instructions").inc(trace.num_instructions)
    registry.counter(f"{prefix}issued").inc(counts.get("issue", 0))
    registry.counter(f"{prefix}cycles").inc(cycles)
    registry.counter(f"{prefix}stall_cycles").inc(trace.stall_cycles)
    registry.counter(f"{prefix}window_advances").inc(
        counts.get("window_advance", 0)
    )
    registry.counter(f"{prefix}barrier_releases").inc(
        counts.get("barrier_release", 0)
    )
    for cause, stalled in stall_attribution(trace).items():
        registry.counter(f"{prefix}stall.{cause}").inc(stalled)

    registry.gauge(f"{prefix}window_size").set(trace.window_size)
    registry.gauge(f"{prefix}ipc").set(
        counts.get("issue", 0) / cycles if cycles else 0.0
    )

    occupancy = registry.histogram(
        f"{prefix}occupancy", range(trace.window_size + 1)
    )
    for value in trace.occupancy_by_cycle().values():
        occupancy.observe(value)
    return registry
