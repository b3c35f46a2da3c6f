"""Schedule value type shared by every scheduler in the library.

A schedule assigns each instruction an integer start time and a functional
unit (paper §3: "A schedule S assigns each instruction x a start time S(x)
and functional unit on which to run").  With unit execution times a node
started at time t completes at t + 1; in general at t + exec_time.

The helpers here mirror the vocabulary of the paper: makespan, idle slots,
u-set partitions around idle slots, tail nodes, permutations and
sub-permutations (Definition 2.1).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..ir.depgraph import DependenceGraph
from ..ir.instruction import ANY

#: A functional unit identity: (fu_class, index within class).
Unit = tuple[str, int]

SINGLE_UNIT: Unit = (ANY, 0)


class ScheduleError(ValueError):
    """Raised when a schedule violates dependence or resource constraints."""


@dataclass(frozen=True)
class IdleSlot:
    """One idle time step on one unit (time < makespan)."""

    time: int
    unit: Unit


class Schedule:
    """An assignment of start times (and units) to the nodes of a graph."""

    def __init__(
        self,
        graph: DependenceGraph,
        starts: Mapping[str, int],
        units: Mapping[str, Unit] | None = None,
    ) -> None:
        missing = set(graph.nodes) - set(starts)
        extra = set(starts) - set(graph.nodes)
        if missing:
            raise ScheduleError(f"schedule misses nodes {sorted(missing)}")
        if extra:
            raise ScheduleError(f"schedule has unknown nodes {sorted(extra)}")
        for n, t in starts.items():
            if t < 0:
                raise ScheduleError(f"negative start time {t} for {n!r}")
        self.graph = graph
        self.starts: dict[str, int] = dict(starts)
        if units is None:
            units = {n: SINGLE_UNIT for n in starts}
        self.units: dict[str, Unit] = dict(units)
        self._exec = {n: graph.exec_time(n) for n in graph.nodes}
        # Schedules are never mutated after construction, so the makespan
        # is fixed here.
        self._makespan = max(
            (t + self._exec[n] for n, t in self.starts.items()), default=0
        )

    # Basic accessors ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    def __contains__(self, node: str) -> bool:
        return node in self.starts

    def start(self, node: str) -> int:
        return self.starts[node]

    def completion(self, node: str) -> int:
        return self.starts[node] + self._exec[node]

    def completion_times(self) -> dict[str, int]:
        return {n: self.completion(n) for n in self.starts}

    def unit(self, node: str) -> Unit:
        return self.units[node]

    @property
    def makespan(self) -> int:
        """Completion time of the last instruction (first starts at >= 0)."""
        return self._makespan

    # Ordering views ----------------------------------------------------------------

    def permutation(self) -> list[str]:
        """Nodes ordered by (start time, unit) — for a single-unit schedule this
        is exactly the paper's permutation P consistent with S."""
        return sorted(self.starts, key=lambda n: (self.starts[n], self.units[n]))

    def subpermutation(self, members: Iterable[str]) -> list[str]:
        """Definition 2.1: the relative order of ``members`` within P."""
        member_set = set(members)
        return [n for n in self.permutation() if n in member_set]

    # Idle-slot machinery (paper §3) --------------------------------------------------

    def busy_units(self) -> set[Unit]:
        return set(self.units[n] for n in self.starts)

    def idle_slots(self, unit: Unit | None = None) -> list[IdleSlot]:
        """Idle integer time steps strictly before the makespan.

        A unit is idle at time t if it is not starting or running any
        instruction at t (paper §3).  If ``unit`` is given, only that unit's
        slots are reported; otherwise all units that run at least one node
        are scanned (sorted by time then unit).
        """
        units = [unit] if unit is not None else sorted(self.busy_units())
        out = [IdleSlot(t, u) for u in units for t in self.idle_times(u)]
        out.sort(key=lambda s: (s.time, s.unit))
        return out

    def idle_times(self, unit: Unit = SINGLE_UNIT) -> list[int]:
        """Start times t₁ < t₂ < … of the idle slots on ``unit``."""
        return self._free_times(unit)

    def global_idle_times(self) -> list[int]:
        """Times before the makespan at which *every* used unit is idle — a
        whole-machine stall.  Equal to :meth:`idle_times` on a single-unit
        schedule; the conservative generalization chop needs on multi-unit
        machines (no instruction can start at or span a global idle time)."""
        return self._free_times(None)

    def _free_times(self, unit: Unit | None) -> list[int]:
        """Times before the makespan at which no node runs on ``unit`` (on
        any unit when None): one pass over the nodes into a busy map."""
        busy = bytearray(self._makespan)
        for n, t in self.starts.items():
            if unit is None or self.units[n] == unit:
                e = self._exec[n]
                busy[t:t + e] = b"\x01" * e
        return [t for t, b in enumerate(busy) if not b]

    def tail_node(self, idle_time: int, unit: Unit = SINGLE_UNIT) -> str | None:
        """The node scheduled at time ``idle_time − 1`` on ``unit`` — the
        paper's *tail* of the u-set ending at that idle slot.  With non-unit
        execution times, the node *completing* at ``idle_time`` (or running
        into it) is returned; None if the unit is also idle just before."""
        best: str | None = None
        for n, t in self.starts.items():
            if self.units[n] != unit:
                continue
            if t < idle_time <= t + self._exec[n]:
                if best is None or t > self.starts[best]:
                    best = n
        return best

    def u_sets(self, unit: Unit = SINGLE_UNIT) -> list[list[str]]:
        """Partition of the unit's nodes into u-sets U₁,…,U_{j+1} delimited by
        its idle slots (paper §3): U_i holds the nodes scheduled between idle
        slot i−1 (exclusive) and idle slot i; the final set follows the last
        idle slot.  Nodes appear in start-time order."""
        times = self.idle_times(unit)
        nodes = sorted(
            (n for n in self.starts if self.units[n] == unit),
            key=lambda n: self.starts[n],
        )
        bounds = times + [self.makespan + 1]
        sets: list[list[str]] = [[] for _ in bounds]
        for n in nodes:
            t = self.starts[n]
            for i, b in enumerate(bounds):
                if t < b:
                    sets[i].append(n)
                    break
        return sets

    def nodes_before(self, time: int, unit: Unit | None = None) -> list[str]:
        """Nodes starting strictly before ``time`` (optionally on one unit)."""
        return [
            n
            for n, t in self.starts.items()
            if t < time and (unit is None or self.units[n] == unit)
        ]

    # Validation -------------------------------------------------------------------

    def validate(self, check_units: bool = True) -> None:
        """Raise :class:`ScheduleError` on dependence/latency/resource violations."""
        for u, v, lat in self.graph.edges():
            earliest = self.completion(u) + lat
            if self.starts[v] < earliest:
                raise ScheduleError(
                    f"dependence violated: {v!r} starts at {self.starts[v]} but "
                    f"{u!r} completes at {self.completion(u)} with latency {lat}"
                )
        if check_units:
            busy: dict[tuple[Unit, int], str] = {}
            for n, t in self.starts.items():
                u = self.units[n]
                for step in range(t, t + self._exec[n]):
                    if (u, step) in busy:
                        raise ScheduleError(
                            f"unit {u} runs both {busy[(u, step)]!r} and {n!r} "
                            f"at time {step}"
                        )
                    busy[(u, step)] = n

    def is_valid(self) -> bool:
        try:
            self.validate()
            return True
        except ScheduleError:
            return False

    def is_feasible(self, deadlines: Mapping[str, int]) -> bool:
        """All nodes complete by their deadlines (missing keys: unconstrained)."""
        return all(
            self.completion(n) <= deadlines[n] for n in self.starts if n in deadlines
        )

    def tardiness(self, deadlines: Mapping[str, int]) -> int:
        """Maximum lateness max(0, completion − deadline) over all nodes."""
        worst = 0
        for n in self.starts:
            if n in deadlines:
                worst = max(worst, self.completion(n) - deadlines[n])
        return worst

    # Presentation --------------------------------------------------------------------

    def gantt(self) -> str:
        """ASCII timeline in the style of the paper's figures, one row per
        unit: ``| x | e | r | b | w |   | a |``."""
        span = self.makespan
        rows: list[str] = []
        for u in sorted(self.busy_units()):
            cells = [""] * span
            for n, t in self.starts.items():
                if self.units[n] != u:
                    continue
                for step in range(t, t + self._exec[n]):
                    cells[step] = n if step == t else f"({n})"
            width = max([3] + [len(c) for c in cells]) + 2
            row = "|".join(c.center(width) for c in cells)
            label = f"{u[0]}{u[1]}: " if len(self.busy_units()) > 1 else ""
            rows.append(f"{label}|{row}|")
        return "\n".join(rows)

    def copy(self) -> "Schedule":
        return Schedule(self.graph, self.starts, self.units)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Schedule)
            and self.starts == other.starts
            and self.units == other.units
        )

    def __hash__(self) -> int:
        # Must hash everything __eq__ compares: hashing only ``starts``
        # collides multi-FU schedules that differ solely in unit assignment.
        return hash(
            (
                tuple(sorted(self.starts.items())),
                tuple(sorted(self.units.items())),
            )
        )

    def digest(self) -> str:
        """Stable sha256 content digest of the schedule.

        Unlike :func:`hash`, the value is independent of ``PYTHONHASHSEED``
        and identical across processes and sessions, so it can key on-disk
        stores and travel in wire responses (the serve cache reuses it to
        assert bit-identity of cached vs freshly computed schedules).  Two
        schedules are equal iff their digests are equal: the canonical JSON
        covers exactly what :meth:`__eq__` compares — starts and units.
        """
        return schedule_digest(self.starts, self.units)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schedule(n={len(self)}, makespan={self.makespan})"


def schedule_digest(
    starts: Mapping[str, int], units: Mapping[str, Unit]
) -> str:
    """sha256 content digest of a ``(starts, units)`` assignment.

    Module-level so callers holding raw mappings (e.g. the serve cache
    translating a stored canonical schedule into request names) can digest
    without constructing a graph-validated :class:`Schedule`; the method
    :meth:`Schedule.digest` delegates here, so the two can never disagree.
    """
    payload = {
        "v": 1,
        "starts": [[n, t] for n, t in sorted(starts.items())],
        "units": [[n, list(u)] for n, u in sorted(units.items())],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
