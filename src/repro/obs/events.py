"""Structured simulator events and traces.

The cycle-level counterpart of the span recorder: :class:`SimEvent` captures
one thing the lookahead hardware did (or failed to do) in one cycle, and
:class:`SimTrace` is the full event stream of one windowed execution,
attached to :class:`~repro.sim.window.SimResult` when tracing is enabled.

Event kinds
-----------

``issue``
    An instruction left the window and started executing (``node``, ``unit``).
``stall``
    A cycle before the last issue in which nothing issued.  ``node`` is the
    window head, ``cause`` one of
    :data:`~repro.obs.metrics.STALL_CAUSES` and ``detail`` the reason: the
    head waits on a dependence latency or an unissued predecessor, its
    functional units are busy, or an instruction beyond the window is
    ready while the head pins the window (``window``).
``barrier_wait``
    A stall cycle spent waiting on a misprediction barrier (window flush):
    the head may not issue until the barrier releases plus its penalty.
``window_advance``
    The window head moved forward (its first instruction had issued).
``barrier_release``
    All instructions before a barrier completed; ``detail`` records the
    release cycle and penalty.
``deadlock``
    The stream can never make progress (emitted just before
    :class:`~repro.sim.window.SimulationDeadlock` is raised).

Every event carries the window ``head`` (stream index) and the window
``occupancy`` — the number of *unissued* instructions currently visible to
the issue logic — so occupancy-over-time can be plotted directly.

``SimTrace.stall_cycles`` counts distinct ``stall`` + ``barrier_wait``
cycles and always equals ``SimResult.stall_cycles`` for the same execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Kinds that represent a cycle in which nothing issued.
STALL_KINDS = ("stall", "barrier_wait")

EVENT_KINDS = (
    "issue",
    "stall",
    "barrier_wait",
    "window_advance",
    "barrier_release",
    "deadlock",
)


@dataclass(frozen=True)
class SimEvent:
    """One cycle-level simulator event (see module docstring for kinds)."""

    cycle: int
    kind: str
    node: str | None = None
    unit: str | None = None
    #: Stream index of the window head when the event fired.
    head: int | None = None
    #: Unissued instructions in the window [head, head+W) at the event.
    occupancy: int | None = None
    detail: str = ""
    #: Structured attribution category for stall-kind events (one of
    #: :data:`~repro.obs.metrics.STALL_CAUSES`); ``None`` for other kinds.
    cause: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"type": "sim", "cycle": self.cycle, "kind": self.kind}
        for key in ("node", "unit", "head", "occupancy", "cause"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SimEvent":
        return cls(
            cycle=int(d["cycle"]),
            kind=str(d["kind"]),
            node=d.get("node"),
            unit=d.get("unit"),
            head=d.get("head"),
            occupancy=d.get("occupancy"),
            detail=d.get("detail", ""),
            cause=d.get("cause"),
        )


@dataclass
class SimTrace:
    """The full event stream of one windowed execution."""

    window_size: int
    num_instructions: int
    label: str = ""
    events: list[SimEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def stall_cycles(self) -> int:
        """Distinct cycles spent stalled (``stall`` + ``barrier_wait``) —
        equal to ``SimResult.stall_cycles`` of the same execution."""
        return len({e.cycle for e in self.events if e.kind in STALL_KINDS})

    @property
    def issue_count(self) -> int:
        return sum(1 for e in self.events if e.kind == "issue")

    @property
    def window_advances(self) -> int:
        return sum(1 for e in self.events if e.kind == "window_advance")

    @property
    def barrier_stall_cycles(self) -> int:
        return len({e.cycle for e in self.events if e.kind == "barrier_wait"})

    @property
    def max_cycle(self) -> int:
        return max((e.cycle for e in self.events), default=0)

    def events_by_cycle(self) -> dict[int, list[SimEvent]]:
        """Events grouped by cycle, in cycle order."""
        out: dict[int, list[SimEvent]] = {}
        for e in sorted(self.events, key=lambda e: e.cycle):
            out.setdefault(e.cycle, []).append(e)
        return out

    def occupancy_by_cycle(self) -> dict[int, int]:
        """Window occupancy over time (last value recorded in each cycle)."""
        out: dict[int, int] = {}
        for e in self.events:
            if e.occupancy is not None:
                out[e.cycle] = e.occupancy
        return dict(sorted(out.items()))

    def counts(self) -> dict[str, int]:
        """Event counts by kind."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out
