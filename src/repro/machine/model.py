"""Machine models: functional units, lookahead window, issue width.

The paper's core results assume a single functional unit with unit execution
times and 0/1 latencies, plus a hardware lookahead window of W instructions
(§2.3).  §4.2 generalizes heuristically to multiple (typed) functional units,
non-unit execution times and longer latencies.  :class:`MachineModel` captures
all of these knobs; schedulers and the simulator consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..ir.depgraph import DependenceGraph
from ..ir.instruction import ANY


@dataclass(frozen=True)
class MachineModel:
    """A target machine description.

    Parameters
    ----------
    window_size:
        Hardware lookahead window W (number of contiguous dynamic-stream
        instructions the issue logic can inspect).  W = 1 means no lookahead:
        strictly in-order issue.
    fu_counts:
        Mapping functional-unit class -> number of units of that class.  An
        instruction of class ``c`` runs on a unit of class ``c``; instructions
        of class :data:`ANY` may run on any unit.  The default is one
        universal unit, the paper's core model.
    issue_width:
        Maximum number of instructions issued per cycle (across all units).
        ``None`` means limited only by free units.
    """

    window_size: int = 4
    fu_counts: dict[str, int] = field(default_factory=lambda: {ANY: 1})
    issue_width: int | None = None

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {self.window_size}")
        if not self.fu_counts:
            raise ValueError("machine needs at least one functional unit")
        for cls, count in self.fu_counts.items():
            if count < 1:
                raise ValueError(f"fu class {cls!r} needs count >= 1, got {count}")
        if self.issue_width is not None and self.issue_width < 1:
            raise ValueError(f"issue_width must be >= 1, got {self.issue_width}")
        # The unit tables below are derived once, so the machine keeps its
        # own copy of the counts: a caller mutating the dict it passed in
        # must not change (or stale) this machine.
        counts = dict(self.fu_counts)
        units = tuple(
            (cls, i) for cls in sorted(counts) for i in range(counts[cls])
        )
        by_class = {
            cls: tuple(u for u in units if u[0] == cls or u[0] == ANY)
            for cls in counts
        }
        by_class[ANY] = units
        set_ = object.__setattr__  # frozen dataclass
        set_(self, "fu_counts", counts)
        set_(self, "_units", units)
        set_(self, "_units_for", by_class)
        #: Units a class absent from ``fu_counts`` may use: the universal ones.
        set_(self, "_universal", tuple(u for u in units if u[0] == ANY))

    @property
    def total_units(self) -> int:
        return len(self._units)

    @property
    def is_single_unit(self) -> bool:
        return len(self._units) == 1

    def unit_names(self) -> list[tuple[str, int]]:
        """Stable list of ``(fu_class, index)`` identifiers for every unit."""
        return list(self._units)

    def units_for(self, fu_class: str) -> list[tuple[str, int]]:
        """Units an instruction of ``fu_class`` may execute on.

        :data:`ANY` instructions run anywhere; typed instructions run on
        their own class or on :data:`ANY` (universal) units.
        """
        return list(self._units_for.get(fu_class, self._universal))

    def pool(self, fu_class: str) -> str:
        """The unit pool instructions of ``fu_class`` compete for in
        resource-counting schedules (the backward schedule, modulo
        reservation tables): one shared pool on a single-unit machine and
        for :data:`ANY`, otherwise the class's own.  Its size is
        :meth:`capacity` of the pool."""
        return ANY if fu_class == ANY or len(self._units) == 1 else fu_class

    def capacity(self, fu_class: str) -> int:
        """Size of the unit pool that instructions of ``fu_class`` compete
        for in resource-counting schedules (the backward schedule, modulo
        reservation tables): every unit for :data:`ANY` or on a single-unit
        machine, otherwise the units the class may run on."""
        n = len(self._units)
        if fu_class == ANY or n == 1:
            return n
        return len(self._units_for.get(fu_class, self._universal))

    def can_execute(self, graph: DependenceGraph) -> bool:
        """True iff every node's fu class has at least one usable unit."""
        return all(self.units_for(graph.fu_class(n)) for n in graph.nodes)

    def with_window(self, window_size: int) -> "MachineModel":
        """A copy of this machine with a different lookahead window.

        Used by fault injection (window wobble, see
        :func:`repro.robust.faults.perturbed_machine`) and by sweeps that
        vary W over a fixed unit mix.
        """
        if window_size == self.window_size:
            return self
        return replace(self, window_size=window_size)


def single_unit_machine(window_size: int = 4) -> MachineModel:
    """The paper's core machine: one universal FU, window W."""
    return MachineModel(window_size=window_size, fu_counts={ANY: 1})


def in_order_machine() -> MachineModel:
    """No lookahead at all (W = 1) — the degenerate comparison point."""
    return MachineModel(window_size=1, fu_counts={ANY: 1})
