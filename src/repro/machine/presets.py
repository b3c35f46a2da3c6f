"""Canonical machine configurations used across examples and benchmarks."""

from __future__ import annotations

from ..ir.instruction import ANY, BRANCH, FIXED, FLOAT, MEMORY
from .model import MachineModel

#: The paper's core analytical model: single FU, small window (§2.3 notes
#: W < 10 in practice; we default to 4).
PAPER_CORE = MachineModel(window_size=4, fu_counts={ANY: 1})

#: Single FU without lookahead — the baseline that shows what the window buys.
NO_LOOKAHEAD = MachineModel(window_size=1, fu_counts={ANY: 1})

#: An RS/6000-flavoured superscalar: separate fixed-point, floating-point,
#: memory and branch units (Warren [12] targets this machine class).
RS6000_LIKE = MachineModel(
    window_size=6,
    fu_counts={FIXED: 1, FLOAT: 1, MEMORY: 1, BRANCH: 1},
    issue_width=4,
)

#: A wide machine approximating the "assigned processor" / VLIW model (§6).
WIDE_VLIW = MachineModel(
    window_size=8,
    fu_counts={FIXED: 2, FLOAT: 2, MEMORY: 2, BRANCH: 1},
    issue_width=4,
)


def paper_machine(window_size: int) -> MachineModel:
    """The paper's single-FU model with an explicit window size."""
    return MachineModel(window_size=window_size, fu_counts={ANY: 1})
