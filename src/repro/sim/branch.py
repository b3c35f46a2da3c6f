"""Branch-prediction model for trace execution.

Anticipatory scheduling "works well in conjunction with hardware branch
prediction which enables the lookahead window to be filled with instructions
from the basic block that is predicted to be executed next" (paper §1).  When
the prediction is wrong, the eagerly executed next-block instructions are
rolled back and the window refills — which we model as an overlap barrier
plus a flush penalty at the mispredicted block's entry
(:func:`repro.sim.window.simulate_trace`).

This module samples misprediction patterns and reports the distribution of
trace completion times, so experiments can show how the benefit of
anticipatory scheduling scales with prediction accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..ir.basicblock import Trace
from ..machine.model import MachineModel, single_unit_machine
from .window import SimResult, simulate_trace

if TYPE_CHECKING:
    from numpy.random import Generator


@dataclass(frozen=True)
class BranchModel:
    """Per-boundary prediction accuracy and the flush penalty in cycles."""

    accuracy: float = 0.9
    penalty: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        if self.penalty < 0:
            raise ValueError("penalty must be >= 0")


@dataclass
class PredictionStudy:
    """Monte-Carlo completion-time statistics under a branch model."""

    mean_makespan: float
    best_makespan: int  # all boundaries predicted correctly
    worst_makespan: int  # every boundary mispredicted
    samples: list[int]


def run_with_prediction(
    trace: Trace,
    block_orders: Sequence[Sequence[str]],
    model: BranchModel,
    machine: MachineModel | None = None,
    trials: int = 32,
    seed: int | Generator | None = 0,
) -> PredictionStudy:
    """Sample misprediction patterns (iid per block boundary) and simulate."""
    import numpy as np

    machine = machine or single_unit_machine()
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    best = simulate_trace(trace, block_orders, machine).makespan
    worst = simulate_trace(
        trace,
        block_orders,
        machine,
        mispredicted_blocks=range(1, trace.num_blocks),
        misprediction_penalty=model.penalty,
    ).makespan
    samples: list[int] = []
    for _ in range(trials):
        missed = [
            b
            for b in range(1, trace.num_blocks)
            if rng.random() >= model.accuracy
        ]
        sim = simulate_trace(
            trace,
            block_orders,
            machine,
            mispredicted_blocks=missed,
            misprediction_penalty=model.penalty,
        )
        samples.append(sim.makespan)
    return PredictionStudy(
        mean_makespan=float(np.mean(samples)),
        best_makespan=best,
        worst_makespan=worst,
        samples=samples,
    )
