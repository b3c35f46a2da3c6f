"""Hardware lookahead simulation substrate."""

from ..obs.events import SimEvent, SimTrace
from .branch import BranchModel, PredictionStudy, run_with_prediction
from .cfg_runner import CFGEvaluation, PathResult, enumerate_paths, evaluate_cfg
from .loop_runner import (
    in_order_offsets,
    iteration_completions,
    loop_stream,
    periodic_initiation_interval,
    simulate_loop_order,
    simulate_loop_trace_orders,
    simulated_initiation_interval,
)
from .window import SimResult, SimulationDeadlock, simulate_trace, simulate_window

__all__ = [
    "BranchModel",
    "CFGEvaluation",
    "PathResult",
    "PredictionStudy",
    "SimEvent",
    "SimResult",
    "SimTrace",
    "SimulationDeadlock",
    "enumerate_paths",
    "evaluate_cfg",
    "in_order_offsets",
    "iteration_completions",
    "loop_stream",
    "periodic_initiation_interval",
    "run_with_prediction",
    "simulate_loop_order",
    "simulate_loop_trace_orders",
    "simulate_trace",
    "simulate_window",
    "simulated_initiation_interval",
]
