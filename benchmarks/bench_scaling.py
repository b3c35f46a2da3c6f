"""E10 — complexity study: polynomial-time claim of §7.

Measures scheduler wall-clock versus trace size and verifies the structural
complexity bounds the paper states: merge's deadline-relaxation loop stays
small (paper: ≤ 2W iterations), and the whole pipeline scales to hundreds of
instructions in well under a second.

Each size runs under a span recorder so the emitted metrics carry a
per-phase wall-time split per size; ``rank_delay_wall_s`` (full rank sweeps +
incremental rank updates + idle-slot delaying) is the figure the incremental
rank engine is measured by (see docs/PERFORMANCE.md).  Each size also
reports the rank work it does (``counters``: engines built from scratch and
carried, incremental updates, nodes re-ranked and reused, merge
relaxations), which the regression gate compares exactly with the baseline.
Set ``REPRO_BENCH_SMOKE=1`` to restrict the sweep to the smallest size (CI
smoke).
"""

import os
import time

from common import emit_metrics, emit_table, run_sweep

from repro.core import algorithm_lookahead
from repro.machine import paper_machine
from repro.obs import TraceRecorder, recording
from repro.workloads import random_trace

SIZES = ((2, 10), (4, 10), (8, 10), (4, 20), (4, 40), (8, 40))
WINDOW = 4
#: Work counters reported per size and compared exactly by the gate.
COUNTERS = (
    "rank.engine.full",
    "rank.engine.carried",
    "rank.engine.updates",
    "rank.engine.reranked",
    "rank.engine.reused",
    "merge.relaxations",
)


def make_trace(blocks: int, block_size: int, seed: int = 0):
    return random_trace(
        blocks,
        block_size,
        edge_probability=0.2,
        cross_probability=0.05,
        latencies=(0, 1, 2),
        seed=seed,
    )


def run_size(blocks: int, size: int) -> dict:
    m = paper_machine(WINDOW)
    t = make_trace(blocks, size)
    with recording(TraceRecorder(sim_events=False)) as rec:
        start = time.perf_counter()
        res = algorithm_lookahead(t, m)
        elapsed = time.perf_counter() - start
    phases = rec.phase_walltimes()
    rank_delay = (
        phases.get("rank", 0.0)
        + phases.get("rank.incremental", 0.0)
        + phases.get("delay_idle_slots", 0.0)
    )
    return {
        "blocks": blocks,
        "instrs_per_block": size,
        "total_instrs": blocks * size,
        "wall_s": elapsed,
        "predicted_makespan": res.predicted_makespan,
        "max_merge_relaxations": max(s.merge.relaxations for s in res.steps),
        "phase_wall_s": phases,
        "rank_delay_wall_s": rank_delay,
        "counters": {name: rec.counters.get(name, 0) for name in COUNTERS},
    }


def test_scaling(benchmark):
    m = paper_machine(WINDOW)
    sizes = SIZES[:1] if os.environ.get("REPRO_BENCH_SMOKE") else SIZES
    runs = run_sweep(run_size, list(sizes))

    rows = []
    for run in runs:
        rows.append(
            [
                run["blocks"],
                run["instrs_per_block"],
                run["total_instrs"],
                f"{run['wall_s'] * 1e3:.1f} ms",
                f"{run['rank_delay_wall_s'] * 1e3:.1f} ms",
                run["max_merge_relaxations"],
            ]
        )
        # Paper's bound: the relaxation loop is tiny (<= 2W in the optimal
        # regime; we allow the latency slack of the heuristic regime).
        assert run["max_merge_relaxations"] <= 2 * m.window_size + 4, run
        assert run["wall_s"] < 10.0

    emit_table(
        "E10_scaling",
        ["blocks", "instrs/block", "total instrs", "wall clock",
         "rank+delay", "max merge relaxations"],
        rows,
        title="E10: Algorithm Lookahead scaling (W=4, single run per size)",
    )

    largest = runs[-1]
    emit_metrics(
        "E10_scaling",
        {
            "window_size": m.window_size,
            "runs": runs,
            # Back-compat top-level split (largest size of the sweep).
            "phase_wall_s": largest["phase_wall_s"],
            "rank_delay_wall_s": largest["rank_delay_wall_s"],
        },
        phases=largest["phase_wall_s"],
        machine=m,
        smoke=bool(os.environ.get("REPRO_BENCH_SMOKE")),
    )

    t = make_trace(*sizes[0]) if os.environ.get("REPRO_BENCH_SMOKE") else make_trace(4, 20)
    benchmark(lambda: algorithm_lookahead(t, m))
