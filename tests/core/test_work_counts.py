"""Deterministic work counts of the anticipatory pipeline, pinned exactly.

The counters say how much work ``algorithm_lookahead`` does — idle-slot
trials, nodes re-ranked, merge relaxations, committed chops — independent of
how fast the machine runs it.  A change that only makes the pipeline's
bookkeeping cheaper leaves every one of them, and every emitted block order,
exactly as pinned here; a change that alters them on purpose must update the
pins and say why.
"""

import hashlib
import json

import pytest

from repro.core import algorithm_lookahead
from repro.ir import FIXED, FLOAT, MEMORY
from repro.machine import PAPER_CORE, WIDE_VLIW
from repro.obs import TraceRecorder, recording
from repro.workloads.traces import random_trace

SEEDS = range(12)

#: Two corpus shapes: typed units with long latencies (many idle slots, so
#: idle-slot delaying dominates), and the paper's single-unit core (merge
#: and incremental re-ranking dominate).
SHAPES = {
    "wide_vliw": (
        WIDE_VLIW,
        dict(
            num_blocks=3,
            block_size=(6, 12),
            edge_probability=0.25,
            cross_probability=0.1,
            latencies=(0, 2, 4),
            fu_classes=(FIXED, FLOAT, MEMORY),
        ),
    ),
    "paper_core": (
        PAPER_CORE,
        dict(
            num_blocks=6,
            block_size=10,
            edge_probability=0.2,
            cross_probability=0.05,
            latencies=(0, 1, 2),
        ),
    ),
}

COUNTERS = (
    "idle.trials",
    "idle.slots_moved",
    "rank.engine.full",
    "rank.engine.carried",
    "rank.engine.updates",
    "rank.engine.reranked",
    "rank.engine.reused",
    "merge.relaxations",
    "chop.committed",
)

#: Recorded at the commit before the event-driven list scheduler, except
#: the three ``rank.engine`` update counts: Delay_Idle_Slots no longer makes
#: updates that change no deadline (each added the graph's size to
#: ``reused``), nor the updates that rolled a failed slot's trials back (the
#: engine restores a snapshot instead), nor, on ``wide_vliw``, the update of
#: a trial whose tail cannot complete by tᵢ − 1 in any list schedule (its
#: dependence-only earliest completion decides it as infeasible).
PINNED = {
    "wide_vliw": {
        "idle.trials": 422,
        "idle.slots_moved": 3,
        "rank.engine.full": 24,
        "rank.engine.carried": 48,
        "rank.engine.updates": 368,
        "rank.engine.reranked": 1790,
        "rank.engine.reused": 5181,
        "merge.relaxations": 0,
        "chop.committed": 219,
        "block_orders_sha256": "b7936e573b06f586",
    },
    "paper_core": {
        "idle.trials": 18,
        "idle.slots_moved": 0,
        "rank.engine.full": 24,
        "rank.engine.carried": 120,
        "rank.engine.updates": 168,
        "rank.engine.reranked": 3423,
        "rank.engine.reused": 5161,
        "merge.relaxations": 17,
        "chop.committed": 70,
        "block_orders_sha256": "3c082ac77c8477da",
    },
}


def work_counts(shape: str) -> dict:
    machine, kwargs = SHAPES[shape]
    orders = []
    with recording(TraceRecorder(sim_events=False)) as rec:
        for seed in SEEDS:
            trace = random_trace(seed=seed, **kwargs)
            orders.append(algorithm_lookahead(trace, machine).block_orders)
    out = {name: rec.counters.get(name, 0) for name in COUNTERS}
    blob = json.dumps(orders, separators=(",", ":")).encode()
    out["block_orders_sha256"] = hashlib.sha256(blob).hexdigest()[:16]
    return out


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_work_counts_are_pinned(shape):
    assert work_counts(shape) == PINNED[shape]
