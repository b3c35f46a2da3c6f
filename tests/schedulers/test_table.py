"""The scheduler table is the one list of schedulers: the CLI, the wire
protocol, the fuzz zoo and the worker's dispatch all take its names."""

import argparse

import pytest

from repro.cli import build_parser
from repro.machine.presets import PAPER_CORE
from repro.robust.fuzz import run_fuzz
from repro.schedulers import SCHEDULERS
from repro.serve.protocol import SCHEDULER_NAMES
from repro.serve.worker import compute_block_orders
from repro.workloads.traces import random_trace


def cli_scheduler_choices() -> list[str]:
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    action = next(
        a for a in sub.choices["schedule"]._actions if a.dest == "scheduler"
    )
    return list(action.choices)


def test_cli_protocol_fuzz_and_worker_share_one_set():
    names = list(SCHEDULERS)
    assert names == ["anticipatory", "local", "critical-path", "source"]
    assert cli_scheduler_choices() == names
    assert list(SCHEDULER_NAMES) == names
    report = run_fuzz(seeds=1, plans=[], include_guarded=False)
    assert [c.scheduler for c in report.cells] == names
    trace = random_trace(2, (3, 5), cross_probability=0.2, seed=3)
    for name, fn in SCHEDULERS.items():
        assert compute_block_orders(trace, PAPER_CORE, name) == fn(
            trace, PAPER_CORE
        )
    with pytest.raises(ValueError, match="unknown scheduler"):
        compute_block_orders(trace, PAPER_CORE, "local_rank")
