"""Self-test of the benchmark harness.

    pytest benchmarks/perf -q

Runs every workload three times with ``--quick`` (about 2 s of timed work
each): once untraced with seed 1, twice traced with seed 0.  The tier-1
suite does not collect this file (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``(workload, seed, trace, k)`` -> (result line, full --out result)."""
    cache: dict = {}
    tmp = tmp_path_factory.mktemp("perf")

    def run(workload: str, seed: int, trace: int, k: int = 0):
        key = (workload, seed, trace, k)
        if key not in cache:
            out = tmp / ("-".join(map(str, key)) + ".json")
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--trace", str(trace), "--quick",
                 "--out", str(out)],
                capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
            line = json.loads(proc.stdout.splitlines()[-1])
            cache[key] = line, json.loads(out.read_text())["workloads"][workload]
        return cache[key]

    return run


def units(table: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in table}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted_and_correct(runs, workload):
    line, result = runs(workload, 1, 0)
    assert {n: m["unit"] for n, m in line["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert result["end_to_end"]["error_rate"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_emitted(runs, workload):
    line, result = runs(workload, 0, 1)
    assert {n: m["unit"] for n, m in line["metrics"].items()} == units(SPEC["per_layer"])
    assert line["correct"] and result["end_to_end"]["error_rate"] == 0
    assert result["per_layer"]["robust.guard.fallbacks"] == 0
    assert result["per_layer"]["serve.admission.shed"] == 0
    expected_calls = 3 if workload in workloads.SERVE_WORKLOADS else 1
    assert result["per_layer"]["sim.window.calls"] == expected_calls


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat(runs, workload):
    _, first = runs(workload, 0, 1)
    _, second = runs(workload, 0, 1, k=1)
    assert first["inputs_sha256"] == second["inputs_sha256"]
    for name in layers.EXACT_COUNTS:
        assert first["per_layer"][name] == second["per_layer"][name], name
    for name in ("code_cycles", "stall_cycles", "code_cycles_vs_bound"):
        assert first["end_to_end"][name] == second["end_to_end"][name], name
    for name in ("code_cycles", "stall_cycles"):
        assert first["per_layer"][name] == first["end_to_end"][name], name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_corpus(runs, workload):
    assert runs(workload, 0, 1)[1]["inputs_sha256"] != runs(workload, 1, 0)[1]["inputs_sha256"]
