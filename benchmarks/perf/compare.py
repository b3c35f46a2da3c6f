"""Paired comparison of two sets of benchmark runs.

    python3 benchmarks/perf/compare.py A/ B/

``A/`` (the parent) and ``B/`` (the change) each hold result files written by
``run.py --out``, one per run; files pair up in sorted-name order.  Run the
pairs alternately (A then B, then B then A, ...), at least ten of them, with
identical benchmark code and settings.

For each workload and end-to-end metric of BENCHMARK.json the report gives
each side's median and quartiles, the ratio of medians (base: A's median),
how many pairs B won, and a verdict:

- ``unresolved`` — either side's spread (interquartile range / median) is
  wider than the metric's bound, and B did not read better than A in every
  run;
- ``REGRESSION`` — B's median is worse than A's by more than the bound;
- ``gain`` — B won at least 9 of 10 pairs (ties count for neither) and the
  medians differ by more than A's interquartile range (needs >= 10 pairs);
- ``within bound`` — otherwise.

Exact metrics (``code_cycles``, ``stall_cycles`` and the traced per-layer
counts) must be equal pair by pair, which needs both runs of a pair to have
measured the same inputs (same seed).  Pairs whose calibration loop rates
differ by more than 10% are flagged (calibration is never used to normalize).
Exit code 1 on any regression, exact mismatch, pair with differing inputs,
or failed output check on the B side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
GAIN_WIN_SHARE = 0.9
CALIBRATION_TOLERANCE = 0.10
EXACT_END_TO_END = ("code_cycles", "stall_cycles")


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Per workload, its results in the directory's files, in sorted-name
    order.  A file holds one workload (``--workload W --out``) or all."""
    files = sorted(directory.glob("*.json"))
    if not files:
        raise SystemExit(f"error: no result files in {directory}")
    runs: dict[str, list[dict]] = {}
    for f in files:
        for workload, result in json.loads(f.read_text())["workloads"].items():
            runs.setdefault(workload, []).append(result)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], bound: float, higher_better: bool) -> tuple[str, int]:
    """The verdict for one metric and B's pair wins."""
    sign = 1 if higher_better else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    spread = max((a3 - a1) / abs(a2), (b3 - b1) / abs(b2))
    better_by = sign * (b2 - a2)  # > 0: B's median is better
    if spread > bound:
        every = min(b) > max(a) if higher_better else max(b) < min(a)
        return ("better in every run" if every else "unresolved"), wins
    if -better_by / abs(a2) > bound:
        return "REGRESSION", wins
    if len(a) >= MIN_PAIRS and wins >= GAIN_WIN_SHARE * len(a) and better_by > a3 - a1:
        return "gain", wins
    return "within bound", wins


def fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(runs_a: dict[str, list[dict]], runs_b: dict[str, list[dict]],
            spec: dict) -> int:
    bad = 0
    print("A = parent, B = change; ratios are B median / A median")
    for w in [w for w in runs_a if w in runs_b]:
        pairs = min(len(runs_a[w]), len(runs_b[w]))
        a_res, b_res = runs_a[w][:pairs], runs_b[w][:pairs]
        print(f"\n== {w}  {pairs} pairs")
        if pairs < MIN_PAIRS:
            print(f"  note: fewer than {MIN_PAIRS} pairs: no gain can be claimed")
        for i, (ra, rb) in enumerate(zip(a_res, b_res)):
            ca, cb = ra["env"]["calibration_ops_s"], rb["env"]["calibration_ops_s"]
            if abs(cb - ca) / ca > CALIBRATION_TOLERANCE:
                print(f"  pair {i}: calibration differs by {(cb - ca) / ca:+.1%}: noisy pair")
        b_first = sum(rb["env"]["started_unix"] < ra["env"]["started_unix"]
                      for ra, rb in zip(a_res, b_res))
        print(f"  B ran first in {b_first} of {pairs} pairs")
        same_inputs = all(ra["inputs_sha256"] == rb["inputs_sha256"]
                          for ra, rb in zip(a_res, b_res))
        if not same_inputs:
            bad += 1
            print("  INPUTS DIFFER within a pair (different seeds or workload code)")
        failed_a = sum(r["failed"] for r in a_res)
        failed_b = sum(r["failed"] for r in b_res)
        print(f"  failed outputs: A {failed_a}, B {failed_b}")
        bad += failed_b > 0
        print(f"  {'metric':<24} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30}"
              f" {'B/A':>7} {'wins':>6}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["end_to_end"][name] for r in a_res]
            b = [r["end_to_end"][name] for r in b_res]
            if None in a or None in b:
                continue
            v, wins = verdict(a, b, m["bound"], m["better"] == "higher")
            bad += v == "REGRESSION"
            ratio = statistics.median(b) / statistics.median(a)
            print(f"  {name:<24} {fmt(a):>30} {fmt(b):>30} {ratio:>7.3f}"
                  f" {wins:>3}/{pairs:<2}  {v}")
        exact = [("end_to_end", n) for n in EXACT_END_TO_END] + [
            ("per_layer", n) for n in layers.EXACT_COUNTS
        ]
        for section, name in exact:
            if not same_inputs or not all(section in r for r in a_res + b_res):
                continue
            diff = [i for i, (ra, rb) in enumerate(zip(a_res, b_res))
                    if ra[section][name] != rb[section][name]]
            if diff:
                bad += 1
                print(f"  {name:<24} exact: DIFFERENT in pairs {diff}")
            else:
                print(f"  {name:<24} exact: equal in all {pairs} pairs")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="Paired comparison of benchmark runs.")
    p.add_argument("a", type=Path, help="directory of the parent's result files")
    p.add_argument("b", type=Path, help="directory of the change's result files")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load_runs(args.a), load_runs(args.b), spec)


if __name__ == "__main__":
    sys.exit(main())
