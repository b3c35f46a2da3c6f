"""Library workloads, run by ``run.py`` in a fresh child interpreter.

The library path per trace: decode the program into the IR
(``trace_from_dict``), ``algorithm_lookahead``, then ``simulate_trace`` on the
emitted block orders.  Three modes, each printing one JSON line:

- ``--setup``: schedule one small trace and report ready (the parent times
  interpreter start to this line);
- default: two untimed warm-up traces, then the timed phase — ``ROUNDS``
  rounds over one corpus: the seeded sequence in order until a
  ``ROUNDS``-th of ``--seconds`` of library time has passed and at least
  ``--prefix`` traces are done — then the output checks;
- ``--traced``: the first ``--prefix`` traces under a ``TraceRecorder`` with
  the layer wrappers installed.

Inputs are generated between traces, outside the timed calls.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import check
import layers
import workloads

#: Timings of each trace in the timed phase, of which the fastest counts.
#: The reference machine's speed jumps between two levels about 1.6x apart
#: every few seconds (one trace, timed again and again, reads 115 or 190 ms);
#: rounds some seconds apart let a trace's best timing read the fast level
#: unless the slow one lasts the whole run.  A slower program is slower in
#: every round, so its best timing still shows it.
ROUNDS = 4


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of process ``pid`` since its exec.
    Not ``getrusage``: Linux starts a child's ``ru_maxrss`` at the peak of
    the process that spawned it, so it would report the harness instead."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def run_one(doc: dict) -> dict:
    from repro.core import algorithm_lookahead
    from repro.serve.protocol import machine_from_dict, trace_from_dict
    from repro.sim import simulate_trace

    trace = trace_from_dict(doc["program"])
    machine = machine_from_dict(doc["machine"])
    result = algorithm_lookahead(trace, machine)
    sim = simulate_trace(trace, result.block_orders, machine)
    return {
        "block_orders": result.block_orders,
        "makespan": sim.makespan,
        "stall_cycles": sim.stall_cycles,
    }


def timed(workload: str, seed: int, seconds: float, prefix: int) -> dict:
    for doc in workloads.sequence(workload, seed, 2, stream="warmup"):
        run_one(doc)
    # Round 1 walks the sequence for a ROUNDS-th of the phase (and at least
    # the prefix); the other rounds time the same traces again.
    docs: list[dict] = []
    answers: list[dict] = []
    best: list[float] = []
    busy = 0.0
    for i, doc in enumerate(workloads.iter_sequence(workload, seed)):
        if busy >= seconds / ROUNDS and i >= prefix:
            break
        t0 = time.perf_counter()
        answers.append(run_one(doc))
        best.append(time.perf_counter() - t0)
        busy += best[-1]
        docs.append(doc)
    failures: list[str] = []
    for _ in range(ROUNDS - 1):
        for i, doc in enumerate(docs):
            t0 = time.perf_counter()
            answer = run_one(doc)
            best[i] = min(best[i], time.perf_counter() - t0)
            if answer != answers[i]:
                failures.append(f"{doc['id']}: answer differs between rounds")
    for doc, answer in zip(docs, answers):
        errors = check.check_answer(doc["program"], doc["machine"], answer)
        failures.extend(f"{doc['id']}: {e}" for e in errors[:1])
    return {
        "latencies_s": best,
        "rounds": ROUNDS,
        "failures": failures,
        "code_cycles": sum(a["makespan"] for a in answers[:prefix]),
        "stall_cycles": sum(a["stall_cycles"] for a in answers[:prefix]),
        "bound_cycles": sum(
            check.lower_bound(d["program"], d["machine"]) for d in docs[:prefix]
        ),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(workload: str, seed: int, prefix: int) -> dict:
    from repro.obs import TraceRecorder, recording

    for doc in workloads.sequence(workload, seed, 2, stream="warmup"):
        run_one(doc)
    docs = workloads.sequence(workload, seed, prefix)
    # An untraced pass right before the traced one, for the tracing overhead.
    t0 = time.perf_counter()
    for doc in docs:
        run_one(doc)
    untraced_s = time.perf_counter() - t0
    layers.install_wrappers()
    answers = []
    with recording(TraceRecorder(sim_events=False)) as rec:
        t0 = time.perf_counter()
        for doc in docs:
            answers.append(run_one(doc))
        traced_s = time.perf_counter() - t0
    out = layers.core_layers(rec.spans, rec.counters, prefix, prefix)
    out["code_cycles"] = sum(a["makespan"] for a in answers)
    out["stall_cycles"] = sum(a["stall_cycles"] for a in answers)
    return {
        "layers": out,
        "untraced_rps": prefix / untraced_s,
        "traced_rps": prefix / traced_s,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.LIB_WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--prefix", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--setup", action="store_true")
    mode.add_argument("--traced", action="store_true")
    args = p.parse_args()
    if args.setup:
        run_one(workloads.setup_request(args.seed))
        out: dict = {"ready": True}
    elif args.traced:
        out = traced(args.workload, args.seed, args.prefix)
    else:
        out = timed(args.workload, args.seed, args.seconds, args.prefix)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
