"""Seeded inputs for the four benchmark workloads.

Inputs are generated here, by the benchmark, as protocol-v1 wire documents
(``docs/FORMAT.md`` / ``repro.serve.protocol``), with :class:`random.Random`
seeded from a string.  Nothing here imports ``repro``: a later change to the
program's own generators (``repro.workloads``) cannot change what the
benchmark measures, and the same ``--seed`` gives the same inputs on every
commit.  The library workloads decode the same documents with the public
``trace_from_dict``.

Why each workload exists (see README.md for the predictions):

- ``lib-dense`` — E10's edge densities and latencies on the paper's
  single-unit W=4 machine, in 8 blocks of 12 instructions.
  Few idle slots, so chop commits little and merge re-ranks a growing
  suffix: stresses ``merge`` and ``rank.incremental``; bypasses idle-slot
  delaying.
- ``lib-vliw`` — long latencies over typed units on ``WIDE_VLIW``.  Many idle
  slots: stresses ``delay_idle_slots``; chop commits most instructions, so
  merge stays small.
- ``serve-cold`` — every request a distinct small trace: 100% cache misses,
  so every request pays canonicalization, pool dispatch (a fork per batch),
  guarded scheduling + verification and simulation.
- ``serve-mixed`` — a 64-kernel hot set with power-law popularity, 30% of
  hot requests relabeled isomorphs, 10% fresh traces: reads and writes share
  the cache layer (hits, inserts, JSONL appends, LRU evictions).

The serve traffic is assumed, not measured: no recorded request trace and no
published source backs the client count (``run.SERVE_CLIENTS``) or the
serve-mixed mix below.  A claim about the cache or the daemon that rests on
serve-mixed holds for this mix only, until a recorded trace is committed and
the mix is derived from it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Iterator

ANY, FIXED, FLOAT, MEMORY, BRANCH = "any", "fixed", "float", "memory", "branch"

# The machines of repro.machine.presets, as wire documents.
PAPER_CORE = {"window_size": 4, "fu_counts": {ANY: 1}, "issue_width": None}
PAPER_W2 = {"window_size": 2, "fu_counts": {ANY: 1}, "issue_width": None}
WIDE_VLIW = {
    "window_size": 8,
    "fu_counts": {FIXED: 2, FLOAT: 2, MEMORY: 2, BRANCH: 1},
    "issue_width": 4,
}
TYPED_UNITS = (FIXED, FLOAT, MEMORY)

LIB_WORKLOADS = ("lib-dense", "lib-vliw")
SERVE_WORKLOADS = ("serve-cold", "serve-mixed")
WORKLOADS = LIB_WORKLOADS + SERVE_WORKLOADS

#: serve-mixed traffic mix: unverified assumptions (see the module docstring).
HOT_KERNELS = 64
HOT_ZIPF_S = 1.2
FRESH_SHARE = 0.10
ISOMORPH_SHARE = 0.30

#: Requests (lib: traces) in the fixed-count passes: the traced pass, and
#: the prefix over which ``code_cycles``/``stall_cycles`` are summed.  The
#: serve-mixed pass stays below the cache's capacity (64 hot + ~100 fresh
#: < 256 entries), so no eviction can make its miss count depend on how
#: the two clients interleave.
EXACT_PREFIX = {"lib-dense": 150, "lib-vliw": 80, "serve-cold": 200, "serve-mixed": 1000}
QUICK_EXACT_PREFIX = {"lib-dense": 10, "lib-vliw": 6, "serve-cold": 40, "serve-mixed": 200}

#: Upper bound on the request rate a timed serve phase can reach: the phase
#: pre-generates ``seconds * RATE_CAP`` requests and ends early if it runs
#: out (about 3x today's rate, see README.md).  The library phases generate
#: their inputs lazily, between timed calls.
RATE_CAP = {"serve-cold": 120, "serve-mixed": 600}


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # A str seed is hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{stream}")


def random_program(
    rng: random.Random,
    num_blocks: int,
    block_size: int | tuple[int, int],
    edge_p: float,
    cross_p: float,
    latencies: tuple[int, ...],
    fu_classes: tuple[str, ...] = (ANY,),
) -> dict:
    """A random trace as a wire ``program``: Erdős–Rényi DAG blocks in
    program order, plus cross edges between adjacent blocks."""
    blocks, members = [], []
    for b in range(num_blocks):
        n = block_size if isinstance(block_size, int) else rng.randint(*block_size)
        names = [f"b{b}_{i}" for i in range(n)]
        nodes = [[name, 1, rng.choice(fu_classes)] for name in names]
        edges = [
            [names[i], names[j], rng.choice(latencies)]
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < edge_p
        ]
        blocks.append({"name": f"BB{b + 1}", "nodes": nodes, "edges": edges})
        members.append(names)
    cross = [
        [u, v, rng.choice(latencies)]
        for b in range(num_blocks - 1)
        for u in members[b]
        for v in members[b + 1]
        if rng.random() < cross_p
    ]
    return {"blocks": blocks, "cross_edges": cross}


def relabeled(program: dict, tag: str) -> dict:
    """An order-preserving isomorph of ``program``: every node and block
    renamed, program order kept — the cache must answer it by canonical
    translation, bit-identically to a direct computation."""
    names: dict[str, str] = {}
    blocks = []
    for j, block in enumerate(program["blocks"]):
        for node in block["nodes"]:
            names[node[0]] = f"{tag}_{len(names)}"
        blocks.append(
            {
                "name": f"{tag.upper()}B{j}",
                "nodes": [[names[n], e, fu] for n, e, fu in block["nodes"]],
                "edges": [[names[u], names[v], lat] for u, v, lat in block["edges"]],
            }
        )
    cross = [[names[u], names[v], lat] for u, v, lat in program["cross_edges"]]
    return {"blocks": blocks, "cross_edges": cross}


def request(program: dict, machine: dict, scheduler: str, rid: str) -> dict:
    return {
        "v": 1,
        "id": rid,
        "program": program,
        "machine": machine,
        "scheduler": scheduler,
    }


def _library_request(workload: str, rng: random.Random, rid: str) -> dict:
    # Small traces (15-40 ms each), so that a phase times a hundred or more
    # of them and the seed moves the metrics little.  Larger traces have a
    # heavy tail (some E10-shaped 8x40 traces take 20 times the median), and
    # a phase of under 100 of them read throughput and p50 up to 25% apart
    # between seeds.  The smaller shapes keep what each workload is for: on
    # lib-dense merge and rank take about 90% of the time and chop commits
    # about 12%; on lib-vliw delay_idle_slots takes about 65%.
    if workload == "lib-dense":
        program = random_program(rng, 8, 12, 0.2, 0.05, (0, 1, 2))
        return request(program, PAPER_CORE, "anticipatory", rid)
    program = random_program(rng, 3, (6, 12), 0.2, 0.05, (0, 2, 4), TYPED_UNITS)
    return request(program, WIDE_VLIW, "anticipatory", rid)


def _small_request(rng: random.Random, i: int, rid: str) -> dict:
    """A serve request: 2-5 blocks of 4-12 instructions; machines cycle
    PAPER_CORE / W=2 / WIDE_VLIW; anticipatory and local at 3:1."""
    machine = (PAPER_CORE, PAPER_W2, WIDE_VLIW)[i % 3]
    fu = TYPED_UNITS if machine is WIDE_VLIW else (ANY,)
    program = random_program(
        rng, rng.randint(2, 5), (4, 12), 0.25, 0.1, (0, 1, 2), fu
    )
    scheduler = "local" if i % 4 == 3 else "anticipatory"
    return request(program, machine, scheduler, rid)


def iter_sequence(workload: str, seed: int, stream: str = "main") -> Iterator[dict]:
    """``workload``'s endless seeded request sequence.  ``stream`` selects
    an independent sequence (``"warmup"`` for warm-up inputs)."""
    rng = _rng(workload, seed, stream)
    if workload == "serve-mixed":
        yield from _mixed(seed, rng, stream)
        return
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    for i in itertools.count():
        rid = f"{stream}-{i}"
        if workload in LIB_WORKLOADS:
            yield _library_request(workload, rng, rid)
        else:
            yield _small_request(rng, i, rid)


def sequence(workload: str, seed: int, count: int, stream: str = "main") -> list[dict]:
    """The first ``count`` requests of :func:`iter_sequence`."""
    return list(itertools.islice(iter_sequence(workload, seed, stream), count))


def setup_request(seed: int) -> dict:
    """The first schedule of a library set-up: a small trace, so that
    set-up time is interpreter start, imports and lazy initialization,
    whatever the seed."""
    return _small_request(_rng("setup", seed, "setup"), 0, "setup-0")


def hot_set(seed: int) -> list[dict]:
    """serve-mixed's hot kernels (also its warm-up)."""
    rng = _rng("serve-mixed", seed, "hot")
    return [_small_request(rng, k, f"hot-{k}") for k in range(HOT_KERNELS)]


def _mixed(seed: int, rng: random.Random, stream: str) -> Iterator[dict]:
    hot = hot_set(seed)
    weights = [(k + 1) ** -HOT_ZIPF_S for k in range(HOT_KERNELS)]
    fresh_rng = _rng("serve-mixed", seed, f"{stream}-fresh")
    fresh = 0
    for i in itertools.count():
        rid = f"{stream}-{i}"
        if rng.random() < FRESH_SHARE:
            yield _small_request(fresh_rng, fresh, rid)
            fresh += 1
            continue
        kernel = hot[rng.choices(range(HOT_KERNELS), weights)[0]]
        program = kernel["program"]
        if rng.random() < ISOMORPH_SHARE:
            program = relabeled(program, f"r{i}")
        yield request(program, kernel["machine"], kernel["scheduler"], rid)


def digest(docs: list[dict]) -> str:
    """sha256 of a request list — recorded with every result so two runs
    can be checked to have measured the same inputs."""
    blob = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
