"""Per-layer measurement from outside the program.

Two sources, neither of which changes code under ``src/``:

- the spans and counters the program already emits (``lookahead``,
  ``merge``, ``rank``, ``rank.incremental``, ``delay_idle_slots``, ``chop``,
  ``sim.trace``; ``rank.engine.*``, ``merge.relaxations``, ``idle.*``,
  ``chop.committed``, ``guard.fallback``), recorded by a
  ``TraceRecorder`` (library) or spooled by the daemon (``--spool-dir``);
- benchmark-owned wrappers around three public entry points, installed only
  for the traced pass: each adds an ``obs.span`` and ``obs.count`` at the
  layer boundary.

A layer's self time is its spans' duration minus the time their child spans
cover, so nested layers (``rank`` inside ``merge``) are not counted twice.
"""

from __future__ import annotations

import functools

#: Program span names -> layer.
LAYER_SPANS = {
    "rank": "core.rank",
    "rank.incremental": "core.rank",
    "merge": "core.merge",
    "delay_idle_slots": "core.idle",
    "chop": "core.chop",
    "bench.sim.window": "sim.window",
}


def install_wrappers() -> None:
    """Wrap ``simulate_window``, ``verify_scheduler_output`` and
    ``canonical_form`` where their callers look them up.  Forked pool
    workers inherit the wrappers."""
    from repro.obs import recorder as obs
    from repro.robust import guard
    from repro.serve import service
    from repro.sim import window

    def wrap(module, name: str, span: str, cycles: bool = False) -> None:
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cycles and kwargs.get("collect_trace") is None:
                # Cycle-level events are the largest telemetry stream and
                # would inflate the simulator's own time several-fold; the
                # library pass records with sim_events=False for the same
                # reason.
                kwargs["collect_trace"] = False
            with obs.span(span):
                result = fn(*args, **kwargs)
            obs.count(f"{span}.calls")
            if cycles:
                obs.count(f"{span}.cycles", result.makespan)
            return result

        setattr(module, name, wrapper)

    wrap(window, "simulate_window", "bench.sim.window", cycles=True)
    wrap(guard, "verify_scheduler_output", "bench.guard.verify")
    wrap(service, "canonical_form", "bench.serve.canonical")


def self_times_ns(spans) -> dict[str, int]:
    """Per span name, total self time in ns.  Spans of each process are
    nested by time: a span's parent is the innermost earlier span of the same
    pid still open at its start."""
    totals: dict[str, int] = {}
    by_pid: dict[object, list] = {}
    for s in spans:
        by_pid.setdefault(s.pid, []).append(s)
    for group in by_pid.values():
        group.sort(key=lambda s: (s.start_ns, -s.duration_ns))
        stack: list[list] = []  # [end_ns, name, child_ns, duration_ns]
        for s in group:
            while stack and stack[-1][0] <= s.start_ns:
                _close(stack.pop(), totals)
            if stack:
                stack[-1][2] += s.duration_ns
            stack.append([s.start_ns + s.duration_ns, s.name, 0, s.duration_ns])
        while stack:
            _close(stack.pop(), totals)
    return totals


def _close(frame: list, totals: dict[str, int]) -> None:
    _, name, child_ns, duration_ns = frame
    totals[name] = totals.get(name, 0) + max(duration_ns - child_ns, 0)


def span_totals_ns(spans) -> dict[str, int]:
    totals: dict[str, int] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0) + s.duration_ns
    return totals


def core_layers(spans, counters: dict[str, int], requests: int, computed: int) -> dict:
    """Per-layer metrics of one traced pass.

    ``requests`` normalizes per request; ``computed`` counts the requests
    that ran the scheduler (library traces, served cache misses), the base
    of ``sim.window.calls``.
    """
    self_ns = self_times_ns(spans)
    layer_ms: dict[str, float] = {}
    for name, ns in self_ns.items():
        layer = LAYER_SPANS.get(name)
        if layer is not None:
            layer_ms[layer] = layer_ms.get(layer, 0.0) + ns / 1e6
    merged_old = sum(s.attrs.get("old", 0) for s in spans if s.name == "merge")
    merged_new = sum(s.attrs.get("new", 0) for s in spans if s.name == "merge")
    trials = counters.get("idle.trials", 0)
    moved = counters.get("idle.slots_moved", 0)
    totals = span_totals_ns(spans)
    per_req = 1 / max(requests, 1)
    return {
        "core.rank.self_ms": layer_ms.get("core.rank", 0.0) * per_req,
        "core.rank.reranked": counters.get("rank.engine.reranked", 0) * per_req,
        "core.rank.reused": counters.get("rank.engine.reused", 0) * per_req,
        "core.merge.self_ms": layer_ms.get("core.merge", 0.0) * per_req,
        "core.merge.relaxations": counters.get("merge.relaxations", 0) * per_req,
        "core.merge.suffix_nodes": merged_old * per_req,
        "core.idle.self_ms": layer_ms.get("core.idle", 0.0) * per_req,
        "core.idle.trials": trials * per_req,
        "core.idle.slots_moved": moved * per_req,
        "core.idle.useful_ratio": moved / trials if trials else 0.0,
        "core.chop.self_ms": layer_ms.get("core.chop", 0.0) * per_req,
        "core.chop.committed_ratio": (
            counters.get("chop.committed", 0) / merged_new if merged_new else 0.0
        ),
        "sim.window.self_ms": layer_ms.get("sim.window", 0.0) * per_req,
        "sim.window.calls": counters.get("bench.sim.window.calls", 0) / max(computed, 1),
        "sim.window.cycles": counters.get("bench.sim.window.cycles", 0) * per_req,
        "robust.guard.verify_ms": totals.get("bench.guard.verify", 0) / 1e6 / max(computed, 1),
        "robust.guard.fallbacks": counters.get("guard.fallback", 0),
        "serve.canonical.calls": counters.get("bench.serve.canonical.calls", 0) * per_req,
    }


#: Per-layer counts of a traced pass that must repeat exactly for a seed
#: (compared by equality in compare.py and test_harness.py; the traced
#: pass's code_cycles and stall_cycles equal the end-to-end ones, which are
#: compared there).
EXACT_COUNTS = (
    "core.rank.reranked",
    "core.rank.reused",
    "core.merge.relaxations",
    "core.merge.suffix_nodes",
    "core.idle.trials",
    "core.idle.slots_moved",
    "sim.window.calls",
    "sim.window.cycles",
    "robust.guard.fallbacks",
    "serve.cache.hit_ratio",
)
