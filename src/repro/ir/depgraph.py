"""Latency-labelled dependence DAGs.

A :class:`DependenceGraph` is the input to every scheduler in this library.
Nodes are instruction names (strings); each directed edge ``(u, v)`` carries an
integer *latency*: ``v`` may start no earlier than ``completion(u) + latency``.
With unit execution times and 0/1 latencies this is exactly the model of the
paper's core results; nodes may optionally carry execution times > 1 and
functional-unit classes for the §4.2 heuristic generalizations.

The class is deliberately self-contained (no networkx dependency) because the
rank computation needs tight control over reachability; descendant and
ancestor sets are Python-int bitsets over program-order indices, computed once
per graph revision and cached.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .instruction import ANY, Instruction


class CycleError(ValueError):
    """Raised when a dependence graph that must be acyclic contains a cycle."""


class DependenceGraph:
    """Directed acyclic graph of instructions with latency-weighted edges."""

    def __init__(self) -> None:
        self._succ: dict[str, dict[str, int]] = {}
        self._pred: dict[str, dict[str, int]] = {}
        self._exec_time: dict[str, int] = {}
        self._fu_class: dict[str, str] = {}
        self._order: list[str] = []  # insertion order of nodes
        self._topo_cache: list[str] | None = None
        self._reach_cache: tuple[dict[str, int], list[int], list[int]] | None = None
        self._desc_cache: dict[str, list[str]] = {}  # node -> descendants
        #: Scratch space for derived analyses (e.g. scheduler labellings);
        #: cleared whenever the graph changes.
        self.analysis_cache: dict[str, object] = {}

    # Construction -------------------------------------------------------------

    def add_node(self, name: str, exec_time: int = 1, fu_class: str = ANY) -> None:
        """Add an instruction node.  Re-adding an existing node is an error."""
        if name in self._succ:
            raise ValueError(f"duplicate node {name!r}")
        if exec_time < 1:
            raise ValueError(f"exec_time must be >= 1, got {exec_time}")
        self._succ[name] = {}
        self._pred[name] = {}
        self._exec_time[name] = exec_time
        self._fu_class[name] = fu_class
        self._order.append(name)
        self._invalidate()

    def add_instruction(self, instr: Instruction) -> None:
        self.add_node(instr.name, exec_time=instr.exec_time, fu_class=instr.fu_class)

    def add_edge(self, u: str, v: str, latency: int = 0) -> None:
        """Add (or tighten) a dependence edge ``u -> v``.

        Parallel edges are collapsed keeping the maximum latency, matching the
        usual dependence-graph convention.
        """
        if u not in self._succ or v not in self._succ:
            missing = u if u not in self._succ else v
            raise KeyError(f"unknown node {missing!r}")
        if u == v:
            raise CycleError(f"self edge on {u!r} (use LoopGraph for carried deps)")
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        old = self._succ[u].get(v)
        if old is None or latency > old:
            self._succ[u][v] = latency
            self._pred[v][u] = latency
            self._invalidate()

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._reach_cache = None
        self._desc_cache.clear()
        self.analysis_cache.clear()

    def _append_induced(
        self, src: "DependenceGraph", nodes: list[str], keep: set[str] | None
    ) -> None:
        """Append ``nodes`` of ``src`` (in that order) and every edge of
        ``src`` between them in one pass; ``keep`` is the set of ``nodes``,
        or None when ``nodes`` is all of ``src``.  Every successor and
        predecessor dict comes out in the order one ``add_node`` per node and
        one ``add_edge`` per edge of ``src.edges()`` would give it."""
        succ, pred = self._succ, self._pred
        for n in nodes:
            succ[n] = {}
            pred[n] = {}
            self._exec_time[n] = src._exec_time[n]
            self._fu_class[n] = src._fu_class[n]
        self._order.extend(nodes)
        for u in nodes:
            out = succ[u]
            for v, lat in src._succ[u].items():
                if keep is None or v in keep:
                    out[v] = lat
                    pred[v][u] = lat
        self._invalidate()

    # Queries ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    @property
    def nodes(self) -> list[str]:
        """Nodes in insertion (program) order."""
        return list(self._order)

    def edges(self) -> Iterator[tuple[str, str, int]]:
        for u in self._order:
            for v, lat in self._succ[u].items():
                yield u, v, lat

    def num_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def successors(self, u: str) -> Mapping[str, int]:
        """Mapping successor -> edge latency."""
        return self._succ[u]

    def predecessors(self, v: str) -> Mapping[str, int]:
        """Mapping predecessor -> edge latency."""
        return self._pred[v]

    def exec_time(self, u: str) -> int:
        return self._exec_time[u]

    def fu_class(self, u: str) -> str:
        return self._fu_class[u]

    def latency(self, u: str, v: str) -> int:
        return self._succ[u][v]

    def sources(self) -> list[str]:
        """Nodes with no predecessors, in program order."""
        return [n for n in self._order if not self._pred[n]]

    def sinks(self) -> list[str]:
        """Nodes with no successors, in program order."""
        return [n for n in self._order if not self._succ[n]]

    # Topology -----------------------------------------------------------------

    def topological_order(self) -> list[str]:
        """Kahn topological order (stable w.r.t. program order); cached.

        Raises :class:`CycleError` if the graph has a cycle.
        """
        if self._topo_cache is None:
            indeg = {n: len(self._pred[n]) for n in self._order}
            # Stable worklist: scan program order repeatedly via index queue.
            ready = [n for n in self._order if indeg[n] == 0]
            out: list[str] = []
            head = 0
            while head < len(ready):
                n = ready[head]
                head += 1
                out.append(n)
                for s in self._succ[n]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        ready.append(s)
            if len(out) != len(self._order):
                raise CycleError("dependence graph contains a cycle")
            self._topo_cache = out
        return list(self._topo_cache)

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except CycleError:
            return False

    def _reachability(self) -> tuple[dict[str, int], list[int], list[int]]:
        """Program-order index of every node, and per index the bitsets of
        its strict descendants and strict ancestors (bit j stands for the
        j-th node in program order).  One pass over the topological order
        each way; cached until the graph changes."""
        if self._reach_cache is None:
            topo = self.topological_order()
            idx = {n: i for i, n in enumerate(self._order)}
            desc = [0] * len(self._order)
            anc = [0] * len(self._order)
            for u in reversed(topo):
                mask = 0
                for v in self._succ[u]:
                    iv = idx[v]
                    mask |= desc[iv] | 1 << iv
                desc[idx[u]] = mask
            for v in topo:
                mask = 0
                for u in self._pred[v]:
                    iu = idx[u]
                    mask |= anc[iu] | 1 << iu
                anc[idx[v]] = mask
            self._reach_cache = (idx, desc, anc)
        return self._reach_cache

    def _decode(self, mask: int) -> list[str]:
        """The nodes of a bitset, in program order."""
        order = self._order
        out = []
        while mask:
            low = mask & -mask
            out.append(order[low.bit_length() - 1])
            mask ^= low
        return out

    def descendants(self, u: str) -> list[str]:
        """All strict descendants of ``u``, in program order (memoized per
        node until the graph changes)."""
        names = self._desc_cache.get(u)
        if names is None:
            idx, desc, _ = self._reachability()
            names = self._desc_cache[u] = self._decode(desc[idx[u]])
        return list(names)

    def node_index(self, u: str) -> int:
        """Program-order index of ``u`` (stable across queries)."""
        idx, _, _ = self._reachability()
        return idx[u]

    def reachability_row(self, u: str) -> int:
        """Descendant bitset of ``u``: bit j is set iff the j-th node in
        program order is a strict descendant of ``u``."""
        idx, desc, _ = self._reachability()
        return desc[idx[u]]

    def ancestors(self, u: str) -> list[str]:
        """All strict ancestors of ``u``, in program order."""
        return self._decode(self.ancestor_row(u))

    def ancestor_row(self, u: str) -> int:
        """Ancestor bitset of ``u``, indexed as :meth:`reachability_row`."""
        idx, _, anc = self._reachability()
        return anc[idx[u]]

    def reaches(self, u: str, v: str) -> bool:
        idx, desc, _ = self._reachability()
        return bool(desc[idx[u]] >> idx[v] & 1)

    # Derived metrics ------------------------------------------------------------

    def critical_path_length(self) -> int:
        """Length (in cycles) of the longest path including execution times and
        latencies — a lower bound on any single-FU makespan."""
        if not self._order:
            return 0
        finish: dict[str, int] = {}
        for u in self.topological_order():
            est = 0
            for p, lat in self._pred[u].items():
                est = max(est, finish[p] + lat)
            finish[u] = est + self._exec_time[u]
        return max(finish.values())

    def earliest_start_times(self) -> dict[str, int]:
        """Resource-unconstrained earliest start time of every node."""
        start: dict[str, int] = {}
        for u in self.topological_order():
            est = 0
            for p, lat in self._pred[u].items():
                est = max(est, start[p] + self._exec_time[p] + lat)
            start[u] = est
        return start

    def path_length_to_sinks(self) -> dict[str, int]:
        """For each node, the longest remaining path (exec + latency) starting
        at that node — the classic critical-path list-scheduling priority."""
        dist: dict[str, int] = {}
        for u in reversed(self.topological_order()):
            best = 0
            for v, lat in self._succ[u].items():
                best = max(best, lat + dist[v])
            dist[u] = self._exec_time[u] + best
        return dist

    # Transformations -------------------------------------------------------------

    def subgraph(self, keep: Iterable[str]) -> "DependenceGraph":
        """Induced subgraph on ``keep`` (program order preserved)."""
        keep_set = set(keep)
        unknown = keep_set - self._succ.keys()
        if unknown:
            raise KeyError(f"unknown nodes {sorted(unknown)}")
        g = DependenceGraph()
        g._append_induced(
            self, [n for n in self._order if n in keep_set], keep_set
        )
        return g

    def copy(self) -> "DependenceGraph":
        g = DependenceGraph()
        g._append_induced(self, self._order, None)
        return g

    def union(self, *others: "DependenceGraph") -> "DependenceGraph":
        """Disjoint union of this graph and ``others``, in that order (node
        sets must not overlap)."""
        g = self.copy()
        for other in others:
            overlap = g._succ.keys() & other._succ.keys()
            if overlap:
                raise ValueError(f"node sets overlap: {sorted(overlap)}")
            g._append_induced(other, other._order, None)
        return g

    def relabeled(self, mapping: Mapping[str, str]) -> "DependenceGraph":
        """Copy with nodes renamed through ``mapping`` (missing keys keep
        their name)."""
        g = DependenceGraph()
        for n in self._order:
            g.add_node(mapping.get(n, n), self._exec_time[n], self._fu_class[n])
        for u, v, lat in self.edges():
            g.add_edge(mapping.get(u, u), mapping.get(v, v), lat)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DependenceGraph(n={len(self)}, e={self.num_edges()}, "
            f"cp={self.critical_path_length() if self.is_acyclic() else '?'})"
        )


def graph_from_edges(
    edges: Iterable[tuple[str, str, int]],
    nodes: Iterable[str] = (),
    exec_times: Mapping[str, int] | None = None,
    fu_classes: Mapping[str, str] | None = None,
) -> DependenceGraph:
    """Convenience constructor: build a graph from an edge list.

    Nodes appearing only in ``edges`` are added in first-mention order after
    the explicitly listed ``nodes``.
    """
    exec_times = exec_times or {}
    fu_classes = fu_classes or {}
    g = DependenceGraph()

    def ensure(n: str) -> None:
        if n not in g:
            g.add_node(n, exec_times.get(n, 1), fu_classes.get(n, ANY))

    for n in nodes:
        ensure(n)
    edge_list = list(edges)
    for u, v, _ in edge_list:
        ensure(u)
        ensure(v)
    for u, v, lat in edge_list:
        g.add_edge(u, v, lat)
    return g
