"""Basic blocks, traces and loop traces.

A *basic block* is a single-entry single-exit sequence of instructions with no
intervening control flow.  A *trace* is a sequence of basic blocks along a
simple path of the control-flow graph; dependence edges may cross block
boundaries (they constrain the runtime overlap realized by the hardware
lookahead window, paper §2.3).  A *loop trace* additionally carries
⟨latency, distance⟩ dependences that wrap from one iteration of the trace to a
later one (paper §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .depgraph import DependenceGraph
from .instruction import Instruction
from .loopgraph import LoopEdge, instance_name


@dataclass
class BasicBlock:
    """A named basic block: an ordered instruction sequence plus its local
    dependence graph (over exactly the block's instruction names)."""

    name: str
    graph: DependenceGraph
    instructions: list[Instruction] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.instructions:
            names = [i.name for i in self.instructions]
            if sorted(names) != sorted(self.graph.nodes):
                raise ValueError(
                    f"block {self.name!r}: instruction names do not match graph nodes"
                )

    @property
    def node_names(self) -> list[str]:
        return self.graph.nodes

    def __len__(self) -> int:
        return len(self.graph)


class Trace:
    """A trace BB₁ … BBₘ with optional cross-block dependence edges.

    The combined :attr:`graph` spans every instruction in the trace; node
    names must be globally unique across blocks.  Cross-block edges must go
    from an earlier block to a later block (control flows forward along the
    trace).
    """

    def __init__(
        self,
        blocks: Sequence[BasicBlock],
        cross_edges: Iterable[tuple[str, str, int]] = (),
    ) -> None:
        if not blocks:
            raise ValueError("a trace needs at least one basic block")
        self.blocks: list[BasicBlock] = list(blocks)
        self.block_of: dict[str, int] = {}
        for i, bb in enumerate(self.blocks):
            for n in bb.node_names:
                if n in self.block_of:
                    raise ValueError(f"node {n!r} appears in more than one block")
                self.block_of[n] = i

        g = self.blocks[0].graph.union(*(bb.graph for bb in self.blocks[1:]))
        self.cross_edges: list[tuple[str, str, int]] = []
        for u, v, lat in cross_edges:
            bu, bv = self.block_of.get(u), self.block_of.get(v)
            if bu is None or bv is None:
                missing = u if bu is None else v
                raise KeyError(f"cross edge references unknown node {missing!r}")
            if bu >= bv:
                raise ValueError(
                    f"cross edge {u!r}->{v!r} must go to a strictly later block"
                )
            g.add_edge(u, v, lat)
            self.cross_edges.append((u, v, lat))
        self.graph = g

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __len__(self) -> int:
        return len(self.graph)

    def block_nodes(self, i: int) -> list[str]:
        return self.blocks[i].node_names

    def block_index(self, node: str) -> int:
        return self.block_of[node]

    def program_order(self) -> list[str]:
        """All instruction names in block order, program order within blocks."""
        out: list[str] = []
        for bb in self.blocks:
            out.extend(bb.node_names)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "+".join(str(len(b)) for b in self.blocks)
        return f"Trace(blocks={self.num_blocks}, sizes={sizes})"


class LoopTrace(Trace):
    """A trace enclosed in a loop (paper §5.1): the trace's dependence graph
    plus loop-carried edges with distance ≥ 1 wrapping across iterations."""

    def __init__(
        self,
        blocks: Sequence[BasicBlock],
        cross_edges: Iterable[tuple[str, str, int]] = (),
        carried_edges: Iterable[tuple[str, str, int, int]] = (),
    ) -> None:
        super().__init__(blocks, cross_edges)
        self.carried_edges: list[LoopEdge] = []
        for u, v, lat, dist in carried_edges:
            if u not in self.block_of or v not in self.block_of:
                missing = u if u not in self.block_of else v
                raise KeyError(f"carried edge references unknown node {missing!r}")
            if dist < 1:
                raise ValueError("carried edges need distance >= 1")
            self.carried_edges.append(LoopEdge(u, v, lat, dist))

    def unrolled_graph(self, iterations: int) -> DependenceGraph:
        """Acyclic graph of ``iterations`` back-to-back trace instances with
        intra-iteration and carried edges instantiated (paper §5 semantics)."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        g = DependenceGraph()
        order = self.program_order()
        for k in range(iterations):
            for n in order:
                g.add_node(
                    instance_name(n, k),
                    self.graph.exec_time(n),
                    self.graph.fu_class(n),
                )
        for u, v, lat in self.graph.edges():
            for k in range(iterations):
                g.add_edge(instance_name(u, k), instance_name(v, k), lat)
        for e in self.carried_edges:
            for k in range(iterations - e.distance):
                g.add_edge(
                    instance_name(e.src, k),
                    instance_name(e.dst, k + e.distance),
                    e.latency,
                )
        return g


def block_from_graph(name: str, graph: DependenceGraph) -> BasicBlock:
    """Wrap a bare dependence graph as a basic block (no operand info)."""
    return BasicBlock(name=name, graph=graph)


def single_block_trace(graph: DependenceGraph, name: str = "BB1") -> Trace:
    return Trace([block_from_graph(name, graph)])
