"""Unit tests for DependenceGraph, cross-checked against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import FU_CLASSES, CycleError, DependenceGraph, graph_from_edges
from repro.workloads import figure1_bb1, random_dag


def diamond() -> DependenceGraph:
    return graph_from_edges(
        [("a", "b", 1), ("a", "c", 0), ("b", "d", 1), ("c", "d", 0)]
    )


class TestConstruction:
    def test_add_node_and_len(self):
        g = DependenceGraph()
        g.add_node("a")
        g.add_node("b", exec_time=3, fu_class="fixed")
        assert len(g) == 2
        assert "a" in g and "b" in g
        assert g.exec_time("b") == 3
        assert g.fu_class("b") == "fixed"

    def test_duplicate_node_rejected(self):
        g = DependenceGraph()
        g.add_node("a")
        with pytest.raises(ValueError, match="duplicate"):
            g.add_node("a")

    def test_bad_exec_time_rejected(self):
        g = DependenceGraph()
        with pytest.raises(ValueError, match="exec_time"):
            g.add_node("a", exec_time=0)

    def test_edge_to_unknown_node(self):
        g = DependenceGraph()
        g.add_node("a")
        with pytest.raises(KeyError):
            g.add_edge("a", "zzz", 0)

    def test_self_edge_rejected(self):
        g = DependenceGraph()
        g.add_node("a")
        with pytest.raises(CycleError):
            g.add_edge("a", "a", 1)

    def test_negative_latency_rejected(self):
        g = graph_from_edges([], nodes=["a", "b"])
        with pytest.raises(ValueError, match="latency"):
            g.add_edge("a", "b", -1)

    def test_parallel_edges_keep_max_latency(self):
        g = graph_from_edges([("a", "b", 0)])
        g.add_edge("a", "b", 2)
        g.add_edge("a", "b", 1)
        assert g.latency("a", "b") == 2
        assert g.num_edges() == 1

    def test_program_order_preserved(self):
        g = graph_from_edges([], nodes=["z", "m", "a"])
        assert g.nodes == ["z", "m", "a"]


class TestTopology:
    def test_topological_order_valid(self):
        g = diamond()
        topo = g.topological_order()
        pos = {n: i for i, n in enumerate(topo)}
        for u, v, _ in g.edges():
            assert pos[u] < pos[v]

    def test_cycle_detected(self):
        g = graph_from_edges([("a", "b", 0), ("b", "c", 0)])
        g.add_edge("c", "a", 0)
        assert not g.is_acyclic()
        with pytest.raises(CycleError):
            g.topological_order()

    def test_descendants_match_networkx(self):
        g = random_dag(30, edge_probability=0.2, seed=11)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(g.nodes)
        nxg.add_edges_from((u, v) for u, v, _ in g.edges())
        for n in g.nodes:
            assert set(g.descendants(n)) == nx.descendants(nxg, n)
            assert set(g.ancestors(n)) == nx.ancestors(nxg, n)

    def test_reaches(self):
        g = diamond()
        assert g.reaches("a", "d")
        assert not g.reaches("d", "a")
        assert not g.reaches("b", "c")

    def test_sources_and_sinks(self):
        g = diamond()
        assert g.sources() == ["a"]
        assert g.sinks() == ["d"]

    def test_figure1_descendants(self):
        g = figure1_bb1()
        assert set(g.descendants("x")) == {"w", "b", "a", "r"}
        assert set(g.descendants("e")) == {"w", "b", "a"}


class TestMetrics:
    def test_critical_path_diamond(self):
        # a(1) -> b latency 1 -> b(1) -> d latency 1 -> d(1) = 5
        assert diamond().critical_path_length() == 5

    def test_critical_path_empty(self):
        assert DependenceGraph().critical_path_length() == 0

    def test_critical_path_with_exec_times(self):
        g = graph_from_edges([("a", "b", 2)], exec_times={"a": 3, "b": 2})
        assert g.critical_path_length() == 3 + 2 + 2

    def test_earliest_start_times(self):
        g = diamond()
        est = g.earliest_start_times()
        assert est["a"] == 0
        assert est["b"] == 2  # completion(a)=1 + latency 1
        assert est["c"] == 1
        assert est["d"] == 4  # completion(b)=3 + latency 1

    def test_path_length_to_sinks(self):
        g = diamond()
        dist = g.path_length_to_sinks()
        assert dist["d"] == 1
        assert dist["b"] == 1 + 1 + 1  # b + latency + d
        assert dist["a"] == 5


class TestTransforms:
    def test_subgraph(self):
        g = diamond()
        sub = g.subgraph(["a", "b", "d"])
        assert sub.nodes == ["a", "b", "d"]
        assert sub.num_edges() == 2
        with pytest.raises(KeyError):
            g.subgraph(["a", "nope"])

    def test_copy_independent(self):
        g = diamond()
        c = g.copy()
        c.add_node("extra")
        assert "extra" not in g

    def test_union_disjoint(self):
        g1 = graph_from_edges([("a", "b", 1)])
        g2 = graph_from_edges([("c", "d", 0)])
        u = g1.union(g2)
        assert set(u.nodes) == {"a", "b", "c", "d"}
        assert u.num_edges() == 2

    def test_union_overlap_rejected(self):
        g1 = graph_from_edges([("a", "b", 1)])
        with pytest.raises(ValueError, match="overlap"):
            g1.union(g1)

    def test_relabeled(self):
        g = diamond()
        r = g.relabeled({"a": "A"})
        assert "A" in r and "a" not in r
        assert r.latency("A", "b") == 1

    def test_graph_from_edges_exec_times(self):
        g = graph_from_edges([("a", "b", 0)], exec_times={"a": 4})
        assert g.exec_time("a") == 4
        assert g.exec_time("b") == 1


class TestCaching:
    def test_reachability_cache_invalidation(self):
        g = graph_from_edges([("a", "b", 0)], nodes=["a", "b", "c"])
        assert g.descendants("a") == ["b"]
        g.add_edge("b", "c", 0)
        assert g.descendants("a") == ["b", "c"]


def reference_subgraph(g: DependenceGraph, keep) -> DependenceGraph:
    """The induced subgraph built one ``add_node``/``add_edge`` call at a
    time, in ``g``'s program and edge order."""
    keep = set(keep)
    ref = DependenceGraph()
    for n in g.nodes:
        if n in keep:
            ref.add_node(n, g.exec_time(n), g.fu_class(n))
    for u, v, lat in g.edges():
        if u in keep and v in keep:
            ref.add_edge(u, v, lat)
    return ref


def layout(g: DependenceGraph) -> tuple:
    """Everything whose order a consumer can observe."""
    return (
        g.nodes,
        [(n, g.exec_time(n), g.fu_class(n)) for n in g.nodes],
        [list(g.successors(n).items()) for n in g.nodes],
        [list(g.predecessors(n).items()) for n in g.nodes],
    )


@st.composite
def graphs_and_keeps(draw):
    """A random DAG whose edges are added in a random order (so a node's
    predecessor dict is not in program order), and a random keep set."""
    n = draw(st.integers(min_value=0, max_value=20))
    g = DependenceGraph()
    for i in range(n):
        g.add_node(
            f"n{i}",
            exec_time=draw(st.integers(min_value=1, max_value=3)),
            fu_class=draw(st.sampled_from(FU_CLASSES)),
        )
    if n > 1:
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=4),
                ),
                max_size=3 * n,
            )
        )
        for a, b, lat in edges:
            if a != b:
                g.add_edge(f"n{min(a, b)}", f"n{max(a, b)}", lat)
    keep = draw(st.lists(st.sampled_from(g.nodes), unique=True)) if n else []
    return g, keep


class TestOnePassConstruction:
    @settings(max_examples=200, deadline=None)
    @given(graphs_and_keeps())
    def test_subgraph_matches_incremental_build(self, case):
        g, keep = case
        assert layout(g.subgraph(keep)) == layout(reference_subgraph(g, keep))
        assert layout(g.copy()) == layout(reference_subgraph(g, g.nodes))

    @settings(max_examples=100, deadline=None)
    @given(graphs_and_keeps(), graphs_and_keeps())
    def test_union_matches_incremental_build(self, first, second):
        a = first[0]
        b = second[0].relabeled({n: f"b{n}" for n in second[0].nodes})
        ref = reference_subgraph(a, a.nodes)
        for n in b.nodes:
            ref.add_node(n, b.exec_time(n), b.fu_class(n))
        for u, v, lat in b.edges():
            ref.add_edge(u, v, lat)
        assert layout(a.union(b)) == layout(ref)

    def test_subgraph_caches_are_its_own(self):
        g = diamond()
        assert g.descendants("b") == ["d"]
        sub = g.subgraph(["b", "c", "d"])
        assert sub.descendants("b") == ["d"]
        assert sub.ancestors("d") == ["b", "c"]
        sub.add_edge("b", "c", 0)
        assert sub.descendants("b") == ["c", "d"]
        assert g.descendants("b") == ["d"]
        assert "c" not in g.successors("b")
