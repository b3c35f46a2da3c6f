"""Coverage for Schedule/graph accessors added during development."""

from repro.core import Schedule
from repro.ir import graph_from_edges
from repro.workloads import figure1_bb1


class TestGlobalIdleTimes:
    def test_single_unit_equals_idle_times(self):
        g = graph_from_edges([], nodes=["a", "b"])
        s = Schedule(g, {"a": 0, "b": 3})
        assert s.global_idle_times() == s.idle_times() == [1, 2]

    def test_multi_unit_global_stall(self):
        g = graph_from_edges([], nodes=["a", "b"])
        s = Schedule(g, {"a": 0, "b": 4}, {"a": ("any", 0), "b": ("any", 1)})
        # Unit 0 idle 1-4, unit 1 idle 0-3; both idle only at 1,2,3.
        assert s.global_idle_times() == [1, 2, 3]

    def test_spanning_instruction_blocks_global_idle(self):
        g = graph_from_edges([], nodes=["a", "b"], exec_times={"a": 4})
        s = Schedule(g, {"a": 0, "b": 5}, {"a": ("any", 0), "b": ("any", 1)})
        assert s.global_idle_times() == [4]


class TestGraphIndexAccessors:
    def test_node_index_matches_program_order(self):
        g = figure1_bb1()
        for i, n in enumerate(g.nodes):
            assert g.node_index(n) == i

    def test_reachability_row(self):
        g = figure1_bb1()
        row = g.reachability_row("x")
        desc = {g.nodes[i] for i in range(len(g)) if row >> i & 1}
        assert desc == {"w", "b", "a", "r"}

    def test_analysis_cache_cleared_on_mutation(self):
        g = figure1_bb1()
        g.analysis_cache["probe"] = 1
        g.add_node("fresh")
        assert "probe" not in g.analysis_cache


class TestHashAndDigest:
    def _pair(self):
        """Two schedules equal in starts but differing only in units."""
        g = graph_from_edges([], nodes=["a", "b"])
        s1 = Schedule(g, {"a": 0, "b": 0}, {"a": ("any", 0), "b": ("any", 1)})
        s2 = Schedule(g, {"a": 0, "b": 0}, {"a": ("any", 1), "b": ("any", 0)})
        return s1, s2

    def test_hash_covers_units(self):
        # Regression: hashing only ``starts`` collided multi-FU schedules
        # that differ solely in unit assignment while __eq__ said unequal.
        s1, s2 = self._pair()
        assert s1 != s2
        assert hash(s1) != hash(s2)

    def test_equal_schedules_hash_equal(self):
        g = graph_from_edges([("a", "b", 1)])
        s1 = Schedule(g, {"a": 0, "b": 2})
        s2 = Schedule(g, {"a": 0, "b": 2})
        assert s1 == s2 and hash(s1) == hash(s2)

    def test_digest_is_stable_sha256_hex(self):
        g = graph_from_edges([("a", "b", 1)])
        s = Schedule(g, {"a": 0, "b": 2})
        d = s.digest()
        assert len(d) == 64 and d == s.digest()
        # Pinned: must never depend on PYTHONHASHSEED or process identity.
        assert d == (
            "a6825851dd9c12fef8aac2b027253dc0"
            "459a51c3d6056e4da0924d5f663b7c48"
        )

    def test_digest_separates_units(self):
        s1, s2 = self._pair()
        assert s1.digest() != s2.digest()

    def test_module_level_digest_matches_method(self):
        from repro.core.schedule import schedule_digest

        g = graph_from_edges([("a", "b", 1)])
        s = Schedule(g, {"a": 0, "b": 2})
        assert schedule_digest(s.starts, s.units) == s.digest()
