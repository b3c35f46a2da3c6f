"""Tie-breaking in the rank priority list — a reconstruction finding.

The paper leaves the order among equal ranks free; fuzzing against the
brute-force oracle shows that program-order ties can cost one cycle on rare
instances where two equal-rank roots differ only in the *latencies* of
their out-edges.  Breaking ties with Bernstein-Gertner lexicographic labels
(which encode exactly that structure) fixes that instance and is optimal on
the deterministic corpus below, but it is not exact either: a scan of
40 004 random 8- and 9-node DAGs finds 15 instances where label ties are
one cycle long.  These tests pin the counterexamples and the fix;
EXPERIMENTS.md documents the finding.
"""

import pytest

from repro.core import list_schedule, rank_schedule
from repro.core.rank import compute_ranks, fill_deadlines, rank_priority_list
from repro.schedulers import optimal_makespan
from repro.workloads import figure1_bb1, random_dag


def make_counterexample():
    """Seed-86 instance: roots n0, n1 tie at rank 5, but only n1-first is
    optimal (n2 waits on n1's latency-1 edge)."""
    return random_dag(6, edge_probability=0.4, latencies=(0, 1), seed=86)


class TestCounterexample:
    def test_program_order_ties_lose_a_cycle(self):
        g = make_counterexample()
        s, ranks = rank_schedule(g, tie_break="program")
        assert ranks["n0"] == ranks["n1"]  # the tie that hides the latency
        assert s.makespan == optimal_makespan(g) + 1

    def test_label_ties_recover_optimality(self):
        g = make_counterexample()
        s, _ = rank_schedule(g, tie_break="labels")
        assert s.makespan == optimal_makespan(g)

    def test_unknown_mode_rejected(self):
        g = figure1_bb1()
        with pytest.raises(ValueError, match="tie_break"):
            rank_priority_list(g, compute_ranks(g), tie_break="coin-flip")


class TestLabelTieBreakCorpus:
    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_labels_optimal_on_01_corpus(self, seed, p):
        g = random_dag(8, edge_probability=p, latencies=(0, 1), seed=seed)
        s, _ = rank_schedule(g, tie_break="labels")
        assert s is not None
        assert s.makespan == optimal_makespan(g)

    @pytest.mark.parametrize("seed", range(15))
    def test_program_ties_within_one_cycle(self, seed):
        g = random_dag(8, edge_probability=0.4, latencies=(0, 1), seed=seed)
        s, _ = rank_schedule(g, tie_break="program")
        assert s is not None
        assert s.makespan <= optimal_makespan(g) + 1


#: Every instance on which label ties miss the optimum, found by scanning
#: random_dag(n, edge_probability=p, latencies=(0, 1), seed=seed) for n in
#: (8, 9), p in (0.4, 0.6) and seeds 0-10 000: (n, p, seed, optimum,
#: program-order makespan).  Label ties come out exactly one cycle long on
#: each, and rank_schedule with every deadline at the optimum returns None.
#: Why the rank computation misses these optima is open.
LABEL_TIE_COUNTEREXAMPLES = [
    (8, 0.4, 9282, 8, 9),
    (8, 0.4, 9818, 8, 9),
    (8, 0.6, 3419, 10, 11),
    (8, 0.6, 6499, 8, 9),
    (8, 0.6, 7262, 8, 8),
    (8, 0.6, 8768, 10, 11),
    (9, 0.4, 5655, 9, 10),
    (9, 0.6, 2698, 9, 9),
    (9, 0.6, 3000, 9, 10),
    (9, 0.6, 4241, 9, 10),
    (9, 0.6, 4627, 9, 9),
    (9, 0.6, 4782, 9, 9),
    (9, 0.6, 6944, 9, 9),
    (9, 0.6, 8014, 9, 9),
    (9, 0.6, 9948, 9, 9),
]


class TestLabelTieCounterexamples:
    @pytest.mark.parametrize(
        "n, p, seed, opt, program", LABEL_TIE_COUNTEREXAMPLES
    )
    def test_label_ties_one_cycle_long(self, n, p, seed, opt, program):
        g = random_dag(n, edge_probability=p, latencies=(0, 1), seed=seed)
        assert optimal_makespan(g) == opt
        s_labels, _ = rank_schedule(g, tie_break="labels")
        assert s_labels.makespan == opt + 1
        s_prog, _ = rank_schedule(g, tie_break="program")
        assert s_prog.makespan == program
        at_opt = {x: opt for x in g.nodes}
        assert rank_schedule(g, at_opt, tie_break="labels")[0] is None
        above = {x: opt + 1 for x in g.nodes}
        assert rank_schedule(g, above, tie_break="labels")[0].makespan == opt + 1


class TestPaperFidelity:
    def test_program_ties_reproduce_paper_ordering(self):
        """The default mode keeps the paper's §2.1 walkthrough order
        (e before x among the rank-95 tie)."""
        g = figure1_bb1()
        s, _ = rank_schedule(g)  # default: program order
        assert s.permutation() == ["e", "x", "b", "w", "r", "a"]

    def test_label_ties_keep_makespan(self):
        g = figure1_bb1()
        s, _ = rank_schedule(g, tie_break="labels")
        assert s.makespan == 7

    def test_label_cache_reused_and_invalidated(self):
        from repro.core.rank import _lexicographic_labels

        g = figure1_bb1()
        l1 = _lexicographic_labels(g)
        assert _lexicographic_labels(g) is l1  # cached
        g.add_node("zz")
        l2 = _lexicographic_labels(g)
        assert l2 is not l1 and "zz" in l2
