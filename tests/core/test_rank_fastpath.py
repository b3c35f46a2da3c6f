"""The incremental rank engine and the closed-form backward schedule.

Two fast paths must be bit-identical to the from-scratch reference:

- :class:`repro.core.rank.RankEngine` — after any sequence of deadline
  perturbations (single-node, batched, infeasible, multi-unit, non-unit
  execution times) its rank map must equal ``compute_ranks`` on the same
  deadlines.  :func:`per_step_oracle` checks that after every engine call
  the pipeline itself makes: merge, Delay_Idle_Slots and the tardiness
  search get their ranks from an engine and nowhere else;
- the unit-time closed form inside ``_node_rank`` — placing in
  nonincreasing rank order, each pool's latest free slot follows from its
  lowest occupied slot and the room left there, so latest-fit needs no
  search; fuzzed against the general :class:`_BackwardSlots` path on pools
  of every capacity.

Plus a work bound: ``move_idle_slot`` with an engine runs no full rank
computation (the engine's single from-scratch initialization per
``delay_idle_slots`` call is all there is).
"""

import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.lookahead as lookaheadmod
import repro.core.rank as rankmod
from repro.core import (
    SINGLE_UNIT,
    LookaheadResult,
    RankEngine,
    algorithm_lookahead,
    compute_ranks,
    delay_idle_slots,
    fill_deadlines,
    list_schedule,
    local_block_orders,
    makespan_deadlines,
    minimize_tardiness,
    minimum_makespan_schedule,
)
from repro.ir import (
    ANY,
    FIXED,
    FLOAT,
    FU_CLASSES,
    MEMORY,
    DependenceGraph,
    graph_from_edges,
)
from repro.machine import PAPER_CORE, RS6000_LIKE, WIDE_VLIW
from repro.machine.model import MachineModel, single_unit_machine
from repro.obs import TraceRecorder, recording
from repro.workloads.random_dag import random_dag
from repro.workloads.traces import random_trace
from tests.core.test_idle import delay_instances
from tests.core.test_tardiness import tardiness_instance
from tests.core.test_work_counts import SEEDS as WORK_COUNT_SEEDS
from tests.core.test_work_counts import SHAPES as WORK_COUNT_SHAPES


#: Typed pools of two sizes plus a universal unit; ``MEMORY`` has no unit
#: of its own and runs on the universal one.
TYPED_MACHINE = MachineModel(window_size=4, fu_counts={FIXED: 2, FLOAT: 1, ANY: 1})


def random_instance(seed: int):
    """A random (graph, deadlines, machine) triple covering every regime the
    repo models: infeasible (negative) deadlines, multi-unit machines (a
    universal pool, or typed pools), non-unit execution times, latencies
    > 1."""
    rng = random.Random(seed)
    exec_times = (1,) if seed % 3 else (1, 2, 3)
    typed = seed % 4 == 2
    graph = random_dag(
        rng.randint(1, 25),
        edge_probability=rng.choice([0.1, 0.3, 0.6]),
        latencies=(0, 1, 2),
        exec_times=exec_times,
        fu_classes=(FIXED, FLOAT, MEMORY, ANY) if typed else (ANY,),
        seed=seed,
    )
    deadlines = {
        n: rng.randint(-5, 50) for n in graph.nodes if rng.random() < 0.7
    }
    if seed % 4 == 0:
        machine = MachineModel(
            window_size=4, fu_counts={"any": rng.randint(2, 3)}
        )
    elif typed:
        machine = TYPED_MACHINE
    else:
        machine = single_unit_machine()
    return graph, deadlines, machine


class TestEngineOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_perturbations_match_from_scratch(self, seed):
        graph, deadlines, machine = random_instance(seed)
        rng = random.Random(1000 + seed)
        engine = RankEngine(graph, deadlines, machine)
        current = fill_deadlines(graph, deadlines)
        assert engine.ranks == compute_ranks(graph, current, machine)
        for _ in range(8):
            if rng.random() < 0.5:  # single-node change
                node = rng.choice(graph.nodes)
                updates = {node: rng.randint(-5, 50)}
            else:  # batched change
                updates = {
                    n: rng.randint(-5, 50)
                    for n in graph.nodes
                    if rng.random() < 0.3
                }
            current.update(updates)
            engine.set_deadlines(updates)
            assert engine.deadlines == current
            assert engine.ranks == compute_ranks(graph, current, machine)

    @pytest.mark.parametrize("seed", range(10))
    def test_uniform_shift_commutes(self, seed):
        graph, deadlines, machine = random_instance(seed)
        engine = RankEngine(graph, deadlines, machine)
        engine.shift(7)
        assert engine.ranks == compute_ranks(graph, engine.deadlines, machine)
        engine.shift(-11)
        assert engine.ranks == compute_ranks(graph, engine.deadlines, machine)

    @pytest.mark.parametrize("seed,delta", [(2940, -11), (48, -20)])
    def test_shift_below_zero_on_a_pool(self, seed, delta):
        """Shifts that push a two-unit pool's ranks well below zero: the
        backward schedule must still occupy every slot it hands out."""
        graph, deadlines, machine = random_instance(seed)
        assert machine.total_units == 2
        engine = RankEngine(graph, deadlines, machine)
        engine.shift(delta)
        assert engine.ranks == compute_ranks(graph, engine.deadlines, machine)

    @pytest.mark.parametrize("d", range(-6, 7))
    def test_pool_placement_is_shift_invariant(self, d):
        """x -> y1, y2, y3 on two units, every y due at d: two y's complete
        at d and the third at d - 1, so x must start by d - 2, for every d
        (a negative d used to leave the placements unrecorded)."""
        graph = graph_from_edges([("x", "y1", 0), ("x", "y2", 0), ("x", "y3", 0)])
        machine = MachineModel(fu_counts={"any": 2})
        ranks = compute_ranks(graph, {"y1": d, "y2": d, "y3": d}, machine)
        assert ranks["x"] == d - 2

    def test_class_without_a_unit_raises_like_list_schedule(self):
        """A pool with no unit has no backward schedule: the rank
        computation rejects the machine with list_schedule's error."""
        graph = DependenceGraph()
        for name in "abc":
            graph.add_node(name, fu_class=FLOAT)
        graph.add_edge("a", "b", 0)
        graph.add_edge("a", "c", 0)
        machine = MachineModel(fu_counts={FIXED: 2})
        deadlines = dict.fromkeys("abc", 5)
        for run in (
            lambda: compute_ranks(graph, deadlines, machine),
            lambda: RankEngine(graph, deadlines, machine),
            lambda: list_schedule(graph, ["a", "b", "c"], machine),
        ):
            with pytest.raises(ValueError, match="lacks a functional unit"):
                run()

    def test_single_unit_that_cannot_run_a_class_raises(self):
        """A single unit is every class's pool, so the closed-form backward
        schedule would rank nodes that unit cannot run (rank(a) = 3 here);
        it rejects the machine with list_schedule's error instead."""
        graph = DependenceGraph()
        for name in "abc":
            graph.add_node(name, fu_class=FLOAT)
        graph.add_edge("a", "b", 0)
        graph.add_edge("a", "c", 0)
        machine = MachineModel(fu_counts={FIXED: 1})
        deadlines = dict.fromkeys("abc", 5)
        for run in (
            lambda: compute_ranks(graph, deadlines, machine),
            lambda: RankEngine(graph, deadlines, machine),
            lambda: list_schedule(graph, ["a", "b", "c"], machine),
        ):
            with pytest.raises(ValueError, match="lacks a functional unit"):
                run()

    def test_unknown_node_raises(self):
        graph = random_dag(5, seed=0)
        engine = RankEngine(graph, None, single_unit_machine())
        with pytest.raises(ValueError, match="unknown nodes.*zzz"):
            engine.set_deadlines({"zzz": 3})

    @pytest.mark.parametrize("seed", range(10))
    def test_carried_into_larger_graph(self, seed):
        """Seed an engine on a descendant-closed subgraph (the sinks' side),
        carry it into the full graph, and compare against from-scratch."""
        graph, _, machine = random_instance(seed)
        order = graph.topological_order()
        keep = order[len(order) // 2:]  # suffix of topo order: closed under
        sub = graph.subgraph(keep)      # descendants by construction
        rng = random.Random(2000 + seed)
        sub_d = {n: rng.randint(0, 40) for n in sub.nodes}
        engine = RankEngine(sub, sub_d, machine)
        carried = engine.carried_into(graph, shift=3, fill=25)
        expected = {n: sub_d[n] + 3 if n in sub_d else 25 for n in graph.nodes}
        assert carried.deadlines == expected
        assert carried.ranks == compute_ranks(graph, expected, machine)


@contextmanager
def closed_form_off():
    """Rank through :class:`_BackwardSlots` instead of the closed form: the
    pool table still runs, for its class check, but is not handed on."""
    table = rankmod._unit_pools

    def off(graph, machine):
        table(graph, machine)
        return None

    with mock.patch.object(rankmod, "_unit_pools", off):
        yield


#: Every pool shape the closed form meets: one unit (also shared by typed
#: classes), typed pools of one and two units, universal pools of two and
#: three, and typed pools beside a universal unit.  The single ``FIXED`` unit
#: cannot run the other typed classes, for the error path.
POOL_MACHINES = (
    PAPER_CORE,
    WIDE_VLIW,
    RS6000_LIKE,
    MachineModel(fu_counts={ANY: 2}),
    MachineModel(fu_counts={ANY: 3}),
    TYPED_MACHINE,
    MachineModel(fu_counts={FIXED: 3, FLOAT: 2}, issue_width=2),
    MachineModel(fu_counts={FIXED: 1}),
)


@st.composite
def unit_time_instances(draw):
    """A random DAG of 1-30 unit-time nodes over typed and universal
    classes (latencies 0/1/2/4), deadlines on some nodes (negative ones
    included) and one of ``POOL_MACHINES``."""
    n = draw(st.integers(min_value=1, max_value=30))
    graph = DependenceGraph()
    for i in range(n):
        graph.add_node(f"n{i}", fu_class=draw(st.sampled_from(FU_CLASSES)))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.sampled_from((0, 1, 2, 4)),
            ),
            max_size=3 * n,
        )
    )
    for a, b, lat in pairs:
        if a != b:
            graph.add_edge(f"n{min(a, b)}", f"n{max(a, b)}", lat)
    deadlines = draw(
        st.dictionaries(
            st.sampled_from(graph.nodes), st.integers(min_value=-8, max_value=50)
        )
    )
    return graph, deadlines, draw(st.sampled_from(POOL_MACHINES))


class TestClosedFormBackwardSchedule:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_general_allocator(self, seed):
        """The closed form must reproduce _BackwardSlots's latest-fit bit
        for bit on a single unit with unit execution times."""
        rng = random.Random(seed)
        graph = random_dag(
            rng.randint(1, 30),
            edge_probability=rng.choice([0.1, 0.3, 0.6]),
            latencies=(0, 1, 2),
            seed=seed,
        )
        deadlines = {
            n: rng.randint(-5, 40) for n in graph.nodes if rng.random() < 0.7
        }
        machine = single_unit_machine()
        fast = compute_ranks(graph, deadlines, machine)
        with closed_form_off():
            slow = compute_ranks(graph, deadlines, machine)
        assert fast == slow

    @settings(max_examples=400, deadline=None)
    @given(unit_time_instances())
    def test_matches_general_allocator_on_every_pool(self, instance):
        """On pools of any capacity the closed form gives _BackwardSlots's
        ranks, and both reject a class without a unit as list_schedule
        does."""
        graph, deadlines, machine = instance
        if not machine.can_execute(graph):
            for run in (compute_ranks, RankEngine):
                with pytest.raises(ValueError, match="lacks a functional unit"):
                    run(graph, deadlines, machine)
                with closed_form_off(), pytest.raises(
                    ValueError, match="lacks a functional unit"
                ):
                    run(graph, deadlines, machine)
            return
        fast = compute_ranks(graph, deadlines, machine)
        with closed_form_off():
            slow = compute_ranks(graph, deadlines, machine)
        assert fast == slow
        assert RankEngine(graph, deadlines, machine).ranks == fast

    @pytest.mark.parametrize(
        "machine,classes,want",
        [
            (PAPER_CORE, (FIXED, FLOAT, ANY), 2),  # one pool: 5, 4, 3
            (WIDE_VLIW, (FIXED, FIXED, FIXED), 3),  # two fixed units: 5, 5, 4
            (WIDE_VLIW, (FIXED, FLOAT, FIXED), 4),  # fixed 5, 5; float 5
            (MachineModel(fu_counts={ANY: 3}), (ANY, ANY, ANY), 4),
        ],
    )
    def test_low_slot_fills_to_capacity(self, machine, classes, want):
        """x -> a, b, c, all due at 5: each pool fills its latest slot up
        to its capacity, then the slot below."""
        graph = DependenceGraph()
        graph.add_node("x")
        for name, cls in zip("abc", classes):
            graph.add_node(name, fu_class=cls)
            graph.add_edge("x", name, 0)
        deadlines = dict.fromkeys("abc", 5)
        assert compute_ranks(graph, deadlines, machine)["x"] == want
        with closed_form_off():
            assert compute_ranks(graph, deadlines, machine)["x"] == want


class TestSingleUnitPool:
    """A single unit is one pool for every class, in the closed form and in
    _BackwardSlots alike."""

    @pytest.mark.parametrize("b_class", [FIXED, FLOAT])
    def test_multicycle_descendants_share_the_unit(self, b_class):
        """x -> a (fixed, 2 cycles), b: a and b need three cycles of the one
        unit, so x must complete by 7 whatever b's class is."""
        graph = DependenceGraph()
        graph.add_node("x")
        graph.add_node("a", exec_time=2, fu_class=FIXED)
        graph.add_node("b", fu_class=b_class)
        graph.add_edge("x", "a", 0)
        graph.add_edge("x", "b", 0)
        deadlines = {"x": 50, "a": 10, "b": 10}
        machine = single_unit_machine()
        assert compute_ranks(graph, deadlines, machine)["x"] == 7
        assert RankEngine(graph, deadlines, machine).ranks["x"] == 7


#: The RankEngine calls that change an engine's state, or make an engine.
ENGINE_STEPS = ("__init__", "carried_into", "set_deadlines", "restore", "shift")


@contextmanager
def per_step_oracle():
    """Check every :class:`RankEngine` step the code under test takes.

    After each construction (a trusted ``ranks=`` seed included, except the
    one :meth:`RankEngine.carried_into` makes before it re-ranks the new
    nodes), each ``set_deadlines``, ``carried_into``, ``restore`` and
    ``shift``, the engine's ranks must equal ``compute_ranks`` on its own
    deadlines.  Yields a :class:`Counter` of the checks made per step."""
    real = {name: getattr(RankEngine, name) for name in ENGINE_STEPS}
    checks: Counter = Counter()
    carrying = [0]

    def check(step, engine):
        want = compute_ranks(engine.graph, engine.deadlines, engine.machine)
        assert engine.ranks == want, f"RankEngine.{step} left stale ranks"
        checks[step] += 1

    def init(self, *args, **kwargs):
        real["__init__"](self, *args, **kwargs)
        if not carrying[0]:
            check("__init__", self)

    def carried_into(self, *args, **kwargs):
        carrying[0] += 1
        try:
            engine = real["carried_into"](self, *args, **kwargs)
        finally:
            carrying[0] -= 1
        check("carried_into", engine)
        return engine

    def in_place(step):
        def method(self, *args, **kwargs):
            real[step](self, *args, **kwargs)
            check(step, self)

        return method

    with mock.patch.multiple(
        RankEngine,
        __init__=init,
        carried_into=carried_into,
        set_deadlines=in_place("set_deadlines"),
        restore=in_place("restore"),
        shift=in_place("shift"),
    ):
        yield checks


@pytest.fixture
def rank_oracle():
    with per_step_oracle() as checks:
        yield checks


def pipeline_trace(seed):
    """The mixed corpus: 1-5 blocks, some with multi-cycle nodes and
    latencies up to 3, on one unit or a two-unit universal pool."""
    rng = random.Random(seed)
    kwargs = dict(
        num_blocks=rng.randint(1, 5),
        block_size=rng.randint(1, 10),
        edge_probability=rng.choice([0.2, 0.4]),
        cross_probability=rng.choice([0.0, 0.15]),
        seed=seed,
    )
    if seed % 3 == 0:
        kwargs["latencies"] = (0, 1, 2, 3)
        kwargs["exec_times"] = (1, 2)
    trace = random_trace(**kwargs)
    machine = (
        single_unit_machine(window_size=rng.choice([2, 4]))
        if seed % 2
        else MachineModel(window_size=4, fu_counts={"any": 2}, issue_width=2)
    )
    return trace, machine


def typed_trace(seed):
    """Typed classes (fixed, float, memory) with latencies 0/2/4."""
    return random_trace(
        num_blocks=3,
        block_size=(4, 10),
        edge_probability=0.25,
        cross_probability=0.1,
        latencies=(0, 2, 4),
        fu_classes=(FIXED, FLOAT, MEMORY),
        seed=seed,
    )


class TestPipelineBitIdentity:
    """Algorithm Lookahead and the per-block baseline under the per-step
    oracle: every engine step of every merge, idle-slot trial and carry."""

    @pytest.mark.parametrize("seed", range(12))
    def test_lookahead_incremental_matches_oracle(self, seed, rank_oracle):
        trace, machine = pipeline_trace(seed)
        algorithm_lookahead(trace, machine)
        assert rank_oracle["__init__"] == 2  # the first block's two engines
        assert rank_oracle["carried_into"] == 2 * (trace.num_blocks - 1)
        local_block_orders(trace, machine)
        # local_block_orders seeds one engine per block from its ranks.
        assert rank_oracle["__init__"] == 2 + trace.num_blocks

    @pytest.mark.parametrize("machine", [WIDE_VLIW, RS6000_LIKE],
                             ids=["wide_vliw", "rs6000"])
    @pytest.mark.parametrize("seed", range(8))
    def test_typed_units_incremental_matches_oracle(
        self, machine, seed, rank_oracle
    ):
        """Typed classes on two units per class (``WIDE_VLIW``) or one
        (``RS6000_LIKE``), with latencies 0/2/4."""
        algorithm_lookahead(typed_trace(seed), machine)
        assert rank_oracle["set_deadlines"] > 0

    @pytest.mark.parametrize("shape", sorted(WORK_COUNT_SHAPES))
    def test_work_count_corpus(self, shape, rank_oracle):
        """``test_work_counts.py``'s two corpora, whose merges relax
        deadlines (``paper_core``) and whose failed idle-slot trials
        restore snapshots (``wide_vliw``)."""
        machine, kwargs = WORK_COUNT_SHAPES[shape]
        for seed in WORK_COUNT_SEEDS:
            algorithm_lookahead(random_trace(seed=seed, **kwargs), machine)
        assert all(rank_oracle[step] for step in ENGINE_STEPS[:4])

    @pytest.mark.parametrize("seed", range(10))
    def test_tardiness_search(self, seed, rank_oracle):
        """``test_tardiness.py``'s brute-force cases: each probe shifts the
        engine seeded from the lenient schedule's ranks."""
        minimize_tardiness(*tardiness_instance(seed))
        assert rank_oracle["__init__"] == 1
        assert rank_oracle["shift"] >= 2

    @settings(max_examples=150, deadline=None)
    @given(delay_instances())
    def test_delay_idle_slots(self, instance):
        """``test_idle.py``'s schedules, unit after unit with one engine,
        as Algorithm Lookahead runs Delay_Idle_Slots."""
        schedule, deadlines, machine = instance
        d = fill_deadlines(schedule.graph, deadlines)
        with per_step_oracle():
            engine = RankEngine(schedule.graph, d, machine)
            for unit in machine.unit_names():
                schedule, d = delay_idle_slots(
                    schedule, d, machine, unit, engine=engine
                )


class TestEngineOwnsDeadlines:
    """The deadline maps merge and Delay_Idle_Slots return are copies of
    their engine's map: equal to it when returned, and left as they were
    while the engine moves on."""

    @pytest.mark.parametrize(
        "trace,machine",
        [pipeline_trace(seed) for seed in range(12)]
        + [(typed_trace(seed), WIDE_VLIW) for seed in range(4)],
        ids=[f"mixed{seed}" for seed in range(12)]
        + [f"typed{seed}" for seed in range(4)],
    )
    def test_returned_maps_copy_the_engine(self, trace, machine):
        returned = []

        def merge(*args, **kwargs):
            result = real_merge(*args, **kwargs)
            assert result.deadlines == result.engine.deadlines
            assert result.deadlines is not result.engine.deadlines
            assert result.engine is kwargs["carry"].constrained
            returned.append((result.deadlines, dict(result.deadlines)))
            return result

        def delay(*args, engine, **kwargs):
            schedule, deadlines = real_delay(*args, engine=engine, **kwargs)
            assert deadlines == engine.deadlines
            assert deadlines is not engine.deadlines
            returned.append((deadlines, dict(deadlines)))
            return schedule, deadlines

        real_merge, real_delay = lookaheadmod.merge, lookaheadmod.delay_idle_slots
        with mock.patch.object(lookaheadmod, "merge", merge), \
                mock.patch.object(lookaheadmod, "delay_idle_slots", delay):
            algorithm_lookahead(trace, machine)
        assert len(returned) >= trace.num_blocks
        assert all(kept == copy for kept, copy in returned)


class TestRankOncePerDelayCall:
    def find_idle_instance(self):
        """A single-unit schedule with at least one movable idle slot."""
        for seed in range(50):
            graph = random_dag(12, edge_probability=0.35, latencies=(0, 1, 2),
                               seed=seed)
            machine = single_unit_machine()
            sched = minimum_makespan_schedule(graph, machine)
            if sched.idle_times(SINGLE_UNIT):
                return graph, machine, sched
        pytest.skip("no idle instance found")  # pragma: no cover

    def test_at_most_one_full_rank_compute_per_delay_call(self):
        graph, machine, sched = self.find_idle_instance()
        d = makespan_deadlines(sched)
        with recording(TraceRecorder(sim_events=False)) as rec:
            delay_idle_slots(sched, d, machine)
        trials = rec.counters.get("idle.trials", 0)
        full_ranks = rec.span_stats().get("rank", (0, 0.0))[0]
        assert trials >= 1  # the instance actually exercised the loop
        # One from-scratch compute seeds the engine; every trial after that
        # must go through incremental updates only.
        assert full_ranks <= 1
        assert rec.counters.get("rank.engine.updates", 0) >= trials


class TestFillDeadlinesValidation:
    def test_unknown_names_raise(self):
        graph = random_dag(4, seed=0)
        with pytest.raises(ValueError, match="unknown nodes"):
            fill_deadlines(graph, {"missing_a": 1, "missing_b": 2})

    def test_known_names_fill(self):
        graph = random_dag(4, seed=0)
        node = graph.nodes[0]
        out = fill_deadlines(graph, {node: 3})
        assert out[node] == 3
        assert set(out) == set(graph.nodes)


class TestLookaheadResultField:
    def test_final_suffix_order_is_internal(self):
        trace = random_trace(2, 4, seed=0)
        result = algorithm_lookahead(trace)
        assert "_final_suffix_order" not in repr(result)
        import inspect

        params = inspect.signature(LookaheadResult.__init__).parameters
        assert "_final_suffix_order" not in params
