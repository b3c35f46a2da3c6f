"""The Rank Algorithm (Palem & Simons, TOPLAS'93) and its generalizations.

The Rank Algorithm schedules a dependence DAG with deadlines on a single
functional unit.  It is *optimal* (minimum makespan, and minimum tardiness
under deadlines) for unit execution times and 0/1 latencies; this library also
uses it, per paper §4.2, as a heuristic for longer latencies, non-unit
execution times and multiple functional units.

The algorithm (paper §2.1):

1. compute the *rank* of every node — an upper bound on its completion time
   if the node and all of its descendants are to complete by their deadlines;
2. build a priority list of the nodes in nondecreasing rank order;
3. run greedy list scheduling on that list.

Rank computation (validated against every number in the paper's §2 examples):
process nodes in reverse topological order; for node x, *backward-schedule*
all of x's descendants, placing each descendant y — largest rank first — at
the latest free completion slot ≤ rank(y) (one node per time step per unit;
non-unit execution times occupy ``exec_time`` consecutive slots, the §4.2
"insert whole" variant).  Then::

    rank(x) = min( d(x),
                   min over descendants y of start(y),                 # x precedes all
                   min over immediate successors y of
                       start(y) - latency(x, y) )                      # latency gap

where start(y) is y's start time in the backward schedule.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Iterable, Mapping, Sequence

from ..ir.depgraph import DependenceGraph
from ..machine.model import MachineModel, single_unit_machine
from ..obs import recorder as obs
from .schedule import Schedule, Unit


def default_deadline(graph: DependenceGraph) -> int:
    """A deadline large enough never to constrain any schedule: total work
    plus total latency (an upper bound on any greedy makespan).  Cached per
    graph revision."""
    deadline = graph.analysis_cache.get("default_deadline")
    if deadline is None:
        total = sum(graph.exec_time(n) for n in graph.nodes)
        total += sum(lat for _, _, lat in graph.edges())
        deadline = graph.analysis_cache["default_deadline"] = max(total, 1)
    return deadline


def fill_deadlines(
    graph: DependenceGraph,
    deadlines: Mapping[str, int] | None = None,
    default: int | None = None,
) -> dict[str, int]:
    """Complete a (possibly partial) deadline map with the artificial large
    deadline for unconstrained nodes (paper: "All nodes are given the same
    very large number as an artificial deadline").

    Raises :class:`ValueError` when ``deadlines`` names nodes that are not in
    ``graph`` — a typo'd instruction name in a user-supplied deadline map
    must not be silently ignored.
    """
    if default is None:
        default = default_deadline(graph)
    out = {n: default for n in graph.nodes}
    if deadlines:
        unknown = [n for n in deadlines if n not in out]
        if unknown:
            raise ValueError(
                f"deadlines name unknown nodes: {', '.join(sorted(unknown))}"
            )
        for n, d in deadlines.items():
            out[n] = d
    return out


class _BackwardSlots:
    """Latest-fit slot allocator for the backward schedule.

    Tracks occupied completion-time slots per unit pool
    (:meth:`MachineModel.pool`: one pool on a single-unit machine, else one
    per class, a heuristic in the multi-unit case) up to the pool's
    capacity, and scans down from the bound for the latest window of free
    slots.  :func:`_node_rank` places unit-time graphs in closed form; this
    allocator serves graphs with a multi-cycle node and
    :func:`repro.core.general.compute_ranks_split`, and is the reference
    the closed form is tested against.
    """

    def __init__(self, machine: MachineModel) -> None:
        self._machine = machine
        self._used: dict[str, dict[int, int]] = {}

    def place(self, fu_class: str, exec_time: int, latest: int) -> int:
        """Occupy ``exec_time`` consecutive slots completing no later than
        ``latest``; return the completion time chosen (may be ≤ 0 when the
        instance is infeasible — feasibility is judged later by the forward
        greedy pass).  A class the machine has no unit for raises
        ``ValueError``, as in :func:`list_schedule`."""
        pool = self._machine.pool(fu_class)
        cap = self._machine.capacity(pool)
        if cap == 0:
            raise ValueError("machine lacks a functional unit for some instruction")
        used = self._used.setdefault(pool, {})
        end = latest
        # Every slot below the lowest occupied one is free, so the scan ends
        # whatever ``latest`` is.
        while True:
            window = range(end - exec_time + 1, end + 1)
            if all(used.get(t, 0) < cap for t in window):
                for t in window:
                    used[t] = used.get(t, 0) + 1
                return end
            end -= 1


#: The closed form's pool table: each node's pool index, and per pool its
#: capacity minus one.  ``(0,)`` is one pool of one unit.
_Pools = tuple[dict[str, int], tuple[int, ...]]


def _unit_pools(graph: DependenceGraph, machine: MachineModel) -> _Pools | None:
    """The pool table of :func:`_node_rank`'s closed form, or None when some
    node takes more than one cycle (then :class:`_BackwardSlots` places).

    A single unit is every class's pool (:meth:`MachineModel.pool`), so the
    backward schedule alone would also rank a node that unit cannot run;
    a node whose class has no unit raises :func:`list_schedule`'s
    ``ValueError`` here instead, on every machine."""
    pool_of: dict[str, int] = {}
    spare: list[int] = []
    by_class: dict[str, int] = {}
    by_pool: dict[str, int] = {}
    unit_time = True
    for n in graph.nodes:
        cls = graph.fu_class(n)
        k = by_class.get(cls)
        if k is None:
            if not machine.units_for(cls):
                raise ValueError(
                    "machine lacks a functional unit for some instruction"
                )
            pool = machine.pool(cls)
            k = by_pool.get(pool)
            if k is None:
                k = by_pool[pool] = len(spare)
                spare.append(machine.capacity(pool) - 1)
            by_class[cls] = k
        pool_of[n] = k
        if graph.exec_time(n) != 1:
            unit_time = False
    return (pool_of, tuple(spare)) if unit_time else None


def _rank_tables(
    graph: DependenceGraph, machine: MachineModel
) -> tuple[_Pools | None, list[tuple[str, int]]]:
    """The tables every rank sweep of ``graph`` reads: the pool table
    (:func:`_unit_pools`) and the reverse topological order, each node with
    its :meth:`~DependenceGraph.node_index` bit.  Built once per graph and
    kept in ``graph.analysis_cache``, which every graph edit clears; the pool
    table is keyed by the machine's units, so another machine never reads
    it.  A class without a unit raises on every call (nothing is kept)."""
    cache = graph.analysis_cache
    rev_topo = cache.get("rank.rev_topo")
    if rev_topo is None:
        rev_topo = cache["rank.rev_topo"] = [
            (x, 1 << graph.node_index(x))
            for x in reversed(graph.topological_order())
        ]
    key = ("rank.pools", tuple(machine.unit_names()))
    if key in cache:
        pools = cache[key]
    else:
        pools = cache[key] = _unit_pools(graph, machine)
    return pools, rev_topo


def _node_rank(
    graph: DependenceGraph,
    machine: MachineModel,
    x: str,
    deadline: int,
    ranks: Mapping[str, int],
    pools: _Pools | None,
) -> int:
    """Rank of ``x`` given its deadline and the (already final) ranks of all
    of its descendants — the single-node step shared by the from-scratch
    :func:`compute_ranks` sweep and :class:`RankEngine`'s incremental
    recomputation, so the two paths are identical by construction.

    ``pools`` (from :func:`_unit_pools`) selects the closed-form backward
    schedule, valid whenever every node takes one cycle, on any machine:
    the same placements as :class:`_BackwardSlots`, each in O(1).  Placing
    descendants in nonincreasing rank order, keep per pool its lowest
    occupied slot ``low`` and the room left in it; the latest free slot
    ≤ rank(y) is rank(y) when rank(y) < ``low``, else ``low`` while it has
    room, else ``low − 1``.  Every slot below ``low`` is empty, and every
    slot in (``low``, r] is full, where r is the rank placed last (by
    induction over the placements); ranks never increase, so that covers
    (``low``, rank(y)].  On one pool of one unit this is
    ``min(rank(y), low − 1)``, which that case runs without the pool
    lists."""
    descendants = graph.descendants(x)
    if not descendants:
        return deadline
    rank = deadline
    order = sorted(descendants, key=ranks.__getitem__, reverse=True)
    succ = graph.successors(x)
    if pools is not None:
        pool_of, spare = pools
        if spare == (0,):
            end = ranks[order[0]] + 1
            for y in order:
                r_y = ranks[y]
                end = r_y if r_y < end else end - 1
                lat = succ.get(y)
                if lat is not None and end - 1 - lat < rank:
                    rank = end - 1 - lat
            return end - 1 if end - 1 < rank else rank
        lows = [ranks[order[0]] + 1] * len(spare)
        room = [0] * len(spare)
        for y in order:
            r_y = ranks[y]
            k = pool_of[y]
            end = lows[k]
            if r_y < end:
                end = lows[k] = r_y
                room[k] = spare[k]
            elif room[k]:
                room[k] -= 1
            else:
                end = lows[k] = end - 1
                room[k] = spare[k]
            lat = succ.get(y)
            if lat is not None and end - 1 - lat < rank:
                rank = end - 1 - lat
        earliest = min(lows) - 1
        return earliest if earliest < rank else rank
    starts: dict[str, int] = {}
    slots = _BackwardSlots(machine)
    for y in order:
        end = slots.place(graph.fu_class(y), graph.exec_time(y), ranks[y])
        starts[y] = end - graph.exec_time(y)
    rank = min(rank, min(starts.values()))
    for y, lat in succ.items():
        gap = starts[y] - lat
        if gap < rank:
            rank = gap
    return rank


def compute_ranks(
    graph: DependenceGraph,
    deadlines: Mapping[str, int] | None = None,
    machine: MachineModel | None = None,
) -> dict[str, int]:
    """Compute the rank of every node (see module docstring).

    ``deadlines`` may be partial; missing nodes get the artificial large
    deadline.  Ranks never exceed deadlines and may go non-positive on
    infeasible instances.

    Each node's backward schedule (:func:`_node_rank`) places its
    descendants by rank alone, largest first, ties in program order; it
    ignores the edges among the descendants and which of them are x's
    direct successors.  That rule is not exact under deadlines: on some
    5-node unit-time DAGs with 0/1 latencies it gives ranks that call a
    feasible instance infeasible (ROADMAP item 7, open).
    """
    machine = machine or single_unit_machine()
    with obs.span("rank", nodes=len(graph)):
        d = fill_deadlines(graph, deadlines)
        ranks: dict[str, int] = {}
        pools, rev_topo = _rank_tables(graph, machine)
        for x, _ in rev_topo:
            ranks[x] = _node_rank(graph, machine, x, d[x], ranks, pools)
        return ranks


class RankEngine:
    """Incremental rank maintenance over a fixed graph and machine.

    rank(x) is a function of d(x) and of the ranks of x's descendants alone
    (see :func:`_node_rank`), so after a deadline change on a node set S only
    S and its ancestors can change rank — everything else is provably
    untouched.  The engine keeps the current deadline map and rank map and,
    on :meth:`set_deadlines`, re-runs the per-node backward schedule only
    over that affected set, in reverse topological order, additionally
    skipping any affected node none of whose descendants actually changed
    rank.  The result is always bit-identical to a from-scratch
    :func:`compute_ranks` on the current deadlines
    (``tests/core/test_rank_fastpath.py`` checks it after every engine call
    the pipeline makes).

    Two further fast paths exploit that ranks commute with uniform deadline
    shifts (rank(d + c) = rank(d) + c — the placement algorithm is
    translation invariant): :meth:`shift` adjusts every deadline and rank in
    O(n), and :meth:`carried_into` transplants the engine onto a *larger*
    graph (e.g. Procedure Merge's "old suffix ∪ new block" graph), seeding
    carried nodes with their shifted ranks and sweeping only the new nodes
    and their ancestors.  Carrying is sound only when the carried node set is
    descendant-closed in the source graph (every descendant of a carried
    node was carried too) — true for chop suffixes by construction, since a
    dependence successor never starts earlier.

    Shift invariance also holds on a descendant-closed *block* N of the
    graph, since N's ranks depend on N's deadlines alone: when every
    deadline in N moves by c, every rank in N moves by c.  Procedure Merge
    knows such a block's ranks in advance — a new block, from the
    lower-bound chain's ranks (``carried_into(block_ranks=)``), and that
    block after a +1 relaxation (:meth:`raise_block`) — so N is never
    re-ranked, and an ancestor x ∉ N keeps its rank with no backward
    schedule when the block cannot bind it (:meth:`_block_slots`):

    (a) no descendant of x outside N changed rank in this update;
    (b) N's own latest-fit placement (per pool, largest rank first, the
        closed form of :func:`_node_rank`) puts every node of N in a slot
        above every rank outside N;
    (c) each direct successor y ∈ N has slot(y) − 1 − lat(x, y) ≥ rank(x).

    In x's backward schedule N's nodes then come first, each in a slot no
    lower than in N's own placement (a subsequence's latest-fit slots never
    are), so N neither moves x's other placements nor sets a term below
    rank(x).  In a relaxation x's rank already includes N, so (b) and (c)
    must hold strictly, on the slots before the raise: then rank(x) is set
    by the rest of its descendants, which the raise leaves alone.  The
    bound needs the closed form (unit execution times); without it every
    ancestor of N re-ranks.  ``docs/PERFORMANCE.md`` gives the proof.

    :meth:`snapshot` and :meth:`restore` save and put back the whole
    state, for a caller that tries deadline changes and may undo them.

    Counters (when an :mod:`repro.obs` recorder is active):

    - ``rank.engine.full`` — from-scratch initializations;
    - ``rank.engine.updates`` — incremental updates that changed at least
      one deadline or added a node;
    - ``rank.engine.reranked`` — nodes whose backward schedule was re-run;
    - ``rank.engine.reused`` — per update, the nodes not re-ranked; a
      :meth:`set_deadlines` call that changes nothing, or a
      :meth:`carried_into` that adds no node, counts the whole graph.
    """

    def __init__(
        self,
        graph: DependenceGraph,
        deadlines: Mapping[str, int] | None = None,
        machine: MachineModel | None = None,
        *,
        ranks: Mapping[str, int] | None = None,
    ) -> None:
        self.graph = graph
        self.machine = machine or single_unit_machine()
        self._deadlines = fill_deadlines(graph, deadlines)
        self._pools, self._rev_topo = _rank_tables(graph, self.machine)
        if ranks is not None:
            # Trusted seed: must equal compute_ranks(graph, deadlines,
            # machine).  Used to make engine construction free when the
            # caller just ran the from-scratch path (or shifted it).
            self._ranks = dict(ranks)
        else:
            self._ranks = compute_ranks(graph, self._deadlines, self.machine)
            obs.count("rank.engine.full")

    @property
    def deadlines(self) -> dict[str, int]:
        """The current deadline map (live — treat as read-only)."""
        return self._deadlines

    @property
    def ranks(self) -> dict[str, int]:
        """The current rank map (live — treat as read-only)."""
        return self._ranks

    def schedule(self) -> Schedule | None:
        """The Rank Algorithm's schedule under the current deadlines, from
        the engine's own ranks (ties in program order), or None at the first
        node that misses its deadline, as :func:`rank_schedule`."""
        return list_schedule(
            self.graph,
            rank_priority_list(self.graph, self._ranks),
            self.machine,
            self._deadlines,
        )

    def set_deadlines(self, updates: Mapping[str, int]) -> None:
        """Apply deadline changes and incrementally restore rank
        consistency.  ``updates`` may cover any subset of the nodes
        (unchanged entries are ignored); unknown names raise
        :class:`ValueError` as in :func:`fill_deadlines`."""
        self._check_known(updates)
        dirty = {
            n for n, v in updates.items() if self._deadlines[n] != v
        }
        for n in dirty:
            self._deadlines[n] = updates[n]
        self._update(dirty, frozenset())

    def snapshot(self) -> tuple[dict[str, int], dict[str, int]]:
        """Copies of the current deadline and rank maps, for :meth:`restore`."""
        return dict(self._deadlines), dict(self._ranks)

    def restore(self, state: tuple[dict[str, int], dict[str, int]]) -> None:
        """Put back a :meth:`snapshot` of this engine, in place: the live
        maps callers hold see the restored values.  Exact because the
        snapshot's ranks are those of its deadlines."""
        deadlines, ranks = state
        self._deadlines.update(deadlines)
        self._ranks.update(ranks)

    def shift(self, delta: int) -> None:
        """Uniformly shift every deadline (and hence every rank) by
        ``delta`` — O(n), no backward scheduling."""
        if delta == 0:
            return
        for n in self._deadlines:
            self._deadlines[n] += delta
            self._ranks[n] += delta

    def carried_into(
        self,
        graph: DependenceGraph,
        *,
        shift: int = 0,
        fill: int | None = None,
        block_ranks: Mapping[str, int] | None = None,
    ) -> "RankEngine":
        """A new engine over ``graph``, seeded from this one.

        Nodes shared with this engine carry their deadline and rank shifted
        by ``shift``; nodes new to ``graph`` get deadline ``fill`` (the
        artificial default when None) and are recomputed along with their
        ancestors.  Nodes of this engine absent from ``graph`` are dropped.
        Sound only when the carried set is descendant-closed in the source
        graph (see class docstring).

        ``block_ranks``, when given, are the new nodes' ranks under
        ``fill`` — a trusted seed, as the constructor's ``ranks=`` is.  When
        the new nodes form a descendant-closed block of ``graph`` (a new
        block in Procedure Merge: no edge leaves a later block) they keep
        those ranks, and their ancestors re-rank under the block bound (see
        class docstring); otherwise ``block_ranks`` is not read."""
        if fill is None:
            fill = default_deadline(graph)
        deadlines: dict[str, int] = {}
        seed_ranks: dict[str, int] = {}
        new_nodes: list[str] = []
        for n in graph.nodes:
            old = self._ranks.get(n)
            if old is not None:
                deadlines[n] = self._deadlines[n] + shift
                seed_ranks[n] = old + shift
            else:
                deadlines[n] = fill
                new_nodes.append(n)
        engine = RankEngine(
            graph, deadlines, self.machine, ranks=seed_ranks
        )
        obs.count("rank.engine.carried")
        mask = engine._closed_mask(new_nodes) if block_ranks else None
        if mask:
            for n in new_nodes:
                engine._ranks[n] = block_ranks[n]
            slots = engine._block_slots(new_nodes, strict=False)
            engine._update_block(new_nodes, mask, slots, strict=False)
        else:
            engine._update(frozenset(), set(new_nodes))
        return engine

    def raise_block(self, nodes: Iterable[str]) -> None:
        """Raise the deadline of every node in ``nodes`` by one, as
        Procedure Merge's relaxation does to the new block.  When ``nodes``
        is descendant-closed, each of their ranks rises by one with no
        backward schedule and their ancestors re-rank under the block bound
        (see class docstring); otherwise this is :meth:`set_deadlines` of
        the raised deadlines.  Unknown names raise :class:`ValueError`."""
        block = list(dict.fromkeys(nodes))
        self._check_known(block)
        mask = self._closed_mask(block)
        if not mask:
            self.set_deadlines({n: self._deadlines[n] + 1 for n in block})
            return
        slots = self._block_slots(block, strict=True)
        for n in block:
            self._deadlines[n] += 1
            self._ranks[n] += 1
        self._update_block(block, mask, slots, strict=True)

    def _check_known(self, names: Iterable[str]) -> None:
        """Raise :class:`ValueError`, as :func:`fill_deadlines` does, when
        ``names`` holds a node this engine does not have."""
        unknown = [n for n in names if n not in self._deadlines]
        if unknown:
            raise ValueError(
                f"deadlines name unknown nodes: {', '.join(sorted(unknown))}"
            )

    def _closed_mask(self, block: list[str]) -> int | None:
        """The bitset of ``block`` when no edge leaves it (it holds every
        descendant of its nodes), else None."""
        graph = self.graph
        mask = 0
        for y in block:
            mask |= 1 << graph.node_index(y)
        for y in block:
            if graph.reachability_row(y) & ~mask:
                return None
        return mask

    def _block_slots(self, block: list[str], strict: bool) -> dict[str, int] | None:
        """Bound (b) of the class docstring: each node of ``block`` with its
        completion slot in the block's own latest-fit placement (per pool,
        largest rank first, ties in program order: :func:`_node_rank`'s
        closed form), when every slot lies above every rank outside the
        block — by more than one when ``strict`` — else None.  None as well
        without the closed form."""
        ranks = self._ranks
        inside = set(block)
        top = max((r for n, r in ranks.items() if n not in inside), default=None)
        if self._pools is None or top is None:
            return None
        pool_of, spare = self._pools
        index = self.graph.node_index
        order = sorted(block, key=lambda y: (-ranks[y], index(y)))
        lows = [ranks[order[0]] + 1] * len(spare)
        room = [0] * len(spare)
        slots: dict[str, int] = {}
        for y in order:
            k = pool_of[y]
            if ranks[y] < lows[k]:
                lows[k] = ranks[y]
                room[k] = spare[k]
            elif room[k]:
                room[k] -= 1
            else:
                lows[k] -= 1
                room[k] = spare[k]
            slots[y] = lows[k]
        return slots if min(lows) - strict > top else None

    def _update_block(
        self,
        block: list[str],
        mask: int,
        slots: dict[str, int] | None,
        strict: bool,
    ) -> None:
        """Re-rank the ancestors of ``block`` (bitset ``mask``), a
        descendant-closed node set whose ranks are already right.  An
        ancestor x is skipped when no descendant of x outside the block
        changed rank (bound (a)) and, with ``slots`` from
        :meth:`_block_slots` (bound (b)), every direct successor y in the
        block has slot(y) − 1 − lat(x, y) ≥ rank(x), strictly when
        ``strict`` (bound (c))."""
        graph = self.graph
        ranks = self._ranks
        affected = 0
        for y in block:
            affected |= graph.ancestor_row(y)
        affected &= ~mask
        changed = 0  # nodes outside the block whose rank changed
        reranked = 0
        with obs.span("rank.incremental", nodes=(affected | mask).bit_count()):
            for x, bit in self._rev_topo:
                if not affected & bit:
                    continue
                if slots is not None and not changed & graph.reachability_row(x):
                    r_x = ranks[x]
                    for y, lat in graph.successors(x).items():
                        s = slots.get(y)
                        if s is not None and s - 1 - lat - strict < r_x:
                            break
                    else:
                        continue  # the block cannot bind x
                new_rank = _node_rank(
                    graph, self.machine, x, self._deadlines[x], ranks,
                    self._pools,
                )
                reranked += 1
                if new_rank != ranks[x]:
                    ranks[x] = new_rank
                    changed |= bit
        obs.count("rank.engine.updates")
        obs.count("rank.engine.reranked", reranked)
        obs.count("rank.engine.reused", len(graph) - reranked)

    def _update(self, dirty: set[str] | frozenset, new_nodes: set[str]) -> None:
        """Recompute ranks for ``dirty ∪ new_nodes`` and their ancestors.

        ``dirty`` nodes changed deadline; ``new_nodes`` have no rank yet and
        are always treated as changed so their ancestors re-rank."""
        seeds = dirty | new_nodes
        if not seeds:
            obs.count("rank.engine.reused", len(self.graph))
            return
        graph = self.graph
        affected = 0
        for s in seeds:
            affected |= graph.ancestor_row(s) | 1 << graph.node_index(s)
        changed = 0
        reranked = 0
        with obs.span("rank.incremental", nodes=affected.bit_count()):
            for x, bit in self._rev_topo:
                if not affected & bit:
                    continue
                if x not in seeds and not changed & graph.reachability_row(x):
                    continue  # deadline and all descendant ranks unchanged
                new_rank = _node_rank(
                    graph, self.machine, x, self._deadlines[x],
                    self._ranks, self._pools,
                )
                reranked += 1
                if x in new_nodes or new_rank != self._ranks.get(x):
                    self._ranks[x] = new_rank
                    changed |= bit
        obs.count("rank.engine.updates")
        obs.count("rank.engine.reranked", reranked)
        obs.count("rank.engine.reused", len(graph) - reranked)


def list_schedule(
    graph: DependenceGraph,
    priority: Sequence[str],
    machine: MachineModel | None = None,
    deadlines: Mapping[str, int] | None = None,
) -> Schedule | None:
    """Greedy list scheduling: at each step issue ready instructions in
    priority-list order onto free compatible units (a unit is never left
    idle while a ready instruction could use it — the paper's greediness
    property), at most the issue width per step.

    Event-driven: a node whose predecessors have all issued waits in a heap
    keyed by its earliest start; time advances by one step while a ready
    node stays unissued, and otherwise jumps to the next release (no step in
    between can issue anything).  A machine of one unit (PAPER_CORE)
    schedules in :func:`_one_unit_schedule`, which jumps from one
    completion to the next; both paths raise the same errors.

    ``deadlines``, when given, must cover every node: scheduling then stops
    and returns None at the first node issued to complete after its
    deadline.  An issued start never changes, so the whole schedule would
    miss that deadline too (:meth:`Schedule.is_feasible` would say False)."""
    machine = machine or single_unit_machine()
    # Nodes are handled by their index in ``priority``; units by their index
    # in ``unit_list``.
    index = {n: i for i, n in enumerate(priority)}
    # No duplicate, and the same names as the graph.
    if len(index) != len(priority) or index.keys() != set(graph):
        raise ValueError("priority list must be a permutation of the graph nodes")
    unit_list = machine.unit_names()
    unit_index = {u: k for k, u in enumerate(unit_list)}
    class_units: dict[str, list[int]] = {}
    compatible: list[list[int]] = []
    for n in priority:
        cls = graph.fu_class(n)
        if cls not in class_units:
            class_units[cls] = [unit_index[u] for u in machine.units_for(cls)]
        compatible.append(class_units[cls])
    if not all(class_units.values()):
        raise ValueError("machine lacks a functional unit for some instruction")
    due = None if deadlines is None else [deadlines[n] for n in priority]
    if len(unit_list) == 1:
        return _one_unit_schedule(graph, priority, index, unit_list[0], due)

    npred = [len(graph.predecessors(n)) for n in priority]
    est = [0] * len(priority)  # earliest start allowed by issued predecessors
    released = [(0, i) for i, k in enumerate(npred) if k == 0]  # a heap
    ready: list[int] = []  # released, est <= time, unissued; in priority order
    unit_free_at = [0] * len(unit_list)
    width = machine.issue_width or machine.total_units
    starts: dict[str, int] = {}
    units: dict[str, Unit] = {}

    time = 0
    remaining = len(priority)
    while remaining:
        while released and released[0][0] <= time:
            insort(ready, heappop(released)[1])
        issued = 0
        blocked: list[int] = []
        for k, i in enumerate(ready):
            for u in compatible[i]:
                if unit_free_at[u] <= time:
                    break
            else:
                blocked.append(i)
                continue
            n = priority[i]
            starts[n] = time
            units[n] = unit_list[u]
            completion = time + graph.exec_time(n)
            if due is not None and completion > due[i]:
                return None
            unit_free_at[u] = completion
            # A successor's earliest start is past ``time`` (exec_time >= 1),
            # so nothing released here can issue in this step.
            for s, lat in graph.successors(n).items():
                j = index[s]
                if completion + lat > est[j]:
                    est[j] = completion + lat
                npred[j] -= 1
                if npred[j] == 0:
                    heappush(released, (est[j], j))
            issued += 1
            if issued >= width:
                blocked.extend(ready[k + 1:])
                break
        remaining -= issued
        ready = blocked
        if ready:
            time += 1
        elif released:
            time = released[0][0]
        elif remaining:  # no progress possible: a dependence cycle
            raise RuntimeError("list scheduling stalled (cyclic graph?)")
    return Schedule(graph, starts, units)


def _one_unit_schedule(
    graph: DependenceGraph,
    priority: Sequence[str],
    index: Mapping[str, int],
    unit: Unit,
    due: list[int] | None,
) -> Schedule | None:
    """:func:`list_schedule` on one unit, which can run every node.  The
    unit takes the first ready node in priority order as soon as it is free,
    so no step between one completion and the next can issue: ready nodes
    wait in a heap keyed by priority index, the others in a heap keyed by
    their earliest start, and time jumps to the completion (or, when nothing
    is ready, to the next earliest start)."""
    npred = [len(graph.predecessors(n)) for n in priority]
    est = [0] * len(priority)  # earliest start allowed by issued predecessors
    ready = [i for i, k in enumerate(npred) if k == 0]  # sorted, so a heap
    released: list[tuple[int, int]] = []  # (est, index) of the others
    starts: dict[str, int] = {}
    time = 0
    remaining = len(priority)
    while remaining:
        while released and released[0][0] <= time:
            heappush(ready, heappop(released)[1])
        if not ready:
            if not released:  # no progress possible: a dependence cycle
                raise RuntimeError("list scheduling stalled (cyclic graph?)")
            time = released[0][0]
            continue
        i = heappop(ready)
        n = priority[i]
        starts[n] = time
        time += graph.exec_time(n)
        if due is not None and time > due[i]:
            return None
        for s, lat in graph.successors(n).items():
            j = index[s]
            if time + lat > est[j]:
                est[j] = time + lat
            npred[j] -= 1
            if npred[j] == 0:
                if est[j] <= time:
                    heappush(ready, j)
                else:
                    heappush(released, (est[j], j))
        remaining -= 1
    return Schedule(graph, starts, dict.fromkeys(starts, unit))


def rank_priority_list(
    graph: DependenceGraph,
    ranks: Mapping[str, int],
    tie_break: str = "program",
) -> list[str]:
    """Nodes in nondecreasing rank order.

    The paper leaves the order among equal ranks free ("Suppose the
    ordering we choose is ..."), and the exact tie-breaking rule of the
    unpublished tech report [11] is not recoverable.  Two modes:

    - ``"program"`` (default): ties keep program order — this reproduces the
      orderings the paper's §2 walkthroughs pick, but fuzzing shows rare
      (≈0.2% of small random instances) +1-cycle losses where the tie hides
      a latency asymmetry;
    - ``"labels"``: ties broken by Bernstein-Gertner lexicographic labels
      (higher label = more urgent), which encode exactly that latency
      structure; optimal on the 0/1-latency test corpus, but still one
      cycle long on 15 of 40 004 random 8- and 9-node DAGs (pinned in
      ``tests/core/test_tie_breaking.py``).
    """
    if tie_break == "program":
        index = {n: i for i, n in enumerate(graph.nodes)}
        return sorted(graph.nodes, key=lambda n: (ranks[n], index[n]))
    if tie_break == "labels":
        labels = _lexicographic_labels(graph)
        return sorted(graph.nodes, key=lambda n: (ranks[n], -labels[n]))
    raise ValueError(f"unknown tie_break mode {tie_break!r}")


def _lexicographic_labels(graph: DependenceGraph) -> dict[str, int]:
    """Bernstein-Gertner latency-aware lexicographic labels (see
    :mod:`repro.schedulers.bernstein_gertner`), cached per graph revision."""
    cache = graph.analysis_cache
    labels = cache.get("bg_labels")
    if labels is None:
        n = len(graph)
        labels = {}
        index = {v: i for i, v in enumerate(graph.nodes)}
        for label in range(1, n + 1):
            candidates = [
                v
                for v in graph.nodes
                if v not in labels
                and all(s in labels for s in graph.successors(v))
            ]

            def key(v: str) -> tuple:
                seq = sorted(
                    ((labels[s], lat) for s, lat in graph.successors(v).items()),
                    reverse=True,
                )
                return (seq, index[v])

            labels[min(candidates, key=key)] = label
        cache["bg_labels"] = labels
    return labels


def rank_schedule(
    graph: DependenceGraph,
    deadlines: Mapping[str, int] | None = None,
    machine: MachineModel | None = None,
    tie_break: str = "program",
) -> tuple[Schedule | None, dict[str, int]]:
    """The full Rank Algorithm: ranks → priority list → greedy schedule.

    Returns ``(schedule, ranks)``; the schedule is ``None`` when the greedy
    schedule misses a deadline (the paper's "rank_alg cannot meet all
    deadlines ⇒ S = ∅"), found as soon as a node issues too late.  In the
    optimal regime (unit times, 0/1 latencies, single unit) the instance is
    feasible iff the returned schedule is not None, and the schedule has
    minimum makespan among deadline-feasible ones.  See
    :func:`rank_priority_list` for the ``tie_break`` caveat.  A caller
    that re-schedules after deadline changes keeps a :class:`RankEngine`
    and calls :meth:`RankEngine.schedule` instead.
    """
    machine = machine or single_unit_machine()
    full = fill_deadlines(graph, deadlines)
    ranks = compute_ranks(graph, full, machine)
    sched = list_schedule(
        graph, rank_priority_list(graph, ranks, tie_break), machine, full
    )
    return sched, ranks


def minimum_makespan_schedule(
    graph: DependenceGraph, machine: MachineModel | None = None
) -> Schedule:
    """Rank Algorithm with only the artificial deadline — a minimum-makespan
    schedule in the optimal regime, a strong heuristic otherwise."""
    sched, _ = rank_schedule(graph, None, machine)
    assert sched is not None  # unconstrained instances are always feasible
    return sched


def rank_schedule_lenient(
    graph: DependenceGraph,
    deadlines: Mapping[str, int] | None = None,
    machine: MachineModel | None = None,
) -> tuple[Schedule, dict[str, int], bool]:
    """Like :func:`rank_schedule` but always returns the greedy schedule,
    plus a flag telling whether it met every deadline.  Used by heuristic
    callers (paper §4.2) that need a best-effort schedule even when the
    deadline system is unsatisfiable."""
    machine = machine or single_unit_machine()
    full = fill_deadlines(graph, deadlines)
    ranks = compute_ranks(graph, full, machine)
    sched = list_schedule(graph, rank_priority_list(graph, ranks), machine)
    return sched, ranks, sched.is_feasible(full)
