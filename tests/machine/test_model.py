"""Unit tests for machine models."""

import dataclasses
import pickle

import pytest

from repro.ir import ANY, BRANCH, FIXED, FLOAT, MEMORY, graph_from_edges
from repro.machine import (
    MachineModel,
    NO_LOOKAHEAD,
    PAPER_CORE,
    RS6000_LIKE,
    WIDE_VLIW,
    in_order_machine,
    paper_machine,
    single_unit_machine,
)


class TestValidation:
    def test_window_size(self):
        with pytest.raises(ValueError, match="window_size"):
            MachineModel(window_size=0)

    def test_needs_units(self):
        with pytest.raises(ValueError, match="at least one"):
            MachineModel(window_size=2, fu_counts={})

    def test_unit_count_positive(self):
        with pytest.raises(ValueError, match="count"):
            MachineModel(window_size=2, fu_counts={ANY: 0})

    def test_issue_width_positive(self):
        with pytest.raises(ValueError, match="issue_width"):
            MachineModel(window_size=2, issue_width=0)


class TestUnits:
    def test_single_unit_properties(self):
        m = single_unit_machine(4)
        assert m.is_single_unit
        assert m.total_units == 1
        assert m.unit_names() == [(ANY, 0)]

    def test_units_for_any_runs_anywhere(self):
        m = MachineModel(window_size=2, fu_counts={FIXED: 2, MEMORY: 1})
        assert len(m.units_for(ANY)) == 3

    def test_typed_instruction_units(self):
        m = MachineModel(window_size=2, fu_counts={FIXED: 2, ANY: 1})
        units = m.units_for(FIXED)
        # Its own class plus the universal unit.
        assert ((FIXED, 0) in units and (FIXED, 1) in units)
        assert (ANY, 0) in units

    def test_can_execute(self):
        m = MachineModel(window_size=2, fu_counts={FIXED: 1})
        g_ok = graph_from_edges([], nodes=["a"], fu_classes={"a": FIXED})
        g_bad = graph_from_edges([], nodes=["a"], fu_classes={"a": FLOAT})
        assert m.can_execute(g_ok)
        assert not m.can_execute(g_bad)


class TestUnitTables:
    """The unit tables are derived once per machine, so nothing a caller
    holds may change them afterwards."""

    def test_passed_counts_are_copied(self):
        counts = {ANY: 1}
        m = MachineModel(fu_counts=counts)
        counts[ANY] = 2
        assert m.fu_counts == {ANY: 1}
        assert m.total_units == 1
        assert m.unit_names() == [(ANY, 0)]
        assert m.units_for(FIXED) == [(ANY, 0)]

    def test_returned_lists_are_fresh(self):
        m = MachineModel(window_size=2, fu_counts={FIXED: 2, ANY: 1})
        m.unit_names().append((FLOAT, 0))
        m.units_for(FIXED).clear()
        m.units_for(ANY).pop()
        assert m.unit_names() == [(ANY, 0), (FIXED, 0), (FIXED, 1)]
        assert m.units_for(FIXED) == [(ANY, 0), (FIXED, 0), (FIXED, 1)]
        assert m.units_for(ANY) == m.unit_names()

    def test_unlisted_class_runs_on_universal_units(self):
        m = MachineModel(window_size=2, fu_counts={FIXED: 2, ANY: 1})
        assert m.units_for(FLOAT) == [(ANY, 0)]
        assert MachineModel(fu_counts={FIXED: 1}).units_for(FLOAT) == []

    def test_capacity(self):
        m = MachineModel(window_size=2, fu_counts={FIXED: 2, MEMORY: 1, ANY: 1})
        assert m.capacity(ANY) == 4
        assert m.capacity(FIXED) == 3
        assert m.capacity(MEMORY) == 2
        assert m.capacity(FLOAT) == 1
        assert MachineModel(fu_counts={FIXED: 1}).capacity(FLOAT) == 1
        assert MachineModel(fu_counts={FIXED: 2}).capacity(FLOAT) == 0

    @pytest.mark.parametrize(
        "copy",
        [
            lambda m: pickle.loads(pickle.dumps(m)),
            lambda m: dataclasses.replace(m),
            lambda m: dataclasses.replace(m, window_size=3),
            lambda m: m.with_window(5),
        ],
        ids=["pickle", "replace", "replace-window", "with_window"],
    )
    def test_tables_survive_copies(self, copy):
        m = MachineModel(window_size=2, fu_counts={FIXED: 2, ANY: 1}, issue_width=2)
        c = copy(m)
        assert c.fu_counts == m.fu_counts
        assert c.unit_names() == m.unit_names()
        assert c.units_for(FIXED) == m.units_for(FIXED)
        assert c.units_for(FLOAT) == m.units_for(FLOAT)
        assert c.capacity(FIXED) == m.capacity(FIXED)
        assert c.total_units == 3
        assert c.issue_width == 2


class TestPresets:
    def test_paper_core(self):
        assert PAPER_CORE.is_single_unit
        assert PAPER_CORE.window_size == 4

    def test_no_lookahead(self):
        assert NO_LOOKAHEAD.window_size == 1
        assert in_order_machine().window_size == 1

    def test_rs6000_shape(self):
        assert RS6000_LIKE.fu_counts[BRANCH] == 1
        assert RS6000_LIKE.total_units == 4

    def test_wide_vliw(self):
        assert WIDE_VLIW.total_units == 7

    def test_paper_machine_factory(self):
        assert paper_machine(9).window_size == 9
        assert paper_machine(9).is_single_unit
