"""Unit tests for the bit-parallel TPG state and implication engine."""

import pytest

from repro.circuit import CircuitBuilder
from repro.circuit.library import c17, paper_example
from repro.core.state import SEVEN_VALUED, THREE_VALUED, TpgState
from repro.logic import three_valued as tv
from repro.logic import seven_valued as sv


def and_or_circuit():
    b = CircuitBuilder("tiny")
    b.inputs("a", "b", "c")
    b.and_("g", "a", "b")
    b.or_("y", "g", "c")
    b.outputs("y")
    return b.build()


class TestAssign:
    def test_assign_merges_and_reports_change(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 4)
        a = c.index_of("a")
        assert st.assign(a, tv.encode_word(1, 0b0011))
        assert not st.assign(a, tv.encode_word(1, 0b0001))  # no new bits
        assert st.assign(a, tv.encode_word(1, 0b0100))
        assert st.planes[a] == (0, 0b0111)

    def test_conflict_mask_and_site(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 2)
        a = c.index_of("a")
        st.assign(a, tv.encode_word(1, 0b01))
        st.assign(a, tv.encode_word(0, 0b01))
        assert st.conflict_mask == 0b01
        assert st.conflict_sites[0] == a

    def test_width_masking(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 2)
        a = c.index_of("a")
        st.assign(a, (0, 0b1111))  # bits beyond width are dropped
        assert st.planes[a] == (0, 0b11)


class TestImply:
    def test_forward_propagation(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 1)
        st.assign(c.index_of("a"), tv.encode(1))
        st.assign(c.index_of("b"), tv.encode(1))
        st.assign(c.index_of("c"), tv.encode(0))
        st.imply()
        assert tv.decode_lane(st.planes[c.index_of("g")], 0) == "1"
        assert tv.decode_lane(st.planes[c.index_of("y")], 0) == "1"

    def test_backward_propagation(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 1)
        st.assign(c.index_of("y"), tv.encode(0))
        st.imply()
        # y = OR(g, c) = 0 forces g = 0 and c = 0; g = AND(a,b) = 0 is
        # not unique, so a and b stay X
        assert tv.decode_lane(st.planes[c.index_of("g")], 0) == "0"
        assert tv.decode_lane(st.planes[c.index_of("c")], 0) == "0"
        assert tv.decode_lane(st.planes[c.index_of("a")], 0) == "X"

    def test_backward_disabled(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 1, use_backward=False)
        st.assign(c.index_of("y"), tv.encode(0))
        st.imply()
        assert tv.decode_lane(st.planes[c.index_of("g")], 0) == "X"

    def test_per_lane_independence(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 2)
        st.assign(c.index_of("a"), (0b10, 0b01))  # lane0: 1, lane1: 0
        st.assign(c.index_of("b"), (0, 0b11))  # both lanes 1
        st.imply()
        g = st.planes[c.index_of("g")]
        assert tv.decode_lane(g, 0) == "1"
        assert tv.decode_lane(g, 1) == "0"

    def test_conflict_through_implication(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 1)
        st.assign(c.index_of("y"), tv.encode(0))
        st.assign(c.index_of("c"), tv.encode(1))
        st.imply()
        assert st.conflict_mask == 1

    def test_seven_valued_stability_propagates(self):
        c = and_or_circuit()
        st = TpgState(c, SEVEN_VALUED, 1)
        st.assign(c.index_of("a"), sv.encode("S1"))
        st.assign(c.index_of("b"), sv.encode("R"))
        st.assign(c.index_of("c"), sv.encode("S0"))
        st.imply()
        assert sv.decode_lane(st.planes[c.index_of("g")], 0) == "R"
        assert sv.decode_lane(st.planes[c.index_of("y")], 0) == "R"


class TestRollback:
    def test_rollback_restores_exactly(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 2)
        st.assign(c.index_of("a"), tv.encode_word(1, 0b11))
        st.imply()
        snapshot = list(st.planes)
        conflict_before = st.conflict_mask
        token = st.mark()
        st.assign(c.index_of("b"), tv.encode_word(1, 0b11))
        st.assign(c.index_of("c"), tv.encode_word(1, 0b01))
        st.imply()
        assert st.planes != snapshot
        st.rollback(token)
        assert st.planes == snapshot
        assert st.conflict_mask == conflict_before

    def test_nested_marks(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 1)
        t1 = st.mark()
        st.assign(c.index_of("a"), tv.encode(1))
        st.mark()
        st.assign(c.index_of("b"), tv.encode(1))
        st.rollback(t1)
        assert st.planes[c.index_of("a")] == tv.X
        assert st.planes[c.index_of("b")] == tv.X


class TestJustification:
    def test_unjustified_scan(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 1)
        st.assign(c.index_of("y"), tv.encode(1))
        st.imply()
        unjust = st.scan_unjustified()
        assert unjust == [(c.index_of("y"), 1)]

    def test_all_justified_after_support(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 1)
        st.assign(c.index_of("y"), tv.encode(1))
        st.assign(c.index_of("c"), tv.encode(1))
        st.imply()
        assert st.scan_unjustified() == []
        assert st.all_justified_mask() == 1

    def test_conflicted_lanes_not_reported(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 1)
        st.assign(c.index_of("y"), tv.encode(1))
        st.assign(c.index_of("g"), tv.encode(0))
        st.assign(c.index_of("c"), tv.encode(0))
        st.imply()
        assert st.conflict_mask == 1
        assert st.scan_unjustified() == []
        assert st.all_justified_mask() == 0


def two_ands():
    """g = AND(a, b), h = AND(a, c): two gates a conflict can sit at."""
    b = CircuitBuilder("two_ands")
    b.inputs("a", "b", "c")
    b.and_("g", "a", "b")
    b.and_("h", "a", "c")
    b.outputs("g", "h")
    return b.build()


class TestConflictSites:
    """``conflict_sites`` names a site for exactly the conflicted lanes."""

    @staticmethod
    def clash(st, signal, lanes):
        st.assign(signal, tv.encode_word(1, lanes))
        st.assign(signal, tv.encode_word(0, lanes))

    def test_rollback_forgets_sites_of_restored_lanes(self):
        c = two_ands()
        g, h = c.index_of("g"), c.index_of("h")
        st = TpgState(c, THREE_VALUED, 1)
        token = st.mark()
        self.clash(st, g, 1)
        assert st.conflict_sites == {0: g}
        st.rollback(token)
        assert st.conflict_mask == 0 and st.conflict_sites == {}
        self.clash(st, h, 1)
        assert st.conflict_sites == {0: h}

    def test_rollback_keeps_sites_from_before_the_mark(self):
        c = two_ands()
        g, h = c.index_of("g"), c.index_of("h")
        st = TpgState(c, THREE_VALUED, 2)
        self.clash(st, g, 0b01)
        token = st.mark()
        self.clash(st, h, 0b11)
        assert st.conflict_sites == {0: g, 1: h}
        st.rollback(token)
        assert st.conflict_mask == 0b01
        assert st.conflict_sites == {0: g}

    def test_flatten_lane_broadcasts_or_clears_sites(self):
        c = two_ands()
        g = c.index_of("g")
        st = TpgState(c, THREE_VALUED, 4)
        self.clash(st, g, 0b0100)
        st.flatten_lane(2)
        assert st.conflict_mask == 0b1111
        assert st.conflict_sites == {lane: g for lane in range(4)}
        st = TpgState(c, THREE_VALUED, 4)
        self.clash(st, g, 0b0100)
        st.flatten_lane(0)
        assert st.conflict_mask == 0 and st.conflict_sites == {}


class TestSharedTables:
    def test_states_of_one_circuit_share_the_tables(self):
        c = c17()
        first = TpgState(c, THREE_VALUED, 4)
        second = TpgState(c, THREE_VALUED, 32)
        assert first._forward_fns is second._forward_fns
        assert first._backward_fns is second._backward_fns
        robust = TpgState(c, SEVEN_VALUED, 4)
        assert robust._forward_fns is not first._forward_fns
        assert TpgState(c, THREE_VALUED, 4, fusion="interp")._forward_fns is None

    def test_unpickled_circuit_rebuilds_the_tables(self):
        import pickle

        c = c17()
        original = TpgState(c, THREE_VALUED, 4)
        clone = pickle.loads(pickle.dumps(c))
        assert not clone.compiled()._fusion_cache
        rebuilt = TpgState(clone, THREE_VALUED, 4)
        assert rebuilt._forward_fns is not original._forward_fns
        assert rebuilt._forward_fns == original._forward_fns
        assert rebuilt._backward_fns == original._backward_fns
        for st in (original, rebuilt):
            st.assign(c.index_of("22"), tv.encode_word(1, 0b1111))
            st.imply()
        assert rebuilt.planes == original.planes


class TestLaneUtilities:
    def test_flatten_lane(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 4)
        st.assign(c.index_of("a"), (0b0010, 0b0101))
        st.flatten_lane(0)  # lane 0 has value 1
        assert st.planes[c.index_of("a")] == (0, 0b1111)
        st2 = TpgState(c, THREE_VALUED, 4)
        st2.assign(c.index_of("a"), (0b0010, 0b0101))
        st2.flatten_lane(1)  # lane 1 has value 0
        assert st2.planes[c.index_of("a")] == (0b1111, 0)

    def test_format_lane_word(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 4)
        st.assign(c.index_of("a"), (0b0001, 0b0110))
        assert st.format_lane_word("a") == "x110"

    def test_lane_values(self):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 1)
        st.assign(c.index_of("a"), tv.encode(1))
        values = st.lane_values(0)
        assert values["a"] == "1"
        assert values["y"] == "X"
