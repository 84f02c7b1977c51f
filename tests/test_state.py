"""Unit tests for the bit-parallel TPG state and implication engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.circuit import Circuit, CircuitBuilder, GateType
from repro.circuit.library import c17, paper_example
from repro.core.state import SEVEN_VALUED, THREE_VALUED, TpgState, tpg_tier
from repro.kernel import native_available, native_plan
from repro.logic import three_valued as tv
from repro.logic import seven_valued as sv
from tiers import TPG_TIERS, tpg_state


needs_native = pytest.mark.skipif(
    not native_available(), reason="no C toolchain and no cached native module"
)


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

    def test_rollback_invalidates_readers_of_restored_signals(self, engine):
        """g = AND(a, b) = 0 is justified by a = 0; rolling a back makes
        g unjustified again although g itself never changed."""
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 1, fusion=engine)
        g = c.index_of("g")
        st.assign(g, tv.encode(0))
        token = st.mark()
        st.assign(c.index_of("a"), tv.encode(0))
        assert st.scan_unjustified() == []
        st.rollback(token)
        assert st.scan_unjustified() == [(g, 1)]

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
    @needs_native
    def test_native_states_of_one_circuit_share_the_plan(self):
        c = c17()
        plan = native_plan(c.compiled())[0]
        states = [
            TpgState(c, THREE_VALUED, 4),
            TpgState(c, THREE_VALUED, 32),
            TpgState(c, SEVEN_VALUED, 64),
        ]
        assert all(st.tier == "native/c" and st._c.p == plan for st in states)

    @needs_native
    def test_unpickled_circuit_rebuilds_the_native_plan(self):
        import pickle

        c = c17()
        original = TpgState(c, THREE_VALUED, 4)
        clone = pickle.loads(pickle.dumps(c))
        assert not clone.compiled()._fusion_cache
        rebuilt = TpgState(clone, THREE_VALUED, 4)
        assert rebuilt._c.p == native_plan(clone.compiled())[0]
        assert rebuilt._c.p != original._c.p
        for st in (original, rebuilt):
            st.assign(c.index_of("22"), tv.encode_word(1, 0b1111))
            st.imply()
        assert rebuilt.planes == original.planes

    def test_states_of_one_circuit_share_the_tables(self):
        """The Python engine's codegen tables."""
        c = c17()
        first = tpg_state("python/codegen", c, THREE_VALUED, 4)
        second = tpg_state("python/codegen", c, THREE_VALUED, 32)
        assert first._forward_fns is second._forward_fns
        assert first._backward_fns is second._backward_fns
        robust = tpg_state("python/codegen", c, SEVEN_VALUED, 4)
        assert robust._forward_fns is not first._forward_fns
        assert TpgState(c, THREE_VALUED, 4, fusion="interp")._forward_fns is None

    def test_unpickled_circuit_rebuilds_the_tables(self):
        """The Python engine's codegen tables."""
        import pickle

        c = c17()
        original = tpg_state("python/codegen", c, THREE_VALUED, 4)
        clone = pickle.loads(pickle.dumps(c))
        assert not clone.compiled()._fusion_cache
        rebuilt = tpg_state("python/codegen", clone, THREE_VALUED, 4)
        assert rebuilt._forward_fns is not original._forward_fns
        assert rebuilt._forward_fns == original._forward_fns
        assert rebuilt._backward_fns == original._backward_fns
        for st in (original, rebuilt):
            st.assign(c.index_of("22"), tv.encode_word(1, 0b1111))
            st.imply()
        assert rebuilt.planes == original.planes


class TestEngineSelection:
    @needs_native
    def test_auto_runs_native_up_to_one_word(self):
        c = c17()
        for width in (1, 32, 64):
            assert TpgState(c, THREE_VALUED, width).tier == "native/c"
            assert tpg_tier(width) == "native/c"
        assert TpgState(c, SEVEN_VALUED, 65).tier == "python/codegen"

    def test_interp_runs_the_oracle_and_other_strategies_raise(self):
        c = c17()
        assert TpgState(c, THREE_VALUED, 8, fusion="interp").tier == "python/interp"
        for fusion in ("codegen", "vector", "jit"):
            with pytest.raises(ValueError, match="unknown fusion"):
                TpgState(c, THREE_VALUED, 8, fusion=fusion)

    def test_algebra_without_compiled_rules_runs_interp(self):
        from dataclasses import replace

        custom = replace(THREE_VALUED, name="custom")
        assert tpg_tier(8, "auto", custom) == "python/interp"
        st = TpgState(and_or_circuit(), custom, 8)
        assert st.tier == "python/interp" and st._forward_fns is None

    @needs_native
    def test_failed_allocation_raises_memory_error(self, monkeypatch):
        from types import SimpleNamespace

        from repro.kernel import native

        real = native.native_module()

        class FailingLib:
            """The real entry points, with an allocator that fails."""

            def __getattr__(self, name):
                return getattr(real.lib, name)

            @staticmethod
            def repro_tpg_new(*args):
                return real.ffi.NULL

        fake = SimpleNamespace(lib=FailingLib(), ffi=real.ffi)
        monkeypatch.setattr(native, "native_module", lambda: fake)
        with pytest.raises(MemoryError):
            TpgState(c17(), THREE_VALUED, 8)

    def test_without_the_module_auto_falls_back_silently(self, monkeypatch):
        import warnings

        from repro.kernel import native

        monkeypatch.setattr(native, "native_available", lambda: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = TpgState(c17(), THREE_VALUED, 32)
        assert st.tier == "python/codegen"
        assert st._forward_fns is not None


class TestValidation:
    """Ids and lanes out of range raise before any engine sees them."""

    def test_signal_ids_outside_the_circuit(self, engine):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 4, fusion=engine)
        before = list(st.planes)
        for signal in (-1, c.num_signals, 1 << 40):
            with pytest.raises(IndexError):
                st.assign(signal, tv.encode_word(1, 0b1111))
            with pytest.raises(IndexError):
                st.unjustified_lanes(signal)
        assert list(st.planes) == before and st.assignments == 0

    def test_lanes_outside_the_width(self, engine):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 4, fusion=engine)
        st.assign(c.index_of("a"), (0b0010, 0b0101))
        before = list(st.planes)
        for lane in (-1, 4, 7, 64):
            with pytest.raises(ValueError):
                st.flatten_lane(lane)
        assert list(st.planes) == before

    def test_bits_beyond_the_width_and_negative_words(self, engine):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 4, fusion=engine)
        a = c.index_of("a")
        assert st.assign(a, (0, (1 << 70) | 0b0001))
        assert st.assign(a, (-1 << 3, 0))  # lanes 3 and up
        assert st.planes[a] == (0b1000, 0b0001)

    def test_planes_read_only_sequence(self, engine):
        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 4, fusion=engine)
        st.assign(c.index_of("y"), tv.encode_word(1, 0b0011))
        rows = list(st.planes)
        assert len(st.planes) == c.num_signals
        assert st.planes[-1] == rows[-1] and st.planes[1:3] == rows[1:3]
        assert all(isinstance(row, tuple) for row in st.planes)
        with pytest.raises(IndexError):
            st.planes[c.num_signals]


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


# ---------------------------------------------------------------------------
# the compiled engines against the interpreted oracle, operation by operation
# ---------------------------------------------------------------------------

_KINDS = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
          GateType.XOR, GateType.XNOR, GateType.BUF, GateType.NOT]


def mixed_dag(seed: int, n_inputs: int, n_gates: int) -> Circuit:
    """Random DAG with every gate kind, 1-input gates and duplicate fanins.

    Fanins are drawn with replacement, so ``AND(a, a)`` and
    ``XOR(a, b, a)`` occur; arities run up to 5.
    """
    rng = random.Random(seed)
    circuit = Circuit(name=f"mixed_dag_{seed}")
    signals = [circuit.add_input(f"i{k}") for k in range(n_inputs)]
    for g in range(n_gates):
        kind = rng.choice(_KINDS)
        arity = 1 if kind in (GateType.BUF, GateType.NOT) else rng.randint(2, 5)
        window = signals[-6:] if rng.random() < 0.7 else signals
        fanin = [rng.choice(window) for _ in range(arity)]
        signals.append(circuit.add_gate(f"g{g}", kind, fanin))
    for signal in signals[-2:]:
        circuit.mark_output(signal)
    return circuit.freeze()


def assert_same_state(got: TpgState, want: TpgState) -> None:
    """Same planes, conflicts, counters and justification scans."""
    assert got.planes == want.planes
    assert got.conflict_mask == want.conflict_mask
    assert got.conflict_sites == want.conflict_sites
    assert got.implication_passes == want.implication_passes
    assert got.assignments == want.assignments
    assert got.scan_unjustified() == want.scan_unjustified()
    assert got.all_justified_mask() == want.all_justified_mask()


#: operation mix: flatten marks every signal dirty and drops every
#: checkpoint, so it is rare enough for stale-cache bugs to surface
OPS = ["assign"] * 8 + ["imply"] * 4 + ["mark", "rollback"] * 3 + [
    "scan", "justified", "flatten"]

ENGINES = [pytest.param("native/c", marks=needs_native), "python/codegen"]


class TestGateRules:
    """Every gate shape on arbitrary planes: the implication rules of the
    engine under test equal the ``Algebra`` rules, lane by lane."""

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=150, deadline=None)
    @given(data=hst.data())
    def test_one_gate_on_arbitrary_planes(self, engine, data):
        kind = data.draw(hst.sampled_from(_KINDS), label="kind")
        single = kind in (GateType.BUF, GateType.NOT)
        arity = 1 if single else data.draw(hst.integers(2, 5), label="arity")
        n_inputs = data.draw(hst.integers(1, arity), label="distinct inputs")
        circuit = Circuit(name="one_gate")
        inputs = [circuit.add_input(f"i{k}") for k in range(n_inputs)]
        fanin = [data.draw(hst.sampled_from(inputs)) for _ in range(arity)]
        circuit.mark_output(circuit.add_gate("g", kind, fanin))
        circuit.freeze()
        width = data.draw(hst.sampled_from([1, 7, 32, 64]), label="width")
        algebra = data.draw(hst.sampled_from([THREE_VALUED, SEVEN_VALUED]))
        use_backward = data.draw(hst.booleans(), label="use_backward")
        got = tpg_state(engine, circuit, algebra, width, use_backward)
        want = TpgState(circuit, algebra, width, use_backward, fusion="interp")
        # uniform bits: every plane combination shows up in some lane
        rng = random.Random(data.draw(hst.integers(0, 2**32), label="seed"))
        for signal in range(circuit.num_signals):
            planes = tuple(rng.getrandbits(width) for _ in range(algebra.n_planes))
            assert got.assign(signal, planes) == want.assign(signal, planes)
        assert got.imply(False) == want.imply(False)
        assert_same_state(got, want)


class TestEnginesMatchInterp:
    """Random operation sequences on random DAGs: after every operation
    the engine under test and ``fusion="interp"`` agree on planes,
    conflicts, sites, return values and both counters."""

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=80, deadline=None)
    @given(data=hst.data())
    def test_random_operation_sequences(self, engine, data):
        circuit = data.draw(
            hst.builds(
                mixed_dag,
                hst.integers(0, 10_000),
                hst.integers(2, 6),
                hst.integers(1, 30),
            ),
            label="circuit",
        )
        width = data.draw(hst.sampled_from([1, 7, 32, 64]), label="width")
        algebra = data.draw(hst.sampled_from([THREE_VALUED, SEVEN_VALUED]))
        use_backward = data.draw(hst.booleans(), label="use_backward")
        got = tpg_state(engine, circuit, algebra, width, use_backward)
        want = TpgState(circuit, algebra, width, use_backward, fusion="interp")
        names = list(sv.VALUES) if algebra is SEVEN_VALUED else ["0", "1"]
        mask = got.mask
        tokens = []
        for _ in range(data.draw(hst.integers(1, 50), label="n_ops")):
            op = data.draw(hst.sampled_from(OPS))
            if op == "assign":
                signal = data.draw(hst.integers(0, circuit.num_signals - 1))
                if data.draw(hst.booleans()):
                    name = data.draw(hst.sampled_from(names))
                    lanes = data.draw(hst.integers(1, mask))
                    planes = (
                        sv.encode_word(name, lanes)
                        if algebra is SEVEN_VALUED
                        else tv.encode_word(int(name), lanes)
                    )
                else:  # arbitrary bits, beyond the width and negative too
                    word = hst.integers(-(1 << 70), 1 << 70)
                    planes = tuple(data.draw(word) for _ in range(algebra.n_planes))
                result = (got.assign(signal, planes), want.assign(signal, planes))
            elif op == "imply":
                stop = data.draw(hst.booleans())
                result = (got.imply(stop), want.imply(stop))
            elif op == "mark":
                tokens.append(got.mark())
                result = (tokens[-1], want.mark())
            elif op == "rollback":
                if not tokens:
                    continue
                token = data.draw(hst.sampled_from(tokens))
                del tokens[tokens.index(token):]
                result = (got.rollback(token), want.rollback(token))
            elif op == "flatten":
                lane = data.draw(hst.integers(0, width - 1))
                tokens.clear()
                result = (got.flatten_lane(lane), want.flatten_lane(lane))
            elif op == "scan":
                lanes = data.draw(hst.none() | hst.integers(0, mask))
                result = (
                    got.scan_unjustified(lanes), want.scan_unjustified(lanes)
                )
            else:
                result = (got.all_justified_mask(), want.all_justified_mask())
            assert result[0] == result[1], op
            assert_same_state(got, want)


# ---------------------------------------------------------------------------
# the 3-valued implication loop: every gate shape against the Python engine
# ---------------------------------------------------------------------------

_MULTI_INPUT = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                GateType.XOR, GateType.XNOR]


def shaped_dag(seed: int, n_gates: int, wide: int) -> Circuit:
    """Random DAG of the gate shapes the 3-valued loop tells apart.

    BUF/NOT chains of one to three gates, AND/NAND/OR/NOR/XOR/XNOR
    gates of 2, 3 and 5 inputs, and one gate of *wide* inputs; fanins
    are drawn with replacement, so duplicates occur.
    """
    rng = random.Random(seed)
    circuit = Circuit(name=f"shaped_dag_{seed}")
    signals = [circuit.add_input(f"i{k}") for k in range(rng.randint(2, 6))]
    wide_at = rng.randrange(n_gates)
    for g in range(n_gates):
        window = signals[-6:] if rng.random() < 0.7 else signals
        if g == wide_at:
            kind = rng.choice(_MULTI_INPUT)
            fanin = [rng.choice(signals) for _ in range(wide)]
        elif rng.random() < 0.3:
            signal = rng.choice(window)
            for k in range(rng.randint(1, 3)):
                kind = rng.choice([GateType.BUF, GateType.NOT])
                signal = circuit.add_gate(f"g{g}_{k}", kind, [signal])
            signals.append(signal)
            continue
        else:
            kind = rng.choice(_MULTI_INPUT)
            fanin = [rng.choice(window) for _ in range(rng.choice((2, 3, 5)))]
        signals.append(circuit.add_gate(f"g{g}", kind, fanin))
    for signal in signals[-2:]:
        circuit.mark_output(signal)
    return circuit.freeze()


@needs_native
class TestThreeValuedLoopMatchesPython:
    """The C engine's 3-valued implication loop (closed forms for one
    and two fanins, the prefix/suffix form for wider gates, the trail
    reserved once per pass) against the Python oracle
    (``fusion="interp"``), after every imply and every rollback."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=hst.integers(0, 10_000),
        n_gates=hst.integers(1, 24),
        wide=hst.integers(65, 80),
        width=hst.sampled_from([1, 31, 32, 63, 64]),
        use_backward=hst.booleans(),
        data=hst.data(),
    )
    def test_random_operation_sequences(
        self, seed, n_gates, wide, width, use_backward, data
    ):
        circuit = shaped_dag(seed, n_gates, wide)
        got = tpg_state("native/c", circuit, THREE_VALUED, width, use_backward)
        want = TpgState(circuit, THREE_VALUED, width, use_backward, fusion="interp")
        mask = got.mask
        tokens = []
        for _ in range(data.draw(hst.integers(1, 40), label="n_ops")):
            op = data.draw(hst.sampled_from(
                ["assign"] * 6 + ["imply"] * 3 + ["mark", "rollback"] * 2
            ))
            if op == "assign":
                signal = data.draw(hst.integers(0, circuit.num_signals - 1))
                lanes = data.draw(hst.integers(1, mask), label="lanes")
                if data.draw(hst.booleans(), label="conflicting"):
                    ones = data.draw(hst.integers(0, mask), label="ones")
                    planes = (lanes, ones)
                else:
                    planes = tv.encode_word(data.draw(hst.integers(0, 1)), lanes)
                assert got.assign(signal, planes) == want.assign(signal, planes)
                continue
            if op == "imply":
                stop = data.draw(hst.booleans(), label="stop")
                assert got.imply(stop) == want.imply(stop)
            elif op == "mark":
                tokens.append(got.mark())
                assert want.mark() == tokens[-1]
                continue
            else:
                if not tokens:
                    continue
                token = data.draw(hst.sampled_from(tokens))
                del tokens[tokens.index(token):]
                got.rollback(token)
                want.rollback(token)
            assert_same_state(got, want)
            assert trail_len(got) == trail_len(want)

    def test_one_pass_outgrows_the_trail(self):
        """One pass assigns its gate and every fanin: with the gate's
        output and one input assigned first, a pass of an AND of n
        distinct inputs writes n + 1 trail entries on top of two.  n is
        chosen so that the pass ends 1 and 2 entries past the trail's
        capacity, and once past twice the capacity."""
        cap = tpg_state("native/c", c17(), THREE_VALUED, 2)._c.trail_cap
        for over in (1, 2, cap + 1):
            n = cap + over - 3
            circuit = Circuit(name=f"and{n}")
            inputs = [circuit.add_input(f"i{k}") for k in range(n)]
            gate = circuit.add_gate("g", GateType.AND, inputs)
            circuit.mark_output(gate)
            circuit.freeze()
            got = tpg_state("native/c", circuit, THREE_VALUED, 2)
            want = TpgState(circuit, THREE_VALUED, 2, fusion="interp")
            for state in (got, want):
                state.assign(inputs[0], tv.encode_word(0, 0b10))
                state.assign(gate, tv.encode_word(1, 0b01))
            assert trail_len(got) == 2 and got._c.trail_cap == cap
            assert got.imply() == want.imply() == 0
            assert_same_state(got, want)
            assert trail_len(got) == trail_len(want) == cap + over
            assert got.planes[gate] == (0b10, 0b01)
            assert all(got.planes[i] == (0, 0b01) for i in inputs[1:])


# ---------------------------------------------------------------------------
# sensitization: the Python sensitizer's list assigned on every engine
# ---------------------------------------------------------------------------


def trail_len(state: TpgState) -> int:
    return state._c.trail_len if state._c is not None else len(state._trail)


def worklist(state: TpgState) -> list:
    """The gates queued for :meth:`TpgState.imply`, in pop order."""
    c = state._c
    if c is None:
        return list(state._queue)
    n = state.circuit.num_signals
    return [c.queue[(c.q_head + k) % n] for k in range(c.q_len)]


def draw_path(data, circuit: Circuit) -> tuple:
    """A structural path (a random fanout walk from an input), or now and
    then any signal sequence: the sensitizers take off-structure paths."""
    compiled = circuit.compiled()
    if data.draw(hst.integers(0, 4), label="off-structure") == 0:
        signal = hst.integers(0, circuit.num_signals - 1)
        return tuple(data.draw(hst.lists(signal, min_size=1, max_size=6)))
    path = [data.draw(hst.sampled_from(compiled.py_inputs), label="input")]
    while compiled.py_fanout[path[-1]] and data.draw(hst.integers(0, 5)):
        path.append(data.draw(hst.sampled_from(compiled.py_fanout[path[-1]])))
    return tuple(path)


class TestSensitizeMatchesPython:
    """``TpgState.sensitize`` assigns the Python sensitizer's list on
    every engine: on the C engine its ``assign`` calls leave the planes,
    conflicts, trail and worklist, and the implication after them, as
    the interp and codegen engines' do.  The C round sensitizes
    nonrobust paths itself; ``TestNativeShardsMatchPython``
    (``test_polarity_screen.py``) holds that to the Python loops, paths
    off the circuit's structure included."""

    @needs_native
    @settings(max_examples=150, deadline=None)
    @given(data=hst.data())
    def test_random_paths_lanes_and_xor_sides(self, data):
        from repro.core.sensitize import (
            sensitize_nonrobust,
            sensitize_robust,
            xor_side_signals,
        )
        from repro.paths import PathDelayFault, Transition

        circuit = data.draw(
            hst.builds(
                mixed_dag,
                hst.integers(0, 10_000),
                hst.integers(2, 6),
                hst.integers(1, 30),
            ),
            label="circuit",
        )
        width = data.draw(hst.sampled_from([1, 7, 32, 64]), label="width")
        algebra = data.draw(hst.sampled_from([THREE_VALUED, SEVEN_VALUED]))
        use_backward = data.draw(hst.booleans(), label="use_backward")
        got = TpgState(circuit, algebra, width, use_backward, fusion="auto")
        assert got.tier == "native/c"
        wants = [
            tpg_state(tier, circuit, algebra, width, use_backward)
            for tier in ("python/interp", "python/codegen")
        ]
        rule = sensitize_nonrobust if algebra is THREE_VALUED else sensitize_robust
        lane_word = hst.integers(0, got.mask) | hst.integers(-(1 << 70), 1 << 70)
        for _ in range(data.draw(hst.integers(1, 4), label="n_faults")):
            fault = PathDelayFault(
                draw_path(data, circuit),
                data.draw(hst.sampled_from(list(Transition))),
            )
            lanes = data.draw(lane_word, label="lanes")
            candidates = xor_side_signals(circuit, fault) + list(
                range(circuit.num_signals)
            )
            xor_sides = data.draw(
                hst.none()
                | hst.dictionaries(hst.sampled_from(candidates), lane_word, max_size=4),
                label="xor_sides",
            )
            got.sensitize(fault, lanes, xor_sides)
            for want in wants:
                for signal, planes in rule(circuit, fault, lanes, xor_sides):
                    want.assign(signal, planes)
                assert got.planes == want.planes
                assert got.conflict_mask == want.conflict_mask
                assert got.conflict_sites == want.conflict_sites
                assert got.assignments == want.assignments
                assert trail_len(got) == trail_len(want)
                assert worklist(got) == worklist(want)
        stop = data.draw(hst.booleans(), label="stop")
        conflicts = got.imply(stop)
        for want in wants:
            assert want.imply(stop) == conflicts
            assert got.planes == want.planes
            assert got.implication_passes == want.implication_passes

    @pytest.mark.parametrize("algebra", [THREE_VALUED, SEVEN_VALUED])
    def test_ids_outside_the_circuit(self, engine, algebra):
        from repro.paths import PathDelayFault, Transition

        c = and_or_circuit()
        st = TpgState(c, algebra, 4, fusion=engine)
        a, y = c.index_of("a"), c.index_of("y")
        for bad in (-1, -3, c.num_signals, 2**31, 1 << 70):
            with pytest.raises(IndexError) as via_assign:
                st.assign(bad, (0,) * algebra.n_planes)
            for path in ((a, bad, y), (bad,)):
                with pytest.raises(IndexError) as via_sensitize:
                    st.sensitize(PathDelayFault(path, Transition.RISING), 0b1111)
                assert str(via_sensitize.value) == str(via_assign.value)
        assert st.assignments == 0 and trail_len(st) == 0 and not worklist(st)


# ---------------------------------------------------------------------------
# the decision step: the C call against the Python functions
# ---------------------------------------------------------------------------

#: costs with ties and past 2**63: the C backtrace compares their ranks
COSTS = [0, 1, 1, 2, 3, 2**63 - 1, 2**63, 2**63 + 1, 2**70]

#: every conflict-free lane pattern but X, per algebra: the named values
#: and the partial ones implication leaves (stable or instable alone)
PATTERNS = {
    THREE_VALUED.name: [(1, 0), (0, 1)],
    SEVEN_VALUED.name: [
        (z, o, s, i)
        for z, o in ((0, 0), (1, 0), (0, 1))
        for s, i in ((0, 0), (1, 0), (0, 1))
        if z or o or s or i
    ],
}


def draw_controllability(data, circuit: Circuit):
    """The circuit's SCOAP table, or random costs with ties and huge ones."""
    from repro.core.controllability import Controllability, compute_controllability

    if data.draw(hst.booleans(), label="scoap"):
        return compute_controllability(circuit)
    costs = hst.lists(
        hst.sampled_from(COSTS),
        min_size=circuit.num_signals,
        max_size=circuit.num_signals,
    )
    return Controllability(data.draw(costs, label="cc0"), data.draw(costs, label="cc1"))


def deep_circuit(depth: int, arity: int) -> Circuit:
    """A chain of alternating AND/XOR gates, each also reading *arity*
    fresh inputs: a backtrace through it holds a deep node stack and many
    candidates, past the C scratch's first allocation."""
    circuit = Circuit(name=f"deep_{depth}_{arity}")
    signal = circuit.add_input("i")
    for g in range(depth):
        sides = [circuit.add_input(f"i{g}_{k}") for k in range(arity)]
        kind = GateType.XOR if g % 2 else GateType.AND
        signal = circuit.add_gate(f"g{g}", kind, [signal, *sides, signal])
    circuit.mark_output(signal)
    return circuit.freeze()


class TestDecideMatchesPython:
    """``TpgState.decide`` on the C engine returns what the Python decision
    step (:func:`repro.core.backtrace.decide`) returns over the same
    planes, and what the interp and codegen engines' ``decide`` returns."""

    @needs_native
    @settings(max_examples=300, deadline=None)
    @given(data=hst.data())
    def test_random_states_lanes_and_costs(self, data):
        from repro.core.backtrace import decide

        circuit = data.draw(
            hst.builds(
                mixed_dag,
                hst.integers(0, 10_000),
                hst.integers(2, 6),
                hst.integers(1, 30),
            ),
            label="circuit",
        )
        width = data.draw(hst.integers(1, 64), label="width")
        algebra = data.draw(hst.sampled_from([THREE_VALUED, SEVEN_VALUED]))
        use_backward = data.draw(hst.booleans(), label="use_backward")
        got = TpgState(circuit, algebra, width, use_backward, fusion="auto")
        assert got.tier == "native/c"
        wants = [
            tpg_state(tier, circuit, algebra, width, use_backward)
            for tier in ("python/interp", "python/codegen")
        ]
        cc = draw_controllability(data, circuit)
        patterns = PATTERNS[algebra.name]
        # per-lane draws leave half the lanes X
        choices = [(0,) * algebra.n_planes] * len(patterns) + patterns
        rng = random.Random(data.draw(hst.integers(0, 2**32), label="seed"))
        mask = got.mask
        lane_word = hst.integers(0, mask) | hst.integers(-(1 << 70), 1 << 70)
        for _ in range(data.draw(hst.integers(1, 6), label="n_steps")):
            for _ in range(data.draw(hst.integers(0, 6), label="n_assign")):
                signal = data.draw(hst.integers(0, circuit.num_signals - 1))
                if data.draw(hst.booleans(), label="one pattern"):
                    lanes = data.draw(hst.integers(1, mask))
                    picks = [data.draw(hst.sampled_from(patterns))] * width
                else:
                    lanes = mask
                    picks = [rng.choice(choices) for _ in range(width)]
                planes = tuple(
                    sum(bits[p] << lane for lane, bits in enumerate(picks)) & lanes
                    for p in range(algebra.n_planes)
                )
                for state in (got, *wants):
                    state.assign(signal, planes)
            if data.draw(hst.booleans(), label="imply"):
                for state in (got, *wants):
                    state.imply(False)
            for want in wants:
                assert got.planes == want.planes
                assert got.conflict_mask == want.conflict_mask
            for _ in range(data.draw(hst.integers(1, 3), label="n_decide")):
                lanes = data.draw(lane_word, label="live")
                group = data.draw(hst.booleans(), label="group")
                step = got.decide(cc, lanes, group)
                assert step == decide(got, cc, lanes, group)
                for want in wants:
                    assert want.decide(cc, lanes, group) == step
            for want in wants:  # deciding changes nothing
                assert_same_state(got, want)

    @needs_native
    @pytest.mark.parametrize("algebra", [THREE_VALUED, SEVEN_VALUED])
    def test_deep_backtrace_grows_the_scratch(self, algebra):
        from repro.core.backtrace import decide
        from repro.core.controllability import compute_controllability

        circuit = deep_circuit(depth=150, arity=3)
        cc = compute_controllability(circuit)
        got = TpgState(circuit, algebra, 64)
        want = TpgState(circuit, algebra, 64, fusion="interp")
        value = sv.encode_word("S1", 0b1011) if algebra is SEVEN_VALUED else (0, 0b1011)
        out = circuit.outputs[0]
        for state in (got, want):
            state.assign(out, value)
            state.imply(False)
        for group in (False, True):
            step = got.decide(cc, -1, group)
            assert step is not None and step[2] is not None
            assert step == decide(got, cc, -1, group) == want.decide(cc, -1, group)

    def test_nothing_unjustified(self, engine):
        from repro.core.controllability import compute_controllability

        c = and_or_circuit()
        cc = compute_controllability(c)
        st = TpgState(c, THREE_VALUED, 4, fusion=engine)
        assert st.decide(cc, 0b1111) is None
        st.assign(c.index_of("y"), tv.encode_word(1, 0b0110))
        assert st.decide(cc, 0b1001, group=True) is None  # other lanes only
        assert st.decide(cc, 0) is None
        rep, lanes, objective = st.decide(cc, 0b1111, group=True)
        assert (rep, lanes) == (1, 0b0110)
        assert objective is not None and c.gates[objective.signal].is_input

    def test_controllability_must_cover_the_circuit(self, engine):
        from repro.core.controllability import Controllability

        c = and_or_circuit()
        st = TpgState(c, THREE_VALUED, 4, fusion=engine)
        n = c.num_signals
        for cc0, cc1 in (([1] * (n - 1), [1] * (n - 1)), ([1] * n, [1] * (n + 1))):
            with pytest.raises(ValueError, match="controllability covers"):
                st.decide(Controllability(cc0, cc1), 0b1111)


class TestShardLoopsMatchPython:
    """``TpgState.search`` and ``TpgEngine.fptpg`` on the C engine (one
    call each) run the Python loops -- :func:`repro.core.aptpg._search`
    and :func:`repro.core.fptpg._justify` -- step for step, from any
    state: random values, often conflicting or known-instable in some
    lanes, implied or not, on both algebras.  The loops run on the
    interp and codegen engines and, through the single-step calls, on
    a second C state.  Everything but the few discrete choices comes
    from one seed, so circuits, paths and values spread evenly."""

    @needs_native
    @settings(max_examples=300, deadline=None)
    @given(
        seed=hst.integers(0, 2**32),
        width=hst.sampled_from([1, 2, 3, 4, 8, 33, 64]),
        algebra=hst.sampled_from([THREE_VALUED, SEVEN_VALUED]),
        use_backward=hst.booleans(),
        search=hst.booleans(),
    )
    def test_random_states(self, seed, width, algebra, use_backward, search):
        from repro.core.aptpg import _search
        from repro.core.controllability import compute_controllability
        from repro.core.fptpg import _justify
        from repro.core.sensitize import xor_side_signals
        from repro.paths import PathDelayFault, Transition

        rng = random.Random(seed)
        circuit = mixed_dag(rng.randint(0, 10_000), rng.randint(2, 8), rng.randint(1, 40))
        compiled = circuit.compiled()

        def random_fault():
            path = [rng.choice(compiled.py_inputs)]
            while compiled.py_fanout[path[-1]] and rng.random() < 0.85:
                path.append(rng.choice(compiled.py_fanout[path[-1]]))
            return PathDelayFault(tuple(path), rng.choice(list(Transition)))

        got, twin = (
            TpgState(circuit, algebra, width, use_backward, fusion="auto")
            for _ in range(2)
        )
        assert got.tier == twin.tier == "native/c"
        wants = [twin] + [
            tpg_state(tier, circuit, algebra, width, use_backward)
            for tier in ("python/interp", "python/codegen")
        ]
        cc = compute_controllability(circuit)
        patterns = PATTERNS[algebra.name]
        # per-lane draws leave three lanes in four X
        choices = [(0,) * algebra.n_planes] * 3 * len(patterns) + patterns
        fault = random_fault()
        for state in (got, *wants):
            state.sensitize(fault, got.mask)
        for _ in range(rng.randint(0, 4)):
            signal = rng.randrange(circuit.num_signals)
            picks = [rng.choice(choices) for _ in range(width)]
            planes = tuple(
                sum(bits[p] << lane for lane, bits in enumerate(picks))
                for p in range(algebra.n_planes)
            )
            for state in (got, *wants):
                state.assign(signal, planes)
        if rng.random() < 0.5:
            for state in (got, *wants):
                state.imply(False)
        if search:
            limit = rng.choice([0, 1, 2, 64])
            run = got.search(cc, limit)
            for want in wants:
                assert _search(want, cc, limit) == run
                assert_same_state(got, want)
            return
        faults = [random_fault() for _ in range(rng.randint(1, width))]
        decided, decisions, justified, xor_lanes = got.engine.fptpg(
            faults, got.engine.ranks(cc)
        )
        assert xor_lanes == sum(
            1 << k for k, f in enumerate(faults) if xor_side_signals(circuit, f)
        )
        for want in wants:
            assert _justify(want, cc, len(faults)) == (decided, decisions, justified)
            assert_same_state(got, want)


    @needs_native
    def test_a_stable_split_skips_known_instable_lanes(self):
        """h = AND(a, c) must be S1 in lane 0 and g = AND(a, b) end at 1
        in lane 1, where a is known-instable.  The first decision splits
        a for h's stable 1: lane 0 gets S0 and conflicts, lane 1 gets a
        1 but no stable bit (a rises there), so b = 1 tests it."""
        from repro.core.aptpg import _search
        from repro.core.controllability import compute_controllability
        from repro.core.state import TESTED

        circuit = Circuit(name="stable_split")
        a, b, c = (circuit.add_input(name) for name in "abc")
        h = circuit.add_gate("h", GateType.AND, [a, c])
        g = circuit.add_gate("g", GateType.AND, [a, b])
        circuit.mark_output(h)
        circuit.mark_output(g)
        circuit.freeze()
        cc = compute_controllability(circuit)
        runs = []
        for tier in TPG_TIERS:
            state = tpg_state(tier, circuit, SEVEN_VALUED, 2, use_backward=False)
            state.assign(a, (0, 0, 0, 0b10))
            state.assign(h, sv.encode_word("S1", 0b01))
            state.assign(g, sv.encode_word("U1", 0b10))
            native = tier == "native/c"
            run = state.search(cc, 64) if native else _search(state, cc, 64)
            runs.append((run, list(state.planes)))
        (run, planes), *wants = runs
        assert (run.status, run.lane, run.decisions, run.splits_used) == (TESTED, 1, 2, 1)
        assert planes[a] == (0b01, 0b10, 0b01, 0b10)  # S0 in lane 0, R in lane 1
        assert all(want == runs[0] for want in wants)

class TestDecideRules:
    """Two backtrace rules the random test seldom reaches, checked by hand
    on every engine: AND(a, b, d) = 1 without backward implication."""

    @staticmethod
    def and3():
        circuit = Circuit(name="and3")
        a, b, d = (circuit.add_input(name) for name in "abd")
        g = circuit.add_gate("g", GateType.AND, [a, b, d])
        circuit.mark_output(g)
        return circuit.freeze(), a, b, d, g

    def test_all_inputs_objective_skips_known_instable_inputs(self, engine):
        from repro.core.backtrace import PiObjective
        from repro.core.controllability import Controllability

        c, a, b, d, g = self.and3()
        cc = Controllability(cc0=[1] * 4, cc1=[9, 2, 3, 1])  # a is hardest
        st = TpgState(c, SEVEN_VALUED, 1, use_backward=False, fusion=engine)
        st.assign(g, sv.encode_word("U1", 1))
        st.assign(a, (0, 0, 0, 1))  # instable, value unknown
        # hardest first among the inputs that can still be stable
        assert st.decide(cc, 1) == (0, 1, PiObjective(d, 1, False))

    def test_stability_chase_goes_easiest_first(self, engine):
        from repro.core.backtrace import PiObjective
        from repro.core.controllability import Controllability

        c, a, b, d, g = self.and3()
        cc = Controllability(cc0=[1] * 4, cc1=[5, 4, 2, 1])  # d is easiest
        st = TpgState(c, SEVEN_VALUED, 1, use_backward=False, fusion=engine)
        for pi in (a, b, d):
            st.assign(pi, sv.encode_word("U1", 1))
        st.assign(g, sv.encode_word("S1", 1))  # only stability is missing
        assert st.decide(cc, 1, group=True) == (0, 1, PiObjective(d, 1, True))


class TestControllabilityRanks:
    def test_ranks_keep_every_comparison_and_tie(self):
        from repro.core.controllability import Controllability

        cc = Controllability([5, 2**70, 5, 0], [2**63, 1, 2**70, 5])
        costs = [*cc.cc0, *cc.cc1]
        ranks = cc.ranks.tolist()
        assert cc.ranks.dtype.name == "int32"
        assert sorted(set(ranks)) == list(range(len(set(costs))))
        for a, ra in zip(costs, ranks):
            for b, rb in zip(costs, ranks):
                assert (a < b) == (ra < rb) and (a == b) == (ra == rb)
        assert cc.ranks is cc.ranks  # built once per table
