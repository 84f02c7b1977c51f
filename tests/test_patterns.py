"""Unit tests for test patterns and lane extraction."""

import pytest

from repro.circuit.library import paper_example
from repro.core import TestPattern, TestSet
from repro.core.patterns import extract_pattern
from repro.core.sensitize import sensitize_nonrobust, sensitize_robust
from repro.core.state import SEVEN_VALUED, THREE_VALUED, TpgState
from repro.paths import PathDelayFault, Transition
from tiers import TPG_TIERS, tpg_state


class TestTestPattern:
    def test_as_dicts(self):
        c = paper_example()
        pattern = TestPattern((0, 1, 0, 1), (1, 1, 0, 0))
        v1, v2 = pattern.as_dicts(c)
        assert v1 == {"a": 0, "b": 1, "c": 0, "d": 1}
        assert v2 == {"a": 1, "b": 1, "c": 0, "d": 0}

    def test_transitions(self):
        pattern = TestPattern((0, 1, 0, 1), (1, 1, 0, 0))
        assert pattern.transitions() == (0, 3)

    def test_describe(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        pattern = TestPattern((0, 0, 0, 0), (0, 1, 0, 0), fault)
        assert pattern.describe(c) == "V1=0000 V2=0100 (R: b-p-x)"


class TestExtraction:
    def test_nonrobust_extraction_flips_path_input(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        state = TpgState(c, THREE_VALUED, 4)
        for signal, planes in sensitize_nonrobust(c, fault, 0b1):
            state.assign(signal, planes)
        state.assign(c.index_of("d"), (0, 0b1))
        state.imply()
        pattern = extract_pattern(state, 0, fault)
        b_pos = c.inputs.index(c.index_of("b"))
        assert pattern.v2[b_pos] == 1  # rising: final 1
        assert pattern.v1[b_pos] == 0  # launched
        # all other inputs are steady between the vectors
        for k, (x, y) in enumerate(zip(pattern.v1, pattern.v2)):
            if k != b_pos:
                assert x == y

    def test_robust_extraction_reads_stability(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        state = TpgState(c, SEVEN_VALUED, 1)
        for signal, planes in sensitize_robust(c, fault, 0b1):
            state.assign(signal, planes)
        state.assign(c.index_of("d"), (0, 1, 1, 0))  # S1
        state.imply()
        pattern = extract_pattern(state, 0, fault)
        b_pos = c.inputs.index(c.index_of("b"))
        d_pos = c.inputs.index(c.index_of("d"))
        assert (pattern.v1[b_pos], pattern.v2[b_pos]) == (0, 1)
        assert (pattern.v1[d_pos], pattern.v2[d_pos]) == (1, 1)

    def test_unassigned_inputs_fill_stable_zero(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("c", "r", "s", "y"), Transition.RISING)
        state = TpgState(c, THREE_VALUED, 1)
        state.assign(c.index_of("c"), (0, 1))
        pattern = extract_pattern(state, 0, fault)
        a_pos = c.inputs.index(c.index_of("a"))
        assert pattern.v1[a_pos] == 0 and pattern.v2[a_pos] == 0


class TestExtractionAcrossEngines:
    """``extract_pattern`` reads only the planes it needs, straight from
    the C engine's buffer there: the same pattern on every engine."""

    @pytest.mark.parametrize("algebra", [THREE_VALUED, SEVEN_VALUED])
    def test_same_pattern_on_every_engine(self, algebra):
        import random

        from repro.kernel import native_available

        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        tiers = TPG_TIERS if native_available() else TPG_TIERS[1:]
        states = [tpg_state(tier, c, algebra, 64) for tier in tiers]
        rng = random.Random(7)
        for signal in range(c.num_signals):
            planes = tuple(rng.getrandbits(64) for _ in range(algebra.n_planes))
            for state in states:
                state.assign(signal, planes)
        for lane in (0, 17, 63):
            patterns = {extract_pattern(state, lane, fault) for state in states}
            assert len(patterns) == 1
            for plane in range(algebra.n_planes):
                want = tuple(states[-1].planes[pi][plane] >> lane & 1 for pi in c.inputs)
                assert all(state.input_bits(plane, lane) == want for state in states)
        for state in states:
            with pytest.raises(ValueError, match="lane 64 outside"):
                state.input_bits(1, 64)

    def test_nonrobust_path_off_a_primary_input_names_the_signal(self, engine):
        c = paper_example()
        p = c.index_of("p")
        fault = PathDelayFault((p, c.index_of("x")), Transition.RISING)
        state = TpgState(c, THREE_VALUED, 1, fusion=engine)
        with pytest.raises(ValueError, match=rf"signal {p} \(p\), which is not a primary input"):
            extract_pattern(state, 0, fault)
        for bad in (-1, c.num_signals):
            outside = PathDelayFault((bad, p), Transition.RISING)
            with pytest.raises(ValueError, match=rf"signal {bad} \(outside the circuit\)"):
                extract_pattern(state, 0, outside)


class TestTestSet:
    def test_dedup(self):
        ts = TestSet()
        ts.add(TestPattern((0,), (1,)))
        ts.add(TestPattern((0,), (1,)))
        ts.add(TestPattern((1,), (0,)))
        assert len(ts) == 3
        assert len(ts.unique_vectors()) == 2
        assert ts.compaction_ratio() == pytest.approx(2 / 3)

    def test_empty(self):
        ts = TestSet()
        assert ts.compaction_ratio() == 1.0
        assert list(ts) == []
