"""Unit tests for the PPSFP path delay fault simulator."""

import itertools
import random

import pytest

from repro.circuit import CircuitBuilder
from repro.circuit.library import c17, paper_example
from repro.core import TestPattern
from repro.kernel import native_available
from repro.paths import PathDelayFault, TestClass, Transition, all_faults
from repro.sim import DelayFaultSimulator
from repro.sim.delay_sim import pack_patterns, simulate_planes
from repro.logic import seven_valued as sv


class TestPackPatterns:
    def test_transition_classification(self):
        c = paper_example()
        patterns = [
            TestPattern((0, 0, 0, 0), (0, 1, 0, 0)),  # b rises
            TestPattern((1, 1, 1, 1), (1, 1, 1, 1)),  # all stable
        ]
        planes, width = pack_patterns(c, patterns)
        assert width == 2
        b_planes = planes[1]
        assert sv.decode_lane(b_planes, 0) == "R"
        assert sv.decode_lane(b_planes, 1) == "S1"
        a_planes = planes[0]
        assert sv.decode_lane(a_planes, 0) == "S0"
        assert sv.decode_lane(a_planes, 1) == "S1"

    def test_empty(self):
        planes, width = pack_patterns(paper_example(), [])
        assert width == 0 and planes == []


class TestDetectionSemantics:
    def test_known_nonrobust_detection(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        sim = DelayFaultSimulator(c, TestClass.NONROBUST)
        # a=0 (off-path at p), s must be 1: d=1 provides it
        good = TestPattern((0, 0, 0, 1), (0, 1, 0, 1))
        assert sim.detects(good, fault)
        # without d=1 (and with c=0), s=0: not sensitized
        bad = TestPattern((0, 0, 0, 0), (0, 1, 0, 0))
        assert not sim.detects(bad, fault)
        # no launch (b stable): never a test
        no_launch = TestPattern((0, 1, 0, 1), (0, 1, 0, 1))
        assert not sim.detects(no_launch, fault)

    def test_robust_needs_stable_side_input(self):
        c = paper_example()
        # rising b through p=OR then x=AND: s must be STABLE 1 for a
        # robust test; d rising gives s final 1 but unstable
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        robust = DelayFaultSimulator(c, TestClass.ROBUST)
        nonrobust = DelayFaultSimulator(c, TestClass.NONROBUST)
        s_stable = TestPattern((0, 0, 0, 1), (0, 1, 0, 1))  # d stable 1
        s_unstable = TestPattern((0, 0, 0, 0), (0, 1, 0, 1))  # d rises with b
        assert robust.detects(s_stable, fault)
        assert nonrobust.detects(s_unstable, fault)
        assert not robust.detects(s_unstable, fault)

    def test_robust_detection_implies_nonrobust(self):
        c = c17()
        rng = random.Random(9)
        faults = all_faults(c)
        robust = DelayFaultSimulator(c, TestClass.ROBUST)
        nonrobust = DelayFaultSimulator(c, TestClass.NONROBUST)
        patterns = [
            TestPattern(
                tuple(rng.randint(0, 1) for _ in c.inputs),
                tuple(rng.randint(0, 1) for _ in c.inputs),
            )
            for _ in range(48)
        ]
        robust_hits = robust.detected_faults(patterns, faults)
        nonrobust_hits = nonrobust.detected_faults(patterns, faults)
        for fault in faults:
            # per-lane containment: a robust detection is nonrobust too
            assert robust_hits[fault] & ~nonrobust_hits[fault] == 0

    def test_xor_path_no_nonrobust_side_condition(self):
        b = CircuitBuilder("xorp")
        b.inputs("a", "b")
        b.xor("y", "a", "b")
        b.outputs("y")
        c = b.build()
        fault = PathDelayFault.from_names(c, ("a", "y"), Transition.RISING)
        nonrobust = DelayFaultSimulator(c, TestClass.NONROBUST)
        robust = DelayFaultSimulator(c, TestClass.ROBUST)
        # b may even transition: nonrobust does not care, robust does
        both_change = TestPattern((0, 0), (1, 1))
        assert nonrobust.detects(both_change, fault)
        assert not robust.detects(both_change, fault)
        side_stable = TestPattern((0, 1), (1, 1))
        assert robust.detects(side_stable, fault)

    def test_lane_mask_positions(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        sim = DelayFaultSimulator(c, TestClass.NONROBUST)
        patterns = [
            TestPattern((0, 1, 0, 1), (0, 1, 0, 1)),  # no launch
            TestPattern((0, 0, 0, 1), (0, 1, 0, 1)),  # detecting
        ]
        hits = sim.detected_faults(patterns, [fault])
        assert hits[fault] == 0b10


class TestCoverage:
    def test_coverage_counts(self):
        c = paper_example()
        faults = all_faults(c)
        sim = DelayFaultSimulator(c, TestClass.NONROBUST)
        # exhaustive single-input-change patterns give good coverage
        vectors = list(itertools.product((0, 1), repeat=4))
        patterns = []
        for v2 in vectors:
            for flip in range(4):
                v1 = list(v2)
                v1[flip] = 1 - v1[flip]
                patterns.append(TestPattern(tuple(v1), v2))
        coverage = sim.coverage(patterns, faults)
        # 8 of the 26 faults are redundant (cf. engine tests)
        assert coverage == pytest.approx(18 / 26)

    def test_empty_faults(self):
        sim = DelayFaultSimulator(paper_example(), TestClass.NONROBUST)
        assert sim.coverage([], []) == 1.0


# ---------------------------------------------------------------------------
# fault order, flags, and launches that are not Transition members
# ---------------------------------------------------------------------------


def _c17_batch():
    from repro.core.patterns import random_patterns
    from repro.paths import fault_list

    circuit = c17()
    return circuit, fault_list(circuit, cap=22), random_patterns(circuit, 2, 0)


def _oracle(circuit, test_class, patterns, faults):
    return DelayFaultSimulator(
        circuit, test_class, backend="numpy", fusion="interp"
    ).detection_masks(patterns, faults)


class TestWalkOrder:
    """Every backend gives the oracle's masks, and their bools as flags,
    whatever the order of the faults: the native walk shares path
    prefixes between consecutive faults of one launch polarity."""

    @pytest.mark.parametrize(
        "backend",
        [
            "auto",
            pytest.param(
                "native",
                marks=pytest.mark.skipif(
                    not native_available(), reason="no native module"
                ),
            ),
            "numpy",
            "int",
        ],
    )
    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_orders_and_flags(self, backend, test_class):
        from repro.core.patterns import random_patterns
        from repro.circuit.generators import random_dag

        circuit = random_dag(7, 36, seed=3)
        faults = all_faults(circuit)
        patterns = random_patterns(circuit, 90, seed=1)
        shuffled = list(faults)
        random.Random(2).shuffle(shuffled)
        rising = [f for f in faults if f.transition is Transition.RISING]
        falling = [f for f in faults if f.transition is Transition.FALLING]
        orders = [
            faults,
            shuffled,
            faults[::-1],
            rising + falling,
            [f for pair in zip(rising, falling) for f in pair],
            faults + faults[:5],
            [PathDelayFault(f.signals[:k], f.transition)
             for f in faults[:6] for k in range(1, len(f.signals) + 1)],
        ]
        sim = DelayFaultSimulator(circuit, test_class, backend=backend)
        for batch in orders:
            want = _oracle(circuit, test_class, patterns, batch)
            assert sim.detection_masks(patterns, batch) == want
            assert sim.detection_masks(patterns, batch, flags=True) == [
                bool(mask) for mask in want
            ]

    def test_empty_batch_flags(self):
        circuit, faults, _ = _c17_batch()
        sim = DelayFaultSimulator(circuit, TestClass.ROBUST)
        assert sim.detection_masks([], faults, flags=True) == [False] * len(faults)


class TestTransitionMembers:
    def test_a_string_launch_is_refused_where_the_fault_is_made(self):
        circuit, faults, _ = _c17_batch()
        for fault in faults:
            with pytest.raises(TypeError, match=repr(fault.transition.value)):
                PathDelayFault(fault.signals, fault.transition.value)
        with pytest.raises(TypeError, match="None"):
            PathDelayFault((0, 5), None)

    def test_every_tier_refuses_a_forced_launch_alike(self):
        """A launch forced past the constructor reads as falling nowhere:
        every tier raises the same TypeError, and the session circuit
        breaker does not demote for it."""
        from repro.api import AtpgSession

        circuit, faults, patterns = _c17_batch()
        want = _oracle(circuit, TestClass.NONROBUST, patterns, faults)
        assert want[6] and want[10]  # the two rising faults detected
        forced = list(faults)
        for k in (6, 10):
            forced[k] = PathDelayFault(faults[k].signals, faults[k].transition)
            object.__setattr__(forced[k], "transition", faults[k].transition.value)
        errors = set()
        for backend, fusion in (
            ("auto", "auto"), ("numpy", "auto"), ("int", "auto"),
            ("numpy", "interp"),
        ):
            sim = DelayFaultSimulator(circuit, TestClass.NONROBUST, backend, fusion)
            with pytest.raises(TypeError) as error:
                sim.detection_masks(patterns, forced)
            errors.add(str(error.value))
        assert errors == {
            "fault transition must be Transition.RISING or "
            "Transition.FALLING, got 'R'"
        }
        session = AtpgSession(circuit)
        for call in (session.grade, session.simulate):
            with pytest.raises(TypeError, match="got 'R'"):
                call(patterns, forced)
        assert session.degrade_level == 0
        assert session.grade(patterns, faults)["detected_flags"] == [
            bool(mask) for mask in want
        ]
