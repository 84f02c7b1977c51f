"""Regression tests: XOR side-input polarity enumeration.

Off-path inputs of on-path XOR gates are free polarity choices.  The
original convention (all sides 0) silently turned "unsensitizable
under one polarity" into "redundant", which the PPSFP simulator — a
polarity-free, independent implementation — exposed.  These tests pin
the fix.
"""

import pytest

from repro.api import AtpgSession
from repro.baselines import generate_tests_bdd
from repro.circuit import CircuitBuilder
from repro.circuit.suites import suite_circuit
from repro.core import FaultStatus
from repro.core.aptpg import run_aptpg
from repro.core.sensitize import path_final_values, xor_side_signals
from repro.paths import PathDelayFault, TestClass, Transition, fault_list
from repro.sim import DelayFaultSimulator


@pytest.fixture
def polarity_circuit():
    """y = XOR(a, b), z = AND(y, b): the path a-y-z is sensitizable
    only with the XOR side b = 1 (the AND requires b = 1)."""
    b = CircuitBuilder("xor_polarity")
    b.inputs("a", "b")
    b.xor("y", "a", "b")
    b.and_("z", "y", "b")
    b.outputs("z")
    return b.build()


class TestSideSignals:
    def test_side_signal_discovery(self, polarity_circuit):
        c = polarity_circuit
        fault = PathDelayFault.from_names(c, ("a", "y", "z"), Transition.RISING)
        assert xor_side_signals(c, fault) == [c.index_of("b")]

    def test_no_sides_on_plain_paths(self):
        from repro.circuit.library import paper_example

        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        assert xor_side_signals(c, fault) == []

    def test_path_finals_flip_with_polarity(self, polarity_circuit):
        c = polarity_circuit
        fault = PathDelayFault.from_names(c, ("a", "y", "z"), Transition.RISING)
        b_index = c.index_of("b")
        assert path_final_values(c, fault, {b_index: 0}) == (1, 1, 1)
        # side 1 inverts downstream of the XOR: y falls, z falls
        assert path_final_values(c, fault, {b_index: 1}) == (1, 0, 0)


class TestVerdicts:
    @pytest.mark.parametrize(
        "transition", [Transition.RISING, Transition.FALLING]
    )
    def test_polarity_path_is_tested(self, polarity_circuit, transition):
        c = polarity_circuit
        fault = PathDelayFault.from_names(c, ("a", "y", "z"), transition)
        report = AtpgSession(c).generate([fault], test_class=TestClass.NONROBUST)
        record = report.records[0]
        assert record.status in (FaultStatus.TESTED, FaultStatus.SIMULATED)
        sim = DelayFaultSimulator(c, TestClass.NONROBUST)
        assert sim.detects(record.pattern, fault)

    def test_robust_polarity_path(self, polarity_circuit):
        c = polarity_circuit
        fault = PathDelayFault.from_names(c, ("a", "y", "z"), Transition.RISING)
        outcome = run_aptpg(c, fault, TestClass.ROBUST, width=8)
        assert outcome.status is FaultStatus.TESTED
        sim = DelayFaultSimulator(c, TestClass.ROBUST)
        assert sim.detects(outcome.pattern, fault)

    def test_bdd_baseline_agrees(self, polarity_circuit):
        c = polarity_circuit
        fault = PathDelayFault.from_names(c, ("a", "y", "z"), Transition.RISING)
        for test_class in (TestClass.NONROBUST, TestClass.ROBUST):
            report = generate_tests_bdd(c, [fault], test_class)
            assert report.records[0].status is FaultStatus.TESTED, test_class

    def test_truly_redundant_xor_path_still_found(self):
        """With the side pinned by a constant-like structure both
        polarities conflict: redundancy must still be provable."""
        b = CircuitBuilder("xor_redundant")
        b.inputs("a", "b")
        b.not_("nb", "b")
        b.xor("y", "a", "b")
        b.and_("z", "y", "b", "nb")  # b AND NOT b: z needs both at 1
        b.outputs("z")
        c = b.build()
        fault = PathDelayFault.from_names(c, ("a", "y", "z"), Transition.RISING)
        outcome = run_aptpg(c, fault, TestClass.NONROBUST, width=8)
        assert outcome.status is FaultStatus.REDUNDANT


class TestWidthIndependence:
    def test_verdicts_independent_of_word_length(self):
        """The tested/redundant classification must not depend on L."""
        circuit = suite_circuit("s1423", 1)
        faults = fault_list(circuit, cap=96, strategy="all")
        reports = {
            width: AtpgSession(circuit).generate(
                faults, test_class=TestClass.NONROBUST, width=width
            )
            for width in (1, 4, 64)
        }
        baseline = reports[1]
        for width, report in reports.items():
            for a, b in zip(baseline.records, report.records):
                assert a.is_detected == b.is_detected, (width, a.fault)
