"""Integration tests for the combined FPTPG + APTPG engine.

The central invariants:

* every TESTED pattern really detects its fault (checked by the
  independent PPSFP simulator),
* every REDUNDANT verdict is true (checked by exhaustive two-vector
  enumeration on small circuits),
* robust-testable faults are a subset of nonrobust-testable faults,
* the single-bit engine classifies faults identically (same algorithm,
  fewer lanes).
"""

import itertools

import pytest

from repro.api import AtpgSession
from repro.circuit.generators import random_dag, ripple_carry_adder
from repro.circuit.library import c17, paper_example, redundant_and_chain
from repro.core import FaultStatus, TestPattern, generate_tests_single_bit
from repro.paths import TestClass, all_faults
from repro.sim import DelayFaultSimulator

CIRCUITS = [c17, paper_example, redundant_and_chain]


def generate(circuit, faults, test_class, **options):
    """The combined engine through its front door."""
    return AtpgSession(circuit).generate(faults, test_class=test_class, **options)


def exhaustive_detectable(circuit, fault, test_class):
    """Ground truth by enumerating every (V1, V2) pair (small inputs)."""
    n = len(circuit.inputs)
    sim = DelayFaultSimulator(circuit, test_class)
    vectors = list(itertools.product((0, 1), repeat=n))
    patterns = [
        TestPattern(v1, v2, fault) for v1 in vectors for v2 in vectors
    ]
    hits = sim.detected_faults(patterns, [fault])
    return bool(hits[fault])


class TestGeneratedPatternsDetect:
    @pytest.mark.parametrize("factory", CIRCUITS)
    @pytest.mark.parametrize("test_class", [TestClass.NONROBUST, TestClass.ROBUST])
    def test_every_pattern_detects_its_fault(self, factory, test_class):
        circuit = factory()
        faults = all_faults(circuit)
        report = generate(circuit, faults, test_class)
        sim = DelayFaultSimulator(circuit, test_class)
        for record in report.records:
            if record.status is FaultStatus.TESTED:
                assert sim.detects(record.pattern, record.fault), record.fault.describe(
                    circuit
                )

    def test_generated_dag_patterns_detect(self):
        circuit = random_dag(8, 30, seed=5)
        faults = all_faults(circuit, cap=120)
        for test_class in (TestClass.NONROBUST, TestClass.ROBUST):
            report = generate(circuit, faults, test_class)
            sim = DelayFaultSimulator(circuit, test_class)
            for record in report.records:
                if record.status is FaultStatus.TESTED:
                    assert sim.detects(record.pattern, record.fault)


class TestRedundancyVerdicts:
    @pytest.mark.parametrize("factory", [paper_example, redundant_and_chain])
    @pytest.mark.parametrize("test_class", [TestClass.NONROBUST, TestClass.ROBUST])
    def test_redundant_faults_have_no_test(self, factory, test_class):
        circuit = factory()
        faults = all_faults(circuit)
        report = generate(circuit, faults, test_class)
        for record in report.records:
            if record.status is FaultStatus.REDUNDANT:
                assert not exhaustive_detectable(circuit, record.fault, test_class), (
                    record.fault.describe(circuit)
                )

    def test_no_aborts_and_verdicts_are_complete(self):
        """On the small circuits every fault must be settled, and the
        testable set must match the exhaustive ground truth."""
        circuit = paper_example()
        faults = all_faults(circuit)
        report = generate(circuit, faults, TestClass.NONROBUST)
        assert report.n_aborted == 0
        for record in report.records:
            truth = exhaustive_detectable(circuit, record.fault, TestClass.NONROBUST)
            assert record.is_detected == truth, record.fault.describe(circuit)

    def test_constant_zero_cone_verdicts(self):
        """x = AND(a, NOT(a)) is *statically* constant 0, yet half of
        its path delay faults are testable via the transient pulse
        (the late inverter leaves x at 1 at sampling time).  The
        verdicts depend on the transition direction; the timing oracle
        confirms the tested ones really work."""
        from repro.paths import Transition
        from repro.sim import timing_detects

        circuit = redundant_and_chain()
        faults = all_faults(circuit)
        report = generate(circuit, faults, TestClass.NONROBUST)
        n_idx = circuit.index_of("n")
        x_idx = circuit.index_of("x")
        expected = {
            # (goes through n, transition) -> detected?
            (True, Transition.RISING): True,  # pulse forms: testable
            (True, Transition.FALLING): False,  # needs a=1 and a=0
            (False, Transition.RISING): False,  # off-path n=1 needs a=0
            (False, Transition.FALLING): True,  # consistent: testable
        }
        for record in report.records:
            if x_idx not in record.fault.signals:
                continue
            through_n = n_idx in record.fault.signals
            want = expected[(through_n, record.fault.transition)]
            assert record.is_detected == want, record.fault.describe(circuit)
            if not want:
                assert record.status is FaultStatus.REDUNDANT
            if record.pattern is not None:
                assert timing_detects(circuit, record.pattern, record.fault)


class TestClassContainment:
    @pytest.mark.parametrize("factory", CIRCUITS)
    def test_robust_testable_subset_of_nonrobust(self, factory):
        circuit = factory()
        faults = all_faults(circuit)
        nonrobust = generate(circuit, faults, TestClass.NONROBUST)
        robust = generate(circuit, faults, TestClass.ROBUST)
        for nr, r in zip(nonrobust.records, robust.records):
            if r.is_detected:
                assert nr.is_detected or nr.status is FaultStatus.ABORTED


class TestSingleBitEquivalence:
    @pytest.mark.parametrize("test_class", [TestClass.NONROBUST, TestClass.ROBUST])
    def test_same_verdicts(self, test_class):
        circuit = paper_example()
        faults = all_faults(circuit)
        parallel = generate(circuit, faults, test_class, width=64, drop_faults=False)
        single = generate_tests_single_bit(
            circuit, faults, test_class, drop_faults=False
        )
        for p, s in zip(parallel.records, single.records):
            detected_p = p.status is FaultStatus.TESTED
            detected_s = s.status is FaultStatus.TESTED
            assert detected_p == detected_s, p.fault.describe(circuit)
            assert (p.status is FaultStatus.REDUNDANT) == (
                s.status is FaultStatus.REDUNDANT
            )

    def test_single_bit_patterns_detect(self):
        circuit = c17()
        faults = all_faults(circuit)
        report = generate_tests_single_bit(circuit, faults, TestClass.ROBUST)
        sim = DelayFaultSimulator(circuit, TestClass.ROBUST)
        for record in report.records:
            if record.status is FaultStatus.TESTED:
                assert sim.detects(record.pattern, record.fault)


class TestFaultDropping:
    def test_dropping_preserves_detected_set(self):
        circuit = ripple_carry_adder(3)
        faults = all_faults(circuit, cap=80)
        dropped = generate(circuit, faults, TestClass.NONROBUST, drop_faults=True)
        undropped = generate(circuit, faults, TestClass.NONROBUST, drop_faults=False)
        for d, u in zip(dropped.records, undropped.records):
            assert d.is_detected == u.is_detected

    @staticmethod
    def _fanout_tree():
        """Two outputs behind one buffer: patterns for one path detect
        the sibling path for free (guaranteed collateral coverage)."""
        from repro.circuit import CircuitBuilder

        b = CircuitBuilder("fanout")
        b.inputs("a")
        b.buf("x", "a")
        b.buf("o1", "x")
        b.buf("o2", "x")
        b.outputs("o1", "o2")
        return b.build()

    def test_dropping_produces_simulated_status(self):
        # single-lane batches force one fault per round, so the second
        # round sees faults already covered by the first pattern
        circuit = self._fanout_tree()
        faults = all_faults(circuit)
        report = generate(circuit, faults, TestClass.NONROBUST, width=1)
        assert report.count(FaultStatus.SIMULATED) > 0

    def test_dropped_faults_detected_by_existing_patterns(self):
        circuit = self._fanout_tree()
        faults = all_faults(circuit)
        report = generate(circuit, faults, TestClass.NONROBUST, width=1)
        sim = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        patterns = report.patterns
        for record in report.records:
            if record.status is FaultStatus.SIMULATED:
                hits = sim.detected_faults(patterns, [record.fault])
                assert hits[record.fault]


class TestOptions:
    def test_empty_fault_list(self):
        report = generate(c17(), [], TestClass.NONROBUST)
        assert report.n_faults == 0
        assert report.efficiency == 100.0

    def test_aptpg_disabled_leaves_deferred(self):
        circuit = random_dag(8, 30, seed=5)
        faults = all_faults(circuit, cap=60)
        options = dict(use_aptpg=False, drop_faults=False)
        report = generate(circuit, faults, TestClass.ROBUST, **options)
        assert report.count(FaultStatus.ABORTED) == 0
        # deferred faults may exist and count against efficiency
        assert report.n_aborted == report.count(FaultStatus.DEFERRED)

    def test_fptpg_disabled_still_complete(self):
        circuit = paper_example()
        faults = all_faults(circuit)
        options = dict(use_fptpg=False, drop_faults=False)
        report = generate(circuit, faults, TestClass.NONROBUST, **options)
        combined = generate(circuit, faults, TestClass.NONROBUST, drop_faults=False)
        for a, b in zip(report.records, combined.records):
            assert (a.status is FaultStatus.TESTED) == (b.status is FaultStatus.TESTED)

    def test_report_summary_shape(self):
        circuit = c17()
        faults = all_faults(circuit)
        report = generate(circuit, faults, TestClass.NONROBUST)
        summary = report.summary()
        assert summary["faults"] == len(faults)
        assert summary["tested"] + summary["redundant"] + summary["aborted"] == len(
            faults
        )
        assert 0.0 <= summary["efficiency_%"] <= 100.0
