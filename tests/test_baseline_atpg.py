"""Tests for the BDD-based and structural ATPG baselines.

The key property: on circuits small enough for exact analysis, all
three generators (TIP bit-parallel, BDD-based, structural) must agree
on which faults are testable — they implement the same fault model.
"""

import pytest

from repro.api import AtpgSession
from repro.baselines import (
    BddPathAtpg,
    generate_tests_bdd,
    generate_tests_structural,
)
from repro.circuit.generators import random_dag
from repro.circuit.library import c17, paper_example, redundant_and_chain
from repro.core import FaultStatus
from repro.paths import PathDelayFault, TestClass, Transition, all_faults
from repro.sim import DelayFaultSimulator


class TestBddAtpgNonrobust:
    @pytest.mark.parametrize("factory", [c17, paper_example, redundant_and_chain])
    def test_agrees_with_main_engine(self, factory):
        circuit = factory()
        faults = all_faults(circuit)
        tip = AtpgSession(circuit).generate(
            faults, test_class=TestClass.NONROBUST, drop_faults=False
        )
        bdd = generate_tests_bdd(circuit, faults, TestClass.NONROBUST)
        for a, b in zip(tip.records, bdd.records):
            assert (a.status is FaultStatus.TESTED) == (
                b.status is FaultStatus.TESTED
            ), a.fault.describe(circuit)
            assert (a.status is FaultStatus.REDUNDANT) == (
                b.status is FaultStatus.REDUNDANT
            ), a.fault.describe(circuit)

    def test_patterns_detect(self):
        circuit = paper_example()
        faults = all_faults(circuit)
        report = generate_tests_bdd(circuit, faults, TestClass.NONROBUST)
        sim = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        for record in report.records:
            if record.status is FaultStatus.TESTED:
                assert sim.detects(record.pattern, record.fault)

    def test_redundant_example(self):
        circuit = paper_example()
        fault = PathDelayFault.from_names(
            circuit, ("b", "q", "s", "x"), Transition.RISING
        )
        atpg = BddPathAtpg(circuit)
        status, pattern = atpg.generate(fault, TestClass.NONROBUST)
        assert status is FaultStatus.REDUNDANT
        assert pattern is None


class TestBddAtpgRobust:
    def test_robust_class_is_superset_static(self):
        """The BDD baseline's static-stability robust class admits at
        least everything the hazard-aware engine admits (the paper's
        'slightly deviated test class' note about TSUNAMI-D)."""
        circuit = paper_example()
        faults = all_faults(circuit)
        tip = AtpgSession(circuit).generate(
            faults, test_class=TestClass.ROBUST, drop_faults=False
        )
        bdd = generate_tests_bdd(circuit, faults, TestClass.ROBUST)
        for a, b in zip(tip.records, bdd.records):
            if a.status is FaultStatus.TESTED:
                assert b.status is FaultStatus.TESTED, a.fault.describe(circuit)

    def test_robust_patterns_launch(self):
        circuit = c17()
        faults = all_faults(circuit)
        report = generate_tests_bdd(circuit, faults, TestClass.ROBUST)
        for record in report.records:
            if record.status is FaultStatus.TESTED:
                launch = circuit.inputs.index(record.fault.input_signal)
                assert record.pattern.v1[launch] != record.pattern.v2[launch]

    def test_blowup_aborts(self):
        circuit = random_dag(12, 60, seed=77, profile="xor_rich")
        faults = all_faults(circuit, cap=10)
        report = generate_tests_bdd(
            circuit, faults, TestClass.ROBUST, node_limit=50
        )
        assert report.count(FaultStatus.ABORTED) == len(faults)


class TestStructuralBaseline:
    @pytest.mark.parametrize("test_class", [TestClass.NONROBUST, TestClass.ROBUST])
    def test_agrees_on_paper_example(self, test_class):
        circuit = paper_example()
        faults = all_faults(circuit)
        tip = AtpgSession(circuit).generate(
            faults, test_class=test_class, drop_faults=False
        )
        structural = generate_tests_structural(
            circuit, faults, test_class, drop_faults=False
        )
        for a, b in zip(tip.records, structural.records):
            if b.status is FaultStatus.ABORTED:
                continue  # the weaker engine may give up; never lies
            assert a.is_detected == b.is_detected, a.fault.describe(circuit)

    def test_patterns_detect(self):
        circuit = c17()
        faults = all_faults(circuit)
        report = generate_tests_structural(circuit, faults, TestClass.NONROBUST)
        sim = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        for record in report.records:
            if record.status is FaultStatus.TESTED:
                assert sim.detects(record.pattern, record.fault)

    def test_never_claims_false_redundancy(self):
        """Redundancy claims of the weak engine must match the strong
        engine's ground truth (conflicts are sound either way)."""
        circuit = random_dag(8, 30, seed=21)
        faults = all_faults(circuit, cap=80)
        strong = AtpgSession(circuit).generate(
            faults, test_class=TestClass.NONROBUST, drop_faults=False
        )
        weak = generate_tests_structural(
            circuit, faults, TestClass.NONROBUST, drop_faults=False
        )
        for a, b in zip(strong.records, weak.records):
            if b.status is FaultStatus.REDUNDANT:
                assert a.status is FaultStatus.REDUNDANT, a.fault.describe(circuit)
