"""End-to-end integration tests: the full flow on suite circuits.

Each scenario chains the subsystems the way a user would: build a
suite circuit, enumerate faults, generate tests, verify each pattern
with the PPSFP simulator, grade its strength with the ten-valued
logic, compact the test set, estimate coverage non-enumeratively, and
cross-check the tool baselines — asserting the global invariants at
every step.
"""

import pytest

from repro.api import AtpgSession
from repro.baselines import NestEstimator, generate_tests_bdd
from repro.circuit.suites import suite_circuit
from repro.circuit.validate import validate_circuit
from repro.core import FaultStatus, generate_tests_single_bit
from repro.core.compaction import greedy_compaction
from repro.paths import TestClass, fault_list
from repro.sim import DelayFaultSimulator, detection_strength


@pytest.fixture(scope="module", params=["s713", "s991", "c432"])
def workload(request):
    circuit = suite_circuit(request.param, scale=1)
    assert validate_circuit(circuit) == []
    faults = fault_list(circuit, cap=120, strategy="all")
    return circuit, faults


class TestFullFlow:
    def test_generate_verify_grade_compact(self, workload):
        circuit, faults = workload
        report = AtpgSession(circuit).generate(faults, test_class=TestClass.ROBUST)

        # 1. every fault settled
        assert report.n_faults == len(faults)
        statuses = {r.status for r in report.records}
        assert FaultStatus.DEFERRED not in statuses

        # 2. every pattern verified by the independent simulator
        simulator = DelayFaultSimulator(circuit, TestClass.ROBUST)
        patterns = []
        for record in report.records:
            if record.pattern is not None:
                assert simulator.detects(record.pattern, record.fault)
                patterns.append(record.pattern)

        # 3. every robust pattern grades at least 'robust'
        for record in report.records:
            if record.status is FaultStatus.TESTED:
                strength = detection_strength(circuit, record.pattern, record.fault)
                assert strength in ("robust", "hazard_free_robust"), (
                    record.fault.describe(circuit),
                    strength,
                )

        # 4. compaction preserves coverage
        if patterns:
            compacted = greedy_compaction(
                circuit, patterns, faults, TestClass.ROBUST
            )
            assert len(compacted) <= len(patterns)
            assert simulator.coverage(compacted, faults) == pytest.approx(
                simulator.coverage(patterns, faults)
            )

    def test_nonrobust_flow_with_nest(self, workload):
        circuit, faults = workload
        report = AtpgSession(circuit).generate(faults, test_class=TestClass.NONROBUST)
        assert report.efficiency == 100.0  # the paper's Table-4 claim

        patterns = report.patterns
        estimator = NestEstimator(circuit, TestClass.NONROBUST)
        estimate = estimator.estimate(patterns)
        # each pattern detects at least its own target path
        detected = sum(1 for r in report.records if r.status is FaultStatus.TESTED)
        assert estimate.upper_bound >= detected

    def test_single_bit_and_bdd_agree_on_verdicts(self, workload):
        circuit, faults = workload
        sample = faults[:60]
        parallel = AtpgSession(circuit).generate(
            sample, test_class=TestClass.NONROBUST, drop_faults=False
        )
        single = generate_tests_single_bit(
            circuit, sample, TestClass.NONROBUST, drop_faults=False
        )
        bdd = generate_tests_bdd(circuit, sample, TestClass.NONROBUST)
        for p, s, b in zip(parallel.records, single.records, bdd.records):
            assert (p.status is FaultStatus.TESTED) == (
                s.status is FaultStatus.TESTED
            ), p.fault.describe(circuit)
            if b.status is not FaultStatus.ABORTED:
                assert (p.status is FaultStatus.TESTED) == (
                    b.status is FaultStatus.TESTED
                ), p.fault.describe(circuit)

    def test_report_accounting(self, workload):
        circuit, faults = workload
        report = AtpgSession(circuit).generate(faults, test_class=TestClass.NONROBUST)
        total = (
            report.count(FaultStatus.TESTED)
            + report.count(FaultStatus.SIMULATED)
            + report.count(FaultStatus.REDUNDANT)
            + report.count(FaultStatus.ABORTED)
            + report.count(FaultStatus.DEFERRED)
        )
        assert total == report.n_faults
        assert report.seconds_total >= 0
