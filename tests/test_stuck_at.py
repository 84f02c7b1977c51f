"""Tests for the stuck-at extension (the paper's stated future work).

Ground truth on small circuits comes from exhaustive enumeration: a
stuck-at fault is testable iff some input vector makes a primary
output differ between the good and the faulted circuit.
"""

import itertools

import numpy as np
import pytest

from repro.circuit import CircuitBuilder
from repro.circuit.generators import random_dag, ripple_carry_adder
from repro.circuit.library import c17, paper_example, redundant_and_chain
from repro.core.stuck_at import (
    StuckAtFault,
    StuckAtStatus,
    all_stuck_at_faults,
    generate_stuck_at_tests,
    run_stuck_at_aptpg,
    run_stuck_at_fptpg,
)
from repro.kernel import native_available
from repro.sim.stuck_at_sim import StuckAtSimulator

#: Without a native module ``"native"`` falls back to the int words
#: with a warning, so only the int words are left to compare.
BACKENDS = ("int", "native") if native_available() else ("int",)


def faulted_output(circuit, fault, vector):
    """Evaluate with the fault injected (reference semantics)."""
    values = {}
    for pi, bit in zip(circuit.inputs, vector):
        values[pi] = bit
    if fault.signal in values:
        values[fault.signal] = fault.value
    for index in circuit.topological_order():
        gate = circuit.gates[index]
        if gate.is_input:
            if index == fault.signal:
                values[index] = fault.value
            continue
        from repro.circuit.gates import evaluate

        value = evaluate(gate.gate_type, [values[f] for f in gate.fanin])
        values[index] = fault.value if index == fault.signal else value
    return tuple(values[o] for o in circuit.outputs)


def exhaustively_testable(circuit, fault):
    n = len(circuit.inputs)
    for vector in itertools.product((0, 1), repeat=n):
        if circuit.output_values(vector) != faulted_output(circuit, fault, vector):
            return True
    return False


class TestFaultModel:
    def test_all_faults_count(self):
        c = c17()
        faults = all_stuck_at_faults(c)
        assert len(faults) == 2 * c.num_signals

    def test_describe(self):
        c = c17()
        fault = StuckAtFault(c.index_of("10"), 1)
        assert fault.describe(c) == "10 stuck-at-1"

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            StuckAtFault(0, 2)


class TestSimulator:
    @pytest.mark.parametrize("factory", [c17, paper_example])
    def test_simulator_matches_reference(self, factory):
        circuit = factory()
        simulator = StuckAtSimulator(circuit)
        faults = all_stuck_at_faults(circuit)
        n = len(circuit.inputs)
        vectors = list(itertools.product((0, 1), repeat=n))[:8]
        hits = simulator.detected_faults(vectors, faults)
        for fault in faults:
            for lane, vector in enumerate(vectors):
                expected = circuit.output_values(vector) != faulted_output(
                    circuit, fault, vector
                )
                assert bool((hits[fault] >> lane) & 1) == expected, (
                    fault.describe(circuit),
                    vector,
                )

    @pytest.mark.parametrize("bad", [0.5, "x", None, 2])
    def test_every_backend_refuses_a_bit_other_than_0_or_1(self, bad):
        """The int words and the native planes check single vectors
        alike."""
        circuit = c17()
        faults = all_stuck_at_faults(circuit)
        message = f"pattern 1: vector bit 3 is {bad!r}, expected 0 or 1"
        for backend in BACKENDS:
            simulator = StuckAtSimulator(circuit, backend=backend)
            for vectors in ([(0,) * 5, (1, 1, 1, bad, 0)], [[0] * 5, [1, 1, 1, bad, 0]]):
                with pytest.raises(ValueError) as error:
                    simulator.detected_faults(vectors, faults)
                assert str(error.value) == message, backend
            with pytest.raises(ValueError, match=r"vector has 4 bits, expected 5"):
                simulator.detected_faults([(0,) * 5, (1,) * 4], faults)

    def test_every_backend_reads_numpy_rows(self):
        """BIST hands the simulator the numpy rows of its lane planes."""
        circuit = c17()
        faults = all_stuck_at_faults(circuit)
        rows = np.array(list(itertools.product((0, 1), repeat=5)), dtype=np.uint8)
        want = StuckAtSimulator(circuit).detected_faults(
            [tuple(row) for row in rows.tolist()], faults
        )
        for backend in BACKENDS:
            simulator = StuckAtSimulator(circuit, backend=backend)
            assert simulator.detected_faults(list(rows), faults) == want, backend

    def test_coverage(self):
        circuit = c17()
        simulator = StuckAtSimulator(circuit)
        faults = all_stuck_at_faults(circuit)
        vectors = list(itertools.product((0, 1), repeat=5))
        assert simulator.coverage(vectors, faults) == 1.0
        assert simulator.coverage([], faults) == 0.0


class TestGeneration:
    @pytest.mark.parametrize("factory", [c17, paper_example, redundant_and_chain])
    def test_verdicts_match_exhaustive_truth(self, factory):
        circuit = factory()
        faults = all_stuck_at_faults(circuit)
        report = generate_stuck_at_tests(circuit, faults)
        simulator = StuckAtSimulator(circuit)
        for record in report.records:
            truth = exhaustively_testable(circuit, record.fault)
            if record.status in (StuckAtStatus.TESTED, StuckAtStatus.SIMULATED):
                assert truth, record.fault.describe(circuit)
                if record.vector is not None:
                    assert simulator.detects(record.vector, record.fault)
            elif record.status is StuckAtStatus.REDUNDANT:
                assert not truth, record.fault.describe(circuit)

    def test_c17_fully_testable(self):
        """Every stuck-at fault of c17 is testable (classic fact)."""
        circuit = c17()
        report = generate_stuck_at_tests(circuit)
        assert report.count(StuckAtStatus.REDUNDANT) == 0
        assert report.count(StuckAtStatus.ABORTED) == 0
        assert report.n_tested == report.n_faults

    def test_redundant_chain_has_untestable_faults(self):
        """x = AND(a, NOT(a)) is constant 0: x stuck-at-0 is untestable."""
        circuit = redundant_and_chain()
        x = circuit.index_of("x")
        report = generate_stuck_at_tests(circuit, [StuckAtFault(x, 0)])
        assert report.records[0].status is StuckAtStatus.REDUNDANT

    def test_fptpg_handles_full_word(self):
        circuit = ripple_carry_adder(3)
        faults = all_stuck_at_faults(circuit)[:32]
        statuses, vectors, _state = run_stuck_at_fptpg(circuit, faults, 32)
        tested = statuses.count(StuckAtStatus.TESTED)
        assert tested > len(faults) // 2
        simulator = StuckAtSimulator(circuit)
        for fault, status, vector in zip(faults, statuses, vectors):
            if status is StuckAtStatus.TESTED:
                assert simulator.detects(vector, fault)

    def test_aptpg_single_fault(self):
        circuit = paper_example()
        fault = StuckAtFault(circuit.index_of("s"), 0)
        status, vector, _bt = run_stuck_at_aptpg(circuit, fault, 8)
        assert status is StuckAtStatus.TESTED
        assert StuckAtSimulator(circuit).detects(vector, fault)

    def test_dropping_accelerates(self):
        circuit = random_dag(8, 40, seed=3)
        faults = all_stuck_at_faults(circuit)
        report = generate_stuck_at_tests(circuit, faults, width=16)
        assert report.count(StuckAtStatus.SIMULATED) > 0
        # dropped means really detected by an emitted vector
        simulator = StuckAtSimulator(circuit)
        vectors = [r.vector for r in report.records if r.vector is not None]
        for record in report.records:
            if record.status is StuckAtStatus.SIMULATED:
                hits = simulator.detected_faults(vectors, [record.fault])
                assert hits[record.fault]

    def test_report_summary(self):
        circuit = c17()
        report = generate_stuck_at_tests(circuit)
        summary = report.summary()
        assert summary["faults"] == 2 * circuit.num_signals
        assert summary["efficiency_%"] == 100.0

    def test_random_dag_verdicts_sound(self):
        circuit = random_dag(6, 20, seed=9)
        faults = all_stuck_at_faults(circuit)
        report = generate_stuck_at_tests(circuit, faults)
        for record in report.records:
            truth = exhaustively_testable(circuit, record.fault)
            if record.status is StuckAtStatus.REDUNDANT:
                assert not truth, record.fault.describe(circuit)
            if record.status in (StuckAtStatus.TESTED, StuckAtStatus.SIMULATED):
                assert truth, record.fault.describe(circuit)
