"""Property-based tests (hypothesis) for the core invariants.

These exercise the load-bearing algebraic properties under randomized
inputs:

* the 3-valued and 7-valued forward rules are monotone in the
  information order and never invent conflicts from consistent data,
* bit-parallel simulation agrees with the scalar reference on random
  circuits and vectors,
* path counting agrees with enumeration on random DAGs,
* every test the engine generates for a random circuit is confirmed by
  the independent PPSFP simulator, and robust tests additionally
  survive the randomized-delay timing oracle.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AtpgSession
from repro.circuit import GateType
from repro.circuit.generators import random_dag
from repro.core import FaultStatus
from repro.logic import seven_valued as sv
from repro.logic import three_valued as tv
from repro.paths import TestClass, all_faults, count_paths, iter_paths
from repro.sim import DelayFaultSimulator, robust_timing_holds
from repro.sim.logic_sim import pack_vectors, simulate_words

MULTI_GATES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
]

three_values = st.sampled_from(["0", "1", "X"])
seven_values = st.sampled_from(list(sv.VALUES))
gate_types = st.sampled_from(MULTI_GATES)


def tv_planes(symbol):
    return {"0": (1, 0), "1": (0, 1), "X": (0, 0)}[symbol]


def tv_leq(weak, strong):
    """Information order: every bit of *weak* is present in *strong*."""
    return all((w & ~s) == 0 for w, s in zip(weak, strong))


class TestThreeValuedProperties:
    @given(gate_types, st.lists(three_values, min_size=2, max_size=4))
    def test_forward_never_conflicts_on_consistent_inputs(self, gate, symbols):
        planes = [tv_planes(s) for s in symbols]
        out = tv.forward(gate, planes, 1)
        assert tv.conflict(out) == 0

    @given(gate_types, st.lists(three_values, min_size=2, max_size=3))
    def test_forward_monotone(self, gate, symbols):
        """Refining an X input can only add output information."""
        planes = [tv_planes(s) for s in symbols]
        weak_out = tv.forward(gate, planes, 1)
        for i, s in enumerate(symbols):
            if s != "X":
                continue
            for refined in ("0", "1"):
                stronger = list(planes)
                stronger[i] = tv_planes(refined)
                strong_out = tv.forward(gate, stronger, 1)
                assert tv_leq(weak_out, strong_out), (gate, symbols, i, refined)

    @given(gate_types, st.lists(three_values, min_size=2, max_size=3),
           st.sampled_from([0, 1]))
    def test_backward_is_sound(self, gate, symbols, out_value):
        """Backward additions hold in every consistent completion."""
        from repro.circuit.gates import evaluate

        planes = [tv_planes(s) for s in symbols]
        additions = tv.backward(gate, tv_planes(str(out_value)), planes, 1)
        choices = [(0, 1) if s == "X" else (int(s),) for s in symbols]
        consistent = [
            bits
            for bits in itertools.product(*choices)
            if evaluate(gate, list(bits)) == out_value
        ]
        if not consistent:
            return  # contradictory requirement: nothing to check
        for i, (add_z, add_o) in enumerate(additions):
            if add_o & 1:
                assert all(bits[i] == 1 for bits in consistent)
            if add_z & 1:
                assert all(bits[i] == 0 for bits in consistent)


class TestSevenValuedProperties:
    @given(gate_types, st.lists(seven_values, min_size=2, max_size=4))
    def test_forward_never_conflicts_on_consistent_inputs(self, gate, names):
        planes = [sv.encode(n) for n in names]
        out = sv.forward(gate, planes, 1)
        assert sv.conflict(out) == 0

    @given(gate_types, st.lists(seven_values, min_size=2, max_size=3))
    def test_value_planes_agree_with_three_valued(self, gate, names):
        planes7 = [sv.encode(n) for n in names]
        planes3 = [(p[0], p[1]) for p in planes7]
        out7 = sv.forward(gate, planes7, 1)
        out3 = tv.forward(gate, planes3, 1)
        assert (out7[0], out7[1]) == out3

    #: refinement order of the seven values (weak -> strong choices)
    REFINEMENTS = {
        "X": ["U0", "U1", "S0", "S1", "R", "F"],
        "U0": ["S0", "F"],
        "U1": ["S1", "R"],
    }

    @given(gate_types, st.lists(seven_values, min_size=2, max_size=3))
    def test_forward_monotone(self, gate, names):
        planes = [sv.encode(n) for n in names]
        weak_out = sv.forward(gate, planes, 1)
        for i, name in enumerate(names):
            for refined in self.REFINEMENTS.get(name, []):
                stronger = list(planes)
                stronger[i] = sv.encode(refined)
                strong_out = sv.forward(gate, stronger, 1)
                assert tv_leq(weak_out, strong_out), (gate, names, i, refined)


class TestSimulationProperties:
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=5, max_value=40),
    )
    def test_word_simulation_matches_reference(self, seed, n_inputs, n_gates):
        import random as stdlib_random

        circuit = random_dag(n_inputs, n_gates, seed=seed)
        rng = stdlib_random.Random(seed + 1)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(16)
        ]
        words = pack_vectors(vectors)
        values = simulate_words(circuit, words, len(vectors))
        for lane in (0, len(vectors) - 1):
            reference = circuit.evaluate(vectors[lane])
            for gate in circuit.gates:
                assert (values[gate.index] >> lane) & 1 == reference[gate.name]

    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=3, max_value=7),
        st.integers(min_value=4, max_value=30),
    )
    def test_count_matches_enumeration(self, seed, n_inputs, n_gates):
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        enumerated = sum(1 for _ in iter_paths(circuit, max_paths=20_000))
        if enumerated < 20_000:
            assert enumerated == count_paths(circuit)


class TestGenerationProperties:
    @settings(deadline=None, max_examples=12,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_tests_verified_by_simulator(self, seed):
        circuit = random_dag(6, 18, seed=seed)
        faults = all_faults(circuit, cap=40)
        for test_class in (TestClass.NONROBUST, TestClass.ROBUST):
            report = AtpgSession(circuit).generate(
                faults, test_class=test_class, drop_faults=False
            )
            simulator = DelayFaultSimulator(circuit, test_class)
            for record in report.records:
                if record.status is FaultStatus.TESTED:
                    assert simulator.detects(record.pattern, record.fault), (
                        seed,
                        test_class,
                        record.fault.describe(circuit),
                    )

    @settings(deadline=None, max_examples=8,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=10_000))
    def test_robust_tests_survive_random_delays(self, seed):
        """Scoped to prefix-independent faults: there the lumped path
        fault model and the physical first-edge injection coincide, so
        the classic robust conditions must guarantee detection under
        every sampled delay map (see prefix_independent's docstring
        for the reconvergence gap that excludes the other faults)."""
        from repro.sim import prefix_independent

        circuit = random_dag(5, 14, seed=seed)
        faults = all_faults(circuit, cap=20)
        report = AtpgSession(circuit).generate(
            faults, test_class=TestClass.ROBUST, drop_faults=False
        )
        for record in report.records:
            if record.status is not FaultStatus.TESTED or record.fault.length < 1:
                continue
            if not prefix_independent(circuit, record.fault):
                continue
            assert robust_timing_holds(
                circuit, record.pattern, record.fault, samples=6, seed=seed
            ), (seed, record.fault.describe(circuit))
