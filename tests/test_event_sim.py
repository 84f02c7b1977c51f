"""Unit tests for the event-driven timing simulator and fault oracle."""

import random

import pytest

from repro.api import AtpgSession
from repro.circuit import CircuitBuilder
from repro.circuit.generators import random_dag, ripple_carry_adder
from repro.circuit.library import c17, paper_example
from repro.core import TestPattern
from repro.core.results import FaultStatus
from repro.paths import PathDelayFault, TestClass, Transition, all_faults
from repro.sim import (
    TimingSimulator,
    fault_injection,
    robust_timing_holds,
    slowed_delays,
    timing_detects,
)


class TestTimingSimulation:
    @pytest.mark.parametrize("factory", [c17, paper_example])
    def test_final_values_match_static_evaluation(self, factory):
        """After settling, the timing sim must agree with V2 statics."""
        circuit = factory()
        rng = random.Random(7)
        sim = TimingSimulator(circuit)
        for _ in range(25):
            v1 = [rng.randint(0, 1) for _ in circuit.inputs]
            v2 = [rng.randint(0, 1) for _ in circuit.inputs]
            result = sim.simulate(v1, v2)
            expected = circuit.output_values(v2)
            assert result.final_outputs() == expected

    def test_initial_values_match_v1(self):
        circuit = paper_example()
        sim = TimingSimulator(circuit)
        v1 = [1, 0, 1, 0]
        result = sim.simulate(v1, [0, 1, 0, 1])
        expected = circuit.evaluate(v1)
        for gate in circuit.gates:
            assert result.waveforms[gate.index].initial == expected[gate.name]

    def test_random_delays_do_not_change_final_values(self):
        circuit = random_dag(8, 30, seed=11)
        rng = random.Random(12)
        delays = {
            g.index: rng.uniform(0.2, 3.0) for g in circuit.gates if not g.is_input
        }
        sim = TimingSimulator(circuit, delays)
        for _ in range(10):
            v1 = [rng.randint(0, 1) for _ in circuit.inputs]
            v2 = [rng.randint(0, 1) for _ in circuit.inputs]
            result = sim.simulate(v1, v2)
            assert result.final_outputs() == circuit.output_values(v2)

    def test_settle_bound_covers_settle_time(self):
        circuit = ripple_carry_adder(4)
        rng = random.Random(13)
        sim = TimingSimulator(circuit)
        for _ in range(10):
            v1 = [rng.randint(0, 1) for _ in circuit.inputs]
            v2 = [rng.randint(0, 1) for _ in circuit.inputs]
            assert sim.simulate(v1, v2).settle_time() <= sim.settle_bound() + 1e-9

    def test_glitch_is_observable(self):
        """a AND NOT(a) pulses when a rises — transport delays keep it."""
        b = CircuitBuilder("glitch")
        b.inputs("a")
        b.not_("n", "a")
        b.and_("x", "a", "n")
        b.outputs("x")
        circuit = b.build()
        sim = TimingSimulator(circuit)
        result = sim.simulate([0], [1])
        x = result.waveforms[circuit.index_of("x")]
        assert x.transition_count() == 2  # 0 -> 1 -> 0 pulse
        assert x.initial == 0 and x.final == 0

    def test_edge_delay_shifts_only_that_edge(self):
        b = CircuitBuilder("edge")
        b.inputs("a")
        b.buf("y", "a")
        b.buf("z", "a")
        b.outputs("y", "z")
        circuit = b.build()
        edge = (circuit.index_of("a"), circuit.index_of("y"))
        sim = TimingSimulator(circuit, edge_delays={edge: 5.0})
        result = sim.simulate([0], [1])
        y = result.waveforms[circuit.index_of("y")]
        z = result.waveforms[circuit.index_of("z")]
        assert y.events[0][0] == 6.0  # 5.0 edge + 1.0 gate
        assert z.events[0][0] == 1.0


class TestInjection:
    def test_fault_injection_first_edge(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        inj = fault_injection(fault, 7.0)
        assert inj == {(c.index_of("b"), c.index_of("p")): 7.0}

    def test_fault_injection_rejects_gateless_path(self):
        fault = PathDelayFault((0,), Transition.RISING)
        with pytest.raises(ValueError):
            fault_injection(fault, 1.0)

    def test_slowed_delays_variants(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        spread = slowed_delays({}, fault, 4.0, where="spread")
        assert spread[c.index_of("p")] == 3.0  # 1.0 + 4.0/2
        first = slowed_delays({}, fault, 4.0, where="first")
        assert first[c.index_of("p")] == 5.0
        last = slowed_delays({}, fault, 4.0, where="last")
        assert last[c.index_of("x")] == 5.0
        with pytest.raises(ValueError):
            slowed_delays({}, fault, 1.0, where="middle")

    def test_path_arrival_includes_edges(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        sim = TimingSimulator(c, edge_delays=fault_injection(fault, 10.0))
        assert sim.path_arrival(fault) == 12.0  # 2 gates + 10 edge


class TestOracle:
    def test_generated_nonrobust_tests_pass_nominal_oracle(self):
        circuit = paper_example()
        faults = all_faults(circuit)
        report = AtpgSession(circuit).generate(faults, test_class=TestClass.NONROBUST)
        for record in report.records:
            if record.status is FaultStatus.TESTED and record.fault.length >= 1:
                assert timing_detects(circuit, record.pattern, record.fault), (
                    record.fault.describe(circuit)
                )

    def test_generated_robust_tests_pass_randomized_oracle(self):
        from repro.sim import prefix_independent

        circuit = paper_example()
        faults = all_faults(circuit)
        report = AtpgSession(circuit).generate(faults, test_class=TestClass.ROBUST)
        checked = 0
        for record in report.records:
            if record.status is not FaultStatus.TESTED or record.fault.length < 1:
                continue
            if not prefix_independent(circuit, record.fault):
                continue
            assert robust_timing_holds(
                circuit, record.pattern, record.fault, samples=12, seed=3
            ), record.fault.describe(circuit)
            checked += 1
        assert checked > 0

    def test_c17_robust_tests_pass_randomized_oracle(self):
        from repro.sim import prefix_independent

        circuit = c17()
        faults = all_faults(circuit)
        report = AtpgSession(circuit).generate(faults, test_class=TestClass.ROBUST)
        checked = 0
        for record in report.records:
            if record.status is not FaultStatus.TESTED:
                continue
            if not prefix_independent(circuit, record.fault):
                continue
            assert robust_timing_holds(
                circuit, record.pattern, record.fault, samples=8, seed=17
            ), record.fault.describe(circuit)
            checked += 1
        assert checked > 0

    def test_reconvergence_model_gap_documented(self):
        """The known gap between the lumped path fault model and
        physical edge injection: an off-path input reconverging from
        the path prefix settles late in the faulty circuit, so the
        classic (Lin & Reddy) robust conditions do not guarantee
        detection under physical injection.  prefix_independent
        identifies exactly these faults."""
        from repro.circuit.generators import random_dag
        from repro.paths import PathDelayFault, Transition
        from repro.sim import prefix_independent

        circuit = random_dag(5, 14, seed=1)
        fault = PathDelayFault((0, 6, 11, 13), Transition.FALLING)
        assert not prefix_independent(circuit, fault)
        # the excluded fault is precisely the one whose robust test
        # failed the physical oracle during development (seed 1)
        pattern = TestPattern((1, 0, 1, 1, 1), (0, 0, 1, 1, 1), fault)
        assert not robust_timing_holds(
            circuit, pattern, fault, samples=6, seed=1
        )

    def test_oracle_rejects_non_test(self):
        circuit = paper_example()
        fault = PathDelayFault.from_names(circuit, ("b", "p", "x"), Transition.RISING)
        # no launch at b: cannot detect anything
        pattern = TestPattern((0, 1, 0, 1), (0, 1, 0, 1), fault)
        assert not timing_detects(circuit, pattern, fault)
