"""Fused execution strategies are bit-identical to the interpreter.

The contract of the plan-fusion layer: ``interp`` (the per-gate
oracle loop), the ``auto`` fast paths (straight-line compiled bodies
on int words, level-vectorized groups on numpy) and the compiled-C
``native`` word backend may differ only in speed.  These tests assert bit-identity on
randomized circuits and inputs for two-valued, seven-valued, and
ten-valued simulation, for detection masks and detection-strength
grading across both test classes, for stuck-at cone resimulation, for
the TPG implication engine's forward and backward tables, and for
end-to-end generation / grading / stuck-at coverage on c880.  The
native classes are skip-marked cleanly on hosts without a C
toolchain; the fallback path itself is covered in ``test_kernel.py``.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AtpgSession, Options
from repro.circuit import Circuit, GateType
from repro.circuit.generators import random_dag
from repro.circuit.suites import suite_circuit
from repro.core.patterns import random_patterns
from repro.core.state import SEVEN_VALUED, THREE_VALUED, TpgState
from repro.core.stuck_at import all_stuck_at_faults
from repro.kernel import (
    IntWordBackend,
    NativeWordBackend,
    NumpyWordBackend,
    PackedPatterns,
    fused_plan,
    native_available,
    words_to_int,
)
from repro.kernel.codegen import gate_backward_fn
from repro.logic import seven_valued, three_valued
from repro.logic.words import mask_for
from repro.paths import PathDelayFault, TestClass, Transition, fault_list
from repro.sim import DelayFaultSimulator, StuckAtSimulator
from repro.sim.delay_sim import (
    pack_patterns,
    simulate_planes10,
    strength_masks,
    strength_masks_all,
)
from repro.sim.logic_sim import pack_vectors
from tiers import tpg_state

circuit_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=3, max_value=8),  # inputs
    st.integers(min_value=5, max_value=40),  # gates
)


def _int_rows(array_values, valid_int=None):
    rows = [words_to_int(np.ascontiguousarray(row)) for row in array_values]
    if valid_int is not None:
        rows = [row & valid_int for row in rows]
    return rows


class TestLogicStrategies:
    @settings(max_examples=40, deadline=None)
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_two_valued_bit_identity(self, params, n_vectors):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        compiled = circuit.compiled()
        rng = random.Random(seed + 1)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs]
            for _ in range(n_vectors)
        ]
        words = pack_vectors(vectors)
        oracle = IntWordBackend(n_vectors, fusion="interp").simulate_logic(
            compiled, words
        )
        assert IntWordBackend(n_vectors).simulate_logic(compiled, words) == oracle
        packed = PackedPatterns.from_vectors(vectors)
        valid = words_to_int(packed.lane_valid())
        masked_oracle = [word & valid for word in oracle]
        for fusion in ("interp", "auto"):
            values = NumpyWordBackend(
                n_vectors, fusion=fusion
            ).simulate_logic(compiled, packed.v2)
            assert _int_rows(np.asarray(values), valid) == masked_oracle, fusion

    @settings(max_examples=40, deadline=None)
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_seven_valued_bit_identity(self, params, n_patterns):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        compiled = circuit.compiled()
        patterns = random_patterns(circuit, n_patterns, seed + 2)
        input_planes, width = pack_patterns(circuit, patterns)
        oracle = IntWordBackend(width, fusion="interp").simulate_planes7(
            compiled, input_planes
        )
        assert IntWordBackend(width).simulate_planes7(compiled, input_planes) == oracle
        packed = PackedPatterns.from_patterns(patterns)
        for fusion in ("interp", "auto"):
            values = NumpyWordBackend(width, fusion=fusion).simulate_planes7(
                compiled, packed.planes7()
            )
            as_ints = [
                tuple(words_to_int(np.ascontiguousarray(p)) for p in planes)
                for planes in values
            ]
            assert as_ints == oracle, fusion


class TestTenValuedStrategies:
    @settings(max_examples=30, deadline=None)
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_ten_valued_bit_identity(self, params, n_patterns):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        compiled = circuit.compiled()
        patterns = random_patterns(circuit, n_patterns, seed + 6)
        oracle, width = simulate_planes10(circuit, patterns, fusion="interp")
        fused, _ = simulate_planes10(circuit, patterns)
        assert fused == oracle
        packed = PackedPatterns.from_patterns(patterns)
        valid = packed.lane_valid()
        inputs10 = [(z, o, s, i, valid) for z, o, s, i in packed.planes7()]
        for fusion in ("interp", "auto"):
            values = NumpyWordBackend(width, fusion=fusion).simulate_planes10(
                compiled, inputs10
            )
            as_ints = [
                tuple(words_to_int(np.ascontiguousarray(p)) for p in planes)
                for planes in values
            ]
            assert as_ints == oracle, fusion

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_strength_grading_bit_identical_across_strategies(
        self, params, n_patterns
    ):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        faults = fault_list(circuit, cap=16, strategy="all")
        patterns = random_patterns(circuit, n_patterns, seed + 7)
        # per-fault oracle walk over the interpreted int-word pass
        values, width = simulate_planes10(circuit, patterns, fusion="interp")
        reference = [
            strength_masks(circuit, fault, values, width) for fault in faults
        ]
        for backend in ("int", "numpy"):
            for fusion in ("interp", "auto"):
                triples = strength_masks_all(
                    circuit, patterns, faults, backend=backend, fusion=fusion
                )
                assert triples == reference, (backend, fusion)
        # containment: strong <= robust <= nonrobust, lane-wise
        for nonrobust, robust, strong in reference:
            assert strong & ~robust == 0
            assert robust & ~nonrobust == 0


class TestStuckAtStrategies:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_cone_resim_bit_identical_across_strategies(self, params, n_vectors):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        rng = random.Random(seed + 8)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs]
            for _ in range(n_vectors)
        ]
        faults = all_stuck_at_faults(circuit)
        oracle = StuckAtSimulator(circuit, fusion="interp").detected_faults(
            vectors, faults
        )
        sim = StuckAtSimulator(circuit)
        assert sim.detected_faults(vectors, faults) == oracle
        # repeated calls serve from the same memoized cone bodies
        assert sim.detected_faults(vectors, faults) == oracle

    def test_interp_cone_plans_cached_across_calls(self):
        circuit = random_dag(5, 20, seed=11)
        sim = StuckAtSimulator(circuit, fusion="interp")
        faults = all_stuck_at_faults(circuit)
        vectors = [[lane & 1 for _ in circuit.inputs] for lane in range(8)]
        sim.detected_faults(vectors, faults)
        plans = {site: plan for site, plan in sim._cone_plans.items()}
        sim.detected_faults(vectors, faults)
        for site, plan in sim._cone_plans.items():
            assert plans[site] is plan  # rebuilt nothing


class TestDetectionMasks:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit_params, st.sampled_from(list(TestClass)))
    def test_masks_bit_identical_across_strategies(self, params, test_class):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        faults = fault_list(circuit, cap=24, strategy="all")
        patterns = random_patterns(circuit, 100, seed + 3)
        reference = None
        for backend in ("int", "numpy"):
            for fusion in ("interp", "auto"):
                sim = DelayFaultSimulator(
                    circuit, test_class, backend=backend, fusion=fusion
                )
                masks = sim.detection_masks(patterns, faults)
                if reference is None:
                    reference = masks
                else:
                    assert masks == reference, (backend, fusion)


class TestImplicationForwardTable:
    @settings(max_examples=30, deadline=None)
    @given(circuit_params, st.sampled_from(["three", "seven"]))
    def test_imply_matches_interp(self, params, algebra_name):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        algebra = THREE_VALUED if algebra_name == "three" else SEVEN_VALUED
        logic = three_valued if algebra_name == "three" else seven_valued
        width = 8
        rng = random.Random(seed + 4)
        assignments = [
            (
                rng.randrange(circuit.num_signals),
                logic.encode_word(
                    rng.choice(["0", "1"])
                    if algebra_name == "three"
                    else rng.choice(["S0", "S1", "R", "F"]),
                    1 << rng.randrange(width),
                )
                if algebra_name == "seven"
                else logic.encode_word(rng.randint(0, 1), 1 << rng.randrange(width)),
            )
            for _ in range(6)
        ]
        states = {}
        for tier in ("python/interp", "python/codegen"):
            state = tpg_state(tier, circuit, algebra, width)
            for signal, planes in assignments:
                state.assign(signal, planes)
            state.imply()
            states[tier] = state
        interp, codegen = states["python/interp"], states["python/codegen"]
        assert interp.planes == codegen.planes
        assert interp.conflict_mask == codegen.conflict_mask

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_backward_bodies_match_interp_on_arbitrary_planes(self, seed):
        """The unrolled backward bodies equal ``Algebra.backward`` for
        every gate shape, on arbitrary (not only consistent) planes."""
        circuit = random_dag(5, 22, seed=seed)
        compiled = circuit.compiled()
        rng = random.Random(seed + 9)
        mask = mask_for(8)
        for algebra in (THREE_VALUED, SEVEN_VALUED):
            for s in range(compiled.n_signals):
                if compiled.is_input[s]:
                    continue
                fanin = compiled.py_fanin[s]
                out = tuple(
                    rng.randint(0, mask) for _ in range(algebra.n_planes)
                )
                ins = [
                    tuple(rng.randint(0, mask) for _ in range(algebra.n_planes))
                    for _ in fanin
                ]
                gate_type = compiled.gate_types[s]
                reference = algebra.backward(gate_type, out, ins, mask)
                fn = gate_backward_fn(
                    algebra.name, compiled.py_codes[s], len(fanin)
                )
                assert list(fn(out, ins, mask)) == list(reference), (
                    algebra.name,
                    gate_type,
                )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_dirty_scan_matches_direct_computation(self, seed):
        """The cached justification scan equals per-signal recomputation,
        through assign/imply/rollback/flatten sequences."""
        circuit = random_dag(5, 18, seed=seed)
        state = TpgState(circuit, SEVEN_VALUED, 8)
        rng = random.Random(seed + 5)

        def assert_scan_consistent():
            scanned = dict(state.scan_unjustified())
            live = state.mask & ~state.conflict_mask
            direct = {}
            for index in range(circuit.num_signals):
                m = state.unjustified_lanes(index) & live
                if m:
                    direct[index] = m
            assert scanned == direct
            expected_all = live
            for m in direct.values():
                expected_all &= ~m
            assert state.all_justified_mask() == expected_all

        token = None
        for step in range(12):
            signal = rng.randrange(circuit.num_signals)
            planes = seven_valued.encode_word(
                rng.choice(["S0", "S1", "R", "F"]), 1 << rng.randrange(8)
            )
            if step == 4:
                token = state.mark()
            state.assign(signal, planes)
            if rng.random() < 0.5:
                state.imply()
            assert_scan_consistent()
        if token is not None:
            state.rollback(token)
            assert_scan_consistent()
        state.flatten_lane(2)
        assert_scan_consistent()


class TestEndToEnd:
    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_c880_statuses_identical_under_auto_fusion(self, test_class):
        statuses = {}
        for fusion in ("interp", "auto"):
            session = AtpgSession.open(
                "c880", options=Options(width=16, fusion=fusion)
            )
            report = session.generate(test_class=test_class, max_faults=96)
            statuses[fusion] = [record.status for record in report.records]
        assert statuses["interp"] == statuses["auto"]

    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_c880_grade_identical_under_auto_fusion(self, test_class):
        session = AtpgSession.open("c880")
        faults = fault_list(session.circuit, cap=64, strategy="all")
        patterns = random_patterns(session.circuit, 100, 13)
        reports = {
            fusion: session.grade(
                patterns,
                faults,
                test_class=test_class,
                fusion=fusion,
                strength=True,
            )
            for fusion in ("interp", "auto")
        }
        assert reports["interp"] == reports["auto"]
        report = reports["auto"]
        assert len(report["strengths"]) == len(faults)
        assert sum(report["strength_counts"].values()) == sum(
            1 for label in report["strengths"] if label is not None
        )
        # the strength path derives detection from the 10-valued pass;
        # it must agree with the plain 7-valued grading flags
        plain = session.grade(patterns, faults, test_class=test_class)
        assert report["detected_flags"] == plain["detected_flags"]

    def test_c880_stuck_at_coverage_identical_under_auto_fusion(self):
        circuit = suite_circuit("c880")
        faults = all_stuck_at_faults(circuit)[:120]
        rng = random.Random(17)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(100)
        ]
        interp = StuckAtSimulator(circuit, fusion="interp")
        fused = StuckAtSimulator(circuit, fusion="auto")
        assert fused.detected_faults(vectors, faults) == interp.detected_faults(
            vectors, faults
        )
        assert fused.coverage(vectors, faults) == interp.coverage(
            vectors, faults
        )

    def test_bulk2k_suite_circuit_is_large(self):
        circuit = suite_circuit("bulk2k")
        assert circuit.num_signals - len(circuit.inputs) >= 2000

    def test_fused_plan_covers_every_gate_once(self):
        circuit = suite_circuit("bulk2k")
        compiled = circuit.compiled()
        plan = fused_plan(compiled)
        outs = np.concatenate([group.outs for group in plan.groups])
        assert len(outs) == plan.n_gates == len(compiled.plan)
        assert len(np.unique(outs)) == len(outs)
        # every fanin is strictly below its group's outputs in level
        for group in plan.groups:
            out_levels = compiled.level[group.outs]
            fanin_levels = compiled.level[group.fanins]
            assert (fanin_levels < out_levels[:, None]).all()


# ---------------------------------------------------------------------------
# the compiled-C native backend
# ---------------------------------------------------------------------------

needs_toolchain = pytest.mark.skipif(
    not native_available(),
    reason="no C toolchain and no cached native module",
)


def walk_circuit(seed: int, n_inputs: int, n_gates: int) -> Circuit:
    """A random DAG with XOR-family gates and duplicate fanins.

    Fanins are drawn with replacement from a small recent window, so
    gates like ``AND(a, a, b)`` and paths that repeat a fault are
    common — the shapes the native walks' per-edge term sharing must
    get right.
    """
    rng = random.Random(seed)
    circuit = Circuit(name=f"walk_{seed}")
    signals = [circuit.add_input(f"i{k}") for k in range(n_inputs)]
    kinds = [
        GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
        GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
    ]
    for g in range(n_gates):
        kind = rng.choice(kinds)
        arity = 1 if kind in (GateType.NOT, GateType.BUF) else rng.randint(2, 6)
        window = signals[-6:]
        signals.append(
            circuit.add_gate(f"g{g}", kind, [rng.choice(window) for _ in range(arity)])
        )
    for signal in signals[-3:]:
        circuit.mark_output(signal)
    return circuit.freeze()


#: Pattern counts from one lane to several words, never a word multiple
#: past the first word (the last word then carries padding lanes).
pattern_counts = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=65, max_value=300).filter(lambda n: n % 64),
)


@needs_toolchain
class TestNativeWalks:
    """The C detection and strength walks against the interp oracle."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=3, max_value=30),
        pattern_counts,
    )
    def test_walks_bit_identical_to_interp(
        self, seed, n_inputs, n_gates, n_patterns
    ):
        circuit = walk_circuit(seed, n_inputs, n_gates)
        faults = fault_list(circuit, cap=24, strategy="all")
        faults = faults + faults[::3]  # repeated faults
        patterns = random_patterns(circuit, n_patterns, seed + 1)
        packed = PackedPatterns.from_patterns(patterns)
        for test_class in TestClass:
            oracle = DelayFaultSimulator(
                circuit, test_class, backend="numpy", fusion="interp"
            ).detection_masks(patterns, faults)
            native = DelayFaultSimulator(circuit, test_class, backend="native")
            assert native.detection_masks(patterns, faults) == oracle
            assert native.detection_masks(packed, faults) == oracle
            assert native.detection_masks(packed, []) == []
        assert strength_masks_all(
            circuit, packed, faults, backend="native"
        ) == strength_masks_all(
            circuit, patterns, faults, backend="int", fusion="interp"
        )
        assert strength_masks_all(circuit, packed, [], backend="native") == []

    def test_off_structure_paths(self):
        """Steps whose driver does not feed the next signal match the
        oracle; signal ids outside the circuit are rejected."""
        circuit = walk_circuit(7, 4, 20)
        patterns = random_patterns(circuit, 130, 8)
        last = circuit.num_signals - 1
        faults = [
            PathDelayFault((0, last), Transition.RISING),
            PathDelayFault((1, 0, last), Transition.FALLING),
        ]
        for test_class in TestClass:
            oracle = DelayFaultSimulator(
                circuit, test_class, backend="numpy", fusion="interp"
            ).detection_masks(patterns, faults)
            native = DelayFaultSimulator(circuit, test_class, backend="native")
            assert native.detection_masks(patterns, faults) == oracle
        for bad in ((0, last + 1), (-1, last), (0, 2**40)):
            with pytest.raises(ValueError, match="outside the circuit"):
                native.detection_masks(
                    patterns, [PathDelayFault(bad, Transition.RISING)]
                )


@needs_toolchain
class TestNativeBackend:
    """Native vs the interpreted oracle, every covered pass per example:
    2-valued, 7-valued and 10-valued passes, PPSFP detection masks in
    both classes, strength triples, and stuck-at cone resimulation, on
    each random circuit (all circuits share the one native module)."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(circuit_params, st.integers(min_value=1, max_value=130))
    def test_native_bit_identical_to_interp_on_every_pass(
        self, params, n_patterns
    ):
        seed, n_inputs, n_gates = params
        circuit = random_dag(n_inputs, n_gates, seed=seed)
        compiled = circuit.compiled()
        rng = random.Random(seed + 10)
        n_vectors = n_patterns

        # --- two-valued full pass
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs]
            for _ in range(n_vectors)
        ]
        packed = PackedPatterns.from_vectors(vectors)
        valid = words_to_int(packed.lane_valid())
        oracle2 = IntWordBackend(n_vectors, fusion="interp").simulate_logic(
            compiled, pack_vectors(vectors)
        )
        native2 = NativeWordBackend(n_vectors).simulate_logic(
            compiled, packed.v2
        )
        assert _int_rows(np.asarray(native2), valid) == [
            word & valid for word in oracle2
        ]

        # --- seven-valued full pass
        patterns = random_patterns(circuit, n_patterns, seed + 11)
        input_planes, width = pack_patterns(circuit, patterns)
        oracle7 = IntWordBackend(width, fusion="interp").simulate_planes7(
            compiled, input_planes
        )
        packed = PackedPatterns.from_patterns(patterns)
        native7 = NativeWordBackend(width).simulate_planes7(
            compiled, packed.planes7()
        )
        assert [
            tuple(words_to_int(np.ascontiguousarray(p)) for p in planes)
            for planes in native7
        ] == oracle7

        # --- ten-valued full pass
        oracle10, _ = simulate_planes10(circuit, patterns, fusion="interp")
        lane_valid = packed.lane_valid()
        inputs10 = [(z, o, s, i, lane_valid) for z, o, s, i in packed.planes7()]
        native10 = NativeWordBackend(width).simulate_planes10(
            compiled, inputs10
        )
        assert [
            tuple(words_to_int(np.ascontiguousarray(p)) for p in planes)
            for planes in native10
        ] == oracle10

        # --- PPSFP detection masks, both classes, walk inside C
        faults = fault_list(circuit, cap=12, strategy="all")
        for test_class in TestClass:
            interp_sim = DelayFaultSimulator(
                circuit, test_class, backend="numpy", fusion="interp"
            )
            native_sim = DelayFaultSimulator(
                circuit, test_class, backend="native"
            )
            assert native_sim.detection_masks(
                patterns, faults
            ) == interp_sim.detection_masks(patterns, faults), test_class

        # --- 10-valued strength triples, walk inside C
        assert strength_masks_all(
            circuit, patterns, faults, backend="native"
        ) == strength_masks_all(
            circuit, patterns, faults, backend="int", fusion="interp"
        )

        # --- stuck-at cone resimulation inside C
        sa_faults = all_stuck_at_faults(circuit)
        assert StuckAtSimulator(circuit, backend="native").detected_faults(
            vectors, sa_faults
        ) == StuckAtSimulator(circuit, fusion="interp").detected_faults(
            vectors, sa_faults
        )

    def test_empty_fault_batch(self):
        circuit = random_dag(4, 12, seed=3)
        patterns = random_patterns(circuit, 10, 4)
        sim = DelayFaultSimulator(
            circuit, TestClass.ROBUST, backend="native"
        )
        assert sim.detection_masks(patterns, []) == []
        assert strength_masks_all(circuit, patterns, [], backend="native") == []


@needs_toolchain
class TestNativeEndToEnd:
    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_c880_statuses_identical_under_native_backend(self, test_class):
        statuses = {}
        for sim_backend in ("auto", "native"):
            session = AtpgSession.open(
                "c880", options=Options(width=16, sim_backend=sim_backend)
            )
            report = session.generate(test_class=test_class, max_faults=96)
            statuses[sim_backend] = [
                record.status for record in report.records
            ]
        assert statuses["auto"] == statuses["native"]

    def test_c880_grade_identical_under_native_backend(self):
        session = AtpgSession.open("c880")
        faults = fault_list(session.circuit, cap=64, strategy="all")
        patterns = random_patterns(session.circuit, 100, 13)
        reports = {
            backend: session.grade(
                patterns, faults, backend=backend, strength=True
            )
            for backend in ("auto", "native")
        }
        assert reports["auto"] == reports["native"]

    def test_c880_stuck_at_coverage_identical_under_native_backend(self):
        circuit = suite_circuit("c880")
        faults = all_stuck_at_faults(circuit)[:120]
        rng = random.Random(17)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(100)
        ]
        interp = StuckAtSimulator(circuit, fusion="interp")
        native = StuckAtSimulator(circuit, backend="native")
        assert native.detected_faults(vectors, faults) == (
            interp.detected_faults(vectors, faults)
        )
        assert native.coverage(vectors, faults) == interp.coverage(
            vectors, faults
        )
