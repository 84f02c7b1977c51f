"""Tests for the ten-valued hazard-aware logic and detection grading.

The hazard-free plane carries a strong semantic claim — at most one
value change under *every* delay assignment — which is validated
against enumerated waveforms exactly like the 7-valued calculus.
"""

import itertools

import pytest

from repro.circuit import CircuitBuilder, GateType
from repro.circuit.library import paper_example
from repro.core import TestPattern
from repro.logic import seven_valued as sv
from repro.logic import ten_valued as xv
from repro.paths import PathDelayFault, TestClass, Transition, all_faults
from repro.sim import detection_strength, simulate_planes10, strength_masks
from repro.sim.event_sim import TimingSimulator
from repro.sim.waveform import Waveform

GATES_2IN = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
]

#: Adversarial waveform families; hazard-free names only get clean
#: waveforms, others include glitches.
CONCRETIZATIONS = {
    "S0": [Waveform.constant(0)],
    "S1": [Waveform.constant(1)],
    "HR": [Waveform.step(0, 1, 1.0), Waveform.step(0, 1, 2.5)],
    "HF": [Waveform.step(1, 0, 1.0), Waveform.step(1, 0, 2.5)],
    "R": [Waveform.step(0, 1, 1.5), Waveform(1, ((1.0, 0), (2.0, 1)))],
    "F": [Waveform.step(1, 0, 1.5), Waveform(0, ((1.0, 1), (2.0, 0)))],
    "M0": [Waveform.constant(0), Waveform.step(1, 0, 2.0)],
    "M1": [Waveform.constant(1), Waveform.step(0, 1, 2.0)],
    "U0": [
        Waveform.constant(0),
        Waveform.step(1, 0, 2.0),
        Waveform(0, ((1.0, 1), (2.5, 0))),
    ],
    "U1": [
        Waveform.constant(1),
        Waveform.step(0, 1, 2.0),
        Waveform(1, ((1.0, 0), (2.5, 1))),
    ],
    "X": [
        Waveform.constant(0),
        Waveform.step(0, 1, 2.0),
        Waveform(0, ((1.0, 1), (2.5, 0))),
        Waveform(1, ((1.0, 0), (2.5, 1))),
    ],
}


def planes_for(names):
    acc = [0] * 5
    for lane, name in enumerate(names):
        pattern = xv.encode(name)
        for k in range(5):
            if pattern[k]:
                acc[k] |= 1 << lane
    return tuple(acc)


class TestEncoding:
    def test_named_values_consistent(self):
        for name, bits in xv.VALUES.items():
            assert xv.conflict(bits) == 0, name
            assert xv.decode_lane(bits, 0) == name

    def test_stable_implies_hazard_free(self):
        assert xv.conflict((0, 1, 1, 0, 0)) == 1  # stable without h

    def test_seven_valued_lifting(self):
        for name in ("S0", "S1", "R", "F", "U0", "U1", "X"):
            lifted = xv.from_seven(sv.encode(name))
            assert xv.to_seven(lifted) == sv.encode(name)
        # stable values lift to hazard-free
        assert xv.from_seven(sv.encode("S1"))[4] == 1
        assert xv.from_seven(sv.encode("R"))[4] == 0


class TestForwardSemantics:
    @pytest.mark.parametrize("gate_type", GATES_2IN)
    def test_hazard_claims_hold_on_waveforms(self, gate_type):
        names = list(xv.VALUES)
        combos = list(itertools.product(names, repeat=2))
        width = len(combos)
        mask = (1 << width) - 1
        a = planes_for([c[0] for c in combos])
        b = planes_for([c[1] for c in combos])
        out = xv.forward(gate_type, [a, b], mask)
        for lane, combo in enumerate(combos):
            bits = tuple((p >> lane) & 1 for p in out)
            claims_h = bool(bits[4])
            claims_final = 1 if bits[1] else (0 if bits[0] else None)
            families = [CONCRETIZATIONS[name] for name in combo]
            for waves in itertools.product(*families):
                result = TimingSimulator._evaluate_gate(gate_type, list(waves), 0.0)
                if claims_h:
                    assert result.transition_count() <= 1, (gate_type, combo, waves)
                if claims_final is not None:
                    assert result.final == claims_final, (gate_type, combo)

    def test_value_planes_match_seven_valued(self):
        names = ["S0", "S1", "R", "F", "U0", "U1", "X"]
        combos = list(itertools.product(names, repeat=2))
        width = len(combos)
        mask = (1 << width) - 1
        for gate_type in GATES_2IN:
            a10 = planes_for([c[0] for c in combos])
            b10 = planes_for([c[1] for c in combos])
            out10 = xv.forward(gate_type, [a10, b10], mask)
            a7 = xv.to_seven(a10)
            b7 = xv.to_seven(b10)
            out7 = sv.forward(gate_type, [a7, b7], mask)
            assert xv.to_seven(out10) == out7, gate_type

    def test_known_hazard_examples(self):
        mask = 1
        # same-direction inputs keep AND hazard-free
        out = xv.forward(GateType.AND, [xv.encode("HR"), xv.encode("HR")], mask)
        assert xv.decode_lane(out, 0) == "HR"
        # opposite directions can glitch
        out = xv.forward(GateType.AND, [xv.encode("HR"), xv.encode("HF")], mask)
        assert out[4] == 0
        # a stable controlling input freezes everything
        out = xv.forward(GateType.AND, [xv.encode("R"), xv.encode("S0")], mask)
        assert xv.decode_lane(out, 0) == "S0"
        # XOR of two clean transitions may still glitch
        out = xv.forward(GateType.XOR, [xv.encode("HR"), xv.encode("HR")], mask)
        assert out[4] == 0
        # XOR with a stable side passes the clean transition
        out = xv.forward(GateType.XOR, [xv.encode("HR"), xv.encode("S0")], mask)
        assert xv.decode_lane(out, 0) == "HR"


class TestDetectionStrength:
    def test_hierarchy_on_paper_example(self):
        circuit = paper_example()
        fault = PathDelayFault.from_names(circuit, ("b", "p", "x"), Transition.RISING)
        # stable side: the strongest class
        strong = TestPattern((0, 0, 0, 1), (0, 1, 0, 1), fault)
        assert detection_strength(circuit, strong, fault) == "hazard_free_robust"
        # rising side input: nonrobust only
        weak = TestPattern((0, 0, 0, 0), (0, 1, 0, 1), fault)
        assert detection_strength(circuit, weak, fault) == "nonrobust"
        # no launch: no detection
        none = TestPattern((0, 1, 0, 1), (0, 1, 0, 1), fault)
        assert detection_strength(circuit, none, fault) is None

    def test_containment_property(self):
        import random

        circuit = paper_example()
        faults = all_faults(circuit)
        rng = random.Random(5)
        patterns = [
            TestPattern(
                tuple(rng.randint(0, 1) for _ in circuit.inputs),
                tuple(rng.randint(0, 1) for _ in circuit.inputs),
            )
            for _ in range(32)
        ]
        values, width = simulate_planes10(circuit, patterns)
        for fault in faults:
            nonrobust, robust, strong = strength_masks(circuit, fault, values, width)
            assert strong & ~robust == 0
            assert robust & ~nonrobust == 0

    def test_robust_but_not_hazard_free(self):
        """A side input that is final-1 via a glitchy cone: robust per
        the classic table (ends controlling: U_nc suffices) but not in
        the hazard-free class."""
        b = CircuitBuilder("glitchy_side")
        b.inputs("a", "u", "v")
        b.xor("side", "u", "v")  # two changing inputs: can glitch
        b.not_("n", "a")
        b.and_("z", "n", "side")
        b.outputs("z")
        circuit = b.build()
        # path a-n-z, rising a: n falls (ends controlling for AND),
        # side needs final 1 only
        fault = PathDelayFault.from_names(circuit, ("a", "n", "z"), Transition.RISING)
        # u rises, v falls: side final 1 but hazard-possible
        pattern = TestPattern((0, 0, 1), (1, 1, 0), fault)
        assert detection_strength(circuit, pattern, fault) == "robust"
