"""Unit tests for the bit-parallel two-valued logic simulators."""

import contextlib
import random
from unittest import mock

import numpy as np
import pytest

from repro.circuit.generators import random_dag, ripple_carry_adder
from repro.circuit.library import c17, paper_example
from repro.kernel import PackedPatterns, native, words_to_int
from repro.sim.logic_sim import (
    pack_vectors,
    simulate_array,
    simulate_batch,
    simulate_words,
)

#: The two single-vector packers: the int tier's words and the lane
#: planes of the numpy and native tiers, as lists of ints.
PACKERS = {
    "pack_vectors": pack_vectors,
    "from_vectors": lambda vectors: [
        words_to_int(plane) for plane in PackedPatterns.from_vectors(vectors).v1
    ],
}


def readers(on):
    """The C readers as they are, or switched off."""
    if on:
        return contextlib.nullcontext()
    return mock.patch.object(native, "row_readers", lambda: None)


class TestPackVectors:
    def test_lane_layout(self):
        words = pack_vectors([[1, 0], [0, 1], [1, 1]])
        assert words == [0b101, 0b110]

    def test_empty(self):
        assert pack_vectors([]) == []

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            pack_vectors([[1, 0], [1]])


class TestSingleVectorChecks:
    """Every single-vector packer reads a bit and a width alike, with the
    C reader on or off, from tuples, lists or numpy rows."""

    @pytest.mark.parametrize("bad", [0.5, "x", None, 2, -1, 2**70])
    @pytest.mark.parametrize("on", [True, False])
    def test_bits_other_than_0_or_1_are_refused(self, bad, on):
        message = f"pattern 2: vector bit 1 is {bad!r}, expected 0 or 1"
        for kind in (tuple, list):
            vectors = [kind(v) for v in ([0, 1], [1, 1], [1, bad])]
            for name, packer in PACKERS.items():
                with readers(on), pytest.raises(ValueError) as error:
                    packer(vectors)
                assert str(error.value) == message, name

    @pytest.mark.parametrize("on", [True, False])
    def test_bits_equal_to_0_or_1_read_alike(self, on):
        vectors = [(True, 0, 1.0), (np.uint8(1), np.int64(0), False), (0, 1, 1)]
        for name, packer in PACKERS.items():
            with readers(on):
                assert packer(vectors) == [0b011, 0b100, 0b101], name
                assert packer(vectors[2:]) == [0, 1, 1], name

    def test_numpy_rows_take_one_vectorized_check(self):
        rows = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.uint8)
        for name, packer in PACKERS.items():
            assert packer(list(rows)) == [0b110, 0b011], name
            assert packer(rows) == [0b110, 0b011], name
        rows[1, 0] = 2
        for name, packer in PACKERS.items():
            with pytest.raises(ValueError, match="pattern 1: vector bit 0 is"):
                packer(list(rows))

    @pytest.mark.parametrize("on", [True, False])
    def test_ragged_vectors_are_refused_alike(self, on):
        for vectors in ([[1, 0], [1]], [(1, 0), (1,)], [(1, 0), (1, 0, 1)]):
            bits = len(vectors[1])
            message = f"pattern 1: vector has {bits} bits, expected 2 (as wide as vector 0)"
            for name, packer in PACKERS.items():
                with readers(on), pytest.raises(ValueError) as error:
                    packer(vectors)
                assert str(error.value) == message, name

    def test_simulate_batch_refuses_a_bad_bit(self):
        vectors = [(0, 1, 0, 1, 0), (0, 1, 0.5, 1, 0)]
        with pytest.raises(ValueError, match="pattern 1: vector bit 2 is 0.5"):
            simulate_batch(c17(), vectors)


class TestSimulateWords:
    @pytest.mark.parametrize("factory", [c17, paper_example])
    def test_matches_reference_per_lane(self, factory):
        circuit = factory()
        rng = random.Random(1)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(32)
        ]
        words = pack_vectors(vectors)
        values = simulate_words(circuit, words, len(vectors))
        for lane, vector in enumerate(vectors):
            reference = circuit.evaluate(vector)
            for gate in circuit.gates:
                assert (values[gate.index] >> lane) & 1 == reference[gate.name], (
                    gate.name,
                    lane,
                )

    def test_wrong_input_count(self):
        with pytest.raises(ValueError):
            simulate_words(c17(), [0, 0], 1)

    def test_batch_matches_outputs(self):
        circuit = ripple_carry_adder(4)
        rng = random.Random(2)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(300)
        ]
        outputs = simulate_batch(circuit, vectors)
        for vector, outs in zip(vectors[:20], outputs[:20]):
            assert outs == circuit.output_values(vector)


class TestSimulateArray:
    def test_matches_word_simulation(self):
        circuit = random_dag(10, 50, seed=3)
        rng = random.Random(4)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(128)
        ]
        # numpy layout: 2 words of 64 lanes
        bits = np.zeros((len(circuit.inputs), 2), dtype=np.uint64)
        for lane, vector in enumerate(vectors):
            word, offset = divmod(lane, 64)
            for i, bit in enumerate(vector):
                if bit:
                    bits[i, word] |= np.uint64(1) << np.uint64(offset)
        array_values = simulate_array(circuit, bits)
        words0 = pack_vectors(vectors[:64])
        int_values = simulate_words(circuit, words0, 64)
        for gate in circuit.gates:
            assert int(array_values[gate.index, 0]) == int_values[gate.index]

    def test_shape_check(self):
        with pytest.raises(ValueError):
            simulate_array(c17(), np.zeros((2, 1), dtype=np.uint64))

    def test_not_gate_masking(self):
        # inverted values must not leak beyond 64 bits (uint64 wraps)
        circuit = paper_example()
        bits = np.zeros((4, 1), dtype=np.uint64)
        values = simulate_array(circuit, bits)
        t = circuit.index_of("t")  # NOT of p, p = OR(a,b) = 0 -> t = all ones
        assert int(values[t, 0]) == 0xFFFFFFFFFFFFFFFF
