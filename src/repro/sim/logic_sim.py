"""Bit-parallel two-valued logic simulation.

The substrate for parallel-pattern processing (PPSFP): ``L`` input
vectors are packed into the bit lanes of one word per signal and the
whole circuit is evaluated with one pass of bitwise operations per
gate.  Both entry points execute the compiled netlist kernel
(:class:`repro.kernel.CompiledCircuit`) through a word backend:

* :func:`simulate_words` — Python integers as words (arbitrary lane
  count, no dependencies), used by the TPG engine.
* :func:`simulate_array` — numpy ``uint64`` arrays, vectorizing across
  many 64-lane words at once; this is the bulk backend that keeps
  large-batch simulation fast under CPython.

Both are cross-checked against the naive per-vector reference
(:meth:`repro.circuit.Circuit.evaluate`) in the test suite.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..kernel import IntWordBackend, NumpyWordBackend, PackedPatterns, backend_for


def pack_vectors(vectors: Sequence[Sequence[int]]) -> List[int]:
    """Pack per-vector input values into per-input lane words.

    ``vectors[k][i]`` is the value of input *i* in vector *k*; the
    result has one word per input with vector *k* in lane *k*.
    """
    if not vectors:
        return []
    n_inputs = len(vectors[0])
    words = [0] * n_inputs
    for lane, vector in enumerate(vectors):
        if len(vector) != n_inputs:
            raise ValueError("all vectors must have the same length")
        for i, bit in enumerate(vector):
            if bit:
                words[i] |= 1 << lane
    return words


def simulate_words(
    circuit: Circuit,
    input_words: Sequence[int],
    width: int,
    fusion: str = "auto",
) -> List[int]:
    """Evaluate the circuit over *width* lanes of packed input words.

    Returns one word per signal (indexed by signal id).  ``fusion``
    selects the execution strategy (``"auto"`` compiles the netlist
    into a straight-line body once and reuses it; ``"interp"`` is the
    per-gate oracle loop).
    """
    return IntWordBackend(width, fusion=fusion).simulate_logic(
        circuit.compiled(), input_words
    )


def simulate_batch(
    circuit: Circuit, vectors: Sequence[Sequence[int]], fusion: str = "auto"
) -> List[Tuple[int, ...]]:
    """Simulate many vectors; returns per-vector output tuples.

    Runs on the backend :func:`repro.kernel.backend_for` picks: the
    native module by default, else Python-int words up to one machine
    word and numpy uint64 arrays (via :class:`repro.kernel.
    PackedPatterns`) beyond.
    """
    if not vectors:
        return []
    outputs = circuit.outputs
    backend = backend_for(len(vectors), "auto", fusion=fusion)
    if isinstance(backend, IntWordBackend):
        words = pack_vectors(vectors)
        values = simulate_words(circuit, words, len(vectors), fusion=fusion)
        return [
            tuple((values[o] >> lane) & 1 for o in outputs)
            for lane in range(len(vectors))
        ]
    packed = PackedPatterns.from_vectors(vectors)
    values = backend.simulate_logic(circuit.compiled(), packed.v2)
    out_rows = np.ascontiguousarray(
        values[np.asarray(outputs, dtype=np.intp)], dtype="<u8"
    )
    bits = np.unpackbits(
        out_rows.view(np.uint8), axis=1, bitorder="little"
    )[:, : len(vectors)]
    return [tuple(int(b) for b in bits[:, lane]) for lane in range(len(vectors))]


def simulate_array(
    circuit: Circuit, input_bits: np.ndarray, fusion: str = "auto"
) -> np.ndarray:
    """Vectorized simulation over numpy uint64 lane words.

    Args:
        input_bits: array of shape ``(n_inputs, n_words)`` and dtype
            ``uint64``; each element carries 64 pattern lanes.
        fusion: execution strategy (``"auto"`` = level-vectorized
            fused groups; ``"interp"`` = the per-gate oracle loop).

    Returns:
        array of shape ``(n_signals, n_words)`` with every signal's
        lane words.
    """
    input_bits = np.asarray(input_bits, dtype=np.uint64)
    n_words = input_bits.shape[1] if input_bits.ndim == 2 else 1
    return NumpyWordBackend(64 * n_words, fusion=fusion).simulate_logic(
        circuit.compiled(), input_bits
    )
