"""Packed pattern containers: arbitrarily many tests as uint64 planes.

The paper packs ``L`` patterns into the ``L`` bit lanes of one machine
word.  :class:`PackedPatterns` generalizes this kyupy-style: ``n``
two-vector tests are stored as numpy ``uint64`` lane-plane arrays of
shape ``(n_inputs, n_words)`` with pattern ``k`` living in bit
``k % 64`` of word ``k // 64`` — so a batch is no longer limited to
one machine word and the numpy backend can stream thousands of
patterns through the compiled netlist in one topological pass.

Lane numbering matches :mod:`repro.logic.words`: the Python-int lane
mask of a packed quantity is simply the little-endian concatenation of
its words (:func:`words_to_int`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: All 64 lanes of one word.
FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


def words_to_int(words: np.ndarray) -> int:
    """Little-endian concatenation of uint64 lane words into one int.

    Lane ``k`` of the result is bit ``k % 64`` of ``words[k // 64]`` —
    the Python-int view used throughout the TPG state.
    """
    return int.from_bytes(np.ascontiguousarray(words, dtype="<u8").tobytes(), "little")


def rows_to_ints(rows: np.ndarray) -> List[int]:
    """:func:`words_to_int` over every row of a 2-D word array.

    One bulk byte conversion instead of one numpy round-trip per row —
    the native fault walks return thousands of mask rows per batch, so
    the per-row constant matters.
    """
    n_rows, n_words = rows.shape
    data = np.ascontiguousarray(rows, dtype="<u8").tobytes()
    stride = n_words * 8
    return [
        int.from_bytes(data[k * stride : (k + 1) * stride], "little")
        for k in range(n_rows)
    ]


def int_to_words(value: int, n_words: int) -> np.ndarray:
    """Inverse of :func:`words_to_int` (value must fit in *n_words*)."""
    return (
        np.frombuffer(value.to_bytes(8 * n_words, "little"), dtype="<u8")
        .astype(np.uint64)
    )


def lane_valid_words(n_lanes: int) -> np.ndarray:
    """Per-word mask of valid lanes for an *n_lanes*-wide batch.

    Full words are all-ones; the tail of the last word (padding lanes
    past ``n_lanes``) is cleared.  The single source of the padding
    semantics shared by :class:`PackedPatterns` and
    :class:`repro.kernel.backends.NumpyWordBackend`.
    """
    if n_lanes < 1:
        raise ValueError("need at least one lane")
    n_words = -(-n_lanes // 64)
    mask = np.full(n_words, FULL_WORD, dtype=np.uint64)
    tail = n_lanes % 64
    if tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


def pack_bits(rows: np.ndarray) -> np.ndarray:
    """Pack a (n_patterns, n_columns) 0/1 array into uint64 lane words.

    Returns shape ``(n_columns, n_words)`` with pattern ``k`` in lane
    ``k`` (bit ``k % 64`` of word ``k // 64``).
    """
    n_patterns, n_columns = rows.shape
    n_words = max(1, -(-n_patterns // 64))
    padded = np.zeros((n_columns, n_words * 64), dtype=np.uint8)
    padded[:, :n_patterns] = rows.T
    packed = np.packbits(padded, axis=1, bitorder="little")
    # explicit little-endian view so lane k lands in bit k % 64 of word
    # k // 64 regardless of host byte order
    return np.ascontiguousarray(packed).view("<u8").astype(np.uint64)


def unpack_bits(planes: np.ndarray, n_patterns: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: lane planes back to 0/1 rows.

    Takes ``(n_columns, n_words)`` uint64 lane planes and returns the
    ``(n_patterns, n_columns)`` uint8 array they were packed from
    (padding lanes past *n_patterns* are discarded).
    """
    words = np.ascontiguousarray(planes).astype("<u8")
    n_columns = words.shape[0]
    as_bytes = words.view(np.uint8).reshape(n_columns, -1)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, :n_patterns].T)


def _rows_to_u8(rows, n_rows: int, n_columns: int) -> np.ndarray:
    """Equal-length 0/1 int rows as a ``(n_rows, n_columns)`` uint8 array.

    ``bytes()`` per row is ~2x faster than ``np.asarray`` on a nested
    sequence (packing is on the hot path of every bulk simulation
    call); anything ``bytes()`` cannot digest falls back to numpy.
    """
    try:
        flat = b"".join(bytes(row) for row in rows)
    except TypeError:
        return np.asarray([list(row) for row in rows], dtype=np.uint8)
    return np.frombuffer(flat, dtype=np.uint8).reshape(n_rows, n_columns)


@dataclass(frozen=True)
class PackedPatterns:
    """``n`` two-vector tests packed into per-input uint64 lane planes.

    Attributes:
        v1: initial-vector bits, shape ``(n_inputs, n_words)``.
        v2: final-vector bits, same shape.
        n_patterns: number of valid lanes (the tail of the last word
            is padding and masked off by :meth:`lane_valid`).
    """

    v1: np.ndarray
    v2: np.ndarray
    n_patterns: int

    @classmethod
    def from_patterns(cls, patterns: Sequence) -> "PackedPatterns":
        """Pack PatternLike objects (``.v1``/``.v2`` input tuples)."""
        if not patterns:
            raise ValueError("cannot pack an empty pattern batch")
        n_inputs = len(patterns[0].v1)
        a = _rows_to_u8([p.v1 for p in patterns], len(patterns), n_inputs)
        b = _rows_to_u8([p.v2 for p in patterns], len(patterns), n_inputs)
        return cls(v1=pack_bits(a), v2=pack_bits(b), n_patterns=len(patterns))

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[int]]) -> "PackedPatterns":
        """Pack single-vector tests (V1 == V2, no transitions)."""
        if not vectors:
            raise ValueError("cannot pack an empty vector batch")
        a = np.asarray(vectors, dtype=np.uint8)
        bits = pack_bits(a)
        return cls(v1=bits, v2=bits, n_patterns=len(vectors))

    # ------------------------------------------------------------------
    @property
    def n_inputs(self) -> int:
        return self.v1.shape[0]

    @property
    def n_words(self) -> int:
        return self.v1.shape[1]

    def __len__(self) -> int:
        """Lane count — so a packed batch substitutes for the pattern
        sequence it was built from (``DelayFaultSimulator`` and
        :func:`repro.sim.delay_sim.strength_masks_all` accept either)."""
        return self.n_patterns

    @classmethod
    def concat(
        cls, batches: Sequence["PackedPatterns"]
    ) -> Tuple["PackedPatterns", List[int]]:
        """Merge several packed batches into one shared lane slab.

        Returns ``(merged, offsets)`` where ``offsets[k]`` is the lane
        offset of ``batches[k]`` inside the merged slab.  Each batch is
        placed at the next 64-lane (word) boundary, so merging is a
        plain horizontal stack of the existing word planes — no lane
        shifting, no repacking.  The padding lanes between batches pack
        as stable all-zero vectors, which can never launch a transition
        (detection requires instability at the path input), and every
        consumer that demultiplexes with
        :func:`repro.logic.words.extract_lanes` only ever reads its own
        batch's lanes — so simulating the merged slab is lane-for-lane
        identical to simulating each batch alone.

        This is the paper's bit-parallelism applied across tenants: the
        service coalescer merges concurrent requests for the same
        circuit here and runs one backend call over the shared slab.
        """
        if not batches:
            raise ValueError("cannot concat an empty batch list")
        n_inputs = batches[0].n_inputs
        for batch in batches:
            if batch.n_inputs != n_inputs:
                raise ValueError(
                    "cannot concat batches over different input counts "
                    f"({batch.n_inputs} != {n_inputs})"
                )
        if len(batches) == 1:
            return batches[0], [0]
        offsets = []
        offset = 0
        for batch in batches:
            offsets.append(offset)
            offset += 64 * batch.n_words
        v1 = np.hstack([batch.v1 for batch in batches])
        v2 = np.hstack([batch.v2 for batch in batches])
        n_patterns = offsets[-1] + batches[-1].n_patterns
        return cls(v1=v1, v2=v2, n_patterns=n_patterns), offsets

    def lane_valid(self) -> np.ndarray:
        """Per-word mask of valid lanes (padding lanes cleared)."""
        return lane_valid_words(self.n_patterns)

    def planes7_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The 7-valued (zero, one, stable, instable) planes of all inputs.

        Four ``(n_inputs, n_words)`` arrays, computed whole.  Lane ``k``
        encodes S0/S1 where the vectors agree and F/R where they differ
        — the PPSFP input encoding of :func:`repro.sim.delay_sim.
        pack_patterns`, vectorized.  Padding lanes are left all-zero
        (the 7-valued ``X``), which propagates as ``X`` and never
        contributes a detection.
        """
        valid = self.lane_valid()
        changed = (self.v1 ^ self.v2) & valid
        return ~self.v2 & valid, self.v2 & valid, ~changed & valid, changed

    def planes7(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per-input 7-valued plane tuples: the rows of :meth:`planes7_arrays`."""
        return list(zip(*self.planes7_arrays()))
