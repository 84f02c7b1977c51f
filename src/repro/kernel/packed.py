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

One row codec turns vectors into ``(n, n_inputs)`` uint8 rows, pattern
``k`` in row ``k``: :func:`text_rows` decodes the ``"0101…"`` wire form
and :func:`pattern_rows` int tuples, each with its width and bit
checks.  Everything that packs goes through it —
:meth:`PackedPatterns.from_text` and :meth:`PackedPatterns.from_patterns`
here, :class:`repro.core.patterns.PatternTable` (the generator's
pattern set) above — and rows become lane planes with
:func:`pack_bits`.  A :class:`PackedPatterns` refuses planes whose
shape its lane count does not describe, so no walk reads past its
valid-lane mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
    # k // 64 regardless of host byte order (a copy only on big-endian
    # hosts)
    return packed.view("<u8").astype(np.uint64, copy=False)


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


def bit_error(index: int, name: str, position: int, bit) -> ValueError:
    """The rejection of a pattern bit other than 0 or 1, on every backend.

    Packers compare or fold raw values, so a 2 would otherwise read as
    a transition on one backend and as a 1 on another.  The session
    circuit breaker re-raises ``ValueError`` instead of demoting.
    """
    return ValueError(
        f"pattern {index}: {name} bit {position} is {bit!r}, expected 0 or 1"
    )


def width_error(
    index: int, name: str, bits: int, expected: int, reason: str
) -> ValueError:
    """The rejection of a vector of the wrong width, on every path.

    *reason* says where *expected* comes from: the circuit's primary
    inputs (:func:`repro.sim.delay_sim.check_pattern_widths`) or the
    first vector of a batch decoded before the circuit is known
    (:meth:`PackedPatterns.from_text`).
    """
    return ValueError(
        f"pattern {index}: {name} has {bits} bits, expected {expected} ({reason})"
    )


#: Byte map of the ``"0101…"`` vector form: ``'0'`` -> 0, ``'1'`` -> 1,
#: every other byte -> 0xFF, which no bit can be.
_BIT_OF_CHAR = bytes(
    0 if byte == ord("0") else 1 if byte == ord("1") else 0xFF
    for byte in range(256)
)
_CHAR_OF_BIT = bytes.maketrans(b"\x00\x01", b"01")


def text_bits(text: str) -> bytes:
    """The bits of ``"0101…"`` text, one byte per character.

    The wire form of a vector (``repro/pattern`` v2): character ``k``
    is primary input ``k``.  A character other than ``0``/``1`` becomes
    0xFF, so ``find(0xFF)`` gives its position (a non-ASCII one too:
    the ``"replace"`` handler keeps one byte per character).
    """
    return text.encode("ascii", "replace").translate(_BIT_OF_CHAR)


def bits_text(bits: Sequence[int]) -> str:
    """Inverse of :func:`text_bits` for a vector of 0/1 ints."""
    raw = bytes(bits)  # ValueError outside range(0, 256)
    if raw.translate(None, b"\x00\x01"):
        raise ValueError("only bits 0 and 1 have a text form")
    return raw.translate(_CHAR_OF_BIT).decode("ascii")


# ---------------------------------------------------------------------------
# the row codec: vectors in, (n, n_inputs) uint8 rows out
# ---------------------------------------------------------------------------


def _first_bad_bit(patterns: Sequence) -> Optional[ValueError]:
    """:func:`bit_error` for the first bit other than 0 or 1, if any."""
    for index, pattern in enumerate(patterns):
        for name in ("v1", "v2"):
            for position, bit in enumerate(getattr(pattern, name)):
                if bit != 0 and bit != 1:
                    return bit_error(index, name, position, bit)
    return None


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


def pattern_rows(patterns: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """The v1 and v2 rows of PatternLike objects (``.v1``/``.v2`` tuples).

    Two ``(n, n_inputs)`` uint8 arrays, row ``k`` pattern ``k``.  Every
    vector must have the first pattern's width: the rows are joined
    into one buffer and reshaped, so ragged rows whose bits add up
    would decode shifted (the simulators check widths first,
    :func:`repro.sim.delay_sim.check_pattern_widths`).  Every bit must
    be 0 or 1 (:func:`bit_error` otherwise).
    """
    if not patterns:
        raise ValueError("cannot pack an empty pattern batch")
    n_inputs = len(patterns[0].v1)
    try:
        a = _rows_to_u8([p.v1 for p in patterns], len(patterns), n_inputs)
        b = _rows_to_u8([p.v2 for p in patterns], len(patterns), n_inputs)
    except ValueError as exc:  # bytes() rejects values outside range(0, 256)
        raise _first_bad_bit(patterns) or exc
    if a.max() > 1 or b.max() > 1:
        raise _first_bad_bit(patterns)
    return a, b


def text_rows(v1: Sequence[str], v2: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """The v1 and v2 rows of ``"0101…"`` vectors, character ``k`` input ``k``.

    The ``repro/pattern`` v2 wire form (kyupy's ``PackedVectors``
    idiom), decoded with no per-pattern object: one length check per
    vector, then per vector list one :func:`text_bits` translate (which
    also maps every character other than ``0``/``1`` to 0xFF) and one
    ``np.frombuffer``.  Every vector must be as wide as the first
    ``v1`` (:func:`width_error`; the simulators check that width
    against the circuit), and the first character other than
    ``0``/``1`` in pattern order raises :func:`bit_error`.
    """
    if not v1:
        raise ValueError("cannot pack an empty pattern batch")
    if len(v1) != len(v2):
        raise ValueError(f"{len(v1)} v1 vectors but {len(v2)} v2 vectors")
    width = len(v1[0])
    for index, (a, b) in enumerate(zip(v1, v2)):
        if len(a) != width or len(b) != width:
            name, bits = ("v1", len(a)) if len(a) != width else ("v2", len(b))
            raise width_error(index, name, bits, width, "as wide as pattern 0's v1")
    rows, errors = [], []
    for name, vectors in (("v1", v1), ("v2", v2)):
        text = "".join(vectors)
        bits = text_bits(text)
        bad = bits.find(0xFF)
        if bad >= 0:
            errors.append((bad // width, name, bad % width, text[bad]))
        rows.append(np.frombuffer(bits, dtype=np.uint8).reshape(len(v1), width))
    if errors:
        raise bit_error(*min(errors))
    return rows[0], rows[1]


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

    def __post_init__(self) -> None:
        """Refuse planes the lane count does not describe.

        v1 and v2 are 2-D uint64 arrays of one shape, ``n_patterns``
        is at least 1 and fills exactly the last of their words: the C
        walks read ``n_words`` words of every plane and of
        :meth:`lane_valid`, so a disagreement would read past the
        valid-lane mask.  (The planes' row count is checked against a
        circuit by :func:`repro.sim.delay_sim.check_pattern_widths`.)
        """
        v1, v2, n = self.v1, self.v2, self.n_patterns
        if not (
            isinstance(v1, np.ndarray)
            and isinstance(v2, np.ndarray)
            and v1.dtype == np.uint64
            and v2.dtype == np.uint64
            and v1.ndim == 2
            and v1.shape == v2.shape
        ):
            raise ValueError(
                "v1 and v2 must be 2-D uint64 arrays of one shape, got "
                f"{getattr(v1, 'shape', type(v1))} and "
                f"{getattr(v2, 'shape', type(v2))}"
            )
        if n < 1:
            raise ValueError(f"n_patterns={n}: a batch holds at least one pattern")
        if -(-n // 64) != v1.shape[1]:
            raise ValueError(
                f"n_patterns={n} needs {-(-n // 64)} words per plane, "
                f"but the planes have {v1.shape[1]}"
            )

    @classmethod
    def from_rows(cls, v1: np.ndarray, v2: np.ndarray) -> "PackedPatterns":
        """Pack ``(n, n_inputs)`` 0/1 uint8 rows: one :func:`pack_bits` each."""
        return cls(v1=pack_bits(v1), v2=pack_bits(v2), n_patterns=len(v1))

    @classmethod
    def from_patterns(cls, patterns: Sequence) -> "PackedPatterns":
        """Pack PatternLike objects (``.v1``/``.v2`` input tuples).

        Decoded by :func:`pattern_rows` (one width for every vector,
        bits 0 or 1), then :meth:`from_rows`.
        """
        return cls.from_rows(*pattern_rows(patterns))

    @classmethod
    def from_text(cls, v1: Sequence[str], v2: Sequence[str]) -> "PackedPatterns":
        """Pack ``"0101…"`` vectors, where character ``k`` is input ``k``.

        Decoded by :func:`text_rows` (widths and bits checked there),
        then :meth:`from_rows`.
        """
        return cls.from_rows(*text_rows(v1, v2))

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

    def lane_valid(self) -> np.ndarray:
        """Per-word mask of valid lanes (padding lanes cleared)."""
        return lane_valid_words(self.n_patterns)

    def planes7_arrays(
        self, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The 7-valued (zero, one, stable, instable) planes of all inputs.

        Four ``(n_inputs, n_words)`` arrays, computed whole — in place
        into *out*, a ``(4, n_inputs, n_words)`` uint64 array, when
        given.  Lane ``k`` encodes S0/S1 where the vectors agree and F/R
        where they differ — the PPSFP input encoding of
        :func:`repro.sim.delay_sim.pack_patterns`, vectorized.  Padding
        lanes are left all-zero (the 7-valued ``X``), which propagates
        as ``X`` and never contributes a detection.
        """
        valid = self.lane_valid()
        if out is None:
            out = np.empty((4, *self.v1.shape), dtype=np.uint64)
        zero, one, stable, instable = out
        np.bitwise_xor(self.v1, self.v2, out=instable)
        instable &= valid
        np.bitwise_xor(valid, instable, out=stable)  # ~instable & valid
        np.bitwise_and(self.v2, valid, out=one)
        np.bitwise_xor(valid, one, out=zero)  # ~v2 & valid
        return zero, one, stable, instable

    def planes7(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per-input 7-valued plane tuples: the rows of :meth:`planes7_arrays`."""
        return list(zip(*self.planes7_arrays()))
