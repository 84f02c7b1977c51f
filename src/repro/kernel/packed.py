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

One codec turns vectors into lane planes or ``(n, n_inputs)`` uint8
rows, pattern ``k`` in lane or row ``k``, each with its width and bit
checks: :func:`text_rows` decodes the ``"0101…"`` wire form, tuple
batches are read in C straight into lane planes
(:func:`read_pattern_planes`, for :meth:`PackedPatterns.from_patterns`
and the simulators) and unpacked where rows are wanted
(:func:`pattern_rows`, for :class:`repro.core.patterns.PatternTable`,
the generator's pattern set, above), and :func:`vector_planes` packs
single vectors.  Rows become lane planes with :func:`pack_bits`.  A
:class:`PackedPatterns` refuses planes whose shape its lane count does
not describe, so no walk reads past its valid-lane mask.
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
    n_columns, n_words = words.shape
    as_bytes = words.view(np.uint8).reshape(n_columns, 8 * n_words)
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


def _check_widths(v1: Sequence, v2: Sequence, width: int) -> None:
    """:func:`width_error` for the first vector not *width* wide, if any.

    ``v1[k]`` and ``v2[k]`` are pattern ``k``'s vectors, *width* pattern
    0's v1 width: joined rows of other widths would decode shifted.
    """
    for index, (a, b) in enumerate(zip(v1, v2)):
        if len(a) != width or len(b) != width:
            name, bits = ("v1", len(a)) if len(a) != width else ("v2", len(b))
            raise width_error(index, name, bits, width, "as wide as pattern 0's v1")


def _rows_to_u8(rows, n_rows: int, n_columns: int) -> Optional[np.ndarray]:
    """Equal-length int rows as a ``(n_rows, n_columns)`` uint8 array.

    The Python path of :func:`pattern_rows`: ``bytes()`` per row is ~2x
    faster than ``np.asarray`` on a nested sequence.  None when
    ``bytes()`` cannot digest a row (a bit that is no integer: ``1.0``,
    ``0.5``, ``"1"``, ``None``); ``ValueError`` for a value outside
    ``range(0, 256)``.
    """
    try:
        flat = b"".join(map(bytes, rows))
    except TypeError:
        return None
    return np.frombuffer(flat, dtype=np.uint8).reshape(n_rows, n_columns)


def read_pattern_planes(
    patterns: Sequence, width: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The v1 and v2 lane planes of *patterns* read in C, *width* bits each, or None.

    Both vector lists go through
    :func:`repro.kernel.native.read_tuple_planes` (exact tuples of the
    ints 0 and 1 only), straight into ``(width, n_words)`` uint64
    planes; None when it refuses either, or there is no native module.
    Raises nothing: an accepted batch has every vector *width* wide and
    every bit 0 or 1.
    """
    from .native import read_tuple_planes  # lazy: native imports this module

    a = read_tuple_planes([p.v1 for p in patterns], width)
    b = None if a is None else read_tuple_planes([p.v2 for p in patterns], width)
    return None if b is None else (a, b)


def _batch_planes(patterns: Sequence) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """:func:`read_pattern_planes` at pattern 0's v1 width; a batch is not empty."""
    if not patterns:
        raise ValueError("cannot pack an empty pattern batch")
    return read_pattern_planes(patterns, len(patterns[0].v1))


def _python_rows(patterns: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """The Python path of the tuple codec: rows, or the batch's first error.

    Widths first (:func:`_check_widths`), then bits (:func:`bit_error`,
    checked before any bit is converted).
    """
    n, n_inputs = len(patterns), len(patterns[0].v1)
    v1 = [p.v1 for p in patterns]
    v2 = [p.v2 for p in patterns]
    _check_widths(v1, v2, n_inputs)
    try:
        a = _rows_to_u8(v1, n, n_inputs)
        b = _rows_to_u8(v2, n, n_inputs)
    except ValueError as exc:  # bytes() rejects values outside range(0, 256)
        raise _first_bad_bit(patterns) or exc
    if a is None or b is None:
        # a bit that is no integer: refused unless it equals 0 or 1
        # (1.0), since a uint8 conversion would truncate 0.5 or parse "1"
        error = _first_bad_bit(patterns)
        if error is not None:
            raise error
        a = np.asarray([list(row) for row in v1], dtype=np.uint8)
        b = np.asarray([list(row) for row in v2], dtype=np.uint8)
    if a.size and (a.max() > 1 or b.max() > 1):
        raise _first_bad_bit(patterns)
    return a, b


def pattern_rows(patterns: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """The v1 and v2 rows of PatternLike objects (``.v1``/``.v2`` tuples).

    Two ``(n, n_inputs)`` uint8 arrays, row ``k`` pattern ``k``.  Every
    vector must be as wide as pattern 0's v1 (:func:`width_error`) and
    every bit 0 or 1 (:func:`bit_error`, checked before any bit is
    converted).

    The batch is read in C first, into lane planes
    (:func:`read_pattern_planes` at pattern 0's v1 width), and unpacked
    (:func:`unpack_bits`).  If the reader refuses either vector list, or
    there is no native module, the whole batch takes the Python path,
    which raises the errors.
    """
    planes = _batch_planes(patterns)
    if planes is None:
        return _python_rows(patterns)
    return unpack_bits(planes[0], len(patterns)), unpack_bits(planes[1], len(patterns))


def vector_planes(vectors: Sequence[Sequence[int]]) -> np.ndarray:
    """Single vectors as ``(width, n_words)`` uint64 lane planes, vector ``k`` in lane ``k``.

    The one packer of single-vector batches
    (:meth:`PackedPatterns.from_vectors`,
    :func:`repro.sim.logic_sim.pack_vectors` and the native stuck-at
    grade).  Every vector must be as wide as vector 0
    (:func:`width_error`) and every bit equal to 0 or 1 (:func:`bit_error`,
    checked before any bit is converted: ``True`` and ``1.0`` read as 1,
    ``0.5``, ``"x"``, ``None`` and ``2`` are refused), the rules of the
    two-vector codec.  A list of tuples of the ints 0 and 1 is read in
    C (:func:`repro.kernel.native.read_tuple_planes`); anything else, a
    refusal or no module takes the Python path, which raises the errors.
    """
    if len(vectors) == 0:
        raise ValueError("cannot pack an empty vector batch")
    width = len(vectors[0])
    if type(vectors) is list:
        from .native import read_tuple_planes  # lazy: native imports this module

        planes = read_tuple_planes(vectors, width)
        if planes is not None:
            return planes
    return pack_bits(_vector_rows(vectors, width))


def _vector_rows(vectors: Sequence, width: int) -> np.ndarray:
    """The Python path of :func:`vector_planes`: ``(n, width)`` uint8 rows.

    Numeric rows (BIST's numpy rows from :func:`unpack_bits` among them)
    get one vectorized bit check; any other item is compared on its own.
    """
    for index, vector in enumerate(vectors):
        if len(vector) != width:
            raise width_error(index, "vector", len(vector), width, "as wide as vector 0")
    try:
        rows = np.asarray(vectors)
    except (ValueError, TypeError):  # items that are sequences themselves
        rows = None
    if rows is None or rows.ndim != 2 or rows.dtype.kind not in "biuf":
        for index, vector in enumerate(vectors):
            for position, bit in enumerate(vector):
                if bit != 0 and bit != 1:
                    raise bit_error(index, "vector", position, bit)
        return np.asarray(vectors, dtype=np.uint8)
    bad = np.argwhere((rows != 0) & (rows != 1))
    if len(bad):
        index, position = bad[0].tolist()
        raise bit_error(index, "vector", position, vectors[index][position])
    return rows.astype(np.uint8)


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
    _check_widths(v1, v2, width)
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

        Read in C straight into lane planes (:func:`read_pattern_planes`),
        with no rows between; a batch the reader refuses is decoded and
        checked on the Python path of :func:`pattern_rows` (one width
        for every vector, bits 0 or 1), then :meth:`from_rows`.
        """
        planes = _batch_planes(patterns)
        if planes is None:
            return cls.from_rows(*_python_rows(patterns))
        return cls(*planes, n_patterns=len(patterns))

    @classmethod
    def from_text(cls, v1: Sequence[str], v2: Sequence[str]) -> "PackedPatterns":
        """Pack ``"0101…"`` vectors, where character ``k`` is input ``k``.

        Decoded by :func:`text_rows` (widths and bits checked there),
        then :meth:`from_rows`.
        """
        return cls.from_rows(*text_rows(v1, v2))

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence[int]]) -> "PackedPatterns":
        """Pack single-vector tests (V1 == V2, no transitions).

        Packed by :func:`vector_planes` (one width, bits 0 or 1).
        """
        bits = vector_planes(vectors)
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
