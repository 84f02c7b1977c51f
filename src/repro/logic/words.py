"""Machine-word helpers for bit-parallel processing.

The paper stores ``L`` logic values in the ``L`` bit lanes of a
machine word (L = 32 on the DEC 5000/200, 64 on the DECstation
3000/500).  Python integers are arbitrary precision, so ``L`` is a
parameter here — a single bitwise expression processes all lanes at
once regardless of ``L``, which is exactly the effect the paper gets
from hardware words.
"""

from __future__ import annotations

from typing import Iterator, List

#: The paper's default machine word length (DECstation 3000/500).
DEFAULT_WORD_LENGTH = 64


def mask_for(width: int) -> int:
    """The all-lanes mask ``(1 << width) - 1``."""
    if width < 1:
        raise ValueError("word length must be >= 1")
    return (1 << width) - 1


def lane_bit(lane: int) -> int:
    """The single-bit word selecting *lane*."""
    if lane < 0:
        raise ValueError("lane must be >= 0")
    return 1 << lane


def broadcast(bit: int, width: int) -> int:
    """All-lanes word of *bit* (0 -> 0, 1 -> mask)."""
    return mask_for(width) if bit else 0


def get_lane(word: int, lane: int) -> int:
    """The bit of *word* in *lane*."""
    return (word >> lane) & 1


def popcount(word: int) -> int:
    """Number of set lanes.

    Lane words are non-negative by construction (every producer masks
    with :func:`mask_for`); a negative word has no well-defined lane
    count in two's complement of unbounded width, so it is rejected
    rather than silently miscounted.
    """
    if word < 0:
        raise ValueError("popcount requires a non-negative lane word")
    return word.bit_count()


def iter_set_lanes(word: int) -> Iterator[int]:
    """Yield the indices of set lanes, ascending."""
    lane = 0
    while word:
        if word & 1:
            yield lane
        word >>= 1
        lane += 1


def lowest_set_lane(word: int) -> int:
    """Index of the lowest set lane; raises on zero."""
    if word == 0:
        raise ValueError("word has no set lanes")
    return (word & -word).bit_length() - 1


def split_masks(width: int) -> List[tuple]:
    """Per-decision lane partitions for APTPG lane splitting.

    For decision ``k`` (0-based), returns ``(zeros, ones)`` where lane
    ``i`` belongs to *ones* iff bit ``k`` of ``i`` is set.  With
    ``log2(width)`` decisions the partitions enumerate every value
    combination across lanes — the paper's "we can consider all
    possible value assignments at log2(L) primary inputs".
    """
    mask = mask_for(width)
    result = []
    k = 0
    while (1 << k) < width:
        ones = 0
        for lane in range(width):
            if (lane >> k) & 1:
                ones |= 1 << lane
        result.append(((~ones) & mask, ones))
        k += 1
    return result


def max_split_decisions(width: int) -> int:
    """How many binary decisions lane splitting can absorb: floor(log2 L)."""
    count = 0
    while (1 << (count + 1)) <= width:
        count += 1
    return count
