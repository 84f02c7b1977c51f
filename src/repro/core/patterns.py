"""Two-pattern delay tests, their extraction from lane states, and tables.

A path delay test is a vector pair ``(V1, V2)``: ``V1`` is latched at
time T1, ``V2`` launches the transitions at T2, and the outputs are
sampled one clock later.  :class:`TestPattern` holds one as int tuples
(the API and serde type).  :func:`extract_pattern` reads one conflict-
free, fully justified bit lane of a :class:`repro.core.state.TpgState`
back into such a pair, one input at a time; it is the oracle of the C
engine's row reads: :meth:`repro.core.state.TpgEngine.input_rows`,
which reads a robust batch's tested lanes as rows in one vectorized
pass, and :meth:`repro.core.state.TpgEngine.round`, which writes each
tested lane's rows (:func:`round_patterns` decodes them).

:class:`PatternTable` is the columnar form of a pattern set, the
pattern twin of :class:`repro.paths.FaultTable`: v1 and v2 as
``(n, n_inputs)`` uint8 rows, plus each row's :class:`TestPattern`
(which carries the target fault).  The generator appends the rows the
engine wrote, and :meth:`PatternTable.packed` turns any slice into the
lane planes of a :class:`repro.kernel.PackedPatterns` with one
:func:`repro.kernel.pack_bits` per vector — the campaign drop bus packs
each round's fresh slice that way.  Tuples and ``"0101…"`` text enter
through the one row codec of :mod:`repro.kernel.packed`.

Unassigned primary inputs are *don't care*; they are filled
deterministically (stable 0) so that every emitted pattern is concrete
and simulation-ready.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import xor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..kernel.packed import PackedPatterns, pack_bits, pattern_rows, text_rows
from ..paths import PathDelayFault
from ..paths.table import grown, path_input_error
from .state import TpgState


@dataclass(frozen=True, slots=True)
class TestPattern:
    """A concrete two-vector test for one target fault.

    Slotted, so the row codec's C reader
    (:func:`repro.kernel.native.read_pattern_planes`) finds ``v1`` and
    ``v2`` at fixed offsets in the object.

    Attributes:
        v1: initial vector, one 0/1 per primary input (circuit order).
        v2: final vector, same shape.
        fault: the path delay fault this pattern was generated for.
    """

    __test__ = False  # not a pytest test class despite the name

    v1: Tuple[int, ...]
    v2: Tuple[int, ...]
    fault: Optional[PathDelayFault] = None

    def as_dicts(self, circuit: Circuit) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(V1, V2) keyed by primary-input names."""
        names = [circuit.signal_name(i) for i in circuit.inputs]
        return dict(zip(names, self.v1)), dict(zip(names, self.v2))

    def transitions(self) -> Tuple[int, ...]:
        """Indices (input positions) where V1 and V2 differ."""
        return tuple(k for k, (a, b) in enumerate(zip(self.v1, self.v2)) if a != b)

    def describe(self, circuit: Circuit) -> str:
        """Compact display: ``V1=0110 V2=0100 (R: b-p-x)``."""
        v1 = "".join(str(b) for b in self.v1)
        v2 = "".join(str(b) for b in self.v2)
        suffix = f" ({self.fault.describe(circuit)})" if self.fault else ""
        return f"V1={v1} V2={v2}{suffix}"


def extract_pattern(
    state: TpgState, lane: int, fault: PathDelayFault
) -> TestPattern:
    """Read lane *lane* of *state* into a concrete :class:`TestPattern`.

    * 3-valued (nonrobust) states carry final values only: ``V2`` is
      the lane image and ``V1`` equals ``V2`` with the path input
      flipped (the standard nonrobust launch).  A path whose first
      signal is not a primary input has no launch: :class:`ValueError`
      naming the signal.
    * 7-valued (robust) states carry initial values implicitly:
      stable inputs keep their final value, instable inputs start
      inverted, history-free inputs start at their final value (the
      safest concrete choice — it adds no transitions).

    Reads only the planes it needs: the final-value 1-plane, and the
    instable plane of a 7-valued state.
    """
    final = state.input_bits(1, lane)
    if state.algebra.n_planes >= 4:
        instable = state.input_bits(3, lane)
        return TestPattern(tuple(map(xor, final, instable)), final, fault)
    signal = fault.input_signal
    position = state.compiled.input_position.get(signal)
    if position is None:
        inside = 0 <= signal < state.compiled.n_signals
        name = state.circuit.signal_name(signal) if inside else "outside the circuit"
        raise path_input_error(signal, name)
    initial = list(final)
    initial[position] ^= 1  # launch the transition at the path input
    return TestPattern(tuple(initial), final, fault)


#: The (V1, V2) rows of a set of patterns: two ``(n, n_inputs)`` 0/1
#: uint8 arrays, row ``k`` pattern ``k``.
Rows = Tuple[np.ndarray, np.ndarray]


def patterns_from_rows(
    v1: np.ndarray, v2: np.ndarray, faults: Sequence[Optional[PathDelayFault]]
) -> List[TestPattern]:
    """One :class:`TestPattern` per row pair, targeting ``faults[k]``."""
    return [
        TestPattern(tuple(a), tuple(b), fault)
        for a, b, fault in zip(v1.tolist(), v2.tolist(), faults)
    ]


def round_patterns(
    run, faults: Sequence[PathDelayFault], rows: Sequence[int], n_inputs: int
) -> List[Optional[TestPattern]]:
    """The pattern of each fault of a :meth:`repro.core.state.TpgEngine.round`.

    By position in the round, ``None`` where untested; the fault at
    position *p* is ``faults[rows[p]]``, and its pattern targets it.
    """
    patterns: List[Optional[TestPattern]] = [None] * len(rows)
    raw = run.rows
    for start, position in zip(range(0, len(raw), 2 * n_inputs), run.tested):
        patterns[position] = TestPattern(
            tuple(raw[start : start + n_inputs]),
            tuple(raw[start + n_inputs : start + 2 * n_inputs]),
            faults[rows[position]],
        )
    return patterns


class PatternTable:
    """A pattern set as columns: v1/v2 uint8 rows plus the pattern objects.

    ``v1`` and ``v2`` are ``(len(self), n_inputs)`` 0/1 uint8 arrays,
    the two halves of one row buffer grown by doubling (row *k* holds
    pattern *k*'s V1 then its V2); ``patterns[k]`` is row *k*'s
    :class:`TestPattern`, the object reports and records hold.  Rows
    enter as arrays (:meth:`append`, from an engine: ``n_inputs`` wide
    and 0/1 by construction, so unchecked) or as tuples and text through
    the row codec (:meth:`extend`, :meth:`from_patterns`,
    :meth:`from_text`, checked).  :meth:`packed` packs a slice.
    """

    __test__ = False  # not a pytest test class despite the name

    __slots__ = ("n_inputs", "patterns", "_rows")

    def __init__(self, n_inputs: int):
        self.n_inputs = int(n_inputs)
        self.patterns: List[TestPattern] = []
        self._rows = np.empty((0, 2 * self.n_inputs), dtype=np.uint8)

    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def v1(self) -> np.ndarray:
        return self._rows[: len(self.patterns), : self.n_inputs]

    @property
    def v2(self) -> np.ndarray:
        return self._rows[: len(self.patterns), self.n_inputs :]

    @property
    def rows(self) -> np.ndarray:
        """Every row, V1 then V2: a C-contiguous ``(n, 2 * n_inputs)`` view."""
        return self._rows[: len(self.patterns)]

    def append(
        self, v1: np.ndarray, v2: np.ndarray, patterns: Sequence[TestPattern]
    ) -> range:
        """Add rows the caller vouches for; returns their positions.

        *v1*/*v2* are ``(len(patterns), n_inputs)`` 0/1 arrays, row *k*
        the vectors of ``patterns[k]``.
        """
        start = len(self.patterns)
        stop = start + len(patterns)
        rows = self._rows = grown(self._rows, stop)
        n = self.n_inputs
        rows[start:stop, :n] = v1
        rows[start:stop, n:] = v2
        self.patterns.extend(patterns)
        return range(start, stop)

    def extend(self, patterns: Sequence[TestPattern]) -> range:
        """Add tuple patterns through the row codec; returns their positions.

        Every vector must be ``n_inputs`` wide
        (:func:`repro.sim.delay_sim.check_pattern_widths`) with bits 0
        or 1 (:func:`repro.kernel.packed.pattern_rows`).
        """
        if not patterns:
            return range(len(self), len(self))
        from ..sim.delay_sim import check_pattern_widths  # lazy: sim is above core

        check_pattern_widths(patterns, self.n_inputs)
        return self.append(*pattern_rows(patterns), patterns)

    @classmethod
    def from_patterns(
        cls, patterns: Sequence[TestPattern], n_inputs: Optional[int] = None
    ) -> "PatternTable":
        """A table of *patterns*, ``n_inputs`` wide (default: the first's)."""
        if n_inputs is None:
            if not patterns:
                raise ValueError("an empty pattern list needs n_inputs")
            n_inputs = len(patterns[0].v1)
        table = cls(n_inputs)
        table.extend(patterns)
        return table

    @classmethod
    def from_text(cls, v1: Sequence[str], v2: Sequence[str]) -> "PatternTable":
        """A table of ``"0101…"`` vectors (decoded by :func:`text_rows`)."""
        a, b = text_rows(v1, v2)
        table = cls(a.shape[1])
        table.append(a, b, patterns_from_rows(a, b, [None] * len(a)))
        return table

    def take(self, positions: Sequence[int]) -> "PatternTable":
        """A new table of the rows at *positions*, in that order."""
        index = np.asarray(positions, dtype=np.intp)
        table = PatternTable(self.n_inputs)
        rows = self._rows[index]
        n = self.n_inputs
        patterns = [self.patterns[k] for k in index.tolist()]
        table.append(rows[:, :n], rows[:, n:], patterns)
        return table

    def packed(self, start: int = 0, stop: Optional[int] = None) -> PackedPatterns:
        """Rows ``start:stop`` as lane planes.

        One :func:`repro.kernel.pack_bits` over the slice's V1 and V2
        columns together; the two halves of its planes are the
        :class:`PackedPatterns` v1 and v2.
        """
        stop = len(self.patterns) if stop is None else min(stop, len(self.patterns))
        planes = pack_bits(self._rows[start:stop])
        n = self.n_inputs
        return PackedPatterns(planes[:n], planes[n:], stop - start)


def random_patterns(
    circuit: Circuit, count: int, seed: int = 0
) -> List[TestPattern]:
    """Deterministic random two-vector tests (benchmark/test workloads).

    The single source of the synthetic PPSFP workload used by the
    pytest benchmarks and the test suite, so both exercise identical
    batches for a given seed.
    """
    rng = random.Random(seed)
    n = len(circuit.inputs)
    return [
        TestPattern(
            tuple(rng.randint(0, 1) for _ in range(n)),
            tuple(rng.randint(0, 1) for _ in range(n)),
        )
        for _ in range(count)
    ]


@dataclass
class TestSet:
    """An ordered collection of generated patterns with dedup support."""

    __test__ = False  # not a pytest test class despite the name

    patterns: List[TestPattern] = field(default_factory=list)

    def add(self, pattern: TestPattern) -> None:
        self.patterns.append(pattern)

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def unique_vectors(self) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Distinct (V1, V2) pairs in first-seen order."""
        seen = set()
        result = []
        for p in self.patterns:
            key = (p.v1, p.v2)
            if key not in seen:
                seen.add(key)
                result.append(key)
        return result

    def compaction_ratio(self) -> float:
        """len(unique vectors) / len(patterns) (1.0 = no sharing)."""
        if not self.patterns:
            return 1.0
        return len(self.unique_vectors()) / len(self.patterns)
