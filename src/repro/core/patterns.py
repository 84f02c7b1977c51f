"""Two-pattern delay tests and their extraction from lane states.

A path delay test is a vector pair ``(V1, V2)``: ``V1`` is latched at
time T1, ``V2`` launches the transitions at T2, and the outputs are
sampled one clock later.  :func:`extract_pattern` reads one conflict-
free, fully justified bit lane of a :class:`repro.core.state.TpgState`
back into such a pair.

Unassigned primary inputs are *don't care*; they are filled
deterministically (stable 0) so that every emitted pattern is concrete
and simulation-ready.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import xor
from typing import Dict, List, Optional, Tuple

from ..circuit import Circuit
from ..paths import PathDelayFault
from ..paths.table import path_input_error
from .state import TpgState


@dataclass(frozen=True)
class TestPattern:
    """A concrete two-vector test for one target fault.

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
