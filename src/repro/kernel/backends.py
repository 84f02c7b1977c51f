"""Pluggable word backends executing the compiled evaluation plan.

Three word representations share one compiled netlist
(:class:`repro.kernel.compiled.CompiledCircuit`):

* :class:`repro.kernel.native.NativeWordBackend` — uint64 lane slabs
  executed by compiled C: one circuit-generic module, built once per
  machine via cffi and loaded from a disk cache after that, runs the
  forward passes *and* the PPSFP fault walks.  The default: ``auto``
  selects it at every width whenever that module loads.
* :class:`IntWordBackend` — Python integers as lane words.  Arbitrary
  lane count in a single "word" (CPython ints are arbitrary
  precision), zero dependencies, and the fastest Python option for
  the small widths the TPG state machine works at (L = 32/64).
* :class:`NumpyWordBackend` — numpy ``uint64`` arrays, one 64-lane
  word per element.  Per-gate cost is amortized over every word, so
  thousand-pattern batches stream through the netlist at a fraction of
  the per-pattern cost; the Python bulk backend.

``fusion`` (:data:`FUSION_MODES`) picks how a Python backend executes
the plan:

* ``"auto"`` — the fast path: the plan rendered once into
  straight-line Python on int words (:mod:`repro.kernel.codegen`,
  tier ``int/codegen``), level-vectorized groups on numpy
  (:mod:`repro.kernel.fusion`, tier ``numpy/vector``),
* ``"interp"`` — the original per-gate interpreter loop, retained
  verbatim as the cross-check oracle (``int/interp``,
  ``numpy/interp``).

Which backend runs for ``prefer="auto"`` (:func:`backend_for`):
``native/c`` under ``fusion="auto"`` where the module loads, else the
int backend up to 64 lanes and numpy beyond.  The C backend has no
interpreted form, so ``prefer="native"`` with ``fusion="interp"`` is
refused.  ``backend.tier`` names what runs.
All tiers execute the same plan with the same semantics and are
cross-checked against each other and against the naive
:meth:`repro.circuit.Circuit.evaluate` reference in the test suite
(``tests/test_fusion.py``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from ..logic import seven_valued, ten_valued
from ..logic.words import mask_for
from .codegen import logic_fn, planes7_fn, planes10_fn
from .compiled import (
    CODE_AND,
    CODE_BUF,
    CODE_NAND,
    CODE_NOR,
    CODE_NOT,
    CODE_OR,
    CODE_XNOR,
    CODE_XOR,
    CompiledCircuit,
)
from .fusion import run_logic_fused, run_planes7_fused, run_planes10_fused
from .packed import FULL_WORD, lane_valid_words

#: A 7-valued plane tuple in either representation (ints or arrays).
PlanesLike = Tuple

#: The fusion strategies accepted by every backend and ``Options``:
#: the fast path, and the per-gate oracle.
FUSION_MODES = ("auto", "interp")

#: The backend preferences accepted by ``backend_for`` and ``Options``.
BACKEND_MODES = ("auto", "int", "numpy", "native")


def check_fusion(fusion: str, prefer: str = "auto") -> str:
    """*fusion* if it is a known strategy that backend *prefer* can run.

    Raises :class:`ValueError` for anything outside
    :data:`FUSION_MODES`, and for ``"interp"`` with ``prefer="native"``:
    the oracle is Python, the native backend compiled C.
    """
    if fusion not in FUSION_MODES:
        raise ValueError(
            f"unknown fusion strategy {fusion!r} (choose from {FUSION_MODES})"
        )
    if fusion == "interp" and prefer == "native":
        raise ValueError(
            "fusion 'interp' is the Python oracle and cannot run on "
            "backend 'native'"
        )
    return fusion


def eval_gate_word(code: int, values, fanin: Tuple[int, ...], mask: int) -> int:
    """One plan step over Python-int lane words.

    Shared by the int backend's full-netlist pass and the stuck-at
    simulator's cone resimulation so the gate semantics live in one
    place.  Raises on unknown codes: a gate type added to the compiled
    plan without a rule here must fail loudly, not evaluate wrongly.
    """
    if code == CODE_AND or code == CODE_NAND:
        word = values[fanin[0]]
        for f in fanin[1:]:
            word &= values[f]
        if code == CODE_NAND:
            word = ~word & mask
    elif code == CODE_OR or code == CODE_NOR:
        word = values[fanin[0]]
        for f in fanin[1:]:
            word |= values[f]
        if code == CODE_NOR:
            word = ~word & mask
    elif code == CODE_XOR or code == CODE_XNOR:
        word = values[fanin[0]]
        for f in fanin[1:]:
            word ^= values[f]
        if code == CODE_XNOR:
            word = ~word & mask
    elif code == CODE_BUF:
        word = values[fanin[0]]
    elif code == CODE_NOT:
        word = ~values[fanin[0]] & mask
    else:
        raise ValueError(f"unhandled gate code {code}")
    return word


class IntWordBackend:
    """Execute the plan over Python-int lane words of a fixed width.

    ``fusion="auto"`` runs the straight-line compiled body (level
    vectorization needs numpy arrays — for int words codegen is the
    fused strategy), ``"interp"`` the per-gate loop.
    """

    kind = "int"

    def __init__(self, width: int, fusion: str = "auto"):
        if width < 1:
            raise ValueError("word length must be >= 1")
        self.width = width
        self.mask = mask_for(width)
        self.fusion = check_fusion(fusion)
        self._fused = fusion == "auto"

    @property
    def tier(self) -> str:
        """``kind/strategy`` of what runs: ``int/codegen`` or ``int/interp``."""
        return "int/codegen" if self._fused else "int/interp"

    # ------------------------------------------------------------------
    def simulate_logic(
        self, compiled: CompiledCircuit, input_words: Sequence[int]
    ) -> List[int]:
        """Two-valued simulation; returns one lane word per signal."""
        if len(input_words) != compiled.n_inputs:
            raise ValueError(
                f"expected {compiled.n_inputs} input words, got {len(input_words)}"
            )
        mask = self.mask
        if self._fused:
            return logic_fn(compiled)(input_words, mask)
        values = [0] * compiled.n_signals
        for pi, word in zip(compiled.py_inputs, input_words):
            values[pi] = word & mask
        for code, out, fanin, _gt in compiled.plan:
            values[out] = eval_gate_word(code, values, fanin, mask)
        return values

    def simulate_planes7(
        self, compiled: CompiledCircuit, input_planes: Sequence[PlanesLike]
    ) -> List[PlanesLike]:
        """Forward 7-valued simulation from per-input plane tuples."""
        if len(input_planes) != compiled.n_inputs:
            raise ValueError(
                f"expected {compiled.n_inputs} input planes, got {len(input_planes)}"
            )
        mask = self.mask
        if self._fused:
            return planes7_fn(compiled)(input_planes, mask)
        x = seven_valued.X
        values: List[PlanesLike] = [x] * compiled.n_signals
        for pi, planes in zip(compiled.py_inputs, input_planes):
            values[pi] = planes
        forward = seven_valued.forward
        for _code, out, fanin, gate_type in compiled.plan:
            values[out] = forward(gate_type, [values[f] for f in fanin], mask)
        return values

    def simulate_planes10(
        self, compiled: CompiledCircuit, input_planes: Sequence[PlanesLike]
    ) -> List[PlanesLike]:
        """Forward 10-valued (hazard-aware) simulation from input planes."""
        if len(input_planes) != compiled.n_inputs:
            raise ValueError(
                f"expected {compiled.n_inputs} input planes, got {len(input_planes)}"
            )
        mask = self.mask
        if self._fused:
            return planes10_fn(compiled)(input_planes, mask)
        x = ten_valued.X
        values: List[PlanesLike] = [x] * compiled.n_signals
        for pi, planes in zip(compiled.py_inputs, input_planes):
            values[pi] = planes
        forward = ten_valued.forward
        for _code, out, fanin, gate_type in compiled.plan:
            values[out] = forward(gate_type, [values[f] for f in fanin], mask)
        return values


class NumpyWordBackend:
    """Execute the plan over numpy uint64 multi-word lane arrays.

    ``fusion="auto"`` runs the level-vectorized group execution (one
    gather + one ufunc reduce per gate group — O(groups) interpreter
    cost per pass instead of O(gates)), ``"interp"`` the per-gate loop.
    """

    kind = "numpy"

    def __init__(self, n_lanes: int, fusion: str = "auto"):
        self.lane_valid = lane_valid_words(n_lanes)
        self.n_lanes = n_lanes
        self.n_words = len(self.lane_valid)
        self.full = FULL_WORD
        self.fusion = check_fusion(fusion)

    @property
    def tier(self) -> str:
        """``kind/strategy`` of what runs: ``numpy/vector`` or ``numpy/interp``."""
        return "numpy/vector" if self.fusion == "auto" else "numpy/interp"

    # ------------------------------------------------------------------
    def simulate_logic(
        self, compiled: CompiledCircuit, input_bits: np.ndarray
    ) -> np.ndarray:
        """Two-valued simulation over ``(n_inputs, n_words)`` uint64 bits.

        Returns ``(n_signals, n_words)`` lane words; padding lanes in
        the last word carry unspecified values (mask with
        :attr:`lane_valid` before counting).
        """
        input_bits = np.asarray(input_bits, dtype=np.uint64)
        if input_bits.ndim == 1:
            input_bits = input_bits[:, None]
        if input_bits.shape[0] != compiled.n_inputs:
            raise ValueError(
                f"expected {compiled.n_inputs} input rows, got {input_bits.shape[0]}"
            )
        n_words = input_bits.shape[1]
        full = self.full
        values = np.zeros((compiled.n_signals, n_words), dtype=np.uint64)
        values[compiled.input_index] = input_bits
        if self.fusion == "auto":
            run_logic_fused(compiled, values, full)
            return values
        for code, out, fanin, _gt in compiled.plan:
            if code == CODE_AND or code == CODE_NAND:
                word = values[fanin[0]].copy()
                for f in fanin[1:]:
                    word &= values[f]
                if code == CODE_NAND:
                    word ^= full
            elif code == CODE_OR or code == CODE_NOR:
                word = values[fanin[0]].copy()
                for f in fanin[1:]:
                    word |= values[f]
                if code == CODE_NOR:
                    word ^= full
            elif code == CODE_XOR or code == CODE_XNOR:
                word = values[fanin[0]].copy()
                for f in fanin[1:]:
                    word ^= values[f]
                if code == CODE_XNOR:
                    word ^= full
            elif code == CODE_BUF:
                word = values[fanin[0]].copy()
            elif code == CODE_NOT:
                word = values[fanin[0]] ^ full
            else:
                raise ValueError(f"unhandled gate code {code}")
            values[out] = word
        return values

    def simulate_planes7(
        self, compiled: CompiledCircuit, input_planes: Sequence[PlanesLike]
    ) -> List[PlanesLike]:
        """Forward 7-valued simulation with array-valued planes.

        The plane calculus of :mod:`repro.logic.seven_valued` is pure
        bitwise arithmetic, so the very same rules evaluate uint64
        arrays element-wise; the all-lanes mask becomes the all-ones
        word.  Padding lanes stay ``X`` end to end because the input
        planes leave them all-zero.
        """
        if len(input_planes) != compiled.n_inputs:
            raise ValueError(
                f"expected {compiled.n_inputs} input planes, got {len(input_planes)}"
            )
        full = self.full
        if self.fusion == "auto":
            n = compiled.n_signals
            shape = (n, self.n_words)
            slabs = [np.zeros(shape, dtype=np.uint64) for _ in range(4)]
            for pi, planes in zip(compiled.py_inputs, input_planes):
                for plane_slab, plane in zip(slabs, planes):
                    plane_slab[pi] = plane
            run_planes7_fused(compiled, *slabs)
            zero, one, stable, instable = slabs
            return [
                (zero[s], one[s], stable[s], instable[s]) for s in range(n)
            ]
        zero = np.zeros(self.n_words, dtype=np.uint64)
        x = (zero, zero, zero, zero)
        values: List[PlanesLike] = [x] * compiled.n_signals
        for pi, planes in zip(compiled.py_inputs, input_planes):
            values[pi] = planes
        forward = seven_valued.forward
        for _code, out, fanin, gate_type in compiled.plan:
            values[out] = forward(gate_type, [values[f] for f in fanin], full)
        return values

    def simulate_planes10(
        self, compiled: CompiledCircuit, input_planes: Sequence[PlanesLike]
    ) -> List[PlanesLike]:
        """Forward 10-valued simulation with array-valued planes.

        The hazard calculus of :mod:`repro.logic.ten_valued` is pure
        bitwise arithmetic like the 7-valued rules, so the same
        strategy split applies: ``auto`` runs the slab-form group
        executor, ``interp`` the per-gate oracle loop.  Padding lanes
        stay ``X``.
        """
        if len(input_planes) != compiled.n_inputs:
            raise ValueError(
                f"expected {compiled.n_inputs} input planes, got {len(input_planes)}"
            )
        full = self.full
        if self.fusion == "auto":
            n = compiled.n_signals
            shape = (n, self.n_words)
            slabs = [np.zeros(shape, dtype=np.uint64) for _ in range(5)]
            for pi, planes in zip(compiled.py_inputs, input_planes):
                for plane_slab, plane in zip(slabs, planes):
                    plane_slab[pi] = plane
            run_planes10_fused(compiled, *slabs)
            zero, one, stable, instable, hazard = slabs
            return [
                (zero[s], one[s], stable[s], instable[s], hazard[s])
                for s in range(n)
            ]
        zero = np.zeros(self.n_words, dtype=np.uint64)
        x = (zero, zero, zero, zero, zero)
        values: List[PlanesLike] = [x] * compiled.n_signals
        for pi, planes in zip(compiled.py_inputs, input_planes):
            values[pi] = planes
        forward = ten_valued.forward
        for _code, out, fanin, gate_type in compiled.plan:
            values[out] = forward(gate_type, [values[f] for f in fanin], full)
        return values


WordBackend = Union[IntWordBackend, NumpyWordBackend]


def backend_for(
    n_lanes: int, prefer: str = "auto", fusion: str = "auto"
) -> WordBackend:
    """Choose a backend for an *n_lanes*-wide batch.

    ``prefer`` is one of :data:`BACKEND_MODES`:

    * ``"auto"`` (default) — with ``fusion="auto"``, the compiled-C
      backend (:class:`repro.kernel.native.NativeWordBackend`) at every
      width whenever the native module loads (from the disk cache, or
      built once on a miss).  Otherwise — ``fusion="interp"``, or no
      cached module and no C toolchain, silently — the crossover
      between the two Python backends: int words up to one machine
      word (``n_lanes <= 64``, where CPython int bitwise ops beat
      numpy's per-gate dispatch), numpy multi-word arrays beyond it.
    * ``"int"`` / ``"numpy"`` — pin that backend.
    * ``"native"`` — the compiled-C backend; degrades to ``numpy``
      with a one-time
      :class:`repro.kernel.native.NativeBackendUnavailableWarning`
      when the native module cannot be loaded or built.  Refused with
      ``fusion="interp"`` (:func:`check_fusion`).

    The returned backend's ``tier`` names what runs (``native/c``,
    ``int/codegen``, ``numpy/vector``, ...).
    """
    check_fusion(fusion, prefer)
    if prefer == "int":
        return IntWordBackend(n_lanes, fusion=fusion)
    if prefer == "numpy":
        return NumpyWordBackend(n_lanes, fusion=fusion)
    # imported here: repro.kernel.native imports this module
    from .native import (
        NativeWordBackend,
        native_available,
        native_backend_or_fallback,
    )

    if prefer == "native":
        return native_backend_or_fallback(n_lanes)
    if prefer != "auto":
        raise ValueError(
            f"unknown backend preference {prefer!r} "
            f"(choose from {BACKEND_MODES})"
        )
    if fusion == "auto" and native_available():
        return NativeWordBackend(n_lanes)
    if n_lanes > 64:
        return NumpyWordBackend(n_lanes, fusion=fusion)
    return IntWordBackend(n_lanes, fusion=fusion)
