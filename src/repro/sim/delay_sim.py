"""Parallel-pattern path delay fault simulation (PPSFP).

The paper interleaves generation with bit-parallel fault simulation:
"we perform parallel pattern fault simulation after every L generated
test patterns" — detected faults are dropped from the pending list.
This module implements that simulator, for both test classes.

The simulator packs two-vector tests into the bit lanes of a 7-valued
plane state (each primary input becomes S0/S1/R/F according to its
V1/V2 bits) and evaluates the conservative hazard calculus of
:mod:`repro.logic.seven_valued` once, forward-only, over the compiled
netlist kernel (:class:`repro.kernel.CompiledCircuit`).  By default
the pass and the whole fault walk run in the compiled-C native module
(:mod:`repro.kernel.native`); the Python word backends run the same
calculus where it is unavailable or a fusion strategy is pinned:

* Python-int planes (one arbitrary-width word per plane) for batches
  up to one machine word,
* numpy ``uint64`` multi-word planes (:class:`repro.kernel.
  PackedPatterns`) for bulk batches of arbitrarily many patterns —
  the same plane calculus, vectorized element-wise.

A path delay fault is then checked per pattern lane with pure bitwise
expressions:

* **launch**: the path input carries the fault's transition,
* **nonrobust**: at every on-path gate, all off-path inputs have the
  non-controlling final value (XOR-like gates impose no condition),
* **robust** (Lin & Reddy conditions): where the on-path transition
  ends non-controlling the off-path inputs must additionally be
  *stable*; where it ends controlling their final value suffices;
  XOR-like gates require stable off-path inputs.

A robust detection is also a nonrobust detection, mirroring the
model's containment relation.  The pre-kernel object-graph
implementation survives in :mod:`repro.sim.reference` as the
validation baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .. import chaos
from ..circuit import Circuit
from ..kernel import (
    BACKEND_MODES,
    FUSION_MODES,
    CompiledCircuit,
    IntWordBackend,
    NumpyWordBackend,
    PackedPatterns,
    backend_for,
    words_to_int,
)
from ..kernel.packed import bit_error, read_pattern_planes, width_error
from ..logic import ten_valued
from ..logic.words import mask_for
from ..paths import PathDelayFault, TestClass
from ..paths.table import fault_rows


class PatternLike(Protocol):
    """Anything with V1/V2 vectors (e.g. repro.core.patterns.TestPattern)."""

    v1: Tuple[int, ...]
    v2: Tuple[int, ...]


Planes = Tuple[int, int, int, int]


def pack_patterns(
    circuit: Circuit, patterns: Sequence[PatternLike]
) -> Tuple[List[Planes], int]:
    """Pack patterns into per-input 7-valued plane words.

    Lane ``k`` carries pattern ``k``: S0/S1 where V1 == V2, R/F where
    the vectors differ.  Returns (per-signal planes for inputs, width).
    Raises :func:`~repro.kernel.packed.bit_error` for a bit other than
    0 or 1.
    """
    width = len(patterns)
    if width == 0:
        return [], 0
    planes: List[Planes] = []
    for position, _pi in enumerate(circuit.inputs):
        z = o = s = i = 0
        for lane, pattern in enumerate(patterns):
            initial = pattern.v1[position]
            final = pattern.v2[position]
            bit = 1 << lane
            if final == 1:
                o |= bit
            elif final == 0:
                z |= bit
            else:
                raise bit_error(lane, "v2", position, final)
            if initial == final:
                s |= bit
            elif initial == 0 or initial == 1:
                i |= bit
            else:
                raise bit_error(lane, "v1", position, initial)
        planes.append((z, o, s, i))
    return planes, width


def check_pattern_widths(patterns: Sequence[PatternLike], n_inputs: int) -> None:
    """Raise ``ValueError`` for a pattern whose v1 or v2 is not *n_inputs* wide.

    The input check of the batched detection and strength passes, the
    same on every backend: packing joins all rows into one buffer, so a
    short row followed by a long one would otherwise shift every later
    pattern silently.  The session circuit breaker re-raises
    ``ValueError`` instead of demoting — no backend change can fix
    malformed input.  A :class:`PackedPatterns` batch is rectangular
    by construction, so its row count is checked once, as pattern 0's:
    the native pass would otherwise broadcast a single row to every
    input.
    """
    reason = "one per primary input"
    if isinstance(patterns, PackedPatterns):
        for name, plane in (("v1", patterns.v1), ("v2", patterns.v2)):
            if plane.shape[0] != n_inputs:
                raise width_error(0, name, plane.shape[0], n_inputs, reason)
        return
    for index, pattern in enumerate(patterns):
        if len(pattern.v1) != n_inputs or len(pattern.v2) != n_inputs:
            name = "v1" if len(pattern.v1) != n_inputs else "v2"
            bits = len(getattr(pattern, name))
            raise width_error(index, name, bits, n_inputs, reason)


def _checked_patterns(
    patterns: Sequence[PatternLike], n_inputs: int, backend: str, fusion: str
):
    """*patterns* after the width check, packed where a C read stands in for it.

    With ``fusion="auto"`` and a *backend* other than ``"int"`` the call
    packs lane planes (native, or numpy), so a tuple batch is first read
    in C at the circuit's width, straight into planes
    (:func:`repro.kernel.packed.read_pattern_planes`): a batch the
    reader takes has every vector *n_inputs* wide and every bit 0 or 1,
    and comes back as its :class:`PackedPatterns` without a
    :func:`check_pattern_widths` pass.  Anything else — a packed batch, the
    int tier (it packs with :func:`pack_patterns`), a pinned fusion, no
    native module, a batch the reader refuses — goes through
    :func:`check_pattern_widths` and comes back as it was, so every
    error is raised as it would be without the reader.
    """
    packs_planes = fusion == "auto" and backend != "int"
    if packs_planes and not isinstance(patterns, PackedPatterns):
        planes = read_pattern_planes(patterns, n_inputs)
        if planes is not None:
            return PackedPatterns(*planes, n_patterns=len(patterns))
    check_pattern_widths(patterns, n_inputs)
    return patterns


def simulate_planes(
    circuit: Circuit, patterns: Sequence[PatternLike], fusion: str = "auto"
) -> Tuple[List[Planes], int]:
    """Forward 7-valued simulation of all patterns; returns signal planes.

    Executes on the compiled kernel with the int word backend; the
    lane width is the number of patterns (arbitrary, since Python ints
    are unbounded).  ``fusion`` selects the execution strategy.
    """
    input_planes, width = pack_patterns(circuit, patterns)
    if width == 0:
        return [], 0
    backend = IntWordBackend(width, fusion=fusion)
    return backend.simulate_planes7(circuit.compiled(), input_planes), width


def _any_lane(word) -> bool:
    """Truthiness of a lane word in either representation."""
    if isinstance(word, np.ndarray):
        return bool(word.any())
    return bool(word)


class _LazyIntPlanes:
    """Int-word view over array-valued signal planes, converted lazily.

    The per-fault detection walk touches only the signals on (and
    feeding) the fault's path, and must return Python-int lane masks
    anyway.  Converting each touched signal's plane rows to ints once
    — instead of running the walk's many tiny bitwise steps as
    per-call numpy ufuncs on short arrays — removes the walk's
    dominant constant factor; untouched signals are never converted.
    """

    __slots__ = ("_values", "_cache")

    def __init__(self, values: Sequence):
        self._values = values
        self._cache: Dict[int, Tuple[int, int, int, int]] = {}

    def __getitem__(self, signal: int) -> Tuple[int, int, int, int]:
        cached = self._cache.get(signal)
        if cached is None:
            cached = tuple(words_to_int(p) for p in self._values[signal])
            self._cache[signal] = cached
        return cached


def _detection_mask_compiled(
    compiled: CompiledCircuit,
    fault: PathDelayFault,
    values: Sequence,
    mask,
    robust: bool,
):
    """Detection lane word of *fault* over int or array planes.

    The conditions are *polarity-free*: the on-path transition may be
    inverted by XOR side inputs at 1, so the robust stability rule
    (stable off-path inputs where the on-path transition ends
    non-controlling) is evaluated against the on-path input's
    *simulated* final value, per lane, not against the structural
    parity convention.  The arithmetic is identical for Python-int
    planes (``mask`` = all-lanes int) and uint64 array planes
    (``mask`` = per-word valid-lane array).
    """
    z, o, s, i = values[fault.input_signal]
    want_final_one = fault.transition.final == 1
    detected = i & (o if want_final_one else z)

    signals = fault.signals
    controlling = compiled.controlling
    fanins = compiled.py_fanin
    for position in range(1, len(signals)):
        if not _any_lane(detected):
            break
        signal = signals[position]
        on_path_input = signals[position - 1]
        dz, do, _ds, _di = values[on_path_input]
        control = controlling[signal]
        for fanin_signal in fanins[signal]:
            if fanin_signal == on_path_input:
                continue
            fz, fo, fs, _fi = values[fanin_signal]
            if control is None:
                # XOR-like: any final value sensitizes nonrobustly; a
                # robust test needs glitch-free (stable) side inputs
                if robust:
                    detected = detected & fs
                continue
            nc = 1 - control
            has_nc_final = fo if nc == 1 else fz
            detected = detected & has_nc_final
            if robust:
                # lanes where the on-path input ends non-controlling
                # additionally need a stable side input
                on_nc = do if nc == 1 else dz
                detected = detected & (fs | ~on_nc)
    return detected & mask


def detection_mask(
    circuit: Circuit,
    fault: PathDelayFault,
    values: Sequence[Planes],
    width: int,
    test_class: TestClass,
) -> int:
    """Lane mask of patterns that detect *fault* under *test_class*."""
    return _detection_mask_compiled(
        circuit.compiled(),
        fault,
        values,
        mask_for(width),
        test_class is TestClass.ROBUST,
    )


def _edge_term(compiled, on_path_input: int, signal: int, values, mask, robust):
    """Off-path side conditions of one on-path edge, as one lane word.

    The AND of every side-input condition the per-fault walk applies
    at gate *signal* when the path enters through *on_path_input* —
    the term depends only on the edge (and the test class), never on
    the rest of the fault's path, which is what makes it shareable.
    """
    term = mask
    control = compiled.controlling[signal]
    dz, do, _ds, _di = values[on_path_input]
    for fanin_signal in compiled.py_fanin[signal]:
        if fanin_signal == on_path_input:
            continue
        fz, fo, fs, _fi = values[fanin_signal]
        if control is None:
            if robust:
                term = term & fs
            continue
        nc = 1 - control
        has_nc_final = fo if nc == 1 else fz
        term = term & has_nc_final
        if robust:
            on_nc = do if nc == 1 else dz
            term = term & (fs | ~on_nc)
    return term


def _detection_masks_batched(
    compiled: CompiledCircuit,
    faults: Sequence[PathDelayFault],
    values: Sequence,
    mask,
    robust: bool,
) -> List:
    """Detection lane words of many faults over one simulated batch.

    Bit-identical to mapping :func:`_detection_mask_compiled` over
    *faults* (the conditions AND associatively), but every on-path
    edge's side-condition term is computed once per batch and shared:
    the R/F fault pair of a path reuses all of it, and faults whose
    paths overlap — the common case on drop-heavy campaigns, where
    the pending set is dominated by long paths through shared cones —
    stop re-walking the common segments.
    """
    edge_terms: Dict[Tuple[int, int], object] = {}
    masks = []
    for fault in faults:
        z, o, _s, i = values[fault.input_signal]
        detected = i & (o if fault.transition.final == 1 else z)
        signals = fault.signals
        for position in range(1, len(signals)):
            if not _any_lane(detected):
                break
            key = (signals[position - 1], signals[position])
            term = edge_terms.get(key)
            if term is None:
                term = edge_terms[key] = _edge_term(
                    compiled, key[0], key[1], values, mask, robust
                )
            detected = detected & term
        masks.append(detected & mask)
    return masks


class DelayFaultSimulator:
    """Convenience wrapper: simulate batches, report per-fault detection.

    Args:
        circuit: frozen target circuit (compiled once, cached).
        test_class: robust or nonrobust detection conditions.
        backend: ``"auto"`` (default), ``"int"``, ``"numpy"`` or
            ``"native"``.  Native runs the whole batch — forward pass
            *and* detection walk — inside the compiled-C module; with
            ``fusion="auto"``, ``auto`` picks it at every width
            whenever the module loads, and otherwise runs batches up
            to one machine word on Python-int words and larger ones on
            the numpy multi-word backend (see
            :func:`repro.kernel.backend_for`).  An explicit
            ``"native"`` falls back to numpy with a one-time warning
            when the module is unavailable.
        fusion: execution strategy of a Python backend —
            ``"interp"`` (the per-gate oracle loop), ``"vector"``
            (level-vectorized fused groups, numpy), ``"codegen"``
            (straight-line compiled body) or ``"auto"`` (default: the
            native module where it loads, else the fastest supported
            strategy per backend).  An explicit strategy keeps
            ``backend="auto"`` on the Python backends.
    """

    def __init__(
        self,
        circuit: Circuit,
        test_class: TestClass,
        backend: str = "auto",
        fusion: str = "auto",
    ):
        if backend not in BACKEND_MODES:
            raise ValueError(
                f"unknown backend {backend!r} (choose from {BACKEND_MODES})"
            )
        if fusion not in FUSION_MODES:
            raise ValueError(f"unknown fusion strategy {fusion!r}")
        self.circuit = circuit
        self.compiled: CompiledCircuit = circuit.compiled()
        self.test_class = test_class
        self.backend = backend
        self.fusion = fusion

    # ------------------------------------------------------------------
    def detection_masks(
        self,
        patterns: Sequence[PatternLike],
        faults: Sequence[PathDelayFault],
    ) -> List[int]:
        """Lane masks aligned with *faults* (``masks[k]`` for ``faults[k]``).

        All faults are checked against all patterns in one batched
        pass: one forward plane simulation of the whole batch, then
        per-fault pure bitwise detection checks — in C on the native
        backend, vectorized over multi-word numpy planes when the
        batch exceeds one machine word on the Python ones.  Lane
        ``k`` of a returned mask corresponds to ``patterns[k]``
        regardless of backend.  Index-aligned output
        avoids hashing long path tuples on hot drop loops (the
        campaign drop bus calls this at admission, and after every
        round off the native backend).

        Hot callers that reuse one batch across many calls may pass a
        pre-built :class:`PackedPatterns` instead of the pattern
        sequence, skipping the per-call packing cost, and a
        :class:`repro.paths.FaultRows` view of a fault table instead
        of the fault list, skipping the per-call flatten and range
        check of every path (the campaign drop bus does both).  A
        fault naming a signal outside the circuit raises
        ``ValueError`` on every backend.
        """
        chaos.maybe_raise("kernel_fault")
        width = len(patterns)
        if width == 0:
            return [0] * len(faults)
        patterns = _checked_patterns(
            patterns, len(self.circuit.inputs), self.backend, self.fusion
        )
        robust = self.test_class is TestClass.ROBUST
        compiled = self.compiled
        faults = fault_rows(faults, compiled.n_signals)  # the range check
        backend = backend_for(width, self.backend, fusion=self.fusion)
        pre_packed = isinstance(patterns, PackedPatterns)
        if getattr(backend, "kind", None) == "native":
            # forward pass + whole fault walk inside the compiled-C
            # module: one Python call per batch
            packed = patterns if pre_packed else PackedPatterns.from_patterns(patterns)
            return backend.ppsfp_masks(compiled, packed, faults, robust)
        if isinstance(backend, NumpyWordBackend):
            packed = patterns if pre_packed else PackedPatterns.from_patterns(patterns)
            values = _LazyIntPlanes(
                backend.simulate_planes7(compiled, packed.planes7())
            )
            mask = words_to_int(backend.lane_valid)
        else:
            if pre_packed:
                input_planes = [
                    tuple(words_to_int(plane) for plane in planes)
                    for planes in patterns.planes7()
                ]
            else:
                input_planes, _ = pack_patterns(self.circuit, patterns)
            values = backend.simulate_planes7(compiled, input_planes)
            mask = backend.mask
        if self.fusion != "interp":
            return _detection_masks_batched(compiled, faults, values, mask, robust)
        return [
            _detection_mask_compiled(compiled, fault, values, mask, robust)
            for fault in faults
        ]

    def native_backend(self, width: int):
        """The native backend a *width*-pattern batch runs on, else ``None``.

        What :meth:`detection_masks` resolves: ``backend="auto"`` or
        ``"native"`` under ``fusion="auto"`` where the module loads.
        """
        backend = backend_for(width, self.backend, fusion=self.fusion)
        return backend if getattr(backend, "kind", None) == "native" else None

    def detected_faults(
        self,
        patterns: Sequence[PatternLike],
        faults: Iterable[PathDelayFault],
    ) -> Dict[PathDelayFault, int]:
        """Map each fault to the lane mask of detecting patterns (0 = none).

        Dict-keyed convenience wrapper over :meth:`detection_masks`.
        """
        faults = list(faults)
        return dict(zip(faults, self.detection_masks(patterns, faults)))

    def detects(self, pattern: PatternLike, fault: PathDelayFault) -> bool:
        """True if a single pattern detects a single fault."""
        return bool(self.detected_faults([pattern], [fault])[fault])

    def coverage(
        self,
        patterns: Sequence[PatternLike],
        faults: Sequence[PathDelayFault],
        batch: int = 256,
    ) -> float:
        """Fraction of *faults* detected by *patterns* (batched PPSFP).

        Batches larger than one machine word run on the numpy backend;
        detected faults are dropped between batches, so later batches
        only simulate the shrinking remainder.
        """
        if not faults:
            return 1.0
        remaining = set(faults)
        for start in range(0, len(patterns), batch):
            chunk = patterns[start : start + batch]
            hits = self.detected_faults(chunk, remaining)
            remaining -= {fault for fault, lanes in hits.items() if lanes}
            if not remaining:
                break
        return 1.0 - len(remaining) / len(faults)


# ---------------------------------------------------------------------------
# ten-valued (hazard-aware) simulation and detection-strength grading
# ---------------------------------------------------------------------------

Planes10 = Tuple[int, int, int, int, int]


def simulate_planes10(
    circuit: Circuit, patterns: Sequence[PatternLike], fusion: str = "auto"
) -> Tuple[List[Planes10], int]:
    """Forward 10-valued simulation: primary-input transitions are
    single clean edges, so they enter as S0/S1/HR/HF.

    Runs on the int word backend; ``fusion`` selects the execution
    strategy (``"interp"`` dispatches :func:`repro.logic.ten_valued.
    forward` per gate — the oracle; anything else runs the
    straight-line compiled 5-plane body).  Bulk multi-word grading
    goes through :func:`strength_masks_all` instead.
    """
    input_planes, width = pack_patterns(circuit, patterns)
    if width == 0:
        return [], 0
    mask = mask_for(width)
    inputs10 = [(z, o, s, i, mask) for z, o, s, i in input_planes]
    backend = IntWordBackend(width, fusion=fusion)
    return backend.simulate_planes10(circuit.compiled(), inputs10), width


def strength_masks(
    circuit: Circuit,
    fault: PathDelayFault,
    values: Sequence[Planes10],
    width: int,
) -> Tuple[int, int, int]:
    """(nonrobust, robust, hazard-free-robust) detection lane masks.

    The hazard-free robust class strengthens the robust conditions by
    requiring every off-path input to be provably glitchless (the
    ten-valued h-plane) — the detection then cannot be disturbed by
    any hazard timing.  Containment (strong <= robust <= nonrobust)
    holds by construction and is asserted by the test-suite.
    """
    return _strength_masks_walk(
        circuit.compiled(), fault, values, mask_for(width)
    )


def _strength_edge_term(compiled, on_path_input: int, signal: int, values, mask):
    """(nonrobust, robust, hazard-free) side conditions of one edge.

    The three-class analogue of :func:`_edge_term`: one lane-word
    triple per on-path edge, shared across every fault whose path uses
    the edge.
    """
    nr = r = st = mask
    control = compiled.controlling[signal]
    dz, do, _ds, _di, _dh = values[on_path_input]
    for fanin_signal in compiled.py_fanin[signal]:
        if fanin_signal == on_path_input:
            continue
        fz, fo, fs, _fi, fh = values[fanin_signal]
        if control is None:
            r = r & fs
            st = st & fs
            continue
        nc = 1 - control
        has_nc_final = fo if nc == 1 else fz
        nr = nr & has_nc_final
        on_nc = do if nc == 1 else dz
        stable_where_needed = fs | ~on_nc
        r = r & has_nc_final & stable_where_needed
        st = st & has_nc_final & fh & stable_where_needed
    return nr, r, st


def _strength_masks_batched(
    compiled: CompiledCircuit,
    faults: Sequence[PathDelayFault],
    values: Sequence,
    mask,
) -> List[Tuple[int, int, int]]:
    """Per-fault (nonrobust, robust, hazard-free-robust) lane masks.

    Bit-identical to mapping :func:`strength_masks` over *faults*
    (containment strong <= robust <= nonrobust makes the early exit
    on a dead nonrobust mask safe for all three classes), with every
    on-path edge's condition triple computed once per batch.
    """
    edge_terms: Dict[Tuple[int, int], Tuple] = {}
    results = []
    for fault in faults:
        z, o, _s, i, _h = values[fault.input_signal]
        launch = i & (o if fault.transition.final == 1 else z)
        nonrobust = robust = strong = launch
        signals = fault.signals
        for position in range(1, len(signals)):
            if not _any_lane(nonrobust):
                break
            key = (signals[position - 1], signals[position])
            term = edge_terms.get(key)
            if term is None:
                term = edge_terms[key] = _strength_edge_term(
                    compiled, key[0], key[1], values, mask
                )
            nonrobust = nonrobust & term[0]
            robust = robust & term[1]
            strong = strong & term[2]
        results.append((nonrobust & mask, robust & mask, strong & mask))
    return results


def strength_masks_all(
    circuit: Circuit,
    patterns: Sequence[PatternLike],
    faults: Sequence[PathDelayFault],
    backend: str = "auto",
    fusion: str = "auto",
) -> List[Tuple[int, int, int]]:
    """Batched detection-strength grading of many faults at once.

    One forward 10-valued pass over the whole batch on the selected
    backend/strategy, then per-fault (nonrobust, robust,
    hazard-free-robust) lane-mask triples, index-aligned with
    *faults*.  ``fusion="interp"`` runs the per-gate oracle pass and
    the per-fault oracle walk; fused strategies share on-path edge
    conditions across faults (:func:`_strength_masks_batched`);
    ``backend="native"`` runs the pass and the three-class walk
    inside the circuit's compiled-C module.

    Like :meth:`DelayFaultSimulator.detection_masks`, *patterns* may
    be a pre-built :class:`PackedPatterns` batch to skip the per-call
    packing cost, and *faults* a :class:`repro.paths.FaultRows` view.
    """
    width = len(patterns)
    if width == 0:
        return [(0, 0, 0)] * len(faults)
    patterns = _checked_patterns(patterns, len(circuit.inputs), backend, fusion)
    compiled = circuit.compiled()
    faults = fault_rows(faults, compiled.n_signals)  # the range check
    word_backend = backend_for(width, backend, fusion=fusion)
    pre_packed = isinstance(patterns, PackedPatterns)
    if getattr(word_backend, "kind", None) == "native":
        packed = patterns if pre_packed else PackedPatterns.from_patterns(patterns)
        return word_backend.strength_triples(compiled, packed, faults)
    if isinstance(word_backend, NumpyWordBackend):
        packed = patterns if pre_packed else PackedPatterns.from_patterns(patterns)
        valid = packed.lane_valid()
        inputs10 = [(z, o, s, i, valid) for z, o, s, i in packed.planes7()]
        values = _LazyIntPlanes(
            word_backend.simulate_planes10(compiled, inputs10)
        )
        mask = words_to_int(word_backend.lane_valid)
    else:
        mask = word_backend.mask
        if pre_packed:
            input_planes = [
                tuple(words_to_int(plane) for plane in planes)
                for planes in patterns.planes7()
            ]
        else:
            input_planes, _ = pack_patterns(circuit, patterns)
        inputs10 = [(z, o, s, i, mask) for z, o, s, i in input_planes]
        values = word_backend.simulate_planes10(compiled, inputs10)
    if fusion != "interp":
        return _strength_masks_batched(compiled, faults, values, mask)
    return [
        _strength_masks_walk(compiled, fault, values, mask) for fault in faults
    ]


def _strength_masks_walk(compiled, fault, values, mask):
    """The per-fault oracle strength walk over compiled arrays."""
    z, o, _s, i, _h = values[fault.input_signal]
    launch = i & (o if fault.transition.final == 1 else z)
    nonrobust = robust = strong = launch
    signals = fault.signals
    for position in range(1, len(signals)):
        if not _any_lane(nonrobust):
            break
        signal = signals[position]
        on_path_input = signals[position - 1]
        dz, do, _ds, _di, _dh = values[on_path_input]
        control = compiled.controlling[signal]
        for fanin_signal in compiled.py_fanin[signal]:
            if fanin_signal == on_path_input:
                continue
            fz, fo, fs, _fi, fh = values[fanin_signal]
            if control is None:
                robust &= fs
                strong &= fs
                continue
            nc = 1 - control
            has_nc_final = fo if nc == 1 else fz
            nonrobust &= has_nc_final
            robust &= has_nc_final
            strong &= has_nc_final & fh
            on_nc = do if nc == 1 else dz
            stable_where_needed = fs | ~on_nc
            robust &= stable_where_needed
            strong &= stable_where_needed
    return nonrobust & mask, robust & mask, strong & mask


def detection_strength(
    circuit: Circuit,
    pattern: PatternLike,
    fault: PathDelayFault,
    fusion: str = "auto",
) -> Optional[str]:
    """The strongest class in which *pattern* detects *fault*.

    Returns ``"hazard_free_robust"``, ``"robust"``, ``"nonrobust"`` or
    ``None``.
    """
    values, width = simulate_planes10(circuit, [pattern], fusion=fusion)
    if width == 0:
        return None
    nonrobust, robust, strong = strength_masks(circuit, fault, values, width)
    if strong & 1:
        return "hazard_free_robust"
    if robust & 1:
        return "robust"
    if nonrobust & 1:
        return "nonrobust"
    return None
