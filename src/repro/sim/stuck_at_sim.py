"""Bit-parallel stuck-at fault simulation (parallel-pattern).

The counterpart of :mod:`repro.core.stuck_at`: packs test vectors into
lane words, simulates the good machine once over the compiled netlist
kernel, and per fault re-simulates with the site forced — the classic
parallel-pattern single-fault propagation (PPSFP) scheme the paper
cites as the inspiration for bit-parallel test *generation*.  The
faulty re-simulation walks only the fault site's transitive fanout
cone (:meth:`repro.kernel.CompiledCircuit.cone_of`), not the whole
netlist.

Two execution strategies, selected by the ``fusion`` option:

* ``"interp"`` — the per-gate cone walk (``eval_gate_word`` with
  dirty-set early-outs), retained verbatim as the oracle,
* ``"auto"`` — per-cone straight-line compiled functions
  (:func:`repro.kernel.codegen.cone_fault_fn`): the whole cone
  resimulation plus the output-difference reduction as one body, no
  per-gate dispatch, memoized on the compiled circuit so the sa0/sa1
  pair and every simulator over the same circuit share it.

Orthogonally, ``backend="native"`` moves the whole workload into the
circuit's compiled-C module (:mod:`repro.kernel.native`): the good
machine runs as the native two-valued pass over uint64 lane slabs and
each fault's cone resimulation plus output-difference reduction is
one ``repro_stuck_cone`` call (refused with ``fusion="interp"``).
Without the native module it degrades to the default Python-int path
with a one-time warning.

All strategies are cross-checked bit-identical in
``tests/test_fusion.py``.  The interpreted cone plans are cached on
the simulator instance, so repeated ``detected_faults``/``coverage``
calls (the grading loop) stop rebuilding them per call.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..circuit import Circuit
from ..kernel.backends import check_fusion, eval_gate_word
from ..kernel.codegen import cone_fault_fn
from ..kernel.packed import vector_planes
from ..logic.words import mask_for
from ..core.stuck_at import StuckAtFault
from .logic_sim import pack_vectors, simulate_words

#: Backend choices of :class:`StuckAtSimulator` (``"auto"`` is the
#: Python-int word path — stuck-at grading batches are usually one
#: machine word; ``"native"`` is opt-in compiled C).
STUCK_AT_BACKENDS = ("auto", "int", "native")


class StuckAtSimulator:
    """Parallel-pattern stuck-at fault simulator.

    Args:
        circuit: frozen target circuit (compiled once, cached).
        fusion: execution strategy — ``"auto"`` (the default) runs the
            per-cone compiled bodies, ``"interp"`` the per-gate cone
            walk.
        backend: ``"auto"``/``"int"`` run Python-int lane words;
            ``"native"`` runs good-machine pass and cone resims in
            the circuit's compiled-C module (numpy-slab words), with
            graceful fallback when the native module is unavailable.
    """

    def __init__(
        self, circuit: Circuit, fusion: str = "auto", backend: str = "auto"
    ):
        check_fusion(fusion, backend)
        if backend not in STUCK_AT_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} "
                f"(choose from {STUCK_AT_BACKENDS})"
            )
        self.circuit = circuit
        self.compiled = circuit.compiled()
        self.fusion = fusion
        self.backend = backend
        self._native_cones: Optional[object] = None
        if backend == "native":
            from ..kernel.native import (
                NativeConeSimulator,
                native_available,
                warn_native_fallback,
            )

            if native_available():
                self._native_cones = NativeConeSimulator(self.compiled)
            else:
                warn_native_fallback()
        # site -> interpreted cone plan, cached across calls (grading
        # loops call detected_faults once per batch; the plans depend
        # only on structure, never on the batch)
        self._cone_plans: Dict[int, List] = {}

    # ------------------------------------------------------------------
    def _cone_plan(self, site: int) -> List:
        """Evaluation steps for the site's transitive fanout cone."""
        plan = self._cone_plans.get(site)
        if plan is None:
            compiled = self.compiled
            plan = self._cone_plans[site] = [
                (
                    compiled.py_codes[s],
                    s,
                    compiled.py_fanin[s],
                    compiled.gate_types[s],
                )
                for s in compiled.cone_of(site)
                if s != site and not compiled.is_input[s]
            ]
        return plan

    def _faulty_values(
        self, good: List[int], fault: StuckAtFault, width: int, plan: List
    ) -> List[int]:
        """Re-simulate with the fault site forced (cone only)."""
        mask = mask_for(width)
        values = list(good)
        values[fault.signal] = mask if fault.value else 0
        dirty = [False] * self.compiled.n_signals
        dirty[fault.signal] = True
        for code, out, fanin, _gt in plan:
            changed = False
            for f in fanin:
                if dirty[f]:
                    changed = True
                    break
            if not changed:
                continue
            word = eval_gate_word(code, values, fanin, mask)
            if word != values[out]:
                values[out] = word
                dirty[out] = True
        return values

    # ------------------------------------------------------------------
    def detected_faults(
        self,
        vectors: Sequence[Sequence[int]],
        faults: Iterable[StuckAtFault],
    ) -> Dict[StuckAtFault, int]:
        """Map each fault to the lane mask of detecting vectors."""
        faults = list(faults)
        if not vectors:
            return {fault: 0 for fault in faults}
        width = len(vectors)
        if self._native_cones is not None:
            return self._detected_native(vectors, faults, width)
        words = pack_vectors(vectors)
        good = simulate_words(self.circuit, words, width, fusion=self.fusion)
        mask = mask_for(width)
        result: Dict[StuckAtFault, int] = {}
        if self.fusion == "auto":
            compiled = self.compiled
            for fault in faults:
                fn = cone_fault_fn(compiled, fault.signal)
                result[fault] = fn(good, mask if fault.value else 0, mask) & mask
            return result
        outputs = self.compiled.py_outputs
        for fault in faults:
            plan = self._cone_plan(fault.signal)
            faulty = self._faulty_values(good, fault, width, plan)
            lanes = 0
            for po in outputs:
                lanes |= good[po] ^ faulty[po]
            result[fault] = lanes & mask
        return result

    def _detected_native(
        self,
        vectors: Sequence[Sequence[int]],
        faults: List[StuckAtFault],
        width: int,
    ) -> Dict[StuckAtFault, int]:
        """The compiled-C path: native good pass + C cone resims."""
        from ..kernel.native import NativeWordBackend

        bits = vector_planes(vectors)
        good = NativeWordBackend(width).simulate_logic(self.compiled, bits)
        mask = mask_for(width)
        cones = self._native_cones
        return {
            fault: cones.diff_mask(good, fault.signal, bool(fault.value))
            & mask
            for fault in faults
        }

    def detects(self, vector: Sequence[int], fault: StuckAtFault) -> bool:
        return bool(self.detected_faults([vector], [fault])[fault])

    def coverage(
        self,
        vectors: Sequence[Sequence[int]],
        faults: Sequence[StuckAtFault],
        batch: int = 64,
    ) -> float:
        """Fraction of *faults* detected by *vectors*."""
        if not faults:
            return 1.0
        remaining = set(faults)
        for start in range(0, len(vectors), batch):
            chunk = vectors[start : start + batch]
            hits = self.detected_faults(chunk, remaining)
            remaining -= {fault for fault, lanes in hits.items() if lanes}
            if not remaining:
                break
        return 1.0 - len(remaining) / len(faults)
