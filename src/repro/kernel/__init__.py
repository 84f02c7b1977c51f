"""Compiled netlist kernel: one levelized execution substrate.

The layers (see ARCHITECTURE.md):

* :mod:`repro.kernel.compiled` — :class:`CompiledCircuit`, the frozen
  circuit lowered once into flat arrays (gate-type codes, CSR
  fanin/fanout, level buckets, cached topological order, I/O index
  vectors) plus the evaluation plan every simulator executes.
* :mod:`repro.kernel.packed` — :class:`PackedPatterns`, arbitrarily
  many two-vector tests as numpy ``uint64`` lane-plane arrays.
* :mod:`repro.kernel.backends` — the pluggable word backends:
  :class:`IntWordBackend` (Python-int words, the TPG state machine's
  representation), :class:`NumpyWordBackend` (multi-word uint64 bulk
  simulation) and :func:`backend_for`, which picks native by default.
* :mod:`repro.kernel.fusion` — the fused level-major group plan and
  its vectorized numpy executors (``numpy/vector``).
* :mod:`repro.kernel.codegen` — straight-line compiled plan bodies
  (``int/codegen``) and the per-gate forward/backward tables of the
  Python TPG implication engine (``python/codegen``).
* :mod:`repro.kernel.native` — :class:`NativeWordBackend`, the plan
  executed as compiled C over uint64 lane slabs, and the C TPG
  implication engine (one circuit-generic cffi module per machine,
  loaded from a disk cache; without it the Python paths run).
"""

from .backends import (
    BACKEND_MODES,
    FUSION_MODES,
    IntWordBackend,
    NumpyWordBackend,
    WordBackend,
    backend_for,
    check_fusion,
    eval_gate_word,
)
from .native import (
    NativeBackendUnavailableWarning,
    NativeConeSimulator,
    NativeWordBackend,
    native_available,
    native_module,
    native_plan,
    native_unavailable_reason,
)
from .codegen import (
    backward_table,
    cone_fault_fn,
    forward_table,
    logic_fn,
    planes7_fn,
    planes10_fn,
)
from .fusion import FusedGroup, FusedPlan, fused_plan
from .compiled import (
    CODE_AND,
    CODE_BUF,
    CODE_INPUT,
    CODE_NAND,
    CODE_NOR,
    CODE_NOT,
    CODE_OR,
    CODE_XNOR,
    CODE_XOR,
    GATE_CODES,
    CompiledCircuit,
    compile_circuit,
)
from .packed import (
    FULL_WORD,
    PackedPatterns,
    int_to_words,
    pack_bits,
    rows_to_ints,
    words_to_int,
)

__all__ = [
    "BACKEND_MODES",
    "CODE_AND",
    "CODE_BUF",
    "CODE_INPUT",
    "CODE_NAND",
    "CODE_NOR",
    "CODE_NOT",
    "CODE_OR",
    "CODE_XNOR",
    "CODE_XOR",
    "FULL_WORD",
    "FUSION_MODES",
    "FusedGroup",
    "FusedPlan",
    "GATE_CODES",
    "CompiledCircuit",
    "IntWordBackend",
    "NativeBackendUnavailableWarning",
    "NativeConeSimulator",
    "NativeWordBackend",
    "NumpyWordBackend",
    "PackedPatterns",
    "WordBackend",
    "backend_for",
    "check_fusion",
    "native_available",
    "native_module",
    "native_plan",
    "native_unavailable_reason",
    "backward_table",
    "compile_circuit",
    "cone_fault_fn",
    "eval_gate_word",
    "forward_table",
    "fused_plan",
    "int_to_words",
    "logic_fn",
    "pack_bits",
    "planes7_fn",
    "planes10_fn",
    "rows_to_ints",
    "words_to_int",
]
