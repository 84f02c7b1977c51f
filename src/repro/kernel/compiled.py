"""The compiled netlist: a frozen circuit lowered to flat arrays.

Every simulator in this code base walks the same structure — gates in
topological order, each combining a handful of fanin values.  The seed
implementation re-walked the :class:`repro.circuit.Circuit` object
graph for every simulation call (``Gate`` dataclass attribute lookups,
``GateType`` enum hashing against frozensets, per-call fanout tuples),
so the hot path was dominated by interpreter overhead rather than lane
arithmetic.

:class:`CompiledCircuit` performs that lowering exactly once:

* integer **gate-type codes** (:data:`CODE_AND` etc.) per signal,
* **CSR** fanin/fanout index arrays (``offsets``/``index`` pairs),
* the cached **level** array, the level-major **topological order**
  and its per-level bucket boundaries,
* dense **input/output index vectors**,
* an **evaluation plan**: one ``(code, out, fanin, gate_type)`` tuple
  per non-input signal in topological order — the single sequence both
  word backends execute (:mod:`repro.kernel.backends`).

Python-native mirrors (plain lists/tuples of ints) are kept alongside
the numpy arrays because CPython iterates lists several times faster
than it unboxes numpy scalars; the arrays serve vectorized consumers,
the mirrors serve interpreter loops.  Both views are immutable by
convention and derived from the same frozen circuit, so they can be
cached on the circuit forever (:meth:`repro.circuit.Circuit.compiled`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..circuit.gates import (
    GateType,
    controlling_value,
    inverts,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..circuit.circuit import Circuit

# ---------------------------------------------------------------------------
# gate-type codes
# ---------------------------------------------------------------------------

#: Dense integer codes for :class:`GateType`, stable across sessions.
CODE_INPUT = 0
CODE_BUF = 1
CODE_NOT = 2
CODE_AND = 3
CODE_NAND = 4
CODE_OR = 5
CODE_NOR = 6
CODE_XOR = 7
CODE_XNOR = 8

GATE_CODES = {
    GateType.INPUT: CODE_INPUT,
    GateType.BUF: CODE_BUF,
    GateType.NOT: CODE_NOT,
    GateType.AND: CODE_AND,
    GateType.NAND: CODE_NAND,
    GateType.OR: CODE_OR,
    GateType.NOR: CODE_NOR,
    GateType.XOR: CODE_XOR,
    GateType.XNOR: CODE_XNOR,
}

CODE_TO_GATE = {code: gate_type for gate_type, code in GATE_CODES.items()}

#: One evaluation step: (code, output signal, fanin ids, gate type).
PlanStep = Tuple[int, int, Tuple[int, ...], GateType]


@dataclass(eq=False)
class CompiledCircuit:
    """A frozen circuit lowered into flat arrays (see module docstring).

    Instances are produced by :func:`compile_circuit` (usually via the
    caching :meth:`repro.circuit.Circuit.compiled`) and treated as
    immutable.  ``eq=False``: identity comparison only — a generated
    ``__eq__`` would recurse through the circuit back-reference and
    choke on the ambiguous truth value of the numpy array fields.
    """

    circuit: "Circuit"
    n_signals: int
    n_inputs: int
    n_outputs: int
    depth: int

    # numpy views (vectorized consumers)
    codes: np.ndarray  # uint8 (n_signals,)
    level: np.ndarray  # int32 (n_signals,)
    order: np.ndarray  # int32 (n_signals,), level-major topological
    level_starts: np.ndarray  # int32 (depth + 2,): bucket boundaries
    fanin_offsets: np.ndarray  # int32 (n_signals + 1,)
    fanin_index: np.ndarray  # int32 (sum of fanins,)
    fanout_offsets: np.ndarray  # int32 (n_signals + 1,)
    fanout_index: np.ndarray  # int32 (sum of fanouts,)
    input_index: np.ndarray  # int32 (n_inputs,)
    output_index: np.ndarray  # int32 (n_outputs,)

    # python mirrors (interpreter loops)
    py_inputs: List[int] = field(default_factory=list)
    input_position: Dict[int, int] = field(default_factory=dict)  # input -> k
    py_outputs: List[int] = field(default_factory=list)
    py_order: List[int] = field(default_factory=list)
    order_position: List[int] = field(default_factory=list)  # signal -> rank in order
    py_fanin: Tuple[Tuple[int, ...], ...] = ()
    py_fanout: Tuple[Tuple[int, ...], ...] = ()
    py_codes: List[int] = field(default_factory=list)
    gate_types: List[GateType] = field(default_factory=list)
    is_input: List[bool] = field(default_factory=list)
    controlling: List[Optional[int]] = field(default_factory=list)
    inverting: List[bool] = field(default_factory=list)
    plan: Tuple[PlanStep, ...] = ()

    # memo slot for derived execution artifacts (the fused level-major
    # group plan and compiled straight-line sources); owned by
    # repro.kernel.fusion / repro.kernel.codegen, keyed by artifact
    # name.  Lives here so the artifacts share the circuit's lifetime.
    _fusion_cache: dict = field(default_factory=dict, repr=False)

    def __getstate__(self):
        # exec-compiled plan bodies don't pickle; the cache is a memo,
        # so a pickled circuit ships it empty and rebuilds it on use
        state = self.__dict__.copy()
        state["_fusion_cache"] = {}
        return state

    # ------------------------------------------------------------------
    def fanin_of(self, signal: int) -> Tuple[int, ...]:
        """Fanin signal ids of *signal* (empty for inputs)."""
        return self.py_fanin[signal]

    def fanout_of(self, signal: int) -> Tuple[int, ...]:
        """Ids of the signals whose gates read *signal*."""
        return self.py_fanout[signal]

    def level_bucket(self, lvl: int) -> np.ndarray:
        """Signal ids at level *lvl*, ascending."""
        return self.order[self.level_starts[lvl] : self.level_starts[lvl + 1]]

    def cone_of(self, signal: int) -> List[int]:
        """Signals structurally reachable from *signal*, topo-ordered.

        The transitive fanout cone including *signal* itself — the set
        a single fault injection can disturb.  A BFS over the fanout
        adjacency, so the cost is proportional to the cone's edge
        count, not the netlist size.
        """
        fanout = self.py_fanout
        seen = {signal}
        stack = [signal]
        while stack:
            s = stack.pop()
            for f in fanout[s]:
                if f not in seen:
                    seen.add(f)
                    stack.append(f)
        return sorted(seen, key=self.order_position.__getitem__)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledCircuit({self.circuit.name!r}, signals={self.n_signals}, "
            f"inputs={self.n_inputs}, outputs={self.n_outputs}, depth={self.depth})"
        )


def compile_circuit(circuit: "Circuit") -> CompiledCircuit:
    """Lower a frozen :class:`Circuit` into a :class:`CompiledCircuit`.

    The circuit must be frozen (levels/fanout/topological order are
    read from its cached derived arrays).  Prefer
    :meth:`Circuit.compiled`, which memoizes the result.
    """
    if not circuit.frozen:
        from ..circuit.circuit import CircuitError

        raise CircuitError("circuit must be frozen before compiling")

    n = circuit.num_signals
    gates = circuit.gates
    py_order = list(circuit.topological_order())
    levels = circuit.levels
    depth = circuit.depth

    py_fanin = tuple(g.fanin for g in gates)
    py_fanout = tuple(circuit.fanout(i) for i in range(n))
    gate_types = [g.gate_type for g in gates]
    py_codes = [GATE_CODES[t] for t in gate_types]
    is_input = [t is GateType.INPUT for t in gate_types]

    fanin_offsets = np.zeros(n + 1, dtype=np.int32)
    for i, f in enumerate(py_fanin):
        fanin_offsets[i + 1] = fanin_offsets[i] + len(f)
    fanin_index = np.fromiter(
        (s for f in py_fanin for s in f), dtype=np.int32, count=int(fanin_offsets[-1])
    )
    fanout_offsets = np.zeros(n + 1, dtype=np.int32)
    for i, f in enumerate(py_fanout):
        fanout_offsets[i + 1] = fanout_offsets[i] + len(f)
    fanout_index = np.fromiter(
        (s for f in py_fanout for s in f), dtype=np.int32, count=int(fanout_offsets[-1])
    )

    order = np.asarray(py_order, dtype=np.int32)
    level = np.asarray(levels, dtype=np.int32)
    level_starts = np.zeros(depth + 2, dtype=np.int32)
    for index in py_order:
        level_starts[levels[index] + 1] += 1
    level_starts = np.cumsum(level_starts).astype(np.int32)

    plan = tuple(
        (py_codes[i], i, py_fanin[i], gate_types[i])
        for i in py_order
        if not is_input[i]
    )
    order_position = [0] * n
    for rank, index in enumerate(py_order):
        order_position[index] = rank

    return CompiledCircuit(
        circuit=circuit,
        n_signals=n,
        n_inputs=len(circuit.inputs),
        n_outputs=len(circuit.outputs),
        depth=depth,
        codes=np.asarray(py_codes, dtype=np.uint8),
        level=level,
        order=order,
        level_starts=level_starts,
        fanin_offsets=fanin_offsets,
        fanin_index=fanin_index,
        fanout_offsets=fanout_offsets,
        fanout_index=fanout_index,
        input_index=np.asarray(circuit.inputs, dtype=np.int32),
        output_index=np.asarray(circuit.outputs, dtype=np.int32),
        py_inputs=list(circuit.inputs),
        input_position={signal: k for k, signal in enumerate(circuit.inputs)},
        py_outputs=list(circuit.outputs),
        py_order=py_order,
        order_position=order_position,
        py_fanin=py_fanin,
        py_fanout=py_fanout,
        py_codes=py_codes,
        gate_types=gate_types,
        is_input=is_input,
        controlling=[controlling_value(t) for t in gate_types],
        inverting=[inverts(t) for t in gate_types],
        plan=plan,
    )
