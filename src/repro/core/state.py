"""Bit-parallel TPG circuit state and the implication engine.

This is the machinery behind the paper's Section 3: every signal holds
an ``L``-lane plane tuple (two planes for the nonrobust 3-valued
logic, four for the robust 7-valued logic), assignments are monotonic
(bits are only ever added), and a worklist-driven engine propagates
forward evaluations and unique backward implications to a fixpoint
across *all lanes simultaneously*.

Key properties:

* **per-lane conflicts** — the illegal plane patterns accumulate in a
  conflict lane mask instead of raising, as the paper's Table 1
  "conflict (C)" row prescribes; dead lanes never abort live ones.
* **trail-based checkpoints** — APTPG's conventional backtracking
  beyond ``log2(L)`` decisions rolls the state back cheaply.
* **lane flattening** — :meth:`TpgState.flatten_lane` broadcasts one
  bit level to the whole word, the paper's trick for handing a fault
  from FPTPG to APTPG "by simply flattening the active bit of a logic
  value to multiple bit levels".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..circuit import Circuit, GateType
from ..logic import seven_valued, three_valued
from ..logic.words import mask_for

Planes = Tuple[int, ...]


@dataclass(frozen=True)
class Algebra:
    """A pluggable multi-valued logic: the engine is algebra-agnostic."""

    name: str
    n_planes: int
    x: Planes
    forward: Callable[[GateType, Sequence[Planes], int], Planes]
    backward: Callable[[GateType, Planes, Sequence[Planes], int], List[Planes]]
    conflict: Callable[[Planes], int]
    known: Callable[[Planes], int]
    unjustified: Callable[[GateType, Planes, Sequence[Planes], int], int]
    unjustified_planes: Callable[[GateType, Planes, Sequence[Planes], int], Planes]
    decode_lane: Callable[[Planes, int], str]


#: The nonrobust 3-valued algebra (paper Table 1).
THREE_VALUED = Algebra(
    name="three_valued",
    n_planes=three_valued.N_PLANES,
    x=three_valued.X,
    forward=three_valued.forward,
    backward=three_valued.backward,
    conflict=three_valued.conflict,
    known=three_valued.known,
    unjustified=three_valued.unjustified,
    unjustified_planes=three_valued.unjustified_planes,
    decode_lane=three_valued.decode_lane,
)

#: The robust 7-valued algebra (paper Table 2).
SEVEN_VALUED = Algebra(
    name="seven_valued",
    n_planes=seven_valued.N_PLANES,
    x=seven_valued.X,
    forward=seven_valued.forward,
    backward=seven_valued.backward,
    conflict=seven_valued.conflict,
    known=seven_valued.known,
    unjustified=seven_valued.unjustified,
    unjustified_planes=seven_valued.unjustified_planes,
    decode_lane=seven_valued.decode_lane,
)


class TpgState:
    """Plane-per-signal circuit state for one TPG attempt.

    Args:
        circuit: frozen target circuit.
        algebra: :data:`THREE_VALUED` or :data:`SEVEN_VALUED`.
        width: number of bit lanes ``L`` (the machine word length).
        use_backward: apply unique backward implications (True, the
            paper's "best suited implication procedure"); disabling
            them reproduces a weaker, purely forward engine — useful
            for the Figure 2 walkthrough and the implication-strength
            ablation benchmark.
        fusion: ``"interp"`` dispatches forward evaluations through
            ``Algebra.forward`` and backward implications through
            ``Algebra.backward`` (the oracle path); anything else
            installs the per-signal compiled forward *and* backward
            tables of :mod:`repro.kernel.codegen` — branch-free
            bodies specialized per (gate code, arity) with the
            backward prefix/suffix-product chains fully unrolled,
            bit-identical by construction and asserted so in the test
            suite.  The tables are memoized per circuit, so every
            state of one circuit shares them.
    """

    def __init__(
        self,
        circuit: Circuit,
        algebra: Algebra,
        width: int,
        use_backward: bool = True,
        fusion: str = "auto",
    ):
        from ..kernel import FUSION_MODES  # lazy: keep core imports light

        if fusion not in FUSION_MODES:
            raise ValueError(f"unknown fusion strategy {fusion!r}")
        self.circuit = circuit
        self.compiled = circuit.compiled()
        self.algebra = algebra
        self.width = width
        self.use_backward = use_backward
        self.fusion = fusion
        self.mask = mask_for(width)
        self.planes: List[Planes] = [algebra.x] * circuit.num_signals
        self.conflict_mask = 0
        # lane -> first conflicting signal, for exactly the lanes of
        # conflict_mask
        self.conflict_sites: dict = {}
        self._queue: deque = deque()
        self._queued = [False] * circuit.num_signals
        self._trail: List[Tuple[int, Planes]] = []
        self._marks: List[Tuple[int, int]] = []
        self.implication_passes = 0
        self.assignments = 0
        self._forward_fns: Optional[Sequence] = None
        self._backward_fns: Optional[Sequence] = None
        if fusion != "interp":
            from ..kernel.codegen import (  # lazy: keep core light
                backward_table,
                forward_table,
            )

            self._forward_fns = forward_table(self.compiled, algebra.name)
            self._backward_fns = backward_table(self.compiled, algebra.name)
        # justification cache: raw unjustified lane mask per signal
        # (conflict filtering applied at query time) plus the dirty
        # set of signals whose planes changed since the last refresh —
        # scans only re-derive those instead of every gate's fanin
        # list on every call.
        self._unjust: List[int] = [0] * circuit.num_signals
        self._dirty: set = set()

    # ------------------------------------------------------------------
    # assignment and checkpoints
    # ------------------------------------------------------------------
    def assign(self, signal: int, additions: Planes) -> bool:
        """OR *additions* into a signal's planes; enqueue on change.

        Returns True if any bit was new.  Conflict bits surface in
        :attr:`conflict_mask` immediately.  Unrolled per plane count:
        most calls change nothing and return after a few int ops.
        """
        old = self.planes[signal]
        mask = self.mask
        if len(old) == 2:
            o0, o1 = old
            a0, a1 = additions
            n0 = (o0 | a0) & mask
            n1 = (o1 | a1) & mask
            if n0 == o0 and n1 == o1:
                return False
            new: Planes = (n0, n1)
        else:
            o0, o1, o2, o3 = old
            a0, a1, a2, a3 = additions
            n0 = (o0 | a0) & mask
            n1 = (o1 | a1) & mask
            n2 = (o2 | a2) & mask
            n3 = (o3 | a3) & mask
            if n0 == o0 and n1 == o1 and n2 == o2 and n3 == o3:
                return False
            new = (n0, n1, n2, n3)
        self._trail.append((signal, old))
        self.planes[signal] = new
        fresh = self.algebra.conflict(new) & ~self.conflict_mask
        if fresh:
            self.conflict_mask |= fresh
            sites = self.conflict_sites
            while fresh:
                low = fresh & -fresh
                sites[low.bit_length() - 1] = signal
                fresh ^= low
        self.assignments += 1
        self._enqueue_around(signal)
        return True

    def mark(self) -> int:
        """Open a checkpoint; returns a token for :meth:`rollback`."""
        self._marks.append((len(self._trail), self.conflict_mask))
        return len(self._marks) - 1

    def rollback(self, token: int) -> None:
        """Undo every assignment made since checkpoint *token*."""
        trail_len, conflict_mask = self._marks[token]
        del self._marks[token:]
        touch = self._touch
        while len(self._trail) > trail_len:
            signal, old = self._trail.pop()
            self.planes[signal] = old
            touch(signal)
        if conflict_mask != self.conflict_mask:
            self.conflict_mask = conflict_mask
            self.conflict_sites = {
                lane: site
                for lane, site in self.conflict_sites.items()
                if conflict_mask >> lane & 1
            }
        self._drain_queue()

    def _drain_queue(self) -> None:
        """Empty the worklist, clearing only the queued flags it set.

        The flag buffer is reused — rebuilding it as a fresh
        ``[False] * n_signals`` list on every rollback / early-out
        made those O(n_signals) allocations on the hottest APTPG
        paths.
        """
        queued = self._queued
        queue = self._queue
        while queue:
            queued[queue.popleft()] = False

    def _touch(self, signal: int) -> None:
        """Mark *signal*'s plane change for the justification cache.

        A plane change invalidates the cached unjustified mask of the
        signal's own gate and of every gate reading it.
        """
        dirty = self._dirty
        dirty.add(signal)
        dirty.update(self.compiled.py_fanout[signal])

    # ------------------------------------------------------------------
    # implication fixpoint
    # ------------------------------------------------------------------
    def imply(self, stop_when_all_conflicted: bool = True) -> int:
        """Propagate implications to a fixpoint; returns conflict mask.

        Processes one worklist of gates; for each gate the forward
        evaluation is merged into the output and the unique backward
        implications into the inputs — all lanes at once.  Stops early
        if every lane is already conflicted.  Gate structure is read
        from the compiled kernel arrays, not the object graph.
        """
        compiled = self.compiled
        gate_types = compiled.gate_types
        fanins = compiled.py_fanin
        is_input = compiled.is_input
        planes = self.planes
        mask = self.mask
        forward = self.algebra.forward
        backward = self.algebra.backward
        forward_fns = self._forward_fns
        backward_fns = self._backward_fns
        while self._queue:
            if stop_when_all_conflicted and self.conflict_mask == mask:
                self._drain_queue()
                break
            signal = self._queue.popleft()
            self._queued[signal] = False
            if is_input[signal]:
                continue
            self.implication_passes += 1
            gate_type = gate_types[signal]
            fanin = fanins[signal]
            ins = [planes[f] for f in fanin]
            if forward_fns is None:
                fwd = forward(gate_type, ins, mask)
            else:
                fwd = forward_fns[signal](ins, mask)
            self.assign(signal, fwd)
            if self.use_backward:
                out = planes[signal]
                if backward_fns is None:
                    adds = backward(gate_type, out, ins, mask)
                else:
                    adds = backward_fns[signal](out, ins, mask)
                for fanin_signal, add in zip(fanin, adds):
                    self.assign(fanin_signal, add)
        return self.conflict_mask

    def _enqueue_around(self, signal: int) -> None:
        """Schedule the driver of *signal* and its fanout gates.

        Also marks the same signals dirty for the justification cache
        — one walk of the fanout list serves both bookkeeping jobs.
        """
        queued = self._queued
        dirty = self._dirty
        dirty.add(signal)
        if not queued[signal] and not self.compiled.is_input[signal]:
            queued[signal] = True
            self._queue.append(signal)
        for f in self.compiled.py_fanout[signal]:
            dirty.add(f)
            if not queued[f]:
                queued[f] = True
                self._queue.append(f)

    # ------------------------------------------------------------------
    # justification
    # ------------------------------------------------------------------
    def unjustified_lanes(self, signal: int) -> int:
        """Lane mask where *signal*'s assigned value is not justified."""
        compiled = self.compiled
        if compiled.is_input[signal]:
            return 0
        ins = [self.planes[f] for f in compiled.py_fanin[signal]]
        return (
            self.algebra.unjustified(
                compiled.gate_types[signal], self.planes[signal], ins, self.mask
            )
            & ~self.conflict_mask
        )

    def _refresh_unjustified(self) -> None:
        """Re-derive cached unjustified masks for dirty signals only.

        Every scan used to rebuild each gate's fanin plane list and
        call the algebra's forward rule for *all* signals on *every*
        call; the dirty set (maintained by :meth:`_enqueue_around`,
        :meth:`rollback` and :meth:`flatten_lane`) reduces that to the
        signals whose planes actually changed since the last scan.
        """
        dirty = self._dirty
        if not dirty:
            return
        compiled = self.compiled
        is_input = compiled.is_input
        fanins = compiled.py_fanin
        gate_types = compiled.gate_types
        planes = self.planes
        mask = self.mask
        unjustified = self.algebra.unjustified
        cache = self._unjust
        for signal in dirty:
            if is_input[signal]:
                continue
            ins = [planes[f] for f in fanins[signal]]
            cache[signal] = unjustified(
                gate_types[signal], planes[signal], ins, mask
            )
        dirty.clear()

    def scan_unjustified(self, lanes: Optional[int] = None) -> List[Tuple[int, int]]:
        """All (signal, lane-mask) pairs with unjustified values.

        Restricted to the lanes in *lanes* (default: all live lanes).
        """
        live = (self.mask if lanes is None else lanes) & ~self.conflict_mask
        result: List[Tuple[int, int]] = []
        if not live:
            return result
        self._refresh_unjustified()
        for index, raw in enumerate(self._unjust):
            m = raw & live
            if m:
                result.append((index, m))
        return result

    def all_justified_mask(self) -> int:
        """Lanes that are conflict-free and completely justified."""
        live = self.mask & ~self.conflict_mask
        if not live:
            return 0
        self._refresh_unjustified()
        for raw in self._unjust:
            if raw:
                live &= ~raw
                if not live:
                    break
        return live

    # ------------------------------------------------------------------
    # lane utilities
    # ------------------------------------------------------------------
    def flatten_lane(self, lane: int) -> None:
        """Broadcast one bit level to every lane (FPTPG -> APTPG handoff)."""
        bit = 1 << lane
        mask = self.mask
        self.planes = [
            tuple(mask if (p & bit) else 0 for p in planes)  # type: ignore[misc]
            for planes in self.planes
        ]
        if self.conflict_mask & bit:
            site = self.conflict_sites[lane]
            self.conflict_mask = mask
            self.conflict_sites = dict.fromkeys(range(self.width), site)
        else:
            self.conflict_mask = 0
            self.conflict_sites = {}
        self._trail.clear()
        self._marks.clear()
        # every plane changed: the whole justification cache is stale
        self._dirty.update(range(self.circuit.num_signals))

    def lane_values(self, lane: int) -> dict:
        """Decode one lane into {signal name: value letter} for display."""
        return {
            gate.name: self.algebra.decode_lane(self.planes[gate.index], lane)
            for gate in self.circuit.gates
        }

    def format_lane_word(self, signal: int | str) -> str:
        """Render a signal's lanes like the paper's figures (lane L-1 .. 0)."""
        index = self.circuit.gate(signal).index if isinstance(signal, str) else signal
        letters = [
            self.algebra.decode_lane(self.planes[index], lane)
            for lane in range(self.width - 1, -1, -1)
        ]
        return "".join("x" if c == "X" else c for c in letters)
