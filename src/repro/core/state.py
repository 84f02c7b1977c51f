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

One class, three engines, chosen per state by :func:`tpg_tier` the way
:func:`repro.kernel.backend_for` chooses a simulation backend:

* ``native/c`` — ``fusion="auto"``, at most 64 lanes and the native
  module loads: planes, worklist, trail and justification cache live
  in one C struct of :mod:`repro.kernel.native`, and each method is
  one call into it;
* ``python/codegen`` — the Python worklist below with the per-gate
  compiled forward/backward tables of :mod:`repro.kernel.codegen`
  (explicit ``"codegen"``/``"vector"``, wider states, or no native
  module — silently, as ``auto`` does for simulation);
* ``python/interp`` — the same worklist dispatching through the
  :class:`Algebra` rules: the oracle the other two are tested against.

:meth:`TpgState.sensitize` applies a fault's sensitization.  On the C
engine a 3-valued (nonrobust) state takes the whole path in one call,
assigning in exactly the order the Python sensitizer of
:mod:`repro.core.sensitize` emits — the same trail, worklist, conflict
sites and later implication passes; every other state feeds that
sensitizer's list to :meth:`TpgState.assign`.  Robust sensitization is
Python on every engine.

:meth:`TpgState.decide` is the FPTPG/APTPG decision step: the first
unjustified signal, its objective and the backtrace to a primary input.
On the C engine it is one call; elsewhere it runs the Python functions
of :mod:`repro.core.backtrace`, which stay its oracle.

The C engine also runs whole generation shards, each one call:
:meth:`TpgState.search` is APTPG's checkpointed search on a sensitized
state (either algebra), :meth:`TpgState.aptpg` a fault's whole
nonrobust APTPG (XOR sides, polarity screen, every survivor's search)
and :meth:`TpgState.fptpg` an FPTPG batch.  Their oracles are the
Python loops of :mod:`repro.core.aptpg` and :mod:`repro.core.fptpg`,
which drive every other engine through the methods above.

The C half of a ``native/c`` state is a :class:`TpgEngine`, which a
campaign executor also owns on its own and reuses for every round
(:meth:`TpgEngine.round`, a round's shards in one call): its APTPG
and round calls start each shard from an engine reset to the width it
was built with, whatever the engine held before.  So
:meth:`TpgState.aptpg` searches at the built width even after a
polarity screen that refuted every combination left the state
(``width``, ``mask``) one chunk wide, and a run on a reused state
equals a run on a fresh one.
:meth:`TpgEngine.input_rows` reads tested lanes as pattern rows in one
vectorized pass (:func:`repro.core.patterns.extract_pattern` is its
oracle).
"""

from __future__ import annotations

import struct
from collections import deque
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit, GateType
from ..kernel import FUSION_MODES
from ..kernel import native as _native
from ..logic import seven_valued, three_valued
from ..logic.words import mask_for
from ..paths import PathDelayFault, Transition
from ..paths.table import path_input_error
from .backtrace import PiObjective, decide as _decide_python
from .controllability import Controllability
from .sensitize import sensitize_nonrobust, sensitize_robust

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

#: Algebras whose rules exist compiled (codegen tables and the C engine).
_COMPILED_ALGEBRAS = (THREE_VALUED.name, SEVEN_VALUED.name)

#: The widest state the C engine holds: one u64 word per plane.
NATIVE_MAX_WIDTH = 64


def tpg_tier(
    width: int, fusion: str = "auto", algebra: Optional[Algebra] = None
) -> str:
    """The implication engine a :class:`TpgState` of *width* lanes runs.

    ``"native/c"`` when *fusion* is ``"auto"``, *width* is at most
    :data:`NATIVE_MAX_WIDTH` and the native module loads (from the disk
    cache, or built once); ``"python/interp"`` for ``fusion="interp"``
    or an *algebra* without compiled rules; ``"python/codegen"``
    otherwise.  Raises :class:`ValueError` for an unknown *fusion*.
    """
    if fusion not in FUSION_MODES:
        raise ValueError(f"unknown fusion strategy {fusion!r}")
    if fusion == "interp" or (
        algebra is not None and algebra.name not in _COMPILED_ALGEBRAS
    ):
        return "python/interp"
    # asked every time: the module can be swapped out for the fallback
    if fusion == "auto" and width <= NATIVE_MAX_WIDTH and _native.native_available():
        return "native/c"
    return "python/codegen"


_ROWS = {n: struct.Struct(f"{n}Q") for n in (2, 4)}

#: Status codes of :meth:`TpgState.search` and :meth:`TpgState.aptpg`
#: (the C engine's ``TPG_TESTED``, ``TPG_REDUNDANT``, ``TPG_ABORTED``),
#: and of an FPTPG lane left to APTPG in :meth:`TpgEngine.round`
#: (``TPG_DEFERRED``).
TESTED, REDUNDANT, ABORTED, DEFERRED = 1, 2, 3, 4

#: The most XOR side inputs whose polarity combinations APTPG screens:
#: 2**16 combinations, in 1024 chunks of 64 lanes.
MAX_XOR_POLARITY_BITS = 16


def check_xor_polarity_bits(bits: int) -> None:
    """Raise :class:`ValueError` unless *bits* is in ``[0, 16]``."""
    if bits not in range(MAX_XOR_POLARITY_BITS + 1):
        raise ValueError(
            f"max_xor_polarity_bits={bits!r} outside [0, {MAX_XOR_POLARITY_BITS}]"
        )


class SearchRun(NamedTuple):
    """What an APTPG search or a whole-fault native run reports.

    *status* is :data:`TESTED`, :data:`REDUNDANT` or :data:`ABORTED`;
    *lane* is the tested lane (meaningless otherwise).  A whole-fault
    run sums *decisions*, *backtracks*, *implication_passes* and
    *seconds_sensitize* over its screen chunks and searches, reports
    the last search's *splits_used*, and lists the polarity
    combinations the screen passed, in order, as *survivors* (``(0,)``
    when nothing was screened).  A single search reports its own
    state's passes, no sensitization time and no survivors.
    """

    status: int
    lane: int
    decisions: int
    backtracks: int
    splits_used: int
    implication_passes: int
    seconds_sensitize: float
    survivors: Tuple[int, ...]



class RoundRun(NamedTuple):
    """What :meth:`TpgEngine.round` reports for a generation round.

    *codes* holds each fault's status code, by position in the round
    (:data:`TESTED`, :data:`REDUNDANT`, :data:`ABORTED`,
    :data:`DEFERRED`; 0 in a skipped shard); *tested* the positions of
    the tested faults, ascending, and *rows* their rows back to back,
    ``2 * n_inputs`` bytes each: V1 then V2, one 0/1 byte per primary
    input.  The counters sum the shards that ran.
    """

    codes: bytes
    tested: List[int]
    rows: bytes
    decisions: int
    backtracks: int
    implication_passes: int
    seconds_sensitize: float


class ShardFailure(Exception):
    """Shard *shard* of a :meth:`TpgEngine.round` raised *error*.

    The shards before it ran to completion; the call can resume at it.
    """

    def __init__(self, shard: int, error: Exception):
        super().__init__(shard, error)
        self.shard = shard
        self.error = error


def _check_signals(signals: Sequence[int], n: int) -> None:
    """Raise :class:`IndexError` for an id outside ``[0, n)``."""
    if min(signals) < 0 or max(signals) >= n:
        bad = next(s for s in signals if not 0 <= s < n)
        raise IndexError(f"signal {bad} outside [0, {n})")


_ONE = np.uint64(1)


class TpgEngine:
    """One C TPG engine of a fixed width and the shard calls made on it.

    A ``repro_tpg`` (:func:`repro.kernel.native.native_tpg_engine`) of
    *n_planes* planes (2: 3-valued, 4: 7-valued) built at *width* lanes
    (1..64).  It is the ``native/c`` half of a :class:`TpgState`, and the
    campaign's executor owns one directly
    (:class:`repro.campaign.scheduler.SerialExecutor`) and reuses it for
    every nonrobust round it runs.

    :meth:`aptpg` starts from an engine reset to :attr:`width` whatever
    it held before (C resets it for every screen chunk and search), and
    :meth:`fptpg` runs on the engine as it stands.  :meth:`round` runs a
    campaign round's shards, faults read from a fault table by row, in
    one call that resets the engine for every shard: so on a reused
    engine a round gives what it gives on a fresh one.
    :meth:`input_rows` reads tested lanes as pattern rows.  One thread
    at a time.
    """

    __slots__ = (
        "compiled", "n_planes", "width", "c", "lib", "ffi", "_words", "_launch",
        "_columns",
    )

    def __init__(
        self, compiled, n_planes: int, width: int, use_backward: bool = True
    ):
        module = _native.native_module()
        self.lib = module.lib
        self.ffi = module.ffi
        self.compiled = compiled
        self.n_planes = n_planes
        self.width = width
        self.c = _native.native_tpg_engine(compiled, n_planes, width, use_backward)
        self._words: Optional[np.ndarray] = None
        #: row k flips input k: a 3-valued lane's V1 is V2 XOR the row of
        #: its path input
        self._launch: Optional[np.ndarray] = None
        #: the fault-table column views of the last round
        self._columns = _native.ColumnViews()

    def ranks(self, cc: Controllability):
        """*cc* as the C calls read it, checked against the circuit."""
        n = self.compiled.n_signals
        if len(cc.cc0) != n or len(cc.cc1) != n:
            raise ValueError(
                f"controllability covers {len(cc.cc0)}/{len(cc.cc1)} "
                f"signals, the circuit has {n}"
            )
        return self.ffi.from_buffer("int32_t[]", cc.ranks)

    def aptpg(
        self,
        fault: PathDelayFault,
        ranks,
        backtrack_limit: int,
        max_xor_polarity_bits: int,
    ) -> SearchRun:
        """A fault's whole nonrobust APTPG at :attr:`width` lanes.

        See :meth:`TpgState.aptpg`; *ranks* is :meth:`ranks`.  The
        engine is left as the last screen chunk or search left it,
        ``c.r_width`` lanes wide.
        """
        if self.n_planes != 2:
            raise ValueError("the native APTPG run sensitizes nonrobust faults only")
        check_xor_polarity_bits(max_xor_polarity_bits)
        signals = fault.signals
        _check_signals(signals, self.compiled.n_signals)
        c = self.c
        code = self.lib.repro_tpg_aptpg(
            c,
            signals,
            len(signals),
            fault.transition is Transition.RISING,
            self.width,
            max_xor_polarity_bits,
            backtrack_limit,
            ranks,
        )
        if code < 0:
            raise MemoryError("cannot grow the native TPG scratch")
        survivors = tuple(self.ffi.unpack(c.surv, c.n_surv)) if c.n_surv else ()
        return SearchRun(
            code, c.r_lane, c.r_decisions, c.r_backtracks, c.r_splits,
            c.r_passes, c.r_seconds, survivors,
        )

    def fptpg(
        self, faults: Sequence[PathDelayFault], ranks, sensitize: bool
    ) -> Tuple[int, int, int, int, float]:
        """An FPTPG batch's loop on the engine as it stands.

        See :meth:`TpgState.fptpg`; *ranks* is :meth:`ranks`.
        """
        if not faults:
            raise ValueError("an FPTPG batch needs at least one fault")
        if len(faults) > self.width:
            raise ValueError(f"{len(faults)} faults do not fit in {self.width} lanes")
        if sensitize and self.n_planes != 2:
            raise ValueError("the native FPTPG batch sensitizes nonrobust faults only")
        flat = [s for fault in faults for s in fault.signals]
        _check_signals(flat, self.compiled.n_signals)
        offsets = [0]
        for fault in faults:
            offsets.append(offsets[-1] + len(fault.signals))
        c = self.c
        code = self.lib.repro_tpg_fptpg(
            c,
            flat,
            offsets,
            [fault.transition is Transition.RISING for fault in faults],
            len(faults),
            sensitize,
            ranks,
        )
        if code < 0:
            raise MemoryError("cannot grow the native TPG scratch")
        return c.r_decided, c.r_decisions, c.r_justified, c.r_xor_lanes, c.r_seconds

    def round(
        self,
        aptpg: bool,
        table,
        rows: Sequence[int],
        bounds: Sequence[int],
        skip: bytes,
        ranks,
        backtrack_limit: int,
        max_xor_polarity_bits: int,
        first: int = 0,
    ) -> RoundRun:
        """Shards *first* onward of a nonrobust generation round, one C call.

        Shard *k* holds the faults at positions ``bounds[k]`` to
        ``bounds[k + 1] - 1`` of the round, fault *f* being row
        ``rows[f]`` of *table* (a :class:`repro.paths.FaultTable`); a
        shard with ``skip[k]`` set is passed over.  An FPTPG round runs
        each shard as one batch (:meth:`fptpg`, sensitized in C) on the
        engine reset to :attr:`width`, an APTPG round (*aptpg*) its one
        fault's :meth:`aptpg`.  Each tested lane is read as
        :meth:`input_rows` reads it.  A call with *first* > 0 continues
        the outputs of the calls before it (a retried shard).

        The rows are checked against the table here, and the shard
        bounds (each shard 1 to :attr:`width` faults, one in an APTPG
        round) and the limits before any shard runs, since the C call
        indexes with them unchecked: :class:`IndexError` and
        :class:`ValueError`.  A shard that fails raises
        :class:`ShardFailure` with the error: :class:`MemoryError` when
        the C scratch cannot grow, the :class:`ValueError` of
        :func:`repro.paths.table.path_input_error` for a tested path
        that does not start at a primary input.
        """
        if rows and (min(rows) < 0 or max(rows) >= len(table)):
            raise IndexError(f"fault rows outside [0, {len(table)})")
        if not bounds or bounds[0] != 0 or bounds[-1] != len(rows) or (
            len(skip) != len(bounds) - 1
        ):
            raise ValueError(
                f"shard bounds {list(bounds)!r} do not cover {len(rows)} faults"
            )
        ffi, c = self.ffi, self.c
        code = self.lib.repro_tpg_round(
            c,
            aptpg,
            self.width,
            max_xor_polarity_bits,
            backtrack_limit,
            ranks,
            *self._columns(table),
            rows,
            bounds,
            first,
            len(skip),
            skip,
        )
        if code < 0:
            if code == -2:
                raise ValueError("the native round sensitizes nonrobust faults only")
            if code == -3:
                check_xor_polarity_bits(max_xor_polarity_bits)
            if code == -5:
                raise ValueError(
                    f"shard bounds {list(bounds)!r} from shard {first} are not "
                    f"shards of 1 to {1 if aptpg else self.width} faults"
                )
            shard = c.g_shard
            error: Exception = MemoryError("cannot grow the native TPG scratch")
            if code == -4:
                lane = 0 if aptpg else c.r_lane
                signal = table.faults[rows[bounds[shard] + lane]].input_signal
                name = self.compiled.circuit.signal_name(signal)
                error = path_input_error(signal, name)
            raise ShardFailure(shard, error)
        return RoundRun(
            ffi.buffer(c.g_status, len(rows))[:],
            ffi.unpack(c.g_pos, code) if code else [],
            ffi.buffer(c.g_rows, code * 2 * self.compiled.n_inputs)[:],
            c.g_decisions,
            c.g_backtracks,
            c.g_passes,
            c.g_seconds,
        )

    def input_rows(
        self, lanes: Sequence[int], faults: Sequence[PathDelayFault]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The (V1, V2) rows of *lanes*, lane ``lanes[k]`` testing ``faults[k]``.

        Two ``(len(lanes), n_inputs)`` uint8 arrays read from the primary
        inputs' plane words in one vectorized pass — the rows
        :func:`repro.core.patterns.extract_pattern` (the oracle) builds
        one input at a time: V2 is the final-value plane; V1 is V2 XOR
        the instable plane on a 7-valued engine, and V2 with the path
        input's column flipped on a 3-valued one, where a path that does
        not start at a primary input raises the :class:`ValueError` of
        :func:`repro.paths.table.path_input_error`.
        """
        words = self._words
        if words is None:
            n, planes = self.compiled.n_signals, self.n_planes
            words = self._words = np.frombuffer(
                self.ffi.buffer(self.c.planes, n * planes * 8), dtype=np.uint64
            ).reshape(n, planes)
            self._launch = np.eye(self.compiled.n_inputs, dtype=np.uint8)
        at_pis = words[self.compiled.input_index]
        shifts = np.asarray(lanes, dtype=np.uint64)[:, None]
        v2 = (at_pis[:, 1] >> shifts & _ONE).astype(np.uint8)
        if self.n_planes >= 4:
            return v2 ^ (at_pis[:, 3] >> shifts & _ONE).astype(np.uint8), v2
        position = self.compiled.input_position
        columns = []
        for fault in faults:
            signal = fault.input_signal
            column = position.get(signal)
            if column is None:
                inside = 0 <= signal < self.compiled.n_signals
                name = (
                    self.compiled.circuit.signal_name(signal)
                    if inside
                    else "outside the circuit"
                )
                raise path_input_error(signal, name)
            columns.append(column)
        return v2 ^ self._launch[columns], v2  # launch at the path input


class _NativePlanes(SequenceABC):
    """Read-only view of a C engine's planes: one int tuple per signal.

    Reads the engine's ``n_signals x n_planes`` u64 buffer directly and
    holds the engine, so the buffer lives as long as the view.  Equal
    to a list of the same tuples.
    """

    __slots__ = ("_engine", "_buf", "_row", "_unpack", "_struct", "_n")

    def __init__(self, engine, ffi, n_signals: int, n_planes: int):
        self._engine = engine
        self._struct = _ROWS[n_planes]
        self._unpack = self._struct.unpack_from
        self._row = self._struct.size
        self._buf = ffi.buffer(engine.planes, n_signals * self._row)
        self._n = n_signals

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, signal):
        try:
            if 0 <= signal < self._n:
                return self._unpack(self._buf, signal * self._row)
        except TypeError:  # a slice: list semantics below
            pass
        return list(self)[signal]

    def __iter__(self):
        return self._struct.iter_unpack(self._buf)

    def __eq__(self, other):
        if isinstance(other, (list, _NativePlanes)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


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
        fusion: selects the engine (see :func:`tpg_tier` and the
            module docstring).  ``"auto"`` runs the C engine up to 64
            lanes where the native module loads; ``"codegen"`` and
            ``"vector"`` run the Python worklist over the per-signal
            compiled forward *and* backward tables of
            :mod:`repro.kernel.codegen` (memoized per circuit, so every
            state of one circuit shares them); ``"interp"`` dispatches
            through ``Algebra.forward``/``Algebra.backward``, the
            oracle.  All three are bit-identical, asserted so in the
            test suite.

    ``tier`` names the engine that runs.  ``planes[s]`` is signal
    *s*'s plane tuple; on the C engine ``planes`` is a read-only view.
    Signal ids outside ``[0, n_signals)`` raise :class:`IndexError`,
    lanes outside ``[0, width)`` :class:`ValueError`.  A state belongs
    to one thread at a time.
    """

    def __init__(
        self,
        circuit: Circuit,
        algebra: Algebra,
        width: int,
        use_backward: bool = True,
        fusion: str = "auto",
    ):
        self.tier = tpg_tier(width, fusion, algebra)
        self.circuit = circuit
        self.compiled = circuit.compiled()
        self.algebra = algebra
        self.width = width
        self.use_backward = use_backward
        self.fusion = fusion
        self.mask = mask_for(width)
        self._n_signals = n = circuit.num_signals
        self._marks: List[Tuple[int, int]] = []
        self._c = None
        #: the C engine on ``native/c`` (:class:`TpgEngine`), else None
        self.engine: Optional[TpgEngine] = None
        if self.tier == "native/c":
            engine = self.engine = TpgEngine(
                self.compiled, algebra.n_planes, width, use_backward
            )
            self._lib = engine.lib
            self._ffi = engine.ffi
            self._c = engine.c
            self._assign_c = (
                engine.lib.repro_tpg_assign2
                if algebra.n_planes == 2
                else engine.lib.repro_tpg_assign4
            )
            self.planes = _NativePlanes(
                self._c, engine.ffi, n, algebra.n_planes
            )
            return
        self.planes = [algebra.x] * n
        self._conflict_mask = 0
        # lane -> first conflicting signal, for exactly the lanes of
        # the conflict mask
        self._sites: dict = {}
        self._queue: deque = deque()
        self._queued = [False] * n
        self._trail: List[Tuple[int, Planes]] = []
        self._implication_passes = 0
        self._assignments = 0
        self._forward_fns: Optional[Sequence] = None
        self._backward_fns: Optional[Sequence] = None
        if self.tier == "python/codegen":
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
        self._unjust: List[int] = [0] * n
        self._dirty: set = set()

    # ------------------------------------------------------------------
    # counters and conflicts
    # ------------------------------------------------------------------
    @property
    def conflict_mask(self) -> int:
        """Lanes holding a conflict (an illegal plane pattern)."""
        c = self._c
        return self._conflict_mask if c is None else c.conflict_mask

    @property
    def conflict_sites(self) -> dict:
        """Lane -> first conflicting signal, for the conflicted lanes."""
        c = self._c
        if c is None:
            return self._sites
        mask, sites = c.conflict_mask, c.sites
        return {lane: sites[lane] for lane in range(self.width) if mask >> lane & 1}

    @property
    def implication_passes(self) -> int:
        """Gate evaluations :meth:`imply` has run on this state."""
        c = self._c
        return self._implication_passes if c is None else c.implication_passes

    @property
    def assignments(self) -> int:
        """Assignments that changed some plane bit."""
        c = self._c
        return self._assignments if c is None else c.assignments

    # ------------------------------------------------------------------
    # assignment and checkpoints
    # ------------------------------------------------------------------
    def assign(self, signal: int, additions: Planes) -> bool:
        """OR *additions* into a signal's planes; enqueue on change.

        Returns True if any bit was new.  Conflict bits surface in
        :attr:`conflict_mask` immediately.  Bits beyond the width are
        dropped.
        """
        if not 0 <= signal < self._n_signals:
            raise IndexError(f"signal {signal} outside [0, {self._n_signals})")
        c = self._c
        if c is None:
            return self._assign(signal, additions)
        try:
            changed = self._assign_c(c, signal, *additions)
        except OverflowError:  # negative or wider than a word: keep the lanes
            mask = self.mask
            changed = self._assign_c(c, signal, *(a & mask for a in additions))
        if changed < 0:
            raise MemoryError("cannot grow the native TPG trail")
        return changed == 1

    def _assign(self, signal: int, additions: Planes) -> bool:
        """The Python engine's :meth:`assign`, unchecked.

        Unrolled per plane count: most calls change nothing and return
        after a few int ops.
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
        fresh = self.algebra.conflict(new) & ~self._conflict_mask
        if fresh:
            self._conflict_mask |= fresh
            sites = self._sites
            while fresh:
                low = fresh & -fresh
                sites[low.bit_length() - 1] = signal
                fresh ^= low
        self._assignments += 1
        self._enqueue_around(signal)
        return True

    def sensitize(
        self,
        fault: PathDelayFault,
        lanes: int,
        xor_sides: Optional[Dict[int, int]] = None,
    ) -> None:
        """Assign *fault*'s sensitization in lane mask *lanes*.

        The assignments of :func:`repro.core.sensitize.sensitize_nonrobust`
        (3-valued state) or :func:`~repro.core.sensitize.sensitize_robust`
        (7-valued), in the order they emit them; *xor_sides* maps an
        XOR side input to the lanes where it is 1.  On the C engine a
        3-valued state takes the whole path in one call, which assigns
        in that same order, so planes, trail, worklist, conflict sites
        and every later :meth:`imply` match the engines that feed the
        Python list to :meth:`assign`.  A path id outside
        ``[0, n_signals)`` raises the :class:`IndexError` of
        :meth:`assign` before anything is assigned.
        """
        signals = fault.signals
        n = self._n_signals
        _check_signals(signals, n)
        c = self._c
        if c is not None and self.algebra.n_planes == 2:
            mask = self.mask
            null = self._ffi.NULL
            # no key outside the circuit can name a fanin
            sides = [
                (side, ones & mask)
                for side, ones in (xor_sides or {}).items()
                if 0 <= side < n
            ]
            # cffi passes the id tuple and the side lists as C arrays
            if self._lib.repro_tpg_sensitize(
                c,
                signals,
                len(signals),
                fault.transition is Transition.RISING,
                lanes & mask,
                [side for side, _ in sides] or null,
                [ones for _, ones in sides] or null,
                len(sides),
            ):
                raise MemoryError("cannot grow the native TPG trail")
            return
        rule = sensitize_nonrobust if self.algebra.n_planes == 2 else sensitize_robust
        assign = self.assign if c is not None else self._assign
        for signal, planes in rule(self.circuit, fault, lanes, xor_sides):
            assign(signal, planes)

    def _ranks(self, cc: Controllability):
        """*cc* as the C engine reads it, checked against the circuit."""
        if self.engine is not None:
            return self.engine.ranks(cc)
        n = self._n_signals
        if len(cc.cc0) != n or len(cc.cc1) != n:
            raise ValueError(
                f"controllability covers {len(cc.cc0)}/{len(cc.cc1)} "
                f"signals, the circuit has {n}"
            )
        return None

    def _native(self, what: str):
        c = self._c
        if c is None:
            raise RuntimeError(f"{what} runs on the native/c engine, not {self.tier}")
        return c

    def decide(
        self, cc: Controllability, lanes: int, group: bool = False
    ) -> Optional[Tuple[int, int, Optional[PiObjective]]]:
        """One FPTPG/APTPG decision step in lane mask *lanes*.

        Takes the first signal, in id order, with unjustified live lanes
        (``scan_unjustified(lanes)[0]``) and its lowest such lane *rep*,
        derives rep's objective and backtraces it in lane rep with the
        SCOAP costs *cc* (:mod:`repro.core.backtrace`).  Returns
        ``None`` when no live lane of *lanes* is unjustified, else
        ``(rep, lanes, objective)``: *objective* is the
        :class:`~repro.core.backtrace.PiObjective` to assign, or
        ``None`` when rep has no objective or the backtrace dead-ends.
        The lanes are rep's alone, except that with *group* and an
        objective they are the signal's lanes sharing rep's objective.
        On the C engine this is one call, which reads *cc* as
        :attr:`Controllability.ranks`; the other engines run
        :func:`repro.core.backtrace.decide`, its oracle.  A *cc* not
        covering exactly this circuit's signals raises
        :class:`ValueError`.
        """
        ranks = self._ranks(cc)
        c = self._c
        if c is None:
            return _decide_python(self, cc, lanes, group)
        code = self._lib.repro_tpg_decide(c, lanes & self.mask, group, ranks)
        if code <= 0:
            if code < 0:
                raise MemoryError("cannot grow the native backtrace scratch")
            return None
        rep = c.d_rep
        if code == 1:
            return rep, 1 << rep, None
        if code == 2:
            return rep, c.d_lanes, None
        return rep, c.d_lanes, PiObjective(c.d_pi, c.d_value, c.d_stable == 1)

    # ------------------------------------------------------------------
    # generation shards (native engine only: one C call each)
    # ------------------------------------------------------------------
    def search(self, cc: Controllability, backtrack_limit: int) -> SearchRun:
        """APTPG's checkpointed search from this sensitized state.

        Implies, then runs the loop of :func:`repro.core.aptpg._search`
        (its oracle) step for step, on either algebra, in one C call:
        lane splits for the first ``floor(log2 width)`` decisions, then
        marked uniform decisions, flipped once and popped when every
        lane conflicts, with at most *backtrack_limit* backtracks.  The
        state is left where the search stopped.  Native engine only
        (:class:`RuntimeError` elsewhere); a *cc* not covering exactly
        this circuit's signals raises :class:`ValueError`.
        """
        c = self._native("search")
        code = self._lib.repro_tpg_search(c, backtrack_limit, self._ranks(cc))
        if code < 0:
            raise MemoryError("cannot grow the native TPG scratch")
        return SearchRun(
            code, c.r_lane, c.r_decisions, c.r_backtracks, c.r_splits,
            c.implication_passes, 0.0, (),
        )

    def aptpg(
        self,
        fault: PathDelayFault,
        cc: Controllability,
        backtrack_limit: int,
        max_xor_polarity_bits: int,
    ) -> SearchRun:
        """A fault's whole nonrobust APTPG in one C call.

        What :func:`repro.core.aptpg.run_aptpg` does from Python (its
        oracle): the XOR sides of the path, derived from the fanin CSR;
        when there are 1 to *max_xor_polarity_bits* of them, the polarity
        screen in chunks of at most 64 lanes; then the search of every
        surviving combination, until one tests the fault.  Every screen
        chunk and search runs on this one engine, reset in between (what
        it held before does not matter), and every search runs at the
        width the state was built with.  The state is left as the last
        of them left it — ``width`` and ``mask`` included, so a screen
        that refutes every combination leaves a chunk-wide state; a
        later call still searches at the built width.  3-valued states
        on the native engine only (:class:`ValueError` and
        :class:`RuntimeError` elsewhere).  Path ids outside the circuit
        raise :class:`IndexError`, *max_xor_polarity_bits* outside
        ``[0, 16]`` :class:`ValueError`.
        """
        self._native("aptpg")
        run = self.engine.aptpg(
            fault, self._ranks(cc), backtrack_limit, max_xor_polarity_bits
        )
        self.follow_engine()
        return run

    def follow_engine(self) -> None:
        """Take ``width`` and ``mask`` from the last state a whole-fault
        C run (:meth:`TpgEngine.aptpg`) left on this state's engine."""
        width = self._c.r_width
        if width != self.width:
            self.width = width
            self.mask = mask_for(width)

    def fptpg(
        self,
        faults: Sequence[PathDelayFault],
        cc: Controllability,
        sensitize: bool,
    ) -> Tuple[int, int, int, int, float]:
        """An FPTPG batch's loop in one C call, fault *k* in lane *k*.

        What :func:`repro.core.fptpg.run_fptpg` does from Python (its
        oracle): with *sensitize* (3-valued states only) each path's
        nonrobust sensitization first, in batch order; a robust batch
        comes sensitized.  Then ``imply(stop_when_all_conflicted=False)``
        and grouped decision steps, each objective assigned to its group
        and implied, while a lane is live and not stuck.  Returns
        ``(decided, decisions, justified, xor_lanes, seconds_sensitize)``:
        the lanes that took an optional assignment, the decision count,
        the conflict-free justified lanes of the batch, and the lanes
        whose path has an XOR side input.  Native engine only
        (:class:`RuntimeError` elsewhere); path ids outside the circuit
        raise :class:`IndexError` before anything is assigned, and an
        empty batch or more faults than lanes :class:`ValueError`.
        """
        self._native("fptpg")
        return self.engine.fptpg(faults, self._ranks(cc), sensitize)

    def mark(self) -> int:
        """Open a checkpoint; returns a token for :meth:`rollback`."""
        c = self._c
        trail_len = len(self._trail) if c is None else c.trail_len
        self._marks.append((trail_len, self.conflict_mask))
        return len(self._marks) - 1

    def rollback(self, token: int) -> None:
        """Undo every assignment made since checkpoint *token*."""
        trail_len, conflict_mask = self._marks[token]
        del self._marks[token:]
        c = self._c
        if c is not None:
            if self._lib.repro_tpg_rollback(c, trail_len, conflict_mask):
                raise RuntimeError("checkpoint lies beyond the trail")
            return
        touch = self._touch
        while len(self._trail) > trail_len:
            signal, old = self._trail.pop()
            self.planes[signal] = old
            touch(signal)
        if conflict_mask != self._conflict_mask:
            self._conflict_mask = conflict_mask
            self._sites = {
                lane: site
                for lane, site in self._sites.items()
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
        c = self._c
        if c is not None:
            if self._lib.repro_tpg_imply(c, stop_when_all_conflicted) < 0:
                raise MemoryError("cannot grow the native TPG trail")
            return c.conflict_mask
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
        assign = self._assign
        while self._queue:
            if stop_when_all_conflicted and self._conflict_mask == mask:
                self._drain_queue()
                break
            signal = self._queue.popleft()
            self._queued[signal] = False
            if is_input[signal]:
                continue
            self._implication_passes += 1
            gate_type = gate_types[signal]
            fanin = fanins[signal]
            ins = [planes[f] for f in fanin]
            if forward_fns is None:
                fwd = forward(gate_type, ins, mask)
            else:
                fwd = forward_fns[signal](ins, mask)
            assign(signal, fwd)
            if self.use_backward:
                out = planes[signal]
                if backward_fns is None:
                    adds = backward(gate_type, out, ins, mask)
                else:
                    adds = backward_fns[signal](out, ins, mask)
                for fanin_signal, add in zip(fanin, adds):
                    assign(fanin_signal, add)
        return self._conflict_mask

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
        if not 0 <= signal < self._n_signals:
            raise IndexError(f"signal {signal} outside [0, {self._n_signals})")
        compiled = self.compiled
        if compiled.is_input[signal]:
            return 0
        planes = self.planes
        ins = [planes[f] for f in compiled.py_fanin[signal]]
        return (
            self.algebra.unjustified(
                compiled.gate_types[signal], planes[signal], ins, self.mask
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
        live = (self.mask if lanes is None else lanes & self.mask) & ~self.conflict_mask
        if not live:
            return []
        c = self._c
        if c is not None:
            count = self._lib.repro_tpg_scan(c, live)
            unpack = self._ffi.unpack
            return list(zip(unpack(c.scan_sig, count), unpack(c.scan_mask, count)))
        self._refresh_unjustified()
        result: List[Tuple[int, int]] = []
        for index, raw in enumerate(self._unjust):
            m = raw & live
            if m:
                result.append((index, m))
        return result

    def all_justified_mask(self) -> int:
        """Lanes that are conflict-free and completely justified."""
        c = self._c
        if c is not None:
            return self._lib.repro_tpg_all_justified(c)
        live = self.mask & ~self._conflict_mask
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
        """Broadcast one bit level to every lane (FPTPG -> APTPG handoff).

        Clears the trail and every checkpoint.
        """
        if not 0 <= lane < self.width:
            raise ValueError(f"lane {lane} outside [0, {self.width})")
        self._marks.clear()
        c = self._c
        if c is not None:
            self._lib.repro_tpg_flatten(c, lane)
            return
        bit = 1 << lane
        mask = self.mask
        self.planes = [
            tuple(mask if (p & bit) else 0 for p in planes)  # type: ignore[misc]
            for planes in self.planes
        ]
        if self._conflict_mask & bit:
            site = self._sites[lane]
            self._conflict_mask = mask
            self._sites = dict.fromkeys(range(self.width), site)
        else:
            self._conflict_mask = 0
            self._sites = {}
        self._trail.clear()
        # every plane changed: the whole justification cache is stale
        self._dirty.update(range(self._n_signals))

    def input_bits(self, plane: int, lane: int) -> Tuple[int, ...]:
        """Bit *lane* of plane *plane* of every primary input, in order.

        Reads that one word per input (on the C engine straight from its
        plane buffer); lanes outside ``[0, width)`` raise
        :class:`ValueError`.
        """
        if not 0 <= lane < self.width:
            raise ValueError(f"lane {lane} outside [0, {self.width})")
        inputs = self.compiled.py_inputs
        if self._c is None:
            planes = self.planes
            return tuple([planes[pi][plane] >> lane & 1 for pi in inputs])
        words = memoryview(self.planes._buf).cast("Q")
        n_planes = self.algebra.n_planes
        return tuple([words[pi * n_planes + plane] >> lane & 1 for pi in inputs])

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
