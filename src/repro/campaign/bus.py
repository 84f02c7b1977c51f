"""The global drop bus: cross-shard collateral fault dropping.

The paper's practical speed-up comes from running PPSFP "after every L
generated test patterns" and dropping every pending fault the fresh
patterns happen to detect.  In a sharded campaign the bus is what
makes that *global*: all shards' fresh patterns of a round are merged
(in deterministic batch order) and one batched simulation pass runs
over every still-pending fault — window faults and deferred APTPG
queue entries alike — so collateral detection crosses shard boundaries
exactly as it does in the serial engine.

The bus also owns the two scalability mechanisms around the pattern
set:

* **admission dropping** — a fault newly pulled from the streamed
  universe is first checked against the whole retained pattern set
  (one bulk PPSFP pass); faults already covered
  never enter the pending window.  This is equivalent to having kept
  the fault pending through every earlier round (the union of the
  per-round checks), which is what makes the bounded window
  semantics-preserving.
* **incremental compaction** — when enabled, the retained set is
  periodically re-compacted with reverse-order dropping
  (:mod:`repro.core.compaction`) against its targets *plus* every
  collaterally dropped fault (the coverage obligations), so the final
  set still detects everything the report claims, while bounding the
  memory and admission-check cost of long campaigns.

Both sets are columns.  The faults live in one
:class:`repro.paths.FaultTable` the bus owns: every fault is flattened
and range-checked once, when it is admitted (or restored on resume).
Beside the table the bus keeps a live mask over its rows and each row's
stream index, so a drop round's pending rows are one
``np.flatnonzero`` (registration order) and the detected rows map back
to stream indices with one array gather.  A fault naming a signal
outside the circuit fails that check alone and is handed back for the
campaign to settle ``skipped_error``; it is never simulated or
scheduled.  So is a fault whose path does not start at a primary input,
where no test can launch its transition (one look-up of the new rows'
first ids).  Rows of settled faults are released, and the table is
rebuilt from the live rows once those are outnumbered, so under a
``window`` the table stays bounded by the window, not the universe.

The retained patterns are a :class:`repro.core.patterns.PatternTable`.
A round appends its fresh rows — as the C generation round wrote them,
or decoded from pattern tuples — and drops against only that slice;
admission packs the whole table.  On the native backend (the default
wherever the module loads) a drop round is one C call on a
:class:`repro.kernel.native.DropRound` the bus builds once: it packs
the fresh rows into input planes, runs the forward pass and the
detection walk over the live rows in row order, and clears the live
bits of the rows it detects, so no pending array, fault view or packed
batch is built in Python.  The other backends, and any explicit
fusion, pack the slice (:meth:`PatternTable.packed`) and run
:meth:`~repro.sim.delay_sim.DelayFaultSimulator.detection_masks` over
a view of the live rows, as admission does.  The bus owns one
simulator for every pass, so the compiled kernel and backend selection
are paid once per campaign; the ``backend`` knob passes straight
through to it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import chaos
from ..circuit import Circuit
from ..core.patterns import PatternTable, Rows, TestPattern
from ..kernel.native import DropRound
from ..paths import FaultTable, PathDelayFault, TestClass
from ..paths.table import grown, path_input_error, signal_range_error
from ..sim.delay_sim import DelayFaultSimulator

#: (stream index, fault) pairs, as the campaign streams them.
Arrivals = List[Tuple[int, PathDelayFault]]
#: (stream index, fault, error) of faults the bus refused.
Rejected = List[Tuple[int, PathDelayFault, ValueError]]


class DropBus:
    """Merges fresh patterns and drops detected pending faults.

    The bus owns the campaign's :class:`repro.paths.FaultTable`: every
    fault gets a row when it is admitted (:meth:`admit`) or restored
    from a checkpoint (:meth:`register`), and gives it back when it
    settles (:meth:`release`).  The live rows are exactly the
    campaign's pending faults, in the same order, so a drop round hands
    the C walk one index array instead of re-flattening every pending
    path.  Once released rows outnumber live ones, the next
    registration rebuilds the table from the live rows: memory follows
    the pending window, not the universe.  :attr:`patterns` is the
    retained set's pattern list (:attr:`retained` holds its rows).
    """

    def __init__(
        self,
        circuit: Circuit,
        test_class: TestClass,
        *,
        backend: str = "auto",
        fusion: str = "auto",
        enabled: bool = True,
        compact_every: Optional[int] = None,
    ):
        self.simulator = DelayFaultSimulator(
            circuit, test_class, backend=backend, fusion=fusion
        )
        self.circuit = circuit
        self.test_class = test_class
        self.enabled = enabled
        self.compact_every = compact_every
        self.n_inputs = len(circuit.inputs)
        self.retained = PatternTable(self.n_inputs)
        self.seconds_simulate = 0.0
        self.compactions = 0
        self.patterns_compacted_away = 0
        self._since_compaction = 0
        # Coverage obligations: faults settled as SIMULATED were
        # detected by the retained set at drop time, so compaction
        # must keep them covered even though no retained pattern
        # *targets* them.  Only tracked when compaction is on (the
        # list grows with every drop).
        self.obligations: List[PathDelayFault] = []
        self.table = FaultTable(self.simulator.compiled.n_signals)
        self._is_input = np.asarray(self.simulator.compiled.is_input, dtype=bool)
        # stream index -> table row of every live (registered, not yet
        # released) fault, in registration order
        self._rows: Dict[int, int] = {}
        # per table row: live (registered, not released) and its stream
        # index; rows are appended in registration order, so the live
        # rows in row order are the pending faults in registration order
        self._live = np.zeros(0, dtype=bool)
        self._index = np.zeros(0, dtype=np.int64)
        # the native drop round, when rounds run on the native backend:
        # settled at the first round (the backend choice does not depend
        # on the batch width)
        self._native: Optional[DropRound] = None
        self._native_checked = False

    @property
    def patterns(self) -> List[TestPattern]:
        """The retained patterns, in order (the report's test set)."""
        return self.retained.patterns

    @patterns.setter
    def patterns(self, patterns: Sequence[TestPattern]) -> None:
        self.retained = PatternTable.from_patterns(list(patterns), self.n_inputs)

    # ------------------------------------------------------------ rows
    def register(self, arrivals: Arrivals) -> Tuple[Arrivals, Rejected]:
        """Give each arrival a table row; split off the malformed ones.

        Returns the registered arrivals, in order, and
        ``(index, fault, error)``, in arrival order, for each one whose
        path names a signal outside the circuit or does not start at a
        primary input — those get no live row and are never simulated
        or scheduled.  Each stream index is registered once: admission
        registers fresh indices, and resume a fresh bus.
        """
        if len(self.table) > 2 * len(self._rows):
            self._rebuild()
        table = self.table
        rows, bad = table.extend_valid([fault for _index, fault in arrivals])
        errors = dict.fromkeys(bad, signal_range_error(table.n_signals))
        # the arrival position of each new row
        positions = [k for k in range(len(arrivals)) if k not in errors]
        firsts = table.flat[table.offsets[rows.start : rows.stop]]
        for j in np.flatnonzero(~self._is_input[firsts]).tolist():
            signal = int(firsts[j])
            errors[positions[j]] = path_input_error(
                signal, self.circuit.signal_name(signal)
            )
        live = [
            (arrivals[k][0], row)
            for k, row in zip(positions, rows)
            if k not in errors
        ]
        self._rows.update(live)
        self._live = grown(self._live, len(table))
        self._index = grown(self._index, len(table))
        # the new rows start dead: a refused path's row stays so, and the
        # next rebuild drops it
        self._live[rows.start : rows.stop] = False
        new_rows = [row for _index, row in live]
        self._live[new_rows] = True
        self._index[new_rows] = [index for index, _row in live]
        rejected: Rejected = [(*arrivals[k], errors[k]) for k in sorted(errors)]
        kept = [a for k, a in enumerate(arrivals) if k not in errors]
        return kept, rejected

    def table_rows(self, indices: Sequence[int]) -> List[int]:
        """The table rows of live stream *indices*, in that order."""
        rows = self._rows
        return [rows[index] for index in indices]

    def release(self, index: int) -> None:
        """Forget a settled fault's row (a no-op for unknown indices)."""
        row = self._rows.pop(index, None)
        if row is not None:
            self._live[row] = False

    def _pending_rows(self) -> np.ndarray:
        """The live rows, in registration order."""
        return np.flatnonzero(self._live[: len(self.table)])

    def _rebuild(self) -> None:
        """Rebuild the table from the live rows, renumbering them."""
        live = self._pending_rows()
        self.table = self.table.take(live)
        n = len(live)
        self._index[:n] = self._index[live]
        self._live[:n] = True
        self._live[n:] = False
        self._rows = dict(zip(self._index[:n].tolist(), range(n)))

    # ------------------------------------------------------------ rounds
    def absorb(
        self,
        fresh: Sequence[TestPattern],
        rows: Optional[Rows] = None,
    ) -> List[int]:
        """Retain *fresh* patterns; return the live indices they detect.

        *rows*, when given, are the fresh patterns' (V1, V2) uint8 rows
        as the generator wrote them (``n_inputs`` wide, 0/1); without
        them the tuples are decoded and checked.  The live rows are the
        campaign's pending faults (settled faults were released, so no
        rescan of the full universe happens here — the set only ever
        shrinks between admissions).  The detected rows stop being
        live here; the campaign settles (and releases) their indices.
        """
        if not fresh:
            return []
        retained = self.retained
        start = len(retained)
        if rows is None:
            retained.extend(fresh)
        else:
            retained.append(rows[0], rows[1], fresh)
        dropped: List[int] = []
        if self.enabled and self._rows:
            t0 = time.perf_counter()
            simulator = self.simulator
            if not self._native_checked:
                if simulator.native_backend(len(fresh)) is not None:
                    self._native = DropRound(
                        simulator.compiled, self.test_class is TestClass.ROBUST
                    )
                self._native_checked = True
            if self._native is not None:
                chaos.maybe_raise("kernel_fault")
                detected = self._native.run(
                    retained.rows[start:], self.table, self._live
                )
            else:
                pending = self._pending_rows()
                masks = simulator.detection_masks(
                    retained.packed(start, len(retained)), self.table.view(pending)
                )
                detected = pending[[k for k, mask in enumerate(masks) if mask]].tolist()
            if detected:
                dropped = self._index[detected].tolist()
            self.seconds_simulate += time.perf_counter() - t0
            if self.compact_every is not None:
                faults = self.table.faults
                self.obligations.extend(faults[row] for row in detected)
        self._since_compaction += len(fresh)
        self._maybe_compact()
        return dropped

    def admit(self, arrivals: Arrivals) -> Tuple[Arrivals, List[int], Rejected]:
        """Split newly streamed faults into (pending, dropped, rejected).

        Registers every well-formed arrival (:meth:`register`) and
        checks them against the full retained pattern set in one bulk
        pass; order is preserved for the pending survivors.  Dropped
        indices keep their rows until the campaign settles (and
        releases) them.
        """
        arrivals, rejected = self.register(arrivals)
        if not arrivals or not self.enabled or not len(self.retained):
            return arrivals, [], rejected
        t0 = time.perf_counter()
        view = self.table.view(
            np.fromiter(
                (self._rows[index] for index, _fault in arrivals),
                np.int32,
                count=len(arrivals),
            )
        )
        masks = self.simulator.detection_masks(self.retained.packed(), view)
        self.seconds_simulate += time.perf_counter() - t0
        fresh: Arrivals = []
        dropped: List[int] = []
        for (index, fault), mask in zip(arrivals, masks):
            if mask:
                dropped.append(index)
                if self.compact_every is not None:
                    self.obligations.append(fault)
            else:
                fresh.append((index, fault))
        return fresh, dropped, rejected

    # ------------------------------------------------------------ compaction
    def _maybe_compact(self) -> None:
        if self.compact_every is None:
            return
        if self._since_compaction < self.compact_every:
            return
        from ..core.compaction import reverse_order_compaction

        # The compacted set must preserve detection of every fault the
        # campaign has claimed: the retained patterns' own targets AND
        # every collaterally dropped (SIMULATED) fault.
        targets = [p.fault for p in self.patterns if p.fault is not None]
        targets.extend(self.obligations)
        if not targets:
            self._since_compaction = 0
            return
        t0 = time.perf_counter()
        before = len(self.patterns)
        kept = reverse_order_compaction(
            self.circuit,
            self.patterns,
            targets,
            self.test_class,
            backend=self.simulator.backend,
            fusion=self.simulator.fusion,
        )
        self.seconds_simulate += time.perf_counter() - t0
        # A removed pattern's target is still covered by the kept set,
        # but it leaves the target list — record it as an obligation so
        # the *next* pass cannot drop whichever pattern now covers it.
        kept_ids = {id(p) for p in kept}
        self.obligations.extend(
            p.fault
            for p in self.patterns
            if id(p) not in kept_ids and p.fault is not None
        )
        positions = {id(p): k for k, p in enumerate(self.patterns)}
        self.retained = self.retained.take([positions[id(p)] for p in kept])
        self.compactions += 1
        self.patterns_compacted_away += before - len(self.patterns)
        self._since_compaction = 0
