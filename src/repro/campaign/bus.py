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

The faults live in one :class:`repro.paths.FaultTable` the bus owns:
every fault is flattened and range-checked once, when it is admitted
(or restored on resume), and each drop round hands the simulator a
:class:`repro.paths.FaultRows` view of the pending rows — one index
array for the C walk instead of every pending path re-flattened from
Python tuples.  A fault naming a signal outside the circuit fails that
check alone and is handed back for the campaign to settle
``skipped_error``; it is never simulated or scheduled.  So is a fault
whose path does not start at a primary input, where no test can launch
its transition (one look-up of the new rows' first ids).  Rows of settled
faults are released, and the table is rebuilt from the live rows once
those are outnumbered, so under a ``window`` the table stays bounded
by the window, not the universe.

One :class:`repro.sim.delay_sim.DelayFaultSimulator` instance is
reused for every admission check and drop round — the compiled kernel
and backend selection are paid once per campaign.  The ``backend``
knob passes straight through to the simulator; under the default
``"auto"`` every admission and drop pass runs inside the compiled-C
native module whenever it loads.
"""

from __future__ import annotations

import time
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit
from ..core.patterns import TestPattern
from ..paths import FaultTable, PathDelayFault, TestClass
from ..paths.table import path_input_error, signal_range_error
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
    the pending window, not the universe.
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
        self.patterns: List[TestPattern] = []
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

    # ------------------------------------------------------------ rows
    def register(self, arrivals: Arrivals) -> Tuple[Arrivals, Rejected]:
        """Give each arrival a table row; split off the malformed ones.

        Returns the registered arrivals, in order, and
        ``(index, fault, error)``, in arrival order, for each one whose
        path names a signal outside the circuit or does not start at a
        primary input — those get no live row and are never simulated
        or scheduled.
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
        # a refused path's row is never live, so the next rebuild drops it
        for k, row in zip(positions, rows):
            if k not in errors:
                self._rows[arrivals[k][0]] = row
        rejected: Rejected = [(*arrivals[k], errors[k]) for k in sorted(errors)]
        kept = [a for k, a in enumerate(arrivals) if k not in errors]
        return kept, rejected

    def release(self, index: int) -> None:
        """Forget a settled fault's row (a no-op for unknown indices)."""
        self._rows.pop(index, None)

    def _rebuild(self) -> None:
        """Rebuild the table from the live rows, renumbering them."""
        live = np.fromiter(self._rows.values(), np.int32, count=len(self._rows))
        self.table = self.table.take(live)
        self._rows = dict(zip(self._rows, range(len(live))))

    # ------------------------------------------------------------ rounds
    def absorb(self, fresh: Sequence[TestPattern]) -> List[int]:
        """Retain *fresh* patterns; return the live indices they detect.

        The live rows are the campaign's pending faults (settled
        faults were released, so no rescan of the full universe
        happens here — the set only ever shrinks between admissions).
        """
        dropped: List[int] = []
        if fresh and self.enabled and self._rows:
            t0 = time.perf_counter()
            indices = list(self._rows)
            view = self.table.view(
                np.fromiter(self._rows.values(), np.int32, count=len(indices))
            )
            masks = self.simulator.detection_masks(list(fresh), view)
            dropped = list(compress(indices, masks))
            self.seconds_simulate += time.perf_counter() - t0
            if self.compact_every is not None:
                self.obligations.extend(compress(view, masks))
        self.patterns.extend(fresh)
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
        if not arrivals or not self.enabled or not self.patterns:
            return arrivals, [], rejected
        t0 = time.perf_counter()
        view = self.table.view(
            np.fromiter(
                (self._rows[index] for index, _fault in arrivals),
                np.int32,
                count=len(arrivals),
            )
        )
        masks = self.simulator.detection_masks(self.patterns, view)
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
        self.patterns = list(kept)
        self.compactions += 1
        self.patterns_compacted_away += before - len(self.patterns)
        self._since_compaction = 0
