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

One :class:`repro.sim.delay_sim.DelayFaultSimulator` instance is
reused for every admission check and drop round — the compiled kernel
and backend selection are paid once per campaign.  The ``backend``
knob passes straight through to the simulator; under the default
``"auto"`` every admission and drop pass runs inside the compiled-C
native module whenever it loads.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit import Circuit
from ..core.patterns import TestPattern
from ..paths import PathDelayFault, TestClass
from ..sim.delay_sim import DelayFaultSimulator


class DropBus:
    """Merges fresh patterns and drops detected pending faults."""

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

    # ------------------------------------------------------------ rounds
    def absorb(
        self,
        fresh: Sequence[TestPattern],
        pending: Dict[int, PathDelayFault],
    ) -> List[int]:
        """Retain *fresh* patterns; return pending indices they detect.

        *pending* is the campaign's live index->fault map (already
        stripped of settled faults, so no rescan of the full universe
        happens here — the set only ever shrinks).
        """
        dropped: List[int] = []
        if fresh and self.enabled and pending:
            t0 = time.perf_counter()
            indices = list(pending)
            masks = self.simulator.detection_masks(
                list(fresh), [pending[i] for i in indices]
            )
            dropped = [i for i, mask in zip(indices, masks) if mask]
            self.seconds_simulate += time.perf_counter() - t0
            if self.compact_every is not None:
                self.obligations.extend(pending[i] for i in dropped)
        self.patterns.extend(fresh)
        self._since_compaction += len(fresh)
        self._maybe_compact()
        return dropped

    def admit(
        self, arrivals: Sequence[Tuple[int, PathDelayFault]]
    ) -> Tuple[List[Tuple[int, PathDelayFault]], List[int]]:
        """Split newly streamed faults into (still pending, dropped).

        Checks each arrival against the full retained pattern set in
        one bulk pass; order is preserved for the pending survivors.
        """
        if not arrivals or not self.enabled or not self.patterns:
            return list(arrivals), []
        t0 = time.perf_counter()
        masks = self.simulator.detection_masks(
            self.patterns, [fault for _index, fault in arrivals]
        )
        self.seconds_simulate += time.perf_counter() - t0
        fresh: List[Tuple[int, PathDelayFault]] = []
        dropped: List[int] = []
        for (index, fault), mask in zip(arrivals, masks):
            if mask:
                dropped.append(index)
                if self.compact_every is not None:
                    self.obligations.append(fault)
            else:
                fresh.append((index, fault))
        return fresh, dropped

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
