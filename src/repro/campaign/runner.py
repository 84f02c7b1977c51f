"""The staged ATPG campaign: stream -> shard -> generate -> drop.

``execute_campaign`` turns the paper's engine into a managed pipeline:

1. **Admission.**  Faults are pulled from a lazily streamed
   :class:`FaultUniverse` until the pending window is full, each one
   first drop-checked against the retained pattern set (faults already
   covered are settled as SIMULATED without ever being scheduled).
2. **FPTPG rounds.**  The next ``shards`` lane-width batches of
   pending faults are generated *independently*, then the round's
   fresh patterns are merged on the global drop bus, which runs one
   batched PPSFP pass over every still-pending fault (window and
   deferred queue alike).
3. **APTPG rounds.**  Once the stream is drained (or the window is
   saturated with deferred faults), rounds of ``shards`` single-fault
   APTPG searches run the hard residue, again followed by the bus.
4. **Checkpointing.**  Progress is serialized every few rounds; an
   interrupted campaign resumes from the snapshot, re-entering the
   stream by position.

A round's Python is four steps: choosing its targets (by their rows in
the bus's fault table), the executor's supervision pre-checks,
settling what the round decided and the faults its patterns drop, and
``on_round``.  The generation and the drop pass themselves are one call
each — on the ``native/c`` tier and the native backend, one C call
each (:meth:`SerialExecutor.run_round`, :meth:`DropBus.absorb`).

The schedule — window fills, batch composition, drop cadence — is a
pure function of :class:`repro.api.Options`; timing, shard retries and
checkpoint/resume never influence which faults share a batch or when
drops are applied.  The serial engine
(:meth:`repro.api.AtpgSession.generate`) is literally an
unbounded-window campaign over a pre-materialized universe.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import islice
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .. import chaos
from ..api import integrity
from ..api.options import Options
from ..circuit import Circuit
from ..core.patterns import TestPattern
from ..core.results import FaultRecord, FaultStatus
from ..paths import PathDelayFault, TestClass
from .bus import DropBus, Rejected
from .report import (
    CampaignReport,
    checkpoint_payload,
    load_checkpoint,
    restore_from_payload,
    schedule_fingerprint,
    write_checkpoint,
)
from .scheduler import SerialExecutor, Supervision, error_envelope
from .universe import FaultUniverse

#: Admission checks run in bounded slices so an unbounded-window pull
#: of a huge universe never builds one giant simulation batch.
_ADMIT_CHUNK = 4096


class CampaignControl:
    """Host hooks into a running campaign (cancellation and progress).

    The service's job queue passes one of these so a long-running
    campaign can be observed and stopped at round boundaries without
    the runner knowing anything about jobs or HTTP:

    * :meth:`should_stop` is polled once per loop iteration; returning
      ``True`` makes the runner flush a checkpoint (when one is
      configured) and return the partial report with
      ``complete=False`` — exactly the state a later ``resume=True``
      run continues from.
    * :meth:`on_round` receives a small progress dict after every
      generation round (``rounds``, ``settled``, ``streamed``,
      ``pending``, ``patterns``).

    The default implementation never stops and ignores progress;
    subclass and override what you need.
    """

    def should_stop(self) -> bool:
        return False

    def on_round(self, progress: Dict[str, int]) -> None:  # pragma: no cover
        pass


class _Campaign:
    """One campaign run's mutable state and round loop."""

    def __init__(
        self,
        circuit: Circuit,
        universe: FaultUniverse,
        test_class: TestClass,
        options: Options,
        control: Optional[CampaignControl] = None,
    ):
        options.validate()
        self.control = control
        self.circuit = circuit
        self.universe = universe
        self.options = options
        self.test_class = test_class
        self.report = CampaignReport(
            circuit_name=circuit.name,
            test_class=test_class,
            options=options,
            records={} if options.keep_records else None,
        )
        self.bus = DropBus(
            circuit,
            test_class,
            backend=options.sim_backend,
            fusion=options.fusion,
            enabled=options.drop_faults,
            compact_every=options.compact_every,
        )
        # Live pending set: index -> fault, insertion (= stream) order,
        # O(1) removal.  Settled faults leave immediately, so drop
        # rounds never rescan the full universe (the seed engine's
        # quadratic `[i for i in pending if i not in records]` is gone).
        self.pending: Dict[int, PathDelayFault] = {}
        # FPTPG work cursor: indices admitted but not yet batched, in
        # stream order.  Rounds pop from the head (dropped entries are
        # skipped lazily), so target selection never rescans pending.
        self.backlog: Deque[int] = deque()
        self.queued: set = set()
        self.queue: List[int] = []
        self.queue_head = 0
        self.stream_position = 0
        self.exhausted = False

    # ------------------------------------------------------------ helpers
    def settle(
        self,
        index: int,
        fault: Optional[PathDelayFault],
        status: FaultStatus,
        pattern: Optional[TestPattern],
        mode: str,
    ) -> None:
        report = self.report
        report.statuses[index] = status
        report.modes[index] = mode
        if report.records is not None:
            report.records[index] = FaultRecord(fault, status, pattern, mode)
        self.pending.pop(index, None)
        self.queued.discard(index)
        self.bus.release(index)

    def _settle_error(
        self,
        index: int,
        fault: Optional[PathDelayFault],
        envelope: Dict[str, object],
    ) -> None:
        """Settle one fault as ``skipped_error`` with its error envelope."""
        self.report.errors[index] = dict(envelope)
        self.settle(index, fault, FaultStatus.SKIPPED_ERROR, None, "error")

    def _settle_rejected(self, rejected: Rejected) -> None:
        """Settle faults the fault table refused (a signal outside the
        circuit): never scheduled, so no attempt was made."""
        for index, fault, error in rejected:
            self._settle_error(index, fault, error_envelope(error, 0))

    def _note_pending_peak(self) -> None:
        if len(self.pending) > self.report.stats.peak_pending:
            self.report.stats.peak_pending = len(self.pending)

    # ------------------------------------------------------------ admission
    def _admit(self, arrivals: List[Tuple[int, PathDelayFault]]) -> None:
        survivors, dropped, rejected = self.bus.admit(arrivals)
        self._settle_rejected(rejected)
        for index, fault in dropped:
            self.settle(index, fault, FaultStatus.SIMULATED, None, "simulation")
        self.report.stats.admitted_dropped += len(dropped)
        for index, fault in survivors:
            self.pending[index] = fault
            if self.options.use_fptpg:
                self.backlog.append(index)
            else:  # ablation: straight to the APTPG queue
                self.queued.add(index)
                self.queue.append(index)
        self._note_pending_peak()

    def pull(self, stream) -> None:
        """Fill the pending window from the stream (admission-checked).

        Pulls ``islice`` chunks of at most ``_ADMIT_CHUNK`` faults, each
        cut to the room left in the window, and admits each chunk as
        one batch; after a chunk that the window cut short, the pull
        stops.
        """
        window = self.options.window
        while not self.exhausted:
            room = _ADMIT_CHUNK
            if window is not None:
                room = min(room, window - len(self.pending))
                if room <= 0:
                    break
            batch = list(islice(stream, room))
            if len(batch) < room:
                self.exhausted = True
            if batch:
                self.stream_position = batch[-1][0] + 1
                self.report.stats.streamed += len(batch)
                self._admit(batch)
            if room < _ADMIT_CHUNK:
                break

    # ------------------------------------------------------------ rounds
    def _apply_drops(self, dropped: Sequence[int]) -> None:
        for index in dropped:
            self.settle(
                index,
                self.pending[index],
                FaultStatus.SIMULATED,
                None,
                "simulation",
            )

    def _generate(
        self, executor, aptpg: bool, targets: List[int], bounds: List[int]
    ) -> None:
        """Run one round of *targets*, settle what it decided, then drop.

        Shard *k* is ``targets[bounds[k]:bounds[k + 1]]``.  Settles each
        shard's faults in order — a quarantined shard's as
        ``skipped_error``, an FPTPG lane left unjustified onto the APTPG
        queue — adds the round's counters, hands the tested patterns and
        their rows to the drop bus and settles the faults they detect.
        """
        result = executor.run_round(
            aptpg, self.bus.table, self.bus.table_rows(targets), bounds
        )
        stats = self.report.stats
        stats.decisions += result.decisions
        stats.backtracks += result.backtracks
        stats.implication_passes += result.implication_passes
        stats.seconds_sensitize += result.seconds_sensitize
        mode = "aptpg" if aptpg else "fptpg"
        pending = self.pending
        fresh: List[TestPattern] = []
        for k, error in enumerate(result.errors):
            lo, hi = bounds[k], bounds[k + 1]
            if error is not None:
                # quarantined shard: its faults are settled as
                # skipped_error with the envelope, never retried again
                for index in targets[lo:hi]:
                    self._settle_error(index, pending[index], error)
                continue
            for index, status, pattern in zip(
                targets[lo:hi], result.statuses[lo:hi], result.patterns[lo:hi]
            ):
                if status is FaultStatus.DEFERRED:
                    # deferred to APTPG; stays pending (and droppable)
                    self.queued.add(index)
                    self.queue.append(index)
                    continue
                self.settle(index, pending[index], status, pattern, mode)
                if pattern is not None:
                    fresh.append(pattern)
        self._apply_drops(self.bus.absorb(fresh, result.rows))

    def fptpg_round(self, executor) -> bool:
        """Generate one round of up to ``shards`` lane-width batches."""
        options = self.options
        capacity = options.shards * options.width
        targets: List[int] = []
        while self.backlog and len(targets) < capacity:
            index = self.backlog.popleft()
            if index in self.pending:  # not dropped in the meantime
                targets.append(index)
        if not targets:
            return False
        bounds = list(range(0, len(targets), options.width)) + [len(targets)]
        self._generate(executor, False, targets, bounds)
        stats = self.report.stats
        stats.rounds += 1
        stats.fptpg_rounds += 1
        return True

    def aptpg_round(self, executor) -> bool:
        """Run one round of up to ``shards`` single-fault searches."""
        targets: List[int] = []
        while self.queue_head < len(self.queue) and len(targets) < self.options.shards:
            index = self.queue[self.queue_head]
            self.queue_head += 1
            if index in self.pending:  # not dropped in the meantime
                targets.append(index)
        if not targets:
            return False
        self._generate(executor, True, targets, list(range(len(targets) + 1)))
        stats = self.report.stats
        stats.rounds += 1
        stats.aptpg_rounds += 1
        return True

    # ------------------------------------------------------------ checkpoint
    def _pattern_positions(self) -> Dict[int, int]:
        if self.report.records is None:
            return {}
        positions = {id(p): k for k, p in enumerate(self.bus.patterns)}
        return {
            index: positions[id(record.pattern)]
            for index, record in self.report.records.items()
            if record.pattern is not None and id(record.pattern) in positions
        }

    def save_checkpoint(self) -> None:
        path = self.options.checkpoint
        if path is None:
            return
        self.report.patterns = self.bus.patterns
        payload = checkpoint_payload(
            self.report,
            self.pending,
            self.queue[self.queue_head :],
            self.stream_position,
            self.exhausted,
            self._pattern_positions(),
            schedule_fingerprint(self.options, self.universe.describe()),
            self.bus.obligations,
        )
        write_checkpoint(path, payload)

    def try_resume(self) -> bool:
        options = self.options
        if not options.resume or options.checkpoint is None:
            return False
        if not integrity.recoverable(options.checkpoint):
            return False
        payload = load_checkpoint(options.checkpoint)
        for key, want in (
            ("circuit", self.circuit.name),
            ("test_class", self.test_class.value),
            ("width", options.width),
            ("shards", options.shards),
        ):
            if payload[key] != want:
                raise ValueError(
                    f"checkpoint {options.checkpoint!r} was written for "
                    f"{key}={payload[key]!r}, not {want!r}"
                )
        fingerprint = schedule_fingerprint(options, self.universe.describe())
        saved = payload["schedule"]
        if saved != fingerprint:
            changed = sorted(
                key
                for key in set(saved) | set(fingerprint)
                if saved.get(key) != fingerprint.get(key)
            )
            raise ValueError(
                f"checkpoint {options.checkpoint!r} was written under a "
                f"different schedule/universe configuration (changed: "
                f"{', '.join(changed)}); resuming would attach recorded "
                f"statuses to different faults"
            )
        pending, queue, position, exhausted, obligations = restore_from_payload(
            payload, self.report
        )
        self.bus.obligations = obligations
        self.pending = pending
        # the restored pending faults take table rows again, in pending
        # order; one the table refuses is settled like at admission
        _, rejected = self.bus.register(list(pending.items()))
        if rejected:
            self._settle_rejected(rejected)
            queue = [index for index in queue if index in pending]
        self.queued = set(queue)
        # pending serializes in stream order, so the rebuilt backlog
        # preserves the batching cursor of the interrupted run
        self.backlog = deque(i for i in pending if i not in self.queued)
        self.queue = queue
        self.queue_head = 0
        self.stream_position = position
        self.exhausted = exhausted
        self.bus.patterns = self.report.patterns
        self.bus.seconds_simulate = self.report.stats.seconds_simulate
        self.bus.compactions = self.report.stats.compactions
        self.bus.patterns_compacted_away = (
            self.report.stats.patterns_compacted_away
        )
        self.report.complete = bool(payload["complete"])
        return True

    def _progress(self) -> Dict[str, int]:
        return {
            "rounds": self.report.stats.rounds,
            "settled": len(self.report.statuses),
            "streamed": self.report.stats.streamed,
            "pending": len(self.pending),
            "patterns": len(self.bus.patterns),
        }

    # ------------------------------------------------------------ main loop
    def run(self) -> CampaignReport:
        if self.options.chaos is None:
            return self._run()
        # scoped install: the process is clean again once the
        # campaign returns
        chaos.install(self.options.chaos)
        try:
            return self._run()
        finally:
            chaos.uninstall()

    def _run(self) -> CampaignReport:
        options = self.options
        control = self.control
        t_start = time.perf_counter()
        resumed = self.try_resume()
        if resumed and self.report.complete:
            return self.report
        stream = self.universe.stream(start=self.stream_position)
        executor = SerialExecutor(
            self.circuit,
            self.test_class,
            options.width,
            options.unique_backward,
            options.backtrack_limit,
            options.fusion,
            Supervision(
                attempts=options.shard_attempts,
                retry_base_ms=options.retry_base_ms,
            ),
        )
        # supervision counters restored from a checkpoint are the
        # baseline; the executor counts this run's incidents on top
        base = (
            self.report.stats.shard_retries,
            self.report.stats.quarantined_shards,
        )

        def sync_supervision_stats() -> None:
            stats = self.report.stats
            stats.shard_retries = base[0] + executor.shard_retries
            stats.quarantined_shards = base[1] + executor.quarantined_shards

        rounds_since_checkpoint = 0
        stopped = False
        while True:
            if control is not None and control.should_stop():
                stopped = True
                break
            self.pull(stream)
            progressed = False
            if options.use_fptpg:
                progressed = self.fptpg_round(executor)
            if not progressed and options.use_aptpg:
                progressed = self.aptpg_round(executor)
            if progressed:
                if control is not None:
                    control.on_round(self._progress())
                rounds_since_checkpoint += 1
                if rounds_since_checkpoint >= options.checkpoint_every:
                    self.report.stats.seconds_simulate = self.bus.seconds_simulate
                    sync_supervision_stats()
                    self.save_checkpoint()
                    rounds_since_checkpoint = 0
                continue
            if not self.exhausted:
                if (
                    options.window is not None
                    and len(self.pending) >= options.window
                ):
                    # Window saturated with faults nothing can run
                    # (deferred residue with APTPG disabled): settle
                    # them so the stream can advance.
                    for index in list(self.pending):
                        self.settle(
                            index,
                            self.pending[index],
                            FaultStatus.DEFERRED,
                            None,
                            "fptpg",
                        )
                continue
            break
        if stopped:
            # interrupted at a round boundary: flush a resumable
            # snapshot (pending faults stay pending) and hand back the
            # partial report — complete stays False
            self.report.patterns = self.bus.patterns
            stats = self.report.stats
            stats.seconds_simulate = self.bus.seconds_simulate
            stats.compactions = self.bus.compactions
            stats.patterns_compacted_away = self.bus.patterns_compacted_away
            stats.seconds_wall += time.perf_counter() - t_start
            sync_supervision_stats()
            self.save_checkpoint()
            return self.report
        # residue: deferred faults that APTPG never ran (ablations)
        for index in list(self.pending):
            self.settle(
                index, self.pending[index], FaultStatus.DEFERRED, None, "fptpg"
            )
        self.report.patterns = self.bus.patterns
        stats = self.report.stats
        stats.seconds_simulate = self.bus.seconds_simulate
        stats.compactions = self.bus.compactions
        stats.patterns_compacted_away = self.bus.patterns_compacted_away
        stats.seconds_wall += time.perf_counter() - t_start
        sync_supervision_stats()
        self.report.complete = True
        self.save_checkpoint()
        return self.report


def execute_campaign(
    circuit: Circuit,
    faults: Optional[Sequence[PathDelayFault]] = None,
    test_class: TestClass = TestClass.NONROBUST,
    options: Optional[Options] = None,
    universe: Optional[FaultUniverse] = None,
    control: Optional[CampaignControl] = None,
) -> CampaignReport:
    """Run a staged ATPG campaign over *circuit* (the implementation).

    Provide either *faults* (a materialized list, engine-style) or a
    *universe* (the streaming path); with neither, the full structural
    fault universe of the circuit is streamed.  This is what
    :meth:`repro.api.AtpgSession.campaign` executes.  An optional
    :class:`CampaignControl` lets the host observe round progress and
    stop the run at a round boundary with a resumable checkpoint (the
    service's job queue uses this for cancel and graceful shutdown).
    """
    options = options or Options()
    if universe is None:
        if faults is not None:
            universe = FaultUniverse.from_faults(faults)
        else:
            universe = FaultUniverse.from_circuit(circuit)
    elif faults is not None:
        raise ValueError("pass either faults or universe, not both")
    circuit.compiled()  # lower once; the bus and the executor share it
    return _Campaign(circuit, universe, test_class, options, control).run()

