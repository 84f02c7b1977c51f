"""Shard execution: supervised lane-width batches, in-process.

The campaign schedule (see :mod:`repro.campaign.runner`) is a sequence
of *rounds*; each round is ``shards`` independent units of generation
work — FPTPG batches of up to ``width`` faults, or single-fault APTPG
searches.  :class:`SerialExecutor` runs one round's shards in the
calling process, in order, and returns one plain :class:`ShardResult`
per shard (never a ``TpgState``).

**One engine per executor.**  The executor owns one 3-valued C TPG
engine (:class:`repro.core.state.TpgEngine`) at the campaign width,
built on first use.  On the ``native/c`` tier a nonrobust APTPG shard
is one call on it (:func:`repro.core.aptpg.aptpg_record`, which resets
the engine for every screen chunk and search) and an FPTPG shard is a
reset plus one call (:func:`repro.core.fptpg.fptpg_record`); the tested
lanes come back as pattern rows read straight from the engine's
primary-input planes, and the shard returns its :class:`ShardResult`
without building a ``TpgState`` or an outcome.  Every shard starts
from an engine reset to the campaign width, so it stays a pure
function of its payload: a retried shard is bit-identical.
Robust shards and the Python tiers run :func:`run_fptpg` /
:func:`run_aptpg` as before (their oracles), and their rows are decoded
from the pattern tuples.

**Supervision.**  Long campaigns must survive losing pieces.  Every
shard runs under a :class:`Supervision` policy:

* a shard that **raises** is retried with exponential backoff plus
  deterministic jitter (``shard_retries``), because generation is a
  pure function of the shard payload — a successful retry is
  bit-identical to a never-failed run;
* a shard still failing after ``shard_attempts`` attempts is
  **quarantined** (``quarantined_shards``): its :class:`ShardResult`
  carries ``skipped_error`` statuses and an error envelope instead of
  crashing the round, and the runner settles its faults accordingly.

Failures are injected deterministically through :mod:`repro.chaos`:
the ``shard_error`` site is queried once per shard attempt, so its
``at`` indices number attempts, retries included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..chaos import maybe_raise
from ..circuit import Circuit
from ..core.aptpg import STATUSES, aptpg_record, run_aptpg
from ..core.controllability import compute_controllability
from ..core.fptpg import fptpg_record, run_fptpg
from ..core.patterns import Rows, TestPattern
from ..core.results import FaultStatus
from ..core.state import THREE_VALUED, TpgEngine, tpg_tier
from ..kernel.packed import pattern_rows
from ..paths import PathDelayFault, TestClass


@dataclass
class Supervision:
    """Shard-supervision policy (never outcome-relevant).

    Attributes:
        attempts: attempts per shard before quarantine.
        retry_base_ms: exponential-backoff base — retry *n* sleeps
            ``retry_base_ms * 2**(n-1)`` plus deterministic jitter.
    """

    attempts: int = 3
    retry_base_ms: float = 50.0

    def backoff_s(self, shard_index: int, attempt: int) -> float:
        """Backoff before re-running *shard_index*'s *attempt*-th try.

        The jitter term decorrelates retries without randomness: a
        Knuth-hash of (shard, attempt) spreads sleeps over +0..25% of
        the base, identically on every run.
        """
        if self.retry_base_ms <= 0:
            return 0.0
        base = (self.retry_base_ms / 1000.0) * (2 ** max(0, attempt - 1))
        jitter = ((shard_index * 2654435761 + attempt * 40503) % 1024) / 4096.0
        return base * (1.0 + jitter)


@dataclass
class ShardResult:
    """Outcome of one generation shard.

    For an FPTPG shard the lists are parallel to the batch's faults;
    for an APTPG shard they have length one.  ``rows`` holds the (V1,
    V2) uint8 rows of the shard's tested patterns, in order (``None``
    when it tested none): the drop bus appends them to its pattern
    table as they are.  A quarantined shard (supervision gave up after
    repeated failures) carries ``skipped_error`` statuses, no patterns,
    and the ``error`` envelope describing the last failure.
    """

    statuses: List[FaultStatus]
    patterns: List[Optional[TestPattern]]
    decisions: int = 0
    backtracks: int = 0
    implication_passes: int = 0
    seconds_sensitize: float = 0.0
    error: Optional[dict] = None
    rows: Optional[Rows] = None


def _tuple_rows(
    patterns: Sequence[Optional[TestPattern]],
) -> Optional[Rows]:
    """The rows of a shard's tested tuple patterns, through the codec."""
    tested = [pattern for pattern in patterns if pattern is not None]
    return pattern_rows(tested) if tested else None


def _quarantined(n_faults: int, error: dict) -> ShardResult:
    """The ShardResult of a shard supervision gave up on."""
    return ShardResult(
        statuses=[FaultStatus.SKIPPED_ERROR] * n_faults,
        patterns=[None] * n_faults,
        error=error,
    )


def error_envelope(exc: BaseException, attempts: int) -> dict:
    """The ``report.errors`` entry of a fault settled ``skipped_error``."""
    return {
        "error": type(exc).__name__,
        "detail": str(exc),
        "attempts": attempts,
    }


class SerialExecutor:
    """Run every shard of a round in the calling process, in order.

    Owns the campaign's generation state, built once: the lowered
    circuit, its controllability tables and the C TPG engine (see the
    module docstring).  :meth:`fptpg_shard` and :meth:`aptpg_shard` run
    one shard unsupervised; :meth:`run_fptpg` and :meth:`run_aptpg` run
    a round's shards under the :class:`Supervision` policy.
    """

    def __init__(
        self,
        circuit: Circuit,
        test_class: TestClass,
        width: int,
        use_backward: bool,
        backtrack_limit: int,
        fusion: str = "auto",
        supervision: Optional[Supervision] = None,
    ):
        self.circuit = circuit
        self.test_class = test_class
        self.width = width
        self.use_backward = use_backward
        self.backtrack_limit = backtrack_limit
        self.fusion = fusion
        self.supervision = supervision or Supervision()
        circuit.compiled()  # lower the netlist once
        self.controllability = compute_controllability(circuit)
        #: the C engine once built, ``False`` once shards cannot use one
        self._engine = None
        self._ranks = None
        self.shard_retries = 0
        self.quarantined_shards = 0

    def engine(self) -> Optional[TpgEngine]:
        """The executor's 3-valued C engine, built on first use.

        ``None`` where shards do not run on it: robust campaigns, and
        every tier but ``native/c`` (settled at the first shard).
        """
        engine = self._engine
        if engine is None:
            engine = False
            if self.test_class is TestClass.NONROBUST and (
                tpg_tier(self.width, self.fusion, THREE_VALUED) == "native/c"
            ):
                engine = TpgEngine(
                    self.circuit.compiled(), THREE_VALUED.n_planes, self.width,
                    self.use_backward,
                )
                self._ranks = engine.ranks(self.controllability)
            self._engine = engine
        return engine or None

    # ------------------------------------------------------------ shards
    def fptpg_shard(self, faults: Sequence[PathDelayFault]) -> ShardResult:
        engine = self.engine()
        if engine is not None:
            engine.reset()
            statuses, patterns, rows, decisions, seconds = fptpg_record(
                engine, faults, self._ranks, True
            )
            return ShardResult(
                statuses=statuses,
                patterns=patterns,
                decisions=decisions,
                implication_passes=engine.c.implication_passes,
                seconds_sensitize=seconds,
                rows=rows,
            )
        outcome = run_fptpg(
            self.circuit,
            list(faults),
            self.test_class,
            self.width,
            self.controllability,
            use_backward=self.use_backward,
            fusion=self.fusion,
        )
        return ShardResult(
            statuses=list(outcome.statuses),
            patterns=list(outcome.patterns),
            decisions=outcome.decisions,
            implication_passes=outcome.state.implication_passes,
            seconds_sensitize=outcome.seconds_sensitize,
            rows=_tuple_rows(outcome.patterns),
        )

    def aptpg_shard(self, fault: PathDelayFault) -> ShardResult:
        engine = self.engine()
        if engine is not None:
            run, pattern, rows = aptpg_record(
                engine, fault, self._ranks, self.backtrack_limit
            )
            return ShardResult(
                statuses=[STATUSES[run.status]],
                patterns=[pattern],
                decisions=run.decisions,
                backtracks=run.backtracks,
                implication_passes=run.implication_passes,
                seconds_sensitize=run.seconds_sensitize,
                rows=rows,
            )
        outcome = run_aptpg(
            self.circuit,
            fault,
            self.test_class,
            self.width,
            self.controllability,
            backtrack_limit=self.backtrack_limit,
            use_backward=self.use_backward,
            fusion=self.fusion,
        )
        return ShardResult(
            statuses=[outcome.status],
            patterns=[outcome.pattern],
            decisions=outcome.decisions,
            backtracks=outcome.backtracks,
            implication_passes=outcome.implication_passes,
            seconds_sensitize=outcome.seconds_sensitize,
            rows=_tuple_rows([outcome.pattern]),
        )

    # ------------------------------------------------------------ rounds
    def _supervised(
        self, run: Callable[[], ShardResult], index: int, n_faults: int
    ) -> ShardResult:
        policy = self.supervision
        for attempt in range(1, policy.attempts + 1):
            try:
                maybe_raise("shard_error")
                return run()
            except Exception as exc:  # noqa: BLE001 - supervision boundary
                if attempt >= policy.attempts:
                    self.quarantined_shards += 1
                    return _quarantined(n_faults, error_envelope(exc, attempt))
                self.shard_retries += 1
                backoff = policy.backoff_s(index, attempt)
                if backoff:
                    time.sleep(backoff)
        raise AssertionError("unreachable")  # pragma: no cover

    def run_fptpg(
        self, batches: Sequence[Sequence[PathDelayFault]]
    ) -> List[ShardResult]:
        return [
            self._supervised(
                lambda b=batch: self.fptpg_shard(b), k, len(batch)
            )
            for k, batch in enumerate(batches)
        ]

    def run_aptpg(
        self, faults: Sequence[PathDelayFault]
    ) -> List[ShardResult]:
        return [
            self._supervised(lambda f=fault: self.aptpg_shard(f), k, 1)
            for k, fault in enumerate(faults)
        ]
