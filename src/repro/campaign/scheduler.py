"""Shard execution: supervised lane-width batches, a round at a time.

The campaign schedule (see :mod:`repro.campaign.runner`) is a sequence
of *rounds*; each round is ``shards`` independent units of generation
work — FPTPG batches of up to ``width`` faults, or single-fault APTPG
searches.  :class:`SerialExecutor` runs one round's shards in the
calling process, in order, and returns one :class:`RoundResult`: each
fault's status and pattern, each shard's quarantine envelope, the
tested patterns' rows and the summed search counters.  A round names
its faults by their rows in the drop bus's
:class:`repro.paths.FaultTable` and its shards by bounds over them.

**One C call per round.**  The executor owns one 3-valued C TPG engine
(:class:`repro.core.state.TpgEngine`) at the campaign width, built on
first use.  On the ``native/c`` tier a nonrobust round is one call on
it (:meth:`TpgEngine.round`): every shard reads its paths from the
table's columns by row, starts from an engine reset to the campaign
width (an FPTPG batch) or resets for each of its states (an APTPG
fault), and leaves its verdicts, tested rows and counters in the
engine, so a retried shard is bit-identical and no ``TpgState``,
outcome or pattern tuple is built until the round is read back.
Robust rounds and the Python tiers run each shard through
:func:`run_fptpg` / :func:`run_aptpg` (their oracles, looked up here at
call time), and their rows are decoded from the pattern tuples.

**Supervision.**  Long campaigns must survive losing pieces.  Every
shard runs under a :class:`Supervision` policy:

* a shard that **raises** is retried with exponential backoff plus
  deterministic jitter (``shard_retries``), because generation is a
  pure function of the shard payload — a successful retry is
  bit-identical to a never-failed run;
* a shard still failing after ``shard_attempts`` attempts is
  **quarantined** (``quarantined_shards``): the round carries its
  error envelope instead of crashing, and the runner settles its
  faults ``skipped_error``.

Failures are injected deterministically through :mod:`repro.chaos`:
the ``shard_error`` site is queried once per shard attempt, so its
``at`` indices number attempts, retries included.  On the native tier
every shard's attempts are queried first, in shard order, and the one
round call then runs the shards that passed; a shard that fails inside
the call takes its next attempt from there, and the call resumes at it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..chaos import maybe_raise
from ..circuit import Circuit
from ..core.aptpg import DEFAULT_XOR_POLARITY_BITS, run_aptpg
from ..core.controllability import compute_controllability
from ..core.fptpg import run_fptpg
from ..core.patterns import Rows, TestPattern
from ..core.results import FaultStatus
from ..core.state import (
    ABORTED,
    DEFERRED,
    REDUNDANT,
    TESTED,
    THREE_VALUED,
    ShardFailure,
    TpgEngine,
    tpg_tier,
)
from ..kernel.packed import pattern_rows
from ..paths import FaultTable, PathDelayFault, TestClass

#: The :class:`FaultStatus` of each status code of a native round; a
#: skipped (quarantined) shard's faults read ``skipped_error``.
_STATUS = {
    0: FaultStatus.SKIPPED_ERROR,
    TESTED: FaultStatus.TESTED,
    REDUNDANT: FaultStatus.REDUNDANT,
    ABORTED: FaultStatus.ABORTED,
    DEFERRED: FaultStatus.DEFERRED,
}


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
    """Outcome of one shard on a Python tier (:meth:`SerialExecutor.fptpg_shard`,
    :meth:`SerialExecutor.aptpg_shard`).

    For an FPTPG shard the lists are parallel to the batch's faults;
    for an APTPG shard they have length one.
    """

    statuses: List[FaultStatus]
    patterns: List[Optional[TestPattern]]
    decisions: int = 0
    backtracks: int = 0
    implication_passes: int = 0
    seconds_sensitize: float = 0.0


@dataclass
class RoundResult:
    """Outcome of one generation round.

    ``statuses`` and ``patterns`` are parallel to the round's faults
    (``None`` where untested); ``errors`` holds each shard's error
    envelope, ``None`` unless supervision quarantined it (then its
    faults read ``skipped_error`` and have no patterns).  ``rows`` are
    the (V1, V2) uint8 rows of the tested patterns, in fault order
    (``None`` when none tested): the drop bus appends them to its
    pattern table as they are.  The counters sum the shards that were
    not quarantined.
    """

    statuses: List[FaultStatus]
    patterns: List[Optional[TestPattern]]
    errors: List[Optional[dict]]
    rows: Optional[Rows] = None
    decisions: int = 0
    backtracks: int = 0
    implication_passes: int = 0
    seconds_sensitize: float = 0.0


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
    module docstring).  :meth:`run_round` runs a round's shards under
    the :class:`Supervision` policy; :meth:`fptpg_shard` and
    :meth:`aptpg_shard` run one shard of a Python tier, unsupervised.
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

        ``None`` where rounds do not run on it: robust campaigns, and
        every tier but ``native/c`` (settled at the first round).
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
        )

    def aptpg_shard(self, fault: PathDelayFault) -> ShardResult:
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
        )

    # ------------------------------------------------------------ rounds
    def _attempt(
        self, index: int, attempt: int, failure: Optional[Exception] = None
    ) -> Tuple[int, Optional[dict]]:
        """Shard *index*'s next attempt that passes the ``shard_error`` query.

        *failure* is how attempt *attempt* failed (``None``: make
        attempt *attempt* now).  Each failed attempt is retried after
        its backoff until ``attempts`` ran out.  Returns ``(attempt,
        None)`` for the attempt that passed, or ``(attempt, envelope)``
        once the shard is quarantined.
        """
        policy = self.supervision
        while True:
            if failure is not None:
                if attempt >= policy.attempts:
                    self.quarantined_shards += 1
                    return attempt, error_envelope(failure, attempt)
                self.shard_retries += 1
                backoff = policy.backoff_s(index, attempt)
                if backoff:
                    time.sleep(backoff)
                attempt += 1
            try:
                maybe_raise("shard_error")
                return attempt, None
            except Exception as exc:  # noqa: BLE001 - supervision boundary
                failure = exc

    def run_round(
        self,
        aptpg: bool,
        table: FaultTable,
        rows: Sequence[int],
        bounds: Sequence[int],
    ) -> RoundResult:
        """Run one round's shards under supervision.

        The round's faults are rows *rows* of *table*; shard *k* is the
        faults at positions ``bounds[k]`` to ``bounds[k + 1] - 1`` — an
        FPTPG batch of up to :attr:`width` faults, or one APTPG fault
        when *aptpg*.
        """
        engine = self.engine()
        if engine is None:
            return self._python_round(aptpg, table, rows, bounds)
        n_shards = len(bounds) - 1
        attempts = [1] * n_shards
        errors: List[Optional[dict]] = [None] * n_shards
        for k in range(n_shards):
            try:
                maybe_raise("shard_error")
            except Exception as exc:  # noqa: BLE001 - supervision boundary
                attempts[k], errors[k] = self._attempt(k, 1, exc)
        first = 0
        while True:
            skip = bytes(map(bool, errors))
            try:
                run = engine.round(
                    aptpg, table, rows, bounds, skip, self._ranks,
                    self.backtrack_limit, DEFAULT_XOR_POLARITY_BITS, first,
                )
                break
            except ShardFailure as failure:
                first = failure.shard
                attempts[first], errors[first] = self._attempt(
                    first, attempts[first], failure.error
                )
        patterns: List[Optional[TestPattern]] = [None] * len(rows)
        block = None
        if run.tested:
            faults, raw = table.faults, run.rows
            n = self.circuit.compiled().n_inputs
            for start, position in zip(range(0, len(raw), 2 * n), run.tested):
                patterns[position] = TestPattern(
                    tuple(raw[start : start + n]),
                    tuple(raw[start + n : start + 2 * n]),
                    faults[rows[position]],
                )
            block = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 2 * n)
        return RoundResult(
            statuses=[_STATUS[code] for code in run.codes],
            patterns=patterns,
            errors=errors,
            rows=None if block is None else (block[:, :n], block[:, n:]),
            decisions=run.decisions,
            backtracks=run.backtracks,
            implication_passes=run.implication_passes,
            seconds_sensitize=run.seconds_sensitize,
        )

    def _python_round(
        self,
        aptpg: bool,
        table: FaultTable,
        rows: Sequence[int],
        bounds: Sequence[int],
    ) -> RoundResult:
        """:meth:`run_round` one shard at a time, each right after its query."""
        faults = [table.faults[row] for row in rows]
        result = RoundResult(
            statuses=[FaultStatus.SKIPPED_ERROR] * len(rows),
            patterns=[None] * len(rows),
            errors=[],
        )
        for k in range(len(bounds) - 1):
            batch = faults[bounds[k] : bounds[k + 1]]
            attempt, error = self._attempt(k, 1)
            while error is None:
                try:
                    if aptpg:
                        shard = self.aptpg_shard(batch[0])
                    else:
                        shard = self.fptpg_shard(batch)
                    break
                except Exception as exc:  # noqa: BLE001 - supervision boundary
                    attempt, error = self._attempt(k, attempt, exc)
            result.errors.append(error)
            if error is not None:
                continue
            result.statuses[bounds[k] : bounds[k + 1]] = shard.statuses
            result.patterns[bounds[k] : bounds[k + 1]] = shard.patterns
            result.decisions += shard.decisions
            result.backtracks += shard.backtracks
            result.implication_passes += shard.implication_passes
            result.seconds_sensitize += shard.seconds_sensitize
        tested = [pattern for pattern in result.patterns if pattern is not None]
        if tested:
            result.rows = pattern_rows(tested)
        return result
