"""Shard execution: supervised lane-width batches across a process pool.

The campaign schedule (see :mod:`repro.campaign.runner`) is a sequence
of *rounds*; each round is ``shards`` independent units of generation
work — FPTPG batches of up to ``width`` faults, or single-fault APTPG
searches.  This module executes one round's shards, either in-process
(:class:`SerialExecutor`) or on a :mod:`multiprocessing` pool
(:class:`PoolExecutor`).

Each pool worker receives the circuit once, at initialization, and
rebuilds the shared :class:`repro.kernel.CompiledCircuit` plus the
controllability tables exactly once; per-shard messages carry only the
fault structures in and plain :class:`ShardResult` records out (never a
``TpgState``), so IPC stays proportional to the work, not the circuit.
Shards are submitted with ``apply_async`` and collected *in submission
order*, which keeps the campaign's outcome independent of worker count
and timing.

**One engine per executor context.**  Every :class:`_WorkerContext` —
the serial executor's, and one per pool worker — owns one 3-valued C
TPG engine (:class:`repro.core.state.TpgEngine`) at the campaign width,
built on first use.  On the ``native/c`` tier a nonrobust APTPG shard
is one call on it (:func:`repro.core.aptpg.aptpg_record`, which resets
the engine for every screen chunk and search) and an FPTPG shard is a
reset plus one call (:func:`repro.core.fptpg.fptpg_record`); the tested
lanes come back as pattern rows read straight from the engine's
primary-input planes, and the shard returns its :class:`ShardResult`
without building a ``TpgState`` or an outcome.  Every shard starts
from an engine reset to the campaign width, so it stays a pure
function of its payload: a retried or reordered shard is bit-identical.
Robust shards and the Python tiers run :func:`run_fptpg` /
:func:`run_aptpg` as before (their oracles), and their rows are decoded
from the pattern tuples.

**Supervision.**  Long campaigns must survive losing pieces.  Every
shard runs under a :class:`Supervision` policy:

* a per-shard wall-clock **deadline** (``shard_deadline_s``) catches
  both hung shards and killed worker processes — in either case the
  shard's result never arrives, the pool is torn down and rebuilt
  (``worker_restarts``), and every uncollected shard of the round is
  resubmitted;
* a shard that **raises** is retried with exponential backoff plus
  deterministic jitter (``shard_retries``), because generation is a
  pure function of the shard payload — a successful retry is
  bit-identical to a never-failed run;
* a shard still failing after ``shard_attempts`` attempts is
  **quarantined** (``quarantined_shards``): its :class:`ShardResult`
  carries ``skipped_error`` statuses and an error envelope instead of
  crashing the round, and the runner settles its faults accordingly.

Failures are injected deterministically through :mod:`repro.chaos`
(sites ``shard_crash`` / ``shard_hang`` / ``shard_error``): the
*submitting* process decides per submission, and the decision travels
to the worker inside the task payload, so schedules are independent of
which worker picks up which shard.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..chaos import ChaosError, shard_action
from ..circuit import Circuit
from ..core.aptpg import STATUSES, aptpg_record, run_aptpg
from ..core.controllability import Controllability, compute_controllability
from ..core.fptpg import fptpg_record, run_fptpg
from ..core.patterns import Rows, TestPattern
from ..core.results import FaultStatus
from ..core.state import THREE_VALUED, TpgEngine, tpg_tier
from ..kernel.packed import pattern_rows
from ..paths import PathDelayFault, TestClass

#: How long an injected ``shard_hang`` sleeps.  The supervising parent
#: is expected to kill it at the shard deadline long before this; the
#: cap just bounds the damage if a hang is injected without one.
_HANG_SECONDS = 60.0


@dataclass
class Supervision:
    """Worker-supervision policy (never outcome-relevant).

    Attributes:
        deadline_s: per-shard wall-clock deadline; a shard whose
            result hasn't arrived by then is presumed lost (hung or
            its worker died) and the pool is rebuilt.  ``None``
            disables the watchdog (the pre-supervision behavior).
        attempts: submission attempts per shard before quarantine.
        retry_base_ms: exponential-backoff base — retry *n* sleeps
            ``retry_base_ms * 2**(n-1)`` plus deterministic jitter.
    """

    deadline_s: Optional[float] = None
    attempts: int = 3
    retry_base_ms: float = 50.0

    def backoff_s(self, shard_index: int, attempt: int) -> float:
        """Backoff before re-submitting *shard_index*'s *attempt*-th try.

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
    """Outcome of one generation shard, cheap to pickle.

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


def _apply_chaos_action(action: Optional[str]) -> None:
    """Execute an injected failure inside the worker process."""
    if action is None:
        return
    if action == "shard_crash":
        os._exit(3)  # die without cleanup, like a real killed worker
    if action == "shard_hang":
        time.sleep(_HANG_SECONDS)
        return
    raise ChaosError(f"chaos: injected fault at site {action!r}")


@dataclass
class _WorkerContext:
    """Per-process generation state, built once per worker.

    Owns the executor's C TPG engine (see the module docstring).
    """

    circuit: Circuit
    test_class: TestClass
    width: int
    use_backward: bool
    backtrack_limit: int
    fusion: str = "auto"
    controllability: Controllability = field(init=False)
    #: the C engine once built, ``False`` once shards cannot use one
    _engine: object = field(init=False, default=None)
    _ranks: object = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.circuit.compiled()  # lower the netlist once per process
        self.controllability = compute_controllability(self.circuit)

    def engine(self) -> Optional[TpgEngine]:
        """The context's 3-valued C engine, built on first use.

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


# ---------------------------------------------------------------------------
# pool worker plumbing (module-level for picklability)
# ---------------------------------------------------------------------------

_WORKER: Optional[_WorkerContext] = None


def _init_worker(
    circuit: Circuit,
    test_class: TestClass,
    width: int,
    use_backward: bool,
    backtrack_limit: int,
    fusion: str,
) -> None:
    global _WORKER
    _WORKER = _WorkerContext(
        circuit, test_class, width, use_backward, backtrack_limit, fusion
    )


def _pool_fptpg(task) -> ShardResult:
    faults, action = task
    assert _WORKER is not None, "worker pool not initialized"
    _apply_chaos_action(action)
    return _WORKER.fptpg_shard(faults)


def _pool_aptpg(task) -> ShardResult:
    fault, action = task
    assert _WORKER is not None, "worker pool not initialized"
    _apply_chaos_action(action)
    return _WORKER.aptpg_shard(fault)


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------


class SerialExecutor:
    """Run every shard in the calling process (workers = 1).

    The same retry/quarantine policy applies as on the pool; injected
    ``shard_crash``/``shard_hang`` actions degrade to an in-process
    raise (the calling process cannot kill or stall itself without
    taking the campaign down — the pool executor is where those two
    are meaningful).
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
        self._context = _WorkerContext(
            circuit, test_class, width, use_backward, backtrack_limit, fusion
        )
        self.supervision = supervision or Supervision()
        self.worker_restarts = 0
        self.shard_retries = 0
        self.quarantined_shards = 0

    def _supervised(
        self, run: Callable[[], ShardResult], index: int, n_faults: int
    ) -> ShardResult:
        policy = self.supervision
        for attempt in range(1, policy.attempts + 1):
            action = shard_action()
            try:
                if action is not None:
                    raise ChaosError(
                        f"chaos: injected fault at site {action!r}"
                    )
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
                lambda b=batch: self._context.fptpg_shard(b), k, len(batch)
            )
            for k, batch in enumerate(batches)
        ]

    def run_aptpg(
        self, faults: Sequence[PathDelayFault]
    ) -> List[ShardResult]:
        return [
            self._supervised(
                lambda f=fault: self._context.aptpg_shard(f), k, 1
            )
            for k, fault in enumerate(faults)
        ]

    def close(self) -> None:
        pass


class PoolExecutor:
    """Run shards on a supervised multiprocessing pool (workers >= 2).

    Prefers the ``fork`` start method (workers inherit the already
    compiled circuit copy-on-write); falls back to the platform
    default, where the initializer rebuilds it from the pickled
    circuit.

    Shards are submitted with ``apply_async`` and collected in
    submission order under the supervision policy's per-shard
    deadline.  A missed deadline means the shard's worker hung or
    died: the whole pool is terminated and rebuilt (in-flight results
    of the round are lost and resubmitted — regeneration is
    deterministic, so nothing changes but wall-clock), while a raised
    exception retries just that shard with backoff.  Either way a
    shard that keeps failing is quarantined rather than allowed to
    take the campaign down.
    """

    def __init__(
        self,
        circuit: Circuit,
        test_class: TestClass,
        width: int,
        use_backward: bool,
        backtrack_limit: int,
        workers: int,
        fusion: str = "auto",
        supervision: Optional[Supervision] = None,
    ):
        circuit.compiled()  # compile before fork so children inherit it
        self._initargs = (
            circuit, test_class, width, use_backward, backtrack_limit, fusion
        )
        self._workers = workers
        self.supervision = supervision or Supervision()
        self.worker_restarts = 0
        self.shard_retries = 0
        self.quarantined_shards = 0
        self._pool = self._make_pool()

    def _make_pool(self):
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        return context.Pool(
            processes=self._workers,
            initializer=_init_worker,
            initargs=self._initargs,
        )

    def _rebuild_pool(self) -> None:
        """Tear down the (hung/broken) pool and start a fresh one."""
        self.worker_restarts += 1
        try:
            self._pool.terminate()
            self._pool.join()
        except Exception:  # pragma: no cover - best-effort teardown
            pass
        self._pool = self._make_pool()

    def _execute(self, fn, payloads: List) -> List[ShardResult]:
        """Run one round's shards under supervision, order-preserving."""
        policy = self.supervision
        n = len(payloads)
        results: List[Optional[ShardResult]] = [None] * n
        attempts = [0] * n
        pending = set(range(n))

        def submit(index: int):
            attempts[index] += 1
            return self._pool.apply_async(
                fn, ((payloads[index], shard_action()),)
            )

        futures = {index: submit(index) for index in range(n)}
        while pending:
            index = min(pending)  # collect in submission order
            try:
                results[index] = futures[index].get(timeout=policy.deadline_s)
                pending.discard(index)
                continue
            except multiprocessing.TimeoutError:
                # hung shard or dead worker: the result will never
                # arrive.  Rebuild the pool; every uncollected shard
                # of the round is lost with it and resubmitted.
                self._rebuild_pool()
                if attempts[index] >= policy.attempts:
                    self.quarantined_shards += 1
                    results[index] = _quarantined(
                        _payload_size(payloads[index]),
                        {
                            "error": "ShardTimeout",
                            "detail": (
                                f"shard exceeded the {policy.deadline_s}s "
                                f"deadline {attempts[index]} time(s)"
                            ),
                            "attempts": attempts[index],
                        },
                    )
                    pending.discard(index)
                else:
                    self.shard_retries += 1
                futures = {j: submit(j) for j in sorted(pending)}
            except Exception as exc:  # noqa: BLE001 - supervision boundary
                # the shard raised inside a healthy worker: retry it
                # alone, with backoff, then quarantine
                if attempts[index] >= policy.attempts:
                    self.quarantined_shards += 1
                    results[index] = _quarantined(
                        _payload_size(payloads[index]),
                        error_envelope(exc, attempts[index]),
                    )
                    pending.discard(index)
                else:
                    self.shard_retries += 1
                    backoff = policy.backoff_s(index, attempts[index])
                    if backoff:
                        time.sleep(backoff)
                    futures[index] = submit(index)
        return results  # type: ignore[return-value] - all slots filled

    def run_fptpg(
        self, batches: Sequence[Sequence[PathDelayFault]]
    ) -> List[ShardResult]:
        return self._execute(_pool_fptpg, [list(b) for b in batches])

    def run_aptpg(
        self, faults: Sequence[PathDelayFault]
    ) -> List[ShardResult]:
        return self._execute(_pool_aptpg, list(faults))

    def close(self) -> None:
        self._pool.close()
        self._pool.join()


def _payload_size(payload) -> int:
    """Fault count of a shard payload (batch list vs single fault)."""
    return len(payload) if isinstance(payload, list) else 1


def make_executor(
    circuit: Circuit,
    test_class: TestClass,
    width: int,
    use_backward: bool,
    backtrack_limit: int,
    workers: int,
    fusion: str = "auto",
    supervision: Optional[Supervision] = None,
):
    """The executor for *workers* processes (1 = in-process)."""
    if workers <= 1:
        return SerialExecutor(
            circuit, test_class, width, use_backward, backtrack_limit, fusion,
            supervision,
        )
    return PoolExecutor(
        circuit, test_class, width, use_backward, backtrack_limit, workers,
        fusion, supervision,
    )
