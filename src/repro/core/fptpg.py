"""Fault-parallel test pattern generation — FPTPG (paper Section 3.1).

``L`` different path delay faults occupy the ``L`` bit lanes of one
word-level circuit state.  All paths are sensitized at once, one
implication fixpoint serves all lanes, and the justification loop runs
"as long as there is at least one logic value that is not justified".

FPTPG never backtracks.  The per-lane outcomes are exactly the three
cases of the paper's Figure 1 discussion:

* a lane whose values are all justified is **tested** (a pattern is
  extracted from that bit level),
* a lane that conflicts *before any optional assignment* is
  **redundant** — the implications that led to the conflict were all
  necessary,
* a lane that conflicts *after* optional assignments (or where the
  backtrace cannot advance) would need backtracking and is **deferred**
  to APTPG.

Each turn of the loop is one :meth:`TpgState.decide` step — the first
unjustified signal, its lowest live lane's objective, the lanes sharing
that objective, and the backtrace to a primary input — followed by one
``assign`` of the primary-input objective to the whole group and one
``imply``.  On the ``native/c`` engine a nonrobust batch is one C call,
the one shard of a :meth:`TpgEngine.round` on a fresh state's engine
(:func:`one_shard`): the sensitization of every lane, the implication,
the loop, the verdicts below and the tested lanes' pattern rows, as a
campaign runs whole rounds of batches.  A robust batch is sensitized
here and its loop is one :meth:`TpgEngine.fptpg` call, its tested lanes
read back as rows in one vectorized pass
(:meth:`TpgEngine.input_rows`).  The loop here is their oracle and the
engine of every other tier, which extracts each pattern with
:func:`repro.core.patterns.extract_pattern`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..circuit import Circuit
from ..logic.words import mask_for
from ..paths import PathDelayFault, TestClass
# objective_for_lane and objective_group are importable from here too
from .backtrace import PiObjective, objective_for_lane, objective_group  # noqa: F401
from .controllability import Controllability, compute_controllability
from .patterns import TestPattern, extract_pattern, patterns_from_rows, round_patterns
from .results import FaultStatus
from .sensitize import sensitize_nonrobust, sensitize_robust, xor_side_signals
from .state import (
    ABORTED,
    DEFERRED,
    REDUNDANT,
    SEVEN_VALUED,
    TESTED,
    THREE_VALUED,
    RoundRun,
    ShardFailure,
    TpgEngine,
    TpgState,
    check_paths,
)

#: The :class:`FaultStatus` of each status code of :meth:`TpgEngine.round`
#: and :meth:`TpgState.search`; a skipped (quarantined) shard's faults
#: read ``skipped_error``.
STATUSES = {
    0: FaultStatus.SKIPPED_ERROR,
    TESTED: FaultStatus.TESTED,
    REDUNDANT: FaultStatus.REDUNDANT,
    ABORTED: FaultStatus.ABORTED,
    DEFERRED: FaultStatus.DEFERRED,
}


@dataclass
class FptpgOutcome:
    """Per-lane results of one FPTPG batch."""

    statuses: List[FaultStatus]
    patterns: List[Optional[TestPattern]]
    state: TpgState
    decisions: int = 0
    seconds_sensitize: float = 0.0


def pi_assignment_planes(state: TpgState, objective: PiObjective, lanes: int) -> Tuple[int, ...]:
    """Plane additions that apply *objective* at its PI in *lanes*.

    For the robust logic the stable bit is only added in lanes where
    the input is not already known-instable (e.g. the path input),
    preventing spurious conflicts.
    """
    zeros = lanes if objective.value == 0 else 0
    ones = lanes if objective.value == 1 else 0
    if state.algebra.n_planes == 2:
        return (zeros, ones)
    stable = 0
    if objective.stable:
        stable = lanes & ~state.planes[objective.signal][3]
    return (zeros, ones, stable, 0)


def sensitizer_for(test_class: TestClass):
    """(sensitize function, algebra) for a test class."""
    if test_class is TestClass.ROBUST:
        return sensitize_robust, SEVEN_VALUED
    return sensitize_nonrobust, THREE_VALUED


def one_shard(
    engine: TpgEngine,
    aptpg: bool,
    faults: Sequence[PathDelayFault],
    cc: Controllability,
    backtrack_limit: int = 0,
    max_xor_polarity_bits: int = 0,
) -> Tuple[RoundRun, List[FaultStatus], List[Optional[TestPattern]]]:
    """*faults* as the one shard of a round on a 3-valued C *engine*.

    One :meth:`TpgEngine.round` call on the list of *faults*: an FPTPG
    batch, fault *k* in lane *k*, or with *aptpg* one fault's whole
    APTPG at *backtrack_limit* and *max_xor_polarity_bits*.  Returns
    the run and each fault's status and pattern.  A shard that fails
    raises its own error, not the :class:`ShardFailure` around it.
    """
    rows = list(range(len(faults)))
    try:
        run = engine.round(
            aptpg, faults, rows, [0, len(rows)], b"\0", engine.ranks(cc),
            backtrack_limit, max_xor_polarity_bits,
        )
    except ShardFailure as failure:
        raise failure.error from None
    statuses = [STATUSES[code] for code in run.codes]
    patterns = round_patterns(run, faults, rows, engine.compiled.n_inputs)
    return run, statuses, patterns


def run_fptpg(
    circuit: Circuit,
    faults: Sequence[PathDelayFault],
    test_class: TestClass,
    width: int,
    controllability: Optional[Controllability] = None,
    use_backward: bool = True,
    fusion: str = "auto",
) -> FptpgOutcome:
    """One FPTPG batch: up to *width* faults, one lane each.

    A nonrobust batch on the ``native/c`` engine is :func:`one_shard` on
    a fresh state's engine.  Path ids outside the circuit raise
    :class:`IndexError`, and a path that does not start at a primary
    input the :class:`ValueError` of
    :func:`repro.paths.table.path_input_error`, before any state is
    built (:func:`repro.core.state.check_paths`).
    """
    if not faults:
        raise ValueError("run_fptpg needs at least one fault")
    if len(faults) > width:
        raise ValueError(f"{len(faults)} faults do not fit in {width} lanes")
    check_paths(circuit, faults)
    _, algebra = sensitizer_for(test_class)
    cc = controllability or compute_controllability(circuit)
    state = TpgState(
        circuit, algebra, width, use_backward=use_backward, fusion=fusion
    )
    if state.engine is not None and algebra is THREE_VALUED:
        run, statuses, patterns = one_shard(state.engine, False, faults, cc)
        return FptpgOutcome(
            statuses, patterns, state, run.decisions, run.seconds_sensitize
        )
    t0 = time.perf_counter()
    for lane, fault in enumerate(faults):
        state.sensitize(fault, 1 << lane)
    seconds_sensitize = time.perf_counter() - t0
    engine = state.engine
    if engine is not None:  # a robust batch: the loop is one C call
        decided, decisions, justified, xor_lanes = engine.fptpg(
            faults, engine.ranks(cc)
        )
    else:
        decided, decisions, justified = _justify(state, cc, len(faults))
        conflicted = state.conflict_mask & ~decided
        xor_lanes = 0
        for lane, fault in enumerate(faults):
            if conflicted >> lane & 1 and xor_side_signals(circuit, fault):
                xor_lanes |= 1 << lane
    statuses, tested = _verdicts(
        len(faults), state.conflict_mask, decided, xor_lanes, justified
    )
    if engine is not None and tested:  # one vectorized row read
        v1, v2 = engine.input_rows(tested)
        found = patterns_from_rows(v1, v2, [faults[lane] for lane in tested])
    else:
        found = [extract_pattern(state, lane, faults[lane]) for lane in tested]
    patterns: List[Optional[TestPattern]] = [None] * len(faults)
    for lane, pattern in zip(tested, found):
        patterns[lane] = pattern
    return FptpgOutcome(
        statuses=statuses,
        patterns=patterns,
        state=state,
        decisions=decisions,
        seconds_sensitize=seconds_sensitize,
    )


def _verdicts(
    n_faults: int, conflicted: int, decided: int, xor_lanes: int, justified: int
) -> Tuple[List[FaultStatus], List[int]]:
    """Each lane's status, and the tested lanes in order.

    A conflicted lane is redundant unless it took an optional assignment
    or its path has an XOR side (a conflict under one polarity choice
    proves nothing): then it is deferred, like a lane left unjustified.
    """
    statuses: List[FaultStatus] = []
    tested: List[int] = []
    for lane in range(n_faults):
        bit = 1 << lane
        if conflicted & bit:
            if (decided | xor_lanes) & bit:
                statuses.append(FaultStatus.DEFERRED)
            else:
                statuses.append(FaultStatus.REDUNDANT)
        elif justified & bit:
            statuses.append(FaultStatus.TESTED)
            tested.append(lane)
        else:
            statuses.append(FaultStatus.DEFERRED)
    return statuses, tested


def _justify(
    state: TpgState, cc: Controllability, n_faults: int
) -> Tuple[int, int, int]:
    """The batch loop on a sensitized state, lanes ``0..n_faults-1``.

    Returns ``(decided, decisions, justified)``: the lanes that took an
    optional assignment, the decision count and the conflict-free,
    justified lanes.  :meth:`TpgEngine.fptpg` runs it in C.
    """
    used_mask = mask_for(n_faults)
    state.imply(stop_when_all_conflicted=False)

    decided = 0
    stuck = 0
    decisions = 0
    guard = state.circuit.num_signals * max(1, n_faults) + 64
    while guard:
        guard -= 1
        live = used_mask & ~state.conflict_mask & ~stuck
        if not live:
            break
        step = state.decide(cc, live, group=True)
        if step is None:
            break
        rep, group, pi_objective = step
        if pi_objective is None:
            stuck |= group
            continue
        additions = pi_assignment_planes(state, pi_objective, group)
        decided |= group
        decisions += 1
        if not state.assign(pi_objective.signal, additions):
            stuck |= 1 << rep
            continue
        state.imply(stop_when_all_conflicted=False)
    return decided, decisions, state.all_justified_mask() & used_mask
