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
``imply``.  On the ``native/c`` engine the whole batch is one C call,
:meth:`TpgEngine.fptpg`: the sensitization of every lane (a robust batch
is still sensitized here first), the implication, the loop and the
masks the verdicts below are read from, the lanes whose path has an
XOR side among them; the tested lanes are then read back as pattern
rows in one vectorized pass: :func:`fptpg_record`, which
:func:`run_fptpg` runs on a fresh :class:`TpgState`'s engine.  A
campaign runs its batches through :meth:`TpgEngine.round` instead,
whole rounds of them in one C call with the same verdicts.  The loop
here is its oracle and the engine of every other tier, which extracts
each pattern with :func:`repro.core.patterns.extract_pattern`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..circuit import Circuit
from ..logic.words import mask_for
from ..paths import PathDelayFault, TestClass
# objective_for_lane and objective_group are importable from here too
from .backtrace import PiObjective, objective_for_lane, objective_group  # noqa: F401
from .controllability import Controllability, compute_controllability
from .patterns import Rows, TestPattern, engine_patterns, extract_pattern
from .results import FaultStatus
from .sensitize import sensitize_nonrobust, sensitize_robust, xor_side_signals
from .state import SEVEN_VALUED, THREE_VALUED, TpgEngine, TpgState


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


def run_fptpg(
    circuit: Circuit,
    faults: Sequence[PathDelayFault],
    test_class: TestClass,
    width: int,
    controllability: Optional[Controllability] = None,
    use_backward: bool = True,
    fusion: str = "auto",
) -> FptpgOutcome:
    """One FPTPG batch: up to *width* faults, one lane each."""
    if not faults:
        raise ValueError("run_fptpg needs at least one fault")
    if len(faults) > width:
        raise ValueError(f"{len(faults)} faults do not fit in {width} lanes")
    _, algebra = sensitizer_for(test_class)
    cc = controllability or compute_controllability(circuit)
    state = TpgState(
        circuit, algebra, width, use_backward=use_backward, fusion=fusion
    )
    native = state.engine is not None
    sensitize_in_c = native and algebra is THREE_VALUED
    seconds_sensitize = 0.0
    if not sensitize_in_c:
        t0 = time.perf_counter()
        for lane, fault in enumerate(faults):
            state.sensitize(fault, 1 << lane)
        seconds_sensitize = time.perf_counter() - t0

    if native:
        statuses, patterns, _rows, decisions, seconds = fptpg_record(
            state.engine, faults, state.engine.ranks(cc), sensitize_in_c
        )
        seconds_sensitize += seconds
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
        patterns = [None] * len(faults)
        for lane in tested:
            patterns[lane] = extract_pattern(state, lane, faults[lane])
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


def fptpg_record(
    engine: TpgEngine,
    faults: Sequence[PathDelayFault],
    ranks,
    sensitize: bool,
) -> Tuple[List[FaultStatus], List[Optional[TestPattern]], Optional[Rows], int, float]:
    """One FPTPG batch on a C *engine*, fault *k* in lane *k*.

    One :meth:`TpgEngine.fptpg` call on the engine as it stands (a
    robust batch arrives sensitized, else *sensitize*), then the
    verdicts and one row read of the tested lanes — no
    :class:`TpgState`.  Returns
    ``(statuses, patterns, rows, decisions, seconds_sensitize)``:
    *patterns* parallel to *faults* (``None`` where untested), *rows*
    the tested patterns' (V1, V2) rows in lane order (``None`` when none
    tested).  *ranks* is :meth:`TpgEngine.ranks` of the controllability.
    """
    decided, decisions, justified, xor_lanes, seconds = engine.fptpg(
        faults, ranks, sensitize
    )
    statuses, tested = _verdicts(
        len(faults), engine.c.conflict_mask, decided, xor_lanes, justified
    )
    patterns: List[Optional[TestPattern]] = [None] * len(faults)
    rows = None
    if tested:
        found, rows = engine_patterns(engine, tested, [faults[k] for k in tested])
        for lane, pattern in zip(tested, found):
            patterns[lane] = pattern
    return statuses, patterns, rows, decisions, seconds


def _justify(
    state: TpgState, cc: Controllability, n_faults: int
) -> Tuple[int, int, int]:
    """The batch loop on a sensitized state, lanes ``0..n_faults-1``.

    Returns ``(decided, decisions, justified)``: the lanes that took an
    optional assignment, the decision count and the conflict-free,
    justified lanes.  :meth:`TpgState.fptpg` runs it in C.
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
