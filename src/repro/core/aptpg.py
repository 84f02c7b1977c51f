"""Alternative-parallel test pattern generation — APTPG (Section 3.2).

One *hard* fault occupies all ``L`` bit lanes.  Whenever the backtrace
asks for an optional primary-input assignment, the first
``floor(log2 L)`` decisions are not guessed but *split across the
lanes*: decision ``k`` assigns 0 in every lane whose index has bit
``k`` clear and 1 where it is set, so all ``2^k`` combinations are
examined simultaneously — the paper's "we examine all four
possibilities in four bit-levels at one time".

Beyond ``log2 L`` decisions the generator "proceeds with conventional
backtracking on all bit levels simultaneously": further decisions are
uniform across lanes, checkpointed on a trail, and flipped/popped when
every lane has conflicted.  The fault is

* **tested** as soon as one lane is conflict-free and fully justified
  ("As there is at least one bit level without conflict the path is
  tested"),
* **redundant** when every lane conflicts and the decision space is
  exhausted (split lanes already enumerate all combinations of the
  split inputs, so this exhaustion argument is the standard PODEM
  completeness argument), and
* **aborted** when the backtrack limit is hit or no objective can be
  advanced.

**XOR polarities.**  Off-path inputs of on-path XOR/XNOR gates are
free polarity choices: either value propagates the transition (with
inverted polarity downstream).  A conflict under one polarity
assignment proves nothing, so the driver enumerates the polarity
combinations — the fault is redundant only when *every* combination
is refuted, tested as soon as any combination yields a pattern, and
aborted when the combination space is too large to enumerate (more
than ``max_xor_polarity_bits`` sides: one combination is searched and
its failure is an abort).

Most combinations die on necessary implications alone, so they are
screened the paper's way, "in different bit-levels at one time":
combination ``c`` of ``2^k`` goes to lane ``c % 64`` of screen state
``c // 64`` (side ``k`` is 1 in the lanes whose combination has bit
``k`` set — within a chunk, the partition of
:func:`repro.logic.words.split_masks`), so a screen state never
exceeds one machine word and runs on the C engine where it loads.
One sensitizer call and one ``imply()`` per chunk cover its lanes,
and each conflicted lane refutes its combination.  Lanes are
independent and the implication rules monotone, so a lane conflicts
exactly when that combination's own state would, whichever chunk
holds it.  Only the survivors run the full search above, one after
another in combination order, each with every lane to itself.

On the ``native/c`` engine a nonrobust fault is one C call, the one
shard of a :meth:`TpgEngine.round` on a fresh state's engine
(:func:`repro.core.fptpg.one_shard`): it derives the XOR sides from the
fanin CSR, screens the combinations, searches the survivors and writes
a tested lane's pattern rows, on one engine (a campaign runs whole
rounds of faults).  A robust fault is still sensitized here, chunk by
chunk and survivor by survivor, but each survivor's search is one C
call too, :meth:`TpgState.search`.  The loops below stay as their
oracle and as the engine of every other tier, where a search step is
one :meth:`TpgState.decide` call and the split or uniform assignment,
the checkpoints and the backtracking are ``assign``, ``mark``,
``rollback`` and ``imply`` calls on the state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit import Circuit
from ..logic.words import lowest_set_lane, mask_for, split_masks
from ..paths import PathDelayFault, TestClass
from .backtrace import PiObjective
from .controllability import Controllability, compute_controllability
from .fptpg import STATUSES, one_shard, pi_assignment_planes, sensitizer_for
from .patterns import TestPattern, extract_pattern
from .results import FaultStatus
from .sensitize import xor_side_signals
from .state import (
    ABORTED,
    NATIVE_MAX_WIDTH,
    REDUNDANT,
    TESTED,
    THREE_VALUED,
    SearchRun,
    TpgState,
    check_paths,
    check_xor_polarity_bits,
    tpg_tier,
)


@dataclass
class AptpgOutcome:
    """Result of one APTPG run on a single fault."""

    status: FaultStatus
    pattern: Optional[TestPattern]
    state: TpgState
    decisions: int = 0
    backtracks: int = 0
    splits_used: int = 0
    seconds_sensitize: float = 0.0
    #: implication passes over every state the run built (the polarity
    #: screen and each search), not just the returned one
    implication_passes: int = 0
    #: the XOR polarity combinations the screen passed, in combination
    #: order — ``[0]`` when nothing was screened (no XOR side, or too
    #: many); empty for a single search
    survivors: List[int] = field(default_factory=list)


#: The XOR polarity enumeration cap :func:`run_aptpg` and campaign
#: shards use unless told otherwise.
DEFAULT_XOR_POLARITY_BITS = 8


def _outcome(
    state: TpgState, fault: PathDelayFault, run: SearchRun, seconds: float
) -> AptpgOutcome:
    """The outcome of a search on *state*, sensitized in *seconds*; a
    tested lane is extracted."""
    status = STATUSES[run.status]
    pattern = None
    if status is FaultStatus.TESTED:
        pattern = extract_pattern(state, run.lane, fault)
    return AptpgOutcome(
        status,
        pattern,
        state,
        decisions=run.decisions,
        backtracks=run.backtracks,
        splits_used=run.splits_used,
        seconds_sensitize=seconds,
        implication_passes=run.implication_passes,
    )


def _split_assignment_planes(
    state: TpgState, pi: int, stable: bool, zeros: int, ones: int
) -> Tuple[int, ...]:
    """Planes assigning 0 in lanes *zeros* and 1 in lanes *ones*."""
    if state.algebra.n_planes == 2:
        return (zeros, ones)
    stable_add = 0
    if stable:
        stable_add = (zeros | ones) & ~state.planes[pi][3]
    return (zeros, ones, stable_add, 0)


def run_aptpg(
    circuit: Circuit,
    fault: PathDelayFault,
    test_class: TestClass,
    width: int,
    controllability: Optional[Controllability] = None,
    backtrack_limit: int = 64,
    use_backward: bool = True,
    fusion: str = "auto",
    max_xor_polarity_bits: int = DEFAULT_XOR_POLARITY_BITS,
) -> AptpgOutcome:
    """Generate (or refute) a test for one fault with lane alternatives.

    Screens the XOR side-input polarity combinations in lanes and
    searches the survivors (see the module docstring);
    ``max_xor_polarity_bits`` caps the enumeration at
    ``2**max_xor_polarity_bits`` combinations — beyond that one
    combination is searched and the fault is aborted rather than
    unsoundly declared redundant.  It must lie in ``[0, 16]``, else
    :class:`ValueError` before any state is built; so do path ids
    outside the circuit (:class:`IndexError`) and a path that does not
    start at a primary input (the :class:`ValueError` of
    :func:`repro.paths.table.path_input_error`,
    :func:`repro.core.state.check_paths`).  The returned state is the
    last search's, or the last screen chunk's when no combination
    survived the screen.  ``implication_passes`` counts every screen
    chunk and every search.  A nonrobust fault on the ``native/c``
    engine is :func:`repro.core.fptpg.one_shard` on a fresh state's
    engine: one C call.
    """
    check_xor_polarity_bits(max_xor_polarity_bits)
    check_paths(circuit, [fault])
    cc = controllability or compute_controllability(circuit)
    if test_class is TestClass.NONROBUST and tpg_tier(width, fusion) == "native/c":
        state = TpgState(
            circuit, THREE_VALUED, width, use_backward=use_backward, fusion=fusion
        )
        run, (status,), (pattern,) = one_shard(
            state.engine, True, [fault], cc, backtrack_limit, max_xor_polarity_bits
        )
        state.follow_engine()
        splits_used, survivors = state.engine.last_search()
        return AptpgOutcome(
            status,
            pattern,
            state,
            decisions=run.decisions,
            backtracks=run.backtracks,
            splits_used=splits_used,
            seconds_sensitize=run.seconds_sensitize,
            implication_passes=run.implication_passes,
            survivors=survivors,
        )
    sides = xor_side_signals(circuit, fault)
    exhaustive = len(sides) <= max_xor_polarity_bits
    survivors = [0]
    seconds_sensitize = 0.0
    implication_passes = 0
    last: Optional[AptpgOutcome] = None
    if exhaustive and sides:
        n_combos = 1 << len(sides)
        chunk = min(n_combos, NATIVE_MAX_WIDTH)  # a screen state stays in C
        survivors = []
        for first in range(0, n_combos, chunk):
            screen, seconds = _sensitized_state(
                circuit, fault, test_class, chunk,
                polarity_lanes(sides, first, chunk), use_backward, fusion,
            )
            seconds_sensitize += seconds
            implication_passes += screen.implication_passes
            live = screen.mask & ~screen.conflict_mask
            survivors += [first + c for c in range(chunk) if live >> c & 1]
        # the outcome when the screen refutes every combination
        last = AptpgOutcome(FaultStatus.REDUNDANT, None, screen)

    mask = mask_for(width)
    aborted = False
    decisions = 0
    backtracks = 0
    for combo in survivors:
        xor_sides = {s: mask if combo >> k & 1 else 0 for k, s in enumerate(sides)}
        last = _attempt(
            circuit, fault, test_class, width, cc, backtrack_limit,
            use_backward, xor_sides, fusion,
        )
        decisions += last.decisions
        backtracks += last.backtracks
        seconds_sensitize += last.seconds_sensitize
        implication_passes += last.implication_passes
        if last.status is FaultStatus.TESTED:
            break
        if last.status is FaultStatus.ABORTED:
            aborted = True
    assert last is not None
    status = last.status
    if status is not FaultStatus.TESTED:
        if aborted or not exhaustive:
            status = FaultStatus.ABORTED
        else:
            status = FaultStatus.REDUNDANT
    return AptpgOutcome(
        status,
        last.pattern if status is FaultStatus.TESTED else None,
        last.state,
        decisions=decisions,
        backtracks=backtracks,
        splits_used=last.splits_used,
        seconds_sensitize=seconds_sensitize,
        implication_passes=implication_passes,
        survivors=survivors,
    )


def polarity_lanes(
    sides: Sequence[int], first: int = 0, count: Optional[int] = None
) -> Dict[int, int]:
    """Lane masks putting polarity combination ``first + l`` in lane ``l``.

    Covers *count* combinations (default: all ``2**len(sides)``); *count*
    must be a power of two and *first* a multiple of it.  Side ``k`` is
    1 in the lanes whose combination has bit ``k`` set: the ``ones``
    half of :func:`split_masks` over *count* lanes for the low sides,
    all lanes or none for the sides above them.
    """
    if count is None:
        count = 1 << len(sides)
    splits = split_masks(count)
    everywhere = mask_for(count)
    return {
        side: splits[k][1] if k < len(splits) else everywhere * (first >> k & 1)
        for k, side in enumerate(sides)
    }


def _sensitized_state(
    circuit: Circuit,
    fault: PathDelayFault,
    test_class: TestClass,
    width: int,
    xor_sides: Dict[int, int],
    use_backward: bool,
    fusion: str,
) -> Tuple[TpgState, float]:
    """A fresh state with *fault* sensitized in every lane and implied.

    Returns the state and the seconds spent sensitizing.
    """
    _, algebra = sensitizer_for(test_class)
    state = TpgState(
        circuit, algebra, width, use_backward=use_backward, fusion=fusion
    )
    t0 = time.perf_counter()
    state.sensitize(fault, state.mask, xor_sides)
    seconds_sensitize = time.perf_counter() - t0
    state.imply()
    return state, seconds_sensitize


def _attempt(
    circuit: Circuit,
    fault: PathDelayFault,
    test_class: TestClass,
    width: int,
    cc: Controllability,
    backtrack_limit: int,
    use_backward: bool,
    xor_sides: Dict[int, int],
    fusion: str = "auto",
) -> AptpgOutcome:
    """One complete APTPG search under a fixed XOR polarity choice.

    *xor_sides* maps each XOR side input to the lanes where it is 1
    (all lanes or none: one polarity combination per search).
    """
    state, seconds_sensitize = _sensitized_state(
        circuit, fault, test_class, width, xor_sides, use_backward, fusion
    )
    if state.tier == "native/c":
        run = state.search(cc, backtrack_limit)
    else:
        run = _search(state, cc, backtrack_limit)
    return _outcome(state, fault, run, seconds_sensitize)


def _search(state: TpgState, cc: Controllability, backtrack_limit: int) -> SearchRun:
    """APTPG's checkpointed search from a sensitized state, in Python.

    Implies, then decides, checkpoints and backtracks until a lane is
    conflict-free and justified (see the module docstring).
    :meth:`TpgState.search` runs the same loop as one C call; this one
    is its oracle and the search of every other engine.
    """
    state.imply()
    if state.conflict_mask == state.mask:
        # conflict from necessary implications alone: redundant
        return SearchRun(REDUNDANT, 0, 0, 0, 0, state.implication_passes)

    splits = split_masks(state.width)
    splits_used = 0
    stack: List[Tuple[int, PiObjective, int]] = []  # (token, objective, tried)
    decisions = 0
    backtracks = 0
    stuck = 0
    guard = state.circuit.num_signals * state.width * 4 + 256

    def finish(status: int, lane: int = 0) -> SearchRun:
        return SearchRun(
            status, lane, decisions, backtracks, splits_used,
            state.implication_passes,
        )

    while guard:
        guard -= 1
        live = state.mask & ~state.conflict_mask
        if live:
            justified = state.all_justified_mask()
            if justified:
                return finish(TESTED, lowest_set_lane(justified))
        if not live:
            # every alternative in flight has contradicted: backtrack
            progressed = False
            while stack:
                token, objective, tried = stack.pop()
                backtracks += 1
                if backtracks > backtrack_limit:
                    return finish(ABORTED)
                state.rollback(token)
                if tried == 1:
                    flipped = PiObjective(
                        objective.signal, 1 - objective.value, objective.stable
                    )
                    token2 = state.mark()
                    state.assign(
                        flipped.signal,
                        pi_assignment_planes(state, flipped, state.mask),
                    )
                    stack.append((token2, flipped, 2))
                    state.imply()
                    progressed = True
                    break
            if not progressed:
                return finish(REDUNDANT)
            stuck = 0
            continue
        active = live & ~stuck
        if not active:
            return finish(ABORTED)
        step = state.decide(cc, active)
        if step is None:
            # active lanes are justified but the justified mask above
            # was empty: can only happen transiently — treat as abort
            return finish(ABORTED)
        rep, _lanes, pi_objective = step
        if pi_objective is None:
            stuck |= 1 << rep
            continue
        decisions += 1
        if splits_used < len(splits):
            zeros, ones = splits[splits_used]
            splits_used += 1
            additions = _split_assignment_planes(
                state, pi_objective.signal, pi_objective.stable, zeros, ones
            )
            if not state.assign(pi_objective.signal, additions):
                stuck |= 1 << rep
                continue
            state.imply()
            stuck = 0
        else:
            token = state.mark()
            changed = state.assign(
                pi_objective.signal,
                pi_assignment_planes(state, pi_objective, state.mask),
            )
            if not changed:
                state.rollback(token)
                stuck |= 1 << rep
                continue
            stack.append((token, pi_objective, 1))
            state.imply()
            stuck = 0
    return finish(ABORTED)
