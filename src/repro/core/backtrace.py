"""The decision step: from an unjustified value to a primary input.

FPTPG and APTPG run "as long as there is at least one logic value that
is not justified".  Each turn takes the first signal (in id order) with
an unjustified live lane, derives that lane's objective — the value,
and for the robust logic the stability, its gate still lacks
(:func:`objective_for_lane`; :func:`objective_group` collects the lanes
sharing it) — and backtraces it to a primary input.  The backtrace is
PODEM-style: it walks from the unjustified gate toward the primary
inputs, at each gate ranking the candidate inputs:

* to justify a *controlled* output value (AND = 0, OR = 1) the
  cheapest input by SCOAP controllability is preferred ("easiest
  first"),
* to justify the *non-controlled* value every input will eventually be
  needed, so the hardest unassigned one is preferred (fail fast),
* XOR gates pick an unassigned input; its required value is the parity
  completion when every other input is known, otherwise a guess,
* stability objectives (the robust logic's stable-bit) ride along:
  inputs already known-instable are never stability candidates, and
  inputs whose value is right but unproven-stable are *stability
  chase* candidates.

The walk is a depth-first search with fallback: if the preferred
branch dead-ends (everything in its cone already assigned the wrong
way in the inspected lane), the next candidate is tried before giving
up — a measurable reducer of aborted faults on reconvergent circuits.
A ``None`` return means no candidate branch can advance the objective.

:func:`decide` composes the three into one step.  It is the oracle of
:meth:`repro.core.state.TpgState.decide`, which on the C engine runs
the whole step as one call into the native module; the stuck-at
generator calls :func:`objective_for_lane` and :func:`backtrace`
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Set, Tuple

from ..circuit import GateType
from ..logic.words import lowest_set_lane
from .controllability import Controllability

if TYPE_CHECKING:  # the state module imports this one
    from .state import TpgState

Objective = Tuple[int, int, bool]  # (signal, value, need_stable)


@dataclass(frozen=True)
class PiObjective:
    """The backtrace result: assign *value* (and stability) at a PI."""

    signal: int
    value: int
    stable: bool


def objective_for_lane(state: TpgState, signal: int, lane: int) -> Optional[Tuple[int, bool]]:
    """Derive the (value, need_stable) objective of an unjustified lane.

    Returns ``None`` when the only missing aspect is instability, which
    the backtrace does not pursue: instability requirements only
    originate at the path input, which is a primary input and needs no
    justification.
    """
    gate = state.circuit.gates[signal]
    ins = [state.planes[f] for f in gate.fanin]
    miss = state.algebra.unjustified_planes(
        gate.gate_type, state.planes[signal], ins, state.mask
    )
    bits = [(m >> lane) & 1 for m in miss]
    out_bits = [(p >> lane) & 1 for p in state.planes[signal]]
    need_stable = len(bits) >= 4 and bool(out_bits[2])
    if bits[1]:
        return 1, need_stable
    if bits[0]:
        return 0, need_stable
    if len(bits) >= 4 and bits[2]:
        # stable bit missing; the value itself is assigned (or free)
        if out_bits[1]:
            return 1, True
        if out_bits[0]:
            return 0, True
        return 0, True  # value free: stabilize at 0 (an optional choice)
    return None


def objective_group(
    state: TpgState, signal: int, lanemask: int, rep: int
) -> Tuple[Optional[Tuple[int, bool]], int]:
    """Group the lanes of *lanemask* that share the rep lane's objective."""
    rep_objective = objective_for_lane(state, signal, rep)
    if rep_objective is None:
        return None, 1 << rep
    group = 0
    lanes = lanemask
    while lanes:
        lane = lowest_set_lane(lanes)
        lanes &= lanes - 1
        if objective_for_lane(state, signal, lane) == rep_objective:
            group |= 1 << lane
    return rep_objective, group


def decide(
    state: TpgState, cc: Controllability, lanes: int, group: bool = False
) -> Optional[Tuple[int, int, Optional[PiObjective]]]:
    """The decision step in Python, as :meth:`TpgState.decide` defines it.

    ``scan_unjustified(lanes)[0]``, its lowest lane *rep*, rep's
    objective (with *group*, the lanes sharing it) and the backtrace in
    lane rep.
    """
    unjustified = state.scan_unjustified(lanes)
    if not unjustified:
        return None
    signal, lanemask = unjustified[0]
    rep = lowest_set_lane(lanemask)
    if group:
        objective, chosen = objective_group(state, signal, lanemask, rep)
    else:
        objective, chosen = objective_for_lane(state, signal, rep), 1 << rep
    if objective is None:
        return rep, 1 << rep, None
    value, need_stable = objective
    return rep, chosen, backtrace(state, cc, signal, value, need_stable, rep)


def _lane_bits(state: TpgState, signal: int, lane: int) -> Tuple[int, ...]:
    return tuple((p >> lane) & 1 for p in state.planes[signal])


def _value_in_lane(state: TpgState, signal: int, lane: int) -> Optional[int]:
    bits = _lane_bits(state, signal, lane)
    if bits[0] and bits[1]:
        return None  # conflicted: caller should not be here
    if bits[1]:
        return 1
    if bits[0]:
        return 0
    return None


def _stability_free(state: TpgState, signal: int, lane: int) -> bool:
    """True when the signal can still be made stable in this lane."""
    if state.algebra.n_planes < 4:
        return True
    bits = _lane_bits(state, signal, lane)
    return not bits[3]  # not known-instable


def _is_stable(state: TpgState, signal: int, lane: int) -> bool:
    if state.algebra.n_planes < 4:
        return True
    return bool(_lane_bits(state, signal, lane)[2])


def backtrace(
    state: TpgState,
    controllability: Controllability,
    signal: int,
    value: int,
    need_stable: bool,
    lane: int,
) -> Optional[PiObjective]:
    """DFS from objective (*signal* = *value*) down to a primary input.

    Returns the primary-input assignment to try, or ``None`` when no
    branch of the objective can be advanced in this *lane*.
    """
    failed: Set[Objective] = set()
    # explicit DFS stack: (objective, iterator over its candidates)
    root: Objective = (signal, value, need_stable)
    stack: List[Tuple[Objective, Iterator[Objective]]] = []
    on_stack: Set[Objective] = set()

    def pi_result(objective: Objective) -> Optional[PiObjective]:
        sig, val, stable = objective
        current = _value_in_lane(state, sig, lane)
        if current is not None and current != val:
            return None  # contradicting assignment already present
        if current == val and (not stable or _is_stable(state, sig, lane)):
            return None  # nothing new to assign here
        if stable and not _stability_free(state, sig, lane):
            return None  # known-instable input cannot be stabilized
        return PiObjective(sig, val, stable)

    def open_node(objective: Objective) -> Optional[PiObjective]:
        """Push an internal node; return a PiObjective for PI hits."""
        sig, _val, _stable = objective
        if objective in failed or objective in on_stack:
            return None
        gate = state.circuit.gates[sig]
        if gate.is_input:
            result = pi_result(objective)
            if result is None:
                failed.add(objective)
            return result
        stack.append((objective, _candidates(state, controllability, objective, lane)))
        on_stack.add(objective)
        return None

    result = open_node(root)
    if result is not None:
        return result
    while stack:
        objective, candidates = stack[-1]
        advanced = False
        for candidate in candidates:
            result = open_node(candidate)
            if result is not None:
                return result
            if stack and stack[-1][0] != objective:
                advanced = True  # descended into an internal node
                break
        if not advanced:
            stack.pop()
            on_stack.discard(objective)
            failed.add(objective)
    return None


def _candidates(
    state: TpgState,
    cc: Controllability,
    objective: Objective,
    lane: int,
) -> Iterator[Objective]:
    """Yield this gate's candidate input objectives, best first."""
    signal, value, need_stable = objective
    gate = state.circuit.gates[signal]
    t = gate.gate_type
    if t is GateType.BUF:
        yield (gate.fanin[0], value, need_stable)
        return
    if t is GateType.NOT:
        yield (gate.fanin[0], 1 - value, need_stable)
        return
    if t in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
        target = value
        if t in (GateType.NAND, GateType.NOR):
            target = 1 - value
        if t in (GateType.AND, GateType.NAND):
            all_value, any_value = 1, 0
        else:
            all_value, any_value = 0, 1
        yield from _and_or_candidates(
            state, cc, gate.fanin, target, all_value, any_value, need_stable, lane
        )
        return
    if t in (GateType.XOR, GateType.XNOR):
        target = value
        if t is GateType.XNOR:
            target = 1 - value
        yield from _xor_candidates(state, cc, gate.fanin, target, need_stable, lane)
        return


def _and_or_candidates(
    state: TpgState,
    cc: Controllability,
    fanin: Tuple[int, ...],
    target: int,
    all_value: int,
    any_value: int,
    need_stable: bool,
    lane: int,
) -> Iterator[Objective]:
    if target == all_value:
        # every input must take all_value: hardest-first among the
        # value-unknown inputs, then stability-chase candidates
        unknown = [
            f
            for f in fanin
            if _value_in_lane(state, f, lane) is None
            and _stability_free(state, f, lane)
        ]
        unknown.sort(key=lambda f: -cc.cost(f, all_value))
        for f in unknown:
            yield (f, all_value, need_stable)
        if need_stable:
            chase = [
                f
                for f in fanin
                if _value_in_lane(state, f, lane) == all_value
                and not _is_stable(state, f, lane)
                and _stability_free(state, f, lane)
            ]
            chase.sort(key=lambda f: cc.cost(f, all_value))
            for f in chase:
                yield (f, all_value, True)
        return
    # one controlling input suffices: easiest-first
    unknown = [
        f
        for f in fanin
        if _value_in_lane(state, f, lane) is None
        and (not need_stable or _stability_free(state, f, lane))
    ]
    unknown.sort(key=lambda f: cc.cost(f, any_value))
    for f in unknown:
        yield (f, any_value, need_stable)
    if need_stable:
        chase = [
            f
            for f in fanin
            if _value_in_lane(state, f, lane) == any_value
            and not _is_stable(state, f, lane)
            and _stability_free(state, f, lane)
        ]
        chase.sort(key=lambda f: cc.cost(f, any_value))
        for f in chase:
            yield (f, any_value, True)


def _xor_candidates(
    state: TpgState,
    cc: Controllability,
    fanin: Tuple[int, ...],
    target: int,
    need_stable: bool,
    lane: int,
) -> Iterator[Objective]:
    unknown = [
        f
        for f in fanin
        if _value_in_lane(state, f, lane) is None
        and (not need_stable or _stability_free(state, f, lane))
    ]
    for chosen in unknown:
        others = [f for f in fanin if f != chosen]
        parity = 0
        complete = True
        for f in others:
            v = _value_in_lane(state, f, lane)
            if v is None:
                complete = False
                break
            parity ^= v
        desired = (target ^ parity) if complete else 0
        yield (chosen, desired, need_stable)
    if need_stable:
        for f in fanin:
            if not _is_stable(state, f, lane) and _stability_free(state, f, lane):
                v = _value_in_lane(state, f, lane)
                yield (f, v if v is not None else 0, True)
