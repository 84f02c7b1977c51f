"""Bit-parallel stuck-at fault test generation.

The paper closes with: "Our future research activity concentrates on
further speed-up techniques and the application of bit-parallel test
generation to further fault models, first of all the stuck-at fault
model."  This module implements that extension with the same two
modes:

* **fault-parallel** (FPTPG): ``L`` different stuck-at faults occupy
  the bit lanes; activation values and propagation decisions are
  per-lane, implications are shared bit-parallel passes;
* **alternative-parallel** (APTPG): one hard fault in all lanes with
  decision lane-splitting and conventional backtracking.

State model: every signal carries *two* 3-valued plane pairs — the
good machine and the faulty machine.  Fault sites force the faulty
planes per lane; a lane detects its fault as soon as some primary
output provably differs between the machines (the D/D' condition,
expressed as plane arithmetic).  Implications use the full 3-valued
forward/backward rules on the good machine and forward evaluation on
the faulty machine (the faulty value of a site is forced, never
justified).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit import Circuit, GateType, controlling_value
from ..logic import three_valued as tv
from ..logic.words import lowest_set_lane, mask_for, split_masks
from .backtrace import PiObjective, backtrace, objective_for_lane
from .controllability import Controllability, compute_controllability
from .state import THREE_VALUED, TpgState


@dataclass(frozen=True)
class StuckAtFault:
    """Signal *signal* stuck at *value* (0 or 1)."""

    signal: int
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck value must be 0 or 1")

    def describe(self, circuit: Circuit) -> str:
        return f"{circuit.signal_name(self.signal)} stuck-at-{self.value}"


def all_stuck_at_faults(circuit: Circuit) -> List[StuckAtFault]:
    """Both polarities on every signal (the uncollapsed fault list)."""
    faults: List[StuckAtFault] = []
    for gate in circuit.gates:
        faults.append(StuckAtFault(gate.index, 0))
        faults.append(StuckAtFault(gate.index, 1))
    return faults


class StuckAtStatus(enum.Enum):
    TESTED = "tested"
    REDUNDANT = "redundant"
    ABORTED = "aborted"
    SIMULATED = "simulated"


@dataclass
class StuckAtRecord:
    fault: StuckAtFault
    status: StuckAtStatus
    vector: Optional[Tuple[int, ...]] = None
    mode: str = ""


@dataclass
class StuckAtReport:
    circuit_name: str
    width: int
    records: List[StuckAtRecord] = field(default_factory=list)
    seconds_total: float = 0.0

    @property
    def n_faults(self) -> int:
        return len(self.records)

    def count(self, status: StuckAtStatus) -> int:
        return sum(1 for r in self.records if r.status is status)

    @property
    def n_tested(self) -> int:
        return self.count(StuckAtStatus.TESTED) + self.count(StuckAtStatus.SIMULATED)

    @property
    def efficiency(self) -> float:
        if not self.records:
            return 100.0
        aborted = self.count(StuckAtStatus.ABORTED)
        return (1.0 - aborted / self.n_faults) * 100.0

    def summary(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit_name,
            "L": self.width,
            "faults": self.n_faults,
            "tested": self.n_tested,
            "redundant": self.count(StuckAtStatus.REDUNDANT),
            "aborted": self.count(StuckAtStatus.ABORTED),
            "efficiency_%": round(self.efficiency, 2),
            "time_s": round(self.seconds_total, 4),
        }


class StuckAtState:
    """Good + faulty machine planes with per-lane fault-site forcing."""

    def __init__(self, circuit: Circuit, width: int):
        self.circuit = circuit
        self.width = width
        self.mask = mask_for(width)
        self.good = TpgState(circuit, THREE_VALUED, width)
        self.faulty: List[Tuple[int, int]] = [tv.X] * circuit.num_signals
        # per-signal lanes forced to 0 / 1 in the faulty machine
        self.forced0: Dict[int, int] = {}
        self.forced1: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def add_fault(self, fault: StuckAtFault, lanes: int) -> None:
        target = self.forced1 if fault.value else self.forced0
        target[fault.signal] = target.get(fault.signal, 0) | lanes

    def _apply_forcing(self, signal: int, planes: Tuple[int, int]) -> Tuple[int, int]:
        z0 = self.forced0.get(signal, 0)
        o1 = self.forced1.get(signal, 0)
        if not (z0 | o1):
            return planes
        z, o = planes
        return ((z & ~o1) | z0, (o & ~z0) | o1)

    def imply(self) -> None:
        """Good-machine fixpoint, then one faulty forward sweep.

        The faulty machine is pure forward evaluation over the good
        primary inputs with fault sites overridden, so a single
        topological sweep after the good fixpoint reaches its own
        fixpoint.
        """
        self.good.imply(stop_when_all_conflicted=False)
        circuit = self.circuit
        mask = self.mask
        for index in circuit.topological_order():
            gate = circuit.gates[index]
            if gate.is_input:
                planes = self.good.planes[index]
            else:
                ins = [self.faulty[f] for f in gate.fanin]
                planes = tv.forward(gate.gate_type, ins, mask)
            self.faulty[index] = self._apply_forcing(index, planes)  # type: ignore[assignment]

    # ------------------------------------------------------------------
    def difference(self, signal: int) -> int:
        """Lanes where good and faulty values provably differ."""
        gz, go = self.good.planes[signal]
        fz, fo = self.faulty[signal]
        return (gz & fo) | (go & fz)

    def detected_lanes(self) -> int:
        """Lanes with a justified test: a primary output provably
        differs AND every assigned good-machine value is justified
        (the activation requirement is an assignment like any other —
        a difference without primary-input support is not a test)."""
        lanes = 0
        for po in self.circuit.outputs:
            lanes |= self.difference(po)
        return lanes & self.good.all_justified_mask()

    def frontier(self, lanes: int) -> List[Tuple[int, int]]:
        """D-frontier: gates with a differing input and an unknown
        output in the given lanes; returned as (signal, lane-mask)."""
        result: List[Tuple[int, int]] = []
        for gate in self.circuit.gates:
            if gate.is_input:
                continue
            gz, go = self.good.planes[gate.index]
            fz, fo = self.faulty[gate.index]
            unknown = ~(gz | go) | ~(fz | fo)
            in_diff = 0
            for f in gate.fanin:
                in_diff |= self.difference(f)
            m = unknown & in_diff & lanes & self.mask
            if m:
                result.append((gate.index, m))
        return result


def _propagation_objective(
    state: StuckAtState, gate_signal: int, lane: int
) -> Optional[Tuple[int, int]]:
    """(signal, value) setting one unknown off-difference input to nc."""
    gate = state.circuit.gates[gate_signal]
    nc = controlling_value(gate.gate_type)
    for fanin_signal in gate.fanin:
        if (state.difference(fanin_signal) >> lane) & 1:
            continue
        gz, go = state.good.planes[fanin_signal]
        if ((gz | go) >> lane) & 1:
            continue  # already assigned
        if nc is None:
            return fanin_signal, 0  # XOR side: any known value works
        return fanin_signal, 1 - nc
    return None


@dataclass
class _LaneStatus:
    fault: StuckAtFault
    decided: bool = False
    stuck: bool = False


def run_stuck_at_fptpg(
    circuit: Circuit,
    faults: Sequence[StuckAtFault],
    width: int,
    controllability: Optional[Controllability] = None,
) -> Tuple[List[StuckAtStatus], List[Optional[Tuple[int, ...]]], StuckAtState]:
    """One fault-parallel batch of stuck-at generation (no backtracking)."""
    if not faults or len(faults) > width:
        raise ValueError("fault count must be in 1..width")
    cc = controllability or compute_controllability(circuit)
    state = StuckAtState(circuit, width)
    used_mask = mask_for(len(faults))
    lanes_meta = [_LaneStatus(fault) for fault in faults]

    for lane, fault in enumerate(faults):
        state.add_fault(fault, 1 << lane)
        # activation requirement: the good value opposes the stuck value
        state.good.assign(fault.signal, tv.encode_word(1 - fault.value, 1 << lane))
    state.imply()

    guard = circuit.num_signals * max(1, len(faults)) + 64
    while guard:
        guard -= 1
        detected = state.detected_lanes()
        live = (
            used_mask
            & ~detected
            & ~state.good.conflict_mask
            & ~sum(1 << k for k, m in enumerate(lanes_meta) if m.stuck)
        )
        if not live:
            break
        # first serve justification objectives (activation and side
        # values must have primary-input support), then propagation
        objective = None
        rep = None
        unjustified = state.good.scan_unjustified(lanes=live)
        if unjustified:
            just_signal, lanemask = unjustified[0]
            rep = lowest_set_lane(lanemask)
            pair = objective_for_lane(state.good, just_signal, rep)
            if pair is None:
                lanes_meta[rep].stuck = True
                continue
            objective = (just_signal, pair[0])
        else:
            frontier = state.frontier(live)
            if not frontier:
                # no way to move a difference forward in any live lane
                for k in range(len(faults)):
                    if (live >> k) & 1:
                        lanes_meta[k].stuck = True
                continue
            gate_signal, lanemask = frontier[0]
            rep = lowest_set_lane(lanemask)
            objective = _propagation_objective(state, gate_signal, rep)
            if objective is None:
                lanes_meta[rep].stuck = True
                continue
        signal, value = objective
        pi = backtrace(state.good, cc, signal, value, False, rep)
        if pi is None:
            lanes_meta[rep].stuck = True
            continue
        lanes_meta[rep].decided = True
        zeros = (1 << rep) if pi.value == 0 else 0
        ones = (1 << rep) if pi.value == 1 else 0
        if not state.good.assign(pi.signal, (zeros, ones)):
            lanes_meta[rep].stuck = True
            continue
        state.imply()

    detected = state.detected_lanes()
    statuses: List[StuckAtStatus] = []
    vectors: List[Optional[Tuple[int, ...]]] = []
    for lane, meta in enumerate(lanes_meta):
        bit = 1 << lane
        if detected & bit:
            statuses.append(StuckAtStatus.TESTED)
            vectors.append(_extract_vector(state, lane))
        elif state.good.conflict_mask & bit and not meta.decided:
            # the activation itself is contradictory: untestable
            statuses.append(StuckAtStatus.REDUNDANT)
            vectors.append(None)
        else:
            statuses.append(StuckAtStatus.ABORTED)
            vectors.append(None)
    return statuses, vectors, state


def _extract_vector(state: StuckAtState, lane: int) -> Tuple[int, ...]:
    vector = []
    for pi in state.circuit.inputs:
        _z, o = state.good.planes[pi]
        vector.append(1 if (o >> lane) & 1 else 0)
    return tuple(vector)


def run_stuck_at_aptpg(
    circuit: Circuit,
    fault: StuckAtFault,
    width: int,
    controllability: Optional[Controllability] = None,
    backtrack_limit: int = 64,
) -> Tuple[StuckAtStatus, Optional[Tuple[int, ...]], int]:
    """Alternative-parallel stuck-at generation with backtracking.

    Returns (status, test vector, backtracks).  Complete (up to the
    backtrack limit): redundancy means no input vector detects the
    fault.
    """
    cc = controllability or compute_controllability(circuit)
    state = StuckAtState(circuit, width)
    state.add_fault(fault, state.mask)
    state.good.assign(fault.signal, tv.encode_word(1 - fault.value, state.mask))
    state.imply()
    if state.good.conflict_mask == state.mask:
        return StuckAtStatus.REDUNDANT, None, 0

    splits = split_masks(width)
    splits_used = 0
    stack: List[Tuple[int, PiObjective, int]] = []
    backtracks = 0
    stuck = 0
    guard = circuit.num_signals * width * 4 + 256

    while guard:
        guard -= 1
        detected = state.detected_lanes()
        if detected:
            lane = lowest_set_lane(detected)
            return StuckAtStatus.TESTED, _extract_vector(state, lane), backtracks
        live = state.mask & ~state.good.conflict_mask
        frontier = state.frontier(live & ~stuck) if live else []
        if not live or not frontier:
            dead = not live
            if not dead and (live & ~stuck) == 0:
                return StuckAtStatus.ABORTED, None, backtracks
            if not dead and not frontier:
                # live lanes but no frontier: differences cannot reach
                # any output under the current (partial) assignment —
                # backtrack like a conflict
                dead = True
            if dead:
                progressed = False
                while stack:
                    token, objective, tried = stack.pop()
                    backtracks += 1
                    if backtracks > backtrack_limit:
                        return StuckAtStatus.ABORTED, None, backtracks
                    state.good.rollback(token)
                    state.imply()
                    if tried == 1:
                        flipped = PiObjective(
                            objective.signal, 1 - objective.value, False
                        )
                        token2 = state.good.mark()
                        value_planes = (
                            (state.mask, 0) if flipped.value == 0 else (0, state.mask)
                        )
                        state.good.assign(flipped.signal, value_planes)
                        stack.append((token2, flipped, 2))
                        state.imply()
                        progressed = True
                        break
                if not progressed:
                    return StuckAtStatus.REDUNDANT, None, backtracks
                stuck = 0
                continue
        objective = None
        unjustified = state.good.scan_unjustified(lanes=live & ~stuck)
        if unjustified:
            just_signal, lanemask = unjustified[0]
            rep = lowest_set_lane(lanemask)
            pair = objective_for_lane(state.good, just_signal, rep)
            if pair is None:
                stuck |= 1 << rep
                continue
            objective = (just_signal, pair[0])
        else:
            gate_signal, lanemask = frontier[0]
            rep = lowest_set_lane(lanemask)
            objective = _propagation_objective(state, gate_signal, rep)
            if objective is None:
                stuck |= 1 << rep
                continue
        signal, value = objective
        pi = backtrace(state.good, cc, signal, value, False, rep)
        if pi is None:
            stuck |= 1 << rep
            continue
        if splits_used < len(splits):
            zeros, ones = splits[splits_used]
            splits_used += 1
            if not state.good.assign(pi.signal, (zeros, ones)):
                stuck |= 1 << rep
                continue
            state.imply()
            stuck = 0
        else:
            token = state.good.mark()
            value_planes = (state.mask, 0) if pi.value == 0 else (0, state.mask)
            if not state.good.assign(pi.signal, value_planes):
                state.good.rollback(token)
                stuck |= 1 << rep
                continue
            stack.append((token, pi, 1))
            state.imply()
            stuck = 0
    return StuckAtStatus.ABORTED, None, backtracks


def generate_stuck_at_tests(
    circuit: Circuit,
    faults: Optional[Sequence[StuckAtFault]] = None,
    width: int = 64,
    backtrack_limit: int = 64,
    drop_faults: bool = True,
) -> StuckAtReport:
    """The combined stuck-at engine: FPTPG first, APTPG for the rest.

    With ``drop_faults`` the generated vectors are fault-simulated
    after every batch and collaterally detected faults are dropped —
    mirroring the delay-fault engine (and the paper's methodology).
    """
    from ..sim.stuck_at_sim import StuckAtSimulator

    faults = list(faults if faults is not None else all_stuck_at_faults(circuit))
    report = StuckAtReport(circuit_name=circuit.name, width=width)
    if not faults:
        return report
    cc = compute_controllability(circuit)
    simulator = StuckAtSimulator(circuit)
    records: Dict[int, StuckAtRecord] = {}
    fresh_vectors: List[Tuple[int, ...]] = []
    aptpg_queue: List[int] = []

    def drop() -> None:
        if not drop_faults or not fresh_vectors:
            return
        candidates = [i for i in range(len(faults)) if i not in records]
        hit = simulator.detected_faults(fresh_vectors, [faults[i] for i in candidates])
        for i in candidates:
            if hit[faults[i]]:
                records[i] = StuckAtRecord(
                    faults[i], StuckAtStatus.SIMULATED, mode="simulation"
                )
        fresh_vectors.clear()

    t0 = time.perf_counter()
    cursor = 0
    while cursor < len(faults):
        batch: List[int] = []
        while cursor < len(faults) and len(batch) < width:
            if cursor not in records:
                batch.append(cursor)
            cursor += 1
        if not batch:
            continue
        statuses, vectors, _state = run_stuck_at_fptpg(
            circuit, [faults[i] for i in batch], width, cc
        )
        for i, status, vector in zip(batch, statuses, vectors):
            if status is StuckAtStatus.TESTED:
                records[i] = StuckAtRecord(faults[i], status, vector, mode="fptpg")
                fresh_vectors.append(vector)
            elif status is StuckAtStatus.REDUNDANT:
                records[i] = StuckAtRecord(faults[i], status, mode="fptpg")
            else:
                aptpg_queue.append(i)
        drop()

    for i in aptpg_queue:
        if i in records:
            continue
        status, vector, _bt = run_stuck_at_aptpg(
            circuit, faults[i], width, cc, backtrack_limit
        )
        records[i] = StuckAtRecord(faults[i], status, vector, mode="aptpg")
        if vector is not None:
            fresh_vectors.append(vector)
            if len(fresh_vectors) >= width:
                drop()
    drop()

    report.seconds_total = time.perf_counter() - t0
    report.records = [records[i] for i in range(len(faults))]
    return report
