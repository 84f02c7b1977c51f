"""Structural single-bit path delay ATPG (the DYNAMITE-like baseline).

DYNAMITE (Fuchs, Fink & Schulz, TCAD 1991) is the structural
comparison point of the paper's Tables 7/8: a conventional
one-fault-at-a-time generator with test classes.  This baseline keeps
that character deliberately:

* strictly single bit level (one fault, one alternative at a time),
* forward-only implications (no unique backward implications), which
  matches the older generation of structural tools and makes the
  engine visibly weaker than TIP's "best suited implication
  procedure",
* depth-based backtrace guidance instead of SCOAP, and
* conventional backtracking with a backtrack limit.

Because it shares the sensitization rules and logic algebras with the
main engine, the comparison isolates exactly the paper's claims: the
value of bit-parallel lanes and strong bit-parallel implications.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..circuit import Circuit
from ..core.aptpg import run_aptpg
from ..core.controllability import Controllability
from ..core.results import FaultRecord, FaultStatus, TpgReport
from ..paths import PathDelayFault, TestClass
from ..sim.delay_sim import DelayFaultSimulator


def depth_controllability(circuit: Circuit) -> Controllability:
    """Depth-based guidance: cost of a signal is its logic level.

    The classic structural heuristic before SCOAP-style measures:
    prefer shallow cones when justifying values.
    """
    levels = [circuit.level(i) + 1 for i in range(circuit.num_signals)]
    return Controllability(cc0=list(levels), cc1=list(levels))


def generate_tests_structural(
    circuit: Circuit,
    faults: Sequence[PathDelayFault],
    test_class: TestClass = TestClass.NONROBUST,
    backtrack_limit: int = 64,
    drop_faults: bool = True,
) -> TpgReport:
    """Run the structural baseline over a fault list.

    One APTPG pass per fault with ``width=1`` (no lane alternatives),
    forward-only implications and depth guidance; fault dropping by
    PPSFP after each generated pattern (DYNAMITE also used fault
    simulation).
    """
    report = TpgReport(circuit_name=circuit.name, test_class=test_class, width=1)
    guidance = depth_controllability(circuit)
    simulator = DelayFaultSimulator(circuit, test_class)
    records: List[Optional[FaultRecord]] = [None] * len(faults)
    fresh_patterns: List = []

    def drop() -> None:
        if not drop_faults or not fresh_patterns:
            return
        t0 = time.perf_counter()
        candidates = [i for i, r in enumerate(records) if r is None]
        hits = simulator.detected_faults(
            fresh_patterns, [faults[i] for i in candidates]
        )
        for i in candidates:
            if hits[faults[i]]:
                records[i] = FaultRecord(
                    faults[i], FaultStatus.SIMULATED, mode="simulation"
                )
        report.seconds_simulate += time.perf_counter() - t0
        fresh_patterns.clear()

    t_start = time.perf_counter()
    for index, fault in enumerate(faults):
        if records[index] is not None:
            continue
        outcome = run_aptpg(
            circuit,
            fault,
            test_class,
            width=1,
            controllability=guidance,
            backtrack_limit=backtrack_limit,
            use_backward=False,
        )
        report.seconds_sensitize += outcome.seconds_sensitize
        report.decisions += outcome.decisions
        report.backtracks += outcome.backtracks
        report.implication_passes += outcome.implication_passes
        records[index] = FaultRecord(
            fault, outcome.status, outcome.pattern, mode="structural"
        )
        if outcome.pattern is not None:
            fresh_patterns.append(outcome.pattern)
            if len(fresh_patterns) >= 32:
                drop()
    drop()

    total = time.perf_counter() - t_start
    report.seconds_generate = max(
        0.0, total - report.seconds_sensitize - report.seconds_simulate
    )
    report.records = [r for r in records if r is not None]
    return report
