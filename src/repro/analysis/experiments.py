"""Experiment runners: one function per paper table / figure.

Each runner returns a list of row dicts shaped like the corresponding
table in the paper; ``repro.analysis.tables.render_table`` prints them
in the paper's layout.  The benchmark harness under ``benchmarks/``
wraps these runners one-to-one, and the CLI exposes them as
``tip-experiments``.

Workloads come from the synthetic ISCAS-like suites of
:mod:`repro.circuit.suites`, which stand in for the ISCAS netlists
this code cannot distribute; fault lists are capped (``fault_cap``)
because full path enumeration of the larger circuits is exactly the
explosion the paper documents — the cap is reported in the rows.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..api import AtpgSession, Options
from ..baselines import generate_tests_bdd, generate_tests_structural
from ..circuit import Circuit
from ..circuit.library import paper_example
from ..circuit.suites import (
    TABLE34_CIRCUITS,
    TABLE56_CIRCUITS,
    TABLE78_CIRCUITS,
    suite_circuit,
)
from ..core import generate_tests_single_bit
from ..core.aptpg import run_aptpg
from ..core.fptpg import run_fptpg
from ..core.results import FaultStatus
from ..logic.words import DEFAULT_WORD_LENGTH
from ..paths import PathDelayFault, TestClass, Transition, count_faults, fault_list
from .metrics import speedup_row

Row = Dict[str, object]


def _suite_faults(circuit: Circuit, fault_cap: int):
    return fault_list(circuit, cap=fault_cap, strategy="all")


# ---------------------------------------------------------------------------
# Tables 3 and 4: robust / nonrobust ATPG over the ISCAS85-like suite
# ---------------------------------------------------------------------------


def run_atpg_table(
    test_class: TestClass,
    circuits: Optional[Sequence[str]] = None,
    scale: int = 1,
    fault_cap: int = 512,
    width: int = DEFAULT_WORD_LENGTH,
) -> List[Row]:
    """The Table 3 (robust) / Table 4 (nonrobust) experiment.

    Columns follow the paper: # faults (the full structural fault
    universe), # tested, efficiency, time.  ``listed`` additionally
    reports how many faults were targeted under the cap.
    """
    rows: List[Row] = []
    for name in circuits or TABLE34_CIRCUITS:
        session = AtpgSession(suite_circuit(name, scale))
        circuit = session.circuit
        faults = _suite_faults(circuit, fault_cap)
        report = session.generate(faults, test_class=test_class, width=width)
        rows.append(
            {
                "circuit": f"{name}-like",
                "faults": count_faults(circuit),
                "listed": len(faults),
                "tested": report.n_tested,
                "redundant": report.n_redundant,
                "efficiency_%": round(report.efficiency, 2),
                "time_s": round(report.seconds_total, 4),
            }
        )
    return rows


def run_table3(**kwargs) -> List[Row]:
    """Table 3: Robust ATPG for the ISCAS85-like circuits."""
    return run_atpg_table(TestClass.ROBUST, **kwargs)


def run_table4(**kwargs) -> List[Row]:
    """Table 4: Nonrobust ATPG for the ISCAS85-like circuits."""
    return run_atpg_table(TestClass.NONROBUST, **kwargs)


# ---------------------------------------------------------------------------
# Tables 5 and 6: bit-parallel vs single-bit generation
# ---------------------------------------------------------------------------


def run_speedup_table(
    test_class: TestClass,
    circuits: Optional[Sequence[str]] = None,
    scale: int = 1,
    fault_cap: int = 256,
    width: int = DEFAULT_WORD_LENGTH,
) -> List[Row]:
    """The Table 5 (robust) / Table 6 (nonrobust) experiment.

    Both generators run the identical fault list; the row reports
    t_sens, t_single, t_parallel and the speed-up, as in the paper.
    """
    rows: List[Row] = []
    for name in circuits or TABLE56_CIRCUITS:
        session = AtpgSession(suite_circuit(name, scale))
        circuit = session.circuit
        faults = _suite_faults(circuit, fault_cap)
        parallel = session.generate(faults, test_class=test_class, width=width)
        single = generate_tests_single_bit(circuit, faults, test_class)
        row = speedup_row(f"{name}-like", single, parallel)
        rows.append(
            {
                "circuit": row.circuit,
                "t_sens": round(row.seconds_sensitize, 4),
                "t_single": round(row.seconds_single, 4),
                "t_parallel": round(row.seconds_parallel, 4),
                "speedup": round(row.speedup, 1),
                "aborted_single": row.aborted_single,
                "aborted_parallel": row.aborted_parallel,
            }
        )
    return rows


def run_table5(**kwargs) -> List[Row]:
    """Table 5: single-bit vs bit-parallel, robust ATPG."""
    return run_speedup_table(TestClass.ROBUST, **kwargs)


def run_table6(**kwargs) -> List[Row]:
    """Table 6: single-bit vs bit-parallel, nonrobust ATPG."""
    return run_speedup_table(TestClass.NONROBUST, **kwargs)


# ---------------------------------------------------------------------------
# Tables 7 and 8: TIP vs TSUNAMI-D-like vs DYNAMITE-like
# ---------------------------------------------------------------------------


def run_comparison_table(
    test_class: TestClass,
    circuits: Optional[Sequence[str]] = None,
    scale: int = 1,
    fault_cap: int = 192,
    width: int = DEFAULT_WORD_LENGTH,
    bdd_node_limit: int = 200_000,
) -> List[Row]:
    """The Table 7 (nonrobust) / Table 8 (robust) experiment."""
    rows: List[Row] = []
    for name in circuits or TABLE78_CIRCUITS:
        session = AtpgSession(suite_circuit(name, scale))
        circuit = session.circuit
        faults = _suite_faults(circuit, fault_cap)

        t0 = time.perf_counter()
        tip = session.generate(faults, test_class=test_class, width=width)
        tip_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        bdd = generate_tests_bdd(
            circuit, faults, test_class, node_limit=bdd_node_limit
        )
        bdd_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        structural = generate_tests_structural(circuit, faults, test_class)
        structural_time = time.perf_counter() - t0

        rows.append(
            {
                "circuit": f"{name}-like",
                "TIP_tested": tip.n_tested,
                "TIP_time_s": round(tip_time, 4),
                "TSUNAMI_tested": bdd.n_tested,
                "TSUNAMI_time_s": round(bdd_time, 4),
                "TSUNAMI_aborted": bdd.count(FaultStatus.ABORTED),
                "DYNAMITE_tested": structural.n_tested,
                "DYNAMITE_time_s": round(structural_time, 4),
                "DYNAMITE_aborted": structural.n_aborted,
            }
        )
    return rows


def run_table7(**kwargs) -> List[Row]:
    """Table 7: nonrobust three-way tool comparison."""
    return run_comparison_table(TestClass.NONROBUST, **kwargs)


def run_table8(**kwargs) -> List[Row]:
    """Table 8: robust three-way tool comparison."""
    return run_comparison_table(TestClass.ROBUST, **kwargs)


# ---------------------------------------------------------------------------
# Figures 1 and 2: the example-circuit walkthroughs
# ---------------------------------------------------------------------------


def run_figure1() -> Dict[str, object]:
    """Figure 1: FPTPG for four paths on the example circuit, L = 4."""
    circuit = paper_example()
    faults = [
        PathDelayFault.from_names(circuit, ("b", "p", "x"), Transition.RISING),
        PathDelayFault.from_names(circuit, ("b", "q", "s", "x"), Transition.RISING),
        PathDelayFault.from_names(circuit, ("c", "r", "s", "x"), Transition.RISING),
        PathDelayFault.from_names(circuit, ("c", "r", "s", "y"), Transition.RISING),
    ]
    outcome = run_fptpg(circuit, faults, TestClass.NONROBUST, width=4)
    return {
        "circuit": circuit,
        "faults": faults,
        "statuses": [s.value for s in outcome.statuses],
        "decisions": outcome.decisions,
        "lane_words": {
            name: outcome.state.format_lane_word(name)
            for name in ("a", "b", "c", "d", "p", "q", "r", "s", "t", "e", "x", "y")
        },
        "patterns": outcome.patterns,
    }


def run_figure2() -> Dict[str, object]:
    """Figure 2: APTPG for path a-p-x (falling) with four alternatives."""
    circuit = paper_example()
    fault = PathDelayFault.from_names(circuit, ("a", "p", "x"), Transition.FALLING)
    outcome = run_aptpg(circuit, fault, TestClass.NONROBUST, width=4)
    return {
        "circuit": circuit,
        "fault": fault,
        "status": outcome.status.value,
        "splits_used": outcome.splits_used,
        "backtracks": outcome.backtracks,
        "pattern": outcome.pattern,
        "lane_words": {
            name: outcome.state.format_lane_word(name)
            for name in ("a", "b", "c", "d", "p", "q", "r", "s", "x")
        },
    }


# ---------------------------------------------------------------------------
# Ablations (beyond the paper; motivated by its design choices)
# ---------------------------------------------------------------------------


def run_ablation_word_length(
    widths: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    circuit_name: str = "s1423",
    scale: int = 1,
    fault_cap: int = 256,
    test_class: TestClass = TestClass.NONROBUST,
) -> List[Row]:
    """Generation time as a function of the word length L.

    The 1995 hardware fixed L at 32/64; Python integers let the
    reproduction sweep it, including beyond the native word.
    """
    session = AtpgSession(suite_circuit(circuit_name, scale))
    faults = _suite_faults(session.circuit, fault_cap)
    rows: List[Row] = []
    for width in widths:
        report = session.generate(faults, test_class=test_class, width=width)
        rows.append(
            {
                "L": width,
                "tested": report.n_tested,
                "aborted": report.n_aborted,
                "time_s": round(report.seconds_total, 4),
                "implication_passes": report.implication_passes,
            }
        )
    return rows


def run_ablation_modes(
    circuit_name: str = "s1423",
    scale: int = 1,
    fault_cap: int = 256,
    test_class: TestClass = TestClass.NONROBUST,
    width: int = DEFAULT_WORD_LENGTH,
) -> List[Row]:
    """FPTPG-only vs APTPG-only vs the paper's combination."""
    session = AtpgSession(suite_circuit(circuit_name, scale))
    faults = _suite_faults(session.circuit, fault_cap)
    configurations = [
        ("fptpg_only", Options(width=width, use_aptpg=False)),
        ("aptpg_only", Options(width=width, use_fptpg=False)),
        ("combined", Options(width=width)),
    ]
    rows: List[Row] = []
    for label, options in configurations:
        report = session.generate(faults, test_class=test_class, options=options)
        rows.append(
            {
                "mode": label,
                "tested": report.n_tested,
                "redundant": report.n_redundant,
                "aborted": report.n_aborted,
                "time_s": round(report.seconds_total, 4),
            }
        )
    return rows


def run_ablation_implications(
    circuit_name: str = "s1423",
    scale: int = 1,
    fault_cap: int = 256,
    test_class: TestClass = TestClass.NONROBUST,
    width: int = DEFAULT_WORD_LENGTH,
) -> List[Row]:
    """Unique backward implications on vs off (implication strength)."""
    session = AtpgSession(suite_circuit(circuit_name, scale))
    faults = _suite_faults(session.circuit, fault_cap)
    rows: List[Row] = []
    for label, flag in (("forward_only", False), ("with_backward", True)):
        options = Options(width=width, unique_backward=flag)
        report = session.generate(faults, test_class=test_class, options=options)
        rows.append(
            {
                "implications": label,
                "tested": report.n_tested,
                "redundant": report.n_redundant,
                "aborted": report.n_aborted,
                "decisions": report.decisions,
                "backtracks": report.backtracks,
                "time_s": round(report.seconds_total, 4),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# campaign scaling: serial engine vs sharded multi-process campaign
# ---------------------------------------------------------------------------


def run_campaign_scaling(
    circuit_name: str = "c880",
    scale: int = 1,
    fault_cap: int = 256,
    test_class: TestClass = TestClass.NONROBUST,
    width: int = DEFAULT_WORD_LENGTH,
    workers_list: Sequence[int] = (1, 2),
    window: Optional[int] = None,
) -> List[Row]:
    """End-to-end campaign throughput at increasing worker counts.

    The first row is the serial engine (the reference both for wall
    time and for per-fault statuses); campaign rows must reproduce its
    detected-fault count exactly — the schedule is worker-invariant —
    so any speed-up is pure parallelism, never a semantics change.
    """
    session = AtpgSession(suite_circuit(circuit_name, scale))
    circuit = session.circuit
    faults = _suite_faults(circuit, fault_cap)
    rows: List[Row] = []

    t0 = time.perf_counter()
    serial = session.generate(faults, test_class=test_class, width=width)
    serial_wall = time.perf_counter() - t0
    rows.append(
        {
            "runner": "engine(serial)",
            "workers": 1,
            "faults": serial.n_faults,
            "detected": serial.n_tested,
            "patterns": len(serial.patterns),
            "faults_per_s": round(serial.n_faults / serial_wall, 1),
            "speedup": 1.0,
            "time_s": round(serial_wall, 4),
        }
    )
    for workers in workers_list:
        options = Options(width=width, workers=workers, window=window)
        t0 = time.perf_counter()
        report = session.campaign(
            faults=faults, test_class=test_class, options=options
        )
        wall = time.perf_counter() - t0
        # Worker count never changes outcomes; a finite window does
        # (its schedule legitimately differs from the unbounded serial
        # baseline), so equality is only asserted for window=None.
        if window is None and report.n_detected != serial.n_tested:
            raise AssertionError(
                f"campaign(workers={workers}) detected {report.n_detected} "
                f"faults, serial engine {serial.n_tested}"
            )
        rows.append(
            {
                "runner": f"campaign(workers={workers})",
                "workers": workers,
                "faults": report.n_faults,
                "detected": report.n_detected,
                "patterns": len(report.patterns),
                "faults_per_s": round(report.n_faults / wall, 1),
                "speedup": round(serial_wall / wall, 2),
                "time_s": round(wall, 4),
            }
        )
    return rows
