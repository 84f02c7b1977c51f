"""Benchmark suites standing in for ISCAS85 and ISCAS89.

The paper's tables are keyed by ISCAS circuit names.  The real
netlists are not distributable here, so each named row maps to a
deterministic synthetic circuit with a comparable structural flavour
(gate-type mix, depth, reconvergence).
Sizes are scaled down so the full experiment tables regenerate in
minutes under CPython rather than hours; the ``scale`` parameter lets
a patient user grow them.

Real ``.bench`` files, when available, can always be swapped in via
:func:`repro.circuit.bench_parser.load_bench` — every experiment
runner accepts arbitrary circuits.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .circuit import Circuit
from .generators import (
    array_multiplier,
    carry_lookahead_adder,
    mux_tree,
    parity_tree,
    random_dag,
    reconvergent_ladder,
    ripple_carry_adder,
    random_dag as _rd,
)

_SuiteEntry = Callable[[int], Circuit]


def check_scale(scale: int) -> None:
    """Refuse a suite scale below 1 (``_scaled`` would floor it to a
    smaller, different circuit)."""
    if scale < 1:
        raise ValueError(f"scale must be at least 1, got {scale}")


def _scaled(base: int, scale: int) -> int:
    return max(8, base * scale)


# Each entry: paper circuit name -> factory(scale) producing the
# "-like" substitute.  Gate counts at scale=1 are roughly 1/6 of the
# originals, preserving relative ordering between rows.
_ISCAS85: Dict[str, _SuiteEntry] = {
    "c432": lambda s: random_dag(18, _scaled(40, s), seed=432, profile="nand_heavy",
                                 locality=24, reconvergence=0.35, name="c432_like"),
    "c499": lambda s: parity_tree(_scaled(16, s), name="c499_like"),
    "c880": lambda s: carry_lookahead_adder(_scaled(8, s), name="c880_like"),
    "c1355": lambda s: random_dag(20, _scaled(56, s), seed=1355, profile="xor_rich",
                                  locality=20, reconvergence=0.3, name="c1355_like"),
    "c1908": lambda s: random_dag(16, _scaled(72, s), seed=1908, profile="nand_heavy",
                                  locality=28, reconvergence=0.35, name="c1908_like"),
    "c2670": lambda s: random_dag(32, _scaled(90, s), seed=2670, profile="balanced",
                                  locality=36, reconvergence=0.25, name="c2670_like"),
    "c3540": lambda s: random_dag(24, _scaled(110, s), seed=3540, profile="balanced",
                                  locality=30, reconvergence=0.4, name="c3540_like"),
    "c5315": lambda s: random_dag(40, _scaled(130, s), seed=5315, profile="balanced",
                                  locality=40, reconvergence=0.3, name="c5315_like"),
    "c7552": lambda s: random_dag(48, _scaled(150, s), seed=7552, profile="nand_heavy",
                                  locality=44, reconvergence=0.3, name="c7552_like"),
    # c6288 appears in the paper only as the excluded footnote case
    "c6288": lambda s: array_multiplier(max(4, 4 * s), name="c6288_like"),
}

_ISCAS89: Dict[str, _SuiteEntry] = {
    "s641": lambda s: random_dag(20, _scaled(28, s), seed=641, profile="balanced",
                                 locality=20, reconvergence=0.3, name="s641_like"),
    "s713": lambda s: random_dag(20, _scaled(30, s), seed=713, profile="nand_heavy",
                                 locality=20, reconvergence=0.35, name="s713_like"),
    "s838": lambda s: ripple_carry_adder(_scaled(8, s), name="s838_like"),
    "s938": lambda s: ripple_carry_adder(_scaled(9, s), name="s938_like"),
    "s991": lambda s: mux_tree(3 + min(s, 3), name="s991_like"),
    "s1196": lambda s: random_dag(18, _scaled(40, s), seed=1196, profile="balanced",
                                  locality=22, reconvergence=0.3, name="s1196_like"),
    "s1238": lambda s: random_dag(18, _scaled(42, s), seed=1238, profile="nand_heavy",
                                  locality=22, reconvergence=0.3, name="s1238_like"),
    "s1269": lambda s: reconvergent_ladder(_scaled(10, s), name="s1269_like"),
    "s1423": lambda s: random_dag(24, _scaled(48, s), seed=1423, profile="balanced",
                                  locality=24, reconvergence=0.35, name="s1423_like"),
    "s1494": lambda s: random_dag(12, _scaled(44, s), seed=1494, profile="nand_heavy",
                                  locality=18, reconvergence=0.4, name="s1494_like"),
    "s3271": lambda s: random_dag(26, _scaled(60, s), seed=3271, profile="xor_rich",
                                  locality=26, reconvergence=0.3, name="s3271_like"),
    "s5378": lambda s: random_dag(35, _scaled(75, s), seed=5378, profile="balanced",
                                  locality=32, reconvergence=0.3, name="s5378_like"),
    "s9234": lambda s: random_dag(40, _scaled(90, s), seed=9234, profile="nand_heavy",
                                  locality=36, reconvergence=0.3, name="s9234_like"),
    "s13207": lambda s: random_dag(60, _scaled(110, s), seed=13207, profile="balanced",
                                   locality=40, reconvergence=0.25, name="s13207_like"),
    "s15850": lambda s: random_dag(60, _scaled(120, s), seed=15850, profile="balanced",
                                   locality=44, reconvergence=0.3, name="s15850_like"),
    "s38584": lambda s: random_dag(80, _scaled(140, s), seed=38584, profile="nand_heavy",
                                   locality=48, reconvergence=0.25, name="s38584_like"),
}

#: Extra generated circuits outside the paper's tables.  ``bulk2k`` is
#: the fused-kernel benchmark workload: ~2k gates, wide and shallow
#: (high locality keeps the level population large), where per-gate
#: interpreter overhead — not lane arithmetic — dominates an
#: interpreted simulation pass.
_EXTRA: Dict[str, _SuiteEntry] = {
    "bulk2k": lambda s: random_dag(
        96,
        2048 * max(1, s),
        seed=2048,
        profile="balanced",
        locality=256,
        reconvergence=0.25,
        name="bulk2k",
    ),
}

#: Circuit rows of paper Tables 3 and 4 (ISCAS85, c6288 footnoted out).
TABLE34_CIRCUITS: List[str] = [
    "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540", "c5315", "c7552",
]

#: Circuit rows of paper Tables 5 and 6 (ISCAS89 subset).
TABLE56_CIRCUITS: List[str] = [
    "s713", "s838", "s938", "s991", "s1269", "s1423",
    "s3271", "s5378", "s9234", "s13207", "s15850",
]

#: Circuit rows of paper Tables 7 and 8 (ISCAS89 subset).
TABLE78_CIRCUITS: List[str] = [
    "s641", "s713", "s1196", "s1238", "s1423", "s1494",
    "s5378", "s13207", "s15850", "s38584",
]


def iscas85_like(name: str, scale: int = 1) -> Circuit:
    """The synthetic stand-in for ISCAS85 circuit *name*."""
    check_scale(scale)
    try:
        return _ISCAS85[name](scale)
    except KeyError:
        known = ", ".join(sorted(_ISCAS85))
        raise ValueError(f"unknown ISCAS85 name {name!r}; known: {known}") from None


def iscas89_like(name: str, scale: int = 1) -> Circuit:
    """The synthetic stand-in for ISCAS89 circuit *name*."""
    check_scale(scale)
    try:
        return _ISCAS89[name](scale)
    except KeyError:
        known = ", ".join(sorted(_ISCAS89))
        raise ValueError(f"unknown ISCAS89 name {name!r}; known: {known}") from None


def suite_circuit(name: str, scale: int = 1) -> Circuit:
    """Look up *name* in either suite (or the extra generated set).

    A scale below 1 raises :class:`ValueError`, as does an unknown name.
    """
    check_scale(scale)
    if name in _ISCAS85:
        return iscas85_like(name, scale)
    if name in _ISCAS89:
        return iscas89_like(name, scale)
    if name in _EXTRA:
        return _EXTRA[name](scale)
    raise ValueError(f"unknown suite circuit {name!r}")
