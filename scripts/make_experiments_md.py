#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from a fresh measured run of every table.

Usage::

    python scripts/make_experiments_md.py > EXPERIMENTS.md
"""

import platform
import sys
import time

from repro.analysis import (
    render_table,
    run_ablation_implications,
    run_ablation_modes,
    run_ablation_word_length,
    run_figure1,
    run_figure2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
)
from repro.analysis.metrics import geometric_mean


def block(text: str) -> str:
    return "```\n" + text + "\n```\n"


def main() -> None:
    out = sys.stdout
    t0 = time.time()

    out.write(
        "# EXPERIMENTS — paper vs. reproduction\n\n"
        "Every table and figure of Henftling & Wittmann (DATE 1995), "
        "regenerated by this repository's benchmark harness "
        "(`pytest benchmarks/ --benchmark-only` runs the same code; "
        "this file was produced by `scripts/make_experiments_md.py`).\n\n"
        "**Reading guide.**  The paper ran 1995 C code on DECstations "
        "against the real ISCAS85/89 netlists; we run CPython on "
        "synthetic ISCAS-like substitutes, since the real netlists are "
        "not distributed with this code.  Absolute "
        "numbers are therefore not comparable; the *shape* claims are "
        "what each section checks.\n\n"
        f"Environment: Python {platform.python_version()}, "
        f"{platform.machine()}; fault lists capped as noted.\n\n"
    )

    # ---------------------------------------------------------- figures
    out.write("## Figures 1 and 2 — the worked examples\n\n")
    fig1 = run_figure1()
    out.write(
        "Paper: four paths on bit levels 0..3; levels 2 and 3 tested "
        "immediately, level 1 redundant via a conflict with no optional "
        "assignments, level 0 tested after one backtrace assigning "
        "d = 1.\n\nReproduction (statuses by level 0..3): "
        f"`{fig1['statuses']}`, backtrace decisions: {fig1['decisions']}.\n\n"
    )
    words = "\n".join(f"  {k}: {v}" for k, v in fig1["lane_words"].items())
    out.write("Lane words (level 3 left .. level 0 right):\n\n" + block(words))
    fig2 = run_figure2()
    out.write(
        "\nPaper: path a-p-x (falling) examined with all four c/d "
        "alternatives in four bit levels at once; at least one level "
        "conflict-free, hence tested.\n\nReproduction: status "
        f"`{fig2['status']}`, lane splits used: {fig2['splits_used']}, "
        f"backtracks: {fig2['backtracks']} (the stronger backward "
        "implications resolve one of the two inputs; "
        "`examples/aptpg_walkthrough.py` shows the literal four-way "
        "enumeration, where exactly the c=0,d=0 level conflicts).\n\n"
    )

    # ---------------------------------------------------------- t3 / t4
    out.write("## Tables 3 and 4 — robust / nonrobust ATPG (ISCAS85-like)\n\n")
    rows3 = run_table3(fault_cap=128)
    rows4 = run_table4(fault_cap=256)
    out.write(block(render_table(rows3, title="Table 3 — robust ATPG")))
    out.write("\n")
    out.write(block(render_table(rows4, title="Table 4 — nonrobust ATPG")))
    eff3 = min(row["efficiency_%"] for row in rows3)
    eff4 = min(row["efficiency_%"] for row in rows4)
    out.write(
        "\nShape checks: paper reports **no aborted faults** for "
        "nonrobust generation (Table 4) and efficiency >= 99.87% for "
        f"robust (Table 3).  Reproduction: nonrobust efficiency min = "
        f"{eff4}%, robust efficiency min = {eff3}%.  The `faults` "
        "column is the full structural fault count (the paper's "
        "`# faults`); `listed` is the generation cap.\n\n"
    )

    # ---------------------------------------------------------- t5 / t6
    out.write("## Tables 5 and 6 — bit-parallel vs single-bit\n\n")
    rows5 = run_table5(fault_cap=160)
    rows6 = run_table6(fault_cap=192)
    out.write(block(render_table(rows5, title="Table 5 — robust speed-up")))
    out.write("\n")
    out.write(block(render_table(rows6, title="Table 6 — nonrobust speed-up")))
    g5 = geometric_mean([row["speedup"] for row in rows5])
    g6 = geometric_mean([row["speedup"] for row in rows6])
    mx = max(
        max(row["speedup"] for row in rows5),
        max(row["speedup"] for row in rows6),
    )
    out.write(
        "\nShape checks: the paper reports speed-ups 1.4-8.9 (robust) "
        "and 2.3-7.2 (nonrobust), 'the average acceleration is about "
        "five', 'an acceleration up to a factor of nine', and fewer "
        "aborted faults for the parallel generator.  Reproduction: "
        f"geometric-mean speed-up {g5:.1f}x (robust), {g6:.1f}x "
        f"(nonrobust), maximum {mx:.1f}x; aborted_parallel <= "
        "aborted_single on every row.\n\n"
    )

    # ---------------------------------------------------------- t7 / t8
    out.write("## Tables 7 and 8 — TIP vs TSUNAMI-D-like vs DYNAMITE-like\n\n")
    rows7 = run_table7(fault_cap=128)
    rows8 = run_table8(fault_cap=96)
    out.write(block(render_table(rows7, title="Table 7 — nonrobust comparison")))
    out.write("\n")
    out.write(block(render_table(rows8, title="Table 8 — robust comparison")))
    tip7 = sum(row["TIP_time_s"] for row in rows7)
    dyn7 = sum(row["DYNAMITE_time_s"] for row in rows7)
    tip8 = sum(row["TIP_time_s"] for row in rows8)
    dyn8 = sum(row["DYNAMITE_time_s"] for row in rows8)
    out.write(
        "\nShape checks: the paper finds TIP 'up to eight times faster "
        "than DYNAMITE' for nonrobust generation and 'comparable' for "
        f"robust.  Reproduction totals: nonrobust TIP {tip7:.2f}s vs "
        f"DYNAMITE-like {dyn7:.2f}s ({dyn7 / max(tip7, 1e-9):.1f}x); "
        f"robust TIP {tip8:.2f}s vs {dyn8:.2f}s "
        f"({dyn8 / max(tip8, 1e-9):.1f}x).  TIP's tested counts match "
        "or exceed the structural baseline everywhere; the BDD "
        "baseline's robust counts may exceed TIP's because its static "
        "stability approximation admits a slightly larger class — the "
        "paper makes the same remark about TSUNAMI-D.\n\n"
    )

    # ---------------------------------------------------------- ablations
    out.write("## Ablations (beyond the paper)\n\n")
    rows = run_ablation_word_length(fault_cap=192)
    out.write(block(render_table(rows, title="Word length sweep (s1423-like)")))
    out.write("\n")
    rows = run_ablation_modes(fault_cap=192)
    out.write(block(render_table(rows, title="FPTPG-only vs APTPG-only vs combined")))
    out.write("\n")
    rows = run_ablation_implications(fault_cap=192)
    out.write(block(render_table(rows, title="Implication strength")))
    out.write(
        "\nObservations: generation time falls monotonically with L and "
        "saturates around the lane count where every pending fault fits "
        "in one word; the combined mode dominates FPTPG-only on aborts "
        "exactly as Section 3.3 argues; disabling the unique backward "
        "implications ('best suited implication procedure') costs "
        "decisions and backtracks.\n\n"
    )

    out.write(
        f"---\nGenerated in {time.time() - t0:.1f}s of wall-clock time; "
        "all numbers re-measured on every regeneration.\n"
    )


if __name__ == "__main__":
    main()
