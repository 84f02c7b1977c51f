"""Experiment runners, metrics and paper-style table rendering."""

from .metrics import (
    SpeedupRow,
    coverage_percent,
    efficiency_percent,
    geometric_mean,
    speedup_row,
)
from .tables import render_comparison, render_table
from .experiments import (
    run_ablation_implications,
    run_ablation_modes,
    run_ablation_word_length,
    run_atpg_table,
    run_comparison_table,
    run_figure1,
    run_figure2,
    run_speedup_table,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
)

__all__ = [
    "SpeedupRow",
    "coverage_percent",
    "efficiency_percent",
    "geometric_mean",
    "render_comparison",
    "render_table",
    "run_ablation_implications",
    "run_ablation_modes",
    "run_ablation_word_length",
    "run_atpg_table",
    "run_comparison_table",
    "run_figure1",
    "run_figure2",
    "run_speedup_table",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_table8",
    "speedup_row",
]
