"""Shared helpers for the benchmark harness.

Each ``bench_tableN.py`` module regenerates the paper's Table N and
``bench_figures.py`` its figures; ``bench_ablation.py``,
``bench_stuck_at.py`` and ``bench_primitives.py`` go beyond the paper.
The experiment runners are invoked once per benchmark (``pedantic``
mode) because each run is itself a full ATPG campaign; the rendered
paper-style table is printed so the output can be compared with the
publication row by row.
"""

import pytest

from repro.analysis.tables import render_table


def run_and_render(benchmark, runner, title, **kwargs):
    """Benchmark *runner* once and print its rows as a paper table."""
    rows = benchmark.pedantic(
        lambda: runner(**kwargs), rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(render_table(rows, title=title))
    return rows
