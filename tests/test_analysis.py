"""Tests of the metrics, table rendering and experiment runners."""

import pytest

from repro.analysis import (
    geometric_mean,
    render_comparison,
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
    speedup_row,
)
from repro.api import AtpgSession
from repro.core import generate_tests_single_bit
from repro.circuit.library import c17
from repro.paths import TestClass, all_faults


class TestMetrics:
    def test_speedup_row(self):
        circuit = c17()
        faults = all_faults(circuit)
        single = generate_tests_single_bit(circuit, faults, TestClass.NONROBUST)
        parallel = AtpgSession(circuit).generate(faults, test_class=TestClass.NONROBUST)
        row = speedup_row("c17", single, parallel)
        assert row.circuit == "c17"
        assert row.speedup > 0
        assert row.seconds_single >= 0

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) is None
        assert geometric_mean([5]) == pytest.approx(5.0)


class TestRendering:
    def test_render_table_alignment(self):
        rows = [
            {"circuit": "c17", "time_s": 0.5},
            {"circuit": "c432-like", "time_s": 12.25},
        ]
        text = render_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "circuit" in lines[1] and "time_s" in lines[1]
        assert len(lines) == 5
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_render_empty(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_render_comparison_selects_columns(self):
        rows = [
            {
                "circuit": "x",
                "TIP_tested": 5,
                "TIP_time_s": 0.1,
                "extra": "hidden",
            }
        ]
        text = render_comparison(rows, tools=["TIP"])
        assert "extra" not in text
        assert "TIP_tested" in text


class TestRunners:
    """Smoke runs at minimal scale: shapes and invariants only."""

    def test_table3_and_4_rows(self):
        rows3 = run_table3(circuits=["c432"], fault_cap=32)
        rows4 = run_table4(circuits=["c432"], fault_cap=32)
        assert rows3[0]["circuit"] == "c432-like"
        assert rows4[0]["efficiency_%"] == 100.0
        assert rows3[0]["faults"] == rows4[0]["faults"]

    def test_table5_and_6_speedups(self):
        rows = run_table6(circuits=["s713"], fault_cap=64)
        assert set(rows[0]) >= {"t_sens", "t_single", "t_parallel", "speedup"}
        rows = run_table5(circuits=["s713"], fault_cap=32)
        assert rows[0]["aborted_parallel"] <= rows[0]["aborted_single"]

    def test_table7_and_8_columns(self):
        rows = run_table7(circuits=["s641"], fault_cap=32)
        assert rows[0]["TIP_tested"] >= rows[0]["DYNAMITE_tested"]
        rows = run_table8(circuits=["s641"], fault_cap=24)
        assert "TSUNAMI_tested" in rows[0]

    def test_figures(self):
        fig1 = run_figure1()
        assert fig1["statuses"] == ["tested", "redundant", "tested", "tested"]
        fig2 = run_figure2()
        assert fig2["status"] == "tested"

    def test_ablation_word_length_monotone_verdicts(self):
        rows = run_ablation_word_length(widths=(1, 8), fault_cap=48)
        by_width = {row["L"]: row for row in rows}
        assert by_width[8]["tested"] == by_width[1]["tested"]

    def test_ablation_modes_complete(self):
        rows = run_ablation_modes(fault_cap=48)
        assert {row["mode"] for row in rows} == {
            "fptpg_only",
            "aptpg_only",
            "combined",
        }

    def test_ablation_implications_strength(self):
        rows = run_ablation_implications(fault_cap=48)
        by_kind = {row["implications"]: row for row in rows}
        strong = by_kind["with_backward"]
        weak = by_kind["forward_only"]
        assert (
            strong["tested"] + strong["redundant"]
            >= weak["tested"] + weak["redundant"]
        )
