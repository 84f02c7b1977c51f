"""Tests of the command-line interface."""

import pytest

from repro.circuit.library import C17_BENCH
from repro.cli import (
    main_atpg,
    main_campaign,
    main_experiments,
    main_paths,
    resolve_circuit,
)
from repro.core.state import tpg_tier


class TestResolveCircuit:
    def test_embedded(self):
        assert resolve_circuit("c17").name == "c17"

    def test_suite(self):
        assert resolve_circuit("s713").name == "s713_like"

    def test_bench_file(self, tmp_path):
        path = tmp_path / "mini.bench"
        path.write_text(C17_BENCH)
        assert resolve_circuit(str(path)).name == "mini"

    def test_unknown(self):
        with pytest.raises(SystemExit, match="unknown circuit"):
            resolve_circuit("not_a_circuit")


class TestAtpgCommand:
    def test_basic_run(self, capsys):
        assert main_atpg(["c17"]) == 0
        out = capsys.readouterr().out
        assert "ATPG summary" in out
        assert "c17" in out

    def test_robust_with_patterns(self, capsys):
        assert main_atpg(["paper_example", "--class", "robust", "--patterns"]) == 0
        out = capsys.readouterr().out
        assert "V1=" in out and "V2=" in out

    def test_single_bit_and_caps(self, capsys):
        assert main_atpg(["c17", "--single-bit", "--max-faults", "6"]) == 0
        out = capsys.readouterr().out
        assert " 6" in out  # the capped fault count appears in the table


class TestPathsCommand:
    def test_counts(self, capsys):
        assert main_paths(["paper_example"]) == 0
        out = capsys.readouterr().out
        assert "paths     : 13" in out
        assert "faults    : 26" in out

    def test_histogram_and_list(self, capsys):
        assert main_paths(["paper_example", "--histogram", "--list", "3"]) == 0
        out = capsys.readouterr().out
        assert "path length histogram" in out
        assert out.count("-") > 5  # some paths got listed


class TestCampaignCommand:
    def test_basic_run(self, capsys):
        assert (
            main_campaign(
                [
                    "c880",
                    "--width", "16",
                    "--max-faults", "120",
                    "--window", "64",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaign summary" in out
        assert "peak pending" in out
        assert "decisions: " in out and "backtracks: " in out
        assert "implication passes: " in out
        assert f"tpg tier: {tpg_tier(16)}\n" in out

    def test_checkpoint_resume_and_json(self, capsys, tmp_path):
        ckpt = tmp_path / "campaign.ckpt.json"
        summary = tmp_path / "summary.json"
        argv = [
            "s838",
            "--width", "8",
            "--max-paths", "40",
            "--checkpoint", str(ckpt),
            "--checkpoint-every", "1",
            "--json", str(summary),
        ]
        assert main_campaign(argv) == 0
        first = capsys.readouterr().out
        assert ckpt.exists()
        import json

        payload = json.loads(summary.read_text())
        assert payload["summary"]["faults"] == 80  # 40 paths x 2 transitions
        # resuming a completed campaign reports the same summary
        assert main_campaign(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[2] == second.splitlines()[2]

    def test_min_length_filter(self, capsys):
        assert (
            main_campaign(
                ["c17", "--min-length", "3", "--no-records", "--no-drop"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaign summary" in out


class TestExperimentsCommand:
    def test_figure1(self, capsys):
        assert main_experiments(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "redundant" in out
        assert "lane words" in out

    def test_figure2(self, capsys):
        assert main_experiments(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "status: tested" in out

    def test_table_run(self, capsys):
        assert main_experiments(["table4", "--fault-cap", "24"]) == 0
        out = capsys.readouterr().out
        assert "table4 (reproduction)" in out
        assert "c432-like" in out

    def test_invalid_choice(self):
        with pytest.raises(SystemExit):
            main_experiments(["table9"])
