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

    @pytest.mark.parametrize("scale", [0, -4])
    def test_a_suite_scale_below_one_is_refused(self, scale):
        from repro.api import resolve_circuit as api_resolve_circuit

        message = f"scale must be at least 1, got {scale}"
        for resolve in (resolve_circuit, api_resolve_circuit):
            with pytest.raises(ValueError, match=message):
                resolve("c1355", scale)
        # a file or an embedded circuit takes no scale
        assert api_resolve_circuit("c17", scale).name == "c17"


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


class TestBistCommand:
    def test_help_names_the_registered_command(self, capsys):
        from repro.cli import COMMANDS, main

        with pytest.raises(SystemExit) as excinfo:
            main(["bist", "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tip bist ")
        for name in COMMANDS:
            with pytest.raises(SystemExit):
                main([name, "--help"])
            assert capsys.readouterr().out.startswith(f"usage: tip {name} ")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--fusion", "codegen"],
            ["--fusion", "vector"],
            ["--backend", "native", "--fusion", "interp"],
        ],
    )
    def test_refused_fusion_exits_2(self, flags, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["bist", "c17", *flags])
        assert excinfo.value.code == 2
        assert "tip bist: error:" in capsys.readouterr().err


#: Each subcommand's refused values, with the options layer's message.
REFUSED = [
    (["campaign", "c17", "--width", "0"], "width must be >= 1"),
    (["campaign", "c17", "--shards", "0"], "shards must be >= 1"),
    (["campaign", "c17", "--window", "-1"], "window must be >= 0, got -1"),
    (["atpg", "c17", "--width", "0"], "width must be >= 1"),
    (["bist", "c17", "--max-patterns", "0"], "bist_max_patterns must be >= 1"),
    (["bist", "c17", "--window", "0"], "bist_window must be >= 1"),
    (["serve", "--workers", "0"], "workers must be >= 1"),
    (["serve", "--max-queue", "-1"], "max_queue must be >= 1"),
    (["serve", "--port", "-1"], "port must be in [0, 65535], got -1"),
    (["serve", "--port", "70000"], "port must be in [0, 65535], got 70000"),
    (
        ["serve", "--chaos", '{"points": [{"site": "bogus", "at": [0]}]}'],
        "unknown chaos site 'bogus'",
    ),
    (["atpg", "c17", "--max-faults", "-1"], "max_faults must be >= 0, got -1"),
    (["campaign", "c17", "--max-faults", "-1"], "max_faults must be >= 0, got -1"),
    (["campaign", "c17", "--max-paths", "-1"], "max_paths must be >= 0, got -1"),
    (["bist", "c17", "--max-faults", "-1"], "max_faults must be >= 0, got -1"),
    (["paths", "c17", "--list", "-1"], "list must be >= 0, got -1"),
    (["experiments", "table3", "--fault-cap", "-1"], "fault_cap must be >= 0, got -1"),
    (["atpg", "c1355", "--scale", "0"], "scale must be at least 1, got 0"),
    (["campaign", "c1355", "--scale", "-4"], "scale must be at least 1, got -4"),
    (["paths", "c1355", "--scale", "0"], "scale must be at least 1, got 0"),
    (["bist", "c1355", "--scale", "0"], "scale must be at least 1, got 0"),
    (["experiments", "table3", "--scale", "0"], "scale must be at least 1, got 0"),
]


class TestRefusedValues:
    """A value the options layer or a cap refuses is a usage error: exit
    2 with the message on stderr, no traceback."""

    @pytest.mark.parametrize(
        "argv, message", REFUSED, ids=[" ".join(argv) for argv, _ in REFUSED]
    )
    def test_exits_2_with_the_message(self, argv, message, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"tip {argv[0]}: error: {message}" in err
        assert err.startswith("usage: tip ")
        assert "Traceback" not in err

    def test_max_faults_zero_generates_nothing(self, capsys):
        assert main_atpg(["c880", "--max-faults", "0"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row[3:7] == ["0", "0", "0", "0"]  # faults tested redundant aborted
