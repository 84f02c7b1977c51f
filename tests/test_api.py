"""Tests of the repro.api front door: session and unified options.

The load-bearing acceptance property: ``AtpgSession.generate`` is
bit-identical to the engine-mode campaign underneath it, and
``AtpgSession.campaign`` to the campaign it wraps.
"""

import re
import warnings

import pytest

import repro
from repro.api import (
    AtpgSession,
    Options,
    ResolutionError,
    resolve_circuit,
    resolve_test_class,
)
from repro.api.resolve import circuit_fingerprint
from repro.circuit.generators import random_dag, ripple_carry_adder
from repro.circuit.suites import suite_circuit
from repro.kernel import native_available
from repro.paths import TestClass, all_faults, fault_list
from repro.sim import DelayFaultSimulator

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C toolchain and no cached native module"
)


class TestSessionGenerate:
    @pytest.mark.parametrize("test_class", [TestClass.NONROBUST, TestClass.ROBUST])
    def test_c880_bit_identical_to_the_engine_mode_campaign(self, test_class):
        from repro.campaign import execute_campaign

        circuit = suite_circuit("c880", 1)
        faults = fault_list(circuit, cap=160, strategy="all")
        engine = execute_campaign(
            circuit, faults=faults, test_class=test_class, options=Options(width=16)
        ).as_tpg_report()

        session = AtpgSession(suite_circuit("c880", 1))
        report = session.generate(faults, test_class=test_class, width=16)
        assert [r.status for r in report.records] == [
            r.status for r in engine.records
        ]
        assert [r.pattern for r in report.records] == [
            r.pattern for r in engine.records
        ]

    def test_default_fault_list_materialization(self):
        session = AtpgSession(ripple_carry_adder(2))
        report = session.generate(test_class="robust")
        assert report.n_faults == len(all_faults(session.circuit))
        capped = session.generate(max_faults=4)
        assert capped.n_faults == 4

    def test_session_options_merged_with_call_overrides(self):
        session = AtpgSession(
            ripple_carry_adder(2), options=Options(width=4, drop_faults=False)
        )
        report = session.generate()
        assert report.width == 4
        assert report.count(repro.FaultStatus.SIMULATED) == 0
        # per-call override wins without mutating the session default
        assert session.generate(width=2).width == 2
        assert session.options.width == 4

    def test_engine_mode_ignores_parallel_fields(self):
        # generate() must behave as an unbounded-window campaign even
        # when the session defaults say otherwise
        session = AtpgSession(ripple_carry_adder(2), options=Options(window=64))
        report = session.generate(width=4)
        baseline = AtpgSession(ripple_carry_adder(2)).generate(width=4)
        assert [r.status for r in report.records] == [
            r.status for r in baseline.records
        ]


class TestSessionCampaign:
    def test_campaign_equals_execute_campaign(self):
        from repro.campaign import execute_campaign

        circuit = random_dag(10, 40, seed=7)
        faults = all_faults(circuit, cap=120)
        session = AtpgSession(random_dag(10, 40, seed=7))
        report = session.campaign(faults=faults, width=4)
        direct = execute_campaign(circuit, faults=faults, options=Options(width=4))
        assert report.statuses == direct.statuses
        assert report.patterns == direct.patterns


class TestSessionSimulateGradePaths:
    def test_simulate_masks_match_simulator(self):
        circuit = ripple_carry_adder(3)
        session = AtpgSession(circuit)
        faults = all_faults(circuit, cap=30)
        patterns = session.generate(faults, width=8).patterns
        masks = session.simulate(patterns, faults, test_class="nonrobust")
        expected = DelayFaultSimulator(
            session.circuit, TestClass.NONROBUST
        ).detection_masks(patterns, faults)
        assert masks == expected

    def test_grade_reports_coverage(self):
        session = AtpgSession(ripple_carry_adder(3))
        faults = all_faults(session.circuit, cap=40)
        report = session.generate(faults, width=8)
        grade = session.grade(report.patterns, faults)
        assert grade["faults"] == 40
        assert grade["patterns"] == len(report.patterns)
        assert 0.0 < grade["coverage"] <= 1.0
        assert sum(grade["detected_flags"]) == grade["detected"]
        # every TESTED fault is detected by the set that tested it
        for index, record in enumerate(report.records):
            if record.status is repro.FaultStatus.TESTED:
                assert grade["detected_flags"][index]

    @pytest.mark.parametrize("strength", [False, True])
    @pytest.mark.parametrize("backend", ["auto", "int", "numpy"])
    def test_wrong_pattern_widths_raise_value_error(self, backend, strength):
        from repro.core.patterns import TestPattern

        session = AtpgSession.open("c17")  # 5 inputs
        faults = all_faults(session.circuit)
        # widths 5, 4 and 6: 3 x 5 bits in all, so a joined buffer of
        # the rows reshapes without complaint
        ragged = [TestPattern((0,) * n, (1,) * n) for n in (5, 4, 6)]
        with pytest.raises(ValueError, match="pattern 1: v1 has 4 bits, expected 5"):
            session.grade(ragged, faults, backend=backend, strength=strength)
        short_v2 = [TestPattern((0,) * 5, (1,) * 5), TestPattern((0,) * 5, (1,) * 4)]
        with pytest.raises(ValueError, match="pattern 1: v2 has 4 bits, expected 5"):
            session.grade(short_v2, faults, backend=backend, strength=strength)

    @pytest.mark.parametrize("strength", [False, True])
    @pytest.mark.parametrize(
        "backend, fusion",
        [
            ("int", "auto"),
            ("int", "interp"),
            ("numpy", "auto"),
            pytest.param("native", "auto", marks=needs_native),
        ],
    )
    @pytest.mark.parametrize(
        "vector, bad",
        [
            ("v1", 2),
            ("v2", 2),
            ("v2", -1),
            # no integer: a uint8 conversion would truncate or parse these
            ("v1", 0.5),
            ("v2", 0.5),
            ("v2", 1.7),
            ("v1", "1"),
            ("v2", None),
        ],
    )
    def test_non_binary_bits_raise_value_error(
        self, backend, fusion, vector, bad, strength
    ):
        from repro.core.patterns import TestPattern

        session = AtpgSession.open("c17")
        faults = all_faults(session.circuit)
        bits = {"v1": (0,) * 5, "v2": (1,) * 5}
        bits[vector] = bits[vector][:2] + (bad,) + bits[vector][3:]
        patterns = [TestPattern((0,) * 5, (1,) * 5), TestPattern(**bits)]
        message = f"pattern 1: {vector} bit 2 is {bad!r}, expected 0 or 1"
        with pytest.raises(ValueError, match=re.escape(message)):
            session.grade(
                patterns, faults, backend=backend, fusion=fusion, strength=strength
            )
        assert not session.degraded  # rejection, not demotion

    @pytest.mark.parametrize("strength", [False, True])
    @pytest.mark.parametrize(
        "backend", ["int", "numpy", pytest.param("native", marks=needs_native)]
    )
    def test_packed_batch_of_the_wrong_width_raises_value_error(
        self, backend, strength
    ):
        import numpy as np

        from repro.kernel import PackedPatterns, pack_bits

        session = AtpgSession.open("c880")  # 17 inputs
        n_inputs = len(session.circuit.inputs)
        faults = fault_list(session.circuit, cap=32)
        rng = np.random.default_rng(3)
        # one row would broadcast to every input in the native pass
        for rows in (1, n_inputs - 1, n_inputs + 1):
            bits = rng.integers(0, 2, size=(4, rows), dtype=np.uint8)
            packed = PackedPatterns(
                v1=pack_bits(bits), v2=pack_bits(bits ^ 1), n_patterns=4
            )
            with pytest.raises(ValueError) as excinfo:
                session.grade(packed, faults, backend=backend, strength=strength)
            assert str(excinfo.value) == (
                f"pattern 0: v1 has {rows} bits, expected {n_inputs} "
                "(one per primary input)"
            )
        assert not session.degraded

    @pytest.mark.parametrize("strength", [False, True])
    @pytest.mark.parametrize(
        "backend, fusion",
        [
            ("int", "auto"),
            ("int", "interp"),
            ("numpy", "auto"),
            ("numpy", "interp"),
            pytest.param("native", "auto", marks=needs_native),
        ],
    )
    # 5.5 and "5" are no integer: no tier may read either as signal 5
    @pytest.mark.parametrize("signal", [9999, -3, 5.5, "5"])
    def test_fault_signal_outside_the_circuit_raises_value_error(
        self, backend, fusion, signal, strength
    ):
        from repro.core.patterns import TestPattern
        from repro.paths import PathDelayFault, Transition

        session = AtpgSession.open("c17")
        patterns = [TestPattern((0,) * 5, (1,) * 5)]
        for signals in ((signal,), (0, 5, signal)):
            faults = [PathDelayFault(signals, Transition.RISING)]
            with pytest.raises(ValueError) as excinfo:
                session.grade(
                    patterns, faults, backend=backend, fusion=fusion,
                    strength=strength,
                )
            assert str(excinfo.value) == (
                "fault path names a signal outside the circuit's "
                f"{session.compiled.n_signals}"
            )
        assert not session.degraded  # rejection, not demotion

    def test_paths_statistics(self):
        session = AtpgSession.open("paper_example")
        result = session.paths(histogram=True, limit=3)
        assert result["paths"] == 13
        assert result["faults"] == 26
        assert sum(count for _length, count in result["histogram"]) == 13
        assert len(result["listed"]) == 3
        assert all("-" in p for p in result["listed"])

    def test_simulator_cache_reused(self):
        session = AtpgSession(ripple_carry_adder(2))
        faults = all_faults(session.circuit, cap=8)
        patterns = session.generate(faults).patterns
        session.simulate(patterns, faults, test_class="robust")
        first = dict(session._simulators)
        session.simulate(patterns, faults, test_class="robust")
        assert dict(session._simulators) == first  # no rebuild


class TestUnifiedOptions:
    def test_engine_mode_view(self):
        options = Options(width=8, window=32, checkpoint="x.json")
        engine = options.engine_mode()
        assert engine.window is None
        assert engine.checkpoint is None
        assert engine.width == 8

    def test_layers_round_trip(self):
        options = Options(width=8, shards=3, compact_every=16)
        assert Options.from_layers(options.layers()) == options

    def test_from_layers_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown options layer"):
            Options.from_layers({"nonsense": {}})
        with pytest.raises(ValueError, match="unknown option"):
            Options.from_layers({"generation": {"wat": 1}})

    def test_validate(self):
        with pytest.raises(ValueError, match="width"):
            Options(width=0).validate()
        with pytest.raises(ValueError, match="window"):
            Options(width=32, window=8).validate()
        with pytest.raises(ValueError, match="shard_attempts"):
            Options(shard_attempts=0).validate()

    def test_retired_execution_fields(self):
        # the process pool's knobs are gone: constructing them fails,
        # old layered payloads drop them, and a per-call override is
        # dropped with one DeprecationWarning
        for name, value in (("workers", 1), ("shard_deadline_s", 5.0)):
            with pytest.raises(TypeError):
                Options(**{name: value})
        old = Options(width=8).layers()
        old["execution"].update(workers=3, shard_deadline_s=5.0)
        assert Options.from_layers(old) == Options(width=8)
        with pytest.warns(DeprecationWarning, match="workers") as caught:
            merged = Options(width=8).merged(workers=2, window=64)
        assert len(caught) == 1
        assert merged == Options(width=8, window=64)

    def test_workers_keyword_on_campaign_is_ignored_with_a_warning(self):
        # the benchmark's tpg workload passes workers=1 to every campaign
        from repro.campaign import CampaignControl

        session = AtpgSession(random_dag(10, 40, seed=7))
        faults = all_faults(session.circuit, cap=120)
        control = CampaignControl()
        plain = session.campaign(
            faults=faults, test_class="nonrobust", width=32, control=control
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = session.campaign(
                faults=faults, test_class="nonrobust", width=32, workers=1,
                control=control,
            )
        assert [w.category for w in caught] == [DeprecationWarning]
        assert caught[0].filename == __file__  # points at the caller
        assert report.statuses == plain.statuses
        assert report.modes == plain.modes
        assert report.patterns == plain.patterns
        assert report.options == plain.options
        for name in ("rounds", "decisions", "backtracks", "implication_passes"):
            assert getattr(report.stats, name) == getattr(plain.stats, name)


class TestRetiredNames:
    """The pre-1.2 shims, ``Options.adopt`` and the ``vector``/``codegen``
    strategies are gone; old payloads still read (``tests/test_serde.py``)."""

    def test_shims_are_not_bound(self):
        import repro.api
        import repro.campaign
        import repro.core

        for module in (repro, repro.core, repro.campaign, repro.api):
            for name in (
                "TpgOptions", "CampaignOptions", "generate_tests", "run_campaign"
            ):
                assert not hasattr(module, name), (module.__name__, name)
                assert name not in getattr(module, "__all__", ()), name
        assert not hasattr(Options, "adopt")

    @pytest.mark.parametrize("fusion", ["vector", "codegen", "jit"])
    def test_unknown_fusion_raises_at_construction(self, fusion):
        from repro.kernel import FUSION_MODES

        assert FUSION_MODES == ("auto", "interp")
        with pytest.raises(ValueError, match="unknown fusion strategy"):
            Options(fusion=fusion)
        with pytest.raises(ValueError, match="unknown fusion strategy"):
            Options().merged(fusion=fusion)


class TestResolution:
    def test_shared_resolver(self):
        assert resolve_circuit("c17").name == "c17"
        assert resolve_circuit("s713").name == "s713_like"
        with pytest.raises(ResolutionError, match="unknown circuit"):
            resolve_circuit("nope")

    def test_test_class_resolution(self):
        assert resolve_test_class("robust") is TestClass.ROBUST
        assert resolve_test_class("NONROBUST") is TestClass.NONROBUST
        assert resolve_test_class(TestClass.ROBUST) is TestClass.ROBUST
        assert resolve_test_class(None) is TestClass.NONROBUST
        with pytest.raises(ResolutionError, match="test class"):
            resolve_test_class("maybe")

    def test_fingerprint_is_structural(self):
        a = circuit_fingerprint(ripple_carry_adder(3))
        b = circuit_fingerprint(ripple_carry_adder(3))
        c = circuit_fingerprint(ripple_carry_adder(4))
        assert a == b != c


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.7.0"

    def test_all_is_authoritative(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
        # the front-door names are exported
        for name in ("api", "AtpgSession", "AtpgService", "Options"):
            assert name in repro.__all__
        # the paper's single-bit reference generator is a functional
        # entry point
        assert "generate_tests_single_bit" in repro.__all__


class TestTipDispatcher:
    def test_subcommand_dispatch(self, capsys):
        from repro.cli import main

        assert main(["atpg", "c17", "--max-faults", "6"]) == 0
        assert "ATPG summary" in capsys.readouterr().out

    def test_paths_alias_equivalence(self, capsys):
        from repro.cli import main, main_paths

        assert main(["paths", "paper_example"]) == 0
        via_tip = capsys.readouterr().out
        assert main_paths(["paper_example"]) == 0
        assert capsys.readouterr().out == via_tip

    def test_unknown_command(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown command"):
            main(["frobnicate"])

    def test_help(self, capsys):
        from repro.cli import main

        assert main([]) == 0
        out = capsys.readouterr().out
        for command in ("atpg", "campaign", "serve", "validate"):
            assert command in out

    def test_validate_subcommand(self, capsys, tmp_path):
        from repro.cli import main

        good = tmp_path / "ok.json"
        good.write_text(
            '{"schema": "repro/fault", "schema_version": 1, '
            '"signals": [0, 1], "transition": "R"}\n'
        )
        assert main(["validate", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro/fault", "schema_version": 7}\n')
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "unknown schema_version" in out

    def test_validate_takes_paths_and_reads_checkpoints(self, capsys, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["validate"])  # no default glob: paths are required
        assert excinfo.value.code == 2
        checkpoint = tmp_path / "camp.json"
        assert main(
            ["campaign", "c17", "--width", "4", "--checkpoint", str(checkpoint)]
        ) == 0
        capsys.readouterr()
        assert main(["validate", str(checkpoint)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"ok   {checkpoint}: repro/campaign-checkpoint v4")
        # tpg reports: the current string-vector v3 and a v1-era file
        # with int-list vectors both validate
        import json

        from repro.api import serde

        def int_lists(pattern):
            if pattern is None:
                return None
            return {
                **pattern,
                "v1": [int(c) for c in pattern["v1"]],
                "v2": [int(c) for c in pattern["v2"]],
            }

        report = AtpgSession.open("c17").generate(width=4)
        current = serde.tpg_report_to_payload(report)
        v1_era = {
            **current,
            "schema_version": 1,
            "records": [
                {**record, "pattern": int_lists(record["pattern"])}
                for record in current["records"]
            ],
        }
        assert any(record["pattern"] for record in v1_era["records"])
        for version, payload in ((3, current), (1, v1_era)):
            path = tmp_path / f"tpg-v{version}.json"
            path.write_text(json.dumps(payload))
            assert main(["validate", str(path)]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"ok   {path}: repro/tpg-report v{version}")

    def test_command_set(self):
        from repro.cli import COMMANDS

        assert sorted(COMMANDS) == [
            "atpg", "bist", "campaign", "experiments", "paths", "serve", "validate",
        ]
