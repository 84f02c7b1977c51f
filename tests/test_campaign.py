"""Tests for the staged ATPG campaign pipeline.

The load-bearing invariant: the campaign schedule is a pure function
of its options, never of timing — so a campaign produces
*bit-identical* per-fault statuses to the serial engine (which is an
unbounded-window campaign by construction).  The tests assert that
equivalence on the c880-scale suite and on random circuits
(property-based), plus the streaming window bound,
checkpoint/resume, incremental compaction, and the fault universe's
filtering/dedup/budget semantics.
"""

import contextlib
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AtpgSession, Options
from repro.campaign import (
    CampaignReport,
    FaultUniverse,
    SerialExecutor,
    execute_campaign,
)
from repro.campaign.runner import _Campaign
from repro.circuit import CircuitBuilder
from repro.circuit.generators import random_dag, ripple_carry_adder
from repro.circuit.suites import suite_circuit
from repro.core import FaultStatus
from repro.kernel import native_available
from repro.paths import TestClass, all_faults, fault_list
from repro.sim import DelayFaultSimulator
from tiers import python_tiers


def campaign_statuses(report: CampaignReport):
    return [report.statuses[i] for i in range(report.n_faults)]


def engine_statuses(report):
    return [record.status for record in report.records]


def detected_set(report):
    return {
        i
        for i, record in enumerate(report.records)
        if record.is_detected
    }


class TestSerialEquivalence:
    """campaign == serial engine (``AtpgSession.generate``)."""

    @pytest.mark.parametrize("test_class", [TestClass.NONROBUST, TestClass.ROBUST])
    def test_c880_scale_identical(self, test_class):
        session = AtpgSession(suite_circuit("c880", 1))
        circuit = session.circuit
        faults = fault_list(circuit, cap=160, strategy="all")
        serial = session.generate(faults, test_class=test_class, width=16)
        campaign = session.campaign(
            faults=faults, test_class=test_class, options=Options(width=16)
        )
        assert campaign_statuses(campaign) == engine_statuses(serial)
        assert set(campaign.detected_indices()) == detected_set(serial)
        # post-simulation coverage of the generated sets is identical
        sim = DelayFaultSimulator(circuit, test_class)
        assert sim.coverage(campaign.patterns, faults) == pytest.approx(
            sim.coverage(serial.patterns, faults)
        )

    def test_campaign_matches_generate_with_drops(self):
        # this workload exercises SIMULATED, REDUNDANT and TESTED at once
        session = AtpgSession(random_dag(10, 40, seed=7))
        faults = all_faults(session.circuit, cap=200)
        campaign = session.campaign(faults=faults, options=Options(width=4))
        serial = session.generate(faults, options=Options(width=4))
        assert campaign_statuses(campaign) == engine_statuses(serial)
        statuses = set(campaign_statuses(campaign))
        assert FaultStatus.SIMULATED in statuses  # drops really happened

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        width=st.sampled_from([2, 4, 8]),
        robust=st.booleans(),
    )
    def test_property_random_circuits(self, seed, width, robust):
        session = AtpgSession(random_dag(8, 30, seed=seed))
        faults = all_faults(session.circuit, cap=80)
        test_class = TestClass.ROBUST if robust else TestClass.NONROBUST
        serial = session.generate(faults, test_class=test_class, width=width)
        campaign = session.campaign(
            faults=faults, test_class=test_class, options=Options(width=width)
        )
        assert campaign_statuses(campaign) == engine_statuses(serial)
        assert set(campaign.detected_indices()) == detected_set(serial)


class TestStreaming:
    def test_window_bounds_pending_set(self):
        circuit = suite_circuit("c880", 1)
        universe = FaultUniverse.from_circuit(circuit, max_faults=300)
        report = execute_campaign(
            circuit,
            universe=universe,
            options=Options(width=16, window=48),
        )
        assert report.n_faults == 300
        assert report.stats.peak_pending <= 48
        assert report.complete

    def test_windowed_detection_matches_serial(self):
        circuit = random_dag(10, 40, seed=7)
        faults = all_faults(circuit, cap=200)
        serial = AtpgSession(circuit).generate(
            faults, test_class=TestClass.NONROBUST, width=4
        )
        windowed = execute_campaign(
            circuit,
            universe=FaultUniverse.from_faults(faults),
            options=Options(width=4, window=16),
        )
        # the drop schedule differs under a bounded window, so statuses
        # may trade TESTED for SIMULATED — but detection must agree
        assert set(windowed.detected_indices()) == detected_set(serial)
        assert windowed.stats.peak_pending <= 16

    def test_admission_dropping(self):
        # two outputs behind one buffer: once the o1 paths are tested,
        # the o2 faults are covered before they are ever scheduled
        b = CircuitBuilder("fanout")
        b.inputs("a")
        b.buf("x", "a")
        b.buf("o1", "x")
        b.buf("o2", "x")
        b.outputs("o1", "o2")
        circuit = b.build()
        faults = all_faults(circuit)
        report = execute_campaign(
            circuit,
            universe=FaultUniverse.from_faults(faults),
            options=Options(width=1, shards=2, window=2),
        )
        assert report.count(FaultStatus.SIMULATED) > 0
        assert report.stats.admitted_dropped > 0


class TestFaultUniverse:
    def test_budget_and_filters(self):
        circuit = ripple_carry_adder(4)
        universe = FaultUniverse.from_circuit(
            circuit, max_faults=10, min_length=2, max_length=5
        )
        faults = universe.head(100)
        assert len(faults) == 10
        assert all(2 <= f.length <= 5 for f in faults)

    def test_predicate_filter(self):
        circuit = ripple_carry_adder(3)
        output = circuit.outputs[0]
        universe = FaultUniverse.from_circuit(
            circuit, predicate=lambda f: f.output_signal == output
        )
        faults = universe.head(50)
        assert faults and all(f.output_signal == output for f in faults)

    def test_stream_resumes_by_position(self):
        circuit = ripple_carry_adder(3)
        universe = FaultUniverse.from_circuit(circuit, max_faults=40)
        full = list(universe.stream())
        tail = list(universe.stream(start=25))
        assert tail == full[25:]
        assert [i for i, _f in full] == list(range(len(full)))

    def test_dedup(self):
        circuit = ripple_carry_adder(2)
        faults = all_faults(circuit, cap=10)
        universe = FaultUniverse.from_faults(faults + faults, dedup=True)
        assert len(universe.head(100)) == len(faults)


class TestCheckpointResume:
    def test_interrupted_campaign_resumes_identically(self, tmp_path):
        session = AtpgSession(random_dag(10, 40, seed=7))
        circuit = session.circuit
        faults = all_faults(circuit, cap=120)
        baseline = session.campaign(
            universe=FaultUniverse.from_faults(faults),
            options=Options(width=4, window=32),
        )

        # run a few rounds by hand, checkpoint, and abandon the run
        path = str(tmp_path / "campaign.json")
        partial_options = Options(width=4, window=32, checkpoint=path, resume=True)
        partial = _Campaign(
            circuit,
            FaultUniverse.from_faults(faults),
            TestClass.NONROBUST,
            partial_options,
        )
        executor = SerialExecutor(circuit, TestClass.NONROBUST, 4, True, 64)
        stream = partial.universe.stream()
        for _round in range(3):
            partial.pull(stream)
            partial.fptpg_round(executor)
        partial.save_checkpoint()
        settled_at_interrupt = len(partial.report.statuses)
        assert 0 < settled_at_interrupt < len(faults)

        resumed = session.campaign(
            universe=FaultUniverse.from_faults(faults), options=partial_options
        )
        assert resumed.complete
        assert campaign_statuses(resumed) == campaign_statuses(baseline)
        assert len(resumed.patterns) == len(baseline.patterns)

    def test_v3_checkpoint_resumes_and_other_versions_are_refused(
        self, tmp_path
    ):
        """A checkpoint whose stats still carry ``worker_restarts`` (v3)
        resumes to the uninterrupted result; v2 and v5 are refused."""
        from repro.api import integrity
        from repro.api.schemas import validate
        from repro.campaign import CampaignControl

        session = AtpgSession(random_dag(10, 40, seed=7))
        faults = all_faults(session.circuit, cap=120)
        options = dict(width=4, window=32)
        baseline = session.campaign(faults=faults, **options)

        class StopAfter(CampaignControl):
            rounds = 0

            def should_stop(self):
                return self.rounds >= 3

            def on_round(self, progress):
                self.rounds = progress["rounds"]

        path = str(tmp_path / "campaign.json")
        partial = session.campaign(
            faults=faults, control=StopAfter(), checkpoint=path, resume=True,
            **options,
        )
        assert not partial.complete
        payload, _ = integrity.load_json_verified(path)
        assert payload["version"] == 4
        assert "worker_restarts" not in payload["stats"]
        payload["stats"]["worker_restarts"] = 0

        def rewrite(version):
            integrity.write_json_rotated(
                path, {**payload, "schema_version": version, "version": version}
            )

        for version in (2, 5):
            rewrite(version)
            with pytest.raises(ValueError, match=f"has version {version}"):
                session.campaign(
                    faults=faults, checkpoint=path, resume=True, **options
                )
        rewrite(3)
        validate(integrity.load_json_verified(path)[0])  # a well-formed v3
        resumed = session.campaign(
            faults=faults, checkpoint=path, resume=True, **options
        )
        assert resumed.complete
        assert campaign_statuses(resumed) == campaign_statuses(baseline)
        assert [(p.v1, p.v2) for p in resumed.patterns] == [
            (p.v1, p.v2) for p in baseline.patterns
        ]

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        interrupt_after=st.integers(min_value=1, max_value=4),
    )
    def test_property_mid_round_resume_matches_uninterrupted(
        self, seed, interrupt_after
    ):
        """Interrupt after any round count -> resume is bit-identical.

        The property behind crash recovery: wherever a run dies, the
        checkpointed prefix plus the resumed suffix must detect
        exactly the faults an uninterrupted run detects.
        """
        import tempfile

        session = AtpgSession(random_dag(9, 35, seed=seed))
        circuit = session.circuit
        faults = all_faults(circuit, cap=100)
        baseline = session.campaign(
            universe=FaultUniverse.from_faults(faults), options=Options(width=4)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "campaign.json")
            options = Options(width=4, checkpoint=path, resume=True)
            partial = _Campaign(
                circuit,
                FaultUniverse.from_faults(faults),
                TestClass.NONROBUST,
                options,
            )
            executor = SerialExecutor(circuit, TestClass.NONROBUST, 4, True, 64)
            stream = partial.universe.stream()
            for _round in range(interrupt_after):
                partial.pull(stream)
                if not partial.fptpg_round(executor):
                    break
            partial.save_checkpoint()

            resumed = session.campaign(
                universe=FaultUniverse.from_faults(faults), options=options
            )
        assert resumed.complete
        assert campaign_statuses(resumed) == campaign_statuses(baseline)
        assert set(resumed.detected_indices()) == set(
            baseline.detected_indices()
        )

    def test_completed_checkpoint_short_circuits(self, tmp_path):
        circuit = ripple_carry_adder(3)
        path = str(tmp_path / "done.json")
        options = Options(
            width=8, checkpoint=path, checkpoint_every=1, resume=True
        )
        first = execute_campaign(
            circuit,
            universe=FaultUniverse.from_circuit(circuit, max_faults=60),
            options=options,
        )
        again = execute_campaign(
            circuit,
            universe=FaultUniverse.from_circuit(circuit, max_faults=60),
            options=options,
        )
        assert campaign_statuses(again) == campaign_statuses(first)
        assert again.complete

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        circuit = ripple_carry_adder(3)
        path = str(tmp_path / "ckpt.json")
        execute_campaign(
            circuit,
            universe=FaultUniverse.from_circuit(circuit, max_faults=20),
            options=Options(width=8, checkpoint=path),
        )
        with pytest.raises(ValueError, match="width"):
            execute_campaign(
                circuit,
                universe=FaultUniverse.from_circuit(circuit, max_faults=20),
                options=Options(width=16, checkpoint=path, resume=True),
            )

    def test_mismatched_universe_rejected(self, tmp_path):
        """Different stream filters renumber the faults — resuming
        under them must be refused, not silently merged."""
        circuit = ripple_carry_adder(3)
        path = str(tmp_path / "ckpt.json")
        options = Options(width=8, checkpoint=path, resume=True)
        execute_campaign(
            circuit,
            universe=FaultUniverse.from_circuit(circuit, max_faults=20),
            options=options,
        )
        with pytest.raises(ValueError, match="universe"):
            execute_campaign(
                circuit,
                universe=FaultUniverse.from_circuit(
                    circuit, max_faults=20, min_length=3
                ),
                options=options,
            )

    def test_malformed_checkpoint_is_refused_at_load(self, tmp_path):
        """A checkpoint without a checksum verifies trivially, so its
        shape is validated too: a malformed row is a SchemaError at
        load, not a TypeError deep in the restore."""
        from repro.api.schemas import SchemaError

        session = AtpgSession(ripple_carry_adder(2))
        faults = all_faults(session.circuit, cap=20)
        path = str(tmp_path / "ckpt.json")
        session.campaign(faults=faults, checkpoint=path, width=4)
        with open(path) as handle:
            payload = json.load(handle)
        del payload["sha256"]
        payload["settled"] = 5
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(SchemaError, match=r"\$\.settled"):
            session.campaign(faults=faults, checkpoint=path, resume=True, width=4)

    def test_checkpoint_is_json(self, tmp_path):
        circuit = ripple_carry_adder(3)
        path = str(tmp_path / "ckpt.json")
        execute_campaign(
            circuit,
            universe=FaultUniverse.from_circuit(circuit, max_faults=30),
            options=Options(width=4, checkpoint=path),
        )
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["complete"] is True
        assert payload["circuit"] == circuit.name
        assert len(payload["settled"]) == 30


class TestIncrementalCompaction:
    def test_compaction_bounds_patterns_and_keeps_target_coverage(self):
        circuit = ripple_carry_adder(5)
        faults = all_faults(circuit, cap=240)
        plain = execute_campaign(
            circuit,
            faults=faults,
            options=Options(width=8),
        )
        compacted = execute_campaign(
            circuit,
            faults=faults,
            options=Options(width=8, compact_every=32),
        )
        assert compacted.stats.compactions > 0
        assert len(compacted.patterns) <= len(plain.patterns)
        # every detected fault is still covered by the compacted set
        sim = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        detected = [faults[i] for i in compacted.detected_indices()]
        assert sim.coverage(compacted.patterns, detected) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    def test_compaction_preserves_collateral_coverage(self, seed):
        """Drop-heavy workloads: SIMULATED faults have no pattern of
        their own, but the compacted set must still detect them."""
        circuit = random_dag(10, 40, seed=seed)
        faults = all_faults(circuit, cap=150)
        report = execute_campaign(
            circuit,
            faults=faults,
            options=Options(width=4, compact_every=4),
        )
        sim = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        detected = [faults[i] for i in report.detected_indices()]
        assert sim.coverage(report.patterns, detected) == pytest.approx(1.0)

    def test_compaction_after_resume_preserves_coverage(self, tmp_path):
        """Pre-resume patterns and obligations survive the checkpoint,
        so post-resume compaction cannot discard claimed coverage."""
        session = AtpgSession(random_dag(10, 40, seed=7))
        circuit = session.circuit
        faults = all_faults(circuit, cap=150)
        path = str(tmp_path / "compact.json")
        options = Options(width=4, compact_every=8, checkpoint=path, resume=True)
        partial = _Campaign(
            circuit,
            FaultUniverse.from_faults(faults),
            TestClass.NONROBUST,
            options,
        )
        executor = SerialExecutor(circuit, TestClass.NONROBUST, 4, True, 64)
        stream = partial.universe.stream()
        for _round in range(6):
            partial.pull(stream)
            partial.fptpg_round(executor)
        partial.save_checkpoint()
        assert 0 < len(partial.report.statuses) < len(faults)

        resumed = session.campaign(
            universe=FaultUniverse.from_faults(faults), options=options
        )
        assert resumed.stats.compactions > 0
        sim = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        detected = [faults[i] for i in resumed.detected_indices()]
        assert sim.coverage(resumed.patterns, detected) == pytest.approx(1.0)


class TestReportAdapters:
    def test_as_tpg_report_round_trip(self):
        circuit = ripple_carry_adder(3)
        faults = all_faults(circuit, cap=60)
        campaign = execute_campaign(circuit, faults=faults)
        tpg = campaign.as_tpg_report()
        assert tpg.n_faults == len(faults)
        assert engine_statuses(tpg) == campaign_statuses(campaign)
        assert tpg.summary()["efficiency_%"] == pytest.approx(
            campaign.efficiency, abs=1e-4
        )

    def test_summary_shape(self):
        circuit = ripple_carry_adder(3)
        report = execute_campaign(
            circuit, universe=FaultUniverse.from_circuit(circuit, max_faults=40)
        )
        summary = report.summary()
        assert summary["faults"] == 40
        assert (
            summary["tested"]
            + summary["simulated"]
            + summary["redundant"]
            + summary["aborted"]
            == 40
        )

    def test_keep_records_false(self):
        circuit = ripple_carry_adder(3)
        report = execute_campaign(
            circuit,
            universe=FaultUniverse.from_circuit(circuit, max_faults=40),
            options=Options(keep_records=False),
        )
        assert report.records is None
        assert report.n_faults == 40
        with pytest.raises(ValueError, match="keep_records"):
            report.as_tpg_report()


class TestDetectionMasks:
    def test_masks_align_with_detected_faults(self):
        from repro.core.patterns import random_patterns

        circuit = ripple_carry_adder(4)
        faults = all_faults(circuit, cap=50)
        patterns = random_patterns(circuit, 96, seed=3)
        sim = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        masks = sim.detection_masks(patterns, faults)
        by_fault = sim.detected_faults(patterns, faults)
        assert masks == [by_fault[f] for f in faults]


class TestFaultTableRows:
    """The drop bus's fault table: rows follow the pending window, and
    a resumed run registers its restored pending faults again."""

    @pytest.mark.parametrize("stop_after", [1, 5, 12])
    def test_windowed_stop_and_resume_matches_an_uninterrupted_run(
        self, tmp_path, stop_after
    ):
        from repro.campaign import CampaignControl

        circuit = random_dag(10, 40, seed=7)
        session = AtpgSession(circuit)

        def universe():
            return FaultUniverse.from_circuit(circuit, max_faults=160)

        options = dict(width=4, window=16)
        baseline = session.campaign(universe=universe(), **options)

        class StopAfter(CampaignControl):
            rounds = 0

            def should_stop(self):
                return self.rounds >= stop_after

            def on_round(self, progress):
                self.rounds = progress["rounds"]

        path = str(tmp_path / "windowed.json")
        partial = session.campaign(
            universe=universe(), control=StopAfter(), checkpoint=path,
            resume=True, **options,
        )
        assert not partial.complete and partial.stats.rounds == stop_after
        resumed = session.campaign(
            universe=universe(), checkpoint=path, resume=True, **options
        )
        assert resumed.complete
        assert campaign_statuses(resumed) == campaign_statuses(baseline)
        assert resumed.modes == baseline.modes
        assert [(p.v1, p.v2) for p in resumed.patterns] == [
            (p.v1, p.v2) for p in baseline.patterns
        ]
        for name in ("rounds", "decisions", "backtracks", "implication_passes",
                     "admitted_dropped", "streamed"):
            assert getattr(resumed.stats, name) == getattr(baseline.stats, name)

    def test_streaming_through_a_small_window_keeps_the_table_bounded(
        self, monkeypatch
    ):
        from repro.api import AtpgSession
        from repro.campaign.bus import DropBus

        sizes = []
        register = DropBus.register

        def recording(self, arrivals):
            result = register(self, arrivals)
            sizes.append((len(self.table), len(self._rows)))
            return result

        monkeypatch.setattr(DropBus, "register", recording)
        circuit = suite_circuit("c880", 1)
        window = 16
        report = AtpgSession(circuit).campaign(
            universe=FaultUniverse.from_circuit(circuit, max_faults=400),
            width=8,
            window=window,
        )
        assert report.n_faults == 400 and report.complete
        assert len(sizes) > 20
        assert max(rows for _table, rows in sizes) <= window
        assert max(table for table, _rows in sizes) <= 2 * window


class TestMalformedFaults:
    """A fault naming a signal outside the circuit, or whose path does not
    start at a primary input, settles alone, at admission:
    ``skipped_error`` with an error envelope, never scheduled, and every
    other fault settles as in a clean run.  The library runners refuse
    it before they build any state."""

    @staticmethod
    def setup():
        circuit = suite_circuit("c880", 1)
        return AtpgSession(circuit), fault_list(circuit, cap=64)

    @staticmethod
    def off_input(session, faults):
        """The first fault's path without its primary input, and the
        rejection naming the internal signal it now starts at."""
        from repro.paths import PathDelayFault, Transition
        from repro.paths.table import path_input_error

        bad = PathDelayFault(faults[0].signals[1:], Transition.RISING)
        start = bad.input_signal
        assert 0 <= start < session.compiled.n_signals
        assert not session.compiled.is_input[start]
        return bad, path_input_error(start, session.circuit.signal_name(start))

    @staticmethod
    def assert_campaign_settles_alone(session, faults, bad, error, test_class):
        clean = session.campaign(faults=faults, test_class=test_class)
        report = session.campaign(faults=[bad] + faults, test_class=test_class)
        assert report.complete and report.n_faults == 65
        assert report.statuses[0] is FaultStatus.SKIPPED_ERROR
        assert report.modes[0] == "error"
        assert report.errors == {
            0: {"error": "ValueError", "detail": str(error), "attempts": 0}
        }
        assert report.stats.shard_retries == 0
        assert report.stats.quarantined_shards == 0
        assert [report.statuses[i + 1] for i in range(64)] == campaign_statuses(clean)
        assert [report.modes[i + 1] for i in range(64)] == [
            clean.modes[i] for i in range(64)
        ]
        assert [(p.v1, p.v2) for p in report.patterns] == [
            (p.v1, p.v2) for p in clean.patterns
        ]
        for name in ("rounds", "decisions", "backtracks", "implication_passes"):
            assert getattr(report.stats, name) == getattr(clean.stats, name)
        assert clean.count(FaultStatus.TESTED) == 64

    @staticmethod
    def assert_generate_settles_alone(session, faults, bad, test_class):
        clean = session.generate(faults, test_class=test_class)
        report = session.generate([bad] + faults, test_class=test_class)
        assert report.records[0].status is FaultStatus.SKIPPED_ERROR
        assert report.records[0].mode == "error"
        assert report.records[0].fault == bad
        assert [
            (r.status, r.mode, r.pattern and (r.pattern.v1, r.pattern.v2))
            for r in report.records[1:]
        ] == [
            (r.status, r.mode, r.pattern and (r.pattern.v1, r.pattern.v2))
            for r in clean.records
        ]

    @pytest.mark.parametrize("bad_id", [99999, -3])
    def test_campaign(self, auto_tier, bad_id):
        from repro.paths import PathDelayFault, Transition
        from repro.paths.table import signal_range_error

        session, faults = self.setup()
        bad = PathDelayFault((0, bad_id), Transition.RISING)
        error = signal_range_error(session.compiled.n_signals)
        self.assert_campaign_settles_alone(session, faults, bad, error, "nonrobust")

    @pytest.mark.parametrize("bad_id", [99999, -3])
    def test_generate(self, auto_tier, bad_id):
        from repro.paths import PathDelayFault, Transition

        session, faults = self.setup()
        bad = PathDelayFault((0, bad_id), Transition.RISING)
        self.assert_generate_settles_alone(session, faults, bad, "nonrobust")

    @pytest.mark.parametrize("test_class", ["nonrobust", "robust"])
    def test_campaign_path_off_a_primary_input(self, auto_tier, test_class):
        session, faults = self.setup()
        bad, error = self.off_input(session, faults)
        assert "not a primary input" in str(error)
        self.assert_campaign_settles_alone(session, faults, bad, error, test_class)

    @pytest.mark.parametrize("test_class", ["nonrobust", "robust"])
    def test_generate_path_off_a_primary_input(self, auto_tier, test_class):
        session, faults = self.setup()
        bad, _error = self.off_input(session, faults)
        self.assert_generate_settles_alone(session, faults, bad, test_class)

    def test_refused_rows_are_never_live(self):
        from repro.campaign.bus import DropBus
        from repro.paths import PathDelayFault, Transition

        session, faults = self.setup()
        bad, error = self.off_input(session, faults)
        bus = DropBus(session.circuit, TestClass.NONROBUST)
        outside = PathDelayFault((0, -1), Transition.RISING)
        arrivals = [(0, faults[0]), (1, bad), (2, outside), (3, faults[1])]
        kept, rejected = bus.register(arrivals)
        assert kept == [arrivals[0], arrivals[3]]
        assert [(index, fault) for index, fault, _ in rejected] == arrivals[1:3]
        assert str(rejected[0][2]) == str(error)
        assert list(bus._rows) == [0, 3]
        assert [bus.table.faults[row] for row in bus._rows.values()] == [
            faults[0], faults[1]
        ]

    @pytest.mark.parametrize("test_class", list(TestClass))
    @pytest.mark.parametrize("runner", ["run_aptpg", "run_fptpg"])
    def test_runner_refuses_a_path_off_a_primary_input(
        self, engine, runner, test_class, monkeypatch
    ):
        """On every TPG engine: the admission error for a path off a
        primary input (a batch holding one is refused whole), and an
        IndexError for an id outside the circuit, before any state."""
        from repro.core.aptpg import run_aptpg
        from repro.core.fptpg import run_fptpg
        from repro.core.state import TpgState
        from repro.paths import PathDelayFault, Transition

        session, faults = self.setup()
        bad, error = self.off_input(session, faults)
        outside = PathDelayFault((faults[0].input_signal, 99999), Transition.RISING)

        def run(fault):
            if runner == "run_aptpg":
                return run_aptpg(session.circuit, fault, test_class, 32, fusion=engine)
            batch = [faults[1], fault, faults[2]]
            return run_fptpg(session.circuit, batch, test_class, 32, fusion=engine)

        def no_state(*args, **kwargs):
            raise AssertionError("a TPG state was built")

        monkeypatch.setattr(TpgState, "__init__", no_state)
        with pytest.raises(ValueError) as refused:
            run(bad)
        assert str(refused.value) == str(error)
        with pytest.raises(IndexError, match="signal 99999 outside"):
            run(outside)


class TestTpgEnginesAgree:
    """The C decision step against the Python one, end to end: on the C
    TPG engine a campaign settles every fault as the ``python/codegen``
    engine does, with the same patterns and search counters.  Narrow words
    leave APTPG few lane splits, so most of these inputs backtrack."""

    CASES = [
        # circuit, scale, test class, width, faults, backtracks at least
        ("c880", 1, "robust", 1, 96, 0),
        ("s1423", 1, "robust", 1, 256, 1),
        ("c1355", 1, "robust", 2, 128, 1),
        ("s838", 1, "robust", 1, 96, 0),
        ("c7552", 1, "robust", 2, 128, 1),
        ("c880", 2, "nonrobust", 1, 96, 0),
        ("c6288", 1, "robust", 1, 96, 1),
        ("c6288", 1, "nonrobust", 1, 96, 1),
    ]

    @pytest.mark.skipif(
        not native_available(), reason="no C toolchain and no cached native module"
    )
    @pytest.mark.parametrize("name,scale,test_class,width,cap,backtracks", CASES)
    def test_statuses_patterns_and_counters(
        self, name, scale, test_class, width, cap, backtracks
    ):
        from repro.core.state import tpg_tier

        circuit = suite_circuit(name, scale)
        faults = fault_list(circuit, cap=cap)
        assert tpg_tier(width, "auto") == "native/c"
        native = AtpgSession(circuit).campaign(
            faults=faults, test_class=test_class, width=width
        )
        with python_tiers():
            assert tpg_tier(width, "auto") == "python/codegen"
            python = AtpgSession(circuit).campaign(
                faults=faults, test_class=test_class, width=width
            )
        assert campaign_statuses(native) == campaign_statuses(python)
        assert native.modes == python.modes
        assert [(p.v1, p.v2, p.fault) for p in native.patterns] == [
            (p.v1, p.v2, p.fault) for p in python.patterns
        ]
        for counter in (
            "rounds", "fptpg_rounds", "aptpg_rounds",
            "decisions", "backtracks", "implication_passes",
        ):
            assert getattr(native.stats, counter) == getattr(python.stats, counter)
        assert native.stats.decisions > 0
        assert native.stats.backtracks >= backtracks


#: Every CampaignStats counter but the timers.
COUNTERS = (
    "rounds", "fptpg_rounds", "aptpg_rounds", "peak_pending", "streamed",
    "admitted_dropped", "compactions", "patterns_compacted_away",
    "decisions", "backtracks", "implication_passes", "shard_retries",
    "quarantined_shards",
)


def _differential_input(name, seed):
    if name == "dag":
        circuit = random_dag(8, 30, seed=seed)
        return circuit, all_faults(circuit, cap=80)
    from repro.api.resolve import resolve_circuit

    circuit = resolve_circuit(name)
    return circuit, fault_list(circuit, cap=96, strategy="all")


@pytest.mark.skipif(
    not native_available(), reason="no C toolchain and no cached native module"
)
class TestNativeRoundsMatchPython:
    """The native round path — each generation round one
    ``repro_tpg_round`` call, each drop round one ``repro_drop_round``
    call (a robust round keeps its Python-sensitized shards) — against
    the ``python/codegen`` tier, which runs every shard through
    ``run_fptpg``/``run_aptpg`` and every drop through
    ``detection_masks``.  Both runs stop at the same round boundary with
    a checkpoint and resume from it, under the same chaos schedule."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        source=st.one_of(
            st.tuples(st.just("dag"), st.integers(min_value=0, max_value=10_000)),
            st.tuples(st.sampled_from(["c17", "c880"]), st.just(0)),
        ),
        test_class=st.sampled_from(["nonrobust", "robust"]),
        shards=st.sampled_from([1, 2, 3]),
        width=st.sampled_from([1, 17, 63, 64]),
        windowed=st.booleans(),
        drop_faults=st.booleans(),
        compact_every=st.sampled_from([None, 24]),
        sim_backend=st.sampled_from(["auto", "int"]),
        stop_after=st.integers(min_value=0, max_value=5),
        chaos_at=st.sampled_from([None, [1], [0, 1, 2]]),
    )
    def test_statuses_patterns_errors_and_counters(
        self, source, test_class, shards, width, windowed, drop_faults,
        compact_every, sim_backend, stop_after, chaos_at,
    ):
        import tempfile

        from repro.campaign import CampaignControl

        circuit, faults = _differential_input(*source)
        options = dict(
            test_class=test_class,
            width=width,
            shards=shards,
            window=width if windowed else None,
            drop_faults=drop_faults,
            compact_every=compact_every,
            sim_backend=sim_backend,
            retry_base_ms=0,
            chaos=(
                None if chaos_at is None
                else {"points": [{"site": "shard_error", "at": chaos_at}]}
            ),
        )

        class StopAfter(CampaignControl):
            rounds = 0

            def should_stop(self):
                return self.rounds >= stop_after

            def on_round(self, progress):
                self.rounds = progress["rounds"]

        reports = []
        for tiers in (contextlib.nullcontext, python_tiers):
            with tiers(), tempfile.TemporaryDirectory() as tmp:
                session = AtpgSession(circuit)
                path = os.path.join(tmp, "campaign.json")
                if stop_after:
                    partial = session.campaign(
                        faults=faults, control=StopAfter(), checkpoint=path,
                        resume=True, **options,
                    )
                    assert not partial.complete or partial.stats.rounds < stop_after
                reports.append(
                    session.campaign(
                        faults=faults, checkpoint=path, resume=True, **options
                    )
                )
        native, python = reports
        assert native.complete and python.complete
        assert list(native.statuses.items()) == list(python.statuses.items())
        assert native.modes == python.modes
        assert native.errors == python.errors
        assert [(p.v1, p.v2, p.fault) for p in native.patterns] == [
            (p.v1, p.v2, p.fault) for p in python.patterns
        ]
        for counter in COUNTERS:
            got, want = getattr(native.stats, counter), getattr(python.stats, counter)
            assert got == want, counter
