"""Deterministic chaos: fault injection, recovery, and bit-identity.

Resilience claims only count if the failure paths actually execute,
so every test here *injects* the failure deterministically
(:mod:`repro.chaos`: seeded occurrence schedules, no sleeps, no
randomness) and then asserts the strongest available postcondition —
usually that the recovered run is **bit-identical** to an undisturbed
one.  Covered: shard error recovery in the campaign
scheduler, poison-shard quarantine, checksummed checkpoint rotation
with corruption fallback, the session circuit breaker demoting
native→numpy→interp on kernel faults, and service job-worker thread
resurrection.
"""

import json
import os

import pytest

from repro import chaos
from repro.api import AtpgService, ServiceOptions, integrity, serde
from repro.api.schemas import stamp, validate
from repro.api.session import AtpgSession
from repro.campaign import CampaignOptions, FaultUniverse, run_campaign
from repro.circuit.generators import random_dag
from repro.circuit.suites import suite_circuit
from repro.core import FaultStatus
from repro.paths import TestClass, all_faults, fault_list


@pytest.fixture(autouse=True)
def _clean_controller():
    """No chaos schedule leaks between tests (process-global state)."""
    chaos.uninstall()
    yield
    chaos.uninstall()


def campaign_statuses(report):
    return [report.statuses[i] for i in range(report.n_faults)]


def spec(*points) -> str:
    return json.dumps(
        {"seed": 1995, "points": [{"site": s, "at": list(at)} for s, at in points]}
    )


# ---------------------------------------------------------------------------
# the controller itself
# ---------------------------------------------------------------------------


class TestChaosController:
    def test_same_schedule_fires_identically(self):
        for _ in range(2):
            controller = chaos.ChaosController(
                spec(("kernel_fault", [0, 2]), ("torn_checkpoint", [1]))
            )
            hits = [controller.should_fire("kernel_fault") for _ in range(4)]
            assert hits == [True, False, True, False]
            assert not controller.should_fire("torn_checkpoint")
            assert controller.should_fire("torn_checkpoint")
            assert controller.fired() == [
                {"site": "kernel_fault", "occurrence": 0},
                {"site": "kernel_fault", "occurrence": 2},
                {"site": "torn_checkpoint", "occurrence": 1},
            ]

    def test_unknown_site_rejected_up_front(self):
        # a typo, and the pool's crash and hang sites, which are gone
        for site in ("shard_cresh", "shard_crash", "shard_hang"):
            with pytest.raises(ValueError, match="unknown chaos site"):
                chaos.ChaosController(spec((site, [0])))

    def test_spec_round_trips(self):
        controller = chaos.ChaosController(spec(("shard_error", [3, 1])))
        again = chaos.ChaosController(controller.spec())
        assert again.spec() == controller.spec()
        assert again.seed == 1995

    def test_env_var_is_read_lazily_once(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, spec(("kernel_fault", [0])))
        chaos.uninstall()  # re-arm the lazy read
        assert chaos.should_fire("kernel_fault")
        monkeypatch.delenv(chaos.ENV_VAR)
        assert not chaos.should_fire("kernel_fault")  # cached controller

    def test_install_overrides_env(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, spec(("kernel_fault", [0])))
        chaos.install(None)
        assert not chaos.should_fire("kernel_fault")


# ---------------------------------------------------------------------------
# checkpoint integrity: checksums, rotation, corruption fallback
# ---------------------------------------------------------------------------


class TestIntegrity:
    def test_round_trip_verifies(self, tmp_path):
        path = str(tmp_path / "state.json")
        integrity.write_json_rotated(path, {"value": 42})
        payload, used_previous = integrity.load_json_verified(path)
        assert payload["value"] == 42
        assert integrity.CHECKSUM_KEY in payload
        assert not used_previous

    def test_rotation_keeps_the_previous_generation(self, tmp_path):
        path = str(tmp_path / "state.json")
        integrity.write_json_rotated(path, {"generation": 1})
        integrity.write_json_rotated(path, {"generation": 2})
        assert integrity.load_json_verified(path)[0]["generation"] == 2
        prev, _ = integrity.load_json_verified(integrity.previous_path(path))
        assert prev["generation"] == 1

    def test_corrupted_primary_falls_back_to_previous(self, tmp_path):
        path = str(tmp_path / "state.json")
        integrity.write_json_rotated(path, {"generation": 1})
        integrity.write_json_rotated(path, {"generation": 2})
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])  # torn write
        payload, used_previous = integrity.load_json_verified(path)
        assert used_previous
        assert payload["generation"] == 1

    def test_bit_flip_is_detected_not_trusted(self, tmp_path):
        path = str(tmp_path / "state.json")
        integrity.write_json_rotated(path, {"value": 42})
        with open(path) as handle:
            payload = json.load(handle)
        payload["value"] = 43  # tampered, checksum now stale
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(integrity.IntegrityError):
            integrity.load_json_verified(path, fallback=False)

    def test_missing_checksum_passes_legacy_tolerance(self, tmp_path):
        path = str(tmp_path / "legacy.json")
        with open(path, "w") as handle:
            json.dump({"value": 1}, handle)
        payload, used_previous = integrity.load_json_verified(path)
        assert payload["value"] == 1 and not used_previous

    def test_torn_checkpoint_site_corrupts_exactly_on_schedule(self, tmp_path):
        chaos.install(spec(("torn_checkpoint", [1])))
        path = str(tmp_path / "state.json")
        integrity.write_json_rotated(path, {"generation": 1})  # occurrence 0
        integrity.write_json_rotated(path, {"generation": 2})  # torn
        payload, used_previous = integrity.load_json_verified(path)
        assert used_previous
        assert payload["generation"] == 1


# ---------------------------------------------------------------------------
# campaign supervision: retry, quarantine — bit-identical
# ---------------------------------------------------------------------------


class TestSerialSupervision:
    def test_shard_error_retries_to_identical_statuses(self):
        circuit = random_dag(10, 40, seed=7)
        faults = all_faults(circuit, cap=120)
        baseline = run_campaign(
            circuit, faults=faults, options=CampaignOptions(width=4)
        )
        injected = run_campaign(
            circuit,
            faults=faults,
            options=CampaignOptions(
                width=4, chaos=spec(("shard_error", [0, 3]))
            ),
        )
        assert campaign_statuses(injected) == campaign_statuses(baseline)
        assert injected.stats.shard_retries == 2
        assert injected.stats.quarantined_shards == 0
        assert chaos.get_controller() is None  # scoped install cleaned up

    def test_poison_shard_quarantines_with_error_envelope(self):
        circuit = random_dag(10, 40, seed=7)
        faults = all_faults(circuit, cap=120)
        # drop_faults=False keeps shard membership independent of
        # detection order, so "every fault outside the poisoned shard"
        # settles exactly as in the baseline
        options = CampaignOptions(width=4, drop_faults=False)
        baseline = run_campaign(circuit, faults=faults, options=options)
        injected = run_campaign(
            circuit,
            faults=faults,
            options=CampaignOptions(
                width=4,
                drop_faults=False,
                shard_attempts=3,
                # every attempt of the first shard fails -> quarantine
                chaos=spec(("shard_error", [0, 1, 2])),
            ),
        )
        assert injected.stats.quarantined_shards == 1
        assert injected.errors, "quarantine must record an error envelope"
        envelope = next(iter(injected.errors.values()))
        assert envelope["error"] == "ChaosError"
        assert envelope["attempts"] == 3
        skipped = {
            i
            for i, status in enumerate(campaign_statuses(injected))
            if status is FaultStatus.SKIPPED_ERROR
        }
        assert skipped, "the poisoned shard's faults settle skipped_error"
        base = campaign_statuses(baseline)
        hurt = campaign_statuses(injected)
        for index in range(len(faults)):
            if index not in skipped:
                assert hurt[index] == base[index]
        # skipped faults never count as detected
        assert set(injected.detected_indices()).isdisjoint(skipped)

    def test_errors_round_trip_through_checkpoint_and_serde(self, tmp_path):
        circuit = random_dag(10, 40, seed=7)
        faults = all_faults(circuit, cap=80)
        path = str(tmp_path / "campaign.json")
        report = run_campaign(
            circuit,
            faults=faults,
            options=CampaignOptions(
                width=4,
                drop_faults=False,
                checkpoint=path,
                chaos=spec(("shard_error", [0, 1, 2])),
            ),
        )
        assert report.errors
        payload = serde.campaign_report_to_payload(report)
        validate(payload, kind="repro/campaign-report")
        again = serde.campaign_report_from_payload(payload)
        assert again.errors == report.errors
        assert campaign_statuses(again) == campaign_statuses(report)
        # and through the rotated checkpoint
        restored, _ = integrity.load_json_verified(path)
        validate(restored, kind="repro/campaign-checkpoint")


# ---------------------------------------------------------------------------
# campaign checkpoint corruption -> resume from the previous generation
# ---------------------------------------------------------------------------


class TestCheckpointRecovery:
    def test_corrupted_checkpoint_resumes_from_previous(self, tmp_path):
        circuit = random_dag(10, 40, seed=7)
        faults = all_faults(circuit, cap=120)
        baseline = run_campaign(
            circuit, faults=faults, options=CampaignOptions(width=4)
        )
        path = str(tmp_path / "campaign.json")
        options = CampaignOptions(
            width=4, checkpoint=path, checkpoint_every=1, resume=True
        )
        run_campaign(circuit, faults=faults, options=options)
        # tear the final checkpoint; the one-generation-older .prev
        # (mid-campaign) must carry the resume
        assert os.path.exists(integrity.previous_path(path))
        with open(path, "w") as handle:
            handle.write('{"version": 3, "torn": ')
        with pytest.warns(RuntimeWarning, match="previous"):
            resumed = run_campaign(circuit, faults=faults, options=options)
        assert resumed.complete
        assert campaign_statuses(resumed) == campaign_statuses(baseline)

    def test_torn_write_during_campaign_is_self_healing(self, tmp_path):
        circuit = random_dag(10, 40, seed=7)
        faults = all_faults(circuit, cap=120)
        baseline = run_campaign(
            circuit, faults=faults, options=CampaignOptions(width=4)
        )
        path = str(tmp_path / "campaign.json")
        first = run_campaign(
            circuit,
            faults=faults,
            options=CampaignOptions(
                width=4,
                checkpoint=path,
                checkpoint_every=1,
                resume=True,
                # tear a mid-campaign write (never the final flush)
                chaos=spec(("torn_checkpoint", [1])),
            ),
        )
        assert campaign_statuses(first) == campaign_statuses(baseline)
        # the torn generation was later overwritten by good ones;
        # a resume over the same path short-circuits to complete
        resumed = run_campaign(
            circuit,
            faults=faults,
            options=CampaignOptions(
                width=4, checkpoint=path, checkpoint_every=1, resume=True
            ),
        )
        assert campaign_statuses(resumed) == campaign_statuses(baseline)


# ---------------------------------------------------------------------------
# the session circuit breaker: native -> numpy -> interp
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def _patterns_and_faults(self, session):
        report = session.generate()
        patterns = [
            record.pattern
            for record in report.records
            if record.pattern is not None
        ]
        return patterns, list(all_faults(session.circuit))

    def test_kernel_fault_degrades_and_stays_bit_identical(self):
        session = AtpgSession(suite_circuit("c880", 1))
        patterns, faults = self._patterns_and_faults(session)
        baseline = session.simulate(patterns, faults)
        assert not session.degraded
        # scattered occurrences: each fires on a fresh call, so one
        # retry ladder never exhausts all tiers
        chaos.install(spec(("kernel_fault", [0, 2])))
        first = session.simulate(patterns, faults)
        assert session.degrade_level == 1  # numpy/auto absorbed it
        second = session.simulate(patterns, faults)  # occurrence 1: clean
        third = session.simulate(patterns, faults)  # occurrence 2: fires
        assert session.degrade_level == 2  # numpy/interp floor
        assert first == baseline
        assert second == baseline
        assert third == baseline
        assert [e["error"] for e in session.degrade_events] == [
            "ChaosError", "ChaosError",
        ]

    def test_input_errors_are_not_kernel_faults(self):
        from repro.core.patterns import TestPattern

        session = AtpgSession(suite_circuit("c880", 1))
        _, faults = self._patterns_and_faults(session)
        with pytest.raises((ValueError, TypeError)):
            # wrong input-plane count: a client error no backend fixes
            session.simulate([TestPattern((0,), (1,))], faults)
        assert not session.degraded  # rejection, not demotion

    def test_consecutive_faults_exhaust_the_chain_and_raise(self):
        session = AtpgSession(suite_circuit("c880", 1))
        patterns, faults = self._patterns_and_faults(session)
        chaos.install(spec(("kernel_fault", [0, 1, 2])))
        with pytest.raises(chaos.ChaosError):
            session.simulate(patterns, faults)
        assert session.degrade_level == 2


# ---------------------------------------------------------------------------
# service: job-worker resurrection + metrics v3
# ---------------------------------------------------------------------------


class TestServiceRecovery:
    def _poll_until(self, service, job_id, states, tries=2000):
        import time

        for _ in range(tries):
            record = service.job_response(job_id).payload
            if record["state"] in states:
                return record
            time.sleep(0.005)
        raise AssertionError(f"job stuck in state {record['state']!r}")

    def test_dead_job_worker_is_resurrected_and_job_completes(self):
        from repro.api import CampaignRequest

        service = AtpgService(config=ServiceOptions(workers=1))
        sync = service.handle(CampaignRequest(circuit="c17", max_faults=8))
        assert sync.ok
        chaos.install(spec(("job_worker_death", [0])))
        submitted = service.submit_campaign(
            stamp("repro/request.campaign", {"circuit": "c17", "max_faults": 8})
        )
        assert submitted.ok
        record = self._poll_until(
            service, submitted.payload["id"], ("done", "failed")
        )
        chaos.uninstall()
        assert record["state"] == "done"
        assert record["result"]["statuses"] == sync.payload["statuses"]
        metrics = service.metrics()
        validate(metrics, kind="repro/metrics")
        assert metrics["schema_version"] == 4
        assert metrics["worker_restarts"] == 1
        assert metrics["jobs"]["done"] == 1
        assert metrics["jobs"]["failed"] == 0
        service.shutdown()

    def test_metrics_v3_reports_degraded_circuits(self):
        from repro.api import GradeRequest

        session_circuit = suite_circuit("c880", 1)
        service = AtpgService()
        session = AtpgSession(session_circuit)
        report = session.generate()
        patterns = [
            r.pattern for r in report.records if r.pattern is not None
        ]
        faults = list(all_faults(session_circuit))
        baseline = service.handle(
            GradeRequest(circuit="c880", patterns=patterns, faults=faults)
        )
        assert baseline.ok
        chaos.install(spec(("kernel_fault", [0])))
        degraded = service.handle(
            GradeRequest(circuit="c880", patterns=patterns, faults=faults)
        )
        chaos.uninstall()
        assert degraded.ok
        assert (
            degraded.payload["detected_flags"]
            == baseline.payload["detected_flags"]
        )
        metrics = service.metrics()
        validate(metrics, kind="repro/metrics")
        assert metrics["degraded_circuits"] == 1
        assert metrics["requests_failed"] == 0

    def test_quarantined_shards_surface_in_metrics(self):
        from repro.api import CampaignRequest
        from repro.api.options import Options

        service = AtpgService()
        response = service.handle(
            CampaignRequest(
                circuit="c17",
                options=Options(
                    width=4,
                    drop_faults=False,
                    chaos=spec(("shard_error", [0, 1, 2])),
                ),
            )
        )
        # the service scrubs wire-supplied chaos: the request runs
        # clean and nothing is quarantined
        assert response.ok
        metrics = service.metrics()
        assert metrics["quarantined_shards"] == 0
        assert metrics["shard_retries"] == 0


# ---------------------------------------------------------------------------
# one live server: job-worker death, then kernel faults under load
# ---------------------------------------------------------------------------


def _exchange(conn, method, path, body=None, tenant="chaos"):
    conn.request(method, path, body=body, headers={"X-Tenant": tenant})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


class TestLiveServerChaos:
    def test_worker_death_and_kernel_faults_stay_invisible(self, tmp_path):
        import threading
        import time
        from http.client import HTTPConnection

        from repro.api import make_server
        from repro.core.patterns import random_patterns

        circuit = suite_circuit("c880", 1)
        faults = [
            serde.fault_to_payload(f, envelope=False)
            for f in fault_list(circuit, cap=16)
        ]
        bodies = [
            json.dumps(
                stamp(
                    "repro/request.grade",
                    {
                        "circuit": "c880",
                        "patterns": [
                            serde.pattern_to_payload(p, envelope=False)
                            for p in random_patterns(circuit, 8, seed=k)
                        ],
                        "faults": faults,
                    },
                )
            ).encode()
            for k in range(2)
        ]
        server = make_server(
            port=0, config=ServiceOptions(workers=1, jobs_dir=str(tmp_path))
        )
        threading.Thread(target=server.serve_forever, daemon=True).start()
        port = server.server_address[1]
        service = server.service
        try:
            # phase A: the only job worker dies the instant it claims
            controller = chaos.install(spec(("job_worker_death", [0])))
            conn = HTTPConnection("127.0.0.1", port, timeout=60)
            campaign = stamp(
                "repro/request.campaign", {"circuit": "c880", "max_faults": 16}
            )
            status, reply = _exchange(
                conn, "POST", "/v1/campaign", json.dumps(campaign).encode()
            )
            assert status == 202
            job = f"/v1/jobs/{reply['result']['id']}"
            deadline = time.monotonic() + 60.0
            state = None
            while time.monotonic() < deadline:
                # each poll runs the liveness sweep that re-queues the job
                state = _exchange(conn, "GET", job)[1]["result"]["state"]
                if state in ("done", "failed", "cancelled"):
                    break
                time.sleep(0.05)
            assert state == "done"
            assert controller.fired() == [
                {"site": "job_worker_death", "occurrence": 0}
            ]
            assert service.metrics()["worker_restarts"] >= 1

            # phase B: fault-free baseline, then kernel faults under
            # two concurrent clients; occurrences are scattered so no
            # single call exhausts the breaker's tiers
            chaos.install(None)
            baseline = []
            for body in bodies:
                status, reply = _exchange(conn, "POST", "/v1/grade", body)
                assert status == 200
                baseline.append(reply["result"]["detected_flags"])
            conn.close()
            controller = chaos.install(spec(("kernel_fault", [0, 4])))
            results = [[] for _ in bodies]

            def client(index: int) -> None:
                client_conn = HTTPConnection("127.0.0.1", port, timeout=60)
                try:
                    for _ in range(3):
                        results[index].append(
                            _exchange(
                                client_conn, "POST", "/v1/grade",
                                bodies[index], tenant=f"chaos-{index}",
                            )
                        )
                except OSError as exc:
                    results[index].append((None, {"error": repr(exc)}))
                finally:
                    client_conn.close()

            threads = [
                threading.Thread(target=client, args=(k,))
                for k in range(len(bodies))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            fired = [f["site"] for f in controller.fired()]
            chaos.install(None)

            for index, replies in enumerate(results):
                assert len(replies) == 3
                for status, reply in replies:
                    assert status == 200, reply
                    assert reply["result"]["detected_flags"] == baseline[index]
            assert fired == ["kernel_fault", "kernel_fault"]
            metrics = service.metrics()
            validate(metrics, kind="repro/metrics")
            assert metrics["degraded_circuits"] >= 1
            assert metrics["jobs"]["failed"] == 0
            assert metrics["requests_failed"] == 0
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown()
