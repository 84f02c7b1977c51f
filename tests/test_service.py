"""Tests of the service endpoint (repro.api.service).

The smoke contract from the issue: a POSTed c17/c880 generate request
must return, through the JSON schema round-trip, exactly the per-fault
statuses the legacy ``generate_tests`` produces — the server is the
same engine behind a wire format, never a reimplementation.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro.api import (
    AtpgService,
    AtpgSession,
    GenerateRequest,
    GradeRequest,
    PathsRequest,
    SimulateRequest,
    make_server,
    serde,
)
from repro.api.schemas import SchemaError, stamp, validate
from repro.api.service import request_from_payload as service_request
from repro.circuit.library import C17_BENCH, c17
from repro.kernel import native_available
from repro.paths import TestClass, all_faults

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C toolchain and no cached native module"
)


def legacy_statuses(circuit, faults, test_class):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        from repro.core import generate_tests

        report = generate_tests(circuit, faults, test_class)
    return [record.status.value for record in report.records]


# ---------------------------------------------------------------------------
# the dispatcher, transport-free
# ---------------------------------------------------------------------------


class TestDispatcher:
    def test_generate_matches_legacy_engine(self):
        service = AtpgService()
        response = service.handle(
            GenerateRequest(circuit="c17", test_class="robust")
        )
        assert response.ok
        validate(response.payload, kind="repro/tpg-report")
        circuit = c17()
        expected = legacy_statuses(circuit, all_faults(circuit), TestClass.ROBUST)
        assert [r["status"] for r in response.payload["records"]] == expected

    def test_inline_bench_and_session_cache(self):
        service = AtpgService()
        for _ in range(3):
            response = service.handle(PathsRequest(bench=C17_BENCH))
            assert response.ok
        # one structure -> one lowering, however many requests
        assert service.sessions_opened == 1
        assert service.requests_served == 3

    def test_fingerprint_observes_the_name(self):
        # the same netlist under a different name is a different session
        # (reports carry circuit_name, so sharing would mislabel them)
        service = AtpgService()
        assert service.handle(PathsRequest(circuit="c17")).ok
        assert service.handle(PathsRequest(bench=C17_BENCH)).ok
        assert service.sessions_opened == 2

    def test_lru_eviction(self):
        service = AtpgService(max_sessions=1)
        assert service.handle(PathsRequest(circuit="c17")).ok
        assert service.handle(PathsRequest(circuit="paper_example")).ok
        assert service.handle(PathsRequest(circuit="c17")).ok
        assert service.sessions_opened == 3  # c17 was evicted, re-opened

    def test_simulate_and_grade(self):
        circuit = c17()
        faults = all_faults(circuit)
        service = AtpgService()
        generate = service.handle(
            GenerateRequest(circuit="c17", include_patterns=True)
        )
        patterns = [
            serde.pattern_from_payload(r["pattern"], envelope=False)
            for r in generate.payload["records"]
            if r["pattern"] is not None
        ]
        simulate = service.handle(
            SimulateRequest(circuit="c17", patterns=patterns, faults=faults)
        )
        assert simulate.ok
        validate(simulate.payload, kind="repro/simulate-report")
        masks = [int(m, 16) for m in simulate.payload["masks"]]
        assert len(masks) == len(faults)
        grade = service.handle(
            GradeRequest(circuit="c17", patterns=patterns, faults=faults)
        )
        assert grade.ok
        validate(grade.payload, kind="repro/grade-report")
        assert grade.payload["detected_flags"] == [bool(m) for m in masks]
        # the service answers exactly what the in-process session does
        session = AtpgSession(circuit)
        assert masks == session.simulate(patterns, faults)
        assert grade.payload == stamp(
            "repro/grade-report", session.grade(patterns, faults)
        )

    def test_string_and_int_list_bodies_answer_alike(self):
        # c880's flags are mixed, so a lane or input mix-up in the
        # string decoder shows in the flags and masks
        from repro.circuit.suites import suite_circuit
        from repro.core.patterns import random_patterns
        from repro.kernel import PackedPatterns
        from repro.paths import fault_list

        circuit = suite_circuit("c880", 1)
        faults = fault_list(circuit, cap=64)
        patterns = random_patterns(circuit, 70, seed=5)  # crosses a word
        wire_faults = [serde.fault_to_payload(f, envelope=False) for f in faults]
        forms = {
            1: [{"v1": list(p.v1), "v2": list(p.v2)} for p in patterns],
            2: [serde.pattern_to_payload(p, envelope=False) for p in patterns],
        }
        service = AtpgService()
        replies = {}
        for verb in ("grade", "simulate"):
            for version, wire in forms.items():
                body = stamp(
                    f"repro/request.{verb}",
                    {"circuit": "c880", "patterns": wire, "faults": wire_faults},
                    version=version,
                )
                decoded = service_request(verb, body).patterns
                assert isinstance(decoded, PackedPatterns if version == 2 else list)
                response = service.handle_json(verb, body)
                assert response.ok, response.payload
                replies[verb, version] = response.payload
            assert replies[verb, 1] == replies[verb, 2]
        session = AtpgSession(circuit)
        flags = replies["grade", 2]["detected_flags"]
        assert True in flags and False in flags
        assert flags == session.grade(patterns, faults)["detected_flags"]
        masks = [int(mask, 16) for mask in replies["simulate", 2]["masks"]]
        assert masks == session.simulate(patterns, faults)

    @pytest.mark.parametrize(
        "tier", ["python", pytest.param("native", marks=needs_native)]
    )
    @pytest.mark.parametrize("verb", ["grade", "simulate"])
    @pytest.mark.parametrize("signal", [9999, -3])
    def test_fault_signal_outside_the_circuit_is_400(
        self, monkeypatch, tier, verb, signal
    ):
        if tier == "python":  # the tiers a host without a compiler runs
            from repro.kernel import native as native_mod

            monkeypatch.setattr(native_mod, "_state", (None, "forced by test"))
        service = AtpgService()
        body = stamp(
            f"repro/request.{verb}",
            {
                "circuit": "c17",
                "patterns": [{"v1": "00000", "v2": "11111"}],
                "faults": [{"signals": [signal], "transition": "R"}],
            },
        )
        response = service.handle_json(verb, body)
        n_signals = c17().compiled().n_signals
        assert response.status == 400
        assert response.payload == {
            "error": "ValueError",
            "detail": f"fault path names a signal outside the circuit's {n_signals}",
        }
        assert service.metrics()["degraded_circuits"] == 0

    def test_partial_options_on_the_wire(self):
        # clients may send only the knobs they override
        service = AtpgService()
        response = service.handle_json(
            "generate",
            stamp(
                "repro/request.generate",
                {"circuit": "c17", "options": {"generation": {"width": 8}}},
            ),
        )
        assert response.ok
        assert response.payload["width"] == 8

    def test_wire_options_cannot_steer_server_files(self, tmp_path):
        # checkpoint/resume are host decisions, never request parameters
        from repro.api import Options

        path = tmp_path / "evil.ckpt.json"
        service = AtpgService()
        from repro.api import CampaignRequest

        response = service.handle(
            CampaignRequest(
                circuit="c17",
                max_faults=8,
                options=Options(width=4, checkpoint=str(path), resume=True),
            )
        )
        assert response.ok
        assert not path.exists()

    def test_options_are_checked_as_the_verb_runs_them(self):
        # generate runs engine mode (unbounded window), so a window below
        # the width is no error there; a campaign refuses it pre-queue
        options = {"generation": {"width": 8}, "schedule": {"window": 4}}
        service = AtpgService()
        generate = service.handle_json(
            "generate",
            stamp("repro/request.generate", {"circuit": "c17", "options": options}),
        )
        assert generate.ok
        campaign = service.submit_campaign(
            stamp("repro/request.campaign", {"circuit": "c17", "options": options})
        )
        assert campaign.status == 400
        assert "window (4) must be >= width (8)" in campaign.payload["detail"]

    def test_bad_circuit_is_a_clean_error(self):
        response = AtpgService().handle(GenerateRequest(circuit="nope"))
        assert not response.ok
        assert response.status == 400
        assert "unknown circuit" in response.payload["detail"]

    def test_requires_exactly_one_circuit_transport(self):
        response = AtpgService().handle(GenerateRequest())
        assert not response.ok
        assert "exactly one" in response.payload["detail"]


# ---------------------------------------------------------------------------
# the HTTP transport
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    server = make_server(port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _post(server, verb, payload, timeout=60):
    port = server.server_address[1]
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/{verb}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get(server, endpoint, timeout=10):
    port = server.server_address[1]
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}/v1/{endpoint}", timeout=timeout
    ) as response:
        return json.loads(response.read())


def _post_port(port, verb, payload, timeout=60):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/{verb}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _maybe_post_port(port, verb, payload):
    try:
        return _post_port(port, verb, payload, timeout=30)
    except (OSError, urllib.error.URLError):
        return None  # a drain may close the socket first; that's fine


class TestHttpEndpoint:
    def test_generate_smoke_c17(self, server):
        request = stamp(
            "repro/request.generate", {"circuit": "c17", "test_class": "robust"}
        )
        envelope = _post(server, "generate", request)
        validate(envelope, kind="repro/response")
        assert envelope["ok"]
        result = envelope["result"]
        validate(result, kind="repro/tpg-report")
        circuit = c17()
        assert [r["status"] for r in result["records"]] == legacy_statuses(
            circuit, all_faults(circuit), TestClass.ROBUST
        )

    def test_unknown_schema_version_is_400(self, server):
        request = stamp("repro/request.generate", {"circuit": "c17"})
        request["schema_version"] = 99
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "generate", request)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "unknown schema_version" in body["error"]["detail"]

    def test_unhashable_schema_version_is_400(self, server):
        """A list for ``schema_version`` is an unknown version, not a
        TypeError that dropped the connection without an answer."""
        failed = server.service.metrics()["requests_failed"]
        request = stamp("repro/request.grade", {"patterns": [], "faults": []})
        request["schema_version"] = [2]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "grade", request)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "unknown schema_version [2]" in body["error"]["detail"]
        assert server.service.metrics()["requests_failed"] == failed + 1

    def test_bool_schema_version_is_400(self, server):
        """``true`` equals version 1 as a dict key; it is still no version."""
        failed = server.service.metrics()["requests_failed"]
        request = stamp("repro/request.grade", {"patterns": [], "faults": []})
        request["schema_version"] = True
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "grade", request)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert "unknown schema_version True" in body["error"]["detail"]
        assert server.service.metrics()["requests_failed"] == failed + 1

    def test_unknown_verb_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "transmogrify", stamp("repro/request.generate", {}))
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("verb", ["grade", "simulate"])
    @pytest.mark.parametrize(
        "patterns",
        [
            # widths 5, 4 and 6 on the 5-input c17: 3 x 5 bits in all
            [{"v1": [0] * n, "v2": [1] * n} for n in (5, 4, 6)],
            # v1 and v2 of one pattern differ; each vector's bits still
            # add up to 2 x 5
            [{"v1": [0] * 5, "v2": [1] * 4}, {"v1": [0] * 5, "v2": [1] * 6}],
        ],
        ids=["ragged", "v1-v2-mismatch"],
    )
    def test_malformed_pattern_widths_are_400(self, server, verb, patterns):
        faults = [
            serde.fault_to_payload(f, envelope=False) for f in all_faults(c17())
        ]
        request = stamp(
            f"repro/request.{verb}",
            {"circuit": "c17", "patterns": patterns, "faults": faults},
            version=1,  # int-list vectors
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, verb, request)
        assert excinfo.value.code == 400
        detail = json.loads(excinfo.value.read())["error"]["detail"]
        assert detail.startswith("pattern ")

    def test_negative_content_length_is_400(self, server):
        # reading a negative length waits for the client to close, so a
        # keep-alive client would never get a reply
        port = server.server_address[1]
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/grade HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: -1\r\n\r\n"
            )
            status = sock.recv(64)
        assert status.startswith(b"HTTP/1.1 400")

    @pytest.mark.parametrize("verb", ["grade", "simulate"])
    def test_empty_signal_fault_is_400(self, server, verb):
        request = stamp(
            f"repro/request.{verb}",
            {
                "circuit": "c17",
                "patterns": [{"v1": [0] * 5, "v2": [1] * 5}],
                "faults": [{"signals": [], "transition": "R"}],
            },
            version=1,  # int-list vectors
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, verb, request)
        assert excinfo.value.code == 400
        detail = json.loads(excinfo.value.read())["error"]["detail"]
        assert "at least one signal" in detail

    def test_oversized_content_length_is_413_and_closes(self, server):
        port = server.server_address[1]
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/grade HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Length: 100000000000000\r\n\r\n"
            )
            reply = b""
            while True:  # the server closes: the body was never read
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413")
        assert b"Connection: close" in head
        assert json.loads(body)["error"] == "PayloadTooLarge"

    def test_chunked_body_is_411_and_closes(self, server):
        """A chunked body is refused before it is read, and the
        connection closed: kept open, the unread chunks would parse as a
        second request (an HTML 400 for the chunk-size line)."""
        port = server.server_address[1]
        body = json.dumps(
            stamp(
                "repro/request.grade",
                {
                    "circuit": "c17",
                    "patterns": [{"v1": "00000", "v2": "11111"}],
                    "faults": [{"signals": [0, 5, 9], "transition": "R"}],
                },
            )
        ).encode()
        failed = server.service.metrics()["requests_failed"]
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/grade HTTP/1.1\r\nHost: localhost\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"
            )
            reply = b""
            while True:  # the server closes: the body was never read
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411")
        assert b"Connection: close" in head
        length = int(
            next(
                line.split(b":")[1]
                for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            )
        )
        assert json.loads(rest[:length])["error"] == "LengthRequired"
        assert rest[length:] == b""  # exactly one response
        assert server.service.metrics()["requests_failed"] == failed + 1

    @pytest.mark.parametrize(
        "request_bytes,status,error",
        [
            (b"GARBAGE\r\n\r\n", 400, "BadRequest"),
            (b"PUT /v1/grade HTTP/1.1\r\nHost: x\r\n\r\n", 501, "NotImplemented"),
            (b"GET /v1/health HTTP/9.9\r\n\r\n", 505, "HTTPVersionNotSupported"),
            (b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414, "RequestURITooLong"),
        ],
        ids=["garbage-line", "put", "http-9.9", "long-line"],
    )
    def test_stdlib_refusals_are_json_and_close(
        self, server, request_bytes, status, error
    ):
        """What the stdlib refuses before a verb runs gets one JSON
        error with a status line, closes the connection and counts once
        (it used to get an HTML page, without a status line for a
        garbage line or HTTP/9.9, and count nowhere)."""
        port = server.server_address[1]
        failed = server.service.metrics()["requests_failed"]
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(request_bytes)
            reply = b""
            while True:  # the server closes after its one answer
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert b"Connection: close" in head
        assert b"Content-Type: application/json" in head
        assert json.loads(body)["error"] == error
        assert server.service.metrics()["requests_failed"] == failed + 1

    def test_stalled_body_is_408_and_frees_the_thread(self):
        """A body that stops arriving is answered 408 once the handler's
        socket timeout passes; the connection closes and the handler
        thread exits instead of waiting on the client for ever."""
        server = make_server(port=0)
        server.RequestHandlerClass.timeout = 0.5
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        before = set(threading.enumerate())
        try:
            with socket.create_connection(
                ("127.0.0.1", server.server_address[1]), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /v1/grade HTTP/1.1\r\nHost: localhost\r\n"
                    b"Content-Length: 100\r\n\r\n{\"sch"
                )
                handlers = []  # the connection's handler thread
                for _ in range(200):
                    handlers = [
                        t
                        for t in threading.enumerate()
                        if t not in before and "process_request" in t.name
                    ]
                    if handlers:
                        break
                    time.sleep(0.001)
                assert handlers
                reply = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 408")
            assert b"Connection: close" in head
            assert json.loads(body)["error"] == "RequestTimeout"
            for thread in handlers:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert server.service.metrics()["requests_failed"] == 1
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("verb", ["grade", "simulate"])
    @pytest.mark.parametrize("bad", [2, -1, 256])
    def test_non_binary_bits_are_400(self, server, verb, bad):
        faults = [
            serde.fault_to_payload(f, envelope=False) for f in all_faults(c17())
        ]
        request = stamp(
            f"repro/request.{verb}",
            {
                "circuit": "c17",
                "patterns": [{"v1": [0] * 5, "v2": [1, bad, 1, 1, 1]}],
                "faults": faults,
            },
            version=1,  # int-list vectors
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, verb, request)
        assert excinfo.value.code == 400
        detail = json.loads(excinfo.value.read())["error"]["detail"]
        assert detail == f"pattern 0: v2 bit 1 is {bad}, expected 0 or 1"

    # ------------------------------------------------ "0101…" string twins
    @pytest.mark.parametrize("verb", ["grade", "simulate"])
    @pytest.mark.parametrize(
        "patterns, detail",
        [
            # widths 5, 4 and 6 on the 5-input c17
            (
                [{"v1": "0" * n, "v2": "1" * n} for n in (5, 4, 6)],
                "pattern 1: v1 has 4 bits, expected 5 (as wide as pattern 0's v1)",
            ),
            (
                [{"v1": "00000", "v2": "1111"}, {"v1": "00000", "v2": "111111"}],
                "pattern 0: v2 has 4 bits, expected 5 (as wide as pattern 0's v1)",
            ),
            # uniform, so only the circuit's input count can catch it
            (
                [{"v1": "0000", "v2": "1111"}] * 3,
                "pattern 0: v1 has 4 bits, expected 5 (one per primary input)",
            ),
            (
                [{"v1": "", "v2": ""}],
                "pattern 0: v1 has 0 bits, expected 5 (one per primary input)",
            ),
            (
                [{"v1": "00000", "v2": "11111"}, {"v1": "00000", "v2": ""}],
                "pattern 1: v2 has 0 bits, expected 5 (as wide as pattern 0's v1)",
            ),
        ],
        ids=["ragged", "v1-v2-mismatch", "uniform-width", "empty", "empty-v2"],
    )
    def test_malformed_string_widths_are_400(self, server, verb, patterns, detail):
        faults = [
            serde.fault_to_payload(f, envelope=False) for f in all_faults(c17())
        ]
        request = stamp(
            f"repro/request.{verb}",
            {"circuit": "c17", "patterns": patterns, "faults": faults},
        )
        assert request["schema_version"] == 2
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, verb, request)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["detail"] == detail

    @pytest.mark.parametrize("verb", ["grade", "simulate"])
    @pytest.mark.parametrize("bad", ["2", " ", "x", "\uff11"])
    def test_non_binary_characters_are_400(self, server, verb, bad):
        faults = [
            serde.fault_to_payload(f, envelope=False) for f in all_faults(c17())
        ]
        request = stamp(
            f"repro/request.{verb}",
            {
                "circuit": "c17",
                "patterns": [
                    {"v1": "00000", "v2": "11111"},
                    {"v1": "00000", "v2": f"1{bad}111"},
                ],
                "faults": faults,
            },
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, verb, request)
        assert excinfo.value.code == 400
        detail = json.loads(excinfo.value.read())["error"]["detail"]
        assert detail == f"pattern 1: v2 bit 1 is {bad!r}, expected 0 or 1"

    @pytest.mark.parametrize("verb", ["grade", "simulate"])
    def test_empty_signal_fault_with_string_patterns_is_400(self, server, verb):
        request = stamp(
            f"repro/request.{verb}",
            {
                "circuit": "c17",
                "patterns": [{"v1": "00000", "v2": "11111"}],
                "faults": [{"signals": [], "transition": "R"}],
            },
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, verb, request)
        assert excinfo.value.code == 400
        detail = json.loads(excinfo.value.read())["error"]["detail"]
        assert "at least one signal" in detail

    @pytest.mark.parametrize("version", [1, 2])
    def test_empty_pattern_list_grades_nothing(self, server, version):
        faults = [
            serde.fault_to_payload(f, envelope=False) for f in all_faults(c17())
        ]
        request = stamp(
            "repro/request.grade",
            {"circuit": "c17", "patterns": [], "faults": faults},
            version=version,
        )
        envelope = _post(server, "grade", request)
        assert envelope["ok"]
        assert envelope["result"]["patterns"] == 0
        assert envelope["result"]["detected_flags"] == [False] * len(faults)

    @pytest.mark.parametrize("verb", ["campaign", "bist"])
    def test_invalid_async_options_are_400_like_sync(self, server, verb):
        # an async verb checks its options before the queue, as the
        # sync generate does, so a bad option never becomes a job
        details = []
        for name in ("generate", verb):
            request = stamp(
                f"repro/request.{name}",
                {"circuit": "c17", "options": {"generation": {"width": 0}}},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(server, name, request)
            assert excinfo.value.code == 400
            details.append(json.loads(excinfo.value.read())["error"]["detail"])
        assert details == ["width must be >= 1"] * 2

    def test_health_and_schemas(self, server):
        health = _get(server, "health")
        assert health["status"] == "ok"
        assert health["version"]
        schemas = _get(server, "schemas")["schemas"]
        kinds = {row["kind"] for row in schemas}
        assert "repro/tpg-report" in kinds
        assert "repro/request.generate" in kinds

    def test_paths_over_http(self, server):
        request = stamp(
            "repro/request.paths",
            {"circuit": "paper_example", "histogram": True},
        )
        envelope = _post(server, "paths", request)
        assert envelope["ok"]
        assert envelope["result"]["paths"] == 13
        assert envelope["result"]["faults"] == 26


class TestAcceptanceCriterion:
    """c880 through the wire == c880 through the legacy engine."""

    def test_c880_statuses_round_trip_through_service(self, server):
        from repro.circuit.suites import suite_circuit
        from repro.paths import fault_list

        circuit = suite_circuit("c880", 1)
        faults = fault_list(circuit, cap=96, strategy="all")
        expected = legacy_statuses(circuit, faults, TestClass.NONROBUST)

        request = stamp(
            "repro/request.generate",
            {
                "circuit": "c880",
                "test_class": "nonrobust",
                "max_faults": 96,
                "strategy": "all",
            },
        )
        envelope = _post(server, "generate", request, timeout=300)
        assert envelope["ok"]
        report = serde.tpg_report_from_payload(envelope["result"])
        assert [record.status.value for record in report.records] == expected


class TestLiveGrade:
    """Keep-alive clients on a live server, each reply checked in-process."""

    def test_concurrent_clients_match_in_process_grade(self, server):
        from http.client import HTTPConnection

        from repro.circuit.suites import suite_circuit
        from repro.core.patterns import random_patterns
        from repro.paths import fault_list

        circuit = suite_circuit("c880", 1)
        faults = fault_list(circuit, cap=32)
        session = AtpgSession(circuit)
        bodies, expected = [], []
        for seed in range(2):  # one client per seed, each its own patterns
            patterns = random_patterns(circuit, 16, seed=seed)
            body = stamp(
                "repro/request.grade",
                {
                    "circuit": "c880",
                    "patterns": [
                        serde.pattern_to_payload(p, envelope=False)
                        for p in patterns
                    ],
                    "faults": [
                        serde.fault_to_payload(f, envelope=False) for f in faults
                    ],
                },
            )
            # the "0101…" string form, decoded straight into lane planes
            assert body["schema_version"] == 2
            assert isinstance(body["patterns"][0]["v1"], str)
            bodies.append(json.dumps(body).encode())
            expected.append(session.grade(patterns, faults)["detected_flags"])
        # a server answering all-"detected" or all-"not detected" fails
        assert all(True in flags and False in flags for flags in expected)

        port = server.server_address[1]
        replies = [[] for _ in bodies]
        errors = []

        def client(index: int) -> None:
            conn = HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                sockets = []
                for _ in range(3):
                    conn.request(
                        "POST",
                        "/v1/grade",
                        body=bodies[index],
                        headers={"X-Tenant": f"client-{index}"},
                    )
                    response = conn.getresponse()
                    replies[index].append(
                        (response.status, json.loads(response.read()))
                    )
                    sockets.append(conn.sock)
                assert all(sock is sockets[0] for sock in sockets), (
                    "the connection was not kept alive"
                )
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                conn.close()

        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(len(bodies))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors
        for index, client_replies in enumerate(replies):
            assert len(client_replies) == 3
            for status, envelope in client_replies:
                assert status == 200 and envelope["ok"]
                assert envelope["result"]["detected_flags"] == expected[index]


# ---------------------------------------------------------------------------
# concurrency: single-flight sessions
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_thread_hammer_lowers_each_circuit_once(self):
        """N threads x M circuits: one lowering per circuit, no more."""
        circuits = ["c17", "paper_example", "c880"]
        service = AtpgService()
        errors = []

        def hammer(seed):
            rng = __import__("random").Random(seed)
            order = circuits * 2
            rng.shuffle(order)
            for spec in order:
                response = service.handle(PathsRequest(circuit=spec))
                if not response.ok:
                    errors.append(response.payload)

        threads = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert service.sessions_opened <= len(circuits)
        assert service.requests_served == 8 * len(circuits) * 2


# ---------------------------------------------------------------------------
# the async job queue
# ---------------------------------------------------------------------------


def _poll_until(service, job_id, states, deadline=120.0):
    import time as _time

    end = _time.monotonic() + deadline
    while _time.monotonic() < end:
        payload = service.job_response(job_id).payload
        if payload["state"] in states:
            return payload
        _time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {states}")


class TestJobQueue:
    def test_submit_poll_result_matches_sync_campaign(self):
        from repro.api import CampaignRequest

        service = AtpgService()
        sync = service.handle(CampaignRequest(circuit="c17", max_faults=8))
        assert sync.ok

        request = stamp(
            "repro/request.campaign", {"circuit": "c17", "max_faults": 8}
        )
        submitted = service.submit_campaign(request, tenant="alice")
        assert submitted.ok and submitted.status == 202
        validate(submitted.payload, kind="repro/job")
        job_id = submitted.payload["id"]
        record = _poll_until(service, job_id, ("done", "failed"))
        assert record["state"] == "done"
        assert record["tenant"] == "alice"
        result = record["result"]
        assert result["statuses"] == sync.payload["statuses"]
        service.shutdown()

    def test_v4_workers_option_starts_no_process(self, monkeypatch):
        """A v4 campaign request's ``workers``/``shard_deadline_s`` are
        read and dropped: the job runs in-process, settling like the
        same request without them.  Options v5 refuses both keys."""
        import multiprocessing.pool

        def no_pool(self, *args, **kwargs):
            raise AssertionError("a campaign job started a process pool")

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", no_pool)
        service = AtpgService()
        body = {"circuit": "c17", "max_faults": 16}
        retired = {"execution": {"workers": 3, "shard_deadline_s": 5.0}}
        results = []
        for request in (body, {**body, "options": retired}):
            submitted = service.submit_campaign(
                stamp("repro/request.campaign", request, version=4)
            )
            assert submitted.ok and submitted.status == 202
            job_id = submitted.payload["id"]
            record = _poll_until(service, job_id, ("done", "failed"))
            assert record["state"] == "done", record.get("error")
            results.append(record["result"])
        plain, with_workers = results
        assert with_workers["statuses"] == plain["statuses"]
        assert with_workers["patterns"] == plain["patterns"]
        refused = service.submit_campaign(
            stamp("repro/request.campaign", {**body, "options": retired})
        )
        assert refused.status == 400
        assert "workers" in refused.payload["detail"]
        service.shutdown()

    def test_malformed_submission_fails_fast_before_the_queue(self):
        service = AtpgService()
        response = service.submit_campaign(
            stamp("repro/request.campaign", {"circuit": "c17", "bogus": 1})
        )
        assert not response.ok
        assert response.status == 400

    def test_unknown_circuit_becomes_a_failed_job(self):
        # resolution happens on the worker (it may construct a large
        # circuit), so a bad spec is an async failure, not a 400
        service = AtpgService()
        submitted = service.submit_campaign(
            stamp("repro/request.campaign", {"circuit": "nope"})
        )
        assert submitted.ok
        record = _poll_until(service, submitted.payload["id"], ("failed",))
        assert "unknown circuit" in record["error"]["detail"]
        service.shutdown()

    def test_cancel_and_unknown_job_are_clean(self):
        service = AtpgService()
        assert service.job_response("missing").status == 404
        assert service.cancel_job("missing").status == 404

    def test_backpressure_is_429_with_retry_after(self, monkeypatch):
        """Queue full -> 429 + Retry-After, nothing lost."""
        from repro.api import ServiceOptions

        release = threading.Event()
        started = threading.Event()

        def stall(self, job, control):
            started.set()
            release.wait(timeout=30)
            return {"stalled": True}

        monkeypatch.setattr(AtpgService, "_run_job", stall)
        service = AtpgService(
            config=ServiceOptions(workers=1, max_queue=1)
        )
        request = stamp("repro/request.campaign", {"circuit": "c17"})
        first = service.submit_campaign(request)
        assert first.ok
        assert started.wait(timeout=30)  # worker is now busy
        second = service.submit_campaign(request)  # fills the queue
        assert second.ok
        third = service.submit_campaign(request)
        assert not third.ok
        assert third.status == 429
        assert third.retry_after is not None
        assert "queue" in third.payload["detail"]
        release.set()
        service.shutdown()

    def test_tenant_quota_only_counts_that_tenant(self, monkeypatch):
        from repro.api import ServiceOptions

        release = threading.Event()

        def stall(self, job, control):
            release.wait(timeout=30)
            return {}

        monkeypatch.setattr(AtpgService, "_run_job", stall)
        service = AtpgService(
            config=ServiceOptions(
                workers=1, max_queue=8, max_jobs_per_tenant=1
            )
        )
        request = stamp("repro/request.campaign", {"circuit": "c17"})
        assert service.submit_campaign(request, tenant="alice").ok
        blocked = service.submit_campaign(request, tenant="alice")
        assert blocked.status == 429
        assert "alice" in blocked.payload["detail"]
        assert service.submit_campaign(request, tenant="bob").ok
        release.set()
        service.shutdown()

    def test_cancelled_queued_job_never_runs(self, monkeypatch):
        """Cancelling a still-queued job settles it immediately.

        The worker is pinned on a gated first job, so the second job
        is provably queued when cancelled — it must flip to
        ``cancelled`` right away (not linger ``queued`` until a worker
        looks at it) and its payload must never execute.
        """
        from repro.api import ServiceOptions

        release = threading.Event()
        started = threading.Event()
        executed = []

        def gated(self, job, control):
            executed.append(job.id)
            started.set()
            release.wait(timeout=30)
            return {}

        monkeypatch.setattr(AtpgService, "_run_job", gated)
        service = AtpgService(config=ServiceOptions(workers=1, max_queue=8))
        request = stamp("repro/request.campaign", {"circuit": "c17"})
        first = service.submit_campaign(request)
        assert first.ok
        assert started.wait(timeout=30)  # worker is pinned on job 1
        second = service.submit_campaign(request)
        assert second.ok
        cancelled = service.cancel_job(second.payload["id"])
        assert cancelled.ok
        assert cancelled.payload["state"] == "cancelled"
        release.set()
        service.shutdown()
        assert second.payload["id"] not in executed
        final = service.job_response(second.payload["id"]).payload
        assert final["state"] == "cancelled"

    def test_shutdown_drains_under_concurrent_load(self, tmp_path):
        """Drain while grades are in flight and jobs are queued.

        Every synchronous request issued before the drain gets a real
        answer, the queued/running campaign parks resumably, and a
        second service over the same jobs directory finishes it with
        statuses bit-identical to the synchronous run.
        """
        from repro.api import CampaignRequest, ServiceOptions

        config = ServiceOptions(workers=1, jobs_dir=str(tmp_path))
        service = AtpgService(config=config)
        request = stamp(
            "repro/request.campaign", {"circuit": "c880", "max_faults": 96}
        )
        submitted = service.submit_campaign(request)
        assert submitted.ok
        job_id = submitted.payload["id"]

        results = []
        lock = threading.Lock()

        def hammer():
            response = service.handle(PathsRequest(circuit="c17"))
            with lock:
                results.append(response.ok)

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for thread in threads:
            thread.start()
        service.shutdown(timeout=60)  # drain races the worker + hammer
        for thread in threads:
            thread.join(timeout=30)
        assert results == [True] * 6  # sync requests all answered
        state = service.job_response(job_id).payload["state"]
        assert state in ("queued", "interrupted", "done")

        second = AtpgService(config=config)
        record = _poll_until(second, job_id, ("done", "failed"))
        assert record["state"] == "done"
        sync = AtpgService().handle(
            CampaignRequest(circuit="c880", max_faults=96)
        )
        assert record["result"]["statuses"] == sync.payload["statuses"]
        second.shutdown()

    def test_sigterm_drains_the_real_server_process(self, tmp_path):
        """SIGTERM to a live ``tip serve`` process drains gracefully.

        The process must exit cleanly (code 0) with the submitted
        campaign persisted resumably in the jobs directory; a fresh
        in-process service over the same directory completes it.
        """
        import os
        import signal
        import subprocess
        import sys
        import time

        from repro.api import CampaignRequest, ServiceOptions

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--workers", "1",
                "--jobs-dir", str(tmp_path), "--quiet",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            assert "listening on" in line, line
            import re

            port = int(re.search(r":(\d+)/v1/", line).group(1))
            request = stamp(
                "repro/request.campaign", {"circuit": "c880", "max_faults": 96}
            )
            envelope = _post_port(port, "campaign", request)
            assert envelope["ok"]
            job_id = envelope["result"]["id"]
            # a concurrent sync request is in flight as the signal lands
            hammer = threading.Thread(
                target=lambda: _maybe_post_port(
                    port, "paths", stamp("repro/request.paths", {"circuit": "c17"})
                )
            )
            hammer.start()
            process.send_signal(signal.SIGTERM)
            hammer.join(timeout=30)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        resumed = AtpgService(
            config=ServiceOptions(workers=1, jobs_dir=str(tmp_path))
        )
        record = _poll_until(resumed, job_id, ("done", "failed"))
        assert record["state"] == "done"
        sync = AtpgService().handle(CampaignRequest(circuit="c880", max_faults=96))
        assert record["result"]["statuses"] == sync.payload["statuses"]
        resumed.shutdown()

    def test_restart_resume_completes_the_campaign(self, tmp_path):
        """A job parked by shutdown is re-run by the next service."""
        from repro.api import CampaignRequest, ServiceOptions

        config = ServiceOptions(workers=1, jobs_dir=str(tmp_path))
        first = AtpgService(config=config)
        request = stamp(
            "repro/request.campaign", {"circuit": "c880", "max_faults": 64}
        )
        submitted = first.submit_campaign(request)
        assert submitted.ok
        job_id = submitted.payload["id"]
        # drain immediately: the job is parked resumable (queued /
        # interrupted) or, if the worker outraced us, already done
        first.shutdown(timeout=60)
        state = first.job_response(job_id).payload["state"]
        assert state in ("queued", "interrupted", "done")

        second = AtpgService(config=config)
        record = _poll_until(second, job_id, ("done", "failed"))
        assert record["state"] == "done"
        result = record["result"]
        assert result["complete"] is True
        sync = AtpgService().handle(
            CampaignRequest(circuit="c880", max_faults=64)
        )
        assert result["statuses"] == sync.payload["statuses"]
        second.shutdown()


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_metrics_validate_and_count(self):
        service = AtpgService()
        service.handle(PathsRequest(circuit="c17"))
        service.handle(GenerateRequest(circuit="nope"))
        metrics = service.metrics()
        validate(metrics, kind="repro/metrics")
        assert metrics["requests_ok"] == 1
        assert metrics["requests_failed"] == 1
        assert metrics["sessions_opened"] == 1
        assert metrics["queue_depth"] == 0
        assert set(metrics["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled", "interrupted"
        }

    def test_metrics_v4_drops_the_merge_counters(self):
        metrics = AtpgService().metrics()
        assert metrics["schema_version"] == 4
        assert "requests_coalesced" not in metrics
        assert "coalescer" not in metrics
        # v3 stays registered: a v3 body still validates as v3
        legacy = dict(
            metrics,
            schema_version=3,
            requests_coalesced=0,
            coalescer={"batches": 0, "requests": 0, "merged_requests": 0},
        )
        validate(legacy, kind="repro/metrics")
        with pytest.raises(SchemaError):
            validate(dict(metrics, schema_version=3), kind="repro/metrics")

    def test_health_splits_ok_and_failed(self):
        service = AtpgService()
        service.handle(PathsRequest(circuit="c17"))
        service.handle(GenerateRequest(circuit="nope"))
        health = service.health()
        assert health["requests_ok"] == 1
        assert health["requests_failed"] == 1
        assert health["requests_served"] == 2
        assert health["sessions_opened"] == 1
        assert health["queue_depth"] == 0

    def test_metrics_and_healthz_over_http(self, server):
        assert _get(server, "healthz")["status"] == "ok"
        metrics = _get(server, "metrics")
        validate(metrics, kind="repro/metrics")
        assert metrics["uptime_seconds"] >= 0
