#!/usr/bin/env python
"""Regenerate BENCH_service.json: multi-tenant service throughput.

Drives the real HTTP stack (``repro.api.service`` behind a loopback
``ThreadingHTTPServer``, keep-alive connections) with concurrent
clients issuing grade requests — each client a distinct tenant with
its own seeded pattern set against the same circuit — and measures
aggregate throughput and per-request latency percentiles at 1/8/32
concurrent clients.  The run checks its answers as it measures: every
reply's ``detected_flags`` must equal an in-process
``AtpgSession.grade`` of the same body, and a reply that differs
counts as an error.

Usage::

    PYTHONPATH=src python scripts/loadgen.py [output.json]
    PYTHONPATH=src python scripts/loadgen.py --smoke [output.json]
    PYTHONPATH=src python scripts/loadgen.py --check [output.json]
    PYTHONPATH=src python scripts/loadgen.py --chaos [--smoke] [output.json]

A run exits 1 when any request failed or came back with the wrong
flags.  ``--smoke`` is the fast CI variant (2 clients, a couple of
requests each, small circuit) proving the serve/measure loop end to
end.  ``--check`` re-reads an existing artifact: it must validate
against its schema and record no errors, neither in a throughput row
nor in the chaos row (absolute numbers are only trusted from the
hardware that regenerated the artifact).

``--chaos`` is the availability-under-faults run: against one live
server it (a) kills the only job-worker thread the instant it claims
a campaign job and asserts the job still finishes (thread
resurrection + re-queue), then (b) injects kernel faults under a
concurrent grade hammer and asserts zero client-visible errors with
bit-identical flags (circuit-breaker degradation).  The fault
schedule is deterministic (:mod:`repro.chaos`); the resulting
``workload: "chaos"`` row merges into the benchmark artifact.
"""

import argparse
import json
import platform
import random
import socket
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection

from repro import chaos
from repro.api import AtpgSession, ServiceOptions
from repro.api.resolve import resolve_circuit
from repro.api.schemas import stamp, validate, validate_file
from repro.api.serde import fault_to_payload, pattern_to_payload
from repro.api.service import make_server
from repro.core.patterns import TestPattern
from repro.paths import fault_list

#: The measured workload: a deep generated circuit (~4k gates at
#: scale 2), each request carrying 32 patterns — half a machine word —
#: and the first 32 faults.
CIRCUIT = "bulk2k"
SCALE = 2
PATTERNS_PER_REQUEST = 32
FAULT_CAP = 32
CLIENT_COUNTS = (1, 8, 32)
WORKERS = 2  # job-queue workers; recorded in the envelope


def _client_patterns(n_inputs: int, n: int, seed: int):
    """A deterministic per-client two-vector pattern set."""
    rng = random.Random(0xC0A1E5CE + seed)
    out = []
    for _ in range(n):
        v1 = tuple(rng.randint(0, 1) for _ in range(n_inputs))
        v2 = tuple(rng.randint(0, 1) for _ in range(n_inputs))
        out.append(TestPattern(v1, v2))
    return out


def _grade_payload(circuit_spec, scale, patterns, fault_payloads) -> bytes:
    body = stamp(
        "repro/request.grade",
        {
            "circuit": circuit_spec,
            "scale": scale,
            "patterns": [
                pattern_to_payload(p, envelope=False) for p in patterns
            ],
            "faults": fault_payloads,
        },
    )
    return json.dumps(body).encode()


def _percentile(sorted_ms, fraction: float) -> float:
    if not sorted_ms:
        return 0.0
    index = min(len(sorted_ms) - 1, int(round(fraction * (len(sorted_ms) - 1))))
    return sorted_ms[index]


def _connect(port: int) -> HTTPConnection:
    """A keep-alive connection with Nagle off (no delayed-ACK stalls)."""
    conn = HTTPConnection("127.0.0.1", port)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def _post(conn: HTTPConnection, body: bytes, tenant: str):
    conn.request(
        "POST",
        "/v1/grade",
        body=body,
        headers={"Content-Type": "application/json", "X-Tenant": tenant},
    )
    return json.loads(conn.getresponse().read())


def run_row(workload, clients: int, requests_per_client: int):
    """One measured configuration: start a server, hammer it, tear down."""
    server = make_server(port=0, config=ServiceOptions(workers=WORKERS), quiet=True)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    port = server.server_address[1]

    bodies = workload["bodies"]
    expected = workload["expected"]
    # warm up outside the timed window: the first grade lowers the
    # circuit and loads the kernel
    warm = _connect(port)
    assert _post(warm, bodies[0], "warmup")["ok"]
    warm.close()

    latencies_ms = []
    errors = [0]
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        k = index % len(bodies)
        conn = _connect(port)
        barrier.wait()
        for _ in range(requests_per_client):
            t0 = time.perf_counter()
            try:
                try:
                    reply = _post(conn, bodies[k], f"client-{index}")
                except OSError:  # server closed the idle socket: retry once
                    conn.close()
                    conn = _connect(port)
                    reply = _post(conn, bodies[k], f"client-{index}")
                ok = (
                    reply.get("ok", False)
                    and reply["result"]["detected_flags"] == expected[k]
                )
            except OSError:
                ok = False
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            with lock:
                if ok:
                    latencies_ms.append(elapsed_ms)
                else:
                    errors[0] += 1
        conn.close()

    threads = [
        threading.Thread(target=client, args=(k,)) for k in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    t_start = time.perf_counter()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - t_start
    server.shutdown()
    server.server_close()
    server.service.shutdown()

    total = clients * requests_per_client
    latencies_ms.sort()
    return {
        "workload": "grade",
        "circuit": workload["name"],
        "clients": clients,
        "patterns_per_request": workload["patterns_per_request"],
        "faults": workload["faults"],
        "requests": total,
        "errors": errors[0],
        "seconds": round(seconds, 4),
        "requests_per_s": round(total / seconds, 2) if seconds else 0.0,
        "p50_ms": round(_percentile(latencies_ms, 0.50), 2),
        "p95_ms": round(_percentile(latencies_ms, 0.95), 2),
    }


def _build_workload(smoke: bool):
    """Serialize every client's request body and grade it in-process.

    Neither is timed; the in-process flags are what each reply must
    carry.
    """
    spec = "c880" if smoke else CIRCUIT
    scale = 1 if smoke else SCALE
    patterns = 16 if smoke else PATTERNS_PER_REQUEST
    fault_cap = 32 if smoke else FAULT_CAP
    max_clients = 2 if smoke else max(CLIENT_COUNTS)
    circuit = resolve_circuit(spec, scale)
    session = AtpgSession(circuit)
    faults = fault_list(circuit, cap=fault_cap)
    fault_payloads = [fault_to_payload(f, envelope=False) for f in faults]
    bodies, expected = [], []
    for k in range(max_clients):
        client_patterns = _client_patterns(len(circuit.inputs), patterns, seed=k)
        bodies.append(
            _grade_payload(spec, scale, client_patterns, fault_payloads)
        )
        expected.append(session.grade(client_patterns, faults)["detected_flags"])
    return {
        "name": circuit.name,
        "patterns_per_request": patterns,
        "faults": len(faults),
        "bodies": bodies,
        "expected": expected,
    }


def regenerate(out: str, smoke: bool = False) -> int:
    workload = _build_workload(smoke)
    requests_per_client = 2 if smoke else 6
    client_counts = (2,) if smoke else CLIENT_COUNTS
    rows = []
    for clients in client_counts:
        row = run_row(workload, clients, requests_per_client)
        rows.append(row)
        print(
            f"{row['clients']:>3} clients "
            f"{row['requests_per_s']:>8.2f} req/s  "
            f"p50={row['p50_ms']:>8.2f}ms  p95={row['p95_ms']:>8.2f}ms  "
            f"errors={row['errors']}"
        )
    payload = stamp(
        "repro/bench-service",
        {
            "benchmark": "service_throughput",
            "units": "requests/second",
            "python": platform.python_version(),
            "workers": WORKERS,
            "rows": rows,
        },
    )
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")
    failed = sum(row["errors"] for row in rows)
    if failed:
        print(f"FAIL {out}: {failed} requests failed or returned wrong flags")
        return 1
    return 0


def run_chaos(out: str, smoke: bool = False) -> int:
    """Availability under injected faults, against one live server.

    Phase A — worker death: schedule ``job_worker_death`` at the first
    claim, submit an async campaign, and poll until done (each poll
    runs the manager's liveness sweep, which re-queues the orphaned
    job and spawns a replacement thread).  Phase B — kernel faults:
    schedule ``kernel_fault`` occurrences under a concurrent grade
    hammer; the session circuit breaker absorbs them, so every
    request must succeed with flags bit-identical to the fault-free
    baseline.  Wall-clock is measured over the hammer only.
    """
    clients = 2 if smoke else 4
    requests_per_client = 3 if smoke else 8
    spec = "c880"
    scale = 1
    circuit = resolve_circuit(spec, scale)
    fault_payloads = [
        fault_to_payload(f, envelope=False)
        for f in fault_list(circuit, cap=16)
    ]
    bodies = [
        _grade_payload(
            spec, scale,
            _client_patterns(len(circuit.inputs), 8, seed=k),
            fault_payloads,
        )
        for k in range(clients)
    ]
    campaign_body = json.dumps(
        stamp(
            "repro/request.campaign",
            {"circuit": spec, "scale": scale, "max_faults": 16},
        )
    ).encode()

    with tempfile.TemporaryDirectory() as jobs_dir:
        config = ServiceOptions(workers=1, jobs_dir=jobs_dir)
        server = make_server(port=0, config=config, quiet=True)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        port = server.server_address[1]
        service = server.service

        # -------------------------------------------- phase A: worker death
        controller = chaos.install(
            {"points": [{"site": "job_worker_death", "at": [0]}]}
        )
        conn = _connect(port)
        conn.request(
            "POST", "/v1/campaign", body=campaign_body,
            headers={"Content-Type": "application/json", "X-Tenant": "chaos"},
        )
        reply = json.loads(conn.getresponse().read())
        assert reply.get("ok"), f"campaign submit failed: {reply}"
        job_id = reply["result"]["id"]
        deadline = time.time() + 60.0
        state = None
        while time.time() < deadline:
            conn.request("GET", f"/v1/jobs/{job_id}")
            state = json.loads(conn.getresponse().read())["result"]["state"]
            if state in ("done", "failed", "cancelled"):
                break
            time.sleep(0.05)
        assert state == "done", (
            f"job did not recover from worker death (state={state})"
        )
        deaths = sum(
            1 for f in controller.fired() if f["site"] == "job_worker_death"
        )
        assert deaths == 1, f"expected 1 injected worker death, got {deaths}"

        # ------------------------------------------ phase B: kernel faults
        # fault-free baseline flags per client body (breaker not yet hit)
        chaos.install(None)
        baseline = []
        for body in bodies:
            reply = _post(conn, body, "baseline")
            assert reply.get("ok"), f"baseline grade failed: {reply}"
            baseline.append(reply["result"]["detected_flags"])
        conn.close()

        # scattered occurrences: never back-to-back, so a single
        # retry ladder cannot exhaust all breaker tiers
        fault_at = [0, 4] if smoke else [0, 7]
        controller = chaos.install(
            {"points": [{"site": "kernel_fault", "at": fault_at}]}
        )
        errors = [0]
        latencies_ms = []
        lock = threading.Lock()
        barrier = threading.Barrier(clients + 1)

        def client(index: int) -> None:
            conn = _connect(port)
            barrier.wait()
            for _ in range(requests_per_client):
                t0 = time.perf_counter()
                try:
                    reply = _post(conn, bodies[index], f"chaos-{index}")
                    ok = reply.get("ok", False)
                except OSError:
                    ok, reply = False, {}
                elapsed_ms = (time.perf_counter() - t0) * 1000.0
                with lock:
                    if ok and reply["result"]["detected_flags"] == baseline[index]:
                        latencies_ms.append(elapsed_ms)
                    else:
                        errors[0] += 1
            conn.close()

        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        t_start = time.perf_counter()
        for thread in threads:
            thread.join()
        seconds = time.perf_counter() - t_start
        kernel_faults = sum(
            1 for f in controller.fired() if f["site"] == "kernel_fault"
        )
        chaos.install(None)
        chaos.uninstall()

        metrics = service.metrics()
        validate(metrics)
        server.shutdown()
        server.server_close()
        service.shutdown()

    total = clients * requests_per_client
    latencies_ms.sort()
    row = {
        "workload": "chaos",
        "circuit": circuit.name,
        "clients": clients,
        "requests": total,
        "errors": errors[0],
        "seconds": round(seconds, 4),
        "requests_per_s": round(total / seconds, 2) if seconds else 0.0,
        "injected_kernel_faults": kernel_faults,
        "injected_worker_deaths": deaths,
        "degraded_circuits": metrics["degraded_circuits"],
        "worker_restarts": metrics["worker_restarts"],
        "jobs_done": metrics["jobs"]["done"],
        "jobs_failed": metrics["jobs"]["failed"],
        "p50_ms": round(_percentile(latencies_ms, 0.50), 2),
        "p95_ms": round(_percentile(latencies_ms, 0.95), 2),
    }
    print(
        f"chaos: {total} requests, {errors[0]} errors, "
        f"{kernel_faults} kernel faults absorbed "
        f"(degraded_circuits={row['degraded_circuits']}), "
        f"{deaths} worker death recovered "
        f"(worker_restarts={row['worker_restarts']}), "
        f"jobs done={row['jobs_done']} failed={row['jobs_failed']}"
    )
    failures = 0
    if errors[0]:
        print(f"FAIL chaos: {errors[0]} client-visible errors (want 0)")
        failures += 1
    if row["degraded_circuits"] < 1:
        print("FAIL chaos: kernel faults did not degrade any circuit")
        failures += 1
    if row["worker_restarts"] < 1:
        print("FAIL chaos: worker death did not record a restart")
        failures += 1
    if row["jobs_failed"]:
        print(f"FAIL chaos: {row['jobs_failed']} job(s) failed (want 0)")
        failures += 1
    if failures:
        return 1

    # merge the chaos row into the benchmark artifact (replace stale
    # chaos rows, keep the measured throughput rows untouched)
    try:
        with open(out) as handle:
            payload = json.load(handle)
        rows = [r for r in payload["rows"] if r.get("workload") != "chaos"]
    except (OSError, ValueError, KeyError):
        payload, rows = None, []
    rows.append(row)
    body = {
        "benchmark": "service_throughput",
        "units": "requests/second",
        "python": platform.python_version(),
        "workers": WORKERS,
        "rows": rows,
    }
    if payload is not None:
        for key in ("benchmark", "units", "python", "workers"):
            body[key] = payload.get(key, body[key])
    payload = stamp("repro/bench-service", body)
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {out}")
    return 0


def check(path: str) -> int:
    """Validate an existing artifact and require zero recorded errors."""
    validate_file(path)
    with open(path) as handle:
        payload = json.load(handle)
    throughput = [
        row for row in payload["rows"] if row.get("workload") != "chaos"
    ]
    if not throughput:
        print(f"FAIL {path}: no throughput rows")
        return 1
    failures = 0
    for row in payload["rows"]:
        if row.get("workload") == "chaos":
            if row["errors"] or row["jobs_failed"]:
                print(
                    f"FAIL {path}: chaos row recorded {row['errors']} errors, "
                    f"{row['jobs_failed']} failed jobs"
                )
                failures += 1
        elif row["errors"]:
            print(
                f"FAIL {path}: {row['clients']}-client row recorded "
                f"{row['errors']} errors"
            )
            failures += 1
    if not failures:
        print(
            f"ok   {path}: "
            + ", ".join(
                f"{row['clients']} clients {row['requests_per_s']} req/s"
                for row in throughput
            )
        )
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", default="BENCH_service.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI variant: 2 clients, 2 requests each, small circuit",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="check an existing artifact instead of regenerating",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="availability-under-faults run (deterministic injection); "
        "merges a chaos row into the artifact",
    )
    args = parser.parse_args()
    if args.check:
        return check(args.out)
    if args.chaos:
        return run_chaos(args.out, smoke=args.smoke)
    return regenerate(args.out, smoke=args.smoke)


if __name__ == "__main__":
    sys.exit(main())
