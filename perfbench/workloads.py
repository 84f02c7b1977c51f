"""The three workloads: inputs from the seed, set-up, measured loop, checks.

Every workload measures *operations* (a campaign pass for ``tpg``, an
``AtpgSession.grade`` call for ``grade``, a ``POST /v1/grade`` request
for ``serve``) and reports the same end-to-end metric set, so any
metric can be compared on any workload; README.md gives each metric's
meaning per workload.  The program receives only the inputs
generated here from the seed.  Timed metrics are reported at reference
host speed (:mod:`speed`); the raw figures go into the run's stamp.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Runtime outputs (native cache, temp files, traces, results); gitignored.
WORK = os.path.join(ROOT, ".perfbench_work")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Config:
    """One workload's input shape.  ``full`` is the benchmark; ``tiny`` the smoke test."""

    spec: str
    scale: int
    faults: int
    test_class: str
    patterns: int = 0  # per grade call / per request
    width: int = 32  # tpg lanes
    warmup_faults: int = 0  # tpg warm-up campaign size
    bodies: int = 0  # serve: distinct request bodies
    rate: float = 60.0  # serve: open-loop requests per second
    setups: int = 5  # fresh-process set-ups per run (setup_s is their median)


CONFIGS: Dict[str, Dict[str, Config]] = {
    "full": {
        # a set-up of ~0.2 s lands in one of two host speed modes: more
        # samples keep the median from flipping between them
        "tpg": Config("c1355", 2, 2048, "nonrobust", width=32, warmup_faults=32, setups=9),
        "grade": Config("c880", 8, 8192, "robust", patterns=16384, setups=9),
        "serve": Config("bulk2k", 2, 32, "nonrobust", patterns=32, bodies=64, rate=40.0),
    },
    "tiny": {
        "tpg": Config("c1355", 1, 96, "nonrobust", width=32, warmup_faults=16, setups=1),
        "grade": Config("c880", 1, 256, "robust", patterns=512, setups=1),
        "serve": Config("c880", 1, 16, "nonrobust", patterns=16, bodies=4, setups=1),
    },
}

WORKLOADS = ("tpg", "grade", "serve")

#: ``serve`` alternates this many open-loop and closed-loop segments.
SEGMENTS = 32

#: Seconds between the speed samples taken inside a ``tpg`` pass.
SAMPLE_EVERY = 0.1
#: Speed samples taken in each gap between timed operations.
GAP_SAMPLES = 2

#: Resolved fusion strategy of ``fusion="auto"`` per backend kind, as the
#: backend docstrings in ``repro.kernel.backends`` define it.
_AUTO_FUSION = {"int": "codegen", "numpy": "vector", "native": "c"}


@dataclass
class Outcome:
    """What one run measured."""

    metrics: Dict[str, float]
    attempted: int
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def child_env(native_cache: Optional[str] = None) -> Dict[str, str]:
    """Environment of every process the benchmark starts: program on the
    path, temp files and the native module cache inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env["REPRO_NATIVE_CACHE"] = native_cache or os.path.join(WORK, "native-cache")
    return env


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resolved_tier(n_lanes: int, backend: str = "auto", fusion: str = "auto") -> str:
    """``kind/strategy`` of the backend a simulator picks for *n_lanes*."""
    from repro.kernel.backends import backend_for

    kind = backend_for(n_lanes, backend, fusion=fusion).kind
    if fusion == "auto" or (kind == "int" and fusion == "vector"):
        fusion = _AUTO_FUSION[kind]
    return f"{kind}/{fusion}"


def random_patterns(n_inputs: int, count: int, seed: int, index: int):
    """Pattern set *index* of the seed's stream: independent two-vector tests."""
    from repro.core.patterns import TestPattern

    import numpy as np

    bits = np.random.default_rng([seed, index]).integers(
        0, 2, size=(2, count, n_inputs), dtype="u1"
    )
    return [
        TestPattern(tuple(v1), tuple(v2))
        for v1, v2 in zip(bits[0].tolist(), bits[1].tolist())
    ]


def op_metrics(
    op_seconds: Sequence[float], faults: int, patterns: int
) -> Dict[str, float]:
    """Throughput from the median operation, and latency percentiles."""
    median = statistics.median(op_seconds)
    return {
        "faults_per_s": faults / median,
        "pattern_faults_per_s": patterns * faults / median,
        "latency_p50_ms": median * 1000.0,
        "latency_p90_ms": quantile(op_seconds, 0.9) * 1000.0,
        "max_rps": 1.0 / median,
    }


# ---------------------------------------------------------------------------
# tpg: one generation campaign per operation
# ---------------------------------------------------------------------------


def tpg_open(cfg: Config):
    """Resolve, open the session, and list the faults.

    The input does not depend on the seed: the workload is this one
    structural fault list, whose mix of easy, hard and redundant faults
    is the point (README.md).  Reordering it changes how much work
    dropping saves, so a seeded order would add input variance to every
    timing.
    """
    from repro.api import AtpgSession, resolve
    from repro.paths import fault_list

    circuit = resolve.resolve_circuit(cfg.spec, cfg.scale)
    session = AtpgSession(circuit)
    return session, fault_list(circuit, cap=cfg.faults, strategy="all")


def tpg_warmup(session, faults, cfg: Config):
    """The last set-up step: a campaign over the first few faults."""
    return tpg_pass(session, faults[: cfg.warmup_faults], cfg)


def tpg_pass(session, faults, cfg: Config, rounds: Optional[List[float]] = None,
             meter: Optional[speed.Meter] = None):
    """One campaign; appends each generation round's seconds to *rounds*.

    With a *meter*, a speed sample is taken between rounds every
    ``SAMPLE_EVERY`` seconds; its time is in neither round.
    """
    control = None
    if rounds is not None:
        from repro.campaign import CampaignControl

        class RoundClock(CampaignControl):
            last = time.perf_counter()
            due = last + SAMPLE_EVERY

            def on_round(self, progress):
                now = time.perf_counter()
                rounds.append(now - self.last)
                if meter is not None and now >= self.due:
                    meter.sample()
                    now = time.perf_counter()
                    self.due = now + SAMPLE_EVERY
                self.last = now

        control = RoundClock()
    return session.campaign(
        faults=faults, test_class=cfg.test_class, width=cfg.width, workers=1,
        control=control,
    )


def tpg_signature(report) -> Tuple[List[str], List[Tuple]]:
    """Per-fault statuses and the test set, for pass-to-pass comparison."""
    statuses = [report.statuses[i].value for i in sorted(report.statuses)]
    return statuses, [(p.v1, p.v2) for p in report.patterns]


def check_tpg(circuit, faults, report, test_class: str = "nonrobust") -> List[str]:
    """The returned test set detects every fault the report settled as detected.

    Each ``tested`` fault's own pattern must be retained, and the whole
    set is re-simulated on the numpy backend's interpreted per-gate
    loop, the oracle every fast path is verified against.
    """
    from repro.api.resolve import resolve_test_class
    from repro.core.results import FaultStatus
    from repro.sim.delay_sim import DelayFaultSimulator

    errors = []
    if len(report.statuses) != len(faults) or not report.complete:
        errors.append(f"campaign settled {len(report.statuses)} of {len(faults)} faults")
    bad = [s.value for s in report.statuses.values()
           if s in (FaultStatus.SKIPPED_ERROR, FaultStatus.DEFERRED)]
    if bad:
        errors.append(f"{len(bad)} faults left {sorted(set(bad))}")
    kept = {id(p) for p in report.patterns}
    detected = []
    for index, status in report.statuses.items():
        if status is FaultStatus.TESTED:
            record = report.records[index]
            if record.pattern is None or id(record.pattern) not in kept:
                errors.append(f"fault {index} is tested but its pattern is not in the test set")
        if status in (FaultStatus.TESTED, FaultStatus.SIMULATED):
            detected.append(faults[index])
    if detected and report.patterns:
        oracle = DelayFaultSimulator(
            circuit, resolve_test_class(test_class), backend="numpy", fusion="interp"
        )
        masks = oracle.detection_masks(list(report.patterns), detected)
        missed = sum(1 for mask in masks if not mask)
        if missed:
            errors.append(f"{missed} detected faults escape the test set on the oracle")
    elif detected:
        errors.append("faults settled as detected with an empty test set")
    return errors


def tpg_counts(report) -> Dict[str, int]:
    from repro.core.results import FaultStatus

    return {status.value: report.count(status) for status in FaultStatus}


def run_tpg(cfg: Config, seconds: float) -> Outcome:
    session, faults = tpg_open(cfg)
    tpg_warmup(session, faults, cfg)
    meter = speed.Meter()
    deadline = time.perf_counter() + seconds
    op_seconds: List[float] = []
    raw_seconds: List[float] = []
    rounds: List[float] = []
    raw_rounds: List[float] = []
    first = None
    outcome = Outcome(metrics={}, attempted=0)
    while not raw_seconds or time.perf_counter() + 0.5 * raw_seconds[-1] < deadline:
        outcome.attempted += 1
        gc.collect()
        since = len(meter.speeds)
        meter.sample()
        spent = meter.spent
        pass_rounds: List[float] = []
        t0 = time.perf_counter()
        report = tpg_pass(session, faults, cfg, pass_rounds, meter)
        raw = time.perf_counter() - t0 - (meter.spent - spent)
        meter.sample()
        pace = meter.mean(since)
        raw_seconds.append(raw)
        op_seconds.append(raw * pace)
        raw_rounds += pass_rounds
        rounds += [r * pace for r in pass_rounds]
        signature = tpg_signature(report)
        if first is None:
            first, first_report = signature, report
        elif signature != first:
            outcome.fail(f"pass {len(op_seconds)} settled differently from pass 1")
    rss = peak_rss_mb()
    for message in check_tpg(session.circuit, faults, first_report, cfg.test_class):
        outcome.fail(message)
    counts = tpg_counts(first_report)
    detected = counts["tested"] + counts["simulated"]
    n_patterns = len(first_report.patterns)

    def timed(passes, round_seconds):
        return {
            **op_metrics(passes, len(faults), n_patterns),
            # a pass is a handful of samples: latency is the campaign's
            # progress cadence, the seconds per generation round
            "latency_p50_ms": statistics.median(round_seconds) * 1000.0,
            "latency_p90_ms": quantile(round_seconds, 0.9) * 1000.0,
        }

    outcome.metrics = {
        "peak_rss_mb": rss,
        "faults_detected": detected,
        "test_patterns": n_patterns,
        **timed(op_seconds, rounds),
    }
    options = session.options
    outcome.info = {
        "ops": len(op_seconds),
        "speed": meter.mean(),
        "raw": timed(raw_seconds, raw_rounds),
        "statuses": counts,
        "what_ran": {
            # a round's fresh patterns, then admission against the whole set
            "drop_bus": resolved_tier(options.shards * cfg.width, options.sim_backend, options.fusion),
            "admission": resolved_tier(max(n_patterns, 1), options.sim_backend, options.fusion),
            # TpgState runs the compiled forward/backward tables unless "interp"
            "tpg_state": "interp" if options.fusion == "interp" else "codegen",
        },
    }
    return outcome


# ---------------------------------------------------------------------------
# grade: a stream of bulk grading calls with fresh random patterns
# ---------------------------------------------------------------------------


def grade_open(cfg: Config):
    """Resolve, open the session, and list the faults."""
    from repro.api import AtpgSession, resolve
    from repro.paths import fault_list

    session = AtpgSession(resolve.resolve_circuit(cfg.spec, cfg.scale))
    return session, fault_list(session.circuit, cap=cfg.faults)


def grade_warmup(session, faults, cfg: Config, seed: int) -> float:
    """The last set-up step: one call on the workload's shapes.

    Returns the call's seconds; generating its input patterns is not
    part of the set-up time.
    """
    patterns = random_patterns(len(session.circuit.inputs), cfg.patterns, seed, 0)
    t0 = time.perf_counter()
    session.grade(patterns, faults, test_class=cfg.test_class)
    return time.perf_counter() - t0


def check_grade_report(report: Dict, n_patterns: int, n_faults: int) -> List[str]:
    flags = report["detected_flags"]
    errors = []
    if len(flags) != n_faults or report["faults"] != n_faults:
        errors.append(f"grade returned {len(flags)} flags for {n_faults} faults")
    if report["patterns"] != n_patterns:
        errors.append(f"grade counted {report['patterns']} of {n_patterns} patterns")
    if sum(flags) != report["detected"]:
        errors.append("detected count disagrees with the flags")
    return errors


def check_grade_oracle(session, patterns, faults, flags, test_class: str) -> List[str]:
    """The same call on the interpreted per-gate loop gives the same flags."""
    oracle = session.grade(
        patterns, faults, test_class=test_class, backend="numpy", fusion="interp"
    )
    if oracle["detected_flags"] != list(flags):
        differ = sum(a != b for a, b in zip(oracle["detected_flags"], flags))
        return [f"{differ} detected_flags differ from the interp oracle"]
    return []


def run_grade(cfg: Config, seed: int, seconds: float) -> Outcome:
    session, faults = grade_open(cfg)
    grade_warmup(session, faults, cfg, seed)
    n_inputs = len(session.circuit.inputs)
    meter = speed.Meter(arrays=True)
    deadline = time.perf_counter() + seconds
    op_seconds: List[float] = []
    raw_seconds: List[float] = []
    outcome = Outcome(metrics={}, attempted=0)
    first_flags = None
    while not op_seconds or time.perf_counter() < deadline:
        patterns = random_patterns(n_inputs, cfg.patterns, seed, len(op_seconds) + 1)
        outcome.attempted += 1
        # the input generation's garbage is not the call's to collect
        gc.collect()
        since = len(meter.speeds)
        meter.sample(GAP_SAMPLES)
        t0 = time.perf_counter()
        report = session.grade(patterns, faults, test_class=cfg.test_class)
        raw = time.perf_counter() - t0
        meter.sample(GAP_SAMPLES)
        raw_seconds.append(raw)
        op_seconds.append(raw * meter.mean(since))
        for message in check_grade_report(report, cfg.patterns, len(faults)):
            outcome.fail(message)
        if first_flags is None:
            first_flags, first_detected = report["detected_flags"], report["detected"]
        del patterns, report
    rss = peak_rss_mb()
    patterns = random_patterns(n_inputs, cfg.patterns, seed, 1)
    for message in check_grade_oracle(session, patterns, faults, first_flags, cfg.test_class):
        outcome.fail(message)
    outcome.metrics = {
        "peak_rss_mb": rss,
        "faults_detected": first_detected,
        "test_patterns": cfg.patterns,
        **op_metrics(op_seconds, len(faults), cfg.patterns),
    }
    outcome.info = {
        "ops": len(op_seconds),
        "speed": meter.mean(),
        "raw": op_metrics(raw_seconds, len(faults), cfg.patterns),
        "what_ran": {"grade": resolved_tier(cfg.patterns)},
    }
    return outcome


# ---------------------------------------------------------------------------
# serve: tip serve in a child process, open then closed loop over 2 connections
# ---------------------------------------------------------------------------


def serve_inputs(cfg: Config, seed: int):
    """Request bodies and, computed in-process before timing, their flags."""
    from repro.api import AtpgSession, resolve
    from repro.api.schemas import stamp
    from repro.api.serde import fault_to_payload, pattern_to_payload
    from repro.paths import fault_list

    session = AtpgSession(resolve.resolve_circuit(cfg.spec, cfg.scale))
    faults = fault_list(session.circuit, cap=cfg.faults)
    fault_payloads = [fault_to_payload(f, envelope=False) for f in faults]
    bodies, expected = [], []
    for k in range(cfg.bodies):
        patterns = random_patterns(len(session.circuit.inputs), cfg.patterns, seed, k)
        body = {
            "circuit": cfg.spec,
            "scale": cfg.scale,
            "patterns": [pattern_to_payload(p, envelope=False) for p in patterns],
            "faults": fault_payloads,
        }
        bodies.append(json.dumps(stamp("repro/request.grade", body)).encode())
        expected.append(session.grade(patterns, faults)["detected_flags"])
    return bodies, expected


def check_reply(reply: Optional[Dict], expected: List[bool]) -> Optional[str]:
    """None when *reply* is a successful grade with the expected flags."""
    if reply is None or not reply.get("ok"):
        return f"request failed: {reply and reply.get('result')}"
    if reply["result"]["detected_flags"] != expected:
        return "detected_flags differ from the in-process grade"
    return None


def _connect(port: int) -> HTTPConnection:
    conn = HTTPConnection("127.0.0.1", port, timeout=60)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def http_request(conn: HTTPConnection, method: str, path: str, body: Optional[bytes] = None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    return json.loads(conn.getresponse().read())


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``tip serve`` child process with default flags, on the server CPU.

    It is pinned before its interpreter starts any thread, so its
    handler threads stay there too, and the load generator's CPU stays
    its own.
    """

    def __init__(self, spans_path: Optional[str] = None):
        self.port = _free_port()
        if spans_path is None:
            code = "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))"
            cmd = [sys.executable, "-u", "-c", code, "serve"]
        else:
            cmd = [sys.executable, "-u", os.path.join(HERE, "serve_launcher.py")]
        cmd += ["--port", str(self.port)]
        env = child_env()
        if spans_path is not None:
            env["PERFBENCH_SPANS"] = spans_path
        self.log = open(os.path.join(WORK, "serve.log"), "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, env=env, cwd=WORK
        )
        os.sched_setaffinity(self.proc.pid, {speed.cpus()[1]})

    def wait_listening(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if b"listening on" in line:
                    return
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("tip serve did not start; see .perfbench_work/serve.log")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def metrics(self) -> Dict:
        conn = _connect(self.port)
        try:
            return http_request(conn, "GET", "/v1/metrics")
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def launch(bodies, expected, spans_path: Optional[str] = None):
    """Start a server; returns ``(server, connection, setup s, first request s)``.

    Set-up time runs from process launch to the first successful grade.
    """
    server = Server(spans_path)
    try:
        server.wait_listening()
        conn = _connect(server.port)
        sent = time.perf_counter()
        reply = http_request(conn, "POST", "/v1/grade", bodies[0])
        done = time.perf_counter()
        setup = done - server.started
        error = check_reply(reply, expected[0])
        if error is not None:
            raise RuntimeError(f"first request: {error}")
    except BaseException:
        server.stop()
        raise
    return server, conn, setup, done - sent


@dataclass
class Load:
    """Requests sent by the load generator and what came back."""

    latencies: List[float] = field(default_factory=list)  # from due (open) or send time
    lateness: List[float] = field(default_factory=list)
    spans: List[Tuple[float, float]] = field(default_factory=list)  # (send, receive)
    errors: List[str] = field(default_factory=list)
    attempted: int = 0


def _drive(port: int, bodies, expected, plan: Callable[[int], Optional[float]], load: Load):
    """Two senders (this thread and one more), one keep-alive connection each.

    ``plan(k)`` gives request *k*'s due time (``perf_counter`` seconds),
    ``0.0`` to send as soon as the connection is free (closed loop) or
    ``None`` to stop.
    """
    lock = threading.Lock()

    def sender(first: int) -> None:
        conn = None
        k = first
        try:
            conn = _connect(port)
            while True:
                due = plan(k)
                if due is None:
                    return
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    reply = http_request(conn, "POST", "/v1/grade", bodies[k % len(bodies)])
                except (OSError, HTTPException, ValueError) as exc:
                    reply = None
                    conn.close()
                    conn = _connect(port)
                    error = f"request {k}: {type(exc).__name__}"
                else:
                    error = check_reply(reply, expected[k % len(bodies)])
                done = time.perf_counter()
                with lock:
                    load.attempted += 1
                    if error is not None:
                        load.errors.append(error)
                    else:
                        load.latencies.append(done - (due or sent))
                        load.lateness.append(sent - due if due else 0.0)
                        load.spans.append((sent, done))
                k += 2
        except Exception as exc:  # a sender must report, never vanish
            with lock:
                load.errors.append(f"sender {first}: {exc!r}")
        finally:
            if conn is not None:
                conn.close()

    helper = threading.Thread(target=sender, args=(1,))
    helper.start()
    sender(0)
    helper.join(timeout=120)
    if helper.is_alive():
        load.errors.append("sender 1 did not finish")


def open_loop(port, bodies, expected, rate: float, count: int, load=None) -> Load:
    load = load or Load()
    start = time.perf_counter() + 0.05
    _drive(port, bodies, expected, lambda k: start + k / rate if k < count else None, load)
    return load


def closed_loop(port, bodies, expected, count=None, seconds=None, load=None):
    """Back-to-back requests; returns the load and its wall seconds."""
    load = load or Load()
    start = time.perf_counter()
    deadline = start + (seconds or 0.0)

    def plan(k):
        if count is not None:
            return 0.0 if k < count else None
        return 0.0 if time.perf_counter() < deadline else None

    _drive(port, bodies, expected, plan, load)
    end = max((done for _sent, done in load.spans), default=time.perf_counter())
    return load, end - start


def serve_metrics(cfg: Config, latencies: List[float], completed: int, closed_s: float) -> Dict:
    rps = completed / closed_s
    return {
        "faults_per_s": cfg.faults * rps,
        "pattern_faults_per_s": cfg.patterns * cfg.faults * rps,
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": quantile(latencies, 0.9) * 1000.0,
        "max_rps": rps,
    }


def run_serve(cfg: Config, seed: int, seconds: float) -> Tuple[Outcome, List[float], List[float]]:
    """The measured server is the last of ``cfg.setups`` launches.

    Open- and closed-loop segments alternate, so both phases sample the
    whole run rather than one half each.  The load generator runs on
    one CPU and the server on the other.  A request's time is spent on
    both, so speed is sampled on both between segments, while the
    server is idle, and the run's figures are scaled by the mean speed
    of all those samples.  Returns the outcome and the set-up seconds
    at reference and at raw speed.
    """
    bodies, expected = serve_inputs(cfg, seed)
    client_cpu, server_cpu = speed.cpus()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {client_cpu})
    meters = {client_cpu: speed.Meter(), server_cpu: speed.Meter()}
    per_gap = 2 * GAP_SAMPLES

    def sample() -> None:
        for cpu, meter in meters.items():
            with speed.on_cpu(cpu):
                meter.sample(per_gap)

    def pace(since: int) -> float:
        """Mean speed, over both CPUs, of the samples from gap *since* on."""
        return statistics.mean(meter.mean(since * per_gap) for meter in meters.values())

    try:
        setups, raw_setups = [], []
        for _ in range(cfg.setups):
            sample()
            server, conn, setup, _ = launch(bodies, expected)
            sample()
            raw_setups.append(setup)
            setups.append(setup * pace(-2))
            conn.close()
            if len(setups) < cfg.setups:
                server.stop()
        try:
            open_load, closed = Load(), Load()
            closed_s = 0.0
            segment = seconds / (3 * SEGMENTS)
            since = len(meters[server_cpu].speeds) // per_gap - 1  # the last launch's gap
            for _ in range(SEGMENTS):
                # latency is the noisier phase: it gets two thirds of the time
                open_loop(server.port, bodies, expected, cfg.rate, int(cfg.rate * 2 * segment), open_load)
                _, taken = closed_loop(server.port, bodies, expected, seconds=segment, load=closed)
                closed_s += taken
                sample()
            scale = pace(since)
            rss = server.peak_rss_mb()
            server_failed = server.metrics()["requests_failed"]
        finally:
            server.stop()
    finally:
        os.sched_setaffinity(0, allowed)
    outcome = Outcome(metrics={}, attempted=open_load.attempted + closed.attempted)
    for message in open_load.errors + closed.errors:
        outcome.fail(message)
    if server_failed:
        outcome.fail(f"server counted {server_failed} failed requests")
    outcome.metrics = {
        "peak_rss_mb": rss,
        "faults_detected": sum(sum(flags) for flags in expected),
        "test_patterns": cfg.patterns,
        **serve_metrics(cfg, [x * scale for x in open_load.latencies], len(closed.latencies),
                        closed_s * scale),
    }
    outcome.info = {
        "ops": outcome.attempted,
        "speed": scale,
        "raw": serve_metrics(cfg, open_load.latencies, len(closed.latencies), closed_s),
        "late_p90_ms": quantile(open_load.lateness, 0.9) * 1000.0,
        "what_ran": {"grade": resolved_tier(cfg.patterns)},
    }
    return outcome, setups, raw_setups


# ---------------------------------------------------------------------------
# helper processes
# ---------------------------------------------------------------------------


def native_build(cfg: Config) -> None:
    """Build (or load from the cache) the native module of the workload circuit."""
    from repro.api import resolve
    from repro.api.resolve import resolve_test_class
    from repro.paths import fault_list
    from repro.sim.delay_sim import DelayFaultSimulator

    circuit = resolve.resolve_circuit(cfg.spec, cfg.scale)
    simulator = DelayFaultSimulator(
        circuit, resolve_test_class(cfg.test_class), backend="native"
    )
    patterns = random_patterns(len(circuit.inputs), 1, 0, 0)
    simulator.detection_masks(patterns, fault_list(circuit, cap=1))


def run_child(task: str, workload: str, size: str, seed: int = 0,
              native_cache: Optional[str] = None) -> Dict:
    """Run ``run.py --child <task>`` in a fresh process; returns its JSON line."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--child", task,
        "--workload", workload, "--size", size, "--seed", str(seed),
    ]
    done = subprocess.run(
        cmd, env=child_env(native_cache), capture_output=True, timeout=170, cwd=WORK
    )
    if done.returncode != 0:
        raise RuntimeError(f"{task} process failed:\n{done.stderr.decode()[-2000:]}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])
