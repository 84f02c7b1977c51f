"""The traced run: per-layer metrics for one workload.

A traced run does a fixed amount of work (derived from ``--seconds``)
twice: once with the wrappers of :mod:`tracing` installed, for the
per-layer numbers, and once without, so the difference of the two
operation latencies states the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import statistics
import tempfile
import time
from typing import Dict, List, Sequence

import tracing
import workloads as wl

#: Every per-layer metric with its unit (the ``per_layer`` list of BENCHMARK.json).
PER_LAYER = {
    "circuit.resolve_s": "s",
    "kernel.lower_s": "s",
    "kernel.warm_s": "s",
    "kernel.native_build_s": "s",
    "kernel.pack_s": "s",
    "kernel.pack_calls": "count",
    "sim.detect_s": "s",
    "sim.detect_calls": "count",
    "sim.pattern_faults": "count",
    "sim.detect_yield": "ratio",
    "core.state_init_s": "s",
    "core.state_inits": "count",
    "core.imply_s": "s",
    "core.imply_calls": "count",
    "core.sensitize_s": "s",
    "core.sensitize_calls": "count",
    "core.fptpg_s": "s",
    "core.fptpg_calls": "count",
    "core.aptpg_s": "s",
    "core.aptpg_calls": "count",
    "core.aptpg_yield": "ratio",
    "core.decisions": "count",
    "core.backtracks": "count",
    "core.implication_passes": "count",
    "campaign.rounds": "count",
    "campaign.drop_s": "s",
    "campaign.drop_calls": "count",
    "campaign.dropped": "count",
    "campaign.detected": "count",
    "campaign.drop_yield": "ratio",
    "api.request_s": "s",
    "api.decode_s": "s",
    "api.session_s": "s",
    "api.grade_s": "s",
    "api.wire_s": "s",
    "api.requests_failed": "count",
    "load.late_p90_ms": "ms",
    "load.server_share": "ratio",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS + ("other",)},
    "trace.wall_s": "s",
    "trace.ops": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}

#: ``metric -> span name`` for the metrics that are a span's total seconds.
_SECONDS = {
    "circuit.resolve_s": "circuit.resolve",
    "kernel.lower_s": "kernel.lower",
    "kernel.pack_s": "kernel.pack",
    "sim.detect_s": "sim.detect",
    "core.state_init_s": "core.state_init",
    "core.imply_s": "core.imply",
    "core.sensitize_s": "core.sensitize",
    "core.fptpg_s": "core.fptpg",
    "core.aptpg_s": "core.aptpg",
    "campaign.drop_s": "campaign.drop",
    "api.request_s": "api.request",
    "api.decode_s": "api.decode",
    "api.session_s": "api.session",
    "api.grade_s": "api.grade",
}

#: ``metric -> span name`` for the metrics that count a span's calls.
_CALLS = {
    "kernel.pack_calls": "kernel.pack",
    "sim.detect_calls": "sim.detect",
    "core.state_inits": "core.state_init",
    "core.imply_calls": "core.imply",
    "core.sensitize_calls": "core.sensitize",
    "core.fptpg_calls": "core.fptpg",
    "core.aptpg_calls": "core.aptpg",
    "campaign.drop_calls": "campaign.drop",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans, counts: Dict[str, int], layers: Dict[str, float], wall: float):
    """Span totals, counters and the self-time split of one traced run."""
    totals = tracing.totals(spans)
    metrics = {name: 0.0 for name in PER_LAYER}
    for metric, span_name in _SECONDS.items():
        metrics[metric] = totals.get(span_name, (0.0, 0))[0]
    for metric, span_name in _CALLS.items():
        metrics[metric] = totals.get(span_name, (0.0, 0))[1]
    wire = totals.get("api.wire", (0.0, 0))[0]
    metrics["api.wire_s"] = wire - metrics["api.request_s"] if wire else 0.0
    metrics["sim.pattern_faults"] = counts.get("sim.pattern_faults", 0)
    metrics["sim.detect_yield"] = _ratio(counts.get("sim.detected", 0), counts.get("sim.faults", 0))
    metrics["core.aptpg_yield"] = _ratio(
        counts.get("core.aptpg_tested", 0), metrics["core.aptpg_calls"]
    )
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["trace.wall_s"] = wall
    return metrics


def _overhead(metrics: Dict[str, float], traced: Sequence[float], untraced: Sequence[float]):
    traced_p50 = statistics.median(traced)
    plain_p50 = statistics.median(untraced)
    metrics["trace.overhead_ms"] = (traced_p50 - plain_p50) * 1000.0
    metrics["trace.overhead_frac"] = (traced_p50 - plain_p50) / plain_p50


def _native_build_s(workload: str, size: str) -> float:
    """Cold native build of the workload circuit into an empty cache."""
    with tempfile.TemporaryDirectory(dir=os.path.join(wl.WORK, "tmp")) as cache:
        t0 = time.perf_counter()
        wl.run_child("native-build", workload, size, native_cache=cache)
        return time.perf_counter() - t0


def _timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one operation, timed as the plain run times it."""
    gc.collect()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


# ---------------------------------------------------------------------------
# tpg
# ---------------------------------------------------------------------------


def trace_tpg(cfg: wl.Config, seed: int, seconds: float, tracer: tracing.Tracer) -> wl.Outcome:
    from repro.core.results import FaultStatus

    passes = max(1, int(seconds // 8))
    outcome = wl.Outcome(metrics={}, attempted=passes)
    uninstall = tracing.install(tracer)
    try:
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            session, faults = wl.tpg_open(cfg)
            warm_first, warm = _timed(wl.tpg_warmup, session, faults, cfg)
        with tracer.span("bench.warm_repeat"):
            warm_again, warm_repeat = _timed(wl.tpg_warmup, session, faults, cfg)
        timed = [_timed(wl.tpg_pass, session, faults, cfg) for _ in range(passes)]
        wall = time.perf_counter() - start
    finally:
        uninstall()
    traced = [seconds for seconds, _ in timed]
    reports = [report for _, report in timed]
    untraced = [_timed(wl.tpg_pass, session, faults, cfg)[0] for _ in range(passes)]
    # like the span totals, the campaign counters cover every traced campaign
    campaigns = [warm, warm_repeat] + reports

    first = wl.tpg_signature(reports[0])
    for k, report in enumerate(reports[1:], start=2):
        if wl.tpg_signature(report) != first:
            outcome.fail(f"traced pass {k} settled differently from pass 1")
    for message in wl.check_tpg(session.circuit, faults, reports[0], cfg.test_class):
        outcome.fail(message)

    spans = tracer.spans
    metrics = layer_metrics(spans, tracer.counts, tracing.attributed(spans, wall), wall)
    stats = [report.stats for report in campaigns]
    tested = sum(report.count(FaultStatus.TESTED) for report in campaigns)
    dropped = sum(report.count(FaultStatus.SIMULATED) for report in campaigns)
    metrics.update({
        "kernel.warm_s": max(0.0, warm_first - warm_again),
        "core.decisions": sum(s.decisions for s in stats),
        "core.backtracks": sum(s.backtracks for s in stats),
        "core.implication_passes": sum(s.implication_passes for s in stats),
        "campaign.rounds": sum(s.rounds for s in stats),
        "campaign.dropped": dropped,
        "campaign.detected": tested + dropped,
        "campaign.drop_yield": _ratio(dropped, tested + dropped),
        "trace.ops": passes,
    })
    _overhead(metrics, traced, untraced)
    outcome.metrics = metrics
    return outcome


# ---------------------------------------------------------------------------
# grade
# ---------------------------------------------------------------------------


def trace_grade(cfg: wl.Config, seed: int, seconds: float, tracer: tracing.Tracer) -> wl.Outcome:
    calls = max(2, int(seconds))
    outcome = wl.Outcome(metrics={}, attempted=calls)
    uninstall = tracing.install(tracer)
    try:
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            session, faults = wl.grade_open(cfg)
            warm_first = wl.grade_warmup(session, faults, cfg, seed)
        with tracer.span("bench.warm_repeat"):
            warm_again = wl.grade_warmup(session, faults, cfg, seed)
        n_inputs = len(session.circuit.inputs)
        traced: List[float] = []
        for k in range(1, calls + 1):
            with tracer.span("bench.inputs"):
                patterns = wl.random_patterns(n_inputs, cfg.patterns, seed, k)
            seconds, report = _timed(session.grade, patterns, faults, test_class=cfg.test_class)
            traced.append(seconds)
            for message in wl.check_grade_report(report, cfg.patterns, len(faults)):
                outcome.fail(message)
            if k == 1:
                first_flags = report["detected_flags"]
        wall = time.perf_counter() - start
    finally:
        uninstall()
    untraced = [
        _timed(session.grade, wl.random_patterns(n_inputs, cfg.patterns, seed, k),
               faults, test_class=cfg.test_class)[0]
        for k in range(1, calls + 1)
    ]
    patterns = wl.random_patterns(n_inputs, cfg.patterns, seed, 1)
    for message in wl.check_grade_oracle(session, patterns, faults, first_flags, cfg.test_class):
        outcome.fail(message)

    spans = tracer.spans
    metrics = layer_metrics(spans, tracer.counts, tracing.attributed(spans, wall), wall)
    metrics["kernel.warm_s"] = max(0.0, warm_first - warm_again)
    metrics["trace.ops"] = calls
    _overhead(metrics, traced, untraced)
    outcome.metrics = metrics
    return outcome


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def _phases(server, bodies, expected, cfg: wl.Config, count: int):
    open_load = wl.open_loop(server.port, bodies, expected, cfg.rate, count)
    closed, _seconds = wl.closed_loop(server.port, bodies, expected, count=count)
    return open_load, closed


def trace_serve(cfg: wl.Config, seed: int, seconds: float, tracer: tracing.Tracer) -> wl.Outcome:
    """Server spans come from the launcher child; client spans from here.

    The load generator's two senders give ``2 x window`` sender-seconds
    of wall.  Client request time not covered by the server's own spans
    is the ``load`` layer (sockets, HTTP parsing on both ends, the
    generator), and sender time with no request in flight is ``other``.
    """
    count = max(4, int(cfg.rate * seconds / 5))
    bodies, expected = wl.serve_inputs(cfg, seed)
    spans_path = os.path.join(wl.WORK, "trace", f"serve-server-{tracer.run_id}.json")
    start = time.perf_counter()
    server, conn, _setup, first = wl.launch(bodies, expected, spans_path)
    try:
        t0 = time.perf_counter()
        second_error = wl.check_reply(wl.http_request(conn, "POST", "/v1/grade", bodies[1]), expected[1])
        second = time.perf_counter() - t0
        conn.close()
        open_load, closed = _phases(server, bodies, expected, cfg, count)
        end = time.perf_counter()
        failed = server.metrics()["requests_failed"]
    finally:
        server.stop()
    plain, plain_conn, _setup, _first = wl.launch(bodies, expected)
    try:
        plain_conn.close()
        plain_open, plain_closed = _phases(plain, bodies, expected, cfg, count)
    finally:
        plain.stop()

    loads = (open_load, closed, plain_open, plain_closed)
    outcome = wl.Outcome(metrics={}, attempted=3 + sum(load.attempted for load in loads))
    for message in [second_error] + [e for load in loads for e in load.errors]:
        if message is not None:
            outcome.fail(message)
    if failed:
        outcome.fail(f"server counted {failed} failed requests")

    for sent, done in open_load.spans + closed.spans:
        tracer.record("load.request", sent, done)
    spans, counts = tracing.load_spans(spans_path)
    spans = [span for span in spans if span[2] <= end]
    client = first + second + sum(done - sent for sent, done in open_load.spans + closed.spans)
    wall = 2 * (end - start)
    layers = tracing.self_times(spans)
    layers["load"] = client - tracing.top_level_time(spans)
    layers["other"] = wall - client
    metrics = layer_metrics(spans, counts, layers, wall)
    metrics.update({
        "kernel.warm_s": max(0.0, first - second),
        "api.requests_failed": failed,
        "load.late_p90_ms": wl.quantile(open_load.lateness, 0.9) * 1000.0,
        "load.server_share": _ratio(tracing.totals(spans).get("api.wire", (0.0, 0))[0], client),
        "trace.ops": 2 + 2 * count,
    })
    _overhead(metrics, open_load.latencies, plain_open.latencies)
    outcome.metrics = metrics
    return outcome


TRACERS = {"tpg": trace_tpg, "grade": trace_grade, "serve": trace_serve}


def run_traced(workload: str, size: str, seed: int, seconds: float) -> wl.Outcome:
    cfg = wl.CONFIGS[size][workload]
    tracer = tracing.Tracer(run_id=f"{workload}-{seed}-{os.getpid()}")
    native_build_s = _native_build_s(workload, size)
    outcome = TRACERS[workload](cfg, seed, seconds, tracer)
    outcome.metrics["kernel.native_build_s"] = native_build_s
    tracer.write(os.path.join(wl.WORK, "trace", f"{tracer.run_id}.json"))
    return outcome
