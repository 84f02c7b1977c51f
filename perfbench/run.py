"""The repository benchmark: ``tpg``, ``grade`` and ``serve`` workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py [--workload tpg|grade|serve|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--size full|tiny]

With ``--trace 0`` a run prints every end-to-end metric; with
``--trace 1`` it prints the per-layer metrics of a traced run.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it stamps the run with the host, the seed and the backend tiers that
ran.  The exit code is 0 only when every correctness check passed.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402 - after the path set-up
import workloads as wl  # noqa: E402

#: Seed for runs that do not name one.
DEFAULT_SEED = 1
#: Kept out of tuning: confirm a claimed gain on this seed as well.
HELD_OUT_SEED = 2029

#: Every end-to-end metric with its unit (the ``end_to_end`` list of BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "faults_per_s": "faults/s",
    "test_patterns": "count",
    "pattern_faults_per_s": "pairs/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "max_rps": "req/s",
}
#: Printed with the others but left out of the JSON metrics, whose values
#: must never be 0: every path delay fault of the ``serve`` circuit is
#: redundant, so nothing is ever detected there, and ``error_frac`` is 0
#: on a correct run (``failed`` / ``attempted`` carry it).
PRINTED_ONLY = {"faults_detected": "count", "error_frac": "ratio"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(wl.CONFIGS), default="full")
    parser.add_argument("--child", choices=("setup", "prime", "native-build"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def prepare() -> None:
    """Keep every file the run writes inside the checkout."""
    for sub in ("tmp", "trace", "results", "native-cache"):
        os.makedirs(os.path.join(wl.WORK, sub), exist_ok=True)
    env = wl.child_env()
    for key in ("TMPDIR", "REPRO_NATIVE_CACHE"):
        os.environ[key] = env[key]
    tempfile.tempdir = env["TMPDIR"]
    sys.path.insert(0, wl.SRC)


# ---------------------------------------------------------------------------
# helper processes (run.py --child ...)
# ---------------------------------------------------------------------------


def child(args) -> int:
    cfg = wl.CONFIGS[args.size][args.workload]
    if args.child == "setup":
        # set-up time starts once the program is imported
        import repro.api  # noqa: F401
        import repro.paths  # noqa: F401

        meter = speed.Meter(arrays=args.workload == "grade")
        meter.sample(wl.GAP_SAMPLES)
        if args.workload == "tpg":
            t0 = time.perf_counter()
            session, faults = wl.tpg_open(cfg)
            wl.tpg_warmup(session, faults, cfg)
            raw = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            session, faults = wl.grade_open(cfg)
            opened = time.perf_counter() - t0
            raw = opened + wl.grade_warmup(session, faults, cfg, args.seed)
        meter.sample(wl.GAP_SAMPLES)
        result = {"setup_s": raw * meter.mean(), "raw_setup_s": raw}
    elif args.child == "prime":
        from repro.kernel.native import native_available, native_unavailable_reason

        ok = native_available()
        if ok:
            wl.native_build(cfg)
        result = {"native_ok": ok, "native_reason": native_unavailable_reason()}
    else:
        wl.native_build(cfg)
        result = {}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# stamping
# ---------------------------------------------------------------------------


def host_fingerprint(native: dict) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, timeout=30)
        compiler = cc.stdout.decode().splitlines()[0] if cc.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired, IndexError):
        compiler = "none"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": compiler,
        "native_probe": native["native_ok"],
        "native_reason": native["native_reason"],
    }


def units(trace: int) -> dict:
    if trace:
        from traced import PER_LAYER

        return PER_LAYER
    return END_TO_END


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def measure(args) -> wl.Outcome:
    cfg = wl.CONFIGS[args.size][args.workload]
    if args.trace:
        from traced import run_traced

        return run_traced(args.workload, args.size, args.seed, args.seconds)
    if args.workload == "serve":
        outcome, setups, raw_setups = wl.run_serve(cfg, args.seed, args.seconds)
    else:
        children = [
            wl.run_child("setup", args.workload, args.size, args.seed)
            for _ in range(cfg.setups)
        ]
        setups = [child["setup_s"] for child in children]
        raw_setups = [child["raw_setup_s"] for child in children]
        if args.workload == "tpg":
            outcome = wl.run_tpg(cfg, args.seconds)
        else:
            outcome = wl.run_grade(cfg, args.seed, args.seconds)
    outcome.metrics["setup_s"] = statistics.median(setups)
    outcome.info["setups_s"] = setups
    outcome.info["raw"]["setup_s"] = statistics.median(raw_setups)
    return outcome


def run_one(args) -> int:
    native = wl.run_child("prime", args.workload, args.size)
    try:
        outcome = measure(args)
    except Exception as exc:  # report the run as failed, with the cause
        traceback.print_exc()
        outcome = wl.Outcome(metrics={}, attempted=1)
        outcome.fail(f"{type(exc).__name__}: {exc}")
    table = units(args.trace)
    if outcome.errors:
        for message in outcome.errors:
            print(f"CHECK FAILED: {message}")
    error_frac = outcome.failed / max(outcome.attempted, 1)
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit}
        for name, unit in table.items()
        if name in outcome.metrics
    }
    lines = [(name, entry["value"], entry["unit"]) for name, entry in metrics.items()]
    if not args.trace:
        shown = {**outcome.metrics, "error_frac": error_frac}
        lines += [(name, shown[name], unit) for name, unit in PRINTED_ONLY.items() if name in shown]
    for name, value, unit in lines:
        print(f"{args.workload:6s} {name:28s} {value:>16.6g} {unit}")
    correct = outcome.failed == 0 and len(metrics) == len(table)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host": host_fingerprint(native),
        "error_frac": error_frac,
        "errors": outcome.errors,
        **outcome.info,
    }
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(wl.WORK, "results", name), "w") as handle:
        json.dump({"run": stamp, "result": result}, handle, indent=1)
    print(json.dumps({"run": stamp}))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size,
        ]
        done = subprocess.run(cmd, capture_output=True, timeout=900)
        lines = done.stdout.decode().strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(done.stderr.decode())
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(wl.SRC, "repro")):
        print(f"perfbench: no program at {wl.SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    prepare()
    # a terminated run still unwinds, so its server children are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.child:
        return child(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
