"""Command-line interface: the ``tip`` multi-command front end.

One entry point, ``main`` (the ``tip`` console script), dispatches to
subcommands that are all thin adapters over the same
:mod:`repro.api` objects the service endpoint uses —
:class:`repro.api.AtpgSession`, the unified
:class:`repro.api.Options` model, and the versioned schema registry:

* ``tip atpg`` — generate robust/nonrobust path delay tests for a
  circuit (a ``.bench`` file, an embedded circuit, or a suite name).
* ``tip bist`` — pseudorandom built-in self-test: LFSR pattern
  generation in packed lane-slab form, fault-dropping coverage
  curves, and MISR signature compaction.
* ``tip campaign`` — staged ATPG campaign: stream the fault universe,
  generate in rounds of shards, drop collaterally detected faults
  globally, checkpoint and resume.
* ``tip paths`` — count/enumerate structural paths and faults.
* ``tip experiments`` — regenerate the paper's tables and figures.
* ``tip serve`` — the long-lived JSON service endpoint
  (:mod:`repro.api.service`).
* ``tip validate`` — validate JSON artifacts (reports, campaign
  checkpoints) against the declared schemas.

``main_atpg`` etc. are the functions the dispatcher calls
(``main_atpg([...])`` == ``tip atpg ...``), also invoked as
``PYTHONPATH=src python -c "from repro.cli import main_<name>;
main_<name>([...])"``.

Circuit and test-class resolution is shared with the API layer
(:mod:`repro.api.resolve`) — no subcommand re-implements it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Iterator, List, Optional

from .analysis import (
    render_table,
    run_ablation_implications,
    run_ablation_modes,
    run_ablation_word_length,
    run_figure1,
    run_figure2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
)
from .api import AtpgSession, Options, ResolutionError, SchemaError
from .api import resolve_circuit as _resolve_circuit
from .api.options import DEFAULT_SHARDS
from .api.resolve import resolve_test_class
from .api.schemas import validate_file
from .circuit import Circuit
from .circuit.suites import check_scale
from .kernel import check_fusion
from .logic.words import DEFAULT_WORD_LENGTH
from .paths import check_cap


def resolve_circuit(spec: str, scale: int = 1) -> Circuit:
    """Interpret a circuit spec; exits cleanly on unknown specs.

    Thin CLI wrapper over :func:`repro.api.resolve.resolve_circuit`
    (the shared implementation): resolution errors become
    ``SystemExit`` instead of a traceback.  A suite scale below 1 stays
    a ``ValueError``, which the subcommands report as a usage error.
    """
    try:
        return _resolve_circuit(spec, scale)
    except ResolutionError as exc:
        raise SystemExit(str(exc)) from None


@contextlib.contextmanager
def _usage_errors(parser: argparse.ArgumentParser) -> Iterator[None]:
    """Report a ``ValueError`` raised in the block as a usage error.

    Wraps the checks each subcommand runs right after parsing (its
    options' ``validate``, its caps), so a value the options layer
    refuses exits 2 with the usage line and the message, not a
    traceback.
    """
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _add_circuit_arguments(parser: argparse.ArgumentParser) -> None:
    """The spec/scale pair every circuit-consuming subcommand takes."""
    parser.add_argument("circuit", help=".bench file, embedded or suite circuit name")
    parser.add_argument("--scale", type=int, default=1, help="suite circuit scale")


def _add_test_class_argument(
    parser: argparse.ArgumentParser, default: str = "nonrobust"
) -> None:
    parser.add_argument(
        "--class",
        dest="test_class",
        choices=["robust", "nonrobust"],
        default=default,
        help=f"test class (default: {default})",
    )


# ---------------------------------------------------------------------------
# tip atpg
# ---------------------------------------------------------------------------


def main_atpg(argv: Optional[List[str]] = None) -> int:
    """Generate path delay tests for one circuit."""
    parser = argparse.ArgumentParser(
        prog="tip atpg",
        description="Bit-parallel path delay fault test generation (TIP).",
    )
    _add_circuit_arguments(parser)
    _add_test_class_argument(parser)
    parser.add_argument(
        "--width", type=int, default=DEFAULT_WORD_LENGTH, help="word length L"
    )
    parser.add_argument(
        "--max-faults", type=int, default=None, help="cap on the fault list"
    )
    parser.add_argument(
        "--strategy",
        choices=["all", "longest", "sample"],
        default="all",
        help="fault selection strategy",
    )
    parser.add_argument(
        "--single-bit",
        action="store_true",
        help="restrict the generator to one bit level (the baseline)",
    )
    parser.add_argument(
        "--no-drop", action="store_true", help="disable fault dropping"
    )
    parser.add_argument(
        "--patterns", action="store_true", help="print the generated patterns"
    )
    args = parser.parse_args(argv)
    with _usage_errors(parser):
        options = Options(
            width=1 if args.single_bit else args.width,
            drop_faults=not args.no_drop,
        )
        options.engine_mode().validate()
        check_cap("max_faults", args.max_faults)
        circuit = resolve_circuit(args.circuit, args.scale)

    session = AtpgSession(circuit, options=options)
    report = session.generate(
        test_class=resolve_test_class(args.test_class),
        max_faults=args.max_faults,
        strategy=args.strategy,
    )
    print(
        render_table(
            [report.summary()], title=f"{session.circuit.name}: ATPG summary"
        )
    )
    if args.patterns:
        print()
        for record in report.records:
            if record.pattern is not None:
                print(record.pattern.describe(session.circuit))
    return 0


# ---------------------------------------------------------------------------
# tip campaign
# ---------------------------------------------------------------------------


def main_campaign(argv: Optional[List[str]] = None) -> int:
    """Staged ATPG campaign: stream, shard, drop, checkpoint."""
    parser = argparse.ArgumentParser(
        prog="tip campaign",
        description=(
            "Staged ATPG campaign: stream the structural fault universe "
            "lazily, generate lane-width batches in rounds of shards, and "
            "drop collaterally detected faults on a global simulation bus "
            "after every round."
        ),
        epilog=(
            "Checkpoint/resume: with --checkpoint PATH, progress (settled "
            "statuses, retained patterns, pending window, stream position) "
            "is written atomically every --checkpoint-every rounds and once "
            "at completion.  Re-running the same command with --resume "
            "restarts exactly where the interrupted campaign stopped — the "
            "fault stream is deterministic and re-enters by position, so no "
            "generation or simulation work is repeated."
        ),
    )
    _add_circuit_arguments(parser)
    _add_test_class_argument(parser)
    parser.add_argument(
        "--width", type=int, default=DEFAULT_WORD_LENGTH, help="word length L"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=DEFAULT_SHARDS,
        help="generation batches per drop round (default: 2); part of the "
        "schedule, so changing it changes per-fault statuses",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=4096,
        help="peak pending faults held in memory (0 = unbounded)",
    )
    parser.add_argument(
        "--max-paths",
        type=int,
        default=None,
        help="budget cap on streamed structural paths (two faults each)",
    )
    parser.add_argument(
        "--max-faults", type=int, default=None, help="budget cap on streamed faults"
    )
    parser.add_argument(
        "--min-length", type=int, default=None, help="keep paths of >= this length"
    )
    parser.add_argument(
        "--max-length", type=int, default=None, help="keep paths of <= this length"
    )
    parser.add_argument(
        "--checkpoint", default=None, help="JSON checkpoint file for resume"
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=16,
        help="rounds between checkpoint writes (default: 16)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from --checkpoint if it exists",
    )
    parser.add_argument(
        "--compact-every",
        type=int,
        default=None,
        help="incremental reverse-order compaction of the retained pattern "
        "set every N fresh patterns (default: off)",
    )
    parser.add_argument(
        "--no-drop", action="store_true", help="disable fault dropping"
    )
    parser.add_argument(
        "--no-records",
        action="store_true",
        help="keep statuses only (lower memory for huge campaigns)",
    )
    parser.add_argument(
        "--json", dest="json_path", default=None, help="write the summary as JSON"
    )
    parser.add_argument(
        "--shard-attempts",
        type=int,
        default=3,
        help="attempts per shard before quarantine (default: 3)",
    )
    parser.add_argument(
        "--retry-base-ms",
        type=float,
        default=50.0,
        help="base backoff between shard retries in ms (default: 50)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministic fault-injection JSON spec, e.g. "
        '\'{"points": [{"site": "shard_error", "at": [1]}]}\' (testing only)',
    )
    args = parser.parse_args(argv)

    from .campaign.universe import FaultUniverse
    from .core.state import tpg_tier

    with _usage_errors(parser):
        options = Options(
            width=args.width,
            shards=args.shards,
            window=args.window if args.window > 0 else None,
            drop_faults=not args.no_drop,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            compact_every=args.compact_every,
            keep_records=not args.no_records,
            shard_attempts=args.shard_attempts,
            retry_base_ms=args.retry_base_ms,
            chaos=args.chaos,
        )
        options.validate()
        check_cap("window", args.window)
        check_cap("max_faults", args.max_faults)
        check_cap("max_paths", args.max_paths)
        circuit = resolve_circuit(args.circuit, args.scale)

    session = AtpgSession(circuit)
    max_faults = args.max_faults
    if args.max_paths is not None:
        cap = 2 * args.max_paths
        max_faults = cap if max_faults is None else min(max_faults, cap)
    universe = FaultUniverse.from_circuit(
        session.circuit,
        max_faults=max_faults,
        min_length=args.min_length,
        max_length=args.max_length,
    )
    report = session.campaign(
        universe=universe,
        test_class=resolve_test_class(args.test_class),
        options=options,
    )
    print(
        render_table(
            [report.summary()], title=f"{session.circuit.name}: campaign summary"
        )
    )
    stats = report.stats
    print(
        f"rounds: {stats.rounds} (fptpg {stats.fptpg_rounds}, "
        f"aptpg {stats.aptpg_rounds}), peak pending: {stats.peak_pending}, "
        f"admission-dropped: {stats.admitted_dropped}, "
        f"compactions: {stats.compactions}, decisions: {stats.decisions}, "
        f"backtracks: {stats.backtracks}, "
        f"implication passes: {stats.implication_passes}, "
        f"tpg tier: {tpg_tier(options.width, options.fusion)}"
    )
    if stats.shard_retries or stats.quarantined_shards:
        print(
            f"supervision: shard retries {stats.shard_retries}, "
            f"quarantined shards {stats.quarantined_shards}"
        )
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint}")
    if args.json_path:
        payload = {
            "summary": report.summary(),
            "stats": stats.as_dict(),
            "universe": universe.describe(),
        }
        with open(args.json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json_path}")
    return 0


# ---------------------------------------------------------------------------
# tip paths
# ---------------------------------------------------------------------------


def main_paths(argv: Optional[List[str]] = None) -> int:
    """Count and enumerate structural paths and faults."""
    parser = argparse.ArgumentParser(
        prog="tip paths",
        description="Structural path counting and enumeration.",
    )
    _add_circuit_arguments(parser)
    parser.add_argument(
        "--list", type=int, default=0, metavar="N", help="print the first N paths"
    )
    parser.add_argument(
        "--histogram", action="store_true", help="print the path-length histogram"
    )
    args = parser.parse_args(argv)
    with _usage_errors(parser):
        check_cap("list", args.list)
        circuit = resolve_circuit(args.circuit, args.scale)

    session = AtpgSession(circuit)
    result = session.paths(histogram=args.histogram, limit=args.list)
    stats = result["stats"]
    print(f"circuit   : {result['circuit']}")
    print(f"inputs    : {stats['inputs']}")
    print(f"gates     : {stats['gates']}")
    print(f"outputs   : {stats['outputs']}")
    print(f"depth     : {stats['depth']}")
    print(f"paths     : {result['paths']}")
    print(f"faults    : {result['faults']}")
    if args.histogram:
        rows = [
            {"length": length, "paths": count}
            for length, count in result["histogram"]
        ]
        print()
        print(render_table(rows, title="path length histogram"))
    if args.list:
        print()
        for line in result["listed"]:
            print(line)
    return 0


# ---------------------------------------------------------------------------
# tip bist
# ---------------------------------------------------------------------------


def main_bist(argv: Optional[List[str]] = None) -> int:
    """Pseudorandom BIST: LFSR patterns, coverage curve, MISR signature."""
    from .api import serde
    from .bist.lfsr import LFSR_KINDS

    parser = argparse.ArgumentParser(
        prog="tip bist",
        description=(
            "Logic built-in self-test: a primitive-polynomial LFSR emits "
            "pseudorandom patterns directly in packed lane-slab form, the "
            "fault simulator grades them window by window with fault "
            "dropping, and a MISR compacts the fault-free output "
            "responses into the golden signature."
        ),
    )
    _add_circuit_arguments(parser)
    _add_test_class_argument(parser)
    parser.add_argument(
        "--fault-model",
        choices=["stuck-at", "path-delay"],
        default="stuck-at",
        help="fault model to grade (default: stuck-at; --class only "
        "applies to path-delay)",
    )
    parser.add_argument(
        "--lfsr-width", type=int, default=32, help="LFSR register width"
    )
    parser.add_argument(
        "--lfsr-kind",
        choices=list(LFSR_KINDS),
        default="fibonacci",
        help="LFSR feedback structure (default: fibonacci)",
    )
    parser.add_argument(
        "--seed",
        type=lambda value: int(value, 0),
        default=1,
        help="nonzero LFSR seed state (accepts hex, default: 1)",
    )
    parser.add_argument(
        "--phase-spread",
        type=int,
        default=1,
        help="phase-shifter stream offset between adjacent inputs",
    )
    parser.add_argument(
        "--misr-width", type=int, default=32, help="MISR register width"
    )
    parser.add_argument(
        "--window",
        type=int,
        default=256,
        help="patterns simulated per fault-dropping round",
    )
    parser.add_argument(
        "--max-patterns", type=int, default=4096, help="pattern budget"
    )
    parser.add_argument(
        "--target-coverage",
        type=float,
        default=None,
        metavar="FRACTION",
        help="stop once detected/faults reaches this fraction",
    )
    parser.add_argument(
        "--max-faults", type=int, default=None, help="cap on the fault list"
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "numpy", "native"],
        default="auto",
        help="simulation word backend (default: auto)",
    )
    parser.add_argument(
        "--fusion",
        choices=["auto", "interp"],
        default="auto",
        help="auto, or interp: the per-gate Python oracle (default: auto; "
        "not with --backend native)",
    )
    parser.add_argument(
        "--curve",
        type=int,
        default=0,
        metavar="N",
        help="print the last N coverage-curve points",
    )
    parser.add_argument(
        "--json", dest="json_path", default=None, help="write the report as JSON"
    )
    args = parser.parse_args(argv)
    with _usage_errors(parser):
        check_fusion(args.fusion, args.backend)
        options = Options(
            sim_backend=args.backend,
            fusion=args.fusion,
            bist_width=args.lfsr_width,
            bist_kind=args.lfsr_kind,
            bist_seed=args.seed,
            bist_phase_spread=args.phase_spread,
            misr_width=args.misr_width,
            bist_window=args.window,
            bist_max_patterns=args.max_patterns,
            bist_target_coverage=args.target_coverage,
        )
        options.validate()
        check_cap("max_faults", args.max_faults)
        circuit = resolve_circuit(args.circuit, args.scale)

    session = AtpgSession(circuit, options=options)
    report = session.bist(
        fault_model=args.fault_model,
        test_class=resolve_test_class(args.test_class),
        max_faults=args.max_faults,
    )
    print(report.summary())
    if args.curve:
        print()
        print("coverage curve (patterns applied, faults detected):")
        for applied, detected in report.curve[-args.curve :]:
            print(f"  {applied:8d}  {detected:8d}")
    if args.json_path:
        payload = serde.bist_report_to_payload(report)
        with open(args.json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json_path}")
    return 0


# ---------------------------------------------------------------------------
# tip experiments
# ---------------------------------------------------------------------------

_EXPERIMENTS = {
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "table7": run_table7,
    "table8": run_table8,
    "ablation-L": run_ablation_word_length,
    "ablation-modes": run_ablation_modes,
    "ablation-implications": run_ablation_implications,
}


def main_experiments(argv: Optional[List[str]] = None) -> int:
    """Regenerate the paper's tables and figures."""
    parser = argparse.ArgumentParser(
        prog="tip experiments",
        description="Regenerate the paper's experiment tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["figure1", "figure2", "all-tables"],
        help="which experiment to run",
    )
    parser.add_argument("--scale", type=int, default=1, help="suite circuit scale")
    parser.add_argument(
        "--fault-cap", type=int, default=None, help="cap on faults per circuit"
    )
    args = parser.parse_args(argv)
    with _usage_errors(parser):
        check_cap("fault_cap", args.fault_cap)
        check_scale(args.scale)

    if args.experiment == "figure1":
        result = run_figure1()
        print("Figure 1 — FPTPG for 4 paths (bit levels 0..3):")
        for fault, status in zip(result["faults"], result["statuses"]):
            print(f"  {fault.describe(result['circuit'])}: {status}")
        print("lane words (level 3..0):")
        for name, word in result["lane_words"].items():
            print(f"  {name}: {word}")
        return 0
    if args.experiment == "figure2":
        result = run_figure2()
        print("Figure 2 — APTPG for path a-p-x (falling):")
        print(f"  status: {result['status']}, splits: {result['splits_used']}")
        for name, word in result["lane_words"].items():
            print(f"  {name}: {word}")
        return 0

    kwargs = {}
    if args.fault_cap is not None:
        kwargs["fault_cap"] = args.fault_cap
    if args.experiment == "all-tables":
        for name in ("table3", "table4", "table5", "table6", "table7", "table8"):
            rows = _EXPERIMENTS[name](scale=args.scale, **kwargs)
            print(render_table(rows, title=f"{name} (reproduction)"))
            print()
        return 0
    runner = _EXPERIMENTS[args.experiment]
    rows = runner(scale=args.scale, **kwargs)
    print(render_table(rows, title=f"{args.experiment} (reproduction)"))
    return 0


# ---------------------------------------------------------------------------
# tip serve
# ---------------------------------------------------------------------------


def main_serve(argv: Optional[List[str]] = None) -> int:
    """Run the JSON service endpoint (repro.api.service).

    Synchronous verbs run on the HTTP handler thread as one call on the
    circuit's cached session; campaign and BIST runs go to the job queue.
    """
    from .api.options import ServiceOptions
    from .api.service import DEFAULT_PORT, AtpgService, run_server

    parser = argparse.ArgumentParser(
        prog="tip serve",
        description=(
            "Long-lived multi-tenant JSON service over the AtpgSession "
            "façade: POST /v1/generate|simulate|grade|paths run "
            "synchronously; POST /v1/campaign returns a job id "
            "immediately (poll GET /v1/jobs/<id>, cancel with POST "
            "/v1/jobs/<id>/cancel).  Sessions are cached by circuit "
            "hash with single-flight lowering.  A full job queue "
            "answers 429 with Retry-After."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "quick start:\n"
            "  tip serve --port 8470 --workers 2 --jobs-dir /var/tmp/tip-jobs &\n"
            "  curl -s localhost:8470/v1/healthz\n"
            "  curl -s -XPOST localhost:8470/v1/campaign -H 'X-Tenant: me' \\\n"
            "    -d '{\"schema\":\"repro/request.campaign\","
            "\"schema_version\":1,\"circuit\":\"c880\"}'\n"
            "  curl -s localhost:8470/v1/jobs/<id>   # poll state/progress\n"
            "  curl -s localhost:8470/v1/metrics     # counters + queue depth\n"
            "SIGTERM drains gracefully: running campaigns checkpoint and\n"
            "resume on the next start over the same --jobs-dir."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="TCP port (0 = auto)"
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=8,
        help="circuits kept lowered in the LRU session cache",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="job-queue worker threads executing async campaigns",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="queued-job bound; beyond it submissions get 429 + Retry-After",
    )
    parser.add_argument(
        "--jobs-dir",
        default=None,
        metavar="DIR",
        help=(
            "directory for job records and campaign checkpoints; "
            "enables restart recovery (default: in-memory only)"
        ),
    )
    parser.add_argument(
        "--max-jobs-per-tenant",
        type=int,
        default=0,
        metavar="N",
        help="active jobs one X-Tenant may hold at once (0 = unlimited)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the structured JSON access log (stderr)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="install a deterministic fault-injection JSON schedule in this "
        'process, e.g. \'{"points": [{"site": "kernel_fault", "at": [0]}]}\' '
        "(testing only)",
    )
    args = parser.parse_args(argv)
    with _usage_errors(parser):
        config = ServiceOptions(
            workers=args.workers,
            max_queue=args.max_queue,
            jobs_dir=args.jobs_dir,
            max_sessions=args.max_sessions,
            max_jobs_per_tenant=args.max_jobs_per_tenant,
        )
        config.validate()
        if not 0 <= args.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {args.port}")
        if args.chaos is not None:
            from . import chaos as chaos_module

            chaos_module.install(args.chaos)
    run_server(
        host=args.host,
        port=args.port,
        service=AtpgService(config=config),
        quiet=args.quiet,
    )
    return 0


# ---------------------------------------------------------------------------
# tip validate
# ---------------------------------------------------------------------------


def main_validate(argv: Optional[List[str]] = None) -> int:
    """Validate JSON artifacts against the schema registry."""
    parser = argparse.ArgumentParser(
        prog="tip validate",
        description=(
            "Validate JSON artifacts (campaign checkpoints, serialized "
            "reports) against the versioned schema registry.  Fails on "
            "unknown kinds/versions and on shape drift without a schema "
            "version bump."
        ),
    )
    parser.add_argument("files", nargs="+", help="artifact paths")
    files = parser.parse_args(argv).files
    failures = 0
    for path in files:
        try:
            kind, version = validate_file(path)
        except SchemaError as exc:
            print(f"FAIL {exc}")
            failures += 1
        except OSError as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
        else:
            print(f"ok   {path}: {kind} v{version}")
    if failures:
        print(f"{failures} of {len(files)} artifact(s) failed validation")
        return 1
    return 0


# ---------------------------------------------------------------------------
# the tip dispatcher
# ---------------------------------------------------------------------------

COMMANDS = {
    "atpg": main_atpg,
    "bist": main_bist,
    "campaign": main_campaign,
    "paths": main_paths,
    "experiments": main_experiments,
    "serve": main_serve,
    "validate": main_validate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """The ``tip`` multi-command entry point."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: tip <command> [options]")
        print()
        print("commands:")
        for name, fn in sorted(COMMANDS.items()):
            summary = (fn.__doc__ or "").strip().splitlines()
            doc = summary[0] if summary else ""
            print(f"  {name:12} {doc}")
        print()
        print("run 'tip <command> --help' for command options")
        return 0
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        known = ", ".join(sorted(COMMANDS))
        raise SystemExit(f"tip: unknown command {command!r} (choose from {known})")
    return COMMANDS[command](rest)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
