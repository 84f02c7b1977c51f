"""The multi-tenant service: typed requests, shared kernels, async jobs.

Three layers:

* :class:`AtpgService` — a long-lived, transport-free dispatcher.
  Typed request dataclasses (:class:`GenerateRequest`,
  :class:`CampaignRequest`, :class:`SimulateRequest`,
  :class:`GradeRequest`, :class:`PathsRequest`, :class:`BistRequest`)
  map 1:1 onto
  :class:`repro.api.AtpgSession` methods; results come back as
  :class:`Response` objects carrying schema-stamped JSON payloads.
  Sessions are cached in an LRU keyed by the circuit's structural
  hash with **single-flight lowering**: concurrent first requests for
  the same netlist lower the compiled kernel exactly once while other
  circuits proceed unblocked.
* The async job queue — :class:`repro.api.jobs.JobManager` runs
  campaigns and BIST runs on a bounded worker pool: ``POST
  /v1/campaign`` (or ``/v1/bist``) returns a job id immediately,
  ``GET /v1/jobs/<id>`` polls progress, cancel stops at the next
  round/window boundary, and a graceful shutdown parks running jobs
  resumably (checkpoint flush + ``interrupted`` state).  Every other
  verb runs synchronously on the handler thread, straight into the
  cached session: a simulate or grade request is one
  :meth:`AtpgSession.simulate` / :meth:`AtpgSession.grade` call, and
  the kernel already packs its patterns into machine-word lanes.
* :func:`make_server` / :func:`run_server` — a stdlib ``http.server``
  JSON transport over the dispatcher: ``POST /v1/<verb>`` with an
  enveloped request body; ``GET /v1/health`` (alias ``/v1/healthz``),
  ``/v1/metrics``, ``/v1/schemas``, ``/v1/jobs`` and ``/v1/jobs/<id>``
  for observation; ``POST /v1/jobs/<id>/cancel``.  Tenants identify
  themselves with the ``X-Tenant`` header; a full job queue or an
  exceeded tenant quota answers ``429`` with ``Retry-After``
  (backpressure), and every request emits one structured JSON access
  log line with timing (unless ``quiet``).  Every error, including
  what the stdlib refuses before a verb runs and a body that stalls
  past :data:`REQUEST_TIMEOUT_S` (408), is a JSON ``{"error",
  "detail"}`` body.  The CLI front end is ``tip serve``;
  SIGTERM/SIGINT drain the queue before exit.

Every request and response body is validated against
:mod:`repro.api.schemas`; a request with an unknown
``schema_version`` is rejected with HTTP 400 before any work runs.
Simulate and grade bodies carry their patterns as ``"0101…"`` strings
(request v2), which :func:`request_from_payload` decodes straight into
lane planes (:meth:`repro.kernel.PackedPatterns.from_text`); v1
bodies with int-list vectors decode into ``TestPattern`` objects as
before.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

from ..circuit import Circuit
from ..core.patterns import TestPattern
from ..kernel.packed import PackedPatterns
from ..paths import PathDelayFault, TestClass
from . import serde
from .jobs import Job, JobManager, QuotaExceeded
from .options import Options, ServiceOptions
from .resolve import ResolutionError, resolve_circuit_request, resolve_test_class
from .schemas import SchemaError, iter_schema_summary, stamp, validate

from .session import AtpgSession

__version_tag__ = "v1"

#: Default TCP port of ``tip serve`` (spells "TIP" on a phone keypad).
DEFAULT_PORT = 8470

#: Largest request body the handler reads; a longer ``Content-Length``
#: gets 413 before any byte of the body is read.  A 16,384-pattern x
#: 129-input grade is ~4.8 MB with ``"0101…"`` string vectors (request
#: v2) and ~13 MB with JSON int lists (v1).
MAX_BODY_BYTES = 64 << 20

#: Seconds a connection may wait on the client for any one read or
#: write.  A body that stalls this long gets 408 and the connection
#: closes; an idle keep-alive connection just closes.  Without it one
#: slow client holds a handler thread for as long as it likes.
REQUEST_TIMEOUT_S = 30.0


# ---------------------------------------------------------------------------
# typed requests / response
# ---------------------------------------------------------------------------


@dataclass
class _CircuitRequest:
    """Shared transport fields: how a request names its circuit."""

    circuit: Optional[str] = None  # a spec: file / embedded / suite name
    bench: Optional[str] = None  # inline netlist text
    scale: int = 1
    test_class: Union[str, TestClass] = TestClass.NONROBUST


@dataclass
class GenerateRequest(_CircuitRequest):
    """Engine-mode generation (``AtpgSession.generate``)."""

    options: Optional[Options] = None
    max_faults: Optional[int] = None
    strategy: str = "all"
    include_patterns: bool = False

    verb = "generate"


@dataclass
class CampaignRequest(_CircuitRequest):
    """Staged campaign over the streamed universe (``.campaign``)."""

    options: Optional[Options] = None
    max_faults: Optional[int] = None
    min_length: Optional[int] = None
    max_length: Optional[int] = None

    verb = "campaign"


#: A request's pattern batch: objects, or the lane planes a v2 wire
#: body decodes into (both simulators take either).
Patterns = Union[List[TestPattern], PackedPatterns]


@dataclass
class SimulateRequest(_CircuitRequest):
    """Batched PPSFP detection masks (``.simulate``)."""

    patterns: Patterns = field(default_factory=list)
    faults: List[PathDelayFault] = field(default_factory=list)

    verb = "simulate"


@dataclass
class GradeRequest(_CircuitRequest):
    """Pattern-set coverage grading (``.grade``)."""

    patterns: Patterns = field(default_factory=list)
    faults: List[PathDelayFault] = field(default_factory=list)

    verb = "grade"


@dataclass
class PathsRequest(_CircuitRequest):
    """Structural path statistics (``.paths``)."""

    histogram: bool = False
    limit: Optional[int] = None

    verb = "paths"


@dataclass
class BistRequest(_CircuitRequest):
    """Pseudorandom BIST run (``AtpgSession.bist``).

    Like campaigns, BIST runs are long-running and execute on the
    async job queue when submitted over HTTP (``POST /v1/bist`` →
    202 + job id with per-window progress); ``handle()`` also accepts
    it synchronously.
    """

    options: Optional[Options] = None
    fault_model: str = "stuck_at"
    max_faults: Optional[int] = None

    verb = "bist"


Request = Union[
    GenerateRequest,
    CampaignRequest,
    SimulateRequest,
    GradeRequest,
    PathsRequest,
    BistRequest,
]

#: Verbs that run on the async job queue when POSTed over HTTP.
ASYNC_VERBS = ("campaign", "bist")


@dataclass
class Response:
    """Dispatcher outcome: a schema-stamped payload or an error.

    ``payload`` is the enveloped result body (``repro/<kind>``) on
    success, or an error body on failure; ``envelope()`` wraps either
    into the ``repro/response`` wire shape the HTTP layer sends.
    ``retry_after`` (backpressure responses only) becomes the
    ``Retry-After`` header.
    """

    ok: bool
    payload: Dict
    status: int = 200
    retry_after: Optional[float] = None

    def envelope(self) -> Dict:
        body = {"ok": self.ok}
        if self.ok:
            body["result"] = self.payload
        else:
            body["error"] = self.payload
        return stamp("repro/response", body)


# ---------------------------------------------------------------------------
# request decoding (wire -> typed dataclass)
# ---------------------------------------------------------------------------

_REQUEST_TYPES: Dict[str, type] = {
    cls.verb: cls
    for cls in (
        GenerateRequest,
        CampaignRequest,
        SimulateRequest,
        GradeRequest,
        PathsRequest,
        BistRequest,
    )
}

#: Each verb's request field names, computed once.
_REQUEST_FIELDS: Dict[str, FrozenSet[str]] = {
    verb: frozenset(f.name for f in fields(cls))
    for verb, cls in _REQUEST_TYPES.items()
}


def request_from_payload(verb: str, payload: Dict) -> Request:
    """Decode one enveloped JSON request body into its typed form."""
    cls = _REQUEST_TYPES.get(verb)
    if cls is None:
        raise SchemaError(
            f"unknown verb {verb!r} (known: {sorted(_REQUEST_TYPES)})"
        )
    validate(payload, kind=f"repro/request.{verb}")
    names = _REQUEST_FIELDS[verb]
    values = {
        key: payload[key]
        for key in ("circuit", "bench", "scale", "test_class")
        if key in payload
    }
    if "options" in payload and "options" in names:
        options = serde.options_from_payload(payload["options"], envelope=False)
        # the check the verb runs on the options it runs with, here, so
        # an async job is refused before the queue like a sync call
        checked = _scrub_options(options)
        (checked.engine_mode() if verb == "generate" else checked).validate()
        values["options"] = options
    for key in (
        "max_faults",
        "strategy",
        "include_patterns",
        "min_length",
        "max_length",
        "histogram",
        "limit",
        "fault_model",
    ):
        if key in payload and key in names:
            values[key] = payload[key]
    if "patterns" in payload and "patterns" in names:
        patterns = payload["patterns"]
        if patterns and isinstance(patterns[0]["v1"], str):
            # repro/pattern v2 strings: straight into lane planes, no
            # TestPattern per pattern (the schema made every vector a
            # string, so the first one tells the form)
            values["patterns"] = PackedPatterns.from_text(
                [p["v1"] for p in patterns], [p["v2"] for p in patterns]
            )
        else:
            values["patterns"] = [
                serde.pattern_from_payload(p, envelope=False) for p in patterns
            ]
    if "faults" in payload and "faults" in names:
        values["faults"] = [
            serde.fault_from_payload(f, envelope=False) for f in payload["faults"]
        ]
    return cls(**values)


# ---------------------------------------------------------------------------
# the dispatcher
# ---------------------------------------------------------------------------


class AtpgService:
    """Transport-free multi-tenant dispatcher: sessions and jobs.

    Args:
        max_sessions: circuits kept lowered at once; the least
            recently used session is evicted beyond that.  Shorthand
            for ``config.max_sessions`` when *config* is omitted.
        config: full host configuration (:class:`ServiceOptions`) —
            job-queue workers and bound, jobs directory, tenant quota.
    """

    def __init__(
        self,
        max_sessions: int = 8,
        *,
        config: Optional[ServiceOptions] = None,
    ):
        if config is None:
            config = ServiceOptions(max_sessions=max_sessions)
        config.validate()
        self.config = config
        self.max_sessions = config.max_sessions
        self._sessions: "OrderedDict[str, AtpgSession]" = OrderedDict()
        # transport key (spec+scale / bench-text hash) -> structural
        # fingerprint, so repeat requests skip circuit re-construction,
        # not just re-lowering
        self._by_transport: "OrderedDict[Tuple, str]" = OrderedDict()
        # requests run on arbitrary threads (HTTP workers, job workers);
        # every cache/counter access goes through this lock
        self._lock = threading.Lock()
        # single-flight lowering: one gate per in-flight fingerprint so
        # concurrent first requests for the same circuit lower once,
        # while different circuits lower concurrently
        self._lowering: Dict[str, threading.Lock] = {}
        self.requests_ok = 0
        self.requests_failed = 0
        self.sessions_opened = 0
        self.sessions_cached = 0
        # resilience counters absorbed from completed campaign reports
        # (shard supervision); the job-thread restarts live on the
        # JobManager
        self._shard_retries = 0
        self._quarantined_shards = 0
        self._jobs: Optional[JobManager] = None
        self._jobs_gate = threading.Lock()
        self._started = time.time()

    # ------------------------------------------------------------ counters
    def count_refused(self) -> None:
        """Count a request the HTTP transport refused before decoding it."""
        with self._lock:
            self.requests_failed += 1

    @property
    def requests_served(self) -> int:
        """Total requests (ok + failed) — the historical counter."""
        with self._lock:
            return self.requests_ok + self.requests_failed

    # ------------------------------------------------------------ sessions
    def session_for(self, circuit: Circuit) -> AtpgSession:
        """The cached session for this structure (lowering exactly once).

        Single-flight: the first caller for a fingerprint takes that
        fingerprint's gate and lowers; concurrent callers for the
        *same* circuit block on the gate and then hit the cache, while
        callers for other circuits proceed on their own gates.
        """
        from .resolve import circuit_fingerprint

        key = circuit_fingerprint(circuit)
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                self.sessions_cached += 1
                return session
            gate = self._lowering.setdefault(key, threading.Lock())
        with gate:
            with self._lock:
                session = self._sessions.get(key)
                if session is not None:  # a concurrent holder lowered it
                    self._sessions.move_to_end(key)
                    self.sessions_cached += 1
                    return session
            # lower outside the main lock (it can take a while on big
            # circuits) but inside this fingerprint's gate
            session = AtpgSession(circuit)
            with self._lock:
                self._sessions[key] = session
                self._sessions.move_to_end(key)
                self.sessions_opened += 1
                while len(self._sessions) > self.max_sessions:
                    self._sessions.popitem(last=False)
                self._lowering.pop(key, None)
                return session

    def _transport_key(self, request: _CircuitRequest):
        if request.bench is not None:
            return ("bench", hashlib.sha256(request.bench.encode()).hexdigest())
        if request.circuit is not None and request.circuit.endswith(".bench"):
            return None  # a file on disk can change; always re-read it
        return ("spec", request.circuit, request.scale)

    def _resolve_session(self, request: _CircuitRequest) -> AtpgSession:
        key = self._transport_key(request)
        if key is not None:
            with self._lock:
                fingerprint = self._by_transport.get(key)
                session = (
                    self._sessions.get(fingerprint)
                    if fingerprint is not None
                    else None
                )
                if session is not None:
                    self._sessions.move_to_end(fingerprint)
                    self.sessions_cached += 1
                    return session
        circuit = resolve_circuit_request(
            spec=request.circuit, bench=request.bench, scale=request.scale
        )
        session = self.session_for(circuit)
        if key is not None:
            with self._lock:
                self._by_transport[key] = session.circuit_hash
                while len(self._by_transport) > 4 * self.max_sessions:
                    self._by_transport.popitem(last=False)
        return session

    # ------------------------------------------------------------ dispatch
    def handle(self, request: Request, tenant: str = "anonymous") -> Response:
        """Dispatch one typed request; never raises for request errors.

        Client-caused failures (schema/resolution/validation) map to
        400, backpressure to 429 + Retry-After; anything else is a
        server fault and maps to 500 with the exception type only (no
        internal detail leaks to the wire).
        """
        try:
            session = self._resolve_session(request)
            payload = self._dispatch(session, request)
            with self._lock:
                self.requests_ok += 1
            return Response(ok=True, payload=payload)
        except QuotaExceeded as exc:
            with self._lock:
                self.requests_failed += 1
            return Response(
                ok=False,
                payload={"error": "QuotaExceeded", "detail": str(exc)},
                status=429,
                retry_after=exc.retry_after,
            )
        except (SchemaError, ResolutionError, ValueError) as exc:
            with self._lock:
                self.requests_failed += 1
            return Response(
                ok=False,
                payload={"error": type(exc).__name__, "detail": str(exc)},
                status=400,
            )
        except Exception as exc:  # noqa: BLE001 - the transport boundary
            with self._lock:
                self.requests_failed += 1
            return Response(
                ok=False,
                payload={
                    "error": "InternalError",
                    "detail": type(exc).__name__,
                },
                status=500,
            )

    def _absorb_campaign_stats(self, report) -> None:
        """Fold a completed campaign's supervision counters into metrics."""
        stats = report.stats
        with self._lock:
            self._shard_retries += stats.shard_retries
            self._quarantined_shards += stats.quarantined_shards

    def _dispatch(self, session: AtpgSession, request: Request) -> Dict:
        test_class = resolve_test_class(request.test_class)
        if isinstance(request, GenerateRequest):
            report = session.generate(
                test_class=test_class,
                options=_scrub_options(request.options),
                max_faults=request.max_faults,
                strategy=request.strategy,
            )
            if not request.include_patterns:
                report = _strip_patterns(report)
            return serde.tpg_report_to_payload(report)
        if isinstance(request, CampaignRequest):
            from ..campaign.universe import FaultUniverse  # lazy: cycle

            universe = FaultUniverse.from_circuit(
                session.circuit,
                max_faults=request.max_faults,
                min_length=request.min_length,
                max_length=request.max_length,
            )
            report = session.campaign(
                universe=universe,
                test_class=test_class,
                options=_scrub_options(request.options),
            )
            self._absorb_campaign_stats(report)
            return serde.campaign_report_to_payload(report)
        if isinstance(request, SimulateRequest):
            masks = session.simulate(
                request.patterns, request.faults, test_class=test_class
            )
            return stamp(
                "repro/simulate-report",
                {
                    "circuit": session.circuit.name,
                    "test_class": test_class.value,
                    "patterns": len(request.patterns),
                    "faults": len(request.faults),
                    "masks": [hex(mask) for mask in masks],
                },
            )
        if isinstance(request, GradeRequest):
            return stamp(
                "repro/grade-report",
                session.grade(
                    request.patterns, request.faults, test_class=test_class
                ),
            )
        if isinstance(request, PathsRequest):
            return stamp(
                "repro/paths-report",
                session.paths(histogram=request.histogram, limit=request.limit),
            )
        if isinstance(request, BistRequest):
            report = session.bist(
                fault_model=request.fault_model,
                test_class=test_class,
                options=_scrub_options(request.options),
                max_faults=request.max_faults,
            )
            return serde.bist_report_to_payload(report)
        raise TypeError(f"unhandled request type {type(request).__name__}")

    # ------------------------------------------------------------ jobs
    @property
    def jobs(self) -> JobManager:
        """The async job queue (created on first use)."""
        with self._jobs_gate:
            if self._jobs is None:
                self._jobs = JobManager(
                    self._run_job,
                    workers=self.config.workers,
                    max_queue=self.config.max_queue,
                    jobs_dir=self.config.jobs_dir,
                    max_jobs_per_tenant=self.config.max_jobs_per_tenant,
                )
            return self._jobs

    def _run_job(self, job: Job, control) -> Optional[Dict]:
        """Execute one queued async job (called on a worker thread).

        Campaigns: the job's checkpoint path is a host decision (under
        the jobs directory), never a request parameter;
        ``resume=True`` makes re-runs after a cancel/restart continue
        from the flushed checkpoint instead of starting over.  BIST
        runs have no checkpoint — an interrupted run restarts from the
        LFSR seed on recovery (deterministic, so the re-run is
        bit-identical).  Returns ``None`` when the work was parked by
        a graceful shutdown.
        """
        request = request_from_payload(job.verb, job.payload)
        if isinstance(request, CampaignRequest):
            session = self._resolve_session(request)
            from ..campaign.universe import FaultUniverse  # lazy: cycle

            universe = FaultUniverse.from_circuit(
                session.circuit,
                max_faults=request.max_faults,
                min_length=request.min_length,
                max_length=request.max_length,
            )
            options = Options.adopt(_scrub_options(request.options))
            if job.checkpoint is not None:
                options = options.merged(
                    checkpoint=job.checkpoint, checkpoint_every=1, resume=True
                )
            report = session.campaign(
                universe=universe,
                test_class=resolve_test_class(request.test_class),
                options=options,
                control=control,
            )
            if not report.complete and control.should_stop():
                return None  # parked (shutdown) or stopping (cancel)
            self._absorb_campaign_stats(report)
            return serde.campaign_report_to_payload(report)
        if isinstance(request, BistRequest):
            session = self._resolve_session(request)
            report = session.bist(
                fault_model=request.fault_model,
                test_class=resolve_test_class(request.test_class),
                options=_scrub_options(request.options),
                max_faults=request.max_faults,
                control=control,
            )
            if report.stop_reason == "stopped" and control.should_stop():
                return None  # parked (shutdown) or stopping (cancel)
            return serde.bist_report_to_payload(report)
        raise TypeError(f"job verb {job.verb!r} is not executable")

    def submit_job(
        self, verb: str, payload: Dict, tenant: str = "anonymous"
    ) -> Response:
        """Validate and enqueue an async job; 202 + job record."""
        if verb not in ASYNC_VERBS:
            with self._lock:
                self.requests_failed += 1
            return Response(
                ok=False,
                payload={
                    "error": "BadRequest",
                    "detail": f"verb {verb!r} is not async (known: {ASYNC_VERBS})",
                },
                status=400,
            )
        try:
            request_from_payload(verb, payload)  # fail fast, pre-queue
        except (SchemaError, ResolutionError, ValueError) as exc:
            with self._lock:
                self.requests_failed += 1
            return Response(
                ok=False,
                payload={"error": type(exc).__name__, "detail": str(exc)},
                status=400,
            )
        try:
            job = self.jobs.submit(verb, payload, tenant=tenant)
        except QuotaExceeded as exc:
            with self._lock:
                self.requests_failed += 1
            return Response(
                ok=False,
                payload={"error": "QuotaExceeded", "detail": str(exc)},
                status=429,
                retry_after=exc.retry_after,
            )
        with self._lock:
            self.requests_ok += 1
        return Response(ok=True, payload=job.snapshot(), status=202)

    def submit_campaign(
        self, payload: Dict, tenant: str = "anonymous"
    ) -> Response:
        """Validate and enqueue an async campaign; 202 + job record."""
        return self.submit_job("campaign", payload, tenant=tenant)

    def job_response(self, job_id: str) -> Response:
        job = self.jobs.get(job_id)
        if job is None:
            return Response(
                ok=False,
                payload={"error": "NotFound", "detail": f"no job {job_id!r}"},
                status=404,
            )
        return Response(ok=True, payload=job.snapshot())

    def cancel_job(self, job_id: str) -> Response:
        job = self.jobs.cancel(job_id)
        if job is None:
            return Response(
                ok=False,
                payload={"error": "NotFound", "detail": f"no job {job_id!r}"},
                status=404,
            )
        return Response(ok=True, payload=job.snapshot())

    def job_list_response(self) -> Response:
        jobs = [job.body() for job in self.jobs.list()]
        return Response(
            ok=True, payload=stamp("repro/job-list", {"jobs": jobs})
        )

    # ------------------------------------------------------------ wire API
    def handle_json(
        self, verb: str, payload: Dict, tenant: str = "anonymous"
    ) -> Response:
        """Decode, dispatch, and envelope one wire-format request."""
        try:
            request = request_from_payload(verb, payload)
        except (SchemaError, ResolutionError, ValueError) as exc:
            with self._lock:
                self.requests_failed += 1
            return Response(
                ok=False,
                payload={"error": type(exc).__name__, "detail": str(exc)},
                status=400,
            )
        return self.handle(request, tenant=tenant)

    # ------------------------------------------------------------ observe
    def health(self) -> Dict:
        from .. import __version__

        with self._lock:
            sessions = [
                {"circuit": s.circuit.name, "hash": key[:12]}
                for key, s in self._sessions.items()
            ]
            ok, failed = self.requests_ok, self.requests_failed
            opened = self.sessions_opened
        return {
            "status": "ok",
            "version": __version__,
            "requests_served": ok + failed,
            "requests_ok": ok,
            "requests_failed": failed,
            "sessions_opened": opened,
            "queue_depth": self.queue_depth(),
            "sessions": sessions,
        }

    def queue_depth(self) -> int:
        with self._jobs_gate:
            manager = self._jobs
        return 0 if manager is None else manager.queue_depth()

    def metrics(self) -> Dict:
        """The enveloped ``repro/metrics`` observability payload."""
        with self._lock:
            body: Dict = {
                "requests_ok": self.requests_ok,
                "requests_failed": self.requests_failed,
                "sessions_opened": self.sessions_opened,
                "sessions_cached": self.sessions_cached,
            }
            shard_retries = self._shard_retries
            quarantined = self._quarantined_shards
            degraded = sum(
                1 for sess in self._sessions.values() if sess.degraded
            )
        with self._jobs_gate:
            manager = self._jobs
        if manager is None:
            body["queue_depth"] = 0
            body["jobs"] = {
                state: 0
                for state in (
                    "queued", "running", "done",
                    "failed", "cancelled", "interrupted",
                )
            }
            body["jobs_by_verb"] = {verb: 0 for verb in ASYNC_VERBS}
            body["worker_restarts"] = 0
        else:
            body["queue_depth"] = manager.queue_depth()
            body["jobs"] = manager.counts()
            by_verb = {verb: 0 for verb in ASYNC_VERBS}
            by_verb.update(manager.verb_counts())
            body["jobs_by_verb"] = by_verb
            body["worker_restarts"] = manager.worker_restarts
        body["shard_retries"] = shard_retries
        body["quarantined_shards"] = quarantined
        body["degraded_circuits"] = degraded
        body["uptime_seconds"] = time.time() - self._started
        return stamp("repro/metrics", body)

    # ------------------------------------------------------------ shutdown
    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain the job queue gracefully (see ``JobManager.shutdown``)."""
        with self._jobs_gate:
            manager = self._jobs
        if manager is not None:
            manager.shutdown(timeout=timeout)


def _scrub_options(options: Optional[Options]) -> Optional[Options]:
    """Drop server-side persistence from wire-supplied options.

    A request must never steer the server's filesystem: checkpoint
    paths (arbitrary file writes) and resume (arbitrary file reads)
    are host decisions, not request parameters.  Chaos specs are
    likewise host-only — a client must not be able to inject failures
    into the server's campaigns by asking nicely.
    """
    if options is None:
        return None
    return Options.adopt(options, checkpoint=None, resume=False, chaos=None)


def _strip_patterns(report):
    """Drop per-record patterns from a TpgReport (smaller responses)."""
    from dataclasses import replace

    report.records = [
        replace(record, pattern=None) if record.pattern is not None else record
        for record in report.records
    ]
    return report


# ---------------------------------------------------------------------------
# the HTTP transport
# ---------------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    service: AtpgService  # injected by make_server
    quiet: bool = True
    # HTTP/1.1 keep-alive: clients reuse one connection across
    # requests (every response carries Content-Length, so the stdlib
    # handler can hold the socket open); cuts per-request TCP setup
    protocol_version = "HTTP/1.1"
    # the handler writes status+headers and the JSON body as separate
    # send()s; with Nagle on, the body sits in the kernel waiting for
    # the client's delayed ACK — a ~40 ms stall on every keep-alive
    # response after the first
    disable_nagle_algorithm = True
    # the socket timeout of every read and write (StreamRequestHandler)
    timeout = REQUEST_TIMEOUT_S

    # ------------------------------------------------------------ plumbing
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # replaced by the structured access log in _access

    def send_error(self, code, message=None, explain=None):
        """Answer what the stdlib refuses before a verb runs as JSON.

        That is a request line it cannot parse (400), an unsupported
        method (501), an over-long line or headers (414/431) and an
        unsupported version (505).  Each is counted once in
        ``requests_failed`` and closes the connection.
        """
        started = time.monotonic()
        # a line too broken to name its version leaves HTTP/0.9's
        # status-less replies selected; answer in our own version
        self.request_version = self.protocol_version
        status = HTTPStatus(code)
        detail = message or status.phrase
        if explain:
            detail = f"{detail}: {explain}"
        error = "".join(ch for ch in status.phrase if ch.isalnum())
        self._refuse(code, error, detail, close=True)
        self._access(self.command or "-", started)

    def _tenant(self) -> str:
        headers = getattr(self, "headers", None)  # unset: no headers parsed
        if headers is None:
            return "anonymous"
        return headers.get("X-Tenant", "anonymous")

    def _send(
        self,
        status: int,
        payload: Dict,
        retry_after: Optional[float] = None,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header(
                "Retry-After", str(max(1, int(round(retry_after))))
            )
        if close:  # also ends this connection's request loop
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self._status = status

    def _refuse(
        self, status: int, error: str, detail: str, close: bool = False
    ) -> None:
        """Answer a request refused before its body was decoded (a failed one)."""
        self.service.count_refused()
        self._send(status, {"error": error, "detail": detail}, close=close)

    def _send_envelope(self, response: Response) -> None:
        self._send(
            response.status, response.envelope(), retry_after=response.retry_after
        )

    def _access(self, method: str, started: float) -> None:
        """One structured JSON access-log line per request (stderr)."""
        if self.quiet:  # pragma: no cover - log formatting
            return
        record = {
            "ts": round(time.time(), 3),
            "method": method,
            # the command and path are parsed together, or neither is
            "path": self.path if self.command else None,
            "status": getattr(self, "_status", 0),
            "tenant": self._tenant(),
            "duration_ms": round((time.monotonic() - started) * 1000.0, 3),
        }
        print(json.dumps(record), file=sys.stderr, flush=True)

    def _route(self) -> List[str]:
        """Path segments under the version prefix ([] = no match)."""
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if not parts or parts[0] != __version_tag__:
            return []
        return parts[1:]

    # ------------------------------------------------------------ verbs
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        started = time.monotonic()
        parts = self._route()
        if parts in (["health"], ["healthz"]):
            self._send(200, self.service.health())
        elif parts == ["metrics"]:
            self._send(200, self.service.metrics())
        elif parts == ["schemas"]:
            self._send(200, {"schemas": list(iter_schema_summary())})
        elif parts == ["jobs"]:
            self._send_envelope(self.service.job_list_response())
        elif len(parts) == 2 and parts[0] == "jobs":
            self._send_envelope(self.service.job_response(parts[1]))
        else:
            self._send(404, {"error": "NotFound", "detail": self.path})
        self._access("GET", started)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        started = time.monotonic()
        parts = self._route()
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            self._send_envelope(self.service.cancel_job(parts[1]))
            self._access("POST", started)
            return
        if len(parts) != 1:
            self._send(404, {"error": "NotFound", "detail": self.path})
            self._access("POST", started)
            return
        verb = parts[0]
        if "Transfer-Encoding" in self.headers:
            # only Content-Length bodies are read; close, as for 413:
            # the unread (e.g. chunked) body would parse as the next
            # request on this connection
            self._refuse(
                411,
                "LengthRequired",
                "send the body with a Content-Length, not Transfer-Encoding "
                f"{self.headers['Transfer-Encoding']!r}",
                close=True,
            )
            self._access("POST", started)
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                # rfile.read(-1) would block until the client closes
                raise ValueError(f"negative Content-Length {length}")
            if length > MAX_BODY_BYTES:
                # close: the unread body would parse as the next request
                self._refuse(
                    413,
                    "PayloadTooLarge",
                    f"Content-Length {length} exceeds {MAX_BODY_BYTES} bytes",
                    close=True,
                )
                self._access("POST", started)
                return
            payload = json.loads(self.rfile.read(length) or b"{}")
        except TimeoutError:
            # close: the rest of the body may still arrive
            self._refuse(
                408,
                "RequestTimeout",
                f"the {length}-byte body did not arrive within {self.timeout} s",
                close=True,
            )
            self._access("POST", started)
            return
        except (ValueError, json.JSONDecodeError) as exc:
            self._refuse(400, "BadRequest", str(exc))
            self._access("POST", started)
            return
        if verb in ASYNC_VERBS:
            # campaigns and BIST runs are long-running: async job
            # submission (202 + job id; poll GET /v1/jobs/<id>)
            response = self.service.submit_job(
                verb, payload, tenant=self._tenant()
            )
        else:
            response = self.service.handle_json(
                verb, payload, tenant=self._tenant()
            )
        self._send_envelope(response)
        self._access("POST", started)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # dozens of clients may connect in the same instant; the stdlib
    # default listen backlog of 5 drops the rest into 1-second SYN
    # retransmits
    request_queue_size = 128


def make_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    service: Optional[AtpgService] = None,
    quiet: bool = True,
    config: Optional[ServiceOptions] = None,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server; ``port=0`` auto-picks."""
    service = service or AtpgService(config=config)
    handler = type("BoundHandler", (_Handler,), {"service": service, "quiet": quiet})
    server = _Server((host, port), handler)
    server.service = service  # type: ignore[attr-defined] - convenience
    return server


def run_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    service: Optional[AtpgService] = None,
    quiet: bool = False,
    config: Optional[ServiceOptions] = None,
) -> None:  # pragma: no cover - blocking loop; exercised via make_server
    """Serve forever (the ``tip serve`` entry point).

    Before announcing its address it loads the native module (building
    it on a cold cache); right after the ``listening on`` line it prints
    the seconds that took and the resolved kernel tier (``native/c``,
    or ``int/codegen`` without the module).
    SIGTERM and SIGINT trigger a graceful drain: the HTTP loop stops
    accepting, running campaign jobs flush their checkpoints and park
    as ``interrupted``, queued jobs persist — a restart over the same
    ``--jobs-dir`` resumes them.
    """
    from ..kernel import backend_for, native_unavailable_reason

    server = make_server(host, port, service, quiet=quiet, config=config)
    service = server.service  # type: ignore[attr-defined]
    bound_host, bound_port = server.server_address[:2]
    # load (or, on a cold cache, build) the native module now, so the
    # first request never pays for it
    started = time.perf_counter()
    tier = backend_for(1).tier
    seconds = time.perf_counter() - started
    reason = native_unavailable_reason()
    print(f"tip serve: listening on http://{bound_host}:{bound_port}/v1/")
    print(
        f"tip serve: kernel {tier}, ready in {seconds:.3f} s"
        + (f" ({reason})" if reason else "")
    )
    print(
        "endpoints: GET /v1/health|healthz|metrics|schemas|jobs|jobs/<id>, "
        "POST /v1/" + "|".join(sorted(_REQUEST_TYPES))
        + " (campaign/bist are async: poll /v1/jobs/<id>), "
        "POST /v1/jobs/<id>/cancel"
    )

    def _drain(signum, _frame):  # pragma: no cover - signal path
        print(f"\ntip serve: {signal.Signals(signum).name} received, draining")
        # serve_forever blocks this (main) thread; shutdown() must be
        # called from another thread or it deadlocks
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _drain)
        except ValueError:  # pragma: no cover - non-main thread
            pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - belt and braces
        pass
    finally:
        service.shutdown()  # park running jobs resumably, persist queue
        server.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        print("tip serve: stopped")
