"""repro.api — the front door: session, options, schemas, service.

One typed surface for every workload the reproduction supports:

* :class:`AtpgSession` — owns one frozen circuit + compiled kernel;
  ``generate`` / ``campaign`` / ``simulate`` / ``grade`` / ``bist`` /
  ``paths`` all execute behind it,
* :class:`Options` — the unified layered options model (generation →
  schedule → execution → persistence → bist) that subsumes the
  deprecated ``TpgOptions`` and ``CampaignOptions``,
* :mod:`repro.api.schemas` / :mod:`repro.api.serde` — versioned JSON
  wire format (``schema`` / ``schema_version`` envelope) with
  round-trip codecs for circuits, faults, patterns, and reports,
* :class:`AtpgService` + :func:`run_server` — the request/response
  dispatcher and its stdlib HTTP endpoint (``tip serve``), with an
  LRU session cache keyed by circuit hash.
"""

from . import schemas, serde
from .jobs import Job, JobManager, QuotaExceeded
from .options import (
    DEFAULT_SHARDS,
    BistOptions,
    ExecutionOptions,
    GenerationOptions,
    Options,
    PersistenceOptions,
    ScheduleOptions,
    ServiceOptions,
)
from .resolve import (
    ResolutionError,
    circuit_fingerprint,
    resolve_circuit,
    resolve_circuit_request,
    resolve_test_class,
)
from .schemas import SchemaError, validate_file
from .session import AtpgSession
from .service import (
    AtpgService,
    BistRequest,
    CampaignRequest,
    GenerateRequest,
    GradeRequest,
    PathsRequest,
    Response,
    SimulateRequest,
    make_server,
    run_server,
)

__all__ = [
    "AtpgService",
    "AtpgSession",
    "BistOptions",
    "BistRequest",
    "CampaignRequest",
    "DEFAULT_SHARDS",
    "ExecutionOptions",
    "GenerateRequest",
    "GenerationOptions",
    "GradeRequest",
    "Job",
    "JobManager",
    "Options",
    "PathsRequest",
    "PersistenceOptions",
    "QuotaExceeded",
    "ResolutionError",
    "Response",
    "ScheduleOptions",
    "SchemaError",
    "ServiceOptions",
    "SimulateRequest",
    "circuit_fingerprint",
    "make_server",
    "resolve_circuit",
    "resolve_circuit_request",
    "resolve_test_class",
    "run_server",
    "schemas",
    "serde",
    "validate_file",
]
