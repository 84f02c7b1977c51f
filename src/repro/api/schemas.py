"""Versioned JSON schemas — the one wire format for every artifact.

Every JSON artifact the project reads or writes — serialized faults,
patterns, circuits, reports, campaign checkpoints, service requests
and responses — carries the same envelope::

    {"schema": "repro/<kind>", "schema_version": <int>, ...payload}

Durable artifacts written through :mod:`repro.api.integrity` carry a
third envelope key, ``sha256`` (the body's integrity digest); the
validator tolerates it on any kind, exactly like the schema keys.

This module is the registry of those kinds: a declarative structural
spec per ``(kind, version)`` plus a validator (no third-party
dependency).  :func:`validate` rejects unknown kinds, unknown
versions, and shape drift, so changing a payload without bumping its
version fails the tests that round-trip it.

The validator compiles each spec, on its first use, into a tree of
checker closures, memoized by spec object so that a sub-spec several
kinds share (``FAULT``, ``PATTERN_V2``, the option layers) compiles
once.  A payload that passes costs one closure call per value, with
no spec lookups and no path strings; a failure is worded on its way
out, with the path of the first failing value in spec order (required
keys, then optional keys, then unexpected keys).  It is the one
validator: the service's request decode, the :mod:`repro.api.serde`
loaders, ``tip validate`` and job-record recovery all call it.

Spec mini-language (a nested dict per value):

* ``{"type": "object", "required": {...}, "optional": {...}, "open": bool}``
  — mapping with per-key specs; extra keys are rejected unless
  ``open`` is true.
* ``{"type": "array", "items": spec}`` — homogeneous list.
* ``{"type": "string"|"int"|"number"|"bool"|"null"|"any"}`` — scalars
  (``number`` accepts ints, ``any`` accepts everything).
* ``{"enum": [...]}`` / ``{"const": value}`` — literal constraints.
* ``{"anyOf": [spec, ...]}`` — union.

Pattern vectors have two registered forms.  ``repro/pattern`` v1
carries ``v1``/``v2`` as JSON int lists; v2 carries each as one
``"0101…"`` string, character ``k`` for primary input ``k`` — a
fraction of the bytes to parse and one string per vector to check.
Every kind that embeds patterns moved to the string form with one
version bump (``request.grade``/``request.simulate`` v2,
``tpg-report`` v3, ``campaign-report`` v5); the older versions stay
registered, and :mod:`repro.api.serde` and the service read both.
The structural spec only says "string": the decoders check the
characters.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class SchemaError(ValueError):
    """Raised for unknown kinds/versions and payload shape mismatches."""


# ---------------------------------------------------------------------------
# spec shorthands
# ---------------------------------------------------------------------------

STR = {"type": "string"}
INT = {"type": "int"}
NUM = {"type": "number"}
BOOL = {"type": "bool"}
NULL = {"type": "null"}
ANY = {"type": "any"}


def arr(items) -> Dict:
    return {"type": "array", "items": items}


def obj(required=None, optional=None, open_=False) -> Dict:
    return {
        "type": "object",
        "required": required or {},
        "optional": optional or {},
        "open": open_,
    }


def opt(spec) -> Dict:
    return {"anyOf": [spec, NULL]}


TEST_CLASS = {"enum": ["robust", "nonrobust"]}
STATUS = {"enum": ["tested", "redundant", "deferred", "aborted", "simulated"]}
#: v2 adds ``skipped_error`` — a fault whose shard the campaign
#: supervisor quarantined after repeated failures.
STATUS_V2 = {
    "enum": [
        "tested",
        "redundant",
        "deferred",
        "aborted",
        "simulated",
        "skipped_error",
    ]
}

#: Compact fault body: ``[[signal ids...], "R"|"F"]`` — shared with
#: campaign checkpoints, where one row per fault matters at scale.
FAULT_BODY = arr(ANY)
FAULT = obj({"signals": arr(INT), "transition": {"enum": ["R", "F"]}})
PATTERN = obj(
    {"v1": arr(INT), "v2": arr(INT)},
    optional={"fault": opt(FAULT)},
)
#: v2: each vector is one ``"0101…"`` string, character ``k`` for
#: primary input ``k``.  The decoders check the characters
#: (:meth:`repro.kernel.PackedPatterns.from_text` for a request batch).
PATTERN_V2 = obj({"v1": STR, "v2": STR}, optional={"fault": opt(FAULT)})
# Layers and fields are all optional on the wire: a client may send
# just the knobs it overrides ({"generation": {"width": 32}}) and the
# decoder fills the rest with defaults.


#: The execution layer of options v1–v3: the process-pool size.
_WORKERS = {"workers": INT}
#: Shard supervision and the test-only chaos schedule (options v4 on).
_SUPERVISION = {"shard_attempts": INT, "retry_base_ms": NUM, "chaos": opt(STR)}


def _options_spec(
    generation_extra: Optional[Dict] = None,
    bist: bool = False,
    execution: Dict = _WORKERS,
) -> Dict:
    generation = {
        "width": INT,
        "backtrack_limit": INT,
        "drop_faults": BOOL,
        "use_fptpg": BOOL,
        "use_aptpg": BOOL,
        "unique_backward": BOOL,
        "sim_backend": {"enum": ["auto", "int", "numpy", "native"]},
    }
    generation.update(generation_extra or {})
    layers = {
        "generation": obj(optional=generation),
        "schedule": obj(optional={"shards": INT, "window": opt(INT)}),
        "execution": obj(optional=execution),
        "persistence": obj(
            optional={
                "checkpoint": opt(STR),
                "checkpoint_every": INT,
                "resume": BOOL,
                "compact_every": opt(INT),
                "keep_records": BOOL,
            }
        ),
    }
    if bist:
        layers["bist"] = obj(
            optional={
                "bist_width": INT,
                "bist_kind": LFSR_KIND,
                "bist_polynomial": opt(INT),
                "bist_seed": INT,
                "bist_phase_spread": INT,
                "misr_width": INT,
                "bist_window": INT,
                "bist_max_patterns": INT,
                "bist_target_coverage": opt(NUM),
            }
        )
    return obj(optional=layers)


#: ``vector`` and ``codegen`` are retired, still accepted on the wire
#: and read as ``"auto"`` (``api.options.RETIRED_FUSION``).
FUSION = {"enum": ["auto", "interp", "vector", "codegen"]}
LFSR_KIND = {"enum": ["fibonacci", "galois"]}
FAULT_MODEL = {"enum": ["stuck_at", "path_delay"]}

#: v1 options wire shape (pre-fusion), kept for old payloads.
OPTIONS_V1 = _options_spec()
#: v2 adds the generation-layer ``fusion`` strategy.
OPTIONS_V2 = _options_spec({"fusion": FUSION})
#: v3 adds the ``bist`` layer (the pseudorandom-BIST workload knobs
#: of ``AtpgSession.bist``).
OPTIONS_V3 = _options_spec({"fusion": FUSION}, bist=True)
#: v4 adds the execution-layer supervision knobs (shard deadline /
#: retry / quarantine) and the test-only ``chaos`` schedule.
OPTIONS_V4 = _options_spec(
    {"fusion": FUSION},
    bist=True,
    execution={**_WORKERS, "shard_deadline_s": opt(NUM), **_SUPERVISION},
)
#: Current options wire shape: v5 drops the process pool's size and
#: per-shard deadline; every campaign runs in-process.
OPTIONS = _options_spec({"fusion": FUSION}, bist=True, execution=_SUPERVISION)


def _fault_record(status: Dict, pattern: Dict) -> Dict:
    return obj(
        {
            "status": status,
            "mode": STR,
            "fault": opt(FAULT),
            "pattern": opt(pattern),
        }
    )


FAULT_RECORD = _fault_record(STATUS, PATTERN)
#: v2: the status enum admits ``skipped_error``.
FAULT_RECORD_V2 = _fault_record(STATUS_V2, PATTERN)
#: v3: the pattern travels in its v2 string form.
FAULT_RECORD_V3 = _fault_record(STATUS_V2, PATTERN_V2)
_STATS = {
    "rounds": INT,
    "fptpg_rounds": INT,
    "aptpg_rounds": INT,
    "peak_pending": INT,
    "streamed": INT,
    "admitted_dropped": INT,
    "compactions": INT,
    "patterns_compacted_away": INT,
    "decisions": INT,
    "backtracks": INT,
    "implication_passes": INT,
    "seconds_sensitize": NUM,
    "seconds_simulate": NUM,
    "seconds_wall": NUM,
}
_SUPERVISION_STATS = {"shard_retries": INT, "quarantined_shards": INT}
CAMPAIGN_STATS = obj(_STATS)
#: v2 adds the supervision counters.
CAMPAIGN_STATS_V2 = obj(
    {**_STATS, "worker_restarts": INT, **_SUPERVISION_STATS}
)
#: v3 drops ``worker_restarts``: with no process pool it only read 0.
CAMPAIGN_STATS_V3 = obj({**_STATS, **_SUPERVISION_STATS})

_CIRCUIT_GATE = obj({"name": STR, "type": STR, "fanin": arr(STR)})

_REQUEST_CIRCUIT = {
    "circuit": opt(STR),
    "bench": opt(STR),
    "scale": INT,
    "test_class": TEST_CLASS,
}

#: Async job lifecycle (the ``POST /v1/campaign`` submit/poll flow).
#: ``queued -> running -> done|failed|cancelled``; ``interrupted`` is
#: a graceful-shutdown snapshot that resumes from its checkpoint when
#: the service restarts over the same jobs directory.
JOB_STATE = {
    "enum": ["queued", "running", "done", "failed", "cancelled", "interrupted"]
}

_JOB = obj(
    {
        "id": STR,
        "verb": STR,
        "state": JOB_STATE,
        "tenant": STR,
        "submitted_at": NUM,
    },
    optional={
        "started_at": opt(NUM),
        "finished_at": opt(NUM),
        "progress": obj(open_=True),
        "result": obj(open_=True),
        "error": obj({"error": STR}, optional={"detail": STR}),
        "checkpoint": opt(STR),
    },
)

# v2: the job verb becomes a closed enum now that two async verbs
# exist — campaigns and BIST runs share one queue.
_JOB_V2 = obj(
    {
        "id": STR,
        "verb": {"enum": ["campaign", "bist"]},
        "state": JOB_STATE,
        "tenant": STR,
        "submitted_at": NUM,
    },
    optional={
        "started_at": opt(NUM),
        "finished_at": opt(NUM),
        "progress": obj(open_=True),
        "result": obj(open_=True),
        "error": obj({"error": STR}, optional={"detail": STR}),
        "checkpoint": opt(STR),
    },
)

_METRICS = obj(
    {
        "requests_ok": INT,
        "requests_failed": INT,
        "requests_coalesced": INT,
        "sessions_opened": INT,
        "sessions_cached": INT,
        "queue_depth": INT,
        "jobs": obj(
            {
                "queued": INT,
                "running": INT,
                "done": INT,
                "failed": INT,
                "cancelled": INT,
                "interrupted": INT,
            }
        ),
        "coalescer": obj(
            {"batches": INT, "requests": INT, "merged_requests": INT}
        ),
        "uptime_seconds": NUM,
    }
)

# v2: per-verb job counters alongside the per-state ones, so dashboards
# can tell queued campaigns from queued BIST runs.
_METRICS_V2 = obj(
    {
        "requests_ok": INT,
        "requests_failed": INT,
        "requests_coalesced": INT,
        "sessions_opened": INT,
        "sessions_cached": INT,
        "queue_depth": INT,
        "jobs": obj(
            {
                "queued": INT,
                "running": INT,
                "done": INT,
                "failed": INT,
                "cancelled": INT,
                "interrupted": INT,
            }
        ),
        "jobs_by_verb": obj({"campaign": INT, "bist": INT}),
        "coalescer": obj(
            {"batches": INT, "requests": INT, "merged_requests": INT}
        ),
        "uptime_seconds": NUM,
    }
)

# v3: the resilience counters — restarted workers (pool processes and
# job threads), supervised shard retries, quarantined shards, and
# sessions currently running at a degraded simulator tier (the
# circuit-breaker's native→numpy→interp demotion chain).
_METRICS_V3 = obj(
    {
        "requests_ok": INT,
        "requests_failed": INT,
        "requests_coalesced": INT,
        "sessions_opened": INT,
        "sessions_cached": INT,
        "queue_depth": INT,
        "jobs": obj(
            {
                "queued": INT,
                "running": INT,
                "done": INT,
                "failed": INT,
                "cancelled": INT,
                "interrupted": INT,
            }
        ),
        "jobs_by_verb": obj({"campaign": INT, "bist": INT}),
        "coalescer": obj(
            {"batches": INT, "requests": INT, "merged_requests": INT}
        ),
        "worker_restarts": INT,
        "shard_retries": INT,
        "quarantined_shards": INT,
        "degraded_circuits": INT,
        "uptime_seconds": NUM,
    }
)

# v4: the request-merge counters are gone with the merger itself;
# simulate and grade requests run one session call each.
# ``worker_restarts`` counts job-thread restarts (there is no process
# pool whose restarts it could also count).
_METRICS_V4 = obj(
    {
        "requests_ok": INT,
        "requests_failed": INT,
        "sessions_opened": INT,
        "sessions_cached": INT,
        "queue_depth": INT,
        "jobs": obj(
            {
                "queued": INT,
                "running": INT,
                "done": INT,
                "failed": INT,
                "cancelled": INT,
                "interrupted": INT,
            }
        ),
        "jobs_by_verb": obj({"campaign": INT, "bist": INT}),
        "worker_restarts": INT,
        "shard_retries": INT,
        "quarantined_shards": INT,
        "degraded_circuits": INT,
        "uptime_seconds": NUM,
    }
)

#: BIST report wire shape: full generator/compactor configuration
#: (register hex values as strings — 64-bit polynomials exceed what
#: some JSON consumers keep exact), the coverage curve, and the
#: signature with its aliasing estimate.
_BIST_REPORT = obj(
    {
        "circuit": STR,
        "fault_model": FAULT_MODEL,
        "test_class": opt(TEST_CLASS),
        "lfsr": obj(
            {
                "width": INT,
                "kind": LFSR_KIND,
                "polynomial": STR,
                "seed": STR,
                "phase_spread": INT,
            }
        ),
        "misr": obj(
            {
                "width": INT,
                "polynomial": STR,
                "signature": STR,
                "aliasing_probability": NUM,
            }
        ),
        "faults": INT,
        "detected": INT,
        "coverage": NUM,
        "patterns_applied": INT,
        "windows": INT,
        "stop_reason": {
            "enum": ["target_coverage", "all_detected", "max_patterns", "stopped"]
        },
        "max_patterns": INT,
        "target_coverage": opt(NUM),
        "curve": arr(arr(INT)),  # [patterns, detected] pairs per window
    }
)

# ---------------------------------------------------------------------------
# the registry: kind -> version -> body spec
# ---------------------------------------------------------------------------

def _tpg_report_spec(record: Dict) -> Dict:
    return obj(
        {
            "circuit": STR,
            "test_class": TEST_CLASS,
            "width": INT,
            "records": arr(record),
            "seconds_sensitize": NUM,
            "seconds_generate": NUM,
            "seconds_simulate": NUM,
            "decisions": INT,
            "backtracks": INT,
            "implication_passes": INT,
        }
    )


def _campaign_report_spec(
    options_spec: Dict,
    stats_spec: Dict = CAMPAIGN_STATS,
    errors: bool = False,
    pattern: Dict = PATTERN,
) -> Dict:
    optional = {}
    if errors:
        # [index, envelope] pairs for skipped_error faults; emitted
        # only when some fault has one: its shard was quarantined, or
        # its path names a signal outside the circuit (refused at
        # admission, "attempts": 0)
        optional["errors"] = arr(arr(ANY))
    return obj(
        {
            "circuit": STR,
            "test_class": TEST_CLASS,
            "options": options_spec,
            "statuses": arr(arr(ANY)),  # [index, status] pairs
            "modes": arr(arr(ANY)),  # [index, mode] pairs
            "records": opt(arr(arr(ANY))),  # [index, record] pairs
            "patterns": arr(pattern),
            "stats": stats_spec,
            "complete": BOOL,
        },
        optional=optional,
    )


def _checkpoint_spec(version: int, stats: Dict, errors: bool = True) -> Dict:
    required = {
        "version": {"const": version},
        "circuit": STR,
        "test_class": TEST_CLASS,
        "width": INT,
        "shards": INT,
        "schedule": obj(open_=True),
        "stream_position": INT,
        "exhausted": BOOL,
        "complete": BOOL,
        "settled": arr(arr(ANY)),
        "pending": arr(arr(ANY)),
        "queue": arr(INT),
        "patterns": arr(arr(ANY)),
        "obligations": arr(FAULT_BODY),
        "stats": stats,
    }
    if errors:
        required["errors"] = arr(arr(ANY))  # [index, envelope] pairs
    return obj(required)


def _generate_request_spec(options: Dict) -> Dict:
    return obj(
        optional={
            **_REQUEST_CIRCUIT,
            "options": options,
            "max_faults": opt(INT),
            "strategy": {"enum": ["all", "longest", "sample"]},
            "include_patterns": BOOL,
        }
    )


def _campaign_request_spec(options: Dict) -> Dict:
    return obj(
        optional={
            **_REQUEST_CIRCUIT,
            "options": options,
            "max_faults": opt(INT),
            "min_length": opt(INT),
            "max_length": opt(INT),
        }
    )


def _bist_request_spec(options: Dict) -> Dict:
    return obj(
        optional={
            **_REQUEST_CIRCUIT,
            "options": options,
            "fault_model": FAULT_MODEL,
            "max_faults": opt(INT),
        }
    )


SCHEMAS: Dict[str, Dict[int, Dict]] = {
    "repro/fault": {1: FAULT},
    "repro/pattern": {1: PATTERN, 2: PATTERN_V2},
    "repro/options": {
        1: OPTIONS_V1, 2: OPTIONS_V2, 3: OPTIONS_V3, 4: OPTIONS_V4, 5: OPTIONS
    },
    "repro/circuit": {
        1: obj(
            {
                "name": STR,
                "inputs": arr(STR),
                "gates": arr(_CIRCUIT_GATE),
                "outputs": arr(STR),
            }
        )
    },
    "repro/tpg-report": {
        1: _tpg_report_spec(FAULT_RECORD),
        # v2: records may carry the skipped_error status
        2: _tpg_report_spec(FAULT_RECORD_V2),
        # v3: record patterns in the repro/pattern v2 string form
        3: _tpg_report_spec(FAULT_RECORD_V3),
    },
    "repro/campaign-report": {
        1: _campaign_report_spec(OPTIONS_V1),
        2: _campaign_report_spec(OPTIONS_V2),
        3: _campaign_report_spec(OPTIONS_V3),
        # v4: supervision options + counters, quarantine error rows
        4: _campaign_report_spec(OPTIONS_V4, CAMPAIGN_STATS_V2, errors=True),
        # v5: patterns (and record patterns) in the repro/pattern v2
        # string form
        5: _campaign_report_spec(
            OPTIONS_V4, CAMPAIGN_STATS_V2, errors=True, pattern=PATTERN_V2
        ),
        # v6: options v5, stats without worker_restarts
        6: _campaign_report_spec(
            OPTIONS, CAMPAIGN_STATS_V3, errors=True, pattern=PATTERN_V2
        ),
    },
    "repro/simulate-report": {
        1: obj(
            {
                "circuit": STR,
                "test_class": TEST_CLASS,
                "patterns": INT,
                "faults": INT,
                "masks": arr(STR),  # hex lane masks, index-aligned
            }
        )
    },
    "repro/grade-report": {
        1: obj(
            {
                "circuit": STR,
                "test_class": TEST_CLASS,
                "patterns": INT,
                "faults": INT,
                "detected": INT,
                "coverage": NUM,
                "detected_flags": arr(BOOL),
            }
        ),
        # v2: optional hazard-aware detection-strength breakdown
        # (AtpgSession.grade with strength=True): per-fault strongest
        # class and the aggregated counts.
        2: obj(
            {
                "circuit": STR,
                "test_class": TEST_CLASS,
                "patterns": INT,
                "faults": INT,
                "detected": INT,
                "coverage": NUM,
                "detected_flags": arr(BOOL),
            },
            optional={
                "strengths": arr(
                    opt({"enum": ["hazard_free_robust", "robust", "nonrobust"]})
                ),
                "strength_counts": obj(
                    {
                        "hazard_free_robust": INT,
                        "robust": INT,
                        "nonrobust": INT,
                    }
                ),
            },
        ),
    },
    "repro/paths-report": {
        1: obj(
            {
                "circuit": STR,
                "stats": obj(open_=True),
                "paths": INT,
                "faults": INT,
            },
            optional={
                "histogram": arr(arr(INT)),
                "listed": arr(STR),
            },
        )
    },
    "repro/campaign-checkpoint": {
        2: _checkpoint_spec(2, CAMPAIGN_STATS, errors=False),
        # v3: supervision counters in stats plus the quarantine error
        # rows (``[index, envelope]``); statuses may be skipped_error
        3: _checkpoint_spec(3, CAMPAIGN_STATS_V2),
        # v4: stats without worker_restarts
        4: _checkpoint_spec(4, CAMPAIGN_STATS_V3),
    },
    # request v5 (generate, campaign) and v3 (bist): options v5
    "repro/request.generate": {
        1: _generate_request_spec(OPTIONS_V1),
        2: _generate_request_spec(OPTIONS_V2),
        3: _generate_request_spec(OPTIONS_V3),
        4: _generate_request_spec(OPTIONS_V4),
        5: _generate_request_spec(OPTIONS),
    },
    "repro/request.campaign": {
        1: _campaign_request_spec(OPTIONS_V1),
        2: _campaign_request_spec(OPTIONS_V2),
        3: _campaign_request_spec(OPTIONS_V3),
        4: _campaign_request_spec(OPTIONS_V4),
        5: _campaign_request_spec(OPTIONS),
    },
    "repro/request.bist": {
        1: _bist_request_spec(OPTIONS_V3),
        2: _bist_request_spec(OPTIONS_V4),
        3: _bist_request_spec(OPTIONS),
    },
    "repro/request.simulate": {
        1: obj(
            {"patterns": arr(PATTERN), "faults": arr(FAULT)},
            optional=_REQUEST_CIRCUIT,
        ),
        # v2: patterns in the repro/pattern v2 string form
        2: obj(
            {"patterns": arr(PATTERN_V2), "faults": arr(FAULT)},
            optional=_REQUEST_CIRCUIT,
        ),
    },
    "repro/request.grade": {
        1: obj(
            {"patterns": arr(PATTERN), "faults": arr(FAULT)},
            optional=_REQUEST_CIRCUIT,
        ),
        # v2: patterns in the repro/pattern v2 string form
        2: obj(
            {"patterns": arr(PATTERN_V2), "faults": arr(FAULT)},
            optional=_REQUEST_CIRCUIT,
        ),
    },
    "repro/request.paths": {
        1: obj(
            optional={
                **_REQUEST_CIRCUIT,
                "histogram": BOOL,
                "limit": INT,
            }
        )
    },
    "repro/response": {
        1: obj(
            {"ok": BOOL},
            optional={
                "result": obj(open_=True),
                "error": obj({"error": STR}, optional={"detail": STR}),
            },
        )
    },
    "repro/job": {1: _JOB, 2: _JOB_V2},
    "repro/job-list": {1: obj({"jobs": arr(_JOB)}), 2: obj({"jobs": arr(_JOB_V2)})},
    "repro/metrics": {
        1: _METRICS, 2: _METRICS_V2, 3: _METRICS_V3, 4: _METRICS_V4
    },
    "repro/bist-report": {1: _BIST_REPORT},
}

def latest_version(kind: str) -> int:
    try:
        return max(SCHEMAS[kind])
    except KeyError:
        raise SchemaError(f"unknown schema kind {kind!r}") from None


def stamp(kind: str, payload: Dict, version: Optional[int] = None) -> Dict:
    """Return *payload* with the envelope keys prepended."""
    version = latest_version(kind) if version is None else version
    return {"schema": kind, "schema_version": version, **payload}


# ---------------------------------------------------------------------------
# structural validation: each spec compiled once into a checker
# ---------------------------------------------------------------------------

#: Keys any object may carry beside its spec's own: the schema envelope,
#: and "sha256", the integrity digest (see api.integrity).
_ENVELOPE_KEYS = frozenset({"schema", "schema_version", "sha256"})


class _Mismatch(Exception):
    """A failed check, worded only once its path is known.

    A checker raises it with its own detail; each container it passes
    on the way out adds its path segment, and :func:`validate` words
    the whole message, so a payload that passes never builds a path.
    """

    def __init__(self, detail: str, alternatives: Optional[List] = None):
        super().__init__(detail)
        self.detail = detail
        self.alternatives = alternatives  # an anyOf's failed branches
        self.segments: List[str] = []  # innermost first

    def word(self, path: str) -> str:
        path += "".join(reversed(self.segments))
        if self.alternatives is None:
            return f"{path}: {self.detail}"
        tried = "; ".join(failure.word(path) for failure in self.alternatives)
        return f"{path}: no alternative matched ({tried})"


def _expected(what: str, value) -> _Mismatch:
    return _Mismatch(f"expected {what}, got {type(value).__name__}")


def _accept(value) -> None:
    """The checker of ``any``."""


def _is_null(value) -> None:
    if value is not None:
        raise _expected("null", value)


def _is_string(value) -> None:
    if not isinstance(value, str):
        raise _expected("string", value)


def _is_bool(value) -> None:
    if not isinstance(value, bool):
        raise _expected("bool", value)


def _is_int(value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _expected("int", value)


def _is_number(value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _expected("number", value)


_SCALARS: Dict[str, Callable] = {
    "any": _accept,
    "null": _is_null,
    "string": _is_string,
    "bool": _is_bool,
    "int": _is_int,
    "number": _is_number,
}

#: The exact types whose every value passes a scalar type.
_EXACT: Dict[str, frozenset] = {
    "null": frozenset({type(None)}),
    "string": frozenset({str}),
    "bool": frozenset({bool}),
    "int": frozenset({int}),
    "number": frozenset({int, float}),
}

#: id(spec) -> (spec, its checker); holding the spec keeps its id its
#: own.  Two threads' first uses may both compile a spec; either
#: checker is right.
_CHECKERS: Dict[int, Tuple[Dict, Callable]] = {}


def _checker(spec: Dict) -> Callable:
    """*spec*'s checker, compiled on first use and shared thereafter, so
    a sub-spec several kinds embed (``FAULT``, ``PATTERN_V2``, the
    option layers) compiles once."""
    entry = _CHECKERS.get(id(spec))
    if entry is None:
        entry = _CHECKERS[id(spec)] = (spec, _compile(spec))
    return entry[1]


def _exact(spec: Dict) -> frozenset:
    """The exact types whose every value *spec* accepts.

    A value of one of them passes without a checker call: an array of
    them in one C-speed sweep (pattern bit vectors, fault signal
    lists), an object key holding one (``"0101…"`` vectors, a null
    ``fault``) with one set lookup.  Any other value gets the checker,
    so an int subclass still passes ``int``.
    """
    if "anyOf" in spec:
        return frozenset().union(*map(_exact, spec["anyOf"]))
    if len(spec) == 1:
        return _EXACT.get(spec.get("type"), frozenset())
    return frozenset()


def _compile(spec: Dict) -> Callable:
    if "anyOf" in spec:
        return _any_of(spec["anyOf"])
    if "const" in spec:
        return _const(spec["const"])
    if "enum" in spec:
        return _enum(spec["enum"])
    kind = spec["type"]
    if kind == "array":
        return _array(spec["items"])
    if kind == "object":
        return _object(spec["required"], spec["optional"], spec["open"])
    if kind not in _SCALARS:  # pragma: no cover - a malformed registry spec
        raise SchemaError(f"unknown spec type {kind!r}")
    return _SCALARS[kind]


def _any_of(alternatives: List[Dict]) -> Callable:
    checks = [_checker(alternative) for alternative in alternatives]
    takes_null = NULL in alternatives

    def check(value) -> None:
        if value is None and takes_null:
            return  # an opt(...) field holding null: no failing try first
        failures = []
        for alternative in checks:
            try:
                alternative(value)
                return
            except _Mismatch as failure:
                failures.append(failure)
        raise _Mismatch("", failures)

    return check


def _const(expected) -> Callable:
    def check(value) -> None:
        if value != expected:
            raise _Mismatch(f"expected {expected!r}, got {value!r}")

    return check


def _enum(members: List) -> Callable:
    def check(value) -> None:
        if value not in members:
            raise _Mismatch(f"{value!r} not in {members!r}")

    return check


def _array(items: Dict) -> Callable:
    check_item = _checker(items)
    exact = _exact(items)

    def check_list(value) -> None:
        if not isinstance(value, list):
            raise _expected("array", value)

    def check(value) -> None:
        if not isinstance(value, list):
            raise _expected("array", value)
        if exact and exact.issuperset(map(type, value)):
            return
        for index, item in enumerate(value):
            try:
                check_item(item)
            except _Mismatch as failure:
                failure.segments.append(f"[{index}]")
                raise

    return check_list if check_item is _accept else check


def _object(required: Dict, optional: Dict, open_: bool) -> Callable:
    # (key, exact types that pass without a call, checker, required?)
    # in spec order: required keys first
    keys = [
        (name, _exact(sub), _checker(sub), needed)
        for group, needed in ((required, True), (optional, False))
        for name, sub in group.items()
    ]
    allowed = frozenset(required) | frozenset(optional) | _ENVELOPE_KEYS

    def check(value) -> None:
        if not isinstance(value, dict):
            raise _expected("object", value)
        for name, exact, check_key, needed in keys:
            if name not in value:
                if needed:
                    raise _Mismatch(f"missing required key {name!r}")
                continue
            item = value[name]
            if type(item) not in exact:
                try:
                    check_key(item)
                except _Mismatch as failure:
                    failure.segments.append(f".{name}")
                    raise
        if not open_ and not allowed.issuperset(value):
            extra = sorted(set(value) - allowed)
            raise _Mismatch(
                f"unexpected keys {extra} (schema drift? bump the schema "
                f"version and register the new shape)"
            )

    return check


def validate(payload: Dict, kind: Optional[str] = None) -> Tuple[str, int]:
    """Validate one enveloped payload; returns ``(kind, version)``.

    Raises :class:`SchemaError` when the envelope is missing, the kind
    is unknown, *kind* (if given) does not match, the version is not
    registered for that kind, or the body fails the structural spec.
    """
    if not isinstance(payload, dict):
        raise SchemaError(f"artifact must be a JSON object, got {type(payload).__name__}")
    declared = payload.get("schema")
    version = payload.get("schema_version")
    if declared is None or version is None:
        raise SchemaError("missing schema/schema_version envelope")
    if kind is not None and declared != kind:
        raise SchemaError(f"expected schema {kind!r}, got {declared!r}")
    # an unhashable kind or version (a JSON list or object) is unknown
    # too, not a TypeError out of the lookup; so is a version that only
    # equals a registered int (true, 1.0), so the version returned is an int
    versions = SCHEMAS.get(declared) if isinstance(declared, str) else None
    if versions is None:
        raise SchemaError(f"unknown schema kind {declared!r}")
    spec = versions.get(version) if type(version) is int else None
    if spec is None:
        raise SchemaError(
            f"unknown schema_version {version!r} for {declared!r} "
            f"(known: {sorted(versions)})"
        )
    try:
        _checker(spec)(payload)
    except _Mismatch as failure:
        raise SchemaError(failure.word("$")) from None
    return declared, version


def validate_file(path: str) -> Tuple[str, int]:
    """Validate one JSON artifact file by its declared envelope;
    returns ``(kind, version)``."""
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    try:
        return validate(payload)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def iter_schema_summary() -> Iterable[Dict[str, object]]:
    """One row per registered kind (the ``GET /v1/schemas`` payload)."""
    for kind in sorted(SCHEMAS):
        yield {"kind": kind, "versions": sorted(SCHEMAS[kind])}
