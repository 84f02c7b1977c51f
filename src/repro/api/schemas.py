"""Versioned JSON schemas — the one wire format for every artifact.

Every JSON artifact the project reads or writes — serialized faults,
patterns, circuits, reports, campaign checkpoints, service requests
and responses — carries the same envelope::

    {"schema": "repro/<kind>", "schema_version": <int>, ...payload}

Durable artifacts written through :mod:`repro.api.integrity` carry a
third envelope key, ``sha256`` (the body's integrity digest); the
validator tolerates it on any kind, exactly like the schema keys.

This module is the registry of those kinds: a declarative structural
spec per ``(kind, version)`` plus a small validator (no third-party
dependency).  :func:`validate` rejects unknown kinds, unknown
versions, and shape drift, so changing a payload without bumping its
version fails the tests that round-trip it.

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
from typing import Dict, Iterable, Optional, Tuple


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
#: supervisor quarantined after repeated worker failures.
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


def _options_spec(
    generation_extra: Optional[Dict] = None,
    bist: bool = False,
    execution_extra: Optional[Dict] = None,
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
    execution = {"workers": INT}
    execution.update(execution_extra or {})
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
#: Current options wire shape: v4 adds the execution-layer worker
#: supervision knobs (shard deadline / retry / quarantine) and the
#: test-only ``chaos`` fault-injection schedule.
OPTIONS = _options_spec(
    {"fusion": FUSION},
    bist=True,
    execution_extra={
        "shard_deadline_s": opt(NUM),
        "shard_attempts": INT,
        "retry_base_ms": NUM,
        "chaos": opt(STR),
    },
)
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
CAMPAIGN_STATS = obj(
    {
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
)
#: v2 adds the worker-supervision counters.
CAMPAIGN_STATS_V2 = obj(
    {
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
        "worker_restarts": INT,
        "shard_retries": INT,
        "quarantined_shards": INT,
    }
)

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


SCHEMAS: Dict[str, Dict[int, Dict]] = {
    "repro/fault": {1: FAULT},
    "repro/pattern": {1: PATTERN, 2: PATTERN_V2},
    "repro/options": {1: OPTIONS_V1, 2: OPTIONS_V2, 3: OPTIONS_V3, 4: OPTIONS},
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
        4: _campaign_report_spec(OPTIONS, CAMPAIGN_STATS_V2, errors=True),
        # v5: patterns (and record patterns) in the repro/pattern v2
        # string form
        5: _campaign_report_spec(
            OPTIONS, CAMPAIGN_STATS_V2, errors=True, pattern=PATTERN_V2
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
        2: obj(
            {
                "version": {"const": 2},
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
                "stats": CAMPAIGN_STATS,
            }
        ),
        # v3: supervision counters in stats plus the quarantine error
        # rows (``[index, envelope]``); statuses may be skipped_error
        3: obj(
            {
                "version": {"const": 3},
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
                "stats": CAMPAIGN_STATS_V2,
                "errors": arr(arr(ANY)),
            }
        ),
    },
    "repro/request.generate": {
        1: obj(
            optional={
                **_REQUEST_CIRCUIT,
                "options": OPTIONS_V1,
                "max_faults": opt(INT),
                "strategy": {"enum": ["all", "longest", "sample"]},
                "include_patterns": BOOL,
            }
        ),
        2: obj(
            optional={
                **_REQUEST_CIRCUIT,
                "options": OPTIONS_V2,
                "max_faults": opt(INT),
                "strategy": {"enum": ["all", "longest", "sample"]},
                "include_patterns": BOOL,
            }
        ),
        3: obj(
            optional={
                **_REQUEST_CIRCUIT,
                "options": OPTIONS_V3,
                "max_faults": opt(INT),
                "strategy": {"enum": ["all", "longest", "sample"]},
                "include_patterns": BOOL,
            }
        ),
        4: obj(
            optional={
                **_REQUEST_CIRCUIT,
                "options": OPTIONS,
                "max_faults": opt(INT),
                "strategy": {"enum": ["all", "longest", "sample"]},
                "include_patterns": BOOL,
            }
        ),
    },
    "repro/request.campaign": {
        1: obj(
            optional={
                **_REQUEST_CIRCUIT,
                "options": OPTIONS_V1,
                "max_faults": opt(INT),
                "min_length": opt(INT),
                "max_length": opt(INT),
            }
        ),
        2: obj(
            optional={
                **_REQUEST_CIRCUIT,
                "options": OPTIONS_V2,
                "max_faults": opt(INT),
                "min_length": opt(INT),
                "max_length": opt(INT),
            }
        ),
        3: obj(
            optional={
                **_REQUEST_CIRCUIT,
                "options": OPTIONS_V3,
                "max_faults": opt(INT),
                "min_length": opt(INT),
                "max_length": opt(INT),
            }
        ),
        4: obj(
            optional={
                **_REQUEST_CIRCUIT,
                "options": OPTIONS,
                "max_faults": opt(INT),
                "min_length": opt(INT),
                "max_length": opt(INT),
            }
        ),
    },
    "repro/request.bist": {
        1: obj(
            optional={
                **_REQUEST_CIRCUIT,
                "options": OPTIONS_V3,
                "fault_model": FAULT_MODEL,
                "max_faults": opt(INT),
            }
        ),
        2: obj(
            optional={
                **_REQUEST_CIRCUIT,
                "options": OPTIONS,
                "fault_model": FAULT_MODEL,
                "max_faults": opt(INT),
            }
        ),
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
# structural validation
# ---------------------------------------------------------------------------


def _check(spec: Dict, value, path: str) -> None:
    if "anyOf" in spec:
        if value is None and NULL in spec["anyOf"]:
            return  # an opt(...) field holding null: no failing try first
        errors = []
        for alternative in spec["anyOf"]:
            try:
                _check(alternative, value, path)
                return
            except SchemaError as exc:
                errors.append(str(exc))
        raise SchemaError(f"{path}: no alternative matched ({'; '.join(errors)})")
    if "const" in spec:
        if value != spec["const"]:
            raise SchemaError(f"{path}: expected {spec['const']!r}, got {value!r}")
        return
    if "enum" in spec:
        if value not in spec["enum"]:
            raise SchemaError(f"{path}: {value!r} not in {spec['enum']!r}")
        return
    kind = spec["type"]
    if kind == "any":
        return
    if kind == "null":
        if value is not None:
            raise SchemaError(f"{path}: expected null, got {type(value).__name__}")
        return
    if kind == "string":
        if not isinstance(value, str):
            raise SchemaError(f"{path}: expected string, got {type(value).__name__}")
        return
    if kind == "bool":
        if not isinstance(value, bool):
            raise SchemaError(f"{path}: expected bool, got {type(value).__name__}")
        return
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{path}: expected int, got {type(value).__name__}")
        return
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{path}: expected number, got {type(value).__name__}")
        return
    if kind == "array":
        if not isinstance(value, list):
            raise SchemaError(f"{path}: expected array, got {type(value).__name__}")
        items = spec["items"]
        # hot path: long scalar arrays (pattern bit vectors, fault
        # signal lists, checkpoint rows) verified with one C-speed
        # sweep over exact JSON types; the per-element walk below only
        # runs when the sweep fails (its job is the indexed error
        # message) or for non-scalar/shared item specs
        if items is INT:
            if all(type(item) is int for item in value):
                return
        elif items is STR:
            if all(type(item) is str for item in value):
                return
        elif items is NUM:
            if all(type(item) is int or type(item) is float for item in value):
                return
        elif items is BOOL:
            if all(type(item) is bool for item in value):
                return
        for index, item in enumerate(value):
            _check(items, item, f"{path}[{index}]")
        return
    if kind == "object":
        if not isinstance(value, dict):
            raise SchemaError(f"{path}: expected object, got {type(value).__name__}")
        for name, sub in spec["required"].items():
            if name not in value:
                raise SchemaError(f"{path}: missing required key {name!r}")
            _check(sub, value[name], f"{path}.{name}")
        for name, sub in spec["optional"].items():
            if name in value:
                _check(sub, value[name], f"{path}.{name}")
        if not spec["open"]:
            known = set(spec["required"]) | set(spec["optional"])
            # "sha256" is the integrity envelope (see api.integrity):
            # like schema/schema_version it may ride on any enveloped
            # payload without being part of the body spec
            extra = sorted(
                set(value) - known - {"schema", "schema_version", "sha256"}
            )
            if extra:
                raise SchemaError(
                    f"{path}: unexpected keys {extra} (schema drift? bump the "
                    f"schema version and register the new shape)"
                )
        return
    raise SchemaError(f"{path}: unknown spec type {kind!r}")  # pragma: no cover


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
    versions = SCHEMAS.get(declared)
    if versions is None:
        raise SchemaError(f"unknown schema kind {declared!r}")
    spec = versions.get(version)
    if spec is None:
        raise SchemaError(
            f"unknown schema_version {version!r} for {declared!r} "
            f"(known: {sorted(versions)})"
        )
    _check(spec, payload, "$")
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
