"""Campaign options, progress accounting, and checkpoint/resume.

A campaign is a long-running job: the report doubles as a durable
progress record.  :meth:`CampaignReport.to_payload` emits a fully
JSON-serializable snapshot — settled statuses, the retained pattern
set, the unsettled pending window, the APTPG queue, and the stream
position — and :func:`load_checkpoint` restores it, so an interrupted
run restarts exactly where it stopped (the fault stream is
deterministic and resumes by position; see
:class:`repro.campaign.universe.FaultUniverse`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..api import integrity, schemas
from ..api.options import DEFAULT_SHARDS, Options
from ..paths import PathDelayFault, TestClass, Transition
from ..core.patterns import TestPattern
from ..core.results import FaultRecord, FaultStatus, TpgReport

CHECKPOINT_VERSION = 4

__all__ = [
    "CHECKPOINT_VERSION",
    "DEFAULT_SHARDS",
    "CampaignOptions",
    "CampaignReport",
    "CampaignStats",
    "checkpoint_payload",
    "load_checkpoint",
    "restore_from_payload",
    "schedule_fingerprint",
    "write_checkpoint",
]


@dataclass
class CampaignOptions(Options):
    """Deprecated alias for the unified :class:`repro.api.Options`.

    The staged-campaign tunables are all still here — they *are* the
    unified model (``width``/``shards``/``window``/checkpointing/
    compaction, see :mod:`repro.api.options` for the
    layer-by-layer documentation).  Construction warns; use
    ``repro.api.Options`` in new code.
    """

    def __post_init__(self) -> None:
        warnings.warn(
            "CampaignOptions is deprecated; use repro.api.Options "
            "(the unified layered options model)",
            DeprecationWarning,
            stacklevel=2,
        )


@dataclass
class CampaignStats:
    """Counters accumulated over the campaign's lifetime."""

    rounds: int = 0
    fptpg_rounds: int = 0
    aptpg_rounds: int = 0
    peak_pending: int = 0
    streamed: int = 0
    admitted_dropped: int = 0
    compactions: int = 0
    patterns_compacted_away: int = 0
    decisions: int = 0
    backtracks: int = 0
    implication_passes: int = 0
    seconds_sensitize: float = 0.0
    seconds_simulate: float = 0.0
    seconds_wall: float = 0.0
    shard_retries: int = 0
    quarantined_shards: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "rounds": self.rounds,
            "fptpg_rounds": self.fptpg_rounds,
            "aptpg_rounds": self.aptpg_rounds,
            "peak_pending": self.peak_pending,
            "streamed": self.streamed,
            "admitted_dropped": self.admitted_dropped,
            "compactions": self.compactions,
            "patterns_compacted_away": self.patterns_compacted_away,
            "decisions": self.decisions,
            "backtracks": self.backtracks,
            "implication_passes": self.implication_passes,
            "seconds_sensitize": self.seconds_sensitize,
            "seconds_simulate": self.seconds_simulate,
            "seconds_wall": self.seconds_wall,
            "shard_retries": self.shard_retries,
            "quarantined_shards": self.quarantined_shards,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignStats":
        stats = cls()
        for key, value in data.items():
            if hasattr(stats, key):
                setattr(stats, key, value)
        return stats


@dataclass
class CampaignReport:
    """Outcome (and durable progress record) of one campaign.

    ``statuses`` and ``modes`` are keyed by stream index and always
    present; ``records`` carries full :class:`FaultRecord` objects
    when ``keep_records`` was on (required by
    :meth:`as_tpg_report`).  ``patterns`` is the retained test set in
    generation order (post incremental compaction, if enabled).
    """

    circuit_name: str
    test_class: TestClass
    options: Options
    statuses: Dict[int, FaultStatus] = field(default_factory=dict)
    modes: Dict[int, str] = field(default_factory=dict)
    records: Optional[Dict[int, FaultRecord]] = None
    patterns: List[TestPattern] = field(default_factory=list)
    stats: CampaignStats = field(default_factory=CampaignStats)
    complete: bool = False
    #: stream index -> error envelope of every ``skipped_error`` fault:
    #: a quarantined shard's faults, and faults whose path names a
    #: signal outside the circuit (refused at admission, 0 attempts).
    errors: Dict[int, Dict[str, object]] = field(default_factory=dict)

    # ------------------------------------------------------------ queries
    @property
    def n_faults(self) -> int:
        return len(self.statuses)

    def count(self, status: FaultStatus) -> int:
        return sum(1 for s in self.statuses.values() if s is status)

    @property
    def n_detected(self) -> int:
        return sum(
            1
            for s in self.statuses.values()
            if s in (FaultStatus.TESTED, FaultStatus.SIMULATED)
        )

    def detected_indices(self) -> List[int]:
        """Stream indices of faults with a test (generated or dropped)."""
        return sorted(
            i
            for i, s in self.statuses.items()
            if s in (FaultStatus.TESTED, FaultStatus.SIMULATED)
        )

    @property
    def efficiency(self) -> float:
        """The paper's metric: 100 * (1 - aborted/faults)."""
        if not self.statuses:
            return 100.0
        unsettled = self.count(FaultStatus.ABORTED) + self.count(
            FaultStatus.DEFERRED
        )
        return (1.0 - unsettled / self.n_faults) * 100.0

    def summary(self) -> Dict[str, object]:
        """A flat dict for table rendering / JSON output."""
        wall = self.stats.seconds_wall
        return {
            "circuit": self.circuit_name,
            "class": self.test_class.value,
            "L": self.options.width,
            "shards": self.options.shards,
            "faults": self.n_faults,
            "tested": self.count(FaultStatus.TESTED),
            "simulated": self.count(FaultStatus.SIMULATED),
            "redundant": self.count(FaultStatus.REDUNDANT),
            "aborted": self.count(FaultStatus.ABORTED)
            + self.count(FaultStatus.DEFERRED),
            "patterns": len(self.patterns),
            "efficiency_%": round(self.efficiency, 4),
            "faults_per_s": round(self.n_faults / wall, 1) if wall > 0 else None,
            "time_s": round(wall, 4),
        }

    # ------------------------------------------------------------ adapters
    def as_tpg_report(self) -> TpgReport:
        """Adapt to the engine's :class:`TpgReport` (fault order kept).

        Requires ``keep_records``; this is how ``generate_tests``
        preserves its public API on top of the campaign.
        """
        if self.records is None:
            raise ValueError("as_tpg_report needs a campaign with keep_records")
        report = TpgReport(
            circuit_name=self.circuit_name,
            test_class=self.test_class,
            width=self.options.width,
        )
        report.records = [self.records[i] for i in sorted(self.records)]
        report.decisions = self.stats.decisions
        report.backtracks = self.stats.backtracks
        report.implication_passes = self.stats.implication_passes
        report.seconds_sensitize = self.stats.seconds_sensitize
        report.seconds_simulate = self.stats.seconds_simulate
        report.seconds_generate = max(
            0.0,
            self.stats.seconds_wall
            - self.stats.seconds_sensitize
            - self.stats.seconds_simulate,
        )
        return report


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------


def _fault_payload(fault: PathDelayFault) -> List[object]:
    return [list(fault.signals), fault.transition.value]


def _fault_from_payload(payload: List[object]) -> PathDelayFault:
    return PathDelayFault(tuple(payload[0]), Transition(payload[1]))


def _pattern_payload(pattern: TestPattern) -> List[object]:
    fault = _fault_payload(pattern.fault) if pattern.fault is not None else None
    return [list(pattern.v1), list(pattern.v2), fault]


def _pattern_from_payload(payload: List[object]) -> TestPattern:
    fault = _fault_from_payload(payload[2]) if payload[2] is not None else None
    return TestPattern(tuple(payload[0]), tuple(payload[1]), fault)


def schedule_fingerprint(
    options: Options, universe_config: Dict[str, object]
) -> Dict[str, object]:
    """The option subset that determines per-fault outcomes.

    Stored in every checkpoint and compared on resume: continuing an
    interrupted campaign under a different schedule (or a differently
    filtered fault stream, whose indices would denote different
    faults) would silently corrupt the merged report.  ``sim_backend``
    is deliberately absent — it never changes outcomes.  A universe
    ``predicate`` is only visible as a boolean (callables don't
    serialize), so swapping one filter function for another between
    runs cannot be detected.
    """
    return {
        "window": options.window,
        "drop_faults": options.drop_faults,
        "use_fptpg": options.use_fptpg,
        "use_aptpg": options.use_aptpg,
        "unique_backward": options.unique_backward,
        "backtrack_limit": options.backtrack_limit,
        "compact_every": options.compact_every,
        "universe": dict(universe_config),
    }


def checkpoint_payload(
    report: CampaignReport,
    pending: Dict[int, PathDelayFault],
    queue: List[int],
    stream_position: int,
    exhausted: bool,
    pattern_index: Dict[int, int],
    fingerprint: Dict[str, object],
    obligations: List[PathDelayFault],
) -> Dict[str, object]:
    """Snapshot everything a resumed run needs.

    Settled faults are stored as ``[index, status, mode,
    pattern_index]`` — the fault structure itself is not repeated
    (statuses never change once settled), which keeps checkpoints of
    million-fault campaigns proportional to the pattern set plus one
    small row per fault.

    The payload is stamped with the shared wire-format envelope
    (``schema``/``schema_version``, see :mod:`repro.api.schemas`), so
    checkpoints validate against the same registry as every other
    artifact; ``version`` is kept as the campaign-level alias of the
    schema version.
    """
    return {
        "schema": "repro/campaign-checkpoint",
        "schema_version": CHECKPOINT_VERSION,
        "version": CHECKPOINT_VERSION,
        "circuit": report.circuit_name,
        "test_class": report.test_class.value,
        "width": report.options.width,
        "shards": report.options.shards,
        "schedule": fingerprint,
        "stream_position": stream_position,
        "exhausted": exhausted,
        "complete": report.complete,
        "settled": [
            [
                index,
                report.statuses[index].value,
                report.modes.get(index, ""),
                pattern_index.get(index),
            ]
            for index in sorted(report.statuses)
        ],
        "pending": [
            [index] + _fault_payload(fault)
            for index, fault in pending.items()
        ],
        "queue": list(queue),
        "patterns": [_pattern_payload(p) for p in report.patterns],
        "obligations": [_fault_payload(f) for f in obligations],
        "stats": report.stats.as_dict(),
        "errors": [
            [index, dict(report.errors[index])]
            for index in sorted(report.errors)
        ],
    }


def write_checkpoint(path: str, payload: Dict[str, object]) -> None:
    """Checksummed, generation-rotated write (see :mod:`..api.integrity`).

    The previous checkpoint survives as ``<path>.prev``, and the new
    generation embeds a sha256 digest, so a corrupted write is both
    detectable and recoverable on resume.
    """
    integrity.write_json_rotated(path, payload)


def load_checkpoint(path: str) -> Dict[str, object]:
    """Load the newest *verifiable* generation of a checkpoint.

    A primary file that is missing, truncated, unparseable, or fails
    its checksum falls back to ``<path>.prev``; only when both
    generations are unusable does the load fail
    (:class:`repro.api.integrity.IntegrityError`).  The loaded payload
    must then have version 3 or 4 and the ``repro/campaign-checkpoint``
    shape (:class:`repro.api.schemas.SchemaError` otherwise): a file
    without a checksum verifies trivially, and a malformed row would
    otherwise fail deep inside :func:`restore_from_payload`.
    """
    payload, used_previous = integrity.load_json_verified(path)
    if used_previous:
        warnings.warn(
            f"checkpoint {path!r} was corrupt or missing; resumed from "
            f"the previous generation {integrity.previous_path(path)!r}",
            RuntimeWarning,
            stacklevel=2,
        )
    version = payload.get("version")
    # v3 differs only by a worker_restarts stats counter, which
    # CampaignStats.from_dict skips
    if version not in (3, CHECKPOINT_VERSION):
        raise ValueError(
            f"checkpoint {path!r} has version {version}, expected 3 or "
            f"{CHECKPOINT_VERSION}"
        )
    schemas.validate(payload, "repro/campaign-checkpoint")
    return payload


def restore_from_payload(
    payload: Dict[str, object],
    report: CampaignReport,
) -> Tuple[Dict[int, PathDelayFault], List[int], int, bool, List[PathDelayFault]]:
    """Rehydrate *report* in place; returns (pending, queue, position,
    exhausted, obligations).

    Pre-resume records carry ``fault=None`` (the checkpoint stores
    settled faults as status rows, not structures); ``as_tpg_report``
    over a resumed campaign therefore reports statuses and patterns
    but not the original fault objects for pre-resume indices.
    """
    report.patterns = [_pattern_from_payload(p) for p in payload["patterns"]]
    for index, status_value, mode, pat_index in payload["settled"]:
        index = int(index)
        status = FaultStatus(status_value)
        report.statuses[index] = status
        report.modes[index] = mode
        if report.records is not None:
            pattern = (
                report.patterns[pat_index] if pat_index is not None else None
            )
            report.records[index] = FaultRecord(None, status, pattern, mode)
    pending = {
        int(row[0]): _fault_from_payload(row[1:]) for row in payload["pending"]
    }
    queue = [int(i) for i in payload["queue"]]
    report.stats = CampaignStats.from_dict(payload["stats"])
    report.errors = {
        int(index): dict(envelope)
        for index, envelope in payload.get("errors", [])
    }
    obligations = [_fault_from_payload(row) for row in payload["obligations"]]
    return (
        pending,
        queue,
        int(payload["stream_position"]),
        bool(payload["exhausted"]),
        obligations,
    )
