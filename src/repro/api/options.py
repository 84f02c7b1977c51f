"""The unified, layered options model — one dataclass hierarchy.

Each layer adds one concern:

``GenerationOptions``
    the paper's engine tunables — word length ``L``, backtrack limit,
    fault dropping, mode ablations, implication strength, simulator
    backend.  This is the layer that determines *per-fault outcomes*
    together with the schedule.
``ScheduleOptions``
    adds the campaign round schedule: ``shards`` batches per drop
    round and the pending-``window`` bound.  Results depend on these
    (they are part of the schedule semantics) but never on anything
    below.
``ExecutionOptions``
    adds shard supervision — attempts before quarantine, retry
    backoff — and the test-only ``chaos`` schedule.  Never changes
    the outcome of a shard that succeeds.
``PersistenceOptions``
    adds checkpoint/resume, incremental compaction cadence, and
    record retention.
``BistOptions``
    adds the pseudorandom BIST workload knobs — LFSR width/kind/seed,
    phase-shifter spread, MISR width, window/budget/target-coverage
    stopping rule (read only by ``AtpgSession.bist``).
``Options``
    the full model; what :class:`repro.api.AtpgSession` and the
    service accept everywhere.

Engine mode is not a separate type anymore: ``Options.engine_mode()``
is an unbounded-window view of the same object — exactly the campaign
the legacy serial engine always was.

Every campaign runs its shards in-process.  The execution knobs that
once chose a process pool (:data:`RETIRED_OPTIONS`) are still read from
old payloads and dropped there, and so are the retired ``fusion``
strategies (:data:`RETIRED_FUSION`), read as ``"auto"``: results never
depended on either.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, fields
from typing import Dict, Optional

from ..logic.words import DEFAULT_WORD_LENGTH

#: Schedule constant shared by the engine-mode view and the default
#: campaign: generation batches per drop round.  Rounds are barriers —
#: batches inside one round are generated independently, then the drop
#: bus runs once over the merged fresh patterns.
DEFAULT_SHARDS = 2

#: Execution-layer fields of options v1–v4 that no longer exist: the
#: process-pool size and its per-shard deadline.  Old payloads that
#: carry them decode without them (:meth:`Options.from_layers`), and
#: :meth:`Options.merged` drops them with a ``DeprecationWarning``.
RETIRED_OPTIONS = ("workers", "shard_deadline_s")

#: ``fusion`` values of options v2–v5 that no longer exist: the numpy
#: straight-line strategy and its ``vector`` sibling.  Old payloads
#: that carry them decode as ``"auto"`` (:meth:`Options.from_layers`).
RETIRED_FUSION = ("vector", "codegen")


@dataclass
class GenerationOptions:
    """Layer 1 — the combined FPTPG/APTPG engine tunables.

    Attributes:
        width: machine word length ``L`` (lanes).
        backtrack_limit: APTPG backtracks before aborting a fault.
        drop_faults: run PPSFP after every generation round and drop
            collaterally detected faults (paper Section 5).
        use_fptpg / use_aptpg: ablation switches; disabling FPTPG
            sends every fault straight to APTPG and vice versa.
        unique_backward: apply unique backward implications (see
            :class:`repro.core.state.TpgState`).
        sim_backend: word backend of the PPSFP drop simulator.
            ``"auto"`` (the default, with ``fusion="auto"``) runs the
            compiled-C native module at every width whenever it loads
            (disk-cached, built once per machine) and otherwise — no
            cached module and no C toolchain, or ``fusion="interp"`` —
            Python-int words up to 64 lanes and numpy beyond;
            ``"int"``/``"numpy"`` pin a Python backend; ``"native"``
            insists on compiled C and falls back to numpy with a
            one-time warning (see :func:`repro.kernel.backend_for`).
            Never outcome-relevant: every backend is bit-identical.
        fusion: ``"auto"`` (the default) runs the fastest tier of every
            hot simulation loop and of the TPG implication engine (the
            C engine for TPG states of at most 64 lanes where the
            module loads; see :func:`repro.core.state.tpg_tier`);
            ``"interp"`` runs the per-gate Python interpreter, the
            oracle, and is refused with ``sim_backend="native"``.
            Unknown values raise at construction.  Never
            outcome-relevant: the test suite asserts bit-identity.
    """

    width: int = DEFAULT_WORD_LENGTH
    backtrack_limit: int = 64
    drop_faults: bool = True
    use_fptpg: bool = True
    use_aptpg: bool = True
    unique_backward: bool = True
    sim_backend: str = "auto"
    fusion: str = "auto"

    def __post_init__(self) -> None:
        from ..kernel import check_fusion  # lazy: avoid cycles

        check_fusion(self.fusion)

    def validate(self) -> None:
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.backtrack_limit < 0:
            raise ValueError("backtrack_limit must be >= 0")
        from ..kernel import BACKEND_MODES, check_fusion  # lazy: avoid cycles

        if self.sim_backend not in BACKEND_MODES:
            raise ValueError(
                f"unknown sim_backend {self.sim_backend!r} "
                f"(choose from {BACKEND_MODES})"
            )
        check_fusion(self.fusion, self.sim_backend)


@dataclass
class ScheduleOptions(GenerationOptions):
    """Layer 2 — the campaign round schedule (outcome-relevant).

    Attributes:
        shards: batches per FPTPG round / faults per APTPG round.
            Part of the schedule semantics (like ``width``): results
            depend on it.
        window: peak number of *unsettled* faults held in memory, or
            ``None`` for unbounded (the engine-compatible mode: the
            whole universe is admitted up front).
    """

    shards: int = DEFAULT_SHARDS
    window: Optional[int] = None

    def validate(self) -> None:
        super().validate()
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.window is not None and self.window < self.width:
            raise ValueError(
                f"window ({self.window}) must be >= width ({self.width})"
            )


@dataclass
class ExecutionOptions(ScheduleOptions):
    """Layer 3 — shard supervision (never outcome-relevant).

    Attributes:
        shard_attempts: attempts per shard before the supervisor
            quarantines it (its faults settle as
            ``skipped_error`` with an error envelope instead of
            crashing the campaign).
        retry_base_ms: exponential-backoff base between retries of a
            *raising* shard (attempt ``n`` waits ``retry_base_ms *
            2**(n-1)`` plus deterministic jitter; ``0`` disables the
            wait).

    Supervision knobs bound *how failures are absorbed*; they never
    change per-fault outcomes — a retried shard regenerates
    bit-identically, and quarantine only ever *removes* faults from the
    report's detected set.
    """

    shard_attempts: int = 3
    retry_base_ms: float = 50.0
    #: JSON fault-injection schedule (see :mod:`repro.chaos`); the
    #: campaign runner installs it process-wide before the first round.
    #: Test/CI-only — the service scrubs it from tenant requests.
    chaos: Optional[str] = None

    def validate(self) -> None:
        super().validate()
        if self.shard_attempts < 1:
            raise ValueError("shard_attempts must be >= 1")
        if self.retry_base_ms < 0:
            raise ValueError("retry_base_ms must be >= 0")
        if self.chaos is not None:
            from .. import chaos as chaos_module  # lazy: avoid cycles

            chaos_module.ChaosController(self.chaos)  # raises on bad spec


@dataclass
class PersistenceOptions(ExecutionOptions):
    """Layer 4 — durability and memory management.

    Attributes:
        checkpoint: path of the JSON checkpoint file (``None``
            disables checkpointing).
        checkpoint_every: write the checkpoint every this many rounds.
        resume: load *checkpoint* if it exists and continue from it.
        compact_every: run incremental reverse-order compaction on the
            retained pattern set whenever it has grown by this many
            patterns since the last pass (``None`` disables it).
        keep_records: retain full :class:`repro.core.results.
            FaultRecord` objects.  Disable for huge campaigns where
            only statuses and the pattern set are needed.
    """

    checkpoint: Optional[str] = None
    checkpoint_every: int = 16
    resume: bool = False
    compact_every: Optional[int] = None
    keep_records: bool = True

    def validate(self) -> None:
        super().validate()
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


@dataclass
class BistOptions(PersistenceOptions):
    """Layer 5 — the pseudorandom BIST workload (`AtpgSession.bist`).

    Attributes:
        bist_width: LFSR register width; must be in the
            known-primitive table unless *bist_polynomial* is given.
        bist_kind: register form, ``"fibonacci"`` or ``"galois"``.
        bist_polynomial: characteristic-polynomial override (``None``
            = the table's primitive polynomial for *bist_width*).
        bist_seed: nonzero LFSR seed.
        bist_phase_spread: phase-shifter offset step fanning the
            register out to the circuit's input count.
        misr_width: signature register width (the aliasing exponent:
            escape probability ``2**-misr_width``).
        bist_window: patterns per simulation window — one kernel call,
            one coverage-curve point, one progress report each.
        bist_max_patterns: hard pattern budget.
        bist_target_coverage: stop once detected/faults reaches this
            fraction (``None`` = run out the budget).
    """

    bist_width: int = 32
    bist_kind: str = "fibonacci"
    bist_polynomial: Optional[int] = None
    bist_seed: int = 1
    bist_phase_spread: int = 1
    misr_width: int = 32
    bist_window: int = 256
    bist_max_patterns: int = 4096
    bist_target_coverage: Optional[float] = None

    def validate(self) -> None:
        super().validate()
        from ..bist.lfsr import (  # lazy: avoid cycles
            LFSR_KINDS,
            PRIMITIVE_POLYNOMIALS,
            default_polynomial,
        )

        if self.bist_kind not in LFSR_KINDS:
            raise ValueError(
                f"unknown bist_kind {self.bist_kind!r} (choose from {LFSR_KINDS})"
            )
        if self.bist_polynomial is None:
            default_polynomial(self.bist_width)  # raises for unknown widths
        elif self.bist_polynomial.bit_length() - 1 != self.bist_width:
            raise ValueError(
                f"bist_polynomial degree {self.bist_polynomial.bit_length() - 1} "
                f"!= bist_width {self.bist_width}"
            )
        if not 1 <= self.bist_seed < (1 << self.bist_width):
            raise ValueError(
                f"bist_seed must be nonzero and fit {self.bist_width} bits"
            )
        if self.bist_phase_spread < 1:
            raise ValueError("bist_phase_spread must be >= 1")
        if self.misr_width not in PRIMITIVE_POLYNOMIALS:
            known = ", ".join(str(w) for w in sorted(PRIMITIVE_POLYNOMIALS))
            raise ValueError(
                f"misr_width must be a table width ({known}), got {self.misr_width}"
            )
        if self.bist_window < 1:
            raise ValueError("bist_window must be >= 1")
        if self.bist_max_patterns < 1:
            raise ValueError("bist_max_patterns must be >= 1")
        if self.bist_target_coverage is not None and not (
            0.0 < self.bist_target_coverage <= 1.0
        ):
            raise ValueError("bist_target_coverage must be in (0, 1]")


@dataclass
class Options(BistOptions):
    """The full unified options model — every workload reads this.

    ``Options()`` with no arguments is the production default: the
    bit-parallel engine at the native word length, fault dropping on,
    unbounded window, no persistence.
    """

    # ------------------------------------------------------------ views
    def engine_mode(self) -> "Options":
        """The serial-engine view: an unbounded-window campaign.

        This is what ``AtpgSession.generate`` runs: same generation
        layer, default schedule, no persistence — exactly the
        historical engine.
        """
        return dataclasses.replace(
            self, window=None, checkpoint=None, resume=False
        )

    def merged(self, **overrides) -> "Options":
        """A copy with keyword *overrides* applied (unknown keys raise).

        A :data:`RETIRED_OPTIONS` name is dropped with a
        ``DeprecationWarning`` instead: shards always run in-process.
        """
        retired = [name for name in RETIRED_OPTIONS if name in overrides]
        if retired:
            warnings.warn(
                f"retired option(s) {', '.join(retired)} ignored: every "
                f"campaign runs its shards in-process",
                DeprecationWarning,
                stacklevel=4,  # merged <- AtpgSession._options <- verb
            )
            for name in retired:
                del overrides[name]
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------ layers
    def layers(self) -> Dict[str, Dict[str, object]]:
        """The model split by layer (the wire format of ``api.serde``)."""
        names = {
            "generation": fields(GenerationOptions),
            "schedule": _own_fields(ScheduleOptions, GenerationOptions),
            "execution": _own_fields(ExecutionOptions, ScheduleOptions),
            "persistence": _own_fields(PersistenceOptions, ExecutionOptions),
            "bist": _own_fields(BistOptions, PersistenceOptions),
        }
        return {
            layer: {f.name: getattr(self, f.name) for f in layer_fields}
            for layer, layer_fields in names.items()
        }

    @classmethod
    def from_layers(cls, layers: Dict[str, Dict[str, object]]) -> "Options":
        """Inverse of :meth:`layers`; unknown layers or fields raise.

        :data:`RETIRED_OPTIONS` names (options v1–v4) are dropped, and
        a :data:`RETIRED_FUSION` value reads as ``"auto"``.
        """
        known = {f.name for f in fields(cls)}
        values: Dict[str, object] = {}
        for layer, entries in layers.items():
            if layer not in (
                "generation", "schedule", "execution", "persistence", "bist"
            ):
                raise ValueError(f"unknown options layer {layer!r}")
            for name, value in entries.items():
                if name in RETIRED_OPTIONS:
                    continue
                if name not in known:
                    raise ValueError(f"unknown option {name!r} in {layer!r}")
                if name == "fusion" and value in RETIRED_FUSION:
                    value = "auto"
                values[name] = value
        return cls(**values)


def _own_fields(cls, base):
    inherited = {f.name for f in fields(base)}
    return [f for f in fields(cls) if f.name not in inherited]


@dataclass
class ServiceOptions:
    """Host-side knobs of the multi-tenant service (``tip serve``).

    Deliberately *not* part of the :class:`Options` hierarchy: these
    configure the serving host (scheduling, admission control,
    durability location), never the ATPG computation — no field here
    can change any per-fault outcome, and none of them travel on the
    wire.

    Attributes:
        workers: job-queue worker threads draining async campaigns.
        max_queue: queued-job bound; submissions beyond it are refused
            with HTTP 429 + ``Retry-After`` (backpressure).
        jobs_dir: directory for job records and campaign checkpoints;
            ``None`` keeps jobs in memory only (no restart recovery).
        max_sessions: lowered circuits kept in the LRU session cache.
        max_jobs_per_tenant: active (queued + running) jobs one tenant
            may hold at once; ``0`` = unlimited.
    """

    workers: int = 2
    max_queue: int = 32
    jobs_dir: Optional[str] = None
    max_sessions: int = 8
    max_jobs_per_tenant: int = 0

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.max_jobs_per_tenant < 0:
            raise ValueError("max_jobs_per_tenant must be >= 0")
