"""`AtpgSession` — one circuit, one compiled kernel, every workload.

The session is the front door of the reproduction: it owns exactly one
frozen circuit plus its lowered kernel form (compiled once, in the
constructor) and exposes each workload as a method behind that shared
substrate:

* :meth:`generate` — engine-mode test generation (an
  unbounded-window campaign),
* :meth:`campaign` — the staged, sharded, checkpointable pipeline,
* :meth:`simulate` — batched PPSFP detection masks,
* :meth:`grade` — pattern-set coverage grading with fault dropping,
* :meth:`bist` — pseudorandom BIST (LFSR pattern slabs, fault-dropping
  coverage curve, MISR golden signature),
* :meth:`paths` — structural path/fault statistics and enumeration.

The service (:mod:`repro.api.service`) is a wire format over these
methods: each ``POST /v1/<verb>`` request is one call on the cached
session of its circuit.

All methods read the one unified :class:`repro.api.Options` model;
per-call keyword overrides are merged over the session defaults, so a
session can carry a house style (``Options(width=64)``) while
individual calls tweak single fields.

Quickstart::

    from repro.api import AtpgSession

    session = AtpgSession.open("c880")
    report = session.generate(test_class="robust")
    print(report.summary())
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..circuit import Circuit
from ..core.patterns import PatternTable, TestPattern
from ..core.results import TpgReport
from ..paths import (
    PathDelayFault,
    TestClass,
    check_cap,
    count_faults,
    count_paths,
    fault_list,
    iter_paths,
    path_length_histogram,
)
from .options import Options
from .resolve import circuit_fingerprint, resolve_circuit, resolve_test_class


class AtpgSession:
    """A long-lived façade over one frozen circuit and its kernel.

    Args:
        circuit: the target circuit; frozen on entry (idempotent) and
            lowered to the compiled kernel exactly once.
        options: session-default :class:`Options` (``None`` = library
            defaults).  Every method merges its per-call overrides
            over these.
    """

    def __init__(self, circuit: Circuit, *, options: Optional[Options] = None):
        circuit.freeze()
        self.circuit = circuit
        self.compiled = circuit.compiled()
        self.options = Options() if options is None else options
        self._fingerprint: Optional[str] = None
        self._simulators: Dict = {}
        # circuit-breaker state: once a kernel fault demotes this
        # session, every later simulate/grade call starts at the
        # demoted tier (sticky until the session is rebuilt)
        self._degrade_level = 0
        self.degrade_events: List[Dict[str, object]] = []

    # ------------------------------------------------------------ builders
    @classmethod
    def open(
        cls,
        spec: str,
        *,
        scale: int = 1,
        options: Optional[Options] = None,
    ) -> "AtpgSession":
        """Open a session from a circuit spec (file/embedded/suite name)."""
        return cls(resolve_circuit(spec, scale), options=options)

    # ------------------------------------------------------------ identity
    @property
    def circuit_hash(self) -> str:
        """Structural fingerprint (the service's session-cache key)."""
        if self._fingerprint is None:
            self._fingerprint = circuit_fingerprint(self.circuit)
        return self._fingerprint

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AtpgSession({self.circuit.name!r}, "
            f"hash={self.circuit_hash[:12]})"
        )

    # ------------------------------------------------------------ helpers
    def _options(self, options: Optional[Options], overrides: Dict) -> Options:
        base = self.options if options is None else options
        return base.merged(**overrides) if overrides else base

    def _faults(
        self,
        faults: Optional[Sequence[PathDelayFault]],
        max_faults: Optional[int],
        strategy: str,
    ) -> List[PathDelayFault]:
        check_cap("max_faults", max_faults)
        if faults is not None:
            return list(faults)
        return fault_list(self.circuit, cap=max_faults, strategy=strategy)

    def _simulator(self, test_class: TestClass, backend: str, fusion: str):
        from ..sim.delay_sim import DelayFaultSimulator  # lazy: import cycle

        key = (test_class, backend, fusion)
        if key not in self._simulators:
            self._simulators[key] = DelayFaultSimulator(
                self.circuit, test_class, backend=backend, fusion=fusion
            )
        return self._simulators[key]

    # ------------------------------------------------------------ breaker
    @property
    def degrade_level(self) -> int:
        """0 = as requested, 1 = numpy/auto, 2 = numpy/interp."""
        return self._degrade_level

    @property
    def degraded(self) -> bool:
        return self._degrade_level > 0

    def resilient_masks(
        self,
        patterns,
        faults: Sequence[PathDelayFault],
        *,
        test_class: TestClass,
        backend: str = "auto",
        fusion: str = "auto",
        flags: bool = False,
    ) -> List:
        """Detection masks behind the runtime degradation chain.

        Tier 0 runs the requested backend/fusion pair — with the
        defaults (``"auto"``/``"auto"``) that is the compiled-C native
        module whenever it loads, and otherwise Python-int codegen up
        to 64 patterns and ``numpy/vector`` beyond; a kernel *fault* —
        anything but the ``ValueError``/``TypeError`` input rejections,
        which no backend change can fix — demotes the session one tier
        and retries the same call: first to the numpy backend, then to
        the interpreted per-gate loop (the oracle every fast path is
        verified against).  Demotion is sticky for the session's
        lifetime and recorded in :attr:`degrade_events` (the service
        surfaces the count as ``degraded_circuits`` in
        ``/v1/metrics``); only a call failing at the last tier
        propagates its exception.  All tiers are bit-identical, so a
        degraded answer is still *the* answer, just slower.  *flags*
        (from :meth:`grade`) reduces each mask to a ``bool``
        (:meth:`repro.sim.DelayFaultSimulator.detection_masks`).
        """
        tiers = [(backend, fusion), ("numpy", "auto"), ("numpy", "interp")]
        level = min(self._degrade_level, len(tiers) - 1)
        while True:
            tier_backend, tier_fusion = tiers[level]
            sim = self._simulator(test_class, tier_backend, tier_fusion)
            try:
                return sim.detection_masks(patterns, list(faults), flags=flags)
            except (ValueError, TypeError):
                raise  # malformed input: no tier can answer it
            except Exception as exc:  # noqa: BLE001 - breaker boundary
                if level >= len(tiers) - 1:
                    raise
                level += 1
                self._degrade_level = max(self._degrade_level, level)
                self.degrade_events.append(
                    {
                        "level": level,
                        "backend": tiers[level][0],
                        "fusion": tiers[level][1],
                        "error": type(exc).__name__,
                        "detail": str(exc),
                    }
                )

    # ------------------------------------------------------------ generate
    def generate(
        self,
        faults: Optional[Sequence[PathDelayFault]] = None,
        *,
        test_class: Union[str, TestClass] = TestClass.NONROBUST,
        options: Optional[Options] = None,
        max_faults: Optional[int] = None,
        strategy: str = "all",
        **overrides,
    ) -> TpgReport:
        """Engine-mode generation over a materialized fault list.

        With ``faults=None`` the structural fault list of the circuit
        is materialized (optionally capped/selected via *max_faults* /
        *strategy*, as the CLI always did).  Runs an unbounded-window
        campaign (:meth:`repro.api.Options.engine_mode`), so per-fault
        statuses equal :meth:`campaign`'s with ``window=None``.
        """
        from ..core.engine import _generate  # lazy: import cycle

        return _generate(
            self.circuit,
            self._faults(faults, max_faults, strategy),
            resolve_test_class(test_class),
            self._options(options, overrides),
        )

    # ------------------------------------------------------------ campaign
    def campaign(
        self,
        *,
        faults: Optional[Sequence[PathDelayFault]] = None,
        universe=None,
        test_class: Union[str, TestClass] = TestClass.NONROBUST,
        options: Optional[Options] = None,
        control=None,
        **overrides,
    ):
        """The staged pipeline: stream → shard → generate → drop.

        Accepts a materialized fault list, a
        :class:`repro.campaign.FaultUniverse`, or neither (the full
        structural universe is streamed).  Returns a
        :class:`repro.campaign.CampaignReport`.  *control* is an
        optional :class:`repro.campaign.CampaignControl` — the
        cancellation/progress hook the service's job queue uses.
        """
        from ..campaign.runner import execute_campaign  # lazy: import cycle

        return execute_campaign(
            self.circuit,
            faults=faults,
            test_class=resolve_test_class(test_class),
            options=self._options(options, overrides),
            universe=universe,
            control=control,
        )

    # ------------------------------------------------------------ bist
    def bist(
        self,
        *,
        fault_model: str = "stuck_at",
        faults: Optional[Sequence] = None,
        test_class: Union[str, TestClass] = TestClass.NONROBUST,
        options: Optional[Options] = None,
        max_faults: Optional[int] = None,
        control=None,
        **overrides,
    ):
        """Pseudorandom BIST: LFSR patterns, coverage curve, signature.

        Builds the LFSR/MISR pair from the options' ``bist`` layer,
        streams windowed packed pattern slabs through the fault
        simulator with fault dropping, and compacts the fault-free
        responses into the golden signature.  *fault_model* is
        ``"stuck_at"`` (single-vector patterns, *test_class* unused)
        or ``"path_delay"`` (consecutive LFSR states as launch/capture
        pairs graded under *test_class*).  With ``faults=None`` the
        circuit's full structural fault list of the chosen model is
        graded (optionally capped by *max_faults*).  Returns a
        :class:`repro.bist.BistReport`; *control* is the same
        cancellation/progress hook :meth:`campaign` takes.
        """
        from ..bist import LFSR, MISR, run_bist  # lazy: import cycle
        from ..bist.report import BistReport

        check_cap("max_faults", max_faults)
        fault_model = fault_model.replace("-", "_")
        opts = self._options(options, overrides)
        opts.validate()
        resolved_class = resolve_test_class(test_class)
        if fault_model == "stuck_at":
            if faults is None:
                from ..core.stuck_at import all_stuck_at_faults

                fault_set = all_stuck_at_faults(self.circuit)
                if max_faults is not None:
                    fault_set = fault_set[:max_faults]
            else:
                fault_set = list(faults)
        else:
            fault_set = self._faults(faults, max_faults, "all")
        lfsr = LFSR(
            opts.bist_width,
            kind=opts.bist_kind,
            polynomial=opts.bist_polynomial,
            seed=opts.bist_seed,
            phase_spread=opts.bist_phase_spread,
        )
        misr = MISR(opts.misr_width)
        result = run_bist(
            self.circuit,
            lfsr,
            misr,
            fault_set,
            fault_model=fault_model,
            test_class=resolved_class,
            window=opts.bist_window,
            max_patterns=opts.bist_max_patterns,
            target_coverage=opts.bist_target_coverage,
            backend=opts.sim_backend,
            fusion=opts.fusion,
            control=control,
        )
        return BistReport(
            circuit_name=self.circuit.name,
            fault_model=fault_model,
            test_class=resolved_class if fault_model == "path_delay" else None,
            lfsr_width=lfsr.width,
            lfsr_kind=lfsr.kind,
            lfsr_polynomial=lfsr.polynomial,
            lfsr_seed=lfsr.seed,
            phase_spread=lfsr.phase_spread,
            misr_width=misr.width,
            misr_polynomial=misr.polynomial,
            signature=result.signature,
            aliasing_probability=misr.aliasing_probability,
            faults=result.faults,
            detected=result.detected,
            patterns_applied=result.patterns_applied,
            windows=result.windows,
            stop_reason=result.stop_reason,
            max_patterns=opts.bist_max_patterns,
            target_coverage=opts.bist_target_coverage,
            curve=result.curve,
        )

    # ------------------------------------------------------------ simulate
    def simulate(
        self,
        patterns: Sequence[TestPattern],
        faults: Sequence[PathDelayFault],
        *,
        test_class: Union[str, TestClass] = TestClass.NONROBUST,
        backend: str = "auto",
        fusion: str = "auto",
    ) -> List[int]:
        """Batched PPSFP: per-fault lane masks, aligned with *faults*.

        Bit ``k`` of ``masks[i]`` is set iff ``patterns[k]`` detects
        ``faults[i]`` under the session circuit and *test_class*.  The
        simulator for each (class, backend, fusion) triple is built
        once per session and reused across calls.  *backend* accepts
        ``"auto"``/``"int"``/``"numpy"``/``"native"`` — ``auto`` runs
        the compiled-C native module whenever it loads, an explicit
        ``native`` falls back to numpy (with a one-time warning)
        without it; every backend is bit-identical.

        Runs behind the session circuit breaker
        (:meth:`resilient_masks`): a kernel fault demotes the session
        to a slower bit-identical tier instead of failing the call.
        """
        return self.resilient_masks(
            patterns,
            faults,
            test_class=resolve_test_class(test_class),
            backend=backend,
            fusion=fusion,
        )

    # ------------------------------------------------------------ grade
    def grade(
        self,
        patterns: Union[Sequence[TestPattern], PatternTable],
        faults: Sequence[PathDelayFault],
        *,
        test_class: Union[str, TestClass] = TestClass.NONROBUST,
        backend: str = "auto",
        fusion: str = "auto",
        strength: bool = False,
    ) -> Dict[str, object]:
        """Grade a pattern set: which faults does it cover?

        Returns a flat dict (the ``repro/grade-report`` wire shape
        minus the envelope): fault/detected counts, the coverage
        fraction, and an index-aligned ``detected_flags`` list.

        With ``strength=True`` the batch is additionally graded
        through the hazard-aware 10-valued calculus
        (:func:`repro.sim.delay_sim.strength_masks_all`, honoring the
        same *backend*/*fusion* selection): the report gains a
        ``strengths`` list — per fault, the strongest class in which
        any pattern detects it (``"hazard_free_robust"`` ⊂
        ``"robust"`` ⊂ ``"nonrobust"``, or ``None``) — and the
        aggregated ``strength_counts``.

        *patterns* may be a :class:`repro.core.patterns.PatternTable`,
        packed from its row columns (one ``pack_bits`` over V1 and V2
        together), or a pre-packed :class:`repro.kernel.PackedPatterns`;
        a list of :class:`TestPattern` objects is read in C straight
        into lane planes (:func:`repro.kernel.native.read_pattern_planes`).
        Without *strength* the walk asks only whether each fault is
        detected, so no mask rows are built.
        """
        faults = list(faults)
        if isinstance(patterns, PatternTable):
            patterns = patterns.packed() if len(patterns) else []
        resolved_class = resolve_test_class(test_class)
        if strength:
            from ..sim.delay_sim import strength_masks_all  # lazy: cycle

            # one 10-valued pass serves both jobs: its first four
            # planes are the 7-valued planes and the nonrobust/robust
            # walk conditions are identical, so the requested class's
            # detection masks fall out of the strength triples
            triples = strength_masks_all(
                self.circuit, patterns, faults, backend=backend, fusion=fusion
            )
            robust_class = resolved_class is TestClass.ROBUST
            flags = [bool(t[1] if robust_class else t[0]) for t in triples]
        else:
            flags = self.resilient_masks(
                patterns,
                faults,
                test_class=resolved_class,
                backend=backend,
                fusion=fusion,
                flags=True,
            )
        detected = sum(flags)
        report: Dict[str, object] = {
            "circuit": self.circuit.name,
            "test_class": resolved_class.value,
            "patterns": len(patterns),
            "faults": len(faults),
            "detected": detected,
            "coverage": detected / len(faults) if faults else 1.0,
            "detected_flags": flags,
        }
        if strength:
            strengths = []
            counts = {"hazard_free_robust": 0, "robust": 0, "nonrobust": 0}
            for nonrobust, robust, strong in triples:
                if strong:
                    label = "hazard_free_robust"
                elif robust:
                    label = "robust"
                elif nonrobust:
                    label = "nonrobust"
                else:
                    label = None
                strengths.append(label)
                if label is not None:
                    counts[label] += 1
            report["strengths"] = strengths
            report["strength_counts"] = counts
        return report

    # ------------------------------------------------------------ paths
    def paths(
        self,
        *,
        histogram: bool = False,
        limit: Optional[int] = None,
    ) -> Dict[str, object]:
        """Structural statistics: path/fault counts, optional extras.

        With *histogram*, adds the path-length histogram as sorted
        ``[length, count]`` pairs; with *limit*, adds the first
        *limit* paths as dash-joined signal-name strings (the
        ``repro/paths-report`` wire shape minus the envelope).  A
        negative *limit* is a ``ValueError``.
        """
        check_cap("limit", limit)
        result: Dict[str, object] = {
            "circuit": self.circuit.name,
            "stats": self.circuit.stats(),
            "paths": count_paths(self.circuit),
            "faults": count_faults(self.circuit),
        }
        if histogram:
            result["histogram"] = [
                [length, count]
                for length, count in sorted(
                    path_length_histogram(self.circuit).items()
                )
            ]
        if limit:
            result["listed"] = [
                "-".join(self.circuit.signal_name(s) for s in path)
                for path in iter_paths(self.circuit, max_paths=limit)
            ]
        return result
