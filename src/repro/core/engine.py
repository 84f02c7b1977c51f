"""The combined bit-parallel generator — FPTPG + APTPG (Section 3.3).

"FPTPG and APTPG complete one another excellently": the engine first
sweeps the fault list in batches of ``L`` with FPTPG, which settles
the easy-to-test and provably redundant faults at full lane
utilisation; faults that would need backtracking are deferred and
afterwards examined one at a time with APTPG, whose lanes explore
``2^log2(L)`` pattern alternatives in parallel.

As in the paper, bit-parallel fault simulation runs after every round
of generated test patterns: collaterally detected pending faults are
dropped (status ``SIMULATED``), which is where a large part of the
practical speed-up comes from.

Since the campaign refactor this module is a thin façade: the engine
*is* a :func:`repro.campaign.run_campaign` over a pre-materialized
fault universe with an unbounded window.  The campaign's round
schedule (``DEFAULT_SHARDS`` lane-width batches per drop round) is
shared verbatim, so such a campaign produces bit-identical per-fault
statuses to this serial engine — that equivalence is asserted by
``tests/test_campaign.py``.

Note the drop *cadence* this implies: PPSFP dropping runs after every
round of ``DEFAULT_SHARDS`` batches (and after every round of
``DEFAULT_SHARDS`` APTPG faults), not after every single batch as the
seed engine did.  Batches inside a round are composed before any of
the round's drops apply — that independence is precisely what lets
rounds shard across processes without changing results.  Per-fault
TESTED/SIMULATED splits (and therefore pattern counts) can differ
from the pre-campaign engine on drop-heavy workloads; the detected
fault set, redundancy verdicts, and the Tables 5/6 methodology are
unaffected, and compaction recovers the extra patterns.

Since the ``repro.api`` front door, both public names here are
**deprecated compatibility shims**: :class:`TpgOptions` is the
generation layer of the unified :class:`repro.api.Options` model and
:func:`generate_tests` delegates to the same engine-mode campaign
that :meth:`repro.api.AtpgSession.generate` runs.  They keep working
(per-fault statuses are bit-identical) but emit ``DeprecationWarning``.

The same engine with ``width=1`` *is* the single-bit reference
generator of the paper's Tables 5/6 (see
:mod:`repro.core.single_bit`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

from ..api.options import GenerationOptions, Options
from ..circuit import Circuit
from ..paths import PathDelayFault, TestClass
from .results import TpgReport


@dataclass
class TpgOptions(GenerationOptions):
    """Deprecated alias for the generation layer of ``repro.api.Options``.

    Same fields, same defaults, same semantics — construction warns
    and every consumer lifts it into the unified model with
    :meth:`repro.api.Options.adopt`.  Use
    ``repro.api.Options(width=..., ...)`` in new code.
    """

    def __post_init__(self) -> None:
        warnings.warn(
            "TpgOptions is deprecated; use repro.api.Options "
            "(the unified layered options model)",
            DeprecationWarning,
            stacklevel=2,
        )


def _generate(
    circuit: Circuit,
    faults: Sequence[PathDelayFault],
    test_class: TestClass,
    options: Options,
) -> TpgReport:
    """The engine implementation: an engine-mode campaign, no warning.

    Shared by the :func:`generate_tests` shim and
    :meth:`repro.api.AtpgSession.generate`, so both produce
    bit-identical per-fault statuses by construction.
    """
    # Imported lazily: the campaign scheduler imports the core
    # generation modules, so a top-level import here would be circular.
    from ..campaign.runner import execute_campaign

    options = options.engine_mode()
    if not faults:
        return TpgReport(
            circuit_name=circuit.name,
            test_class=test_class,
            width=options.width,
        )
    report = execute_campaign(
        circuit, faults=list(faults), test_class=test_class, options=options
    )
    return report.as_tpg_report()


def generate_tests(
    circuit: Circuit,
    faults: Sequence[PathDelayFault],
    test_class: TestClass = TestClass.NONROBUST,
    options: Optional[TpgOptions] = None,
) -> TpgReport:
    """Generate a test set for *faults*; returns the full report.

    Fault order is preserved in the report.  Each fault ends in one of
    the :class:`FaultStatus` states; ``DEFERRED`` only survives when
    APTPG is disabled by the options.

    .. deprecated:: 1.2.0
        Use :meth:`repro.api.AtpgSession.generate`, which runs the
        identical engine-mode campaign behind one session-owned
        compiled circuit.
    """
    warnings.warn(
        "generate_tests is deprecated; use repro.api.AtpgSession.generate",
        DeprecationWarning,
        stacklevel=2,
    )
    return _generate(circuit, faults, test_class, Options.adopt(options))
