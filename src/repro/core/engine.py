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
*is* a :func:`repro.campaign.execute_campaign` over a pre-materialized
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

:meth:`repro.api.AtpgSession.generate` is its front door.

The same engine with ``width=1`` *is* the single-bit reference
generator of the paper's Tables 5/6 (see
:mod:`repro.core.single_bit`).
"""

from __future__ import annotations

from typing import Sequence

from ..api.options import Options
from ..circuit import Circuit
from ..paths import PathDelayFault, TestClass
from .results import TpgReport


def _generate(
    circuit: Circuit,
    faults: Sequence[PathDelayFault],
    test_class: TestClass,
    options: Options,
) -> TpgReport:
    """The engine: an engine-mode campaign over *faults*.

    Shared by :meth:`repro.api.AtpgSession.generate` and the
    single-bit reference generator
    (:func:`repro.core.single_bit.generate_tests_single_bit`).
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

