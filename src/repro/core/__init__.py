"""The paper's contribution: bit-parallel path delay fault ATPG.

Public API:

* :func:`run_fptpg` / :func:`run_aptpg` — the two modes of the
  combined engine (Section 3.3; :meth:`repro.api.AtpgSession.generate`
  runs the combination),
* :func:`generate_tests_single_bit` — the single-bit reference
  generator of Tables 5/6,
* :class:`TestPattern`, :class:`TpgReport`, :class:`FaultStatus` —
  results,
* :class:`TpgState` with :data:`THREE_VALUED` / :data:`SEVEN_VALUED`
  — the word-level state and the pluggable logic algebras.
"""

from .state import SEVEN_VALUED, THREE_VALUED, Algebra, TpgState
from .controllability import Controllability, compute_controllability
from .backtrace import PiObjective, backtrace
from .sensitize import (
    sensitization_is_trivial,
    sensitize_nonrobust,
    sensitize_robust,
)
from .patterns import TestPattern, TestSet, extract_pattern
from .results import FaultRecord, FaultStatus, TpgReport
from .fptpg import FptpgOutcome, run_fptpg
from .aptpg import AptpgOutcome, run_aptpg
from .single_bit import generate_tests_single_bit, single_bit_options
from .compaction import (
    compaction_report,
    greedy_compaction,
    reverse_order_compaction,
)
from .stuck_at import (
    StuckAtFault,
    StuckAtReport,
    StuckAtStatus,
    all_stuck_at_faults,
    generate_stuck_at_tests,
)

__all__ = [
    "Algebra",
    "AptpgOutcome",
    "Controllability",
    "FaultRecord",
    "FaultStatus",
    "FptpgOutcome",
    "PiObjective",
    "SEVEN_VALUED",
    "StuckAtFault",
    "StuckAtReport",
    "StuckAtStatus",
    "THREE_VALUED",
    "TestPattern",
    "TestSet",
    "TpgReport",
    "TpgState",
    "all_stuck_at_faults",
    "backtrace",
    "compaction_report",
    "compute_controllability",
    "extract_pattern",
    "generate_stuck_at_tests",
    "generate_tests_single_bit",
    "greedy_compaction",
    "reverse_order_compaction",
    "run_aptpg",
    "run_fptpg",
    "sensitization_is_trivial",
    "sensitize_nonrobust",
    "sensitize_robust",
    "single_bit_options",
]
