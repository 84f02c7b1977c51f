"""repro — Bit-Parallel Test Pattern Generation for Path Delay Faults.

A production-quality reproduction of Henftling & Wittmann (DATE 1995):
bit-parallel processing at all stages of robust and nonrobust test
pattern generation for path delay faults, combining fault-parallel
(FPTPG) and alternative-parallel (APTPG) generation, together with
every substrate the paper's evaluation depends on — circuit model,
ISCAS .bench parsing, path enumeration/counting, multi-valued logics,
PPSFP delay fault simulation, an event-driven timing oracle, and
BDD-based / structural comparison baselines.

Quickstart — the front door is :class:`repro.api.AtpgSession`::

    from repro.api import AtpgSession, Options

    session = AtpgSession.open("c17")          # one circuit, compiled once
    report = session.generate(test_class="robust")
    print(report.summary())

    # same session, other workloads:
    campaign = session.campaign(window=4096)
    coverage = session.grade(report.patterns, faults=[...])
    stats = session.paths(histogram=True)

Every artifact (faults, patterns, circuits, reports, checkpoints)
round-trips through one versioned JSON wire format
(:mod:`repro.api.serde` / :mod:`repro.api.schemas`), and the same
session layer runs behind the ``tip serve`` HTTP endpoint
(:mod:`repro.api.service`).

The pre-1.2 shims (``generate_tests``, ``run_campaign``, ``TpgOptions``,
``CampaignOptions``) are gone; :func:`generate_tests_single_bit` is the
paper's single-bit reference generator (Tables 5/6).
"""

#: The public surface: this list is the single source of truth — every
#: name here is importable from ``repro`` and nothing else is public.
__all__ = [
    # the front door
    "api",
    "AtpgService",
    "AtpgSession",
    "Options",
    # substrates
    "campaign",
    "circuit",
    "core",
    "logic",
    "paths",
    "sim",
    # core model types
    "Circuit",
    "CircuitBuilder",
    "FaultStatus",
    "FaultUniverse",
    "GateType",
    "PathDelayFault",
    "TestClass",
    "TestPattern",
    "TpgReport",
    "Transition",
    "CampaignReport",
    # functional entry points
    "all_faults",
    "count_paths",
    "generate_tests_single_bit",
    "load_bench",
    "parse_bench",
]

from . import api, campaign, circuit, core, logic, paths, sim
from .api import AtpgService, AtpgSession, Options
from .campaign import CampaignReport, FaultUniverse
from .circuit import Circuit, CircuitBuilder, GateType, load_bench, parse_bench
from .core import (
    FaultStatus,
    TestPattern,
    TpgReport,
    generate_tests_single_bit,
)
from .paths import PathDelayFault, TestClass, Transition, all_faults, count_paths

__version__ = "1.7.0"

# __all__ is authoritative: fail fast (at import time, i.e. in every
# test run) if it ever drifts from what the module actually binds.
_missing = [name for name in __all__ if name not in globals()]
if _missing:
    raise ImportError(f"repro.__all__ names not bound: {_missing}")
del _missing
