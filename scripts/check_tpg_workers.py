"""Worker invariance on the benchmark's generation input.

Runs the ``tpg`` workload's input — c1355-like x2, its first 2048
structural faults (``strategy="all"``), nonrobust, width 32 — through
``AtpgSession.campaign`` with ``workers=1`` and ``workers=2``, and
exits non-zero unless both runs settle every fault the same way,
return the same test set, and reproduce the pinned counts, search
counters and digest below.  Pool workers unpickle the circuit and
rebuild its memoized kernel and implication tables, which the small
circuits of the test suite barely exercise.

The digest pins the statuses and the test set bit for bit; the search
counters pin how the search got there.  The same constants hold on the
C TPG engine and on the Python one (``CC=/nonexistent`` with an empty
``REPRO_NATIVE_CACHE``), so one set of values checks both engines
against each other — the C sensitizer and the C decision step against
their Python oracles among them.

    PYTHONPATH=src python scripts/check_tpg_workers.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter

from repro.api import AtpgSession, resolve
from repro.core.state import tpg_tier
from repro.paths import fault_list

#: the statuses and test-set size this input settles to
EXPECTED = {"tested": 366, "redundant": 722, "simulated": 960, "patterns": 366}
#: SHA-256 of the JSON of [statuses, [[v1, v2] per pattern]] (see digest)
EXPECTED_DIGEST = "463c6d7636840c8c049f58a6e33c70b8887ed7e9f03683c4f7a2bc53d70c304d"
#: the campaign's search counters, for every worker count
EXPECTED_SEARCH = {
    "rounds": 437,
    "decisions": 1660,
    "backtracks": 463,
    "implication_passes": 303022,
}


def run(session: AtpgSession, faults, workers: int):
    report = session.campaign(
        faults=faults, test_class="nonrobust", width=32, workers=workers
    )
    statuses = [report.statuses[i].value for i in sorted(report.statuses)]
    patterns = [(p.v1, p.v2) for p in report.patterns]
    search = {name: getattr(report.stats, name) for name in EXPECTED_SEARCH}
    return statuses, patterns, search


def digest(statuses, patterns) -> str:
    """SHA-256 of ``json.dumps([statuses, [[v1, v2] per pattern]])``."""
    rows = [[list(v1), list(v2)] for v1, v2 in patterns]
    return hashlib.sha256(json.dumps([statuses, rows]).encode()).hexdigest()


def main() -> int:
    circuit = resolve.resolve_circuit("c1355", 2)
    session = AtpgSession(circuit)
    faults = fault_list(circuit, cap=2048, strategy="all")
    serial = run(session, faults, workers=1)
    pooled = run(session, faults, workers=2)
    counts = dict(Counter(serial[0]), patterns=len(serial[1]))
    print(f"workers=1 on the {tpg_tier(32)} TPG engine: {counts}, {serial[2]}")
    errors = []
    if digest(*serial[:2]) != EXPECTED_DIGEST:
        errors.append(f"digest {digest(*serial[:2])} != expected {EXPECTED_DIGEST}")
    if pooled[0] != serial[0]:
        errors.append("workers=2 settled faults differently from workers=1")
    if pooled[1] != serial[1]:
        errors.append("workers=2 returned a different test set from workers=1")
    for name, value in EXPECTED.items():
        if counts.get(name) != value:
            errors.append(f"{name}: {counts.get(name)} != expected {value}")
    for workers, (_, _, search) in ((1, serial), (2, pooled)):
        for name, value in EXPECTED_SEARCH.items():
            if search[name] != value:
                errors.append(
                    f"workers={workers} {name}: {search[name]} != expected {value}"
                )
    for message in errors:
        print(f"FAIL {message}")
    if not errors:
        print(
            "ok: workers=1 and workers=2 agree and match the expected "
            "counts, search counters and digest"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
