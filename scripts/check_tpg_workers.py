"""Worker invariance on the benchmark's generation input.

Runs the ``tpg`` workload's input — c1355-like x2, its first 2048
structural faults (``strategy="all"``), nonrobust, width 32 — through
``AtpgSession.campaign`` with ``workers=1`` and ``workers=2``, and
exits non-zero unless both runs settle every fault the same way,
return the same test set, and reproduce the pinned counts below.
Pool workers unpickle the circuit and rebuild its memoized kernel and
implication tables, which the small circuits of the test suite barely
exercise.

    PYTHONPATH=src python scripts/check_tpg_workers.py
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.api import AtpgSession, resolve
from repro.paths import fault_list

#: the statuses and test-set size this input settles to
EXPECTED = {"tested": 366, "redundant": 722, "simulated": 960, "patterns": 366}


def run(session: AtpgSession, faults, workers: int):
    report = session.campaign(
        faults=faults, test_class="nonrobust", width=32, workers=workers
    )
    statuses = [report.statuses[i].value for i in sorted(report.statuses)]
    patterns = [(p.v1, p.v2) for p in report.patterns]
    return statuses, patterns


def main() -> int:
    circuit = resolve.resolve_circuit("c1355", 2)
    session = AtpgSession(circuit)
    faults = fault_list(circuit, cap=2048, strategy="all")
    serial = run(session, faults, workers=1)
    pooled = run(session, faults, workers=2)
    counts = dict(Counter(serial[0]), patterns=len(serial[1]))
    print(f"workers=1: {counts}")
    errors = []
    if pooled[0] != serial[0]:
        errors.append("workers=2 settled faults differently from workers=1")
    if pooled[1] != serial[1]:
        errors.append("workers=2 returned a different test set from workers=1")
    for name, value in EXPECTED.items():
        if counts.get(name) != value:
            errors.append(f"{name}: {counts.get(name)} != expected {value}")
    for message in errors:
        print(f"FAIL {message}")
    if not errors:
        print("ok: workers=1 and workers=2 agree and match the expected counts")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
