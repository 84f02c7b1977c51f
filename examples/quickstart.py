#!/usr/bin/env python
"""Quickstart: generate path delay fault tests through the front door.

Runs the full pipeline on the ISCAS85 c17 benchmark via
``repro.api.AtpgSession`` — one session owns the circuit and its
compiled kernel, and every workload (generation, simulation, grading,
path statistics) runs behind it.

Usage::

    python examples/quickstart.py
"""

from repro.api import AtpgSession, Options
from repro.analysis import render_table
from repro.paths import TestClass
from repro.sim import DelayFaultSimulator


def main() -> None:
    # Options(fusion="auto"), the default, runs the fastest tier: the
    # compiled-C native module where it loads, else the Python fast
    # paths.  Options(fusion="interp") runs the per-gate oracle loop
    # instead — results are bit-identical either way.
    session = AtpgSession.open("c17", options=Options(fusion="auto"))
    c17 = session.circuit
    print(f"Circuit: {c17.name} — {c17.stats()}")
    print(f"Structural paths: {session.paths()['paths']}")

    from repro.paths import all_faults

    faults = all_faults(c17)
    print(f"Path delay faults (2 transitions per path): {len(faults)}\n")

    rows = []
    for test_class in (TestClass.NONROBUST, TestClass.ROBUST):
        report = session.generate(faults, test_class=test_class)
        rows.append(report.summary())

        # never trust a generator: re-verify with the simulator
        simulator = DelayFaultSimulator(c17, test_class)
        for record in report.records:
            if record.pattern is not None:
                assert simulator.detects(record.pattern, record.fault)

        # ...or grade the whole set in one batched PPSFP pass
        grade = session.grade(report.patterns, faults, test_class=test_class)
        print(
            f"{test_class.value}: {grade['detected']}/{grade['faults']} "
            f"faults covered by {grade['patterns']} patterns"
        )

    print()
    print(render_table(rows, title="ATPG summary (both test classes)"))

    print("\nFirst five robust patterns:")
    report = session.generate(faults, test_class=TestClass.ROBUST)
    for record in report.records[:5]:
        if record.pattern is not None:
            print(f"  {record.pattern.describe(c17)}")


if __name__ == "__main__":
    main()
