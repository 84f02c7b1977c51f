#!/usr/bin/env python
"""Robust vs nonrobust tests, demonstrated with the timing oracle.

The paper generates both classes; this example makes the difference
*observable*.  For the path b-p-x (rising) of the example circuit the
off-path input ``s`` must be 1:

* a pattern holding ``s`` stable at 1 is a **robust** test — it keeps
  detecting the slow path no matter how the other gate delays vary;
* a pattern where ``s`` rises together with the path (d rising) only
  satisfies the **nonrobust** condition — the 7-valued logic cannot
  prove stability, and the classification matters in silicon.

The event-driven timing simulator then slows the target path and
samples the output over randomized delay assignments.

Usage::

    python examples/robust_vs_nonrobust.py
"""

from repro.api import AtpgSession
from repro.circuit.library import paper_example
from repro.core import TestPattern
from repro.paths import PathDelayFault, TestClass, Transition, all_faults
from repro.sim import DelayFaultSimulator, robust_timing_holds, timing_detects


def classify_two_patterns() -> None:
    circuit = paper_example()
    fault = PathDelayFault.from_names(circuit, ("b", "p", "x"), Transition.RISING)
    robust_sim = DelayFaultSimulator(circuit, TestClass.ROBUST)
    nonrobust_sim = DelayFaultSimulator(circuit, TestClass.NONROBUST)

    # inputs are (a, b, c, d)
    stable_side = TestPattern((0, 0, 0, 1), (0, 1, 0, 1), fault)  # d stable 1
    rising_side = TestPattern((0, 0, 0, 0), (0, 1, 0, 1), fault)  # d rises too

    print(f"Target fault: {fault.describe(circuit)}")
    for label, pattern in (("s stable", stable_side), ("s rising", rising_side)):
        robust = robust_sim.detects(pattern, fault)
        nonrobust = nonrobust_sim.detects(pattern, fault)
        print(
            f"  {label:9s} {pattern.describe(circuit)}"
            f" -> robust: {robust}, nonrobust: {nonrobust}"
        )
    print()

    print("Timing-oracle check (path slowed, delays randomized):")
    for label, pattern in (("s stable", stable_side), ("s rising", rising_side)):
        nominal = timing_detects(circuit, pattern, fault)
        randomized = robust_timing_holds(circuit, pattern, fault, samples=32, seed=7)
        print(
            f"  {label:9s} detects at nominal delays: {nominal}; "
            f"under all 32 randomized delay maps: {randomized}"
        )
    print()


def class_statistics() -> None:
    circuit = paper_example()
    faults = all_faults(circuit)
    session = AtpgSession(circuit)
    nonrobust = session.generate(faults, test_class=TestClass.NONROBUST)
    robust = session.generate(faults, test_class=TestClass.ROBUST)
    print("Whole-circuit comparison (robust detection implies nonrobust):")
    print(f"  faults            : {len(faults)}")
    print(f"  nonrobust testable: {nonrobust.n_tested}")
    print(f"  robust testable   : {robust.n_tested}")
    only = sum(
        1
        for nr, r in zip(nonrobust.records, robust.records)
        if nr.is_detected and not r.is_detected
    )
    print(f"  nonrobust-only    : {only}")


def main() -> None:
    classify_two_patterns()
    class_statistics()


if __name__ == "__main__":
    main()
