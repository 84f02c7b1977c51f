#!/usr/bin/env python
"""Working with ISCAS ``.bench`` netlists end to end.

Writes a small sequential netlist to disk, loads it back (flip-flops
are cut into pseudo inputs/outputs — "only the combinational part is
considered", as the paper does for the ISCAS89 circuits), runs the
bit-parallel generator, and emits the test set.

Usage::

    python examples/bench_file_workflow.py
"""

import tempfile
from pathlib import Path

from repro.analysis import render_table
from repro.api import AtpgSession
from repro.circuit import load_bench, write_bench
from repro.paths import TestClass, all_faults, count_paths

SEQUENTIAL_BENCH = """\
# A tiny sequential design: 2-bit counter-ish next-state logic
INPUT(enable)
INPUT(clear)
OUTPUT(rollover)
q0 = DFF(d0)
q1 = DFF(d1)
nclear = NOT(clear)
t0 = XOR(q0, enable)
d0 = AND(t0, nclear)
carry = AND(q0, enable)
t1 = XOR(q1, carry)
d1 = AND(t1, nclear)
rollover = AND(q0, q1, enable)
"""


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counter.bench"
        path.write_text(SEQUENTIAL_BENCH)

        circuit = load_bench(path)
        input_names = [circuit.signal_name(i) for i in circuit.inputs]
        output_names = [circuit.signal_name(o) for o in circuit.outputs]
        print(f"Loaded {circuit.name}: {circuit.stats()}")
        print(f"  pseudo inputs  (incl. flip-flop outputs): {input_names}")
        print(f"  pseudo outputs (incl. flip-flop inputs) : {output_names}")
        print(f"  structural paths: {count_paths(circuit)}\n")

        faults = all_faults(circuit)
        report = AtpgSession(circuit).generate(faults, test_class=TestClass.ROBUST)
        print(render_table([report.summary()], title="Robust ATPG"))

        print("\nGenerated two-vector tests:")
        for record in report.records:
            if record.pattern is not None:
                print(f"  {record.pattern.describe(circuit)}")

        # the circuit round-trips through the writer unchanged
        again = load_bench(path)
        assert write_bench(again) == write_bench(circuit)
        print("\n.bench round-trip: OK")


if __name__ == "__main__":
    main()
