"""The seed's object-graph PPSFP path, preserved as a reference.

Before the compiled kernel existed, PPSFP re-walked the
:class:`repro.circuit.Circuit` object graph on every call: per-gate
``Gate`` attribute lookups, ``topological_order()`` iteration, and
Python-int planes limited to one machine word per batch.  That
implementation lives on here, verbatim, as an oracle: the test suite
cross-checks the kernel-backed simulators in
:mod:`repro.sim.delay_sim` against it lane for lane.

Do not "optimize" this module; its value is being the slow, obviously
faithful baseline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..circuit import Circuit, controlling_value
from ..logic import seven_valued
from ..logic.words import mask_for
from ..paths import PathDelayFault, TestClass
from .delay_sim import PatternLike, Planes, pack_patterns


def simulate_planes_reference(
    circuit: Circuit, patterns: Sequence[PatternLike]
) -> Tuple[List[Planes], int]:
    """Seed forward 7-valued simulation over the circuit object graph."""
    input_planes, width = pack_patterns(circuit, patterns)
    if width == 0:
        return [], 0
    mask = mask_for(width)
    values: List[Planes] = [(0, 0, 0, 0)] * circuit.num_signals
    for planes, pi in zip(input_planes, circuit.inputs):
        values[pi] = planes
    for index in circuit.topological_order():
        gate = circuit.gates[index]
        if gate.is_input:
            continue
        ins = [values[f] for f in gate.fanin]
        values[index] = seven_valued.forward(gate.gate_type, ins, mask)  # type: ignore[assignment]
    return values, width


def detection_mask_reference(
    circuit: Circuit,
    fault: PathDelayFault,
    values: Sequence[Planes],
    width: int,
    test_class: TestClass,
) -> int:
    """Seed per-fault detection conditions over the object graph."""
    mask = mask_for(width)

    z, o, s, i = values[fault.input_signal]
    want_final_one = fault.transition.final == 1
    detected = i & (o if want_final_one else z)

    robust = test_class is TestClass.ROBUST
    for position, signal in enumerate(fault.signals):
        if not detected:
            break
        if position == 0:
            continue
        gate = circuit.gates[signal]
        on_path_input = fault.signals[position - 1]
        dz, do, _ds, _di = values[on_path_input]
        control = controlling_value(gate.gate_type)
        for fanin_signal in gate.fanin:
            if fanin_signal == on_path_input:
                continue
            fz, fo, fs, fi = values[fanin_signal]
            if control is None:
                if robust:
                    detected &= fs
                continue
            nc = 1 - control
            has_nc_final = fo if nc == 1 else fz
            detected &= has_nc_final
            if robust:
                on_nc = do if nc == 1 else dz
                detected &= fs | ~on_nc
    return detected & mask


def detected_faults_reference(
    circuit: Circuit,
    patterns: Sequence[PatternLike],
    faults: Iterable[PathDelayFault],
    test_class: TestClass,
) -> Dict[PathDelayFault, int]:
    """Seed PPSFP: one object-graph pass + per-fault int-plane checks."""
    values, width = simulate_planes_reference(circuit, patterns)
    if width == 0:
        return {fault: 0 for fault in faults}
    return {
        fault: detection_mask_reference(circuit, fault, values, width, test_class)
        for fault in faults
    }
