"""Path sensitization for delay faults.

Sensitizing a target path means assigning the logic values that let a
transition at the path's primary input propagate along the path to its
primary output (paper Section 2).  The assignments depend on the test
class:

**Nonrobust (3-valued):** only final values matter.  Every on-path
signal receives its final value (alternating with the inversion parity
of the traversed gates) and every off-path input of an on-path gate
receives the gate's non-controlling final value.

**Robust (7-valued, Lin & Reddy):** the path input carries a full
rising/falling value; on-path signals carry their final values; the
off-path inputs must be

* *stable* non-controlling where the on-path input transition ends at
  the non-controlling value (a late off-path transition there could
  mask the path's lateness), and
* non-controlling in the final vector (history free) where the on-path
  transition ends at the controlling value.

**XOR-like on-path gates** have no controlling value.  Their off-path
inputs must be fixed (nonrobust: to a known final value; robust: to a
stable value) for the transition to propagate cleanly, but *either*
value works — a side input of 1 simply inverts the polarity of the
propagating transition.  The sensitizers default all sides to 0 (the
structural convention of :func:`repro.circuit.gates.inverts`) and
accept an ``xor_sides`` map to choose other polarities.  Its values
are *lane masks*: side → the lanes where that side is 1, so one call
can sensitize a different polarity combination in every lane (the
on-path final values, and with them the robust side-input rule, then
differ from lane to lane).  The APTPG driver uses this to screen all
of a fault's polarity combinations in one state before it ever
declares an XOR-containing path redundant (see
:mod:`repro.core.aptpg`).

The sensitizer only *emits* assignments; conflicts (e.g. a signal that
is both on-path rising and required stable off-path through
reconvergence) surface later as per-lane conflict bits — such paths
are exactly the unsensitizable ones.

Generation applies them through :meth:`repro.core.state.TpgState.
sensitize`, which assigns their lists one by one on every engine.  The
C generation round (:meth:`repro.core.state.TpgEngine.round`)
sensitizes nonrobust paths itself (``_tpg_sensitize`` in the native
module), assigning exactly what :func:`sensitize_nonrobust` emits in
the order it emits it; these functions stay the oracle it is tested
against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..circuit import Circuit, GateType
from ..circuit.gates import XOR_LIKE
from ..logic import seven_valued
from ..paths import PathDelayFault

Assignment = Tuple[int, Tuple[int, ...]]  # (signal, plane additions)


def xor_side_signals(circuit: Circuit, fault: PathDelayFault) -> List[int]:
    """Off-path inputs of on-path XOR/XNOR gates, unique, in path order.

    These are the free polarity choices of the fault's sensitization:
    each may be fixed to 0 or 1 and both choices propagate the
    transition (with opposite polarity downstream).
    """
    compiled = circuit.compiled()
    sides: List[int] = []
    for position, signal in enumerate(fault.signals):
        if position == 0:
            continue
        if compiled.gate_types[signal] not in XOR_LIKE:
            continue
        on_path_input = fault.signals[position - 1]
        for fanin_signal in compiled.py_fanin[signal]:
            if fanin_signal != on_path_input and fanin_signal not in sides:
                sides.append(fanin_signal)
    return sides


def path_final_values(
    circuit: Circuit,
    fault: PathDelayFault,
    xor_sides: Optional[Dict[int, int]] = None,
    lanes: int = 1,
) -> Tuple[int, ...]:
    """Lane masks, within *lanes*, where each on-path signal ends at 1.

    Like :meth:`PathDelayFault.final_values` but accounting for XOR
    side inputs fixed to 1, each of which flips the propagating
    transition once more.  *xor_sides* maps a side input to the lanes
    where it is 1.  With the default single lane the masks are the
    0/1 final values and ``xor_sides`` values are 0/1 polarities.
    """
    compiled = circuit.compiled()
    sides = xor_sides or {}
    value = lanes if fault.transition.final else 0
    finals = [value]
    signals = fault.signals
    for position in range(1, len(signals)):
        signal = signals[position]
        if compiled.inverting[signal]:
            value ^= lanes
        if sides and compiled.gate_types[signal] in XOR_LIKE:
            on_path_input = signals[position - 1]
            for fanin_signal in compiled.py_fanin[signal]:
                if fanin_signal != on_path_input:
                    value ^= sides.get(fanin_signal, 0) & lanes
        finals.append(value)
    return tuple(finals)


def sensitize_nonrobust(
    circuit: Circuit,
    fault: PathDelayFault,
    lanes: int,
    xor_sides: Optional[Dict[int, int]] = None,
) -> List[Assignment]:
    """3-valued sensitization assignments for *fault* in lane mask *lanes*.

    *xor_sides* maps an XOR side input to the lanes where it is 1.
    """
    compiled = circuit.compiled()
    controlling = compiled.controlling
    fanins = compiled.py_fanin
    sides = xor_sides or {}
    signals = fault.signals
    finals = path_final_values(circuit, fault, sides, lanes)
    assignments: List[Assignment] = [(signals[0], (lanes ^ finals[0], finals[0]))]
    for position in range(1, len(signals)):
        signal = signals[position]
        ones = finals[position]
        assignments.append((signal, (lanes ^ ones, ones)))
        on_path_input = signals[position - 1]
        control = controlling[signal]
        if control is None:  # XOR-like: fix each side to its polarity
            for fanin_signal in fanins[signal]:
                if fanin_signal != on_path_input:
                    ones = sides.get(fanin_signal, 0) & lanes
                    assignments.append((fanin_signal, (lanes ^ ones, ones)))
        else:  # the non-controlling final value
            side = (lanes, 0) if control else (0, lanes)
            for fanin_signal in fanins[signal]:
                if fanin_signal != on_path_input:
                    assignments.append((fanin_signal, side))
    return assignments


def sensitize_robust(
    circuit: Circuit,
    fault: PathDelayFault,
    lanes: int,
    xor_sides: Optional[Dict[int, int]] = None,
) -> List[Assignment]:
    """7-valued sensitization assignments for *fault* in lane mask *lanes*.

    The path input gets the full rising/falling value; on-path internal
    signals get final-value planes only (the transition is the fault
    effect being propagated — its instability is established by the
    off-path conditions, not justified like a required value).
    *xor_sides* maps an XOR side input to the lanes where it is 1; the
    side-input rule is applied lane by lane, since the on-path final
    values differ between lanes of different polarities.
    """
    compiled = circuit.compiled()
    controlling = compiled.controlling
    fanins = compiled.py_fanin
    sides = xor_sides or {}
    signals = fault.signals
    finals = path_final_values(circuit, fault, sides, lanes)

    launch = "R" if fault.transition.final == 1 else "F"
    assignments: List[Assignment] = [
        (signals[0], seven_valued.encode_word(launch, lanes))
    ]
    for position in range(1, len(signals)):
        signal = signals[position]
        ones = finals[position]
        assignments.append((signal, (lanes ^ ones, ones, 0, 0)))  # U0/U1
        on_path_input = signals[position - 1]
        control = controlling[signal]
        if control is None:  # XOR-like: stable at each side's polarity
            for fanin_signal in fanins[signal]:
                if fanin_signal != on_path_input:
                    ones = sides.get(fanin_signal, 0) & lanes
                    assignments.append(
                        (fanin_signal, (lanes ^ ones, ones, lanes, 0))
                    )
            continue
        # non-controlling final value everywhere; stable (S) in the
        # lanes where the on-path input ends non-controlling, final
        # value only (U) where it ends controlling
        on_path_ones = finals[position - 1]
        if control:  # nc = 0
            side = (lanes, 0, lanes ^ on_path_ones, 0)
        else:  # nc = 1
            side = (0, lanes, on_path_ones, 0)
        for fanin_signal in fanins[signal]:
            if fanin_signal != on_path_input:
                assignments.append((fanin_signal, side))
    return assignments


def sensitization_is_trivial(circuit: Circuit, fault: PathDelayFault) -> bool:
    """True when the path is a bare input-to-output wire chain.

    Such paths (every on-path gate is BUF/NOT) have no off-path inputs
    at all: any transition at the input is a test.
    """
    gate_types = circuit.compiled().gate_types
    return all(
        gate_types[s] in (GateType.BUF, GateType.NOT) for s in fault.signals[1:]
    )
