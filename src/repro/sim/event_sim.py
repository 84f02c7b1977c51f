"""Event-driven timing simulation with injectable path slowdowns.

This simulator is the *validation oracle* of the reproduction (it has
no counterpart in the paper): it executes a two-vector test against a
circuit with explicit delays and answers whether the sampled output is
wrong — i.e. whether the test actually catches the slow path.

Semantics follow the paper's Section 2 hardware model: the first
vector V1 is applied long before time 0 (all signals settled), the
second vector V2 switches the inputs at time 0, and the outputs are
sampled at the clock period ``Tc``.  Gates have transport delays, so
hazards propagate — which is what makes robustness observable.

**Fault injection.**  A path delay fault is a *lumped* extra delay on
the target path.  Injecting it into a shared on-path gate would slow
sibling paths through that gate as well and can even suppress the
propagating transition (e.g. a pulse that shifts entirely past the
sampling point), which is a different fault model (gate delay faults).
The faithful realization is to delay one *edge* of the path — the
connection from the path's input to its first gate — which slows
exactly the paths having that edge as a prefix.  The simulator
therefore supports per-edge extra delays alongside per-gate delays.

**Oracle guarantees checked by the test-suite:**

* a *nonrobust* test must detect the slowed path when every other
  delay is nominal (the single-fault assumption), and
* a *robust* test must detect it for every within-spec assignment of
  delays to the other gates (off-path signals settle by the sampling
  time, but their transition and hazard times vary arbitrarily) —
  :func:`robust_timing_holds` samples such assignments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit import Circuit
from ..circuit.gates import evaluate
from ..paths import PathDelayFault
from .waveform import Waveform

EdgeKey = Tuple[int, int]  # (driver signal, consuming gate output signal)


@dataclass
class TimingResult:
    """Waveforms of every signal for one two-vector simulation."""

    waveforms: List[Waveform]
    circuit: Circuit

    def output_at(self, time: float) -> Tuple[int, ...]:
        return tuple(self.waveforms[o].value_at(time) for o in self.circuit.outputs)

    def final_outputs(self) -> Tuple[int, ...]:
        return tuple(self.waveforms[o].final for o in self.circuit.outputs)

    def settle_time(self) -> float:
        """Latest event time over all signals (0.0 if nothing moves)."""
        return max((w.last_event_time() for w in self.waveforms), default=0.0)


class TimingSimulator:
    """Transport-delay simulator with per-gate and per-edge delays.

    Args:
        circuit: frozen target circuit.
        delays: delay per non-input signal id; missing entries default
            to 1.0.
        edge_delays: extra delay on specific (driver, gate) edges —
            the path-fault injection mechanism.
    """

    def __init__(
        self,
        circuit: Circuit,
        delays: Optional[Dict[int, float]] = None,
        edge_delays: Optional[Dict[EdgeKey, float]] = None,
    ):
        self.circuit = circuit
        self.compiled = circuit.compiled()
        self.delays = dict(delays or {})
        self.edge_delays = dict(edge_delays or {})

    def delay_of(self, signal: int) -> float:
        return self.delays.get(signal, 1.0)

    # ------------------------------------------------------------------
    def simulate(
        self, v1: Sequence[int], v2: Sequence[int], switch_time: float = 0.0
    ) -> TimingResult:
        """Waveforms for the two-vector test (V1 settled, V2 at time 0)."""
        compiled = self.compiled
        waveforms: List[Optional[Waveform]] = [None] * compiled.n_signals
        for position, pi in enumerate(compiled.py_inputs):
            waveforms[pi] = Waveform.step(v1[position], v2[position], switch_time)
        edge_delays = self.edge_delays
        for _code, index, fanin, gate_type in compiled.plan:
            ins = []
            for f in fanin:
                wave = waveforms[f]
                extra = edge_delays.get((f, index), 0.0) if edge_delays else 0.0
                ins.append(wave.shifted(extra) if extra else wave)
            waveforms[index] = self._evaluate_gate(
                gate_type, ins, self.delay_of(index)
            )
        return TimingResult(waveforms=waveforms, circuit=self.circuit)  # type: ignore[arg-type]

    @staticmethod
    def _evaluate_gate(gate_type, inputs: List[Waveform], delay: float) -> Waveform:
        initial = evaluate(gate_type, [w.initial for w in inputs])
        times = sorted({t for w in inputs for t, _v in w.events})
        changes: List[Tuple[float, int]] = []
        for t in times:
            value = evaluate(gate_type, [w.value_at(t) for w in inputs])
            changes.append((t + delay, value))
        return Waveform.from_changes(initial, changes)

    # ------------------------------------------------------------------
    def path_arrival(self, fault: PathDelayFault) -> float:
        """Cumulative delay along the fault's path (launch at t = 0)."""
        total = sum(self.delay_of(s) for s in fault.signals[1:])
        for edge in fault.edges():
            total += self.edge_delays.get(edge, 0.0)
        return total

    def settle_bound(self) -> float:
        """Upper bound on settle time: longest weighted path."""
        arrival = [0.0] * self.compiled.n_signals
        for _code, index, fanin, _gt in self.compiled.plan:
            arrival[index] = self.delay_of(index) + max(
                arrival[f] + self.edge_delays.get((f, index), 0.0)
                for f in fanin
            )
        return max(arrival) if arrival else 0.0


def fault_injection(fault: PathDelayFault, extra: float) -> Dict[EdgeKey, float]:
    """The lumped path slowdown: *extra* delay on the path's first edge."""
    if fault.length < 1:
        raise ValueError("cannot slow a path with no gates")
    first_edge = (fault.signals[0], fault.signals[1])
    return {first_edge: extra}


def prefix_independent(circuit: Circuit, fault: PathDelayFault) -> bool:
    """True when first-edge injection matches the path fault model.

    The path delay fault model idealizes "only the target path is
    slow"; the physical first-edge injection also slows everything
    that reads the path's second signal.  The two coincide — and the
    classic robust conditions guarantee detection under the injection
    — exactly when no off-path input of an on-path gate depends on
    that signal (off-path inputs then settle on time even in the
    faulty circuit).  Off-path inputs proven *stable* by a test are
    delay-independent anyway, but this predicate is purely structural
    and therefore sufficient for every test of the fault.

    The oracle-based property tests use this predicate to select the
    faults where the model's guarantee is physically testable: where
    the path reconverges, an off-path input reading the slowed signal
    settles late in the faulty circuit too, so a test that meets every
    robust condition can still miss the injected slowdown.
    """
    if fault.length < 1:
        return False
    compiled = circuit.compiled()
    tainted = [False] * compiled.n_signals
    tainted[fault.signals[1]] = True
    for _code, index, fanin, _gt in compiled.plan:
        if not tainted[index] and any(tainted[f] for f in fanin):
            tainted[index] = True
    for position, signal in enumerate(fault.signals):
        if position == 0:
            continue
        on_path_input = fault.signals[position - 1]
        for fanin_signal in compiled.py_fanin[signal]:
            if fanin_signal == on_path_input:
                continue
            if tainted[fanin_signal]:
                return False
    return True


def slowed_delays(
    base: Dict[int, float],
    fault: PathDelayFault,
    extra: float,
    where: str = "spread",
) -> Dict[int, float]:
    """Gate-level slowdown variants (the *gate delay fault* view).

    ``where`` is ``"spread"`` (extra divided over all on-path gates),
    ``"first"`` or ``"last"`` (all of it on one gate).  Note that gate
    slowdowns also slow sibling paths through the same gates; the
    lumped path-fault injection is :func:`fault_injection`.
    """
    gates = list(fault.signals[1:])
    if not gates:
        raise ValueError("cannot slow a path with no gates")
    delays = dict(base)
    if where == "spread":
        per_gate = extra / len(gates)
        for g in gates:
            delays[g] = delays.get(g, 1.0) + per_gate
    elif where == "first":
        delays[gates[0]] = delays.get(gates[0], 1.0) + extra
    elif where == "last":
        delays[gates[-1]] = delays.get(gates[-1], 1.0) + extra
    else:
        raise ValueError(f"unknown injection point {where!r}")
    return delays


def timing_detects(
    circuit: Circuit,
    pattern,
    fault: PathDelayFault,
    base_delays: Optional[Dict[int, float]] = None,
    clock_slack: float = 0.5,
) -> bool:
    """Oracle: does *pattern* catch *fault* once the path is too slow?

    The clock period is set just above the fault-free settle time for
    the given delays (the good circuit always passes), the target path
    is slowed far beyond the clock via its first edge, and the fault's
    output is sampled at the clock.  Returns True when the sampled
    value differs from the expected final value.
    """
    base = dict(base_delays or {})
    good = TimingSimulator(circuit, base)
    good_result = good.simulate(pattern.v1, pattern.v2)
    clock = max(good.settle_bound(), good_result.settle_time()) + clock_slack

    faulty = TimingSimulator(
        circuit, base, edge_delays=fault_injection(fault, extra=2.0 * clock)
    )
    faulty_result = faulty.simulate(pattern.v1, pattern.v2)

    po = fault.output_signal
    expected = good_result.waveforms[po].final
    sampled = faulty_result.waveforms[po].value_at(clock)
    return sampled != expected


def robust_timing_holds(
    circuit: Circuit,
    pattern,
    fault: PathDelayFault,
    samples: int = 16,
    seed: int = 0,
    delay_range: Tuple[float, float] = (0.5, 1.5),
    clock_slack: float = 0.5,
) -> bool:
    """Check detection under *samples* random within-spec delay maps.

    A robust test must detect its slowed path for every assignment of
    (within-spec) delays to the other gates; this samples the space.
    Returns False as soon as one assignment escapes detection.
    """
    rng = random.Random(seed)
    lo, hi = delay_range
    for _ in range(samples):
        delays = {
            gate.index: rng.uniform(lo, hi)
            for gate in circuit.gates
            if not gate.is_input
        }
        if not timing_detects(
            circuit, pattern, fault, base_delays=delays, clock_slack=clock_slack
        ):
            return False
    return True
