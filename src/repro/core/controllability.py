"""SCOAP-style testability measures.

The backtrace procedure needs a static notion of how hard each signal
is to set to 0 or 1 so it can walk the "easiest" branch toward a
primary input (and the "hardest" branch first when all inputs must be
set).  These are the classic SCOAP combinational controllabilities:
CC0/CC1 = 1 for primary inputs, and each gate adds 1 plus the cost of
the cheapest (for the controlled value) or the sum (for the
non-controlled value) of its inputs.

The native decision step reads them as :attr:`Controllability.ranks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List

import numpy as np

from ..circuit import Circuit, GateType


@dataclass(frozen=True)
class Controllability:
    """Per-signal 0/1-controllability (lower = easier)."""

    cc0: List[int]
    cc1: List[int]

    def cost(self, signal: int, value: int) -> int:
        return self.cc1[signal] if value else self.cc0[signal]

    @cached_property
    def ranks(self) -> np.ndarray:
        """``cc0`` then ``cc1`` as dense int32 ranks over their union.

        A lower cost gets a lower rank and equal costs an equal one, so
        every comparison between costs, ties included, comes out the
        same on the ranks, which fit in 32 bits however large the costs
        are.  Computed once per instance, for the C backtrace.
        """
        costs = [*self.cc0, *self.cc1]
        rank = {cost: k for k, cost in enumerate(sorted(set(costs)))}
        return np.fromiter(map(rank.__getitem__, costs), np.int32, count=len(costs))


def compute_controllability(circuit: Circuit) -> Controllability:
    """Compute SCOAP CC0/CC1 for every signal of *circuit*."""
    n = circuit.num_signals
    cc0 = [0] * n
    cc1 = [0] * n
    for index in circuit.topological_order():
        gate = circuit.gates[index]
        t = gate.gate_type
        if t is GateType.INPUT:
            cc0[index] = 1
            cc1[index] = 1
            continue
        ins = gate.fanin
        if t is GateType.BUF:
            cc0[index] = cc0[ins[0]] + 1
            cc1[index] = cc1[ins[0]] + 1
        elif t is GateType.NOT:
            cc0[index] = cc1[ins[0]] + 1
            cc1[index] = cc0[ins[0]] + 1
        elif t in (GateType.AND, GateType.NAND):
            all_one = sum(cc1[f] for f in ins) + 1
            any_zero = min(cc0[f] for f in ins) + 1
            if t is GateType.AND:
                cc1[index], cc0[index] = all_one, any_zero
            else:
                cc0[index], cc1[index] = all_one, any_zero
        elif t in (GateType.OR, GateType.NOR):
            all_zero = sum(cc0[f] for f in ins) + 1
            any_one = min(cc1[f] for f in ins) + 1
            if t is GateType.OR:
                cc0[index], cc1[index] = all_zero, any_one
            else:
                cc1[index], cc0[index] = all_zero, any_one
        elif t in (GateType.XOR, GateType.XNOR):
            # cheapest parity assignment over the inputs; for the
            # 2-input case this is the familiar min-of-combinations,
            # generalized here by a running DP over (parity -> cost)
            even = 0
            odd = None  # type: int | None
            for f in ins:
                new_even_candidates = [even + cc0[f]]
                new_odd_candidates = [even + cc1[f]]
                if odd is not None:
                    new_even_candidates.append(odd + cc1[f])
                    new_odd_candidates.append(odd + cc0[f])
                even, odd = min(new_even_candidates), min(new_odd_candidates)
            assert odd is not None
            if t is GateType.XOR:
                cc0[index], cc1[index] = even + 1, odd + 1
            else:
                cc0[index], cc1[index] = odd + 1, even + 1
        else:  # pragma: no cover - closed enum
            raise ValueError(f"unhandled gate type {t}")
    return Controllability(cc0=cc0, cc1=cc1)
