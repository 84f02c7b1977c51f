"""The path delay fault model (Smith, ITC 1985).

A *path* is a sequence of signals from a primary input to a primary
output where each consecutive pair is a gate fanin->output edge.  A
*path delay fault* is a path together with a transition direction at
its input: the fault is present when the cumulative propagation delay
along the path for that transition exceeds the clock period.

Each structural path therefore carries two faults (rising and falling
at the path input), and for every on-path signal the transition
direction is fixed by the inversion parity of the gates traversed so
far — :meth:`PathDelayFault.transition_at` encodes exactly that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..circuit import Circuit, GateType, inverts


class Transition(enum.Enum):
    """Signal transition direction (initial -> final value)."""

    RISING = "R"  # 0 -> 1
    FALLING = "F"  # 1 -> 0

    @property
    def initial(self) -> int:
        return 0 if self is Transition.RISING else 1

    @property
    def final(self) -> int:
        return 1 if self is Transition.RISING else 0

    def inverted(self) -> "Transition":
        return Transition.FALLING if self is Transition.RISING else Transition.RISING

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Transition.{self.name}"


class TestClass(enum.Enum):
    """Detection class hierarchy: robust detection implies nonrobust."""

    __test__ = False  # not a pytest test class despite the name

    ROBUST = "robust"
    NONROBUST = "nonrobust"


def empty_path_error() -> ValueError:
    """The rejection of a fault path without a signal: it has no launch."""
    return ValueError("a path needs at least one signal")


def transition_error(value: object) -> TypeError:
    """The rejection of a launch that is not a :class:`Transition` member.

    A string such as ``"R"`` would read as a falling launch in the
    fault table's columns and have no ``final`` on the Python walks, so
    it is refused where a fault is made and where a table reads one.
    """
    return TypeError(
        f"fault transition must be Transition.RISING or Transition.FALLING, "
        f"got {value!r}"
    )


@dataclass(frozen=True, slots=True)
class PathDelayFault:
    """A structural path plus the launch transition at its input.

    Slotted, so :func:`repro.paths.table.FaultTable`'s C reader finds
    ``signals`` and ``transition`` at fixed offsets in the object.

    Attributes:
        signals: on-path signal ids, primary input first, primary
            output last.
        transition: direction of the transition launched at
            ``signals[0]``, a :class:`Transition` member
            (:func:`transition_error` otherwise).
    """

    signals: Tuple[int, ...]
    transition: Transition

    def __post_init__(self) -> None:
        if len(self.signals) < 1:
            raise empty_path_error()
        if (
            self.transition is not Transition.RISING
            and self.transition is not Transition.FALLING
        ):
            raise transition_error(self.transition)

    # ------------------------------------------------------------------
    @property
    def input_signal(self) -> int:
        return self.signals[0]

    @property
    def output_signal(self) -> int:
        return self.signals[-1]

    @property
    def length(self) -> int:
        """Number of on-path gates (edges)."""
        return len(self.signals) - 1

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield consecutive (driver, gate-output) signal pairs."""
        for a, b in zip(self.signals, self.signals[1:]):
            yield a, b

    # ------------------------------------------------------------------
    def validate(self, circuit: Circuit) -> None:
        """Raise ``ValueError`` unless this is a structural path of *circuit*.

        Checks: starts at a primary input, ends at a primary output,
        and every consecutive pair is a fanin edge.
        """
        first = circuit.gates[self.signals[0]]
        if not first.is_input:
            raise ValueError(
                f"path must start at a primary input, got {first.name!r}"
            )
        if not circuit.is_output(self.signals[-1]):
            raise ValueError(
                f"path must end at a primary output, got "
                f"{circuit.signal_name(self.signals[-1])!r}"
            )
        for a, b in self.edges():
            gate = circuit.gates[b]
            if a not in gate.fanin:
                raise ValueError(
                    f"{circuit.signal_name(a)!r} does not feed "
                    f"{circuit.signal_name(b)!r}"
                )

    def transition_at(self, circuit: Circuit, position: int) -> Transition:
        """Transition direction of the on-path signal at *position*.

        Position 0 is the path input; each inverting on-path gate flips
        the direction.
        """
        t = self.transition
        for index in self.signals[1 : position + 1]:
            if inverts(circuit.gates[index].gate_type):
                t = t.inverted()
        return t

    def final_values(self, circuit: Circuit) -> Tuple[int, ...]:
        """Final (V2) logic value of every on-path signal."""
        values = []
        t = self.transition
        values.append(t.final)
        for index in self.signals[1:]:
            if inverts(circuit.gates[index].gate_type):
                t = t.inverted()
            values.append(t.final)
        return tuple(values)

    def describe(self, circuit: Circuit) -> str:
        """Human-readable form like ``R: b-p-x`` (as the paper writes paths)."""
        names = "-".join(circuit.signal_name(i) for i in self.signals)
        return f"{self.transition.value}: {names}"

    # ------------------------------------------------------------------
    @classmethod
    def from_names(
        cls,
        circuit: Circuit,
        names: Tuple[str, ...] | list,
        transition: Transition,
        validate: bool = True,
    ) -> "PathDelayFault":
        """Build a fault from signal *names*; validates by default."""
        fault = cls(tuple(circuit.index_of(n) for n in names), transition)
        if validate:
            fault.validate(circuit)
        return fault


def both_transitions(signals: Tuple[int, ...]) -> Tuple[PathDelayFault, PathDelayFault]:
    """The rising and falling faults of one structural path."""
    return (
        PathDelayFault(signals, Transition.RISING),
        PathDelayFault(signals, Transition.FALLING),
    )
