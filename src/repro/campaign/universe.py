"""Lazily streamed fault universes.

The paper's Table 3 is a catalogue of path explosion: c3540 has 5.7e7
functional paths and c6288 is excluded outright with ~1e20.  Any
production campaign therefore cannot start from a materialized fault
list — the universe of faults must be *streamed*.

A :class:`FaultUniverse` is a restartable, filtered, budget-capped
stream over :func:`repro.paths.enumerate.iter_faults` (or any other
deterministic fault source).  Three properties make it the substrate
of the campaign scheduler:

* **laziness** — faults are produced one at a time; the scheduler
  pulls only enough to fill its pending window, so peak memory is
  bounded by the window, not the universe size,
* **determinism** — the underlying enumeration order is fixed, and
  stream indices number the *accepted* faults, so position ``k``
  always denotes the same fault,
* **restartability** — ``stream(start=k)`` re-enumerates and skips,
  which is what checkpoint/resume uses to continue an interrupted
  campaign exactly where it stopped.
"""

from __future__ import annotations

from itertools import islice
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..circuit import Circuit
from ..paths import PathDelayFault, Transition
from ..paths.enumerate import check_cap, iter_faults

#: A factory returning a fresh deterministic fault iterable each call.
FaultSource = Callable[[], Iterable[PathDelayFault]]


class FaultUniverse:
    """A restartable stream of path delay faults with filtering and caps.

    Args:
        source: zero-argument factory producing a fresh, deterministic
            iterable of faults on every call (restarts re-invoke it).
        max_faults: budget cap — the stream ends after this many
            *accepted* faults (0: none; a negative cap is a
            ``ValueError``).
        min_length / max_length: keep only faults whose path length
            (number of on-path gates) lies in the inclusive range.
        predicate: arbitrary extra filter ``fault -> bool``.
        dedup: drop repeated ``(signals, transition)`` pairs.  Costs
            one set entry per accepted fault, so leave it off for pure
            structural enumerations (which never repeat) and reserve it
            for user-supplied lists.
    """

    def __init__(
        self,
        source: FaultSource,
        *,
        max_faults: Optional[int] = None,
        min_length: Optional[int] = None,
        max_length: Optional[int] = None,
        predicate: Optional[Callable[[PathDelayFault], bool]] = None,
        dedup: bool = False,
    ):
        check_cap("max_faults", max_faults)
        self._source = source
        self.max_faults = max_faults
        self.min_length = min_length
        self.max_length = max_length
        self.predicate = predicate
        self.dedup = dedup

    # ------------------------------------------------------------ builders
    @classmethod
    def from_circuit(
        cls,
        circuit: Circuit,
        *,
        transitions: Sequence[Transition] = (
            Transition.RISING,
            Transition.FALLING,
        ),
        from_inputs: Optional[Sequence[int]] = None,
        to_outputs: Optional[Sequence[int]] = None,
        **options,
    ) -> "FaultUniverse":
        """Stream every structural fault of *circuit* in DFS order.

        This is the production entry point: nothing is materialized,
        even on path-explosive circuits — enumeration advances only as
        far as the campaign consumes.
        """
        transitions = tuple(transitions)

        def source() -> Iterable[PathDelayFault]:
            return iter_faults(
                circuit,
                transitions=transitions,
                from_inputs=from_inputs,
                to_outputs=to_outputs,
            )

        return cls(source, **options)

    @classmethod
    def from_faults(
        cls, faults: Sequence[PathDelayFault], **options
    ) -> "FaultUniverse":
        """Wrap an existing fault list (the engine-compatibility path)."""
        frozen = tuple(faults)
        return cls(lambda: frozen, **options)

    # ------------------------------------------------------------ streaming
    def _accepted(self) -> Iterator[PathDelayFault]:
        seen = set() if self.dedup else None
        for fault in self._source():
            if self.min_length is not None and fault.length < self.min_length:
                continue
            if self.max_length is not None and fault.length > self.max_length:
                continue
            if self.predicate is not None and not self.predicate(fault):
                continue
            if seen is not None:
                key = (fault.signals, fault.transition)
                if key in seen:
                    continue
                seen.add(key)
            yield fault

    def stream(self, start: int = 0) -> Iterator[Tuple[int, PathDelayFault]]:
        """Yield ``(index, fault)`` pairs, skipping the first *start*.

        Indices number accepted faults from 0 and are stable across
        restarts; resume cost is one filtered re-enumeration up to
        *start* (no generation or simulation is repeated).
        """
        produced = 0
        for fault in self._accepted():
            if self.max_faults is not None and produced >= self.max_faults:
                return
            if produced >= start:
                yield produced, fault
            produced += 1
            if self.max_faults is not None and produced >= self.max_faults:
                return

    def head(self, count: int) -> List[PathDelayFault]:
        """The first *count* accepted faults (testing/diagnostics)."""
        check_cap("count", count)
        return [fault for _index, fault in islice(self.stream(), count)]

    def describe(self) -> dict:
        """Configuration summary for reports and checkpoints."""
        return {
            "max_faults": self.max_faults,
            "min_length": self.min_length,
            "max_length": self.max_length,
            "filtered": self.predicate is not None,
            "dedup": self.dedup,
        }
