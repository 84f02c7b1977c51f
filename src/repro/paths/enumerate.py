"""Structural path enumeration.

The number of structural paths can grow exponentially with circuit
size (the paper's Table 3 lists 5.7e7 functional paths for c3540 and
excludes c6288 with its ~1e20 paths).  The enumerator is therefore a
*generator*: paths are produced lazily in a deterministic order and
callers cap how many they consume.  A separate non-enumerative counter
lives in :mod:`repro.paths.count`.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..circuit import Circuit
from .fault import PathDelayFault, Transition


def check_cap(name: str, cap: Optional[int]) -> None:
    """Refuse a negative cap on faults or paths.

    ``None`` is no cap and 0 is none at all; below 0 is a
    ``ValueError`` naming *name* and the value.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"{name} must be >= 0, got {cap!r}")


def iter_paths(
    circuit: Circuit,
    from_inputs: Optional[Sequence[int]] = None,
    to_outputs: Optional[Sequence[int]] = None,
    max_paths: Optional[int] = None,
) -> Iterator[Tuple[int, ...]]:
    """Yield structural paths as tuples of signal ids.

    Paths run from primary inputs (optionally restricted to
    *from_inputs*) to primary outputs (optionally restricted to
    *to_outputs*).  Enumeration is an iterative depth-first search in
    fanout order, so the sequence is deterministic.  *max_paths* stops
    enumeration after that many paths (:func:`check_cap`, checked at
    the call).
    """
    check_cap("max_paths", max_paths)
    paths = _dfs_paths(circuit, from_inputs, to_outputs)
    return paths if max_paths is None else islice(paths, max_paths)


def _dfs_paths(
    circuit: Circuit,
    from_inputs: Optional[Sequence[int]],
    to_outputs: Optional[Sequence[int]],
) -> Iterator[Tuple[int, ...]]:
    out_set = set(to_outputs if to_outputs is not None else circuit.outputs)
    starts = list(from_inputs if from_inputs is not None else circuit.inputs)

    # Pre-compute which signals can still reach a selected output, so
    # the DFS never descends into dead cones.
    reaches = [False] * circuit.num_signals
    for o in out_set:
        reaches[o] = True
    for index in reversed(circuit.topological_order()):
        if any(reaches[f] for f in circuit.fanout(index)):
            reaches[index] = True

    for start in starts:
        if not reaches[start]:
            continue
        # stack holds (signal, fanout iterator); path mirrors the stack
        path: List[int] = [start]
        iters: List[Iterator[int]] = [iter(circuit.fanout(start))]
        if start in out_set:
            yield (start,)
        while iters:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                iters.pop()
                path.pop()
                continue
            if not reaches[nxt]:
                continue
            path.append(nxt)
            if nxt in out_set:
                yield tuple(path)
            iters.append(iter(circuit.fanout(nxt)))


def iter_faults(
    circuit: Circuit,
    max_faults: Optional[int] = None,
    transitions: Iterable[Transition] = (Transition.RISING, Transition.FALLING),
    **path_kwargs,
) -> Iterator[PathDelayFault]:
    """Yield path delay faults: each structural path x each transition.

    The paper counts "# faults" as functional paths times transitions;
    we enumerate rising and falling faults for every structural path.
    *max_faults* stops after that many faults (:func:`check_cap`,
    checked at the call).
    """
    check_cap("max_faults", max_faults)
    transitions = tuple(transitions)
    faults = (
        PathDelayFault(signals, t)
        for signals in iter_paths(circuit, **path_kwargs)
        for t in transitions
    )
    return faults if max_faults is None else islice(faults, max_faults)


def collect_faults(
    circuit: Circuit,
    max_faults: Optional[int] = None,
    **kwargs,
) -> List[PathDelayFault]:
    """Materialize :func:`iter_faults` into a list."""
    return list(iter_faults(circuit, max_faults=max_faults, **kwargs))


def longest_paths(circuit: Circuit, count: int) -> List[Tuple[int, ...]]:
    """The *count* structurally longest input-output paths.

    Longest paths are the natural delay-test targets (they have the
    least slack).  Implemented as a DFS that prunes any prefix that
    cannot beat the current cutoff using per-signal remaining-depth
    bounds, so it stays cheap even on path-explosive circuits.
    """
    check_cap("count", count)
    if count == 0:
        return []
    # longest remaining distance to any output, per signal
    remaining = [None] * circuit.num_signals  # type: List[Optional[int]]
    for o in circuit.outputs:
        remaining[o] = 0
    for index in reversed(circuit.topological_order()):
        best = remaining[index]
        for f in circuit.fanout(index):
            if remaining[f] is not None:
                cand = remaining[f] + 1
                if best is None or cand > best:
                    best = cand
        remaining[index] = best

    found: List[Tuple[int, Tuple[int, ...]]] = []  # (length, path), min-heap-ish

    def worst() -> int:
        return min(length for length, _ in found) if len(found) >= count else -1

    for start in circuit.inputs:
        if remaining[start] is None:
            continue
        stack: List[Tuple[List[int], int]] = [([start], 0)]
        while stack:
            path, length = stack.pop()
            tip = path[-1]
            bound = length + (remaining[tip] or 0)
            if len(found) >= count and bound < worst():
                continue
            if circuit.is_output(tip):
                found.append((length, tuple(path)))
                found.sort(key=lambda item: -item[0])
                del found[count:]
            for f in circuit.fanout(tip):
                if remaining[f] is not None:
                    stack.append((path + [f], length + 1))
    return [path for _, path in found]
