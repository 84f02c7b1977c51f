"""Fault-list construction strategies.

The experiment tables need reproducible fault lists: the paper targets
*all* functional paths, which is feasible for its C implementation but
must be capped under CPython for the largest synthetic circuits.  The
strategies here make the cap explicit and deterministic so single-bit
and bit-parallel generators (Tables 5/6) and the three-way tool
comparison (Tables 7/8) all see exactly the same faults.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..circuit import Circuit
from .count import count_faults
from .enumerate import check_cap, collect_faults, longest_paths
from .fault import PathDelayFault, Transition, both_transitions


def all_faults(circuit: Circuit, cap: Optional[int] = None) -> List[PathDelayFault]:
    """Every path delay fault, in deterministic DFS order, up to *cap*."""
    return collect_faults(circuit, max_faults=cap)


def longest_path_faults(circuit: Circuit, count: int) -> List[PathDelayFault]:
    """Rising+falling faults on the *count* structurally longest paths."""
    faults: List[PathDelayFault] = []
    for signals in longest_paths(circuit, count):
        faults.extend(both_transitions(signals))
    return faults


def sampled_faults(
    circuit: Circuit,
    count: int,
    seed: int = 0,
    pool_factor: int = 8,
) -> List[PathDelayFault]:
    """A reproducible random sample of *count* faults.

    Enumerates a pool of ``pool_factor * count`` faults in DFS order
    and samples without replacement with a seeded PRNG.  On circuits
    with fewer faults than requested the full list is returned.
    """
    pool = collect_faults(circuit, max_faults=max(count, pool_factor * count))
    if len(pool) <= count:
        return pool
    rng = random.Random(seed)
    picked = rng.sample(range(len(pool)), count)
    picked.sort()  # keep deterministic DFS-like ordering
    return [pool[i] for i in picked]


def fault_list(
    circuit: Circuit,
    cap: Optional[int] = None,
    strategy: str = "all",
    seed: int = 0,
) -> List[PathDelayFault]:
    """Uniform entry point used by the experiment runners.

    No strategy returns more than *cap* faults.

    Args:
        circuit: target circuit.
        cap: maximum number of faults (``None`` = no cap, 0 = none; a
            negative cap is a ``ValueError``).
        strategy: ``"all"`` (DFS prefix), ``"longest"`` (longest paths
            first) or ``"sample"`` (seeded random sample).
        seed: PRNG seed for ``"sample"``.
    """
    check_cap("cap", cap)
    if strategy == "all":
        return all_faults(circuit, cap=cap)
    if cap is None:
        raise ValueError(f"strategy {strategy!r} requires a cap")
    if strategy == "longest":
        # both launches of the cap // 2 longest paths; a cap of 1 takes
        # the longest path's rising fault alone
        return longest_path_faults(circuit, min(cap, max(1, cap // 2)))[:cap]
    if strategy == "sample":
        return sampled_faults(circuit, cap, seed=seed)
    raise ValueError(f"unknown strategy {strategy!r}")


def describe_fault_universe(circuit: Circuit, cap: Optional[int] = None) -> dict:
    """Summary dict for reports: total fault count vs. listed faults."""
    check_cap("cap", cap)
    total = count_faults(circuit)
    listed = total if cap is None else min(total, cap)
    return {
        "circuit": circuit.name,
        "total_faults": total,
        "listed_faults": listed,
        "capped": cap is not None and total > cap,
    }
