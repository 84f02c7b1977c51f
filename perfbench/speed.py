"""Host speed, measured by a fixed calibration slice.

The shared 2-core host this benchmark was built on changes speed by up
to 1.9x within minutes, with CPU time equal to wall time: the same
instructions simply take longer while its neighbours are busy.  Speed
phases last seconds to minutes, so a run's median can sit wholly in a
fast or a slow phase, and longer runs do not average it out.

Every timed end-to-end figure is therefore reported *at reference
speed*: its raw seconds times the host's speed while it ran.  Speed is
``REFERENCE_S`` divided by the seconds of :func:`_slice`, a fixed piece
of interpreter and array work that lives in the benchmark and never
changes with the program.  Samples are taken at even intervals through
the timed work (or right around it, when the work cannot be paused),
and their mean is the time average of the speed.  The raw figures are
kept in each run's stamp.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Iterator, List, Tuple

import numpy as np

#: Seconds :func:`_slice` takes on the reference host in its fast phase
#: (the Intel Xeon 2-core host of README.md, Python 3.11, numpy 2.4),
#: without and with its array part.
REFERENCE_S = {False: 0.0012, True: 0.0025}

#: 4 MiB of random words: the array part streams them from memory, like
#: the bulk simulation kernels do with their lane planes.
_ROWS = np.random.default_rng(0).integers(0, 2**63, size=(4, 131072), dtype=np.uint64)
_ONE = np.uint64(1)


def _slice(arrays: bool) -> int:
    # interpreter part: dict, list and int work, as in the generation loops
    table = {}
    values = list(range(257))
    acc = 0
    for i in range(4000):
        key = (i * 2654435761) & 0xFFFF
        value = table.get(key, 0) ^ values[i & 255] ^ (acc >> 3)
        table[key] = value
        acc = (acc + value) & 0xFFFFFFFF
    if not arrays:
        return acc
    # array part: word-parallel bit operations over the rows
    out = _ROWS[0].copy()
    for row in range(1, len(_ROWS)):
        out ^= _ROWS[row] & _ROWS[row - 1]
        out |= _ROWS[row] >> _ONE
    return acc ^ int(out[0])


class Meter:
    """Speed samples, and the seconds spent taking them.

    *arrays* adds the array part to the slice: for work that streams
    large arrays, whose speed also follows the host's memory bandwidth.
    Interpreter-bound work is measured without it, as a neighbour that
    only loads the memory bus does not slow that work down.
    """

    def __init__(self, arrays: bool = False) -> None:
        self.arrays = arrays
        self.speeds: List[float] = []
        self.spent = 0.0
        _slice(arrays)  # a process's first slice pays one-off costs: not a sample

    def sample(self, count: int = 1) -> float:
        """Take *count* samples; returns their mean speed."""
        taken = []
        for _ in range(count):
            t0 = time.perf_counter()
            _slice(self.arrays)
            seconds = time.perf_counter() - t0
            self.spent += seconds
            taken.append(REFERENCE_S[self.arrays] / seconds)
        self.speeds.extend(taken)
        return sum(taken) / len(taken)

    def mean(self, since: int = 0) -> float:
        """Mean speed of the samples from index *since* on."""
        tail = self.speeds[since:]
        return sum(tail) / len(tail)


def cpus() -> Tuple[int, int]:
    """``(client, server)``: the first and the last CPU this process may use."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


@contextlib.contextmanager
def on_cpu(cpu: int) -> Iterator[None]:
    """Run the calling thread on *cpu* for the block."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)
