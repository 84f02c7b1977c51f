"""Columnar faults: a fault list held as the arrays the fault walks read.

A :class:`FaultTable` keeps path delay faults in three columns, one
row per fault:

* a signal CSR — every fault's on-path signal ids back to back in one
  int32 array (``flat``), fault ``r`` at ``flat[offsets[r]:offsets[r+1]]``,
* ``final_one`` — one uint8 per fault, 1 for a rising launch (the
  path input ends at 1),
* ``faults`` — the :class:`PathDelayFault` objects themselves, which
  stay the API and serde type.

Rows are range-checked once, when they are added: every path must have
a signal, every id must be an integer naming a signal of the circuit,
``0 <= id < n_signals``, and every launch must be a :class:`Transition`
member.  That is the one check on every simulation tier — the native walks index slabs with the ids
unchecked, and Python indexing would wrap a negative one.  A list of
plain faults is read into the columns by one C reader, straight from
the (slotted) fault objects; anything it refuses takes the Python path.

A :class:`FaultRows` view selects rows of a table by index.  The
simulators accept a view wherever they accept a fault list
(:meth:`repro.sim.DelayFaultSimulator.detection_masks`,
:func:`repro.sim.strength_masks_all`); the campaign drop bus builds
its table once per admission and hands the C walks the pending rows
each round instead of re-flattening every path.  A plain fault list
still becomes a fresh table per call.

Tables only grow, and :meth:`FaultTable.take` builds a new table, so
a view stays valid for the life of its table.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence as SequenceABC
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .fault import PathDelayFault, Transition, empty_path_error, transition_error


def signal_range_error(n_signals: int) -> ValueError:
    """The rejection of a fault path naming a signal outside the circuit.

    Raised before a fault walk indexes planes with the path's ids.  The
    session circuit breaker re-raises ``ValueError`` instead of
    demoting, and the campaign settles such a fault ``skipped_error``.
    """
    return ValueError(
        f"fault path names a signal outside the circuit's {n_signals}"
    )


def path_input_error(signal: int, name: str) -> ValueError:
    """The rejection of a fault path whose first signal is not a primary
    input: a test launches the path's transition at a primary input, so
    no pattern exists for it.  *name* is the signal's name."""
    return ValueError(
        f"fault path starts at signal {signal} ({name}), which is not a "
        "primary input"
    )


def _checked_rows(rows: Sequence[int], n_rows: int) -> np.ndarray:
    """*rows* as a read-only int32 array, each in ``[0, n_rows)``."""
    try:
        rows = np.array(rows, dtype=np.int32).reshape(-1)
    except OverflowError:
        raise IndexError(f"fault rows outside [0, {n_rows})") from None
    if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
        raise IndexError(f"fault rows outside [0, {n_rows})")
    rows.flags.writeable = False
    return rows


def _names_signals(signals: Sequence[int], n_signals: int) -> bool:
    """Whether :func:`_columns` takes every id of one path."""
    try:
        return all(0 <= operator.index(s) < n_signals for s in signals)
    except TypeError:
        return False


def _columns(
    faults: Sequence[PathDelayFault], n_signals: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat, offsets, final_one) of *faults*, range-checked.

    Read in C straight from the fault objects
    (:func:`repro.kernel.native.read_fault_columns`: a list of exact
    :class:`PathDelayFault` objects whose paths are exact tuples of
    exact ints in range).  If it refuses the list, or there is no native
    module, the whole list takes the Python path: offsets from the
    paths' lengths, the ids through one ``np.fromiter``.  A path must
    have a signal (:func:`empty_path_error`), an id must be an integer
    (``operator.index``: a bool or a numpy integer is one, ``5.5`` or
    ``"5"`` names no signal) in ``[0, n_signals)``
    (:func:`signal_range_error` otherwise), and a launch a
    :class:`Transition` member (:func:`transition_error`).
    """
    from ..kernel.native import read_fault_columns  # lazy: kernel is above paths

    columns = read_fault_columns(faults, n_signals)
    if columns is not None:
        return columns
    paths = [fault.signals for fault in faults]
    lengths = np.fromiter(map(len, paths), np.int32, count=len(paths))
    if len(paths) and lengths.min() < 1:
        raise empty_path_error()
    offsets = np.zeros(len(paths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    size = int(offsets[-1])
    try:
        flat = np.fromiter(
            map(operator.index, itertools.chain.from_iterable(paths)),
            np.int32,
            count=size,
        )
    except (TypeError, OverflowError):  # no integer, or past int32
        raise signal_range_error(n_signals) from None
    if size and (flat.min() < 0 or flat.max() >= n_signals):
        raise signal_range_error(n_signals)
    rising, falling = Transition.RISING, Transition.FALLING
    for fault in faults:
        if fault.transition is not rising and fault.transition is not falling:
            raise transition_error(fault.transition)
    final_one = np.fromiter(
        (fault.transition is rising for fault in faults),
        np.uint8,
        count=len(faults),
    )
    return flat, offsets, final_one


def grown(array: np.ndarray, need: int) -> np.ndarray:
    """*array*, or a copy with room for *need* rows (doubling).

    Rows are along the first axis; the copy's rows past *array*'s are
    uninitialised (``np.empty``: zeroing would touch pages a buffer may
    never use).  Every growable column of the package grows through here.
    """
    if len(array) >= need:
        return array
    copy = np.empty((max(need, 2 * len(array)), *array.shape[1:]), array.dtype)
    copy[: len(array)] = array
    return copy


class FaultTable:
    """Path delay faults as a signal CSR plus launch values (module doc).

    Args:
        n_signals: the circuit's signal count; every id must lie in
            ``[0, n_signals)``.
        faults: initial rows, range-checked like :meth:`extend`.
    """

    __slots__ = ("n_signals", "faults", "_flat", "_offsets", "_final")

    def __init__(self, n_signals: int, faults: Iterable[PathDelayFault] = ()):
        self.n_signals = int(n_signals)
        self.faults: List[PathDelayFault] = list(faults)
        self._flat, self._offsets, self._final = _columns(
            self.faults, self.n_signals
        )

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def flat(self) -> np.ndarray:
        """Every row's signal ids, back to back (int32)."""
        return self._flat[: self._offsets[len(self.faults)]]

    @property
    def offsets(self) -> np.ndarray:
        """Row ``r`` spans ``flat[offsets[r]:offsets[r + 1]]`` (int32)."""
        return self._offsets[: len(self.faults) + 1]

    @property
    def final_one(self) -> np.ndarray:
        """1 where the row's launch ends at 1 (rising), else 0 (uint8)."""
        return self._final[: len(self.faults)]

    @property
    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(flat, offsets, final_one)`` as stored, spare rows included.

        What a C call reads by row number: the arrays are replaced when
        the table grows, so read them again for every call.
        """
        return self._flat, self._offsets, self._final

    def extend(self, faults: Iterable[PathDelayFault]) -> range:
        """Append *faults* as rows; returns their row numbers.

        Raises :func:`signal_range_error` and appends nothing when any
        path names a signal outside ``[0, n_signals)``.
        """
        faults = list(faults)
        flat, offsets, final_one = _columns(faults, self.n_signals)
        first, used = len(self.faults), int(self._offsets[len(self.faults)])
        last = first + len(faults)
        self._flat = grown(self._flat, used + len(flat))
        self._flat[used : used + len(flat)] = flat
        self._offsets = grown(self._offsets, last + 1)
        self._offsets[first + 1 : last + 1] = offsets[1:] + used
        self._final = grown(self._final, last)
        self._final[first:last] = final_one
        self.faults.extend(faults)
        return range(first, last)

    def extend_valid(
        self, faults: Sequence[PathDelayFault]
    ) -> Tuple[range, List[int]]:
        """Append the faults that pass the range check; skip the others.

        Returns the new rows (the valid faults, in order) and the
        positions in *faults* of the skipped ones.
        """
        try:
            return self.extend(faults), []
        except ValueError:
            pass
        n = self.n_signals
        bad = [
            k
            for k, fault in enumerate(faults)
            if not _names_signals(fault.signals, n)
        ]
        skipped = set(bad)
        valid = [fault for k, fault in enumerate(faults) if k not in skipped]
        return self.extend(valid), bad

    def take(self, rows: Sequence[int]) -> "FaultTable":
        """A new table holding *rows* of this one, in that order.

        A vectorized CSR gather; the ids were checked when the rows
        were added, so they are not checked again.
        """
        rows = _checked_rows(rows, len(self))
        table = FaultTable(self.n_signals)
        offsets = self.offsets
        starts = offsets[rows]
        lengths = offsets[rows + 1] - starts
        new_offsets = np.zeros(len(rows) + 1, dtype=np.int32)
        np.cumsum(lengths, out=new_offsets[1:])
        gather = np.repeat(starts - new_offsets[:-1], lengths)
        gather += np.arange(int(new_offsets[-1]), dtype=np.int32)
        table._flat = self._flat[gather]
        table._offsets = new_offsets
        table._final = self._final[rows]
        table.faults = [self.faults[r] for r in rows.tolist()]
        return table

    def view(self, rows: Optional[Sequence[int]] = None) -> "FaultRows":
        """A :class:`FaultRows` view of *rows* (default: every row)."""
        return FaultRows(self, rows)


class FaultRows(SequenceABC):
    """Selected rows of a :class:`FaultTable`, as a fault sequence.

    Indexing and iteration yield the rows' :class:`PathDelayFault`
    objects, so every Python walk takes a view unchanged; the native
    walks read the table's columns through ``rows`` (int32, read-only)
    instead.  ``rows=None`` selects every row the table holds now —
    the identity view, which the native walks take without an index
    array.  Rows outside ``[0, len(table))`` raise :class:`IndexError`
    here, before any walk could index with them.
    """

    __slots__ = ("table", "rows", "_n")

    def __init__(self, table: FaultTable, rows: Optional[Sequence[int]] = None):
        self.table = table
        if rows is None:
            self.rows = None
            self._n = len(table)
            return
        self.rows = _checked_rows(rows, len(table))
        self._n = len(self.rows)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k: int) -> PathDelayFault:
        if not -self._n <= k < self._n:
            raise IndexError(f"row view index {k} outside [0, {self._n})")
        k %= self._n
        return self.table.faults[k if self.rows is None else int(self.rows[k])]

    def __iter__(self):
        faults = self.table.faults
        if self.rows is None:
            return iter(faults[: self._n])
        return map(faults.__getitem__, self.rows.tolist())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultRows({self._n} of {len(self.table)} rows)"


def fault_rows(faults: Sequence[PathDelayFault], n_signals: int) -> FaultRows:
    """*faults* as rows checked against a circuit of *n_signals* signals.

    A :class:`FaultRows` view passes through (its ids were checked when
    its rows were added, against at most *n_signals*); a fault list
    becomes the identity view of a new table, which range-checks it.
    """
    if isinstance(faults, FaultRows):
        if faults.table.n_signals > n_signals:
            raise signal_range_error(n_signals)
        return faults
    return FaultTable(n_signals, faults).view()
