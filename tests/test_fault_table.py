"""Tests for the columnar fault table and its row views.

A :class:`FaultTable` is the one range check on every simulation tier,
and a :class:`~repro.paths.FaultRows` view must grade exactly like the fault
sub-list it selects — on the int, numpy and native backends and the
interpreted oracle, for detection masks and strength triples alike.
"""

import random

import numpy as np
import pytest

from repro.circuit.generators import random_dag
from repro.core.patterns import random_patterns
from repro.kernel import native_available
from repro.paths import (
    FaultTable,
    PathDelayFault,
    TestClass,
    Transition,
    fault_list,
)
from repro.paths.table import fault_rows, signal_range_error
from repro.sim import DelayFaultSimulator, strength_masks_all

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C toolchain and no cached native module"
)

#: (backend, fusion) of every simulation tier
TIERS = [
    ("int", "auto"),
    ("numpy", "auto"),
    pytest.param("native", "auto", marks=needs_native),
    ("numpy", "interp"),
    ("int", "interp"),
]


@pytest.fixture(scope="module")
def circuit():
    return random_dag(8, 40, seed=11)


@pytest.fixture(scope="module")
def faults(circuit):
    return fault_list(circuit, cap=60, strategy="all")


def chunked_table(circuit, faults):
    """A table whose rows arrive in three admission chunks."""
    table = FaultTable(circuit.compiled().n_signals)
    for start in range(0, len(faults), 25):
        table.extend(faults[start : start + 25])
    return table


class TestColumns:
    def test_csr_and_launch_values(self, circuit, faults):
        table = chunked_table(circuit, faults)
        assert len(table) == len(faults) and table.faults == faults
        for row, fault in enumerate(faults):
            start, end = table.offsets[row], table.offsets[row + 1]
            assert tuple(table.flat[start:end]) == fault.signals
            assert table.final_one[row] == fault.transition.final
        assert table.flat.dtype == np.int32 and table.offsets.dtype == np.int32
        assert table.final_one.dtype == np.uint8

    def test_extend_returns_the_new_rows(self, circuit, faults):
        table = FaultTable(circuit.compiled().n_signals, faults[:5])
        assert table.extend(faults[5:9]) == range(5, 9)
        assert table.extend([]) == range(9, 9)

    # an id that is no integer names no signal either: 5.5 must not
    # read as signal 5
    @pytest.mark.parametrize(
        "bad", [-1, "n_signals", 2**31, 5.5, "5", np.float64(5.0)]
    )
    def test_ids_outside_the_circuit_fail_at_construction(self, circuit, faults, bad):
        n_signals = circuit.compiled().n_signals
        bad = n_signals if bad == "n_signals" else bad
        fault = PathDelayFault((0, bad), Transition.RISING)
        with pytest.raises(ValueError) as excinfo:
            FaultTable(n_signals, faults[:3] + [fault])
        assert str(excinfo.value) == str(signal_range_error(n_signals))
        table = FaultTable(n_signals, faults[:3])
        with pytest.raises(ValueError):
            table.extend([fault])
        assert len(table) == 3 and len(table.flat) == table.offsets[-1]

    def test_extend_valid_skips_the_malformed(self, circuit, faults):
        n_signals = circuit.compiled().n_signals
        bad = [
            PathDelayFault((0, n_signals), Transition.RISING),
            PathDelayFault((-3, 1), Transition.FALLING),
            PathDelayFault((0, "5"), Transition.FALLING),
        ]
        table = FaultTable(n_signals, faults[:2])
        rows, skipped = table.extend_valid(
            [bad[0], faults[2], bad[1], faults[3], bad[2]]
        )
        assert rows == range(2, 4) and skipped == [0, 2, 4]
        assert table.faults == faults[:4]

    def test_take_gathers_rows(self, circuit, faults):
        table = chunked_table(circuit, faults)
        rows = [7, 3, 3, 59, 0]
        taken = table.take(rows)
        want = FaultTable(table.n_signals, [faults[r] for r in rows])
        assert taken.faults == want.faults
        assert np.array_equal(taken.flat, want.flat)
        assert np.array_equal(taken.offsets, want.offsets)
        assert np.array_equal(taken.final_one, want.final_one)


class TestRowViews:
    def test_sequence_of_the_selected_faults(self, circuit, faults):
        table = chunked_table(circuit, faults)
        view = table.view([4, 1, 4])
        assert len(view) == 3 and list(view) == [faults[4], faults[1], faults[4]]
        assert view[-1] is faults[4] and view[1] is faults[1]
        assert list(table.view()) == faults and table.view().rows is None
        with pytest.raises(IndexError):
            view[3]

    @pytest.mark.parametrize("row", [-1, "len", 2**31])
    def test_rows_outside_the_table_raise(self, circuit, faults, row):
        table = chunked_table(circuit, faults)
        row = len(table) if row == "len" else row
        with pytest.raises(IndexError):
            table.view([0, row])
        with pytest.raises(IndexError):
            table.take([row])

    def test_rows_are_read_only(self, circuit, faults):
        view = chunked_table(circuit, faults).view([0, 1])
        with pytest.raises(ValueError):
            view.rows[0] = 10**6

    def test_fault_rows_checks_the_circuit_size(self, circuit, faults):
        n_signals = circuit.compiled().n_signals
        view = FaultTable(n_signals + 5, faults).view()
        assert fault_rows(view, n_signals + 5) is view
        with pytest.raises(ValueError, match="outside the circuit"):
            fault_rows(view, n_signals)


def view_cases(table):
    """Empty, repeated and cross-chunk row selections, plus identity."""
    rng = random.Random(5)
    n = len(table)
    return [
        table.view([]),
        table.view([3, 3, 3, 0, 3]),
        table.view([n - 1, 0, 30, 29, 55, 24, 25]),
        table.view(rng.sample(range(n), n)),
        table.view(),
    ]


class TestSimulationFromViews:
    """A view grades like the fault sub-list it selects, on every tier."""

    @pytest.mark.parametrize("backend, fusion", TIERS)
    @pytest.mark.parametrize("n_patterns", [40, 130])
    def test_detection_masks(self, circuit, faults, backend, fusion, n_patterns):
        table = chunked_table(circuit, faults)
        patterns = random_patterns(circuit, n_patterns, seed=n_patterns)
        for test_class in TestClass:
            sim = DelayFaultSimulator(circuit, test_class, backend, fusion)
            for view in view_cases(table):
                want = sim.detection_masks(patterns, list(view))
                assert sim.detection_masks(patterns, view) == want
                assert len(want) == len(view)
            assert any(sim.detection_masks(patterns, table.view()))

    @pytest.mark.parametrize("backend, fusion", TIERS)
    def test_strength_masks_all(self, circuit, faults, backend, fusion):
        table = chunked_table(circuit, faults)
        patterns = random_patterns(circuit, 70, seed=3)
        for view in view_cases(table):
            want = strength_masks_all(circuit, patterns, list(view), backend, fusion)
            got = strength_masks_all(circuit, patterns, view, backend, fusion)
            assert got == want and len(got) == len(view)

    @pytest.mark.parametrize("backend, fusion", TIERS)
    @pytest.mark.parametrize("bad", [-1, "n_signals", 2**31])
    def test_every_tier_refuses_ids_outside_the_circuit(
        self, circuit, backend, fusion, bad
    ):
        n_signals = circuit.compiled().n_signals
        bad = n_signals if bad == "n_signals" else bad
        patterns = random_patterns(circuit, 8, seed=1)
        fault = PathDelayFault((0, bad), Transition.RISING)
        message = str(signal_range_error(n_signals))
        sim = DelayFaultSimulator(circuit, TestClass.ROBUST, backend, fusion)
        with pytest.raises(ValueError) as excinfo:
            sim.detection_masks(patterns, [fault])
        assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            strength_masks_all(circuit, patterns, [fault], backend, fusion)
        assert str(excinfo.value) == message

    @needs_native
    def test_bad_views_raise_before_the_native_call(
        self, circuit, faults, monkeypatch
    ):
        from repro.kernel.native import NativeWordBackend

        def no_pass(*args, **kwargs):
            raise AssertionError("the native pass ran")

        monkeypatch.setattr(NativeWordBackend, "_planes_pass", no_pass)
        n_signals = circuit.compiled().n_signals
        patterns = random_patterns(circuit, 8, seed=1)
        sim = DelayFaultSimulator(circuit, TestClass.NONROBUST, "native")
        wider = FaultTable(n_signals + 1, faults).view([0, 1])
        with pytest.raises(ValueError, match="outside the circuit"):
            sim.detection_masks(patterns, wider)
        with pytest.raises(ValueError, match="outside the circuit"):
            strength_masks_all(circuit, patterns, wider, "native")
        with pytest.raises(IndexError):
            sim.detection_masks(patterns, FaultTable(n_signals, faults).view([60]))
        tampered = FaultTable(n_signals, faults).view([0, 1])
        tampered.rows = np.array([0, len(faults)], dtype=np.int32)
        with pytest.raises(IndexError):
            sim.detection_masks(patterns, tampered)
        with pytest.raises(IndexError):
            strength_masks_all(circuit, patterns, tampered, "native")
