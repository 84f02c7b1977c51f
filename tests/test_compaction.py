"""Tests for test-set compaction."""

import pytest

from repro.api import AtpgSession
from repro.circuit.generators import ripple_carry_adder
from repro.circuit.library import c17, paper_example
from repro.core.compaction import (
    compaction_report,
    greedy_compaction,
    reverse_order_compaction,
)
from repro.paths import TestClass, all_faults
from repro.sim import DelayFaultSimulator


@pytest.fixture(params=[c17, paper_example])
def setup(request):
    circuit = request.param()
    faults = all_faults(circuit)
    report = AtpgSession(circuit).generate(faults, test_class=TestClass.NONROBUST)
    return circuit, faults, report.patterns


class TestReverseOrder:
    def test_preserves_coverage(self, setup):
        circuit, faults, patterns = setup
        compacted = reverse_order_compaction(circuit, patterns, faults)
        sim = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        assert sim.coverage(compacted, faults) == pytest.approx(
            sim.coverage(patterns, faults)
        )

    def test_never_grows(self, setup):
        circuit, faults, patterns = setup
        compacted = reverse_order_compaction(circuit, patterns, faults)
        assert len(compacted) <= len(patterns)

    def test_keeps_original_order(self, setup):
        circuit, faults, patterns = setup
        compacted = reverse_order_compaction(circuit, patterns, faults)
        positions = [patterns.index(p) for p in compacted]
        assert positions == sorted(positions)


class TestGreedy:
    def test_preserves_coverage(self, setup):
        circuit, faults, patterns = setup
        compacted = greedy_compaction(circuit, patterns, faults)
        sim = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        assert sim.coverage(compacted, faults) == pytest.approx(
            sim.coverage(patterns, faults)
        )

    def test_not_larger_than_reverse(self, setup):
        circuit, faults, patterns = setup
        greedy = greedy_compaction(circuit, patterns, faults)
        reverse = reverse_order_compaction(circuit, patterns, faults)
        assert len(greedy) <= len(reverse)


class TestReport:
    def test_report_shape(self):
        circuit = ripple_carry_adder(3)
        faults = all_faults(circuit, cap=60)
        patterns = AtpgSession(circuit).generate(
            faults, test_class=TestClass.NONROBUST
        ).patterns
        report = compaction_report(circuit, patterns, faults)
        assert report["reverse_order"] <= report["patterns"]
        assert report["greedy"] <= report["reverse_order"]
        assert report["coverage_greedy"] == pytest.approx(report["coverage_full"])

    def test_actually_compacts(self):
        """On the adder, many early patterns are subsumed by later ones."""
        circuit = ripple_carry_adder(4)
        faults = all_faults(circuit, cap=100)
        patterns = AtpgSession(circuit).generate(
            faults, test_class=TestClass.NONROBUST
        ).patterns
        compacted = greedy_compaction(circuit, patterns, faults)
        assert len(compacted) < len(patterns)

    def test_empty_patterns(self):
        circuit = c17()
        assert reverse_order_compaction(circuit, [], []) == []
        assert greedy_compaction(circuit, [], []) == []


class TestBackendThreading:
    """Both word backends must compact to the identical pattern set."""

    def test_backends_agree_beyond_one_word(self):
        # > 64 patterns so the numpy path really runs multi-word
        circuit = ripple_carry_adder(5)
        faults = all_faults(circuit, cap=200)
        patterns = AtpgSession(circuit).generate(
            faults, test_class=TestClass.NONROBUST
        ).patterns
        assert len(patterns) > 64
        for strategy in (reverse_order_compaction, greedy_compaction):
            via_int = strategy(
                circuit, patterns, faults, TestClass.NONROBUST, backend="int"
            )
            via_numpy = strategy(
                circuit, patterns, faults, TestClass.NONROBUST, backend="numpy"
            )
            assert via_int == via_numpy

    def test_report_accepts_backend(self):
        circuit = ripple_carry_adder(3)
        faults = all_faults(circuit, cap=40)
        patterns = AtpgSession(circuit).generate(
            faults, test_class=TestClass.NONROBUST
        ).patterns
        report = compaction_report(
            circuit, patterns, faults, TestClass.NONROBUST, backend="numpy"
        )
        assert report["coverage_reverse"] == pytest.approx(
            report["coverage_full"]
        )
