"""Tests for the NEST-like non-enumerative coverage estimator."""

import itertools

import pytest

from repro.api import AtpgSession
from repro.baselines import NestEstimator
from repro.circuit.generators import reconvergent_ladder, ripple_carry_adder
from repro.circuit.library import c17, paper_example
from repro.core import TestPattern
from repro.paths import TestClass, all_faults, count_paths
from repro.sim import DelayFaultSimulator


def exhaustive_detected_count(circuit, pattern, test_class):
    """Ground truth: count faults detected by enumerating all of them."""
    sim = DelayFaultSimulator(circuit, test_class)
    hits = sim.detected_faults([pattern], all_faults(circuit))
    return sum(1 for mask in hits.values() if mask)


class TestPerPatternCount:
    @pytest.mark.parametrize("factory", [c17, paper_example])
    @pytest.mark.parametrize("test_class", [TestClass.NONROBUST, TestClass.ROBUST])
    def test_count_matches_enumeration(self, factory, test_class):
        """The DP count must equal the enumerative ground truth."""
        circuit = factory()
        estimator = NestEstimator(circuit, test_class)
        vectors = list(itertools.product((0, 1), repeat=len(circuit.inputs)))
        checked = 0
        for v2 in vectors[:12]:
            for flip in range(len(circuit.inputs)):
                v1 = list(v2)
                v1[flip] = 1 - v1[flip]
                pattern = TestPattern(tuple(v1), v2)
                dp = estimator.count_detected_paths(pattern)
                truth = exhaustive_detected_count(circuit, pattern, test_class)
                assert dp == truth, (v1, v2)
                checked += 1
        assert checked > 0

    def test_no_transition_no_detection(self):
        circuit = c17()
        estimator = NestEstimator(circuit)
        pattern = TestPattern((0, 0, 0, 0, 0), (0, 0, 0, 0, 0))
        assert estimator.count_detected_paths(pattern) == 0

    def test_multi_input_change_counts_all_launches(self):
        circuit = ripple_carry_adder(2)
        estimator = NestEstimator(circuit)
        n = len(circuit.inputs)
        pattern = TestPattern((0,) * n, (1,) * n)
        truth = exhaustive_detected_count(circuit, pattern, TestClass.NONROBUST)
        assert estimator.count_detected_paths(pattern) == truth


class TestEstimate:
    def test_bounds_bracket_exact_union(self):
        circuit = paper_example()
        estimator = NestEstimator(circuit)
        patterns = []
        for v2 in itertools.product((0, 1), repeat=4):
            v1 = (1 - v2[0],) + v2[1:]
            patterns.append(TestPattern(v1, v2))
        estimate = estimator.estimate(patterns, exact_cap=1000)
        assert estimate.exact_union is not None
        assert estimate.lower_bound <= estimate.exact_union <= estimate.upper_bound
        assert estimate.n_patterns == len(patterns)

    def test_exact_union_skipped_over_cap(self):
        circuit = reconvergent_ladder(10)  # 2^10 paths from the seed
        estimator = NestEstimator(circuit)
        n = len(circuit.inputs)
        pattern = TestPattern((0,) * n, (1,) + (0,) * (n - 1))
        estimate = estimator.estimate([pattern], exact_cap=10)
        assert estimate.exact_union is None

    def test_scales_to_explosive_circuits(self):
        """The point of NEST: counting works where enumeration cannot."""
        circuit = reconvergent_ladder(24)
        assert count_paths(circuit) > 16_000_000
        estimator = NestEstimator(circuit)
        n = len(circuit.inputs)
        # seed rising, all controls at 1: every stage's AND sees ctl=1
        pattern = TestPattern((0,) + (1,) * (n - 1), (1,) * n)
        count = estimator.count_detected_paths(pattern)
        assert count > 0  # counted without enumerating

    def test_atpg_patterns_cover_what_they_promise(self):
        circuit = paper_example()
        faults = all_faults(circuit)
        report = AtpgSession(circuit).generate(faults, test_class=TestClass.NONROBUST)
        estimator = NestEstimator(circuit)
        estimate = estimator.estimate(report.patterns, exact_cap=1000)
        # the union of detected paths must cover every tested fault's path
        assert estimate.exact_union is not None
        assert estimate.exact_union >= report.n_tested // 2
