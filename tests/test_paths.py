"""Unit tests for the path delay fault model and path enumeration."""

import pytest

from repro.circuit import CircuitBuilder
from repro.circuit.library import c17, paper_example, redundant_and_chain
from repro.circuit.generators import reconvergent_ladder, ripple_carry_adder
from repro.api.resolve import resolve_circuit
from repro.paths import (
    PathDelayFault,
    Transition,
    both_transitions,
    collect_faults,
    count_faults,
    count_paths,
    fault_list,
    iter_faults,
    iter_paths,
    longest_path_faults,
    longest_paths,
    path_length_histogram,
    paths_per_signal,
)


class TestTransition:
    def test_rising(self):
        assert Transition.RISING.initial == 0
        assert Transition.RISING.final == 1

    def test_falling(self):
        assert Transition.FALLING.initial == 1
        assert Transition.FALLING.final == 0

    def test_inverted(self):
        assert Transition.RISING.inverted() is Transition.FALLING
        assert Transition.FALLING.inverted() is Transition.RISING


class TestPathDelayFault:
    def test_from_names_validates(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        assert fault.length == 2
        assert fault.input_signal == c.index_of("b")
        assert fault.output_signal == c.index_of("x")

    def test_validate_rejects_non_path(self):
        c = paper_example()
        with pytest.raises(ValueError, match="does not feed"):
            PathDelayFault.from_names(c, ("b", "r", "x"), Transition.RISING)

    def test_validate_rejects_internal_start(self):
        c = paper_example()
        with pytest.raises(ValueError, match="primary input"):
            PathDelayFault.from_names(c, ("p", "x"), Transition.RISING)

    def test_validate_rejects_internal_end(self):
        c = paper_example()
        with pytest.raises(ValueError, match="primary output"):
            PathDelayFault.from_names(c, ("b", "p"), Transition.RISING)

    def test_final_values_follow_parity(self):
        c = paper_example()
        # b -> p (OR, non-inverting) -> x (AND, non-inverting)
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.RISING)
        assert fault.final_values(c) == (1, 1, 1)
        # a -> p -> t (NOT: inverts) -> y (AND)
        fault = PathDelayFault.from_names(c, ("a", "p", "t", "y"), Transition.RISING)
        assert fault.final_values(c) == (1, 1, 0, 0)

    def test_transition_at(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("a", "p", "t", "y"), Transition.RISING)
        assert fault.transition_at(c, 0) is Transition.RISING
        assert fault.transition_at(c, 1) is Transition.RISING
        assert fault.transition_at(c, 2) is Transition.FALLING
        assert fault.transition_at(c, 3) is Transition.FALLING

    def test_describe(self):
        c = paper_example()
        fault = PathDelayFault.from_names(c, ("b", "p", "x"), Transition.FALLING)
        assert fault.describe(c) == "F: b-p-x"

    def test_both_transitions(self):
        rising, falling = both_transitions((0, 1, 2))
        assert rising.transition is Transition.RISING
        assert falling.transition is Transition.FALLING
        assert rising.signals == falling.signals

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            PathDelayFault((), Transition.RISING)


class TestEnumeration:
    def test_paper_example_paths(self):
        c = paper_example()
        paths = {tuple(c.signal_name(s) for s in p) for p in iter_paths(c)}
        assert ("b", "p", "x") in paths
        assert ("b", "q", "s", "x") in paths
        assert ("c", "r", "s", "x") in paths
        assert ("c", "r", "s", "y") in paths
        assert ("a", "p", "x") in paths

    def test_count_matches_enumeration(self):
        for circuit in (c17(), paper_example(), redundant_and_chain(),
                        ripple_carry_adder(4), reconvergent_ladder(5)):
            enumerated = sum(1 for _ in iter_paths(circuit))
            assert enumerated == count_paths(circuit), circuit.name

    def test_max_paths_cap(self):
        c = ripple_carry_adder(6)
        assert sum(1 for _ in iter_paths(c, max_paths=10)) == 10

    def test_restricted_endpoints(self):
        c = paper_example()
        b = c.index_of("b")
        x = c.index_of("x")
        paths = list(iter_paths(c, from_inputs=[b], to_outputs=[x]))
        names = {tuple(c.signal_name(s) for s in p) for p in paths}
        assert names == {("b", "p", "x"), ("b", "q", "s", "x")}
        assert count_paths(c, from_inputs=[b], to_outputs=[x]) == 2

    def test_deterministic_order(self):
        c = c17()
        assert list(iter_paths(c)) == list(iter_paths(c))

    def test_faults_are_two_per_path(self):
        c = c17()
        assert len(collect_faults(c)) == 2 * count_paths(c)
        assert count_faults(c) == 2 * count_paths(c)

    def test_fault_cap(self):
        c = c17()
        assert len(collect_faults(c, max_faults=5)) == 5

    def test_all_enumerated_faults_validate(self):
        c = paper_example()
        for fault in iter_faults(c):
            fault.validate(c)


class TestLongestPaths:
    def test_rca_longest_is_carry_chain(self):
        width = 5
        c = ripple_carry_adder(width)
        (longest,) = longest_paths(c, 1)
        # the longest path threads every carry stage
        names = [c.signal_name(s) for s in longest]
        assert len(longest) - 1 == c.depth
        assert names[-1] in {f"c{width-1}", f"sum{width-1}"}

    def test_returns_requested_count(self):
        c = ripple_carry_adder(4)
        paths = longest_paths(c, 7)
        assert len(paths) == 7
        lengths = [len(p) - 1 for p in paths]
        assert lengths == sorted(lengths, reverse=True)

    def test_no_shorter_path_beats_them(self):
        c = c17()
        top = longest_paths(c, 3)
        cutoff = min(len(p) for p in top)
        all_lengths = sorted((len(p) for p in iter_paths(c)), reverse=True)
        assert [len(p) for p in top] == all_lengths[:3]
        assert cutoff >= all_lengths[2]


class TestCounting:
    def test_paths_per_signal_input_sum(self):
        c = c17()
        through = paths_per_signal(c)
        total = count_paths(c)
        input_sum = sum(through[i] for i in c.inputs)
        assert input_sum == total

    def test_histogram_total(self):
        for circuit in (c17(), paper_example(), ripple_carry_adder(4)):
            histogram = path_length_histogram(circuit)
            assert sum(histogram.values()) == count_paths(circuit)

    def test_histogram_matches_enumeration(self):
        c = paper_example()
        histogram = path_length_histogram(c)
        observed = {}
        for p in iter_paths(c):
            observed[len(p) - 1] = observed.get(len(p) - 1, 0) + 1
        assert histogram == observed

    def test_ladder_counts(self):
        c = reconvergent_ladder(8)
        seed_paths = count_paths(c, from_inputs=[c.index_of("seed")])
        assert seed_paths == 256


class TestCaps:
    """No enumerator returns more than its cap: 0 is none, and a negative
    cap is a ValueError naming the value."""

    @pytest.mark.parametrize("strategy", ["all", "longest", "sample"])
    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 5])
    def test_strategies_stay_within_the_cap(self, strategy, cap):
        for circuit in (c17(), resolve_circuit("c880")):
            faults = fault_list(circuit, cap=cap, strategy=strategy)
            assert len(faults) <= cap
            if strategy == "all":
                assert faults == collect_faults(circuit)[:cap]
            elif strategy == "longest" and cap >= 2:
                # what the cap gave before a cap of 0 or 1 was honoured
                assert faults == longest_path_faults(circuit, cap // 2)
            elif strategy == "longest" and cap == 1:
                assert faults == longest_path_faults(circuit, 1)[:1]

    def test_zero_enumerates_nothing(self):
        from repro.campaign.universe import FaultUniverse

        c = c17()
        assert list(iter_paths(c, max_paths=0)) == []
        assert list(iter_faults(c, max_faults=0)) == []
        assert longest_paths(c, 0) == []
        assert FaultUniverse.from_circuit(c).head(0) == []
        assert list(FaultUniverse.from_circuit(c, max_faults=0).stream()) == []
        assert [len(list(iter_paths(c, max_paths=k))) for k in (1, 2)] == [1, 2]

    def test_negative_caps_are_refused_at_the_call(self):
        from repro.api import AtpgSession
        from repro.campaign.universe import FaultUniverse

        c = c17()
        calls = [
            ("cap", lambda: fault_list(c, cap=-1)),
            ("max_faults", lambda: iter_faults(c, max_faults=-1)),
            ("max_faults", lambda: collect_faults(c, max_faults=-1)),
            ("max_paths", lambda: iter_paths(c, max_paths=-1)),
            ("count", lambda: longest_paths(c, -1)),
            ("max_faults", lambda: FaultUniverse.from_circuit(c, max_faults=-1)),
            ("count", lambda: FaultUniverse.from_circuit(c).head(-1)),
            ("max_faults", lambda: AtpgSession(c).generate(max_faults=-1)),
            ("max_faults", lambda: AtpgSession(c).bist(max_faults=-1)),
            ("limit", lambda: AtpgSession(c).paths(limit=-1)),
        ]
        for name, call in calls:
            with pytest.raises(ValueError, match=rf"^{name} must be >= 0, got -1$"):
                call()
