"""The bit-parallel XOR polarity screen of APTPG.

``run_aptpg`` puts polarity combination ``c`` of a fault's XOR side
inputs in lane ``c`` of one state and searches only the combinations
whose lane survives sensitization and implication.  These tests hold
each layer of that to its one-combination-at-a-time meaning:

* lane-mask sensitization equals, lane by lane, the single-polarity
  sensitization of every combination;
* the screen's survivors are exactly the combinations whose own
  one-combination state is conflict-free after sensitize + imply;
* ``run_aptpg`` settles every fault exactly as the serial loop over
  all combinations below does.
"""

import random
from typing import Tuple
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.scheduler import _WorkerContext
from repro.circuit import Circuit, CircuitBuilder, GateType
from repro.core import aptpg
from repro.core.aptpg import AptpgOutcome, _attempt, polarity_lanes, run_aptpg
from repro.core.controllability import compute_controllability
from repro.core.fptpg import sensitizer_for
from repro.core.results import FaultStatus
from repro.core.sensitize import path_final_values, xor_side_signals
from repro.core.state import TpgState
from repro.logic import seven_valued as sv
from repro.logic import three_valued as tv
from repro.logic.words import mask_for
from repro.paths import PathDelayFault, TestClass, Transition, fault_list

#: keep hypothesis examples small: at most 2**5 combinations per fault
MAX_SIDES = 5

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def xor_dag(seed: int, n_inputs: int, n_gates: int) -> Circuit:
    """A random DAG rich in XOR/XNOR gates, some with three inputs."""
    rng = random.Random(seed)
    circuit = Circuit(name=f"xor_dag_{seed}")
    signals = [circuit.add_input(f"i{k}") for k in range(n_inputs)]
    kinds = [GateType.XOR, GateType.XNOR, GateType.XOR, GateType.AND,
             GateType.NAND, GateType.OR, GateType.NOR, GateType.NOT]
    for g in range(n_gates):
        kind = rng.choice(kinds)
        arity = 1 if kind is GateType.NOT else rng.choice((2, 2, 3))
        window = signals[-8:] if rng.random() < 0.7 else signals
        signals.append(circuit.add_gate(f"g{g}", kind, rng.sample(window, arity)))
    for signal in signals[-3:]:
        circuit.mark_output(signal)
    return circuit.freeze()


def xor_faults(circuit: Circuit, max_sides: int = MAX_SIDES):
    """Faults with at least one XOR side input (the ones that get screened)."""
    return [
        fault
        for fault in fault_list(circuit, cap=48, strategy="all")
        if 0 < len(xor_side_signals(circuit, fault)) <= max_sides
    ]


def combo_sides(sides, combo):
    """The 0/1 polarity of every side under combination *combo*."""
    return {s: combo >> k & 1 for k, s in enumerate(sides)}


def named_sensitization(circuit, fault, test_class, polarity):
    """Single-polarity assignments spelled with named values.

    The sensitization rules of :mod:`repro.core.sensitize`, one lane,
    written independently of the lane-mask arithmetic: *polarity*
    maps every XOR side to 0 or 1.
    """
    compiled = circuit.compiled()
    robust = test_class is TestClass.ROBUST

    def encode(name):
        return sv.encode(name) if robust else tv.encode(int(name[-1]))

    value = fault.transition.final
    launch = ("R" if value else "F") if robust else f"U{value}"
    assignments = [(fault.signals[0], encode(launch))]
    for on_path_input, signal in zip(fault.signals, fault.signals[1:]):
        on_path_final = value
        control = compiled.controlling[signal]
        sides = [f for f in compiled.py_fanin[signal] if f != on_path_input]
        value ^= compiled.inverting[signal]
        if control is None:
            for side in sides:
                value ^= polarity[side]
        assignments.append((signal, encode(f"U{value}")))
        for side in sides:
            if control is None:
                name = f"S{polarity[side]}"
            else:
                nc = 1 - control
                name = f"S{nc}" if on_path_final == nc else f"U{nc}"
            assignments.append((side, encode(name)))
    return assignments


def own_state(circuit, fault, test_class, sides, combo):
    """A one-lane state with just *combo* sensitized and implied."""
    sensitize, algebra = sensitizer_for(test_class)
    state = TpgState(circuit, algebra, 1)
    for signal, planes in sensitize(circuit, fault, 1, combo_sides(sides, combo)):
        state.assign(signal, planes)
    state.imply()
    return state


def serial_reference(
    circuit, fault, test_class, width, max_xor_polarity_bits=8, backtrack_limit=64
):
    """Every polarity combination searched in turn, no screen."""
    cc = compute_controllability(circuit)
    sides = xor_side_signals(circuit, fault)
    exhaustive = len(sides) <= max_xor_polarity_bits
    combos = range(1 << len(sides)) if exhaustive else [0]
    mask = mask_for(width)
    aborted = False
    decisions = backtracks = 0
    for combo in combos:
        xor_sides = {s: mask * bit for s, bit in combo_sides(sides, combo).items()}
        outcome = _attempt(
            circuit, fault, test_class, width, cc, backtrack_limit, True, xor_sides
        )
        decisions += outcome.decisions
        backtracks += outcome.backtracks
        if outcome.status is FaultStatus.TESTED:
            return FaultStatus.TESTED, outcome.pattern, decisions, backtracks
        aborted |= outcome.status is FaultStatus.ABORTED
    status = FaultStatus.ABORTED if aborted or not exhaustive else FaultStatus.REDUNDANT
    return status, None, decisions, backtracks


def settle(outcome: AptpgOutcome):
    return outcome.status, outcome.pattern, outcome.decisions, outcome.backtracks


dags = st.builds(
    xor_dag,
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=6, max_value=24),
)
test_classes = st.sampled_from(list(TestClass))


class TestLaneMaskSensitization:
    @SETTINGS
    @given(dags, test_classes)
    def test_each_lane_is_its_own_combination(self, circuit, test_class):
        sensitize, _ = sensitizer_for(test_class)
        for fault in xor_faults(circuit):
            sides = xor_side_signals(circuit, fault)
            n = 1 << len(sides)
            lanes = polarity_lanes(sides)
            merged = sensitize(circuit, fault, mask_for(n), lanes)
            finals = path_final_values(circuit, fault, lanes, mask_for(n))
            for combo in range(n):
                polarity = combo_sides(sides, combo)
                single = named_sensitization(circuit, fault, test_class, polarity)
                assert sensitize(circuit, fault, 1, polarity) == single
                assert [s for s, _ in merged] == [s for s, _ in single]
                for (_, planes), (_, expect) in zip(merged, single):
                    assert tuple(p >> combo & 1 for p in planes) == expect
                assert tuple(f >> combo & 1 for f in finals) == path_final_values(
                    circuit, fault, combo_sides(sides, combo)
                )

    def test_scalar_defaults_keep_their_meaning(self):
        b = CircuitBuilder("xor_and")
        b.inputs("a", "b")
        b.xor("y", "a", "b")
        b.and_("z", "y", "b")
        b.outputs("z")
        c = b.build()
        fault = PathDelayFault.from_names(c, ("a", "y", "z"), Transition.RISING)
        side = c.index_of("b")
        assert path_final_values(c, fault) == (1, 1, 1)
        assert path_final_values(c, fault, {side: 1}) == (1, 0, 0)
        # four lanes: b is 1 in lanes 1 and 3
        assert path_final_values(c, fault, {side: 0b1010}, 0b1111) == (
            0b1111, 0b0101, 0b0101,
        )
        # side lanes outside *lanes* are ignored
        assert path_final_values(c, fault, {side: 0b1110}, 0b0011) == (
            0b11, 0b01, 0b01,
        )


class TestScreen:
    @SETTINGS
    @given(dags, test_classes)
    def test_survivors_are_the_conflict_free_combinations(self, circuit, test_class):
        for fault in xor_faults(circuit):
            sides = xor_side_signals(circuit, fault)
            expected = [
                combo
                for combo in range(1 << len(sides))
                if not own_state(circuit, fault, test_class, sides, combo).conflict_mask
            ]
            searched = []

            def record(*args):
                xor_sides = args[7]  # _attempt(..., use_backward, xor_sides, fusion)
                combo = sum(1 << k for k, s in enumerate(sides) if xor_sides[s])
                searched.append(combo)
                return AptpgOutcome(FaultStatus.REDUNDANT, None, None)

            with mock.patch.object(aptpg, "_attempt", record):
                outcome = run_aptpg(circuit, fault, test_class, 8)
            assert searched == expected
            if not expected:
                assert outcome.status is FaultStatus.REDUNDANT
                assert outcome.state.width == 1 << len(sides)

    def test_counts_the_screen_and_every_search(self):
        """y = XOR(a, b), z = AND(y, b): b = 0 is refuted by the screen,
        b = 1 is searched; the passes of both states are counted."""
        b = CircuitBuilder("xor_polarity")
        b.inputs("a", "b")
        b.xor("y", "a", "b")
        b.and_("z", "y", "b")
        b.outputs("z")
        c = b.build()
        fault = PathDelayFault.from_names(c, ("a", "y", "z"), Transition.RISING)
        outcome = run_aptpg(c, fault, TestClass.NONROBUST, 8)
        assert outcome.status is FaultStatus.TESTED
        assert outcome.state.width == 8
        assert outcome.implication_passes > outcome.state.implication_passes > 0
        # the campaign's APTPG shards report the same total
        shard = _WorkerContext(c, TestClass.NONROBUST, 8, True, 64).aptpg_shard(fault)
        assert shard.implication_passes == outcome.implication_passes


class TestMatchesSerialLoop:
    @SETTINGS
    @given(
        dags, test_classes, st.sampled_from([1, 4, 32, 64]), st.sampled_from([0, 1, 8])
    )
    def test_same_settlement(self, circuit, test_class, width, max_bits):
        for fault in xor_faults(circuit):
            got = run_aptpg(
                circuit, fault, test_class, width, max_xor_polarity_bits=max_bits
            )
            assert settle(got) == serial_reference(
                circuit, fault, test_class, width, max_bits
            )

    def test_too_many_sides_aborts(self):
        """Nine XOR sides exceed the cap of 8: only the all-zero
        combination is searched, the final AND needs s0 = 1, and the
        fault is aborted rather than declared redundant."""
        b = CircuitBuilder("xor_chain")
        b.inputs("a", *[f"s{k}" for k in range(9)])
        previous = "a"
        for k in range(9):
            b.xor(f"x{k}", previous, f"s{k}")
            previous = f"x{k}"
        b.and_("z", previous, "s0")
        b.outputs("z")
        c = b.build()
        path = ("a", *[f"x{k}" for k in range(9)], "z")
        fault = PathDelayFault.from_names(c, path, Transition.RISING)
        assert len(xor_side_signals(c, fault)) == 9
        for test_class in TestClass:
            for width in (1, 4, 32, 64):
                got = run_aptpg(c, fault, test_class, width)
                assert got.status is FaultStatus.ABORTED
                assert settle(got) == serial_reference(c, fault, test_class, width)
                tested = run_aptpg(c, fault, test_class, width, max_xor_polarity_bits=9)
                assert tested.status is FaultStatus.TESTED
                assert settle(tested) == serial_reference(
                    c, fault, test_class, width, max_xor_polarity_bits=9
                )


def xor_chain(n_sides: int, anded: int) -> Tuple[Circuit, PathDelayFault]:
    """a -> x0 -> ... -> x{n-1} -> z with side s_k on XOR x_k, and side
    s_{anded} also on the final AND: every combination with bit
    *anded* clear conflicts on necessary implications alone."""
    b = CircuitBuilder(f"xor_chain_{n_sides}_{anded}")
    b.inputs("a", *[f"s{k}" for k in range(n_sides)])
    previous = "a"
    for k in range(n_sides):
        b.xor(f"x{k}", previous, f"s{k}")
        previous = f"x{k}"
    b.and_("z", previous, f"s{anded}")
    b.outputs("z")
    c = b.build()
    path = ("a", *[f"x{k}" for k in range(n_sides)], "z")
    return c, PathDelayFault.from_names(c, path, Transition.RISING)


class TestChunkedScreen:
    """More than 64 combinations: the screen runs in 64-lane chunks,
    combination ``c`` in lane ``c % 64`` of chunk ``c // 64``."""

    def test_chunk_lanes_hold_their_combinations(self):
        sides = list(range(10, 18))  # 8 sides, 4 chunks of 64
        for first in range(0, 256, 64):
            lanes = polarity_lanes(sides, first, 64)
            for lane in range(64):
                combo = first + lane
                assert {s: lanes[s] >> lane & 1 for s in sides} == combo_sides(
                    sides, combo
                )
        assert polarity_lanes(sides[:5]) == polarity_lanes(sides[:5], 0, 32)

    def test_seven_and_eight_sides_match_the_serial_loop(self):
        for n_sides in (7, 8):
            for anded in (0, n_sides - 1):
                c, fault = xor_chain(n_sides, anded)
                sides = xor_side_signals(c, fault)
                assert len(sides) == n_sides
                for test_class in TestClass:
                    expected = [
                        combo
                        for combo in range(1 << n_sides)
                        if not own_state(c, fault, test_class, sides, combo).conflict_mask
                    ]
                    assert expected and len(expected) < 1 << n_sides
                    searched = []

                    def record(*args):
                        xor_sides = args[7]
                        searched.append(
                            sum(1 << k for k, s in enumerate(sides) if xor_sides[s])
                        )
                        return AptpgOutcome(FaultStatus.REDUNDANT, None, None)

                    with mock.patch.object(aptpg, "_attempt", record):
                        run_aptpg(c, fault, test_class, 32)
                    assert searched == expected
                    for width in (1, 32, 64):
                        got = run_aptpg(c, fault, test_class, width)
                        assert got.status is FaultStatus.TESTED
                        assert settle(got) == serial_reference(
                            c, fault, test_class, width
                        )

    def test_every_chunk_is_counted_and_stays_one_word(self):
        c, fault = xor_chain(8, 7)  # survivors only in chunks 2 and 3
        widths = []
        real = aptpg._sensitized_state

        def spy(circuit, fault, test_class, width, *rest):
            state, seconds = real(circuit, fault, test_class, width, *rest)
            widths.append((width, state.implication_passes))
            return state, seconds

        with mock.patch.object(aptpg, "_sensitized_state", spy):
            outcome = run_aptpg(c, fault, TestClass.NONROBUST, 32)
        assert outcome.status is FaultStatus.TESTED
        screens, searches = widths[:4], widths[4:]
        assert [w for w, _ in screens] == [64] * 4
        assert all(w == 32 for w, _ in searches)
        # the first search (combination 128) found the test
        assert len(searches) == 1
        assert outcome.implication_passes == (
            sum(passes for _, passes in screens) + outcome.state.implication_passes
        )
