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
  all combinations below does;
* on the ``native/c`` engine, where a nonrobust fault's whole run, a
  search and an FPTPG batch are one C call each, every outcome equals
  the Python loops' on the ``codegen`` and ``interp`` engines, on paths
  off the circuit's structure too.
"""

import contextlib
import random
from typing import Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign import SerialExecutor
from repro.circuit import Circuit, CircuitBuilder, GateType
from repro.core import aptpg
from repro.core.aptpg import AptpgOutcome, _attempt, polarity_lanes, run_aptpg
from repro.core.controllability import compute_controllability
from repro.core.fptpg import run_fptpg, sensitizer_for
from repro.core.results import FaultStatus
from repro.core.sensitize import path_final_values, xor_side_signals
from repro.core.state import SEVEN_VALUED, TESTED, TpgState
from repro.kernel import native_available
from repro.logic import seven_valued as sv
from repro.logic import three_valued as tv
from repro.logic.words import mask_for
from repro.paths import FaultTable, PathDelayFault, TestClass, Transition, fault_list
from tiers import TPG_TIERS, python_tiers, tpg_state

#: keep hypothesis examples small: at most 2**5 combinations per fault
MAX_SIDES = 5

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C toolchain and no cached native module"
)


def xor_dag(seed: int, n_inputs: int, n_gates: int, repeats: bool = False) -> Circuit:
    """A random DAG rich in XOR/XNOR gates, some with three inputs.

    With *repeats* fanins are drawn with replacement, so ``XOR(a, a)``
    and ``XOR(a, b, b)`` occur.
    """
    rng = random.Random(seed)
    circuit = Circuit(name=f"xor_dag_{seed}")
    signals = [circuit.add_input(f"i{k}") for k in range(n_inputs)]
    kinds = [GateType.XOR, GateType.XNOR, GateType.XOR, GateType.AND,
             GateType.NAND, GateType.OR, GateType.NOR, GateType.NOT]
    for g in range(n_gates):
        kind = rng.choice(kinds)
        arity = 1 if kind is GateType.NOT else rng.choice((2, 2, 3))
        window = signals[-8:] if rng.random() < 0.7 else signals
        if repeats:
            fanin = [rng.choice(window) for _ in range(arity)]
        else:
            fanin = rng.sample(window, arity)
        signals.append(circuit.add_gate(f"g{g}", kind, fanin))
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


def assert_same_outcome(got: AptpgOutcome, want: AptpgOutcome) -> None:
    """Same settlement, counters, survivors and returned state."""
    assert settle(got) == settle(want)
    assert got.splits_used == want.splits_used
    assert got.implication_passes == want.implication_passes
    assert got.survivors == want.survivors
    assert got.state.width == want.state.width
    assert got.state.mask == want.state.mask
    assert got.state.implication_passes == want.state.implication_passes
    assert got.state.planes == want.state.planes


def spy_searches(sides, searched):
    """An ``_attempt`` stand-in that records each combination searched,
    in order, and runs the real search."""
    real = aptpg._attempt

    def record(*args):
        xor_sides = args[7]  # _attempt(..., use_backward, xor_sides, fusion)
        searched.append(sum(1 << k for k, s in enumerate(sides) if xor_sides[s]))
        return real(*args)

    return record


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
            # the C run never calls _attempt: spy on the Python loop
            with python_tiers(), mock.patch.object(
                aptpg, "_attempt", spy_searches(sides, searched)
            ):
                outcome = run_aptpg(circuit, fault, test_class, 8)
            native = run_aptpg(circuit, fault, test_class, 8)
            assert outcome.survivors == native.survivors == expected
            # survivors are searched in order, up to the first test
            assert searched == expected[: len(searched)]
            assert len(searched) == len(expected) or outcome.status is FaultStatus.TESTED
            assert_same_outcome(native, outcome)
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
        # the campaign's APTPG rounds report the same total
        executor = SerialExecutor(c, TestClass.NONROBUST, 8, True, 64)
        table = FaultTable(c.num_signals, [fault])
        result = executor.run_round(True, table, [0], [0, 1])
        assert result.implication_passes == outcome.implication_passes


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


class TestPolarityBitsRange:
    """``max_xor_polarity_bits`` must lie in [0, 16] on every engine."""

    def test_both_ends(self, engine):
        c, fault = xor_chain(2, 0)
        for test_class in TestClass:
            for bits in (0, 16):
                got = run_aptpg(c, fault, test_class, 8, fusion=engine,
                                max_xor_polarity_bits=bits)
                assert got.status is (
                    FaultStatus.TESTED if bits else FaultStatus.ABORTED
                )
                assert settle(got) == serial_reference(c, fault, test_class, 8, bits)
            for bits in (-1, 17, 40):
                # refused before any state is built
                with mock.patch.object(aptpg, "TpgState", side_effect=AssertionError):
                    with pytest.raises(ValueError, match=f"max_xor_polarity_bits={bits}"):
                        run_aptpg(c, fault, test_class, 8, fusion=engine,
                                  max_xor_polarity_bits=bits)

    def test_a_path_without_xor_sides(self):
        """A negative cap used to turn this redundant fault, which has no
        XOR side, into an abort: y needs b = 1, z needs NOT b = 1."""
        b = CircuitBuilder("and_not_chain")
        b.inputs("a", "b")
        b.and_("y", "a", "b")
        b.not_("nb", "b")
        b.and_("z", "y", "nb")
        b.outputs("z")
        c = b.build()
        fault = PathDelayFault.from_names(c, ("a", "y", "z"), Transition.RISING)
        assert xor_side_signals(c, fault) == []
        for tiers in (contextlib.nullcontext, python_tiers):
            with tiers():
                got = run_aptpg(c, fault, TestClass.NONROBUST, 32)
                assert got.status is FaultStatus.REDUNDANT
                with pytest.raises(ValueError, match="max_xor_polarity_bits=-1"):
                    run_aptpg(c, fault, TestClass.NONROBUST, 32,
                              max_xor_polarity_bits=-1)


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
                    with python_tiers(), mock.patch.object(
                        aptpg, "_attempt", spy_searches(sides, searched)
                    ):
                        spied = run_aptpg(c, fault, test_class, 32)
                    native = run_aptpg(c, fault, test_class, 32)
                    assert spied.survivors == native.survivors == expected
                    # the first survivor is searched and tested
                    assert spied.status is FaultStatus.TESTED
                    assert searched == expected[:1]
                    assert_same_outcome(native, spied)
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

        # the C run never calls _sensitized_state: spy on the Python loop
        with python_tiers(), mock.patch.object(aptpg, "_sensitized_state", spy):
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
        assert outcome.survivors[0] == 128
        native = run_aptpg(c, fault, TestClass.NONROBUST, 32)
        assert_same_outcome(native, outcome)


repeat_dags = st.builds(
    xor_dag,
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=6, max_value=60),
    st.just(True),
)
#: every width, small ones (no or few lane splits: more backtracking) often
widths = st.integers(min_value=1, max_value=4) | st.integers(min_value=1, max_value=64)


def assert_aptpg_matches_python(circuit, fault, test_class, width, **options):
    """The native run equals the Python loops on codegen and interp."""
    got = run_aptpg(circuit, fault, test_class, width, **options)
    assert got.state.tier == "native/c"
    with python_tiers():
        for fusion in ("auto", "interp"):
            want = run_aptpg(
                circuit, fault, test_class, width, fusion=fusion, **options
            )
            assert want.state.tier != "native/c"
            assert_same_outcome(got, want)
    return got


@needs_native
class TestNativeShardsMatchPython:
    """The one-call native APTPG run, search and FPTPG batch against the
    Python loops on the ``codegen`` and ``interp`` engines."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.data(),
        repeat_dags,
        test_classes,
        widths,
        st.sampled_from([0, 1, 2, 64]),
        st.integers(min_value=0, max_value=8),
    )
    def test_aptpg(self, data, circuit, test_class, width, limit, max_bits):
        faults = [
            fault
            for fault in fault_list(circuit, cap=96, strategy="all")
            if len(xor_side_signals(circuit, fault)) <= MAX_SIDES
        ]
        picks = data.draw(
            st.lists(st.integers(0, 95), min_size=1, max_size=6), label="faults"
        )
        for fault in [faults[k % len(faults)] for k in picks if faults]:
            assert_aptpg_matches_python(
                circuit, fault, test_class, width,
                backtrack_limit=limit, max_xor_polarity_bits=max_bits,
            )

    @pytest.mark.parametrize("seed", [8, 10])
    def test_backtracking_searches(self, seed):
        """Faults whose one-lane search backtracks, at every backtrack
        limit and with zero or one lane split."""
        circuit = xor_dag(seed, 10, 50, repeats=True)
        with python_tiers():
            hard = [
                (fault, test_class)
                for fault in fault_list(circuit, cap=96, strategy="all")
                for test_class in TestClass
                if run_aptpg(circuit, fault, test_class, 1).backtracks
            ]
        assert len(hard) >= 5
        for fault, test_class in hard:
            for width in (1, 2, 3):
                for limit in (0, 1, 2, 64):
                    assert_aptpg_matches_python(
                        circuit, fault, test_class, width, backtrack_limit=limit
                    )

    def test_a_stuck_lane_rejoins_after_an_implication(self):
        """Lane 1 of this robust state reaches no primary input, so it
        sticks while lane 0 decides; each implication after a decision
        puts lane 1 back into play, and the second time it decides
        again.  (Found by a random search over states.)"""
        circuit = xor_dag(9649, 9, 32, repeats=True)
        cc = compute_controllability(circuit)
        fault = PathDelayFault((0, 40), Transition.FALLING)
        extra = [(15, (0, 0, 0, 0)), (4, (0, 0, 0, 0)), (5, (4, 0, 4, 0)),
                 (19, (2, 0, 0, 2))]
        runs = []
        for tier in TPG_TIERS:
            state = tpg_state(tier, circuit, SEVEN_VALUED, 3)
            state.sensitize(fault, state.mask)
            for signal, planes in extra:
                state.assign(signal, planes)
            if tier == "native/c":
                runs.append((state.search(cc, 64), list(state.planes)))
            else:
                runs.append((aptpg._search(state, cc, 64), state.planes))
        assert runs[0][0].status == TESTED
        assert runs[0] == runs[1] == runs[2]

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(st.data(), repeat_dags, test_classes, widths)
    def test_fptpg(self, data, circuit, test_class, width):
        faults = fault_list(circuit, cap=96, strategy="all")
        batch = data.draw(
            st.lists(st.sampled_from(faults), min_size=1, max_size=width), label="batch"
        )
        got = run_fptpg(circuit, batch, test_class, width)
        assert got.state.tier == "native/c"
        for fusion in ("auto", "interp"):
            with python_tiers():
                want = run_fptpg(circuit, batch, test_class, width, fusion=fusion)
            assert want.state.tier != "native/c"
            assert got.statuses == want.statuses
            assert got.patterns == want.patterns
            assert got.decisions == want.decisions
            assert got.state.implication_passes == want.state.implication_passes
            assert got.state.planes == want.state.planes

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(st.data(), repeat_dags, test_classes, widths)
    def test_paths_off_the_circuit_structure(self, data, circuit, test_class, width):
        """The runners take any path that starts at a primary input, so
        the C round sensitizes (and screens the XOR sides of) paths that
        leave the fanout structure, as the Python sensitizer does."""
        batch = [
            PathDelayFault(draw_input_path(data, circuit), transition)
            for transition in data.draw(
                st.lists(st.sampled_from(list(Transition)), min_size=1,
                         max_size=min(width, 6)),
                label="launches",
            )
        ]
        max_bits = data.draw(st.integers(0, MAX_SIDES), label="max_bits")
        for fault in batch:
            assert_aptpg_matches_python(
                circuit, fault, test_class, width, max_xor_polarity_bits=max_bits
            )
        got = run_fptpg(circuit, batch, test_class, width)
        assert got.state.tier == "native/c"
        for fusion in ("auto", "interp"):
            with python_tiers():
                want = run_fptpg(circuit, batch, test_class, width, fusion=fusion)
            assert want.state.tier != "native/c"
            assert got.statuses == want.statuses
            assert got.patterns == want.patterns
            assert got.decisions == want.decisions
            assert got.state.implication_passes == want.state.implication_passes
            assert got.state.planes == want.state.planes


def draw_input_path(data, circuit: Circuit) -> Tuple[int, ...]:
    """A path from a primary input: a random fanout walk, or now and
    then any signals after the input, off the circuit's structure."""
    compiled = circuit.compiled()
    path = [data.draw(st.sampled_from(compiled.py_inputs), label="input")]
    if data.draw(st.integers(0, 2), label="off-structure") == 0:
        signal = st.integers(0, circuit.num_signals - 1)
        return tuple(path + data.draw(st.lists(signal, max_size=6), label="rest"))
    while compiled.py_fanout[path[-1]] and data.draw(st.integers(0, 5)):
        path.append(data.draw(st.sampled_from(compiled.py_fanout[path[-1]])))
    return tuple(path)
