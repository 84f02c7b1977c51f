"""Hostile inputs at the Python/C boundary, and the columnar pattern path.

The C walks and the TPG engine index caller-sized buffers unchecked, so
every shape a caller can hand them is pinned here against a Python
oracle: empty batches, lane counts around a word (1, 63, 64, 65),
paths of one signal and through every signal, the full 16-bit XOR
polarity screen, duplicate fanins, extreme backtrack limits and fault
views over tables that changed between calls.  The campaign's
generated patterns travel as rows — from the executor's one C round
call, through a :class:`PatternTable`, to the drop bus's one C drop
round — and each hop is checked against its Python oracle, down to the
edges of both round calls: empty rounds, skipped shards, fresh rows
past one word, tables rebuilt between rounds, no live rows, and rows
or bounds the C code would index out of range.  The row codec's C
readers, which read pattern tuples and fault paths straight from the
Python objects, must give the same arrays or the same error text as
the Python path they stand in for, on exact and hostile input.
``scripts/check_native_sanitizers.py`` runs this file on an ASan +
UBSan build of the C unit.
"""

import contextlib
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AtpgSession, Options
from repro.api.resolve import resolve_circuit
from repro import chaos
from repro.campaign.bus import DropBus
from repro.campaign.runner import _Campaign
from repro.campaign.scheduler import RoundResult, SerialExecutor, Supervision
from repro.campaign.universe import FaultUniverse
from repro.circuit.builder import CircuitBuilder
from repro.circuit.generators import random_dag
from repro.circuit.library import c17
from repro.core.aptpg import run_aptpg
from repro.core.controllability import compute_controllability
from repro.core.fptpg import run_fptpg
from repro.core.patterns import (
    PatternTable,
    TestPattern,
    extract_pattern,
    random_patterns,
)
from repro.core.results import FaultStatus
from repro.core.state import (
    SEVEN_VALUED,
    ShardFailure,
    TpgEngine,
    TpgState,
)
from repro.kernel import native, native_available, words_to_int
from repro.kernel.native import DropRound
from repro.kernel.packed import (
    PackedPatterns,
    bits_text,
    pack_bits,
    pattern_rows,
    text_rows,
)
from repro.paths import FaultTable, PathDelayFault, TestClass, Transition, fault_list
from repro.sim import DelayFaultSimulator, strength_masks_all
from repro.sim.delay_sim import pack_patterns
from tiers import python_tiers

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C toolchain and no cached native module"
)

BACKENDS = ["int", "numpy", pytest.param("native", marks=needs_native)]

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def oracle_masks(circuit, test_class, patterns, faults):
    return DelayFaultSimulator(
        circuit, test_class, backend="numpy", fusion="interp"
    ).detection_masks(patterns, faults)


def settle(outcome):
    """What a generation run decided, without its wall-clock seconds."""
    return (
        outcome.status,
        outcome.pattern,
        outcome.decisions,
        outcome.backtracks,
        outcome.implication_passes,
        list(outcome.survivors),
    )


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


def chain_circuit(length: int):
    """One input driving a chain of inverters and buffers: a single path
    through every signal."""
    b = CircuitBuilder(f"chain{length}")
    b.inputs("a")
    previous = "a"
    for k in range(length):
        b.gate(f"g{k}", "NOT" if k % 2 else "BUF", [previous])
        previous = f"g{k}"
    b.outputs(previous)
    return b.build()


def xor_chain(n_sides: int):
    """A path through *n_sides* XOR gates, each with its own side input."""
    b = CircuitBuilder(f"xor{n_sides}")
    b.inputs("p", *(f"s{k}" for k in range(n_sides)))
    previous = "p"
    for k in range(n_sides):
        b.xor(f"x{k}", previous, f"s{k}")
        previous = f"x{k}"
    b.outputs(previous)
    return b.build()


def duplicate_fanin_circuit():
    b = CircuitBuilder("dup")
    b.inputs("a", "b", "c")
    b.and_("g", "a", "a")
    b.gate("h", "XOR", ["b", "b", "c"])
    b.or_("o", "g", "h", "g")
    b.nand("q", "h", "a", "h")
    b.outputs("o", "q", "a")
    return b.build()


@pytest.fixture(scope="module")
def dag():
    return random_dag(8, 40, seed=11)


# ---------------------------------------------------------------------------
# a packed batch's lane count must describe its words
# ---------------------------------------------------------------------------


class TestPackedShape:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("walk", ["detection", "strength"])
    def test_lane_count_disagreeing_with_words_is_refused(self, backend, walk):
        circuit = resolve_circuit("c880")
        faults = fault_list(circuit, cap=64, strategy="all")
        rng = np.random.default_rng(5)
        shape = (len(circuit.inputs), 4)
        v1 = rng.integers(0, 2**63, size=shape, dtype=np.uint64)
        v2 = rng.integers(0, 2**63, size=shape, dtype=np.uint64)
        with pytest.raises(ValueError) as excinfo:
            packed = PackedPatterns(v1, v2, n_patterns=1)
            if walk == "detection":
                DelayFaultSimulator(
                    circuit, TestClass.ROBUST, backend=backend
                ).detection_masks(packed, faults)
            else:
                strength_masks_all(circuit, packed, faults, backend=backend)
        assert str(excinfo.value) == (
            "n_patterns=1 needs 1 words per plane, but the planes have 4"
        )

    @pytest.mark.parametrize(
        "v1, v2, n",
        [
            (np.zeros((3, 1), np.uint64), np.zeros((3, 2), np.uint64), 1),
            (np.zeros(3, np.uint64), np.zeros(3, np.uint64), 1),
            (np.zeros((3, 1), np.uint8), np.zeros((3, 1), np.uint8), 1),
            ([[0]], [[0]], 1),
            (np.zeros((3, 1), np.uint64), np.zeros((3, 1), np.uint64), 0),
            (np.zeros((3, 1), np.uint64), np.zeros((3, 1), np.uint64), 65),
            (np.zeros((3, 2), np.uint64), np.zeros((3, 2), np.uint64), 64),
        ],
    )
    def test_malformed_planes_are_refused(self, v1, v2, n):
        with pytest.raises(ValueError):
            PackedPatterns(v1, v2, n_patterns=n)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
    def test_every_constructor_agrees_with_the_check(self, dag, n):
        patterns = random_patterns(dag, n, seed=n)
        packed = PackedPatterns.from_patterns(patterns)
        assert packed.n_words == -(-n // 64)
        PackedPatterns(packed.v1, packed.v2, n)  # accepted as is
        table = PatternTable.from_patterns(patterns)
        assert table.packed().n_words == packed.n_words


# ---------------------------------------------------------------------------
# empty batches
# ---------------------------------------------------------------------------


class TestEmpty:
    def test_empty_pattern_batches(self, dag):
        with pytest.raises(ValueError, match="empty"):
            PackedPatterns.from_patterns([])
        with pytest.raises(ValueError, match="empty"):
            PackedPatterns.from_text([], [])
        with pytest.raises(ValueError, match="n_patterns=0"):
            PatternTable(len(dag.inputs)).packed()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_no_patterns_or_no_faults(self, dag, backend):
        faults = fault_list(dag, cap=10, strategy="all")
        sim = DelayFaultSimulator(dag, TestClass.NONROBUST, backend=backend)
        assert sim.detection_masks([], faults) == [0] * len(faults)
        assert sim.detection_masks(random_patterns(dag, 3), []) == []
        patterns = random_patterns(dag, 3)
        assert strength_masks_all(dag, patterns, [], backend=backend) == []

    @needs_native
    def test_native_drop_round_with_no_faults(self, dag):
        block = PatternTable.from_patterns(random_patterns(dag, 3)).rows
        empty = FaultTable(dag.num_signals)
        live = np.zeros(0, dtype=bool)
        assert DropRound(dag.compiled(), False).run(block, empty, live) == []

    @needs_native
    def test_empty_fptpg_batch(self, dag):
        engine = TpgEngine(dag.compiled(), 2, 8)
        ranks = engine.ranks(compute_controllability(dag))
        with pytest.raises(ValueError, match="at least one fault"):
            engine.fptpg([], ranks)

    def test_bus_absorbs_nothing(self, dag):
        bus = DropBus(dag, TestClass.NONROBUST)
        bus.register(list(enumerate(fault_list(dag, cap=6, strategy="all"))))
        assert bus.absorb([]) == []
        assert bus.patterns == []


# ---------------------------------------------------------------------------
# TPG at the edges: widths, path shapes, XOR screens, limits, fanins
# ---------------------------------------------------------------------------


def python_twin(circuit, faults, test_class, width, **options):
    """FPTPG and APTPG on the C engine and on the interpreted oracle."""
    got = [
        settle(run_aptpg(circuit, f, test_class, width, **options)) for f in faults
    ]
    want = [
        settle(run_aptpg(circuit, f, test_class, width, fusion="interp", **options))
        for f in faults
    ]
    return got, want


@needs_native
class TestTpgEdges:
    @pytest.mark.parametrize("width", [1, 63, 64])
    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_widths(self, dag, width, test_class):
        faults = fault_list(dag, cap=24, strategy="all")
        got, want = python_twin(dag, faults, test_class, width)
        assert got == want
        batch = faults[:width]
        native = run_fptpg(dag, batch, test_class, width)
        oracle = run_fptpg(dag, batch, test_class, width, fusion="interp")
        assert native.statuses == oracle.statuses
        assert native.patterns == oracle.patterns
        assert native.decisions == oracle.decisions

    @pytest.mark.parametrize("length", [0, 1, 40])
    def test_path_through_every_signal(self, length):
        circuit = chain_circuit(length)
        signals = tuple(range(circuit.num_signals))
        faults = [PathDelayFault(signals, t) for t in Transition]
        for test_class in TestClass:
            got, want = python_twin(circuit, faults, test_class, 32)
            assert got == want
            assert all(status.value == "tested" for status, *_ in got)
        patterns = random_patterns(circuit, 70, seed=length)
        for backend in ("int", "numpy", "native"):
            for test_class in TestClass:
                masks = DelayFaultSimulator(
                    circuit, test_class, backend=backend
                ).detection_masks(patterns, faults)
                assert masks == oracle_masks(circuit, test_class, patterns, faults)

    def test_sixteen_xor_sides_screen_in_1024_chunks(self):
        circuit = xor_chain(16)
        path = tuple(circuit.index_of(n) for n in ["p", *(f"x{k}" for k in range(16))])
        for transition in Transition:
            fault = PathDelayFault(path, transition)
            got = run_aptpg(
                circuit, fault, TestClass.NONROBUST, 64, max_xor_polarity_bits=16
            )
            with python_tiers():
                want = run_aptpg(
                    circuit, fault, TestClass.NONROBUST, 64, max_xor_polarity_bits=16
                )
            assert settle(got) == settle(want)
            assert len(got.survivors) == 1 << 16
            assert got.implication_passes == want.implication_passes
            # one side more than the cap: one combination, aborted unless tested
            over = run_aptpg(
                circuit, fault, TestClass.NONROBUST, 64, max_xor_polarity_bits=15
            )
            with python_tiers():
                assert settle(over) == settle(
                    run_aptpg(
                        circuit, fault, TestClass.NONROBUST, 64,
                        max_xor_polarity_bits=15,
                    )
                )

    @pytest.mark.parametrize("limit", [0, 10**6])
    @pytest.mark.parametrize("width", [1, 4])
    def test_backtrack_limits(self, limit, width):
        circuit = resolve_circuit("c1355")
        faults = fault_list(circuit, cap=48, strategy="all")
        got, want = python_twin(
            circuit, faults, TestClass.NONROBUST, width, backtrack_limit=limit
        )
        assert got == want

    def test_duplicate_fanins(self):
        circuit = duplicate_fanin_circuit()
        faults = fault_list(circuit, cap=100, strategy="all")
        assert len(faults) > 4
        for test_class in TestClass:
            got, want = python_twin(circuit, faults, test_class, 16)
            assert got == want
            native = run_fptpg(circuit, faults[:16], test_class, 16)
            oracle = run_fptpg(circuit, faults[:16], test_class, 16, fusion="interp")
            assert native.statuses == oracle.statuses
            assert native.patterns == oracle.patterns
        patterns = random_patterns(circuit, 65, seed=3)
        for test_class in TestClass:
            masks = DelayFaultSimulator(circuit, test_class).detection_masks(
                patterns, faults
            )
            assert masks == oracle_masks(circuit, test_class, patterns, faults)


class TestViewsOverChangedTables:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_view_survives_growth_and_take(self, dag, backend):
        faults = fault_list(dag, cap=60, strategy="all")
        table = FaultTable(dag.num_signals, faults[:20])
        rows = [19, 3, 3, 0, 11]
        view = table.view(rows)
        patterns = random_patterns(dag, 40, seed=9)
        sim = DelayFaultSimulator(dag, TestClass.NONROBUST, backend=backend)
        want = sim.detection_masks(patterns, [faults[r] for r in rows])
        assert sim.detection_masks(patterns, view) == want
        table.extend(faults[20:])  # reallocates every column
        assert sim.detection_masks(patterns, view) == want
        rebuilt = table.take([11, 0, 3, 19])
        assert sim.detection_masks(patterns, view) == want
        assert sim.detection_masks(patterns, rebuilt.view([3, 2, 2, 1, 0])) == want


# ---------------------------------------------------------------------------
# the reused engine: every shard equals the same shard on a fresh engine
# ---------------------------------------------------------------------------


def round_key(result: RoundResult):
    """What a round decided, without its wall-clock seconds."""
    rows = None
    if result.rows is not None:
        rows = (result.rows[0].tolist(), result.rows[1].tolist())
    return (
        result.statuses,
        result.patterns,
        rows,
        result.decisions,
        result.backtracks,
        result.implication_passes,
        result.errors,
    )


def bounds_of(shards):
    bounds = [0]
    for shard in shards:
        bounds.append(bounds[-1] + len(shard))
    return bounds


class _Shards:
    """A table of faults on c1355-like, and each round's fresh-engine result.

    Rows ``0..159`` are structural faults; :attr:`narrowing` lists the
    rows whose polarity screen narrows the engine, and :attr:`raising`
    is the row of a path from an internal signal that APTPG tests: its
    row read fails after the C search has run.
    """

    def __init__(self):
        self.circuit = resolve_circuit("c1355")
        faults = fault_list(self.circuit, cap=160, strategy="all")
        self.cc = compute_controllability(self.circuit)
        self.narrowing = [
            row
            for row, fault in enumerate(faults)
            if run_aptpg(
                self.circuit, fault, TestClass.NONROBUST, 32, self.cc,
                backtrack_limit=2,
            ).state.width < 32
        ]
        self.raising = len(faults)
        self.table = FaultTable(
            self.circuit.num_signals, faults + [self._raising_fault(faults)]
        )
        self._fresh = {}

    def _raising_fault(self, faults):
        engine = TpgEngine(self.circuit.compiled(), 2, 32)
        ranks = engine.ranks(self.cc)
        for fault in faults:
            for start in range(1, len(fault.signals) - 1):
                sub = PathDelayFault(fault.signals[start:], fault.transition)
                table = FaultTable(self.circuit.num_signals, [sub])
                try:
                    engine.round(True, table, [0], [0, 1], b"\0", ranks, 2, 8)
                except ShardFailure as failure:  # tested: the row read failed
                    assert isinstance(failure.error, ValueError)
                    return sub
        raise AssertionError("no internal path tests")

    def executor(self):
        return SerialExecutor(
            self.circuit, TestClass.NONROBUST, 32, True, 2,
            supervision=Supervision(retry_base_ms=0),
        )

    def run(self, executor, item):
        kind, groups = item
        rows = [row for group in groups for row in group]
        result = executor.run_round(
            kind == "aptpg", self.table, rows, bounds_of(groups)
        )
        return round_key(result)

    def fresh(self, item):
        key = (item[0], tuple(map(tuple, item[1])))
        if key not in self._fresh:
            self._fresh[key] = self.run(self.executor(), item)
        return self._fresh[key]


@pytest.fixture(scope="module")
def shards():
    if not native_available():
        pytest.skip("no C toolchain and no cached native module")
    return _Shards()


@needs_native
class TestReusedEngine:
    def test_pool_has_every_kind(self, shards):
        assert shards.narrowing
        errors = shards.fresh(("aptpg", [[shards.raising]]))[-1]
        assert errors[0]["error"] == "ValueError"
        assert "not a primary input" in errors[0]["detail"]

    @SETTINGS
    @given(data=st.data())
    def test_rounds_match_fresh_engines(self, shards, data):
        """A round on the executor's reused engine, after any earlier
        rounds, equals the same round on a fresh executor."""
        one = st.sampled_from(list(range(shards.raising)) + shards.narrowing * 4)
        aptpg_shard = st.one_of(
            st.lists(one, min_size=1, max_size=1),
            st.lists(st.sampled_from(shards.narrowing), min_size=1, max_size=1),
            st.just([shards.raising]),
        )
        fptpg_shard = st.one_of(
            st.lists(one, min_size=1, max_size=32),
            st.lists(one, max_size=31).map(lambda batch: [shards.raising] + batch),
        )
        item = st.one_of(
            st.tuples(st.just("aptpg"), st.lists(aptpg_shard, min_size=1, max_size=3)),
            st.tuples(st.just("fptpg"), st.lists(fptpg_shard, min_size=1, max_size=3)),
        )
        sequence = data.draw(st.lists(item, min_size=1, max_size=6))
        executor = shards.executor()
        for round_ in sequence:
            assert shards.run(executor, round_) == shards.fresh(round_)
        assert executor.engine() is not None

    def test_rounds_match_the_python_shards(self, shards):
        """Every status, pattern, row and counter of a C round equals the
        same shards run one by one through run_fptpg / run_aptpg on the
        Python engine."""
        executor = shards.executor()
        for kind, groups in (
            ("fptpg", [list(range(0, 32)), list(range(32, 50))]),
            ("aptpg", [[row] for row in range(50, 90)]),
        ):
            rows, bounds = sum(groups, []), bounds_of(groups)
            got = executor.run_round(kind == "aptpg", shards.table, rows, bounds)
            with python_tiers():
                want = shards.executor().run_round(
                    kind == "aptpg", shards.table, rows, bounds
                )
            assert round_key(got) == round_key(want)
            tested = [p for p in got.patterns if p is not None]
            assert tested
            assert got.rows[0].tolist() == [list(p.v1) for p in tested]
            assert got.rows[1].tolist() == [list(p.v2) for p in tested]

    def test_failing_shard_is_retried_then_quarantined(self, shards):
        """A shard that fails inside the round call takes its next
        attempts from there; the shards around it are unaffected and
        the chaos queries keep numbering attempts."""
        groups = [[3], [shards.raising], [7]]
        executor = shards.executor()
        controller = chaos.install({"points": [{"site": "shard_error", "at": [1]}]})
        try:
            got = executor.run_round(
                True, shards.table, sum(groups, []), bounds_of(groups)
            )
            chaos.maybe_raise("shard_error")  # the next query's index
            fired = controller.fired()
        finally:
            chaos.uninstall()
        # shard 1: attempt 1 injected, attempts 2 and 3 fail in C; the
        # queries were 0..4 (shard 0, shard 1 twice, shard 2, shard 1)
        assert fired == [{"site": "shard_error", "occurrence": 1}]
        assert controller._counts["shard_error"] == 6
        assert executor.shard_retries == 2
        assert executor.quarantined_shards == 1
        assert got.errors[0] is None and got.errors[2] is None
        assert got.errors[1]["error"] == "ValueError"
        assert got.errors[1]["attempts"] == 3
        assert got.statuses[1] is FaultStatus.SKIPPED_ERROR
        assert got.patterns[1] is None
        for k in (0, 2):
            alone = shards.fresh(("aptpg", [groups[k]]))
            assert (got.statuses[k], got.patterns[k]) == (alone[0][0], alone[1][0])

    def test_run_outcomes_read_rows_like_extract_pattern(self, shards):
        circuit, cc = shards.circuit, shards.cc
        for fault in shards.table.faults[:60]:
            outcome = run_aptpg(circuit, fault, TestClass.NONROBUST, 32, cc)
            if outcome.pattern is None:
                continue
            state = outcome.state
            lane = state.engine.c.r_lane  # the one shard's tested lane
            assert outcome.pattern == extract_pattern(state, lane, fault)
        batch = shards.table.faults[:32]
        outcome = run_fptpg(circuit, batch, TestClass.NONROBUST, 32, cc)
        tested = [(k, p) for k, p in enumerate(outcome.patterns) if p is not None]
        assert tested
        for lane, pattern in tested:
            assert pattern == extract_pattern(outcome.state, lane, batch[lane])

    def test_input_rows_equal_extract_pattern(self, dag):
        faults = fault_list(dag, cap=40, strategy="all")[:32]
        state = TpgState(dag, SEVEN_VALUED, 32)
        rng = random.Random(4)
        for pi in dag.inputs:
            value = rng.getrandbits(32)
            planes = (~value & state.mask, value, rng.getrandbits(32) & state.mask, 0)
            state.assign(pi, planes)
        lanes = list(range(32))
        v1, v2 = state.engine.input_rows(lanes)
        for lane, fault in zip(lanes, faults):
            want = extract_pattern(state, lane, fault)
            assert (tuple(v1[lane].tolist()), tuple(v2[lane].tolist())) == (
                want.v1,
                want.v2,
            )
        one = state.engine.input_rows([5])
        assert one[0].tolist() == [v1[5].tolist()]
        assert one[1].tolist() == [v2[5].tolist()]


# ---------------------------------------------------------------------------
# the drop bus's native pass against the interpreted oracle
# ---------------------------------------------------------------------------


def live_bus(circuit, test_class, faults, pending, **options):
    """A bus holding *faults* with all but the *pending* ones released."""
    bus = DropBus(circuit, test_class, **options)
    arrivals = [(10 * k + 3, fault) for k, fault in enumerate(faults)]
    bus.register(arrivals)
    if pending == "none":
        keep = []
    elif pending == "one":
        keep = [arrivals[len(arrivals) // 2]]
    else:
        keep = arrivals
    kept = {index for index, _ in keep}
    for index, _ in arrivals:
        if index not in kept:
            bus.release(index)
    return bus, keep


class TestNativeDropRound:
    @pytest.mark.parametrize("n_fresh", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("pending", ["none", "one", "all"])
    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_matches_interp(self, dag, n_fresh, pending, test_class):
        faults = fault_list(dag, cap=80, strategy="all")
        bus, keep = live_bus(dag, test_class, faults, pending)
        patterns = random_patterns(dag, n_fresh, seed=n_fresh)
        masks = oracle_masks(dag, test_class, patterns, [f for _, f in keep])
        want = [index for (index, _), mask in zip(keep, masks) if mask]
        assert bus.absorb(patterns, pattern_rows(patterns)) == want
        assert bus.patterns == patterns
        # a second, narrower round reuses the scratch
        more = random_patterns(dag, 1, seed=n_fresh + 1)
        still = [(i, f) for i, f in keep if i not in want]
        masks = oracle_masks(dag, test_class, more, [f for _, f in still])
        for index in want:
            bus.release(index)
        assert bus.absorb(more) == [i for (i, _), m in zip(still, masks) if m]

    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_wide_batches_match_interp(self, dag, test_class):
        """More than 128 words: every per-call array the walk reads is
        past numpy's small-block cache, so one freed before the call
        would be reused by the allocator (and the sanitizer job reports
        the read)."""
        faults = fault_list(dag, cap=120, strategy="all")
        patterns = random_patterns(dag, 64 * 129 + 5, seed=8)
        want = oracle_masks(dag, test_class, patterns, faults)
        got = DelayFaultSimulator(dag, test_class).detection_masks(patterns, faults)
        assert got == want
        bus, keep = live_bus(dag, test_class, faults, "all")
        assert bus.absorb(patterns) == [
            index for (index, _), mask in zip(keep, want) if mask
        ]

    @needs_native
    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_drop_round_rows_match_masks(self, dag, test_class):
        faults = fault_list(dag, cap=80, strategy="all")
        table = FaultTable(dag.num_signals, faults)
        drop = DropRound(dag.compiled(), test_class is TestClass.ROBUST)
        for n, rows in ((200, range(0, 80, 3)), (1, range(80)), (65, [7, 1])):
            patterns = random_patterns(dag, n, seed=n)
            live = np.zeros(len(table), dtype=bool)
            live[list(rows)] = True
            masks = oracle_masks(dag, test_class, patterns, faults)
            want = [row for row in sorted(rows) if masks[row]]
            block = PatternTable.from_patterns(patterns).rows
            assert drop.run(block, table, live) == want
            assert not live[want].any()
            assert live.sum() == len(rows) - len(want)

    def test_released_faults_never_drop(self, dag):
        faults = fault_list(dag, cap=80, strategy="all")
        bus, keep = live_bus(dag, TestClass.NONROBUST, faults, "one")
        patterns = random_patterns(dag, 200, seed=1)
        dropped = bus.absorb(patterns)
        assert set(dropped) <= {index for index, _ in keep}

    @pytest.mark.parametrize("backend, fusion", [("int", "auto"), ("numpy", "interp")])
    def test_python_backends_run_detection_masks(
        self, dag, backend, fusion, monkeypatch
    ):
        faults = fault_list(dag, cap=40, strategy="all")
        bus, keep = live_bus(
            dag, TestClass.NONROBUST, faults, "all", backend=backend, fusion=fusion
        )
        patterns = random_patterns(dag, 70, seed=2)
        masks = oracle_masks(dag, TestClass.NONROBUST, patterns, [f for _, f in keep])
        calls = []
        real = DelayFaultSimulator.detection_masks

        def spy(self, patterns, faults):
            calls.append(len(patterns))
            return real(self, patterns, faults)

        monkeypatch.setattr(DelayFaultSimulator, "detection_masks", spy)
        assert bus.absorb(patterns) == [i for (i, _), m in zip(keep, masks) if m]
        assert calls == [70]

    def test_table_rebuilt_between_rounds(self, dag):
        faults = fault_list(dag, cap=80, strategy="all")
        bus, keep = live_bus(dag, TestClass.NONROBUST, faults, "one")
        extra = [(9000 + k, f) for k, f in enumerate(faults[:5])]
        bus.register(extra)  # released rows outnumber live ones: rebuilt
        assert len(bus.table) == 1 + len(extra)
        live = keep + extra
        patterns = random_patterns(dag, 100, seed=4)
        masks = oracle_masks(dag, TestClass.NONROBUST, patterns, [f for _, f in live])
        assert bus.absorb(patterns) == [i for (i, _), m in zip(live, masks) if m]


# ---------------------------------------------------------------------------
# the two round calls at their edges
# ---------------------------------------------------------------------------


def round_engine(circuit, width=32):
    engine = TpgEngine(circuit.compiled(), 2, width)
    return engine, engine.ranks(compute_controllability(circuit))


@needs_native
class TestRoundEdges:
    """``repro_tpg_round`` and ``repro_drop_round`` at the shapes a
    campaign can hand them, each against its Python oracle."""

    def test_empty_rounds(self, dag):
        table = FaultTable(dag.num_signals, fault_list(dag, cap=8, strategy="all"))
        engine, ranks = round_engine(dag)
        for aptpg in (False, True):
            run = engine.round(aptpg, table, [], [0], b"", ranks, 64, 8)
            assert run.codes == b"" and run.tested == [] and run.rows == b""
            assert run.decisions == run.backtracks == run.implication_passes == 0
        executor = SerialExecutor(dag, TestClass.NONROBUST, 32, True, 64)
        result = executor.run_round(True, table, [], [0])
        assert (result.statuses, result.errors, result.rows) == ([], [], None)
        live = np.ones(len(table), dtype=bool)
        none = PatternTable(len(dag.inputs)).rows
        assert DropRound(dag.compiled(), False).run(none, table, live) == []
        assert live.all()

    def test_rounds_whose_targets_were_all_dropped(self, dag):
        """Skipped (quarantined) shards run nothing; a campaign round
        whose targets all settled meanwhile makes no call at all."""
        faults = fault_list(dag, cap=40, strategy="all")
        table = FaultTable(dag.num_signals, faults)
        engine, ranks = round_engine(dag)
        run = engine.round(
            False, table, list(range(12)), [0, 6, 12], b"\1\1", ranks, 64, 8
        )
        assert run.codes == bytes(12) and run.tested == []
        assert run.decisions == run.implication_passes == 0
        campaign = _Campaign(
            dag, FaultUniverse.from_faults(faults), TestClass.NONROBUST,
            Options(width=8),
        )
        campaign.pull(campaign.universe.stream())
        for index, fault in list(campaign.pending.items()):
            campaign.settle(index, fault, FaultStatus.SIMULATED, None, "simulation")

        class NoCalls:
            def run_round(self, *args):
                raise AssertionError("a round without targets called the executor")

        assert campaign.backlog and not campaign.fptpg_round(NoCalls())
        assert not campaign.aptpg_round(NoCalls())

    def test_a_fault_list_runs_as_its_table(self, dag):
        """Faults given as a list go to C as lists (a library runner's
        one-shard round): the round their table runs, a failing shard
        included, and refused before the call."""
        faults = fault_list(dag, cap=24, strategy="all")
        n = len(faults)
        cases = [(False, faults, [*range(0, n, 8), n]), (True, faults, [*range(n + 1)])]
        cases += [  # internal paths: a tested one's row read fails
            (True, [PathDelayFault(fault.signals[1:], fault.transition)], [0, 1])
            for fault in faults
            if len(fault.signals) > 2
        ]
        failures = 0
        for aptpg, batch, bounds in cases:
            outcomes = []
            for source in (FaultTable(dag.num_signals, batch), batch):
                engine, ranks = round_engine(dag, 8)
                rows, skip = list(range(len(batch))), bytes(len(bounds) - 1)
                try:
                    run = engine.round(aptpg, source, rows, bounds, skip, ranks, 64, 8)
                except ShardFailure as failure:
                    outcomes.append((failure.shard, str(failure.error)))
                else:
                    outcomes.append((run[:6], engine.last_search()))
            assert outcomes[0] == outcomes[1]
            failures += isinstance(outcomes[0][1], str)
        assert failures
        engine, ranks = round_engine(dag, 8)
        rising = Transition.RISING
        for bad, error in (
            (PathDelayFault((0, dag.num_signals), rising), IndexError),
            (forced_signals(PathDelayFault((0,), rising), ()), ValueError),
        ):
            with pytest.raises(error):
                engine.round(True, [bad], [0], [0, 1], b"\0", ranks, 64, 8)

    @pytest.mark.parametrize("shards, width", [(3, 64), (2, 33)])
    def test_fresh_rows_spanning_words(self, shards, width):
        """shards x width > 64: an FPTPG round's fresh rows fill more
        than one word of the drop round's planes."""
        circuit = resolve_circuit("c880")
        faults = fault_list(circuit, cap=400, strategy="all")
        native = AtpgSession(circuit).campaign(
            faults=faults, width=width, shards=shards
        )
        with python_tiers():
            python = AtpgSession(circuit).campaign(
                faults=faults, width=width, shards=shards
            )
        assert native.statuses == python.statuses
        assert [(p.v1, p.v2) for p in native.patterns] == [
            (p.v1, p.v2) for p in python.patterns
        ]
        table = FaultTable(circuit.num_signals, faults)
        patterns = random_patterns(circuit, shards * width, seed=width)
        masks = oracle_masks(circuit, TestClass.NONROBUST, patterns, faults)
        live = np.ones(len(table), dtype=bool)
        block = PatternTable.from_patterns(patterns).rows
        got = DropRound(circuit.compiled(), False).run(block, table, live)
        assert got == [row for row, mask in enumerate(masks) if mask]

    def test_tables_rebuilt_between_rounds(self, dag):
        """Both calls keep views of the table's columns between rounds;
        a table grown or rebuilt in between must be read afresh."""
        faults = fault_list(dag, cap=80, strategy="all")
        bus, keep = live_bus(dag, TestClass.NONROBUST, faults[:40], "one")
        executor = SerialExecutor(dag, TestClass.NONROBUST, 8, True, 64)
        fresh = SerialExecutor(dag, TestClass.NONROBUST, 8, True, 64)

        def generate(indices):
            rows = bus.table_rows(indices)
            got = executor.run_round(False, bus.table, rows, [0, len(rows)])
            want = fresh.run_round(False, bus.table, rows, [0, len(rows)])
            assert round_key(got) == round_key(want)

        generate([index for index, _ in keep])
        patterns = random_patterns(dag, 70, seed=5)
        bus.absorb(patterns)  # the drop round's views of this table
        extra = [(9000 + k, f) for k, f in enumerate(faults[40:])]
        table = bus.table
        bus.register(extra)  # released rows outnumber live ones: rebuilt
        assert bus.table is not table
        generate([index for index, _ in extra[:8]])
        live = [(i, f) for i, f in keep + extra if i in bus._rows]
        more = random_patterns(dag, 90, seed=6)
        masks = oracle_masks(dag, TestClass.NONROBUST, more, [f for _, f in live])
        assert bus.absorb(more) == [i for (i, _), m in zip(live, masks) if m]

    def test_no_live_rows_left(self, dag):
        faults = fault_list(dag, cap=30, strategy="all")
        table = FaultTable(dag.num_signals, faults)
        live = np.zeros(len(table) + 5, dtype=bool)
        block = PatternTable.from_patterns(random_patterns(dag, 100, seed=1)).rows
        assert DropRound(dag.compiled(), True).run(block, table, live) == []
        assert not live.any()

    def test_out_of_range_inputs_are_refused_before_the_call(self, dag):
        faults = fault_list(dag, cap=20, strategy="all")
        table = FaultTable(dag.num_signals, faults)
        engine, ranks = round_engine(dag, 4)
        for rows in ([len(table)], [0, -1], [2**40]):
            with pytest.raises((IndexError, OverflowError)):
                engine.round(False, table, rows, [0, len(rows)], b"\0", ranks, 64, 8)
        for bounds, skip in (([0, 1], b"\0"), ([0, 3], b"\0\0"), ([1, 3], b"\0")):
            with pytest.raises(ValueError, match="shard bounds"):
                engine.round(False, table, [0, 1, 2], bounds, skip, ranks, 64, 8)
        # refused in C before any shard runs: too wide, empty, two faults
        # in an APTPG shard, and the XOR screen cap
        for aptpg, bounds in ((False, [0, 5]), (False, [0, 0, 5]), (True, [0, 2])):
            rows = list(range(bounds[-1]))
            skip = bytes(len(bounds) - 1)
            with pytest.raises(ValueError, match="shard bounds"):
                engine.round(aptpg, table, rows, bounds, skip, ranks, 64, 8)
        with pytest.raises(ValueError, match="max_xor_polarity_bits"):
            engine.round(True, table, [0], [0, 1], b"\0", ranks, 64, 17)
        executor = SerialExecutor(dag, TestClass.NONROBUST, 4, True, 64)
        with pytest.raises(IndexError):
            executor.run_round(True, table, [len(table)], [0, 1])
        assert executor.quarantined_shards == executor.shard_retries == 0
        drop = DropRound(dag.compiled(), False)
        block = PatternTable.from_patterns(random_patterns(dag, 3)).rows
        with pytest.raises(ValueError, match="pattern rows"):
            drop.run(block[:, 1:], table, np.ones(len(table), dtype=bool))
        with pytest.raises(ValueError, match="pattern rows"):
            drop.run(block.astype(np.int64), table, np.ones(len(table), dtype=bool))
        with pytest.raises(ValueError, match="live mask"):
            drop.run(block, table, np.ones(len(table) - 1, dtype=bool))
        with pytest.raises(ValueError, match="live mask"):
            drop.run(block, table, np.ones(len(table), dtype=np.uint8))


# ---------------------------------------------------------------------------
# the row codec's C readers: tuples and paths read pointer by pointer
# ---------------------------------------------------------------------------


class Row(tuple):
    """A tuple subclass: no exact tuple, so both readers refuse it."""


#: Bits each vector may hold besides the cached ints 0 and 1.  The
#: reader takes none of them; the Python path converts the integers
#: equal to 0 or 1 and refuses the rest.
HOSTILE_BITS = [
    True, np.uint8(1), np.int64(0), 1.0, 2, -1, 256, 2**70, 0.5, "1", None,
]
#: Path ids besides exact ints in range, the same way round.
HOSTILE_IDS = [np.int32(3), True, 2**31, -1, 2**70, 5.5, "5", None]


def c_constant(name):
    """The value of ``#define name`` in the C unit."""
    return int(re.search(rf"#define {name} (\d+)", native.NATIVE_SOURCE).group(1))


#: How many items ahead of the one it reads the C reader prefetches, and
#: the fewest items a vector has for it to prefetch.
PREFETCH_AHEAD = c_constant("PREFETCH_AHEAD")
PREFETCH_MIN_WIDTH = c_constant("PREFETCH_MIN_WIDTH")

#: Objects that are no test pattern, each made from a good one.
FOREIGN_ITEMS = [
    lambda good: 1.5,
    lambda good: None,
    lambda good: 10**30,
    lambda good: "01",
    lambda good: (),
    lambda good: SubPattern(good.v1, good.v2),
    lambda good: (good.v1, good.v2),
]
FOREIGN_IDS = ["float", "none", "bigint", "str", "empty", "subpattern", "pair"]


def window_batches(good, foreign):
    """Lists of *good* items with one *foreign* item: at each offset 1 to
    PREFETCH_AHEAD + 1 after a good item, last, and in lists no longer
    than the prefetch window."""
    for offset in range(1, PREFETCH_AHEAD + 2):
        yield [good] * offset + [foreign] + [good] * 3
        yield [good] * offset + [foreign]
    yield [good] * 129 + [foreign]
    for n in range(1, PREFETCH_AHEAD + 1):
        for at in range(n):
            batch = [good] * n
            batch[at] = foreign
            yield batch


def readers_off():
    """The same call with the C readers switched off: the Python path."""
    return mock.patch.object(native, "row_readers", lambda: None)


def outcome(call, *args):
    """What *call* gives: its arrays or values, or its error's type and text."""
    try:
        result = call(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)
    return [
        (a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
        for a in result
    ]


def both_ways(call, *args):
    """*call* with and without the readers; they must agree exactly."""
    with_reader = outcome(call, *args)
    with readers_off():
        assert outcome(call, *args) == with_reader
    return with_reader


def table_columns(n_signals, faults):
    table = FaultTable(n_signals, faults)
    return table.flat, table.offsets, table.final_one


def extended_columns(n_signals, faults):
    """Two extends and an extend_valid on one table: the columns and
    the skipped positions."""
    table = FaultTable(n_signals, faults[:1])
    table.extend(faults[1:2])
    rows, skipped = table.extend_valid(faults[2:])
    return (
        table.flat, table.offsets, table.final_one,
        np.array([rows.start, rows.stop, *skipped]),
    )


@st.composite
def sized_tuple_batches(draw, sizes=(1, 63, 64, 65, 129), widths=st.integers(1, 9)):
    """``(width, patterns)``: random 0/1 tuples of *width* bits, some
    cells, rows or types spoiled.  ``"last"`` spoils a bit of the last
    row, which the reader meets after it wrote every earlier word."""
    n = draw(st.sampled_from(sizes))
    width = draw(widths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = rng.integers(0, 2, size=(2, n, width)).tolist()
    kinds = [[tuple] * n, [tuple] * n]
    makers = [TestPattern] * n
    for _ in range(draw(st.integers(0, 3))):
        side, k = draw(st.integers(0, 1)), draw(st.integers(0, n - 1))
        spoil = draw(
            st.sampled_from(["bit", "list", "subclass", "ragged", "last", "pattern"])
        )
        if spoil == "last":
            spoil, k = "bit", n - 1
        row = vectors[side][k]
        if spoil == "pattern":
            makers[k] = SubPattern
        elif spoil == "bit":
            if row:  # a ragged row may be empty
                position = draw(st.integers(0, len(row) - 1))
                row[position] = draw(st.sampled_from(HOSTILE_BITS))
        elif spoil == "ragged":
            vectors[side][k] = row[: draw(st.integers(0, width - 1))]
        else:
            kinds[side][k] = list if spoil == "list" else Row
    v1, v2 = (
        [kind(row) for kind, row in zip(kinds[side], vectors[side])]
        for side in (0, 1)
    )
    return width, [make(a, b) for make, a, b in zip(makers, v1, v2)]


def tuple_batches():
    return sized_tuple_batches().map(lambda sized: sized[1])


#: One small circuit per input count, for the simulator differential.
_READER_CIRCUITS = {}


def reader_circuit(n_inputs):
    if n_inputs not in _READER_CIRCUITS:
        _READER_CIRCUITS[n_inputs] = (
            chain_circuit(3)
            if n_inputs == 1
            else random_dag(n_inputs, 12, seed=n_inputs)
        )
    return _READER_CIRCUITS[n_inputs]


@st.composite
def fault_batches(draw, n_signals=12):
    """Faults on random paths, some ids or path types spoiled."""
    count = draw(st.integers(0, 40))
    faults = []
    for _ in range(count):
        ids = draw(st.lists(st.integers(0, n_signals - 1), min_size=1, max_size=6))
        if draw(st.integers(0, 9)) == 0:
            ids[draw(st.integers(0, len(ids) - 1))] = draw(
                st.sampled_from(HOSTILE_IDS + [n_signals])
            )
        kind = draw(st.sampled_from([tuple] * 8 + [list, Row, np.array]))
        transition = draw(st.sampled_from(list(Transition)))
        make = draw(st.sampled_from([PathDelayFault] * 9 + [SubFault]))
        faults.append(make(kind(ids), transition))
    return faults


class TestRowReaders:
    """The readers against the Python path, on exact and hostile input.

    The numpy interp oracle packs through the same codec, so these
    differentials, with the int tier's own ``pack_patterns``, are the
    check that does not share a reader.
    """

    @SETTINGS
    @given(patterns=tuple_batches())
    def test_pattern_rows_match_the_python_path(self, patterns):
        both_ways(pattern_rows, patterns)
        both_ways(lambda p: [PackedPatterns.from_patterns(p).v1], patterns)

    @SETTINGS
    @given(sized=sized_tuple_batches(), data=st.data())
    def test_simulators_match_the_python_path(self, sized, data):
        """On native and numpy the C read stands in for the width check:
        masks, strength triples and errors must not depend on it."""
        width, patterns = sized
        circuit = reader_circuit(width + data.draw(st.integers(0, 1)))
        faults = fault_list(circuit, cap=6, strategy="all")
        backend = data.draw(st.sampled_from(["auto", "numpy", "int"]))
        sim = DelayFaultSimulator(circuit, TestClass.ROBUST, backend=backend)
        both_ways(sim.detection_masks, patterns, faults)
        both_ways(strength_masks_all, circuit, patterns, faults, backend)

    @SETTINGS
    @given(faults=fault_batches())
    def test_fault_columns_match_the_python_path(self, faults):
        both_ways(table_columns, 12, faults)
        if len(faults) >= 2:
            both_ways(extended_columns, 12, faults)

    @needs_native
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 4097])
    @pytest.mark.parametrize("width", [1, 7, 64, 129])
    def test_exact_input_is_read_in_c(self, n, width):
        """Clean input must take the readers, or the tests above compare
        the Python path with itself."""
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, (2, n, width), dtype=np.uint8)
        vectors = [tuple(row) for row in bits[0].tolist()]
        planes = native.read_tuple_planes(vectors, width)
        assert planes is not None and planes.dtype == np.uint64
        assert planes.shape == (width, -(-n // 64))
        assert (planes == pack_bits(bits[0])).all()
        patterns = [
            TestPattern(a, b) for a, b in zip(vectors, map(tuple, bits[1].tolist()))
        ]
        pair = native.read_pattern_planes(patterns, width)
        assert pair is not None
        assert (pair[0] == planes).all() and (pair[1] == pack_bits(bits[1])).all()
        paths = [tuple(row) for row in rng.integers(0, 12, (n, 3)).tolist()]
        faults = [
            PathDelayFault(path, list(Transition)[k % 2])
            for k, path in enumerate(paths)
        ]
        flat, offsets, final_one = native.read_fault_columns(faults, 12)
        assert flat.tolist() == [i for p in paths for i in p]
        assert offsets.tolist() == list(range(0, 3 * n + 1, 3))
        assert final_one.tolist() == [1 - k % 2 for k in range(n)]
        # the empty list and one-signal paths
        assert [c.tolist() for c in native.read_fault_columns([], 12)] == [
            [], [0], []
        ]
        short = [
            PathDelayFault((0,), Transition.FALLING),
            PathDelayFault((11,), Transition.RISING),
        ]
        assert [c.tolist() for c in native.read_fault_columns(short, 12)] == [
            [0, 11], [0, 1, 2], [0, 1]
        ]

    @needs_native
    @pytest.mark.parametrize("bad", HOSTILE_BITS)
    def test_tuple_reader_refuses_all_but_the_cached_bits(self, bad):
        assert native.read_tuple_planes([(0, 1), (1, bad)], 2) is None
        assert native.read_tuple_planes([(0, 1), [1, 0]], 2) is None
        assert native.read_tuple_planes([(0, 1), Row((1, 0))], 2) is None
        assert native.read_tuple_planes([(0, 1), (1, 0, 1)], 2) is None
        assert native.read_tuple_planes(((0, 1),), 2) is None  # no list
        # a bad bit in the last row, after every earlier word was written
        vectors = [(k % 2, 1) for k in range(129)] + [(1, bad)]
        assert native.read_tuple_planes(vectors, 2) is None

    @needs_native
    @pytest.mark.parametrize("bad", HOSTILE_BITS)
    def test_pattern_reader_refuses_all_but_exact_patterns(self, bad):
        good = TestPattern((0, 1), (1, 0))
        read = native.read_pattern_planes
        assert read([good, good], 2) is not None
        for hostile in (
            TestPattern((0, 1), (1, bad)),
            TestPattern((bad, 1), (1, 0)),
            TestPattern([0, 1], (1, 0)),
            TestPattern((0, 1), Row((1, 0))),
            TestPattern((0, 1, 1), (1, 0)),
            TestPattern((0, 1), (1,)),
            SubPattern((0, 1), (1, 0)),
        ):
            assert read([good, hostile], 2) is None
            # after every earlier word was written
            assert read([good] * 129 + [hostile], 2) is None
        assert read((good,), 2) is None  # no list
        assert read([good, (good.v1, good.v2)], 2) is None

    @needs_native
    @pytest.mark.parametrize("bad", HOSTILE_IDS + [12])
    def test_fault_reader_refuses_all_but_exact_faults(self, bad):
        rising = Transition.RISING
        good = PathDelayFault((0, 1), rising)
        read = native.read_fault_columns
        assert read([good, good], 12) is not None
        hostile = [
            PathDelayFault((2, bad), rising),
            PathDelayFault([2, 3], rising),
            PathDelayFault(np.array([2, 3]), rising),
            PathDelayFault(Row((2, 3)), rising),
            SubFault((2, 3), rising),
            forced_transition(PathDelayFault((2, 3), rising), "R"),
            forced_signals(PathDelayFault((2, 3), rising), ()),
        ]
        for fault in hostile:
            assert read([good, fault], 12) is None
            assert read([good] * 200 + [fault], 12) is None
        assert read((good,), 12) is None  # no list

    @needs_native
    @pytest.mark.parametrize("foreign", FOREIGN_ITEMS, ids=FOREIGN_IDS)
    def test_pattern_prefetch_reads_only_checked_items(self, foreign):
        """The reader prefetches the vectors of the item PREFETCH_AHEAD
        places on, so a foreign object anywhere in that window, at the
        end of the list or in a list shorter than the window is refused
        like one being read.  Under the sanitizer job each object is its
        own heap block, so reading a float's slots past its end is
        reported."""
        width = PREFETCH_MIN_WIDTH
        v1 = tuple(k % 2 for k in range(width))
        good = TestPattern(v1, v1[::-1])
        foreign = foreign(good)
        for batch in window_batches(good, foreign):
            assert native.read_pattern_planes(batch, width) is None
            got = both_ways(pattern_rows, batch)
            if not isinstance(foreign, SubPattern):
                assert got[0] == "TypeError"
        for n in range(1, PREFETCH_AHEAD + 2):
            got = native.read_pattern_planes([good] * n, width)
            assert got is not None
            for planes, vector in zip(got, (good.v1, good.v2)):
                rows = np.array([vector] * n, dtype=np.uint8)
                assert (planes == pack_bits(rows)).all()

    @needs_native
    @pytest.mark.parametrize(
        "foreign",
        [list, Row, lambda good: good + (0,), lambda good: good[1:], lambda good: 1.5],
        ids=["list", "subclass", "wide", "narrow", "float"],
    )
    def test_tuple_prefetch_reads_only_checked_items(self, foreign):
        width = PREFETCH_MIN_WIDTH
        good = tuple(k % 2 for k in range(width))
        for batch in window_batches(good, foreign(good)):
            assert native.read_tuple_planes(batch, width) is None
        for n in range(1, PREFETCH_AHEAD + 2):
            got = native.read_tuple_planes([good] * n, width)
            assert got is not None
            assert (got == pack_bits(np.array([good] * n, dtype=np.uint8))).all()


class SubPattern(TestPattern):
    """A TestPattern subclass: the pattern reader refuses it."""


class SubFault(PathDelayFault):
    """A PathDelayFault subclass: the fault reader refuses it."""


def forced_transition(fault, transition):
    """*fault* with its launch set past the constructor's check."""
    object.__setattr__(fault, "transition", transition)
    return fault


def forced_signals(fault, signals):
    """*fault* with its path set past the constructor's check."""
    object.__setattr__(fault, "signals", signals)
    return fault


#: The reader's lane counts and widths: a word and a bit either side of
#: one and two words, and a long batch; one, a word either side of 64
#: and two words of inputs.
READER_SIZES = (1, 63, 64, 65, 127, 128, 129, 4097)
READER_WIDTHS = (1, 63, 64, 65, 129)


def packed_fields(patterns):
    packed = PackedPatterns.from_patterns(patterns)
    return packed.v1, packed.v2, packed.n_patterns


class TestTuplePlanes:
    """The C reader writes lane planes; off, the Python path packs rows.

    These tests and :class:`TestWalkWords` fail on each of three
    mutations of the C unit: the reader writing a word out one word
    late, or bit ``k`` of a word at ``k + 1``, and a walk skipping its
    tail loop.
    """

    @SETTINGS
    @given(
        sized=sized_tuple_batches(
            sizes=READER_SIZES, widths=st.sampled_from(READER_WIDTHS)
        )
    )
    def test_planes_match_the_python_path(self, sized):
        """Planes, lane count and every error text must not depend on
        the reader."""
        _width, patterns = sized
        both_ways(packed_fields, patterns)
        both_ways(pattern_rows, patterns)

    @pytest.mark.parametrize("n", READER_SIZES)
    @pytest.mark.parametrize("width", READER_WIDTHS)
    def test_planes_are_the_int_tiers_words(self, n, width):
        """``pack_patterns``, the int tier's own packer, shares no reader:
        lane ``k`` of every plane must be pattern ``k``'s bit there."""
        rng = np.random.default_rng(n * 1000 + width)
        bits = rng.integers(0, 2, (2, n, width)).tolist()
        patterns = [TestPattern(tuple(a), tuple(b)) for a, b in zip(*bits)]
        packed = PackedPatterns.from_patterns(patterns)
        assert packed.n_patterns == n
        planes, lanes = pack_patterns(reader_circuit(width), patterns)
        assert lanes == n
        for k, (_zero, one, _stable, instable) in enumerate(planes):
            assert words_to_int(packed.v2[k]) == one
            assert words_to_int(packed.v1[k]) == one ^ instable

    def test_ragged_vectors_are_refused(self):
        """Vectors whose bits add up to whole rows used to decode shifted
        on the Python path."""
        patterns = [
            TestPattern((0, 0, 0), (1, 1, 1)),
            TestPattern((1, 1, 1, 1), (0, 0, 0, 0)),
            TestPattern((0, 1), (1, 0)),
        ]
        message = r"pattern 1: v1 has 4 bits, expected 3 \(as wide as pattern 0's v1\)"
        for call in (PackedPatterns.from_patterns, pattern_rows):
            for readers in (readers_off, contextlib.nullcontext):
                with readers(), pytest.raises(ValueError, match=message):
                    call(patterns)
        short_v2 = [TestPattern((0, 1), (1, 0)), TestPattern((0, 1), (1,))]
        assert both_ways(pattern_rows, short_v2) == (
            "ValueError",
            "pattern 1: v2 has 1 bits, expected 2 (as wide as pattern 0's v1)",
        )


@needs_native
class TestWalkWords:
    """The walks' word loops — a four-word body with one accumulator per
    word, then a tail — against the numpy interp oracle at 1 to 9 words,
    so the body runs 0 to 2 times and every tail length runs."""

    CIRCUITS = {"c17": c17, "dag": lambda: random_dag(6, 16, seed=4)}

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    @pytest.mark.parametrize("n_words", range(1, 10))
    def test_masks_and_strengths_match_the_oracle(self, name, n_words):
        circuit = self.CIRCUITS[name]()
        n = 64 * (n_words - 1) + 1 + (29 * n_words) % 64
        patterns = random_patterns(circuit, n, seed=n_words)
        faults = fault_list(circuit, cap=120, strategy="all")
        for test_class in (TestClass.ROBUST, TestClass.NONROBUST):
            got = DelayFaultSimulator(
                circuit, test_class, backend="native"
            ).detection_masks(patterns, faults)
            assert got == oracle_masks(circuit, test_class, patterns, faults)
            # lanes in the last word as well as the first
            assert any(mask >> (64 * (n_words - 1)) for mask in got)
        triples = strength_masks_all(circuit, patterns, faults, "native")
        assert triples == strength_masks_all(
            circuit, patterns, faults, "numpy", "interp"
        )


# ---------------------------------------------------------------------------
# the prefix walk: results must not depend on the order of the faults
# ---------------------------------------------------------------------------


def walk_orders(faults, seed=0):
    """*faults* in the orders the prefix-sharing walk meets in practice
    and the ones it must not be fooled by."""
    rng = random.Random(seed)
    shuffled = list(faults)
    rng.shuffle(shuffled)
    rising = [f for f in faults if f.transition is Transition.RISING]
    falling = [f for f in faults if f.transition is Transition.FALLING]
    # every proper prefix of some paths, longest first and shortest first
    prefixes = [
        PathDelayFault(f.signals[:k], f.transition)
        for f in faults[:12]
        for k in range(len(f.signals), 0, -1)
    ]
    return {
        "dfs": list(faults),
        "shuffled": shuffled,
        "reversed": list(faults)[::-1],
        "grouped": rising + falling,
        "interleaved": [f for pair in zip(rising, falling) for f in pair],
        "duplicates": [f for f in faults for _ in range(2)] + list(faults[:9]),
        "prefixes": prefixes + prefixes[::-1],
    }


#: Circuits whose fault lists walk deep shared prefixes (c880, c1355)
#: and the XOR-heavy and duplicate-fanin corners.
WALK_CIRCUITS = {
    "c880": lambda: resolve_circuit("c880"),
    "c1355": lambda: resolve_circuit("c1355"),
    "xor": lambda: xor_chain(5),
    "dup": duplicate_fanin_circuit,
}


@needs_native
class TestPrefixWalk:
    """The C walk shares path prefixes between consecutive faults of one
    launch polarity; the numpy interp oracle walks every fault alone.
    These tests fail on two mutations of the C unit: one prefix stack
    for both polarities, and resuming past the position where the last
    path's mask died."""

    @pytest.mark.parametrize("name", sorted(WALK_CIRCUITS))
    @pytest.mark.parametrize("test_class", list(TestClass))
    @pytest.mark.parametrize("n_patterns", [1, 70, 200])
    def test_orders_match_the_oracle(self, name, test_class, n_patterns):
        circuit = WALK_CIRCUITS[name]()
        faults = fault_list(circuit, cap=300, strategy="all")
        patterns = random_patterns(circuit, n_patterns, seed=n_patterns)
        sim = DelayFaultSimulator(circuit, test_class, backend="native")
        seen = set()
        for order, batch in walk_orders(faults, n_patterns).items():
            want = oracle_masks(circuit, test_class, patterns, batch)
            assert sim.detection_masks(patterns, batch) == want, order
            flags = sim.detection_masks(patterns, batch, flags=True)
            assert flags == [bool(mask) for mask in want], order
            seen.update(flags)
        if n_patterns > 1 and name in ("c880", "c1355"):
            # some faults die on the way, some survive
            assert seen == {False, True}

    @pytest.mark.parametrize("name", sorted(WALK_CIRCUITS))
    def test_strength_orders_match_the_oracle(self, name):
        circuit = WALK_CIRCUITS[name]()
        faults = fault_list(circuit, cap=200, strategy="all")
        patterns = random_patterns(circuit, 90, seed=5)
        for order, batch in walk_orders(faults, 5).items():
            assert strength_masks_all(circuit, patterns, batch, "native") == (
                strength_masks_all(circuit, patterns, batch, "numpy", "interp")
            ), order

    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_rows_with_gaps_match_the_oracle(self, test_class):
        circuit = resolve_circuit("c880")
        faults = fault_list(circuit, cap=300, strategy="all")
        table = FaultTable(circuit.num_signals, faults)
        patterns = random_patterns(circuit, 130, seed=2)
        sim = DelayFaultSimulator(circuit, test_class, backend="native")
        rng = np.random.default_rng(4)
        for rows in (
            list(range(0, 300, 3)),
            sorted(rng.choice(300, 120, replace=False).tolist()),
            rng.integers(0, 300, 200).tolist(),
            list(range(299, -1, -7)),
        ):
            view = table.view(rows)
            want = oracle_masks(circuit, test_class, patterns, list(view))
            assert sim.detection_masks(patterns, view) == want
            assert sim.detection_masks(patterns, view, flags=True) == [
                bool(mask) for mask in want
            ]
            assert strength_masks_all(circuit, patterns, view, "native") == (
                strength_masks_all(circuit, patterns, list(view), "numpy", "interp")
            )

    @pytest.mark.parametrize("test_class", list(TestClass))
    def test_drop_rounds_whose_live_rows_change(self, test_class):
        """The drop round walks only live rows, so which faults are
        consecutive changes from round to round."""
        circuit = resolve_circuit("c880")
        faults = fault_list(circuit, cap=300, strategy="all")
        table = FaultTable(circuit.num_signals, faults)
        drop = DropRound(circuit.compiled(), test_class is TestClass.ROBUST)
        rng = np.random.default_rng(9)
        live = np.ones(len(table), dtype=bool)
        for round_, n_fresh in enumerate([1, 64, 65, 3, 130, 17]):
            patterns = random_patterns(circuit, n_fresh, seed=round_)
            masks = oracle_masks(circuit, test_class, patterns, faults)
            before = live.copy()
            want = [r for r in range(len(table)) if before[r] and masks[r]]
            block = PatternTable.from_patterns(patterns).rows
            assert drop.run(block, table, live) == want
            assert (live == (before & ~np.isin(np.arange(len(table)), want))).all()
            # revive some rows and retire others for the next round
            live[rng.choice(len(table), 40, replace=False)] = True
            live[rng.choice(len(table), 60, replace=False)] = False


# ---------------------------------------------------------------------------
# hostile input at the object readers, through the public calls
# ---------------------------------------------------------------------------


def spoiled_patterns(circuit, how):
    """70 random patterns with pattern 41 spoiled the way *how* says."""
    patterns = random_patterns(circuit, 70, seed=3)
    p = patterns[41]
    v1 = list(p.v1)
    spoiled = {
        "subclass": lambda: SubPattern(p.v1, p.v2),
        "list": lambda: TestPattern(v1, p.v2),
        "narrow": lambda: TestPattern(p.v1[:-1], p.v2),
        "wide": lambda: TestPattern(p.v1 + (0,), p.v2),
        "true": lambda: TestPattern((True, *p.v1[1:]), p.v2),
        "two": lambda: TestPattern((2, *p.v1[1:]), p.v2),
        "none": lambda: TestPattern(p.v1, (*p.v2[:-1], None)),
        **{
            f"foreign-{name}": lambda make=make: make(p)
            for name, make in zip(FOREIGN_IDS, FOREIGN_ITEMS)
        },
    }[how]()
    patterns[41] = spoiled
    return patterns


def spoiled_faults(circuit, how):
    """c880 faults with fault 17 spoiled the way *how* says."""
    faults = fault_list(circuit, cap=60, strategy="all")
    f = faults[17]
    n = circuit.num_signals
    faults[17] = {
        "subclass": lambda: SubFault(f.signals, f.transition),
        "list": lambda: PathDelayFault(list(f.signals), f.transition),
        "array": lambda: PathDelayFault(np.array(f.signals), f.transition),
        "past": lambda: PathDelayFault((*f.signals[:-1], n), f.transition),
        "negative": lambda: PathDelayFault((f.signals[0], -1), f.transition),
        "empty": lambda: forced_signals(PathDelayFault((0,), f.transition), ()),
    }[how]()
    return faults


def call_outcomes(circuit, patterns, faults, backend):
    """Every public call that reaches the readers, as comparable values
    keyed by test class and call."""
    session = AtpgSession(circuit)
    calls = {}
    for test_class in TestClass:
        sim = DelayFaultSimulator(circuit, test_class, backend=backend)

        def flags(p, f):
            return sim.detection_masks(p, f, flags=True)

        def grade(p, f):
            return [session.grade(p, f, test_class=test_class, backend=backend)]

        for name, call in (
            ("masks", sim.detection_masks), ("flags", flags), ("grade", grade)
        ):
            calls[test_class.value, name] = outcome(call, patterns, faults)
    calls["strength"] = outcome(strength_masks_all, circuit, patterns, faults, backend)
    assert session.degrade_level == 0
    return calls


class TestHostileReaders:
    """Each spoiled batch gives the same results, or the same error type
    and text, with the C readers on and off."""

    @pytest.mark.parametrize(
        "how",
        ["subclass", "list", "narrow", "wide", "true", "two", "none"]
        + [f"foreign-{name}" for name in FOREIGN_IDS],
    )
    @pytest.mark.parametrize("backend", ["auto", "numpy", "int"])
    def test_patterns(self, how, backend):
        """An object that is no pattern (``foreign-*``; the C reader meets
        it first in its prefetch window) is a TypeError on every path,
        like a bad bit's ValueError, and demotes no session."""
        circuit = resolve_circuit("c880")
        patterns = spoiled_patterns(circuit, how)
        faults = fault_list(circuit, cap=60, strategy="all")
        got = call_outcomes(circuit, patterns, faults, backend)
        with readers_off():
            assert call_outcomes(circuit, patterns, faults, backend) == got
        if how in ("subclass", "list", "true", "foreign-subpattern"):
            # a batch that reads in Python must still be graded right
            want = oracle_masks(circuit, TestClass.NONROBUST, patterns, faults)
            assert got["nonrobust", "masks"] == want
        elif how.startswith("foreign-"):
            assert got["robust", "masks"][0] == "TypeError"
        else:
            assert got["robust", "masks"][0] == "ValueError"

    @pytest.mark.parametrize(
        "how", ["subclass", "list", "array", "past", "negative", "empty"]
    )
    @pytest.mark.parametrize("backend", ["auto", "numpy", "int"])
    def test_faults(self, how, backend):
        circuit = resolve_circuit("c880")
        patterns = random_patterns(circuit, 70, seed=3)
        faults = spoiled_faults(circuit, how)
        got = call_outcomes(circuit, patterns, faults, backend)
        with readers_off():
            assert call_outcomes(circuit, patterns, faults, backend) == got
        if how in ("past", "negative"):
            n = circuit.num_signals
            assert got["robust", "masks"] == (
                "ValueError",
                f"fault path names a signal outside the circuit's {n}",
            )
        elif how == "empty":
            # the walks would read a first signal that is not there
            assert got["robust", "masks"] == (
                "ValueError", "a path needs at least one signal"
            )
        else:
            want = oracle_masks(circuit, TestClass.NONROBUST, patterns, faults)
            assert got["nonrobust", "masks"] == want


# ---------------------------------------------------------------------------
# PatternTable: one row codec for tuples, text and packed planes
# ---------------------------------------------------------------------------


class TestPatternTable:
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_round_trips(self, dag, n):
        faults = fault_list(dag, cap=200, strategy="all")
        patterns = [
            TestPattern(p.v1, p.v2, faults[k % len(faults)])
            for k, p in enumerate(random_patterns(dag, n, seed=n))
        ]
        table = PatternTable.from_patterns(patterns)
        assert all(a is b for a, b in zip(table.patterns, patterns))
        a, b = pattern_rows(patterns)
        assert (table.v1 == a).all() and (table.v2 == b).all()
        texts = [bits_text(row) for row in table.v1.tolist()]
        texts2 = [bits_text(row) for row in table.v2.tolist()]
        assert texts == ["".join(map(str, p.v1)) for p in patterns]
        again = PatternTable.from_text(texts, texts2)
        assert [(p.v1, p.v2) for p in again.patterns] == [
            (p.v1, p.v2) for p in patterns
        ]
        for packed in (
            table.packed(),
            again.packed(),
            PackedPatterns.from_text(texts, texts2),
            PackedPatterns.from_rows(*text_rows(texts, texts2)),
        ):
            want = PackedPatterns.from_patterns(patterns)
            assert packed.n_patterns == n
            assert (packed.v1 == want.v1).all() and (packed.v2 == want.v2).all()
        for start, stop in ((0, 1), (n // 2, n), (n - 1, n)):
            if start < stop:
                part = table.packed(start, stop)
                want = PackedPatterns.from_patterns(patterns[start:stop])
                assert (part.v1 == want.v1).all() and (part.v2 == want.v2).all()
        order = list(range(n))[::-1]
        taken = table.take(order)
        assert taken.patterns == patterns[::-1]
        assert (taken.v1 == a[::-1]).all()

    def test_append_grows_and_extend_checks(self, dag):
        n_inputs = len(dag.inputs)
        table = PatternTable(n_inputs)
        patterns = random_patterns(dag, 40, seed=2)
        for start in range(0, 40, 7):
            chunk = patterns[start : start + 7]
            positions = table.append(*pattern_rows(chunk), chunk)
            assert positions == range(start, start + len(chunk))
        assert table.patterns == patterns
        assert (table.packed().v1 == pack_bits(pattern_rows(patterns)[0])).all()
        with pytest.raises(ValueError, match="expected 0 or 1"):
            table.extend([TestPattern((2,) * n_inputs, (0,) * n_inputs)])
        with pytest.raises(ValueError, match="one per primary input"):
            table.extend([TestPattern((0,) * (n_inputs + 1), (0,) * (n_inputs + 1))])
        assert len(table) == 40

    def test_text_errors_match_packed_patterns(self):
        for v1, v2 in ((["01", "0"], ["01", "01"]), (["01", "0x"], ["01", "01"])):
            with pytest.raises(ValueError) as table_error:
                PatternTable.from_text(v1, v2)
            with pytest.raises(ValueError) as packed_error:
                PackedPatterns.from_text(v1, v2)
            assert str(table_error.value) == str(packed_error.value)

    @pytest.mark.parametrize("strength", [False, True])
    def test_grade_accepts_a_table(self, strength):
        session = AtpgSession.open("c880")
        faults = fault_list(session.circuit, cap=48, strategy="all")
        patterns = random_patterns(session.circuit, 70, seed=6)
        table = PatternTable.from_patterns(patterns)
        assert session.grade(table, faults, strength=strength) == session.grade(
            patterns, faults, strength=strength
        )
        empty = PatternTable(len(session.circuit.inputs))
        assert session.grade(empty, faults) == session.grade([], faults)


@needs_native
def test_campaign_patterns_are_the_records_objects():
    circuit = resolve_circuit("c1355")
    faults = fault_list(circuit, cap=300, strategy="all")
    report = AtpgSession(circuit).campaign(
        faults=faults, options=Options(width=32, keep_records=True)
    )
    kept = {id(p) for p in report.patterns}
    tested = [r for r in report.records.values() if r.pattern is not None]
    assert tested and all(id(r.pattern) in kept for r in tested)
    assert all(
        isinstance(p.v1, tuple) and isinstance(p.v1[0], int) for p in report.patterns
    )
