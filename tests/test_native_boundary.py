"""Hostile inputs at the Python/C boundary, and the columnar pattern path.

The C walks and the TPG engine index caller-sized buffers unchecked, so
every shape a caller can hand them is pinned here against a Python
oracle: empty batches, lane counts around a word (1, 63, 64, 65),
paths of one signal and through every signal, the full 16-bit XOR
polarity screen, duplicate fanins, extreme backtrack limits and fault
views over tables that changed between calls.  The campaign's
generated patterns travel as rows — from the executor's reused C
engine, through a :class:`PatternTable`, to the drop bus's native pass
on its own scratch — and each hop is checked against the path it
replaced.  ``scripts/check_native_sanitizers.py`` runs this file on an
ASan + UBSan build of the C unit.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AtpgSession, Options
from repro.api.resolve import resolve_circuit
from repro.campaign.bus import DropBus
from repro.campaign.scheduler import SerialExecutor, ShardResult
from repro.circuit.builder import CircuitBuilder
from repro.circuit.generators import random_dag
from repro.core.aptpg import run_aptpg
from repro.core.controllability import compute_controllability
from repro.core.fptpg import run_fptpg
from repro.core.patterns import (
    PatternTable,
    TestPattern,
    extract_pattern,
    random_patterns,
)
from repro.core.state import (
    SEVEN_VALUED,
    THREE_VALUED,
    TESTED,
    TpgEngine,
    TpgState,
)
from repro.kernel import native_available
from repro.kernel.native import DropScratch
from repro.kernel.packed import (
    PackedPatterns,
    bits_text,
    pack_bits,
    pattern_rows,
    text_rows,
)
from repro.paths import FaultTable, PathDelayFault, TestClass, Transition, fault_list
from repro.sim import DelayFaultSimulator, strength_masks_all

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
    def test_native_pass_with_no_faults(self, dag):
        sim = DelayFaultSimulator(dag, TestClass.NONROBUST)
        backend = sim.native_backend(3)
        packed = PackedPatterns.from_patterns(random_patterns(dag, 3))
        scratch = DropScratch(dag.compiled())
        empty = FaultTable(dag.num_signals).view()
        assert len(sim.drop_pass(backend, packed, empty, scratch)) == 0

    @needs_native
    def test_empty_fptpg_batch(self, dag):
        engine = TpgEngine(dag.compiled(), 2, 8)
        ranks = engine.ranks(compute_controllability(dag))
        with pytest.raises(ValueError, match="at least one fault"):
            engine.fptpg([], ranks, True)

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
            want = run_aptpg(
                circuit, fault, TestClass.NONROBUST, 64,
                fusion="codegen", max_xor_polarity_bits=16,
            )
            assert settle(got) == settle(want)
            assert len(got.survivors) == 1 << 16
            assert got.implication_passes == want.implication_passes
            # one side more than the cap: one combination, aborted unless tested
            over = run_aptpg(
                circuit, fault, TestClass.NONROBUST, 64, max_xor_polarity_bits=15
            )
            assert settle(over) == settle(
                run_aptpg(
                    circuit, fault, TestClass.NONROBUST, 64,
                    fusion="codegen", max_xor_polarity_bits=15,
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


def shard_key(result: ShardResult):
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
        result.error,
    )


class _Shards:
    """A pool of shards on c1355-like, and each one's fresh-engine result."""

    def __init__(self):
        self.circuit = resolve_circuit("c1355")
        self.faults = fault_list(self.circuit, cap=160, strategy="all")
        self.cc = compute_controllability(self.circuit)
        self.narrowing = []
        for fault in self.faults:
            state = TpgState(self.circuit, THREE_VALUED, 32)
            state.aptpg(fault, self.cc, 2, 8)
            if state.width < 32:
                self.narrowing.append(fault)
        self.raising = self._raising_fault()
        self._fresh = {}

    def _raising_fault(self):
        """A path from an internal signal that APTPG tests: its row read
        raises after the C call has run."""
        compiled = self.circuit.compiled()
        for fault in self.faults:
            for start in range(1, len(fault.signals) - 1):
                sub = PathDelayFault(fault.signals[start:], fault.transition)
                engine = TpgEngine(compiled, 2, 32)
                run = engine.aptpg(sub, engine.ranks(self.cc), 2, 8)
                if run.status == TESTED:
                    return sub
        raise AssertionError("no internal path tests")

    def executor(self):
        return SerialExecutor(self.circuit, TestClass.NONROBUST, 32, True, 2)

    def run(self, executor, shard):
        kind, faults = shard
        try:
            if kind == "aptpg":
                return shard_key(executor.aptpg_shard(faults[0]))
            return shard_key(executor.fptpg_shard(faults))
        except ValueError as exc:
            return ("raised", str(exc))

    def fresh(self, shard):
        key = (shard[0], tuple(shard[1]))
        if key not in self._fresh:
            self._fresh[key] = self.run(self.executor(), shard)
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
        assert shards.fresh(("aptpg", [shards.raising]))[0] == "raised"

    @SETTINGS
    @given(data=st.data())
    def test_shards_match_fresh_engines(self, shards, data):
        pool = shards.faults + shards.narrowing * 4
        one = st.sampled_from(pool)
        narrowing = st.sampled_from(shards.narrowing)
        raising = [shards.raising]
        shard = st.one_of(
            st.tuples(st.just("aptpg"), st.lists(one, min_size=1, max_size=1)),
            st.tuples(st.just("aptpg"), st.lists(narrowing, min_size=1, max_size=1)),
            st.tuples(st.just("fptpg"), st.lists(one, min_size=1, max_size=32)),
            st.tuples(st.just("aptpg"), st.just(raising)),
            st.tuples(
                st.just("fptpg"),
                st.lists(one, max_size=31).map(lambda batch: raising + batch),
            ),
        )
        sequence = data.draw(st.lists(shard, min_size=1, max_size=8))
        executor = shards.executor()
        for item in sequence:
            assert shards.run(executor, item) == shards.fresh(item)
        assert executor.engine() is not None

    def test_run_outcomes_read_rows_like_extract_pattern(self, shards):
        circuit, cc = shards.circuit, shards.cc
        for fault in shards.faults[:60]:
            outcome = run_aptpg(circuit, fault, TestClass.NONROBUST, 32, cc)
            if outcome.pattern is None:
                continue
            lane = TpgState(circuit, THREE_VALUED, 32).aptpg(fault, cc, 64, 8).lane
            state = outcome.state
            assert outcome.pattern == extract_pattern(state, lane, fault)

    @pytest.mark.parametrize("algebra", [THREE_VALUED, SEVEN_VALUED])
    def test_input_rows_equal_extract_pattern(self, dag, algebra):
        faults = fault_list(dag, cap=40, strategy="all")[:32]
        state = TpgState(dag, algebra, 32)
        rng = random.Random(4)
        for pi in dag.inputs:
            value = rng.getrandbits(32)
            planes = (~value & state.mask, value)
            if algebra is SEVEN_VALUED:
                planes = (*planes, rng.getrandbits(32) & state.mask, 0)
            state.assign(pi, planes)
        lanes = list(range(32))
        v1, v2 = state.engine.input_rows(lanes, faults)
        for lane, fault in zip(lanes, faults):
            want = extract_pattern(state, lane, fault)
            assert (tuple(v1[lane].tolist()), tuple(v2[lane].tolist())) == (
                want.v1,
                want.v2,
            )
        one = state.engine.input_rows([5], [faults[5]])
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
    def test_pass_positions_match_masks(self, dag):
        faults = fault_list(dag, cap=80, strategy="all")
        table = FaultTable(dag.num_signals, faults)
        sim = DelayFaultSimulator(dag, TestClass.ROBUST)
        backend = sim.native_backend(200)
        scratch = DropScratch(dag.compiled())
        for n, rows in ((200, range(0, 80, 3)), (1, range(80)), (65, [7, 7, 1])):
            packed = PackedPatterns.from_patterns(random_patterns(dag, n, seed=n))
            view = table.view(list(rows))
            masks = oracle_masks(dag, TestClass.ROBUST, packed, view)
            got = sim.drop_pass(backend, packed, view, scratch)
            assert got.tolist() == [k for k, mask in enumerate(masks) if mask]
        with pytest.raises(ValueError, match="outside the circuit"):
            bad = [PathDelayFault((0, 999), Transition.RISING)]
            sim.drop_pass(backend, packed, bad, scratch)

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
def test_reused_state_searches_at_its_built_width():
    """A screen that refutes every combination narrows the state; the
    next run on it must still search at the width it was built with."""
    circuit = resolve_circuit("c1355", 2)
    faults = fault_list(circuit, cap=2048, strategy="all")
    cc = compute_controllability(circuit)
    state = TpgState(circuit, THREE_VALUED, 32)
    narrowing = faults[4]
    assert state.aptpg(narrowing, cc, 64, 8).survivors == ()
    assert state.width == 2
    for fault in faults[:60]:
        got = state.aptpg(fault, cc, 64, 8)
        want = TpgState(circuit, THREE_VALUED, 32).aptpg(fault, cc, 64, 8)
        assert got._replace(seconds_sensitize=0) == want._replace(seconds_sensitize=0)
        state.aptpg(narrowing, cc, 64, 8)


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
