"""Tests of the compiled netlist kernel (repro.kernel).

The kernel is the single execution substrate behind every simulator,
so these tests pin it from three directions:

* **structure** — the lowered arrays (gate codes, CSR fanin/fanout,
  levels, topological order, I/O vectors) are a faithful image of the
  frozen circuit, and the compiled form is cached on the circuit;
* **two-valued semantics** — both word backends agree with the naive
  per-vector :meth:`Circuit.evaluate` reference and with each other on
  randomly generated circuits (property-based);
* **seven-valued PPSFP semantics** — the numpy multi-word batch path
  reproduces the seed object-graph implementation
  (:mod:`repro.sim.reference`) lane-for-lane, for both test classes,
  across batches larger than one machine word.
"""

import os
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, CircuitError
from repro.circuit.generators import random_dag
from repro.core.patterns import random_patterns as _shared_random_patterns
from repro.kernel import (
    CODE_INPUT,
    GATE_CODES,
    CompiledCircuit,
    IntWordBackend,
    NumpyWordBackend,
    PackedPatterns,
    compile_circuit,
    int_to_words,
    pack_bits,
    words_to_int,
)
from repro.paths import TestClass, fault_list
from repro.sim import DelayFaultSimulator
from repro.sim.logic_sim import pack_vectors, simulate_array, simulate_words
from repro.sim.reference import detected_faults_reference
from repro.sim.stuck_at_sim import StuckAtSimulator
from repro.core.stuck_at import all_stuck_at_faults

PROFILES = ["balanced", "xor_rich", "nand_heavy"]


def make_circuit(seed: int) -> Circuit:
    rng = random.Random(seed)
    return random_dag(
        n_inputs=rng.randint(3, 8),
        n_gates=rng.randint(5, 40),
        seed=seed,
        profile=rng.choice(PROFILES),
        reconvergence=rng.uniform(0.1, 0.5),
    )


def random_patterns(circuit: Circuit, count: int, seed: int):
    return _shared_random_patterns(circuit, count, seed)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


class TestCompiledStructure:
    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=30,
              suppress_health_check=[HealthCheck.too_slow])
    def test_lowering_is_faithful(self, seed):
        circuit = make_circuit(seed)
        compiled = circuit.compiled()
        assert isinstance(compiled, CompiledCircuit)
        assert compiled.n_signals == circuit.num_signals
        assert list(compiled.input_index) == circuit.inputs
        assert list(compiled.output_index) == circuit.outputs
        assert list(compiled.order) == circuit.topological_order()
        assert list(compiled.level) == circuit.levels
        for gate in circuit.gates:
            i = gate.index
            assert compiled.py_codes[i] == GATE_CODES[gate.gate_type]
            assert compiled.gate_types[i] is gate.gate_type
            lo, hi = compiled.fanin_offsets[i], compiled.fanin_offsets[i + 1]
            assert tuple(compiled.fanin_index[lo:hi]) == gate.fanin
            assert compiled.fanin_of(i) == gate.fanin
            lo, hi = compiled.fanout_offsets[i], compiled.fanout_offsets[i + 1]
            assert tuple(compiled.fanout_index[lo:hi]) == circuit.fanout(i)
            assert compiled.fanout_of(i) == circuit.fanout(i)
        # the plan covers every non-input signal exactly once, topo order
        planned = [out for _c, out, _f, _t in compiled.plan]
        assert sorted(planned) == sorted(
            g.index for g in circuit.gates if not g.is_input
        )
        seen = set(circuit.inputs)
        for _c, out, fanin, _t in compiled.plan:
            assert all(f in seen for f in fanin)
            seen.add(out)

    def test_level_buckets_partition_the_order(self):
        circuit = make_circuit(7)
        compiled = circuit.compiled()
        collected = []
        for lvl in range(compiled.depth + 1):
            bucket = compiled.level_bucket(lvl)
            assert all(compiled.level[s] == lvl for s in bucket)
            collected.extend(int(s) for s in bucket)
        assert collected == circuit.topological_order()

    def test_input_codes(self):
        circuit = make_circuit(3)
        compiled = circuit.compiled()
        for pi in circuit.inputs:
            assert compiled.py_codes[pi] == CODE_INPUT
            assert compiled.is_input[pi]

    def test_cone_of_contains_fanout_closure(self):
        circuit = make_circuit(11)
        compiled = circuit.compiled()
        site = circuit.inputs[0]
        cone = set(compiled.cone_of(site))
        assert site in cone
        # closure: every fanout of a cone member is in the cone
        for s in list(cone):
            for f in compiled.fanout_of(s):
                assert f in cone

    def test_compiled_is_cached_on_the_circuit(self):
        circuit = make_circuit(1)
        assert circuit.compiled() is circuit.compiled()

    def test_circuit_equality_survives_compilation(self):
        # regression: the _compiled cache must stay out of Circuit.__eq__
        # (CompiledCircuit back-references the circuit, so a generated
        # comparison would recurse; numpy fields have no truth value)
        a, b = make_circuit(6), make_circuit(6)
        assert a == b
        a.compiled()
        b.compiled()
        assert a == b
        assert a.compiled() != b.compiled()  # identity comparison only
        assert a.compiled() == a.compiled()

    def test_compile_requires_freeze(self):
        circuit = Circuit("open")
        circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.compiled()
        with pytest.raises(CircuitError):
            compile_circuit(circuit)

    def test_mutation_after_freeze_still_raises(self):
        """Freezing memoizes topo/levels/compiled and seals the circuit."""
        circuit = make_circuit(2)
        order = circuit.topological_order()
        assert circuit.topological_order() is order  # memoized, not recomputed
        assert circuit.levels is circuit.levels
        circuit.compiled()
        with pytest.raises(CircuitError):
            circuit.add_input("late_pi")
        with pytest.raises(CircuitError):
            circuit.add_gate("late", "AND", [0, 1])
        with pytest.raises(CircuitError):
            circuit.mark_output(0)


# ---------------------------------------------------------------------------
# packed patterns
# ---------------------------------------------------------------------------


class TestPackedPatterns:
    @given(st.integers(1, 200), st.integers(0, 10_000))
    @settings(deadline=None, max_examples=30)
    def test_pack_bits_matches_pack_vectors(self, count, seed):
        rng = random.Random(seed)
        vectors = [[rng.randint(0, 1) for _ in range(5)] for _ in range(count)]
        words = pack_bits(np.asarray(vectors, dtype=np.uint8))
        expected = pack_vectors(vectors)
        for column in range(5):
            assert words_to_int(words[column]) == expected[column]

    def test_int_words_roundtrip(self):
        value = (1 << 130) | (1 << 64) | 0b1011
        assert words_to_int(int_to_words(value, 3)) == value

    def test_lane_valid_masks_the_tail(self):
        patterns = random_patterns(make_circuit(5), 70, seed=1)
        packed = PackedPatterns.from_patterns(patterns)
        assert packed.n_words == 2
        valid = packed.lane_valid()
        assert valid[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert valid[1] == np.uint64((1 << 6) - 1)

    def test_planes7_encodes_transitions(self):
        circuit = make_circuit(5)
        patterns = random_patterns(circuit, 100, seed=2)
        packed = PackedPatterns.from_patterns(patterns)
        planes = packed.planes7()
        for position in range(len(circuit.inputs)):
            z, o, s, i = (words_to_int(p) for p in planes[position])
            for lane, pattern in enumerate(patterns):
                bit = 1 << lane
                assert bool(o & bit) == bool(pattern.v2[position])
                assert bool(z & bit) == (not pattern.v2[position])
                assert bool(i & bit) == (pattern.v1[position] != pattern.v2[position])
                assert bool(s & bit) == (pattern.v1[position] == pattern.v2[position])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            PackedPatterns.from_patterns([])
        with pytest.raises(ValueError):
            PackedPatterns.from_vectors([])
        with pytest.raises(ValueError):
            PackedPatterns.from_text([], [])

    @given(
        st.integers(1, 200),
        st.sampled_from([1, 63, 64, 65, 130]),
        st.integers(0, 10_000),
    )
    @settings(deadline=None, max_examples=40)
    def test_text_decoder_matches_from_patterns(self, n_inputs, count, seed):
        from repro.core.patterns import TestPattern

        rng = random.Random(seed)
        patterns = [
            TestPattern(
                tuple(rng.randint(0, 1) for _ in range(n_inputs)),
                tuple(rng.randint(0, 1) for _ in range(n_inputs)),
            )
            for _ in range(count)
        ]
        expected = PackedPatterns.from_patterns(patterns)
        decoded = PackedPatterns.from_text(
            ["".join(map(str, p.v1)) for p in patterns],
            ["".join(map(str, p.v2)) for p in patterns],
        )
        assert decoded.n_patterns == expected.n_patterns == count
        assert decoded.v1.dtype == expected.v1.dtype == np.uint64
        assert np.array_equal(decoded.v1, expected.v1)
        assert np.array_equal(decoded.v2, expected.v2)

    def test_text_decoder_reports_the_first_bad_character(self):
        # the wire tests cover each message; this pins the order: the
        # first bad character by pattern, v1 before v2, although the
        # whole v1 plane is scanned before the v2 plane
        with pytest.raises(ValueError) as excinfo:
            PackedPatterns.from_text(["0101", "01x1"], ["0 01", "0101"])
        assert str(excinfo.value) == "pattern 0: v2 bit 1 is ' ', expected 0 or 1"
        with pytest.raises(ValueError, match="2 v1 vectors but 1 v2 vectors"):
            PackedPatterns.from_text(["01", "10"], ["01"])


# ---------------------------------------------------------------------------
# two-valued semantics
# ---------------------------------------------------------------------------


class TestTwoValuedBackends:
    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    def test_backends_match_naive_reference(self, seed):
        circuit = make_circuit(seed)
        rng = random.Random(seed + 1)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(96)
        ]
        # int backend (one 96-lane word)
        int_values = simulate_words(circuit, pack_vectors(vectors), len(vectors))
        # numpy backend (two uint64 words)
        packed = PackedPatterns.from_vectors(vectors)
        array_values = simulate_array(circuit, packed.v2)
        for lane, vector in enumerate(vectors):
            expected = circuit.evaluate(vector)
            for gate in circuit.gates:
                want = expected[gate.name]
                assert (int_values[gate.index] >> lane) & 1 == want
                word, bit = divmod(lane, 64)
                got = int(array_values[gate.index, word] >> np.uint64(bit)) & 1
                assert got == want

    def test_int_backend_validates_input_count(self):
        circuit = make_circuit(9)
        with pytest.raises(ValueError):
            IntWordBackend(4).simulate_logic(circuit.compiled(), [0])
        with pytest.raises(ValueError):
            NumpyWordBackend(4).simulate_logic(
                circuit.compiled(), np.zeros((1, 1), dtype=np.uint64)
            )


# ---------------------------------------------------------------------------
# seven-valued PPSFP semantics
# ---------------------------------------------------------------------------


class TestBatchedPpsfp:
    @given(st.integers(0, 10_000), st.sampled_from(list(TestClass)))
    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    def test_numpy_batches_match_seed_reference(self, seed, test_class):
        circuit = make_circuit(seed)
        faults = fault_list(circuit, cap=24, strategy="all")
        if not faults:
            return
        patterns = random_patterns(circuit, 150, seed + 2)
        simulator = DelayFaultSimulator(circuit, test_class, backend="numpy")
        got = simulator.detected_faults(patterns, faults)
        want = {fault: 0 for fault in faults}
        for start in range(0, len(patterns), 64):
            chunk = patterns[start : start + 64]
            hits = detected_faults_reference(circuit, chunk, faults, test_class)
            for fault, lanes in hits.items():
                want[fault] |= lanes << start
        assert got == want

    @given(st.integers(0, 10_000), st.sampled_from(list(TestClass)))
    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    def test_int_path_matches_seed_reference(self, seed, test_class):
        circuit = make_circuit(seed)
        faults = fault_list(circuit, cap=24, strategy="all")
        if not faults:
            return
        patterns = random_patterns(circuit, 48, seed + 3)
        simulator = DelayFaultSimulator(circuit, test_class, backend="int")
        assert simulator.detected_faults(patterns, faults) == (
            detected_faults_reference(circuit, patterns, faults, test_class)
        )

    def test_auto_backend_picks_native_else_the_int_numpy_crossover(self):
        from repro.kernel import (
            NativeWordBackend,
            NumpyWordBackend,
            backend_for,
            native_available,
        )

        for n_lanes in (1, 64, 65, 4096):
            backend = backend_for(n_lanes, "auto")
            if native_available():
                assert type(backend) is NativeWordBackend
                assert backend.tier == "native/c"
            elif n_lanes <= 64:
                assert type(backend) is IntWordBackend
            else:
                assert type(backend) is NumpyWordBackend
        # an explicit strategy keeps the Python fast paths reachable
        assert type(backend_for(64, "auto", fusion="codegen")) is IntWordBackend
        assert backend_for(64, "auto", fusion="vector").tier == "int/codegen"
        numpy = backend_for(65, "auto", fusion="vector")
        assert type(numpy) is NumpyWordBackend and numpy.tier == "numpy/vector"
        assert type(backend_for(65, "auto", fusion="interp")) is NumpyWordBackend
        assert isinstance(backend_for(1, "numpy"), NumpyWordBackend)
        with pytest.raises(ValueError):
            backend_for(8, "gpu")

    def test_unknown_backend_error_enumerates_choices(self):
        from repro.kernel import backend_for

        with pytest.raises(ValueError, match=r"choose from.*native"):
            backend_for(8, "gpu")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            DelayFaultSimulator(make_circuit(4), TestClass.ROBUST, backend="gpu")

    def test_coverage_batches_beyond_one_word(self):
        circuit = make_circuit(21)
        faults = fault_list(circuit, cap=16, strategy="all")
        patterns = random_patterns(circuit, 300, seed=5)
        simulator = DelayFaultSimulator(circuit, TestClass.NONROBUST)
        big = simulator.coverage(patterns, faults, batch=256)
        small = simulator.coverage(patterns, faults, batch=32)
        assert big == small


# ---------------------------------------------------------------------------
# stuck-at path through the kernel
# ---------------------------------------------------------------------------


class TestStuckAtOnKernel:
    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cone_resimulation_matches_full_resimulation(self, seed):
        circuit = make_circuit(seed)
        rng = random.Random(seed + 4)
        vectors = [
            [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(32)
        ]
        faults = all_stuck_at_faults(circuit)[:30]
        simulator = StuckAtSimulator(circuit)
        hits = simulator.detected_faults(vectors, faults)
        # independent check: force the site, full naive resimulation
        for fault in faults:
            for lane, vector in enumerate(vectors):
                good = circuit.evaluate(vector)
                faulty = _evaluate_with_forced(circuit, vector, fault)
                differs = any(
                    good[circuit.signal_name(o)] != faulty[o]
                    for o in circuit.outputs
                )
                assert bool(hits[fault] >> lane & 1) == differs


def _evaluate_with_forced(circuit, vector, fault):
    """Naive per-vector evaluation with one signal forced."""
    from repro.circuit.gates import evaluate

    values = {}
    for position, pi in enumerate(circuit.inputs):
        values[pi] = vector[position]
    values[fault.signal] = fault.value
    for index in circuit.topological_order():
        gate = circuit.gates[index]
        if gate.is_input or index == fault.signal:
            continue
        values[index] = evaluate(gate.gate_type, [values[f] for f in gate.fanin])
    return values


# ---------------------------------------------------------------------------
# native backend selection, fallback, and caching hygiene
# ---------------------------------------------------------------------------


needs_native = pytest.mark.skipif(
    not pytest.importorskip("repro.kernel.native").native_available(),
    reason="no C toolchain and no cached native module",
)


class TestNativeSelection:
    def test_fallback_warns_once_and_returns_numpy(self, monkeypatch):
        """Without the module, prefer="native" degrades with one warning."""
        import warnings

        from repro.kernel import NativeBackendUnavailableWarning, backend_for
        from repro.kernel import native as native_mod

        monkeypatch.setattr(native_mod, "_state", (None, "forced by test"))
        monkeypatch.setattr(native_mod, "_warned_fallback", False)
        with pytest.warns(NativeBackendUnavailableWarning, match="forced by test"):
            backend = backend_for(8, "native")
        assert isinstance(backend, NumpyWordBackend)
        assert type(backend) is NumpyWordBackend
        # one-time: a second request stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = backend_for(200, "native")
        assert type(backend) is NumpyWordBackend

    def test_auto_falls_back_silently_without_module_or_toolchain(
        self, monkeypatch, tmp_path
    ):
        """An empty cache and a hidden compiler: auto runs int/numpy, no
        warning; the failed build leaves nothing behind."""
        import warnings

        from repro.kernel import NativeBackendUnavailableWarning, backend_for
        from repro.kernel import native as native_mod

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setenv("CC", "/nonexistent")
        monkeypatch.setattr(native_mod, "_state", None)
        monkeypatch.setattr(native_mod, "_warned_fallback", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert type(backend_for(8, "auto")) is IntWordBackend
            assert type(backend_for(65, "auto")) is NumpyWordBackend
        assert not native_mod.native_available()
        assert native_mod.native_unavailable_reason()
        assert list(tmp_path.iterdir()) == []
        # an explicit native request still says why it fell back
        with pytest.warns(NativeBackendUnavailableWarning):
            assert type(backend_for(8, "native")) is NumpyWordBackend

    @needs_native
    def test_warm_cache_loads_without_compiling(self, monkeypatch):
        from repro.kernel import native as native_mod

        def no_compiler(name, path):
            raise AssertionError("a warm cache must not compile")

        monkeypatch.setenv("CC", "/nonexistent")
        monkeypatch.setattr(native_mod, "_build_module", no_compiler)
        monkeypatch.setattr(native_mod, "_state", None)
        assert native_mod.native_available()
        assert native_mod.native_unavailable_reason() == ""

    @pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX modes")
    def test_default_cache_dir_is_created_private(self, monkeypatch, tmp_path):
        import stat
        import tempfile

        from repro.kernel import native as native_mod

        monkeypatch.delenv("REPRO_NATIVE_CACHE", raising=False)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        cache = native_mod._private_cache_dir()
        assert os.path.dirname(cache) == str(tmp_path)
        assert stat.S_IMODE(os.lstat(cache).st_mode) == 0o700

    @pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX ownership")
    @pytest.mark.parametrize(
        "flaw", ["group-writable", "other-writable", "link", "foreign-owner"]
    )
    def test_cache_dir_not_private_loads_nothing(self, monkeypatch, tmp_path, flaw):
        """A cache dir another user could write to (or swap) is neither
        loaded from nor built into: the module counts as unavailable."""
        from repro.kernel import native as native_mod

        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        if flaw == "group-writable":
            cache.chmod(0o770)
        elif flaw == "other-writable":
            cache.chmod(0o702)
        elif flaw == "link":
            cache.rename(tmp_path / "real")
            cache.symlink_to(tmp_path / "real", target_is_directory=True)
        elif os.geteuid() == 0:
            os.chown(cache, 12345, -1)
        else:
            owner = cache.stat().st_uid
            monkeypatch.setattr(os, "getuid", lambda: owner + 1)

        def must_not_run(*args):
            raise AssertionError("nothing may be loaded from or built into it")

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
        monkeypatch.setattr(native_mod, "_load_extension", must_not_run)
        monkeypatch.setattr(native_mod, "_build_module", must_not_run)
        monkeypatch.setattr(native_mod, "_state", None)
        assert not native_mod.native_available()
        assert "not private" in native_mod.native_unavailable_reason()

    @needs_native
    def test_cold_cache_builds_one_module_for_every_circuit(
        self, monkeypatch, tmp_path
    ):
        """One generic module serves any circuit: a cold cache builds it
        once (here: the finished object is copied in), then only loads."""
        import shutil

        from repro.kernel import native as native_mod

        built = native_mod.native_module().__file__
        builds = []

        def build(name, path):
            builds.append(name)
            shutil.copy(built, path)

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(native_mod, "_build_module", build)
        monkeypatch.setattr(native_mod, "_state", None)
        for seed in (3, 4, 5):
            circuit = make_circuit(seed)
            patterns = random_patterns(circuit, 70, seed)
            faults = fault_list(circuit, cap=8, strategy="all")
            native = DelayFaultSimulator(circuit, TestClass.ROBUST, backend="native")
            oracle = DelayFaultSimulator(
                circuit, TestClass.ROBUST, backend="numpy", fusion="interp"
            )
            assert native.detection_masks(patterns, faults) == (
                oracle.detection_masks(patterns, faults)
            )
        assert builds == [native_mod.module_name()]
        monkeypatch.setattr(native_mod, "_state", None)
        assert native_mod.native_available() and len(builds) == 1

    @needs_native
    def test_racing_first_calls_share_one_plan_struct(self):
        """Every caller must hold the memoized struct: a struct whose
        entry lost the race would point into freed tables."""
        import sys
        import threading

        from repro.kernel import native_plan

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(20):
                compiled = make_circuit(seed).compiled()
                barrier = threading.Barrier(4)
                got = []

                def first_call():
                    barrier.wait(timeout=10)
                    got.append(native_plan(compiled)[0])

                threads = [threading.Thread(target=first_call) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                memo = compiled._fusion_cache["native_plan"][0]
                assert len(got) == 4 and all(struct is memo for struct in got)
        finally:
            sys.setswitchinterval(interval)

    @needs_native
    def test_native_preference_selects_native_at_any_width(self):
        from repro.kernel import NativeWordBackend, backend_for

        assert isinstance(backend_for(8, "native"), NativeWordBackend)
        assert isinstance(backend_for(200, "native"), NativeWordBackend)

    @needs_native
    def test_compiled_circuit_pickles_after_native_build(self):
        """The plan struct lives in _fusion_cache, which pickling drops;
        the clone gets its own struct and reuses the loaded module."""
        import pickle

        from repro.kernel import NativeWordBackend, native_module, native_plan

        circuit = make_circuit(23)
        compiled = circuit.compiled()
        plan, _ = native_plan(compiled)
        assert compiled._fusion_cache["native_plan"][0] is plan
        assert native_plan(circuit.compiled())[0] is plan
        module = native_module()
        clone = pickle.loads(pickle.dumps(compiled))
        assert "native_plan" not in clone._fusion_cache
        # the clone simulates identically on the same loaded module
        vectors = [[lane & 1 for _ in circuit.inputs] for lane in range(8)]
        bits = pack_bits(np.asarray(vectors, dtype=np.uint8))
        values = NativeWordBackend(8).simulate_logic(clone, bits)
        assert native_module() is module
        assert native_plan(clone)[0] is not plan
        oracle = IntWordBackend(8).simulate_logic(compiled, pack_vectors(vectors))
        valid = (1 << 8) - 1
        assert [int(row[0]) & valid for row in values] == [
            word & valid for word in oracle
        ]
