"""Unit tests for the ISCAS-like benchmark suites."""

import pytest

from repro.circuit import validate_circuit, write_bench
from repro.circuit.suites import (
    TABLE34_CIRCUITS,
    TABLE56_CIRCUITS,
    TABLE78_CIRCUITS,
    iscas85_like,
    iscas89_like,
    suite_circuit,
)


class TestSuiteResolution:
    def test_table_lists_resolve(self):
        for name in TABLE34_CIRCUITS:
            assert iscas85_like(name).frozen
        for name in set(TABLE56_CIRCUITS) | set(TABLE78_CIRCUITS):
            assert iscas89_like(name).frozen

    def test_suite_circuit_dispatches(self):
        assert suite_circuit("c432").name == "c432_like"
        assert suite_circuit("s713").name == "s713_like"

    def test_unknown_names(self):
        with pytest.raises(ValueError, match="unknown"):
            iscas85_like("c999")
        with pytest.raises(ValueError, match="unknown"):
            iscas89_like("s0")
        with pytest.raises(ValueError, match="unknown"):
            suite_circuit("b17")

    @pytest.mark.parametrize("scale", [0, -1])
    def test_a_scale_below_one_is_refused(self, scale):
        """``_scaled`` floors a size at 8, so a scale below 1 would build
        a smaller, different circuit under the same name."""
        message = f"scale must be at least 1, got {scale}"
        with pytest.raises(ValueError, match=message):
            iscas85_like("c1355", scale)
        with pytest.raises(ValueError, match=message):
            iscas89_like("s713", scale)
        for name in ("c1355", "s713", "bulk2k"):
            with pytest.raises(ValueError, match=message):
                suite_circuit(name, scale)

    def test_c6288_is_a_multiplier(self):
        c = iscas85_like("c6288")
        assert c.name == "c6288_like"


class TestSuiteProperties:
    @pytest.mark.parametrize("name", TABLE34_CIRCUITS)
    def test_iscas85_members_valid(self, name):
        assert validate_circuit(iscas85_like(name)) == []

    @pytest.mark.parametrize("name", TABLE56_CIRCUITS)
    def test_iscas89_members_valid(self, name):
        assert validate_circuit(iscas89_like(name)) == []

    def test_deterministic(self):
        a = suite_circuit("s1423")
        b = suite_circuit("s1423")
        assert write_bench(a) == write_bench(b)

    def test_scale_grows_circuits(self):
        small = suite_circuit("c432", scale=1)
        big = suite_circuit("c432", scale=3)
        assert big.num_gates > small.num_gates

    def test_relative_ordering_held(self):
        """Bigger paper circuits map to bigger substitutes."""
        assert (
            suite_circuit("c432").num_gates
            < suite_circuit("c3540").num_gates
            < suite_circuit("c7552").num_gates
        )
