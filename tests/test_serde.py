"""Property tests of the versioned wire format (repro.api.serde).

The round-trip law — ``from_payload(to_payload(x)) == x`` — is
asserted for every artifact codec, with hypothesis-generated faults,
patterns, options, and reports.  Envelope handling (unknown kinds,
unknown ``schema_version``, shape drift) must be rejected loudly.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Options, serde
from repro.api.schemas import SchemaError, stamp, validate, validate_file
from repro.circuit.generators import random_dag, ripple_carry_adder
from repro.circuit.library import c17
from repro.core.patterns import TestPattern
from repro.core.results import FaultRecord, FaultStatus, TpgReport
from repro.paths import PathDelayFault, TestClass, Transition

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

transitions = st.sampled_from([Transition.RISING, Transition.FALLING])

faults = st.builds(
    PathDelayFault,
    signals=st.lists(
        st.integers(min_value=0, max_value=500), min_size=1, max_size=12
    ).map(tuple),
    transition=transitions,
)

bits = st.integers(min_value=0, max_value=1)


@st.composite
def patterns(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    v1 = tuple(draw(bits) for _ in range(n))
    v2 = tuple(draw(bits) for _ in range(n))
    fault = draw(st.none() | faults)
    return TestPattern(v1, v2, fault)


options_strategy = st.builds(
    Options,
    width=st.integers(min_value=1, max_value=256),
    backtrack_limit=st.integers(min_value=0, max_value=512),
    drop_faults=st.booleans(),
    use_fptpg=st.booleans(),
    use_aptpg=st.booleans(),
    unique_backward=st.booleans(),
    sim_backend=st.sampled_from(["auto", "int", "numpy"]),
    shards=st.integers(min_value=1, max_value=8),
    window=st.none() | st.integers(min_value=256, max_value=10_000),
    workers=st.integers(min_value=1, max_value=8),
    checkpoint=st.none() | st.text(min_size=1, max_size=20),
    checkpoint_every=st.integers(min_value=1, max_value=64),
    resume=st.booleans(),
    compact_every=st.none() | st.integers(min_value=1, max_value=64),
    keep_records=st.booleans(),
)

records = st.builds(
    FaultRecord,
    fault=faults,
    status=st.sampled_from(list(FaultStatus)),
    pattern=st.none() | patterns(),
    mode=st.sampled_from(["fptpg", "aptpg", "simulation", ""]),
)

tpg_reports = st.builds(
    TpgReport,
    circuit_name=st.text(min_size=1, max_size=16),
    test_class=st.sampled_from(list(TestClass)),
    width=st.integers(min_value=1, max_value=128),
    records=st.lists(records, max_size=8),
    seconds_sensitize=st.floats(min_value=0, max_value=1e3),
    seconds_generate=st.floats(min_value=0, max_value=1e3),
    seconds_simulate=st.floats(min_value=0, max_value=1e3),
    decisions=st.integers(min_value=0, max_value=10**9),
    backtracks=st.integers(min_value=0, max_value=10**9),
    implication_passes=st.integers(min_value=0, max_value=10**9),
)


def json_round(payload):
    """Force a real JSON round-trip (catches non-serializable values)."""
    return json.loads(json.dumps(payload))


# ---------------------------------------------------------------------------
# round-trip laws
# ---------------------------------------------------------------------------


class TestRoundTrips:
    @given(fault=faults)
    def test_fault(self, fault):
        payload = json_round(serde.fault_to_payload(fault))
        assert serde.fault_from_payload(payload) == fault
        assert serde.load(payload) == fault

    @given(pattern=patterns())
    def test_pattern(self, pattern):
        payload = json_round(serde.pattern_to_payload(pattern))
        assert serde.pattern_from_payload(payload) == pattern
        assert serde.load(payload) == pattern

    @given(options=options_strategy)
    def test_options(self, options):
        payload = json_round(serde.options_to_payload(options))
        assert serde.options_from_payload(payload) == options

    @settings(max_examples=25)
    @given(report=tpg_reports)
    def test_tpg_report(self, report):
        payload = json_round(serde.tpg_report_to_payload(report))
        assert serde.tpg_report_from_payload(payload) == report

    @pytest.mark.parametrize(
        "circuit", [c17(), ripple_carry_adder(3), random_dag(6, 20, seed=3)]
    )
    def test_circuit(self, circuit):
        payload = json_round(serde.circuit_to_payload(circuit))
        rebuilt = serde.circuit_from_payload(payload)
        assert rebuilt == circuit
        # derived views recompute identically
        assert rebuilt.topological_order() == circuit.topological_order()
        assert rebuilt.depth == circuit.depth

    def test_campaign_report(self):
        from repro.api import AtpgSession

        session = AtpgSession(ripple_carry_adder(3))
        report = session.campaign(
            universe=None, test_class="nonrobust", width=4, compact_every=8
        )
        payload = json_round(serde.campaign_report_to_payload(report))
        rebuilt = serde.campaign_report_from_payload(payload)
        assert rebuilt == report
        assert serde.load(payload) == report

    def test_campaign_report_without_records(self):
        from repro.api import AtpgSession

        session = AtpgSession(ripple_carry_adder(2))
        report = session.campaign(keep_records=False, width=4)
        rebuilt = serde.campaign_report_from_payload(
            json_round(serde.campaign_report_to_payload(report))
        )
        assert rebuilt == report
        assert rebuilt.records is None

    @given(fault=faults)
    def test_generic_dump_dispatch(self, fault):
        assert serde.load(serde.dump(fault)) == fault


# ---------------------------------------------------------------------------
# envelope rejection
# ---------------------------------------------------------------------------


class TestEnvelope:
    def setup_method(self):
        self.fault = PathDelayFault((0, 1, 2), Transition.RISING)

    def test_unknown_schema_version_rejected(self):
        payload = serde.fault_to_payload(self.fault)
        payload["schema_version"] = 99
        with pytest.raises(SchemaError, match="unknown schema_version 99"):
            serde.fault_from_payload(payload)
        with pytest.raises(SchemaError, match="unknown schema_version"):
            serde.load(payload)

    def test_unknown_kind_rejected(self):
        payload = serde.fault_to_payload(self.fault)
        payload["schema"] = "repro/not-a-thing"
        with pytest.raises(SchemaError, match="unknown schema kind"):
            serde.load(payload)

    def test_missing_envelope_rejected(self):
        with pytest.raises(SchemaError, match="envelope"):
            validate({"signals": [1], "transition": "R"})

    def test_kind_mismatch_rejected(self):
        payload = serde.fault_to_payload(self.fault)
        with pytest.raises(SchemaError, match="expected schema"):
            validate(payload, kind="repro/pattern")

    def test_shape_drift_rejected(self):
        payload = serde.fault_to_payload(self.fault)
        payload["surprise"] = 1
        with pytest.raises(SchemaError, match="drift"):
            validate(payload)

    def test_wrong_types_rejected(self):
        payload = stamp("repro/fault", {"signals": ["a"], "transition": "R"})
        with pytest.raises(SchemaError, match="expected int"):
            validate(payload)


# ---------------------------------------------------------------------------
# file artifacts
# ---------------------------------------------------------------------------


class TestArtifacts:
    def test_checkpoint_validates(self, tmp_path):
        from repro.api import AtpgSession

        path = tmp_path / "ckpt.json"
        session = AtpgSession(ripple_carry_adder(2))
        session.campaign(width=4, checkpoint=str(path))
        kind, version = validate_file(str(path))
        assert kind == "repro/campaign-checkpoint"
        assert version == 3
