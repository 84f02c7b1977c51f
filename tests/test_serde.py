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
    shard_attempts=st.integers(min_value=1, max_value=8),
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


def int_list_pattern(pattern):
    """A ``repro/pattern`` v2 body rewritten in the v1 int-list form."""
    if pattern is None:
        return None
    return {**pattern, "v1": [int(c) for c in pattern["v1"]],
            "v2": [int(c) for c in pattern["v2"]]}


def int_list_tpg_report(payload, version):
    """A ``repro/tpg-report`` v3 payload as its int-list *version*."""
    records = [
        {**record, "pattern": int_list_pattern(record["pattern"])}
        for record in payload["records"]
    ]
    return {**payload, "schema_version": version, "records": records}


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
        assert payload["schema_version"] == 2
        assert payload["v1"] == "".join(map(str, pattern.v1))
        assert serde.pattern_from_payload(payload) == pattern
        assert serde.load(payload) == pattern

    @given(pattern=patterns())
    def test_pattern_v1_int_lists_still_decode(self, pattern):
        body = serde.pattern_to_payload(pattern, envelope=False)
        payload = stamp("repro/pattern", int_list_pattern(body), version=1)
        assert serde.pattern_from_payload(json_round(payload)) == pattern
        assert serde.load(json_round(payload)) == pattern

    @pytest.mark.parametrize("vector", ["01x", "0 1", "2", "0\uff11"])
    def test_pattern_with_a_non_binary_character_is_rejected(self, vector):
        payload = stamp("repro/pattern", {"v1": "0" * len(vector), "v2": vector})
        validate(payload)  # the spec says "string"; the decoder reads it
        with pytest.raises(SchemaError, match="v2 bit .* expected 0 or 1"):
            serde.pattern_from_payload(payload)

    @given(options=options_strategy)
    def test_options(self, options):
        payload = json_round(serde.options_to_payload(options))
        assert payload["schema_version"] == 5
        assert serde.options_from_payload(payload) == options
        # v4 still carried the process pool's knobs: they decode away
        v4 = {**payload, "schema_version": 4}
        v4["execution"] = {
            **payload["execution"], "workers": 3, "shard_deadline_s": 5.0
        }
        assert serde.options_from_payload(v4) == options
        # and v5 refuses them
        with pytest.raises(SchemaError, match="workers"):
            serde.options_from_payload({**v4, "schema_version": 5})

    @pytest.mark.parametrize("version", [2, 3, 4, 5])
    @pytest.mark.parametrize("fusion", ["vector", "codegen"])
    def test_retired_fusion_reads_as_auto(self, version, fusion):
        """Options v2–v5 could name the retired numpy strategies; they
        decode as ``auto``, which settles every fault the same way."""
        layers = {"generation": {"width": 8, "fusion": fusion}}
        payload = stamp("repro/options", layers, version=version)
        assert serde.options_from_payload(payload) == Options(width=8)
        assert Options.from_layers(layers).fusion == "auto"

    @settings(max_examples=25)
    @given(report=tpg_reports)
    def test_tpg_report(self, report):
        payload = json_round(serde.tpg_report_to_payload(report))
        assert payload["schema_version"] == 3
        assert serde.tpg_report_from_payload(payload) == report
        # the int-list versions still decode to the same report (v1
        # predates the skipped_error status)
        versions = [2]
        if all(r.status is not FaultStatus.SKIPPED_ERROR for r in report.records):
            versions.append(1)
        for version in versions:
            old = int_list_tpg_report(payload, version)
            validate(old)
            assert serde.tpg_report_from_payload(old) == report

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
        assert payload["schema_version"] == 6
        assert isinstance(payload["patterns"][0]["v1"], str)
        rebuilt = serde.campaign_report_from_payload(payload)
        assert rebuilt == report
        assert serde.load(payload) == report
        # the v5 form, with the process pool's workers option and
        # restart counter, still decodes to the same report
        options = payload["options"]
        v5 = {
            **payload,
            "schema_version": 5,
            "options": {**options, "execution": {**options["execution"], "workers": 1}},
            "stats": {**payload["stats"], "worker_restarts": 0},
        }
        assert serde.load(v5) == report
        # and so does the v4 int-list form
        v4 = {
            **v5,
            "schema_version": 4,
            "patterns": [int_list_pattern(p) for p in payload["patterns"]],
            "records": [
                [index, {**r, "pattern": int_list_pattern(r["pattern"])}]
                for index, r in payload["records"]
            ],
        }
        assert serde.load(v4) == report

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

    def test_null_only_passes_where_null_is_an_alternative(self):
        # opt(...) fields take null without trying the other branch; a
        # null anywhere else still fails with the type message
        validate(stamp("repro/pattern", {"v1": "01", "v2": "10", "fault": None}))
        payload = stamp("repro/pattern", {"v1": None, "v2": "10"})
        with pytest.raises(SchemaError) as excinfo:
            validate(payload)
        assert str(excinfo.value) == "$.v1: expected string, got NoneType"
        fault = stamp("repro/pattern", {"v1": "0", "v2": "1", "fault": 3})
        with pytest.raises(SchemaError) as excinfo:
            validate(fault)
        assert str(excinfo.value) == (
            "$.fault: no alternative matched ($.fault: expected object, got "
            "int; $.fault: expected null, got int)"
        )


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
        assert version == 4
