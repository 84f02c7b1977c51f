"""Differential tests of the compiled schema validator.

:func:`repro.api.schemas.validate` runs checkers compiled once per
spec.  The spec interpreter they replaced is kept below, verbatim, as
the oracle: for payloads built from every registered ``(kind,
version)`` spec, each with one mutation, and for real artifacts the
program writes, the validator must accept exactly what the oracle
accepts and raise the oracle's message.
"""

import copy
import json
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import AtpgService, AtpgSession, ServiceOptions, serde
from repro.api.schemas import (
    BOOL,
    INT,
    NULL,
    NUM,
    SCHEMAS,
    STR,
    SchemaError,
    stamp,
    validate,
)
from repro.circuit.generators import ripple_carry_adder
from repro.circuit.library import c17
from repro.core.patterns import TestPattern
from repro.paths import all_faults

# ---------------------------------------------------------------------------
# the oracle: the spec interpreter the compiled checkers replaced
# ---------------------------------------------------------------------------


def _check(spec, value, path: str) -> None:
    if "anyOf" in spec:
        if value is None and NULL in spec["anyOf"]:
            return  # an opt(...) field holding null: no failing try first
        errors = []
        for alternative in spec["anyOf"]:
            try:
                _check(alternative, value, path)
                return
            except SchemaError as exc:
                errors.append(str(exc))
        raise SchemaError(f"{path}: no alternative matched ({'; '.join(errors)})")
    if "const" in spec:
        if value != spec["const"]:
            raise SchemaError(f"{path}: expected {spec['const']!r}, got {value!r}")
        return
    if "enum" in spec:
        if value not in spec["enum"]:
            raise SchemaError(f"{path}: {value!r} not in {spec['enum']!r}")
        return
    kind = spec["type"]
    if kind == "any":
        return
    if kind == "null":
        if value is not None:
            raise SchemaError(f"{path}: expected null, got {type(value).__name__}")
        return
    if kind == "string":
        if not isinstance(value, str):
            raise SchemaError(f"{path}: expected string, got {type(value).__name__}")
        return
    if kind == "bool":
        if not isinstance(value, bool):
            raise SchemaError(f"{path}: expected bool, got {type(value).__name__}")
        return
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{path}: expected int, got {type(value).__name__}")
        return
    if kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{path}: expected number, got {type(value).__name__}")
        return
    if kind == "array":
        if not isinstance(value, list):
            raise SchemaError(f"{path}: expected array, got {type(value).__name__}")
        items = spec["items"]
        # hot path: long scalar arrays (pattern bit vectors, fault
        # signal lists, checkpoint rows) verified with one C-speed
        # sweep over exact JSON types; the per-element walk below only
        # runs when the sweep fails (its job is the indexed error
        # message) or for non-scalar/shared item specs
        if items is INT:
            if all(type(item) is int for item in value):
                return
        elif items is STR:
            if all(type(item) is str for item in value):
                return
        elif items is NUM:
            if all(type(item) is int or type(item) is float for item in value):
                return
        elif items is BOOL:
            if all(type(item) is bool for item in value):
                return
        for index, item in enumerate(value):
            _check(items, item, f"{path}[{index}]")
        return
    if kind == "object":
        if not isinstance(value, dict):
            raise SchemaError(f"{path}: expected object, got {type(value).__name__}")
        for name, sub in spec["required"].items():
            if name not in value:
                raise SchemaError(f"{path}: missing required key {name!r}")
            _check(sub, value[name], f"{path}.{name}")
        for name, sub in spec["optional"].items():
            if name in value:
                _check(sub, value[name], f"{path}.{name}")
        if not spec["open"]:
            known = set(spec["required"]) | set(spec["optional"])
            # "sha256" is the integrity envelope (see api.integrity):
            # like schema/schema_version it may ride on any enveloped
            # payload without being part of the body spec
            extra = sorted(
                set(value) - known - {"schema", "schema_version", "sha256"}
            )
            if extra:
                raise SchemaError(
                    f"{path}: unexpected keys {extra} (schema drift? bump the "
                    f"schema version and register the new shape)"
                )
        return
    raise SchemaError(f"{path}: unknown spec type {kind!r}")  # pragma: no cover


def _verdict(check, payload):
    """``None`` when *check* accepts *payload*, else its message."""
    try:
        check(payload)
    except SchemaError as exc:
        return str(exc)
    return None


def assert_agrees(payload) -> None:
    spec = SCHEMAS[payload["schema"]][payload["schema_version"]]
    expected = _verdict(lambda p: _check(spec, p, "$"), payload)
    assert _verdict(validate, payload) == expected


# ---------------------------------------------------------------------------
# payloads from specs, and one mutation each
# ---------------------------------------------------------------------------

_SCALARS = {
    "any": st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=2)
        | st.dictionaries(st.text(max_size=3), inner, max_size=2),
        max_leaves=4,
    ),
    "null": st.none(),
    "string": st.text(max_size=4),
    "bool": st.booleans(),
    "int": st.integers(),
    "number": st.integers() | st.floats(allow_nan=False),
}


def values(spec):
    """A strategy for the JSON values *spec* accepts."""
    if "anyOf" in spec:
        return st.one_of([values(alternative) for alternative in spec["anyOf"]])
    if "const" in spec:
        return st.just(spec["const"])
    if "enum" in spec:
        return st.sampled_from(spec["enum"])
    kind = spec["type"]
    if kind == "array":
        return st.lists(values(spec["items"]), max_size=3)
    if kind == "object":
        body = st.fixed_dictionaries(
            {name: values(sub) for name, sub in spec["required"].items()},
            optional={name: values(sub) for name, sub in spec["optional"].items()},
        )
        if spec["open"]:
            extras = st.dictionaries(st.text(max_size=3), _SCALARS["any"], max_size=2)
            body = st.tuples(body, extras).map(lambda pair: {**pair[1], **pair[0]})
        return body
    return _SCALARS[kind]


def _locations(value, root: bool = True):
    """Every ``(container, key)`` slot under *value*, but the envelope."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not (root and key in ("schema", "schema_version")):
                yield value, key
                yield from _locations(item, root=False)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield value, index
            yield from _locations(item, root=False)


#: One value of each JSON type; "wrong type" puts one of another type
#: in a slot (``True`` where an int belongs must still be refused).
_OTHER_TYPES = [True, 7, 2.5, "s", None, [], {}]

MUTATIONS = (
    "wrong type",
    "bool",
    "missing key",
    "unexpected key",
    "not in enum",
    "null",
    "wrong container",
)


def mutate(payload, data):
    """*payload* with one mutation drawn from *data*, in place."""
    slots = list(_locations(payload))
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    if not slots or mutation == "unexpected key":
        objects = [payload] + [
            container[key]
            for container, key in slots
            if isinstance(container[key], dict)
        ]
        target = data.draw(st.sampled_from(objects), label="object")
        # "sha256" is the integrity envelope: tolerated at every level
        key = data.draw(st.sampled_from(["zz", "v3", "sha256"]), label="key")
        target[key] = 1
        return payload
    container, key = data.draw(st.sampled_from(slots), label="slot")
    value = container[key]
    if mutation == "wrong type":
        others = [other for other in _OTHER_TYPES if type(other) is not type(value)]
        container[key] = copy.copy(data.draw(st.sampled_from(others), label="other"))
    elif mutation == "bool":
        container[key] = True
    elif mutation == "missing key" and isinstance(container, dict):
        del container[key]
    elif mutation == "not in enum":
        container[key] = "not-a-member"
    elif mutation == "null":
        container[key] = None
    else:  # a wrong container, or a list slot that has no key to drop
        container[key] = {} if isinstance(value, list) else []
    return payload


REGISTERED = [
    (kind, version) for kind in sorted(SCHEMAS) for version in sorted(SCHEMAS[kind])
]

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize(
    "kind,version", REGISTERED, ids=[f"{k}-v{v}" for k, v in REGISTERED]
)
@_SETTINGS
@given(data=st.data())
def test_agrees_with_the_oracle_on_generated_payloads(kind, version, data):
    body = data.draw(values(SCHEMAS[kind][version]), label="body")
    payload = stamp(kind, body, version)
    assert validate(payload) == (kind, version)
    assert_agrees(payload)
    assert_agrees(mutate(payload, data))


def test_first_failure_in_spec_order():
    """Required keys first, then optional ones, then the sorted
    unexpected keys; the joined anyOf text names every branch."""
    fault = {"signals": [0, "x"], "transition": "Q"}
    payload = stamp(
        "repro/request.grade",
        {
            "patterns": [{"v1": "01", "v2": "10", "fault": fault, "b": 1, "a": 2}],
            "faults": "none",
            "scale": True,
        },
    )
    with pytest.raises(SchemaError) as excinfo:
        validate(payload)
    assert str(excinfo.value) == (
        "$.patterns[0].fault: no alternative matched ($.patterns[0].fault."
        "signals[1]: expected int, got str; $.patterns[0].fault: expected "
        "null, got dict)"
    )
    assert_agrees(payload)
    del payload["patterns"][0]["fault"]
    unexpected = r"^\$.patterns\[0\]: unexpected keys \['a', 'b'\]"
    with pytest.raises(SchemaError, match=unexpected):
        validate(payload)
    assert_agrees(payload)


def test_int_subclass_passes_an_int_array():
    """The exact-type sweep fails on an int subclass; the per-item check
    behind it still passes it, as the interpreter's isinstance did."""

    class Signal(int):
        pass

    payload = stamp("repro/fault", {"signals": [0, Signal(5), 9], "transition": "R"})
    assert validate(payload) == ("repro/fault", 1)
    payload["signals"][1] = True
    with pytest.raises(SchemaError, match=r"^\$.signals\[1\]: expected int, got bool$"):
        validate(payload)


@pytest.mark.parametrize(
    "envelope,message",
    [
        ({"schema": ["repro/fault"], "schema_version": 1}, "unknown schema kind"),
        ({"schema": "repro/fault", "schema_version": {}}, "unknown schema_version"),
    ],
)
def test_unhashable_envelope_is_unknown(envelope, message):
    with pytest.raises(SchemaError, match=message):
        validate({**envelope, "signals": [0], "transition": "R"})


@pytest.mark.parametrize("version", [True, 1.0])
def test_a_version_equal_to_an_int_is_unknown(version):
    """``true`` and ``1.0`` equal version 1 as dict keys, but only an
    int names a version: the caller must never get a non-int back."""
    payload = {"schema": "repro/fault", "schema_version": version}
    with pytest.raises(
        SchemaError, match=re.escape(f"unknown schema_version {version!r} for")
    ):
        validate({**payload, "signals": [0], "transition": "R"})


# ---------------------------------------------------------------------------
# real artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A serve request body, a campaign checkpoint and report, a job record."""
    root = tmp_path_factory.mktemp("artifacts")
    checkpoint = root / "ckpt.json"
    report = AtpgSession(ripple_carry_adder(2)).campaign(
        width=4, checkpoint=str(checkpoint)
    )
    faults = all_faults(c17())[:8]
    patterns = [
        TestPattern(
            tuple(k >> i & 1 for i in range(5)),
            tuple(k >> i & 1 ^ 1 for i in range(5)),
        )
        for k in range(8)
    ]
    request = stamp(
        "repro/request.grade",
        {
            "circuit": "c17",
            "scale": 1,
            "patterns": [serde.pattern_to_payload(p, envelope=False) for p in patterns],
            "faults": [serde.fault_to_payload(f, envelope=False) for f in faults],
        },
    )
    jobs_dir = root / "jobs"
    service = AtpgService(config=ServiceOptions(workers=1, jobs_dir=str(jobs_dir)))
    try:
        job_id = service.submit_campaign(
            stamp("repro/request.campaign", {"circuit": "c17", "max_faults": 8})
        ).payload["id"]
        deadline = time.monotonic() + 120.0
        while service.job_response(job_id).payload["state"] not in ("done", "failed"):
            assert time.monotonic() < deadline, "the campaign job never finished"
            time.sleep(0.02)
    finally:
        service.shutdown()
    with open(jobs_dir / f"{job_id}.job.json") as handle:
        job = json.load(handle)
    assert job["state"] == "done"
    with open(checkpoint) as handle:
        ckpt = json.load(handle)
    return {
        "request": request,
        "checkpoint": ckpt,
        "report": serde.campaign_report_to_payload(report),
        "job": job,
    }


@pytest.mark.parametrize(
    "name,kind",
    [
        ("request", "repro/request.grade"),
        ("checkpoint", "repro/campaign-checkpoint"),
        ("report", "repro/campaign-report"),
        ("job", "repro/job"),
    ],
)
def test_real_artifact_validates(artifacts, name, kind):
    payload = artifacts[name]
    assert validate(payload, kind=kind)[0] == kind
    assert_agrees(payload)


@pytest.mark.parametrize("name", ["request", "checkpoint", "report", "job"])
@_SETTINGS
@given(data=st.data())
def test_agrees_with_the_oracle_on_mutated_artifacts(artifacts, name, data):
    assert_agrees(mutate(copy.deepcopy(artifacts[name]), data))
