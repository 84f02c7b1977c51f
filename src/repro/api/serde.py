"""Serialization — object ↔ versioned JSON payload, one round-trip law.

Every codec here obeys ``from_payload(to_payload(x)) == x`` (asserted
property-based in ``tests/test_serde.py``): path delay faults, test
patterns, circuits, the unified options model, and both report types
round-trip through the wire format declared in
:mod:`repro.api.schemas`.  The service, the checkpoint files, and the
benchmark artifacts all speak payloads from this module, so there is
exactly one JSON shape per artifact — with an explicit
``schema``/``schema_version`` envelope.

The generic entry points :func:`dump` / :func:`load` dispatch on
object type / declared schema kind; both validate against the
registry, so a payload that drifted from its declared version never
round-trips silently.

Writers emit the latest version of each kind; readers take every
registered one.  A pattern is written in the ``repro/pattern`` v2
form — each vector one ``"0101…"`` string, character ``k`` for primary
input ``k`` — and read in either form, so v1-era reports (int-list
vectors) still load into equal objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..circuit import Circuit
from ..core.patterns import TestPattern
from ..core.results import FaultRecord, FaultStatus, TpgReport
from ..kernel.packed import bits_text, text_bits
from ..paths import PathDelayFault, TestClass, Transition
from .options import Options
from .schemas import SchemaError, stamp, validate

__all__ = [
    "dump",
    "load",
    "fault_to_payload",
    "fault_from_payload",
    "pattern_to_payload",
    "pattern_from_payload",
    "circuit_to_payload",
    "circuit_from_payload",
    "options_to_payload",
    "options_from_payload",
    "tpg_report_to_payload",
    "tpg_report_from_payload",
    "campaign_report_to_payload",
    "campaign_report_from_payload",
    "bist_report_to_payload",
    "bist_report_from_payload",
]


# ---------------------------------------------------------------------------
# faults and patterns
# ---------------------------------------------------------------------------


def fault_to_payload(fault: PathDelayFault, envelope: bool = True) -> Dict:
    body = {"signals": list(fault.signals), "transition": fault.transition.value}
    return stamp("repro/fault", body) if envelope else body


#: Transition by wire letter: one dict lookup per decoded fault.
_TRANSITIONS = {transition.value: transition for transition in Transition}


def fault_from_payload(payload: Dict, envelope: bool = True) -> PathDelayFault:
    if envelope:
        validate(payload, kind="repro/fault")
    letter = payload["transition"]
    # any other value gets the Enum's own error
    transition = _TRANSITIONS.get(letter) if type(letter) is str else None
    return PathDelayFault(
        tuple(payload["signals"]), transition or Transition(letter)
    )


def _vector_bits(vector, name: str) -> tuple:
    if not isinstance(vector, str):  # the repro/pattern v1 int list
        return tuple(vector)
    bits = text_bits(vector)
    bad = bits.find(0xFF)
    if bad >= 0:
        raise SchemaError(f"{name} bit {bad} is {vector[bad]!r}, expected 0 or 1")
    return tuple(bits)


def pattern_to_payload(pattern: TestPattern, envelope: bool = True) -> Dict:
    body = {
        "v1": bits_text(pattern.v1),
        "v2": bits_text(pattern.v2),
        "fault": (
            fault_to_payload(pattern.fault, envelope=False)
            if pattern.fault is not None
            else None
        ),
    }
    return stamp("repro/pattern", body) if envelope else body


def pattern_from_payload(payload: Dict, envelope: bool = True) -> TestPattern:
    if envelope:
        validate(payload, kind="repro/pattern")
    fault = payload.get("fault")
    return TestPattern(
        _vector_bits(payload["v1"], "v1"),
        _vector_bits(payload["v2"], "v2"),
        fault_from_payload(fault, envelope=False) if fault is not None else None,
    )


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------


def circuit_to_payload(circuit: Circuit, envelope: bool = True) -> Dict:
    body = {
        "name": circuit.name,
        "inputs": [circuit.signal_name(i) for i in circuit.inputs],
        "gates": [
            {
                "name": g.name,
                "type": g.gate_type.value,
                "fanin": [circuit.signal_name(f) for f in g.fanin],
            }
            for g in circuit.gates
            if not g.is_input
        ],
        "outputs": [circuit.signal_name(o) for o in circuit.outputs],
    }
    return stamp("repro/circuit", body) if envelope else body


def circuit_from_payload(payload: Dict, envelope: bool = True) -> Circuit:
    """Rebuild (and freeze) a circuit; derived views recompute equal.

    Note: gate insertion order is inputs-then-gates, which matches how
    every builder in the project constructs circuits.  A circuit whose
    original insertion order interleaved inputs between gates would
    round-trip structurally equal but with renumbered signal ids.
    """
    if envelope:
        validate(payload, kind="repro/circuit")
    circuit = Circuit(name=payload["name"])
    for name in payload["inputs"]:
        circuit.add_input(name)
    for gate in payload["gates"]:
        circuit.add_gate(gate["name"], gate["type"], gate["fanin"])
    for name in payload["outputs"]:
        circuit.mark_output(name)
    return circuit.freeze()


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------


def options_to_payload(options: Options, envelope: bool = True) -> Dict:
    body = Options.adopt(options).layers()
    return stamp("repro/options", body) if envelope else body


def options_from_payload(payload: Dict, envelope: bool = True) -> Options:
    if envelope:
        validate(payload, kind="repro/options")
    layers = {
        layer: dict(payload[layer])
        for layer in ("generation", "schedule", "execution", "persistence", "bist")
        if layer in payload
    }
    return Options.from_layers(layers)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _record_to_payload(record: FaultRecord) -> Dict:
    return {
        "status": record.status.value,
        "mode": record.mode,
        "fault": (
            fault_to_payload(record.fault, envelope=False)
            if record.fault is not None
            else None
        ),
        "pattern": (
            pattern_to_payload(record.pattern, envelope=False)
            if record.pattern is not None
            else None
        ),
    }


def _record_from_payload(payload: Dict) -> FaultRecord:
    fault = payload.get("fault")
    pattern = payload.get("pattern")
    return FaultRecord(
        fault=fault_from_payload(fault, envelope=False) if fault else None,
        status=FaultStatus(payload["status"]),
        pattern=(
            pattern_from_payload(pattern, envelope=False) if pattern else None
        ),
        mode=payload["mode"],
    )


def tpg_report_to_payload(report: TpgReport, envelope: bool = True) -> Dict:
    body = {
        "circuit": report.circuit_name,
        "test_class": report.test_class.value,
        "width": report.width,
        "records": [_record_to_payload(r) for r in report.records],
        "seconds_sensitize": report.seconds_sensitize,
        "seconds_generate": report.seconds_generate,
        "seconds_simulate": report.seconds_simulate,
        "decisions": report.decisions,
        "backtracks": report.backtracks,
        "implication_passes": report.implication_passes,
    }
    return stamp("repro/tpg-report", body) if envelope else body


def tpg_report_from_payload(payload: Dict, envelope: bool = True) -> TpgReport:
    if envelope:
        validate(payload, kind="repro/tpg-report")
    return TpgReport(
        circuit_name=payload["circuit"],
        test_class=TestClass(payload["test_class"]),
        width=payload["width"],
        records=[_record_from_payload(r) for r in payload["records"]],
        seconds_sensitize=payload["seconds_sensitize"],
        seconds_generate=payload["seconds_generate"],
        seconds_simulate=payload["seconds_simulate"],
        decisions=payload["decisions"],
        backtracks=payload["backtracks"],
        implication_passes=payload["implication_passes"],
    )


def campaign_report_to_payload(report, envelope: bool = True) -> Dict:
    """Serialize a :class:`repro.campaign.CampaignReport`.

    Index-keyed mappings travel as ``[index, value]`` pairs (JSON
    object keys are strings; pairs keep the integers honest).
    """
    body = {
        "circuit": report.circuit_name,
        "test_class": report.test_class.value,
        "options": options_to_payload(report.options, envelope=False),
        "statuses": [
            [index, status.value] for index, status in sorted(report.statuses.items())
        ],
        "modes": [
            [index, mode] for index, mode in sorted(report.modes.items())
        ],
        "records": (
            [
                [index, _record_to_payload(record)]
                for index, record in sorted(report.records.items())
            ]
            if report.records is not None
            else None
        ),
        "patterns": [pattern_to_payload(p, envelope=False) for p in report.patterns],
        "stats": report.stats.as_dict(),
        "complete": report.complete,
    }
    if report.errors:
        body["errors"] = [
            [index, dict(report.errors[index])]
            for index in sorted(report.errors)
        ]
    return stamp("repro/campaign-report", body) if envelope else body


def campaign_report_from_payload(payload: Dict, envelope: bool = True):
    # Imported lazily: repro.campaign imports this module's package at
    # load time (CampaignOptions subclasses the unified Options).
    from ..campaign.report import CampaignReport, CampaignStats

    if envelope:
        validate(payload, kind="repro/campaign-report")
    records = payload.get("records")
    return CampaignReport(
        circuit_name=payload["circuit"],
        test_class=TestClass(payload["test_class"]),
        options=options_from_payload(payload["options"], envelope=False),
        statuses={
            int(index): FaultStatus(value) for index, value in payload["statuses"]
        },
        modes={int(index): mode for index, mode in payload["modes"]},
        records=(
            {int(index): _record_from_payload(r) for index, r in records}
            if records is not None
            else None
        ),
        patterns=[
            pattern_from_payload(p, envelope=False) for p in payload["patterns"]
        ],
        stats=CampaignStats.from_dict(payload["stats"]),
        complete=payload["complete"],
        errors={
            int(index): dict(envelope_)
            for index, envelope_ in payload.get("errors", [])
        },
    )


def bist_report_to_payload(report, envelope: bool = True) -> Dict:
    """Serialize a :class:`repro.bist.BistReport`.

    Register quantities (polynomials, seed, signature) travel as hex
    strings: 64-bit values exceed what some JSON consumers keep exact.
    """
    body = {
        "circuit": report.circuit_name,
        "fault_model": report.fault_model,
        "test_class": (
            report.test_class.value if report.test_class is not None else None
        ),
        "lfsr": {
            "width": report.lfsr_width,
            "kind": report.lfsr_kind,
            "polynomial": hex(report.lfsr_polynomial),
            "seed": hex(report.lfsr_seed),
            "phase_spread": report.phase_spread,
        },
        "misr": {
            "width": report.misr_width,
            "polynomial": hex(report.misr_polynomial),
            "signature": hex(report.signature),
            "aliasing_probability": report.aliasing_probability,
        },
        "faults": report.faults,
        "detected": report.detected,
        "coverage": report.coverage,
        "patterns_applied": report.patterns_applied,
        "windows": report.windows,
        "stop_reason": report.stop_reason,
        "max_patterns": report.max_patterns,
        "target_coverage": report.target_coverage,
        "curve": [[patterns, detected] for patterns, detected in report.curve],
    }
    return stamp("repro/bist-report", body) if envelope else body


def bist_report_from_payload(payload: Dict, envelope: bool = True):
    from ..bist.report import BistReport  # lazy: keep bist optional at import

    if envelope:
        validate(payload, kind="repro/bist-report")
    lfsr = payload["lfsr"]
    misr = payload["misr"]
    test_class = payload["test_class"]
    return BistReport(
        circuit_name=payload["circuit"],
        fault_model=payload["fault_model"],
        test_class=TestClass(test_class) if test_class is not None else None,
        lfsr_width=lfsr["width"],
        lfsr_kind=lfsr["kind"],
        lfsr_polynomial=int(lfsr["polynomial"], 16),
        lfsr_seed=int(lfsr["seed"], 16),
        phase_spread=lfsr["phase_spread"],
        misr_width=misr["width"],
        misr_polynomial=int(misr["polynomial"], 16),
        signature=int(misr["signature"], 16),
        aliasing_probability=misr["aliasing_probability"],
        faults=payload["faults"],
        detected=payload["detected"],
        patterns_applied=payload["patterns_applied"],
        windows=payload["windows"],
        stop_reason=payload["stop_reason"],
        max_patterns=payload["max_patterns"],
        target_coverage=payload["target_coverage"],
        curve=[(patterns, detected) for patterns, detected in payload["curve"]],
    )


# ---------------------------------------------------------------------------
# generic dispatch
# ---------------------------------------------------------------------------


def dump(obj) -> Dict:
    """Serialize any supported artifact to its enveloped payload."""
    from ..bist.report import BistReport  # lazy: import cycle
    from ..campaign.report import CampaignReport  # lazy: import cycle

    if isinstance(obj, BistReport):
        return bist_report_to_payload(obj)
    if isinstance(obj, PathDelayFault):
        return fault_to_payload(obj)
    if isinstance(obj, TestPattern):
        return pattern_to_payload(obj)
    if isinstance(obj, Circuit):
        return circuit_to_payload(obj)
    if isinstance(obj, Options):
        return options_to_payload(obj)
    if isinstance(obj, TpgReport):
        return tpg_report_to_payload(obj)
    if isinstance(obj, CampaignReport):
        return campaign_report_to_payload(obj)
    raise TypeError(f"no serializer for {type(obj).__name__}")


_LOADERS = {
    "repro/fault": fault_from_payload,
    "repro/pattern": pattern_from_payload,
    "repro/circuit": circuit_from_payload,
    "repro/options": options_from_payload,
    "repro/tpg-report": tpg_report_from_payload,
    "repro/campaign-report": campaign_report_from_payload,
    "repro/bist-report": bist_report_from_payload,
}


def load(payload: Dict):
    """Deserialize any enveloped payload back into its object."""
    kind, _version = validate(payload)
    loader = _LOADERS.get(kind)
    if loader is None:
        raise SchemaError(f"schema kind {kind!r} has no object codec")
    return loader(payload, envelope=False)
