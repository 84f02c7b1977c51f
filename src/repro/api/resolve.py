"""Shared circuit / test-class resolution.

Every front-door entry — the five ``tip`` subcommands, the
:class:`repro.api.AtpgSession` constructors, and the service's JSON
requests — used to re-implement "turn this user-supplied string into
a frozen :class:`Circuit`" independently.  This module is the single
implementation all of them call.

A *circuit spec* is one of:

* a path to an ISCAS ``.bench`` file (recognized by suffix),
* the name of an embedded circuit (``c17``, ``paper_example``, ...),
* an ISCAS suite name (``c432``, ``s1423``, ...), optionally scaled.

A *test-class spec* is a :class:`TestClass`, or its string value
(``"robust"`` / ``"nonrobust"``, case-insensitive).
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Union

from ..circuit import Circuit, load_bench, parse_bench
from ..circuit.library import EMBEDDED, load_embedded
from ..circuit.suites import check_scale, suite_circuit
from ..paths import TestClass


class ResolutionError(ValueError):
    """Raised when a spec cannot be interpreted."""


def resolve_circuit(spec: str, scale: int = 1) -> Circuit:
    """Interpret a circuit spec: file path, embedded name, suite name.

    Raises :class:`ResolutionError` (a ``ValueError``) for unknown
    specs; the CLI converts that into a clean ``SystemExit``.  A suite
    name with a *scale* below 1 raises a plain ``ValueError`` naming
    the scale (a usage error on the CLI); file paths and embedded
    names take no scale.
    """
    if spec.endswith(".bench"):
        return load_bench(spec)
    if spec in EMBEDDED:
        return load_embedded(spec)
    check_scale(scale)
    try:
        return suite_circuit(spec, scale)
    except ValueError:
        pass
    known = ", ".join(sorted(EMBEDDED))
    raise ResolutionError(
        f"unknown circuit {spec!r}: expected a .bench file, an embedded "
        f"circuit ({known}) or an ISCAS suite name (c432, s1423, ...)"
    )


def resolve_circuit_request(
    spec: Optional[str] = None,
    bench: Optional[str] = None,
    scale: int = 1,
    name: str = "bench",
) -> Circuit:
    """Resolve the service's two circuit transports.

    Requests name a circuit either by *spec* (resolved exactly like
    the CLI) or by inline *bench* netlist text; exactly one must be
    given.
    """
    if (spec is None) == (bench is None):
        raise ResolutionError(
            "provide exactly one of 'circuit' (a spec) or 'bench' "
            "(inline netlist text)"
        )
    if bench is not None:
        return parse_bench(bench, name=name)
    return resolve_circuit(spec, scale)


def resolve_test_class(value: Union[str, TestClass, None]) -> TestClass:
    """Interpret a test-class spec; ``None`` means nonrobust."""
    if value is None:
        return TestClass.NONROBUST
    if isinstance(value, TestClass):
        return value
    try:
        return TestClass(str(value).lower())
    except ValueError:
        raise ResolutionError(
            f"unknown test class {value!r}: expected 'robust' or 'nonrobust'"
        ) from None


def circuit_fingerprint(circuit: Circuit) -> str:
    """A stable hash of the circuit *structure* (the session-cache key).

    Computed from the canonical JSON of name, gate list (name, type,
    fanin ids), and output ids — everything :class:`Circuit` equality
    observes, nothing derived.  Two parses of the same netlist text
    fingerprint identically, so a service request for an
    already-lowered circuit reuses the cached session instead of
    re-compiling.
    """
    canonical = {
        "name": circuit.name,
        "gates": [
            [g.name, g.gate_type.value, list(g.fanin)] for g in circuit.gates
        ],
        "outputs": list(circuit.outputs),
    }
    blob = json.dumps(canonical, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
