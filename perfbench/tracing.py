"""In-memory spans around the program's public calls, and layer accounting.

The benchmark times each layer by wrapping the public function where
one layer calls into the next.  The wrappers live here, in the
benchmark, and are installed only for a traced run; the program itself
carries no instrumentation.

A span is ``(id, name, start, end, parent, run)``: ``perf_counter``
seconds (CLOCK_MONOTONIC on Linux, so spans written by the server child
line up with the load generator's), the id of the enclosing span on the
same thread (``0`` = top level) and the run id.  A layer is the span
name's prefix up to the first dot.  A layer's self time is the duration
of its spans minus the part covered by their direct children; summed
over all layers that telescopes to the duration of the top-level spans,
so ``sum(self times) + other == wall`` holds exactly.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import threading
import time
from collections import defaultdict
from functools import wraps
from typing import Callable, Dict, List, Sequence, Tuple

#: The layers a traced run reports self time for, in reporting order.
LAYERS = ("circuit", "kernel", "sim", "core", "campaign", "api", "load", "bench")

Span = Tuple[int, str, float, float, int, str]

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Tracer:
    """Collects spans and counters in memory until the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*.

        A call re-entering a span of the same name (``grade`` calling
        ``resilient_masks``, ``_resolve_session`` calling
        ``session_for``) is not a new span: only the outermost counts.
        """
        parent = _current.get()
        if parent is not None and parent[1] == name:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the body of a ``with`` block."""
        parent = _current.get()
        span_id = next(self._ids)
        token = _current.set((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _current.reset(token)
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else 0, self.run_id)
            )

    def record(self, name: str, start: float, end: float) -> None:
        """A top-level span timed elsewhere (the load generator's requests)."""
        self.spans.append((next(self._ids), name, start, end, 0, self.run_id))

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def load_spans(path: str) -> Tuple[List[Span], Dict[str, int]]:
    with open(path) as handle:
        data = json.load(handle)
    return [tuple(span) for span in data["spans"]], data["counts"]


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _after_detect(tracer: Tracer, args, result) -> None:
    patterns, faults = args[1], args[2]
    tracer.count("sim.pattern_faults", len(patterns) * len(faults))
    tracer.count("sim.faults", len(faults))
    tracer.count("sim.detected", sum(1 for mask in result if mask))


def _after_aptpg(tracer: Tracer, args, result) -> None:
    from repro.core.results import FaultStatus

    if result.status is FaultStatus.TESTED:
        tracer.count("core.aptpg_tested")


def _targets():
    """(owner, attribute, span name, after-hook) for every wrapped call."""
    from repro.api import resolve, service, session
    from repro.campaign import bus, scheduler
    from repro.circuit.circuit import Circuit
    from repro.core import fptpg, state
    from repro.kernel import packed
    from repro.sim import delay_sim

    Session = session.AtpgSession
    Service = service.AtpgService
    return [
        (resolve, "resolve_circuit", "circuit.resolve", None),
        (Circuit, "compiled", "kernel.lower", None),
        (packed.PackedPatterns, "from_patterns", "kernel.pack", None),
        (delay_sim.DelayFaultSimulator, "detection_masks", "sim.detect", _after_detect),
        (state.TpgState, "__init__", "core.state_init", None),
        (state.TpgState, "imply", "core.imply", None),
        (fptpg, "sensitize_nonrobust", "core.sensitize", None),
        (fptpg, "sensitize_robust", "core.sensitize", None),
        (scheduler, "run_fptpg", "core.fptpg", None),
        (scheduler, "run_aptpg", "core.aptpg", _after_aptpg),
        (Session, "campaign", "campaign.run", None),
        (bus.DropBus, "absorb", "campaign.drop", None),
        (Session, "__init__", "api.session", None),
        (Service, "session_for", "api.session", None),
        (Service, "_resolve_session", "api.session", None),
        (Session, "grade", "api.grade", None),
        (Session, "resilient_masks", "api.grade", None),
        (Service, "handle", "api.request", None),
        (service, "request_from_payload", "api.decode", None),
        (service._Handler, "do_POST", "api.wire", None),
    ]


def _wrap(tracer: Tracer, name: str, fn: Callable, after) -> Callable:
    if name == "kernel.lower":
        # Circuit.compiled is called on every TPG state and sensitization
        # but lowers only once per circuit: time only the call that lowers
        @wraps(fn)
        def lower(circuit):
            if circuit._compiled is not None:
                return fn(circuit)
            return tracer.call(name, fn, circuit)

        return lower

    @wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Install every wrapper; returns the function that removes them."""
    undo = []
    for owner, attribute, name, after in _targets():
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            replacement = classmethod(_wrap(tracer, name, raw.__func__, after))
        else:
            replacement = _wrap(tracer, name, raw, after)
        setattr(owner, attribute, replacement)
        undo.append((owner, attribute, raw))

    def uninstall() -> None:
        for owner, attribute, raw in reversed(undo):
            setattr(owner, attribute, raw)

    return uninstall


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per layer: each span's duration minus its direct children."""
    child_time: Dict[int, float] = defaultdict(float)
    for _id, _name, start, end, parent, _run in spans:
        if parent:
            child_time[parent] += end - start
    layers: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span_id, name, start, end, _parent, _run in spans:
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + (end - start) - child_time[span_id]
    return layers


def top_level_time(spans: Sequence[Span]) -> float:
    return sum(end - start for _id, _n, start, end, parent, _r in spans if not parent)


def totals(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """``name -> (total seconds, calls)``."""
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for _id, name, start, end, _parent, _run in spans:
        entry = out[name]
        entry[0] += end - start
        entry[1] += 1
    return {name: (entry[0], int(entry[1])) for name, entry in out.items()}


def attributed(spans: Sequence[Span], wall: float) -> Dict[str, float]:
    """Layer self times plus ``other``, adding up to *wall*."""
    layers = self_times(spans)
    layers["other"] = wall - top_level_time(spans)
    return layers

