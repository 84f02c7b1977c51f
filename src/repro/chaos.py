"""Deterministic fault injection — seeded failure-point schedules.

Resilience code is only trustworthy if its failure paths run in CI,
and failure paths only run in CI if the failures are *deterministic*:
no sleeps racing wall clocks, no "kill a random worker and hope".
This module provides that determinism.  A :class:`ChaosController`
holds a schedule of named failure **sites**, each with an explicit
list of occurrence indices at which it fires.  Every instrumented code
path asks the controller "should occurrence *k* of site *s* fail?" —
the k-th query of a site gets the same answer on every run, regardless
of thread or process timing.

Sites instrumented across the project:

``shard_error``
    queried by the campaign's shard executor once per shard attempt
    (retries are new attempts, so an ``at`` index denotes the n-th
    attempt overall); a firing attempt raises before the shard runs,
    exercising retry with backoff and quarantine.
``torn_checkpoint``
    queried per rotated-JSON write (:mod:`repro.api.integrity`); a
    firing write leaves a truncated primary file on disk — exactly
    the corruption the checksum + ``.prev`` fallback must absorb.
``kernel_fault``
    queried at the top of every
    :meth:`repro.sim.delay_sim.DelayFaultSimulator.detection_masks`
    call; a firing call raises before touching the kernel, exercising
    the session circuit-breaker's native→numpy→interp demotion.
``job_worker_death``
    queried by each service job-worker thread right after it claims a
    job; a firing claim kills the thread with the job still marked
    ``running``, exercising thread resurrection + job re-queue.

A schedule is a JSON object (or dict)::

    {"seed": 1701, "points": [{"site": "shard_error", "at": [0, 2]}]}

``seed`` is recorded for provenance (the schedule itself is explicit,
not sampled) and seeds any derived jitter a consumer wants.  Install a
controller programmatically (:func:`install`), via ``Options.chaos``
(the campaign runner installs it), or through the ``REPRO_CHAOS``
environment variable (read once, lazily — the path by which
``tip serve`` inherits a schedule).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, List, Optional, Union

#: Environment variable holding a JSON chaos spec; read lazily on the
#: first query when no controller was installed programmatically.
ENV_VAR = "REPRO_CHAOS"

#: Every site an instrumented code path may query — unknown sites in a
#: spec are rejected up front (a typo would otherwise never fire).
SITES = (
    "shard_error",
    "torn_checkpoint",
    "kernel_fault",
    "job_worker_death",
)


class ChaosError(RuntimeError):
    """The exception every injected (non-crash) fault raises."""


class ChaosController:
    """One deterministic failure schedule plus its occurrence counters.

    Thread-safe: counters are guarded, so concurrent request threads
    observe one global occurrence order per site (the order of their
    queries — which the *tests* make deterministic by construction:
    bounded workers, explicit polling).
    """

    def __init__(self, spec: Union[str, Dict, None] = None):
        if isinstance(spec, str):
            spec = json.loads(spec)
        spec = spec or {}
        self.seed = int(spec.get("seed", 0))
        self._at: Dict[str, frozenset] = {}
        for point in spec.get("points", ()):
            site = point["site"]
            if site not in SITES:
                raise ValueError(
                    f"unknown chaos site {site!r} (known: {SITES})"
                )
            indices = frozenset(int(k) for k in point.get("at", ()))
            self._at[site] = self._at.get(site, frozenset()) | indices
        self._counts: Dict[str, int] = {}
        self._fired: List[Dict[str, object]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ queries
    def should_fire(self, site: str) -> bool:
        """Consume one occurrence of *site*; True iff it is scheduled."""
        with self._lock:
            index = self._counts.get(site, 0)
            self._counts[site] = index + 1
            fired = index in self._at.get(site, ())
            if fired:
                self._fired.append({"site": site, "occurrence": index})
            return fired

    def fired(self) -> List[Dict[str, object]]:
        """The injection log so far (site + occurrence, in order)."""
        with self._lock:
            return list(self._fired)

    def spec(self) -> Dict[str, object]:
        """The schedule in wire form (re-installable)."""
        return {
            "seed": self.seed,
            "points": [
                {"site": site, "at": sorted(at)}
                for site, at in sorted(self._at.items())
            ],
        }


# ---------------------------------------------------------------------------
# the process-wide controller
# ---------------------------------------------------------------------------

_CONTROLLER: Optional[ChaosController] = None
_ENV_CHECKED = False
_INSTALL_LOCK = threading.Lock()


def install(spec: Union[str, Dict, None]) -> Optional[ChaosController]:
    """Install a process-wide controller (``None`` clears it)."""
    global _CONTROLLER, _ENV_CHECKED
    with _INSTALL_LOCK:
        _CONTROLLER = ChaosController(spec) if spec is not None else None
        _ENV_CHECKED = True  # an explicit install overrides the env
        return _CONTROLLER


def uninstall() -> None:
    """Clear the controller and re-arm the lazy ``REPRO_CHAOS`` read."""
    global _CONTROLLER, _ENV_CHECKED
    with _INSTALL_LOCK:
        _CONTROLLER = None
        _ENV_CHECKED = False


def get_controller() -> Optional[ChaosController]:
    """The installed controller, lazily seeded from ``REPRO_CHAOS``."""
    global _CONTROLLER, _ENV_CHECKED
    if _CONTROLLER is None and not _ENV_CHECKED:
        with _INSTALL_LOCK:
            if _CONTROLLER is None and not _ENV_CHECKED:
                spec = os.environ.get(ENV_VAR)
                if spec:
                    _CONTROLLER = ChaosController(spec)
                _ENV_CHECKED = True
    return _CONTROLLER


def should_fire(site: str) -> bool:
    """Convenience: query the process controller (False when none)."""
    controller = get_controller()
    return controller is not None and controller.should_fire(site)


def maybe_raise(site: str) -> None:
    """Raise :class:`ChaosError` iff this occurrence is scheduled."""
    if should_fire(site):
        raise ChaosError(f"chaos: injected fault at site {site!r}")
