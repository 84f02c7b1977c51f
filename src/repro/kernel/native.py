"""Native word backend: the lowered plan compiled to machine code.

The third word backend, and the default one.  One circuit-generic C
translation unit, ``native.c`` beside this module
(:data:`NATIVE_SOURCE`, its cffi declarations ``native.cdef`` in
:data:`NATIVE_CDEF`, both read at import), interprets the same
level-major plan the Python strategies execute over contiguous
row-major ``(n_signals, n_words)`` uint64 lane slabs; this module
compiles it via :mod:`cffi` and exposes it behind the
:class:`NativeWordBackend` — a drop-in :class:`NumpyWordBackend`
subclass, so every ``isinstance`` dispatch on the numpy backend keeps
working and only the pass bodies change.

Covered end to end: the two-valued and 7-valued full passes, the
10-valued grading pass, the stuck-at cone resimulation, and the PPSFP
fault inner loops — the detection and strength walks run *inside* the
module, sharing each on-path edge's side-input term across the fault
batch and returning only the detected faults' mask rows, so a whole
fault batch costs one Python call.  The walks read the faults as
columns of a :class:`repro.paths.FaultTable` (signal CSR plus launch
values) and gather the batch's rows through an index array, so the
campaign drop bus passes its pending rows instead of re-flattening
every path; a plain fault list becomes a table per call.  One PPSFP
pass serves both callers (:meth:`NativeWordBackend.ppsfp_pass`):
``detection_masks`` runs it on buffers allocated per call and converts
the detected rows to lane masks, and the drop bus runs it on a
:class:`DropScratch` it allocates once and grows on demand, taking back
only the detected faults' positions.

The module also holds the TPG implication engine: a
:class:`repro.core.state.TpgState` of at most 64 lanes keeps its
planes, worklist, trail and justification cache in one C
``repro_tpg`` (:func:`native_tpg_engine`), and ``assign``/``imply``/
``rollback``, the unjustified scan, lane flattening, a path's
nonrobust sensitization and the FPTPG/APTPG decision step (objective,
lane group and SCOAP-ranked backtrace) are single calls.  So are the
generation shards built on them: APTPG's checkpointed search on a
sensitized state, a fault's whole nonrobust APTPG (XOR sides derived
from the fanin CSR, the chunked polarity screen and every survivor's
search, on one engine reset between states) and an FPTPG batch.
``repro_tpg_reset`` returns an engine to its fresh state at a given
width, so one engine can run shard after shard
(:class:`repro.core.state.TpgEngine`).  Robust sensitization stays in
Python.

Module lifecycle — one module per machine, not per circuit:

* the circuit travels per call as a ``repro_plan`` struct
  (:func:`native_plan`: plan order, gate codes — an input is code 0 —,
  fanin and fanout CSR, controlling values), built once per
  :class:`CompiledCircuit` and memoized on its
  ``_fusion_cache`` — which ``__getstate__`` drops, so compiled
  circuits stay pickling-safe (campaign pool workers rebuild the
  struct, cheaply, per process),
* the module is named by a hash of :data:`NATIVE_ABI`, the C text and
  the compile and link flags (``_COMPILE_ARGS``, ``_LINK_ARGS``: a
  sanitized build, ``scripts/check_native_sanitizers.py``, never
  shares a cached object with the normal one), and lives in a per-user
  disk cache
  (``REPRO_NATIVE_CACHE`` overrides the location) that must be private
  — created ``0o700``, owned by this user, not writable by others, not
  a link — or nothing is loaded from it: a process loads the module
  from there, and only a miss compiles — into a private temp dir in
  the cache, moved into place with one atomic ``os.replace`` so
  concurrent cold starts never load a half-written object,
* :func:`native_available` answers by loading (or, on a miss,
  building) that module once per process; without a cached module and
  a C toolchain it is False, ``backend_for("auto")`` silently keeps
  the Python backends, and an explicit ``prefer="native"`` degrades to
  numpy with a one-time :class:`NativeBackendUnavailableWarning`.

Bit-identity against the interpreted oracle for every covered pass is
asserted by ``tests/test_fusion.py``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import stat
import sysconfig
import tempfile
import threading
import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..paths.table import fault_rows, grown
from .backends import NumpyWordBackend, PlanesLike
from .compiled import CompiledCircuit
from .packed import rows_to_ints, words_to_int


def _package_text(name: str) -> str:
    path = os.path.join(os.path.dirname(__file__), name)
    with open(path, encoding="ascii") as handle:
        return handle.read()


#: The whole native kernel as one circuit-generic C translation unit
#: (``native.c``): the three forward passes over row-major
#: ``(n_signals, n_words)`` uint64 slabs, the per-batch PPSFP detection
#: and strength walks, the stuck-at cone resimulation and the TPG
#: implication engine.  Circuits arrive per call as a ``repro_plan``
#: struct, so this text never changes between circuits and is compiled
#: once per machine.
NATIVE_SOURCE = _package_text("native.c")
#: The cffi declarations of every entry point it exports (``native.cdef``).
NATIVE_CDEF = _package_text("native.cdef")

#: Bump when the call ABI changes (the C text is hashed into the module
#: name anyway), so stale disk-cached shared objects are never reloaded.
NATIVE_ABI = 8

# The C text is constant-size (data-driven plan interpreters), so a real
# optimization level is affordable: -O2 runs the fault loops ~2x faster
# than -O0.  -w: the C text itself is held warning-free under -Wall
# -Wextra -Werror by scripts/check_native_source.py (a CI step); this
# build adds cffi's generated wrappers and runs on whatever compiler the
# host has, whose extra warnings at first import would only be noise.
_COMPILE_ARGS = [] if os.name == "nt" else ["-O2", "-w"]
#: Extra linker flags, none by default.  Hashed into the module name
#: like the compile flags, so a build with other flags (a sanitized one,
#: scripts/check_native_sanitizers.py) never shares a cached object.
_LINK_ARGS: List[str] = []


class NativeBackendUnavailableWarning(RuntimeWarning):
    """Emitted once per process when ``prefer="native"`` falls back.

    Structured (its own category) so callers can filter or assert on
    it; the message carries why the module could not be loaded.
    """


_lock = threading.Lock()
#: (loaded module or None, failure reason) — settled once per process.
_state: Optional[Tuple[object, str]] = None
_warned_fallback = False


def native_cache_dir() -> str:
    """The on-disk cache of the compiled native module.

    ``REPRO_NATIVE_CACHE`` overrides; the default is per-user (and
    per-Python-tag via the extension filename) under the system temp
    directory.
    """
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else "shared"
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def module_name() -> str:
    """The native module's name: ABI, C text, compile and link flags, hashed."""
    h = hashlib.sha256(f"abi{NATIVE_ABI};{_COMPILE_ARGS};{_LINK_ARGS};".encode())
    h.update(NATIVE_CDEF.encode())
    h.update(NATIVE_SOURCE.encode())
    return f"_repro_native_{h.hexdigest()[:16]}"


def _load_extension(name: str, path: str):
    """Import one compiled extension module from an explicit path."""
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:  # pragma: no cover
        raise ImportError(f"cannot load native module from {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _private_cache_dir() -> str:
    """:func:`native_cache_dir`, created ``0o700`` when missing, checked.

    The module is imported from this directory, and the default one has
    a predictable name under the shared temp directory: a directory
    another user can write to, or swap for a link, would run that
    user's code.  It must be a real directory owned by this user (or
    root) without group/other write permission; anything else raises
    :class:`PermissionError`, so the module counts as unavailable.
    """
    cache_dir = native_cache_dir()
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    info = os.lstat(cache_dir)
    if hasattr(os, "getuid") and (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid not in (os.getuid(), 0)
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise PermissionError(
            f"cache dir {cache_dir!r} is not private: it must be a "
            "directory (not a link) owned by this user, without "
            "group/other write permission"
        )
    return cache_dir


def _build_module(name: str, path: str) -> None:
    """Compile the module and move the finished object to *path*."""
    import cffi

    build_dir = tempfile.mkdtemp(
        prefix=f"{name}.build-", dir=os.path.dirname(path)
    )
    try:
        ffi = cffi.FFI()
        ffi.cdef(NATIVE_CDEF)
        ffi.set_source(
            name,
            NATIVE_SOURCE,
            extra_compile_args=_COMPILE_ARGS,
            extra_link_args=_LINK_ARGS,
        )
        os.replace(ffi.compile(tmpdir=build_dir), path)
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)


def _load_or_build():
    name = module_name()
    path = os.path.join(
        _private_cache_dir(), name + sysconfig.get_config_var("EXT_SUFFIX")
    )
    if os.path.exists(path):
        try:
            return _load_extension(name, path)
        except Exception:  # noqa: BLE001 - corrupt object: rebuild it
            pass
    _build_module(name, path)
    return _load_extension(name, path)


def _native_state() -> Tuple[object, str]:
    global _state
    state = _state
    if state is None:
        with _lock:
            if _state is None:
                try:
                    _state = (_load_or_build(), "")
                except Exception as exc:  # noqa: BLE001 - reported, not raised
                    _state = (None, f"native module unavailable ({exc})")
            state = _state
    return state


def native_module():
    """The loaded native module (see module doc for the lifecycle).

    Exposes ``lib`` (the entry points of :data:`NATIVE_CDEF`) and
    ``ffi``; raises
    :class:`RuntimeError` with :func:`native_unavailable_reason` when
    the module can be neither loaded nor built.
    """
    module, reason = _native_state()
    if module is None:
        raise RuntimeError(reason)
    return module


def native_available() -> bool:
    """True when the native module is loaded — from the disk cache, or
    built on a miss (once per process)."""
    return _native_state()[0] is not None


def native_unavailable_reason() -> str:
    """Why the module could not be loaded or built ("" when it was)."""
    return _native_state()[1]


def warn_native_fallback() -> None:
    """One-time structured warning that native degraded to numpy."""
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    warnings.warn(
        f"native word backend unavailable ({native_unavailable_reason()}); "
        "falling back to the numpy backend — simulation results are "
        "identical, only slower",
        NativeBackendUnavailableWarning,
        stacklevel=3,
    )


def native_backend_or_fallback(n_lanes: int, fusion: str = "auto"):
    """A :class:`NativeWordBackend`, or numpy + one-time warning.

    The graceful-degradation seam ``backend_for(prefer="native")``
    routes through: without the native module the package must keep
    working everywhere, so the numpy backend (bit-identical results)
    is substituted and a :class:`NativeBackendUnavailableWarning` is
    emitted once per process.
    """
    if native_available():
        return NativeWordBackend(n_lanes, fusion=fusion)
    warn_native_fallback()
    return NumpyWordBackend(n_lanes, fusion=fusion)


def native_plan(compiled: CompiledCircuit):
    """The ``repro_plan`` struct of *compiled* (memoized, see module doc).

    Returns ``(struct, n_edges)``; the struct points into arrays kept
    alive by the memo entry.  ``n_edges`` (the fanin CSR length) sizes
    the fault walks' edge-term memo.
    """
    entry = compiled._fusion_cache.get("native_plan")
    if entry is None:
        ffi = native_module().ffi
        tables = {
            "plan_out": np.fromiter(
                (out for _code, out, _fanin, _gt in compiled.plan),
                np.int32,
                count=len(compiled.plan),
            ),
            "code": np.asarray(compiled.py_codes, dtype=np.int8),
            "fanin_off": np.ascontiguousarray(compiled.fanin_offsets, np.int32),
            "fanin_idx": np.ascontiguousarray(compiled.fanin_index, np.int32),
            "fanout_off": np.ascontiguousarray(compiled.fanout_offsets, np.int32),
            "fanout_idx": np.ascontiguousarray(compiled.fanout_index, np.int32),
            "ctrl": np.asarray(
                [-1 if c is None else c for c in compiled.controlling],
                dtype=np.int8,
            ),
        }
        views = {
            key: ffi.from_buffer(
                "int8_t[]" if table.dtype == np.int8 else "int32_t[]", table
            )
            for key, table in tables.items()
        }
        struct = ffi.new(
            "repro_plan *",
            {
                "n_signals": compiled.n_signals,
                "n_plan": len(compiled.plan),
                **views,
            },
        )
        # the buffer views keep the tables alive as long as the memo
        # entry; setdefault makes racing first calls share one entry,
        # so no caller holds a struct whose tables were dropped
        entry = compiled._fusion_cache.setdefault(
            "native_plan", (struct, len(compiled.fanin_index), views)
        )
    return entry[0], entry[1]


def native_tpg_engine(
    compiled: CompiledCircuit, n_planes: int, width: int, use_backward: bool
):
    """A new C TPG implication engine over *compiled* (``repro_tpg *``).

    *n_planes* selects the rules (2: 3-valued, 4: 7-valued); *width*
    must be 1..64.  The engine points at the memoized
    :func:`native_plan` struct, which lives as long as *compiled*;
    its own buffers are freed by ``ffi.gc`` with the returned object.
    A failed allocation raises :class:`MemoryError`.
    """
    module = native_module()
    plan, _ = native_plan(compiled)
    raw = module.lib.repro_tpg_new(plan, n_planes, width, int(use_backward))
    if raw == module.ffi.NULL:
        raise MemoryError("cannot allocate the native TPG state")
    return module.ffi.gc(raw, module.lib.repro_tpg_free)


def _u64_ptr(ffi, array: np.ndarray):
    return ffi.cast("uint64_t *", ffi.from_buffer(array))


def _i32_ptr(ffi, array: np.ndarray):
    return ffi.cast("int32_t *", ffi.from_buffer(array))


def _fault_columns(ffi, compiled: CompiledCircuit, faults) -> Tuple:
    """The walk arguments of one fault batch, range-checked.

    ``(path_flat, path_off, final_one, rows)`` as C buffers: a
    :class:`FaultRows` view hands over its table's columns and its row
    array (NULL for the identity view); a fault list becomes a new
    table first — one flatten per call.  The ids were checked against
    the circuit when the rows were added; the rows are checked against
    the table here, before the call, since the C walks index both
    unchecked.
    """
    view = fault_rows(faults, compiled.n_signals)
    table, rows = view.table, view.rows
    if rows is not None and len(rows) and (
        rows.min() < 0 or rows.max() >= len(table)
    ):
        raise IndexError(f"fault rows outside [0, {len(table)})")
    # typed buffers hold their arrays, so a table built here lives
    # through the call
    return (
        ffi.from_buffer("int32_t[]", table.flat),
        ffi.from_buffer("int32_t[]", table.offsets),
        ffi.from_buffer("uint8_t[]", table.final_one),
        ffi.NULL if rows is None else ffi.from_buffer("int32_t[]", rows),
    )


def cone_step_arrays(compiled: CompiledCircuit, site: int) -> Tuple:
    """The native stuck-at cone plan of one fault site (memoized).

    ``(codes, out_slots, fanin_flat, fanin_off, po_sig, po_slot,
    n_slots)`` — the arrays ``repro_stuck_cone`` interprets.  Slot 0
    is the site itself (forced inside C); fanin references outside the
    cone are encoded ``-(signal + 1)`` and read from the good-machine
    slab.  Cached on the compiled circuit like the Python cone bodies.
    """
    key = ("native_cone", site)
    arrays = compiled._fusion_cache.get(key)
    if arrays is None:
        slots = {site: 0}
        steps = [
            s
            for s in compiled.cone_of(site)
            if s != site and not compiled.is_input[s]
        ]
        for s in steps:
            slots[s] = len(slots)
        codes = np.fromiter(
            (compiled.py_codes[s] for s in steps), np.int32, count=len(steps)
        )
        out_slots = np.fromiter(
            (slots[s] for s in steps), np.int32, count=len(steps)
        )
        fanin_off = np.zeros(len(steps) + 1, dtype=np.int32)
        flat: List[int] = []
        for k, s in enumerate(steps):
            for f in compiled.py_fanin[s]:
                flat.append(slots[f] if f in slots else -(f + 1))
            fanin_off[k + 1] = len(flat)
        fanin_flat = np.asarray(flat, dtype=np.int32)
        pos = [(po, slots[po]) for po in compiled.py_outputs if po in slots]
        po_sig = np.fromiter((p for p, _ in pos), np.int32, count=len(pos))
        po_slot = np.fromiter((q for _, q in pos), np.int32, count=len(pos))
        arrays = (
            codes, out_slots, fanin_flat, fanin_off, po_sig, po_slot,
            len(slots),
        )
        compiled._fusion_cache[key] = arrays
    return arrays


class DropScratch:
    """The buffers of :meth:`NativeWordBackend.ppsfp_pass`, kept between passes.

    Four ``(n_signals, n_words)`` value slabs (one per 7-valued plane),
    the primary inputs' four planes, the walk's edge slots and
    ``(n_edges + 1, n_words)`` term rows, and ``(n_faults, n_words)``
    output rows with their fault indices — plus the C pointers into
    them.  Each buffer grows on demand, at least doubling, and is never
    shrunk, so a campaign drop bus that holds one allocates it a handful
    of times, keeps nothing of a round past the next one, and reuses
    the pointers while the batch width stays.
    """

    __slots__ = (
        "slot", "_n_signals", "_n_inputs", "_slabs", "_planes", "_terms",
        "_out", "_index", "_views",
    )

    def __init__(self, compiled: CompiledCircuit):
        _, n_edges = native_plan(compiled)
        self._n_signals = compiled.n_signals
        self._n_inputs = compiled.n_inputs
        self.slot = np.empty(n_edges + 1, dtype=np.int32)
        self._slabs = self._planes = self._terms = self._out = np.empty(
            0, dtype=np.uint64
        )
        self._index = np.empty(0, dtype=np.int32)
        #: (n_words, fault capacity, slabs, planes, C pointers) of the
        #: last pass
        self._views: Optional[Tuple] = None

    def buffers(self, ffi, n_words: int, n_faults: int) -> Tuple:
        """``(slabs, planes, pointers)`` for a pass of this shape.

        *slabs* is ``(4, n_signals, n_words)``, *planes* ``(4, n_inputs,
        n_words)``; *pointers* are the four slabs, the slots, the terms,
        the output rows and the indices.
        """
        views = self._views
        if views is not None and views[0] == n_words and views[1] >= n_faults:
            return views[2], views[3], views[4]
        n, w, n_terms = self._n_signals, n_words, len(self.slot)
        capacity = max(1, n_faults)
        self._slabs = grown(self._slabs, 4 * n * w)
        self._planes = grown(self._planes, 4 * self._n_inputs * w)
        self._terms = grown(self._terms, n_terms * w)
        self._out = grown(self._out, capacity * w)
        self._index = grown(self._index, capacity)
        capacity = min(len(self._index), self._out.size // w)
        slabs = self._slabs[: 4 * n * w].reshape(4, n, w)
        planes = self._planes[: 4 * self._n_inputs * w].reshape(4, -1, w)
        pointers = (
            *(_u64_ptr(ffi, slab) for slab in slabs),
            _i32_ptr(ffi, self.slot),
            _u64_ptr(ffi, self._terms),
            _u64_ptr(ffi, self._out),
            _i32_ptr(ffi, self._index),
        )
        self._views = (w, capacity, slabs, planes, pointers)
        return slabs, planes, pointers

    def detected(self, count: int, n_words: int) -> Tuple[np.ndarray, np.ndarray]:
        """The first *count* fault indices and output rows of the last pass."""
        return self._index[:count], self._out[: count * n_words].reshape(-1, n_words)


class NativeWordBackend(NumpyWordBackend):
    """Execute the plan as compiled C over uint64 lane slabs.

    A :class:`NumpyWordBackend` in every interface respect — same
    input/output shapes, same padding semantics (padding lanes of the
    last word are unspecified for two-valued values and stay ``X`` for
    plane passes), same ``fusion`` attribute (the C body *is* the
    fused plan; the attribute is kept for option plumbing) — but each
    forward pass is one call into the native module, and the
    fault-batch methods (:meth:`ppsfp_masks`, :meth:`strength_triples`)
    keep the walks in C too.
    """

    kind = "native"
    tier = "native/c"

    # ------------------------------------------------------------------
    @staticmethod
    def _pass_slabs(
        compiled: CompiledCircuit, planes: Sequence[np.ndarray], n_words: int
    ) -> List[np.ndarray]:
        """One ``(n_signals, n_words)`` slab per plane, inputs filled in.

        ``planes[p]`` holds plane *p* of every primary input — an
        ``(n_inputs, n_words)`` array, or one row broadcast to all —
        scattered with one fancy-index assignment.  The other rows are
        left for the pass to write: every non-input signal is a plan
        step.
        """
        slabs = []
        for plane in planes:
            slab = np.empty((compiled.n_signals, n_words), dtype=np.uint64)
            slab[compiled.input_index] = plane
            slabs.append(slab)
        return slabs

    def _stacked(
        self, input_planes: Sequence[PlanesLike], n_planes: int
    ) -> Tuple[List[np.ndarray], int]:
        """Per-input plane tuples as per-plane ``(n_inputs, n_words)`` arrays."""
        if not input_planes:
            return [np.zeros((0, self.n_words), np.uint64)] * n_planes, self.n_words
        stacked = np.asarray(input_planes, dtype=np.uint64).reshape(
            len(input_planes), n_planes, -1
        )
        return [stacked[:, p] for p in range(n_planes)], stacked.shape[2]

    def simulate_logic(
        self, compiled: CompiledCircuit, input_bits: np.ndarray
    ) -> np.ndarray:
        input_bits = np.asarray(input_bits, dtype=np.uint64)
        if input_bits.ndim == 1:
            input_bits = input_bits[:, None]
        if input_bits.shape[0] != compiled.n_inputs:
            raise ValueError(
                f"expected {compiled.n_inputs} input rows, got {input_bits.shape[0]}"
            )
        n_words = input_bits.shape[1]
        (values,) = self._pass_slabs(compiled, [input_bits], n_words)
        plan, _ = native_plan(compiled)
        module = native_module()
        module.lib.repro_logic_pass(plan, _u64_ptr(module.ffi, values), n_words)
        return values

    def _planes_pass(
        self, compiled: CompiledCircuit, planes: Sequence[np.ndarray], n_words: int
    ) -> List[np.ndarray]:
        """The 7-valued (four planes) or 10-valued (five) full pass."""
        slabs = self._pass_slabs(compiled, planes, n_words)
        plan, _ = native_plan(compiled)
        module = native_module()
        run = (
            module.lib.repro_planes7_pass
            if len(slabs) == 4
            else module.lib.repro_planes10_pass
        )
        run(plan, *(_u64_ptr(module.ffi, slab) for slab in slabs), n_words)
        return slabs

    def simulate_planes7(
        self, compiled: CompiledCircuit, input_planes: Sequence[PlanesLike]
    ) -> List[PlanesLike]:
        if len(input_planes) != compiled.n_inputs:
            raise ValueError(
                f"expected {compiled.n_inputs} input planes, got {len(input_planes)}"
            )
        slabs = self._planes_pass(compiled, *self._stacked(input_planes, 4))
        return list(zip(*slabs))

    def simulate_planes10(
        self, compiled: CompiledCircuit, input_planes: Sequence[PlanesLike]
    ) -> List[PlanesLike]:
        if len(input_planes) != compiled.n_inputs:
            raise ValueError(
                f"expected {compiled.n_inputs} input planes, got {len(input_planes)}"
            )
        slabs = self._planes_pass(compiled, *self._stacked(input_planes, 5))
        return list(zip(*slabs))

    # ------------------------------------------------------------------
    # fault-batch inner loops (one Python call per batch)
    # ------------------------------------------------------------------
    def ppsfp_pass(
        self,
        compiled: CompiledCircuit,
        packed,
        faults: Sequence,
        robust: bool,
        scratch: Optional["DropScratch"] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The native PPSFP pass: which faults does *packed* detect?

        One 7-valued forward pass plus the whole detection walk
        (launch, off-path side conditions shared per on-path edge,
        early-out, validity masking) inside the native module, on the
        buffers of *scratch* (a new :class:`DropScratch` when ``None``).
        *faults* is a fault list or a :class:`repro.paths.FaultRows`
        view, range-checked here.  Returns ``(positions, rows)``: the
        int32 positions in *faults* of the detected faults, ascending,
        and their ``(count, n_words)`` lane-mask rows — views into the
        scratch, valid until its next pass.
        """
        module = native_module()
        ffi = module.ffi
        columns = _fault_columns(ffi, compiled, faults)
        if scratch is None:
            scratch = DropScratch(compiled)
        n_words = packed.n_words
        slabs, planes, pointers = scratch.buffers(ffi, n_words, len(faults))
        packed.planes7_arrays(out=planes)
        slabs[:, compiled.input_index] = planes
        plan, _ = native_plan(compiled)
        lib = module.lib
        lib.repro_planes7_pass(plan, *pointers[:4], n_words)
        scratch.slot.fill(-1)
        # a cast pointer does not keep its array alive: hold it here
        valid = packed.lane_valid()
        count = lib.repro_detect_walk(
            plan,
            *pointers[:4],
            n_words,
            *columns,
            len(faults),
            int(robust),
            _u64_ptr(ffi, valid),
            *pointers[4:],
        )
        return scratch.detected(count, n_words)

    def ppsfp_masks(
        self,
        compiled: CompiledCircuit,
        packed,
        faults: Sequence,
        robust: bool,
    ) -> List[int]:
        """Detection lane masks of *faults* over one packed batch.

        :meth:`ppsfp_pass` on buffers allocated for this call; returns
        Python-int lane masks index-aligned with *faults*, bit-identical
        to the interpreted oracle walk.  Only detected faults' rows come
        back from C and get converted.
        """
        if not faults:
            return []
        index, rows = self.ppsfp_pass(compiled, packed, faults, robust)
        masks = [0] * len(faults)
        for k, mask in zip(index.tolist(), rows_to_ints(rows)):
            masks[k] = mask
        return masks

    def strength_triples(
        self, compiled: CompiledCircuit, packed, faults: Sequence
    ) -> List[Tuple[int, int, int]]:
        """(nonrobust, robust, hazard-free-robust) masks per fault.

        The 10-valued analogue of :meth:`ppsfp_masks`: one 5-plane
        forward pass plus the three-class strength walk in C, with the
        same per-edge sharing and detected-rows-only output.
        """
        if not faults:
            return []
        module = native_module()
        ffi = module.ffi
        columns = _fault_columns(ffi, compiled, faults)
        n_words = packed.n_words
        valid = packed.lane_valid()
        slabs = self._planes_pass(
            compiled, (*packed.planes7_arrays(), valid), n_words
        )
        plan, n_edges = native_plan(compiled)
        slot = np.full(n_edges + 1, -1, dtype=np.int32)
        terms = np.empty((n_edges + 1, 3, n_words), dtype=np.uint64)
        out = np.empty((3, len(faults), n_words), dtype=np.uint64)
        index = np.empty(len(faults), dtype=np.int32)
        count = module.lib.repro_strength_walk(
            plan,
            *(_u64_ptr(ffi, slab) for slab in slabs),
            n_words,
            *columns,
            len(faults),
            _u64_ptr(ffi, valid),
            _i32_ptr(ffi, slot),
            _u64_ptr(ffi, terms),
            *(_u64_ptr(ffi, rows) for rows in out),
            _i32_ptr(ffi, index),
        )
        triples = [(0, 0, 0)] * len(faults)
        detected = zip(*(rows_to_ints(rows[:count]) for rows in out))
        for k, triple in zip(index[:count].tolist(), detected):
            triples[k] = triple
        return triples


class NativeConeSimulator:
    """Per-fault stuck-at cone resimulation inside the native module.

    The native counterpart of the per-site compiled Python bodies
    (:func:`repro.kernel.codegen.cone_fault_fn`): the good-machine
    slab is computed once per batch by :meth:`NativeWordBackend.
    simulate_logic`; each fault then costs one ``repro_stuck_cone``
    call — cone interpretation, fault forcing and output-difference
    reduction all in C.  The scratch slab is grown once to the largest
    cone seen and reused across faults.
    """

    def __init__(self, compiled: CompiledCircuit):
        self.compiled = compiled
        self.module = native_module()
        self._scratch = np.empty(0, dtype=np.uint64)

    def diff_mask(self, good: np.ndarray, site: int, forced_one: bool) -> int:
        """Lane mask of output differences when *site* is forced."""
        compiled = self.compiled
        n_words = good.shape[1]
        codes, out_slots, fanin_flat, fanin_off, po_sig, po_slot, n_slots = (
            cone_step_arrays(compiled, site)
        )
        needed = n_slots * n_words
        if self._scratch.size < needed:
            self._scratch = np.empty(needed, dtype=np.uint64)
        diff = np.zeros(n_words, dtype=np.uint64)
        ffi = self.module.ffi
        self.module.lib.repro_stuck_cone(
            _u64_ptr(ffi, good),
            n_words,
            _i32_ptr(ffi, codes),
            _i32_ptr(ffi, out_slots),
            _i32_ptr(ffi, fanin_flat),
            _i32_ptr(ffi, fanin_off),
            len(codes),
            _u64_ptr(ffi, self._scratch),
            0xFFFFFFFFFFFFFFFF if forced_one else 0,
            _i32_ptr(ffi, po_sig),
            _i32_ptr(ffi, po_slot),
            len(po_sig),
            _u64_ptr(ffi, diff),
        )
        return words_to_int(diff)
