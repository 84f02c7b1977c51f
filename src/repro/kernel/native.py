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
grading caller passes a table view instead of re-flattening every
path; a plain fault list becomes a table per call.  The campaign drop
bus runs each round as one call on a :class:`DropRound` it builds once:
the round's fresh pattern rows packed into input planes, the forward
pass and the walk over the table's live rows, all in C, on buffers the
struct grows on demand; only the detected rows come back.

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
search, on one engine reset between states) and an FPTPG batch, and
a campaign's whole generation round of them, each shard from an engine
reset to the campaign width, so one engine runs round after round
(:class:`repro.core.state.TpgEngine`).  Robust sensitization stays in
Python.

Two more entry points read Python objects for the row codec, with the
GIL held: ``repro_tuple_planes`` (a list of vector tuples straight to
uint64 lane planes, vector ``k`` in bit ``k % 64`` of word ``k // 64``,
for :mod:`repro.kernel.packed`'s tuple and single-vector packers) and
``repro_path_flat`` (path tuples to a :class:`repro.paths.FaultTable`'s
int32 signal column).  They take ``PyObject *`` arguments, which cffi
cannot pass, so they are not in ``native.cdef``: :func:`row_readers`
binds them with :class:`ctypes.PyDLL` on the file of the loaded module
(``py_object`` arguments; a PyDLL call keeps the GIL), and the module
is built without the limited API.  :func:`read_tuple_planes` and
:func:`read_path_flat` wrap them; each returns None where the reader
refuses its input (anything but exact tuples of the cached ints 0 and
1, or of exact ints naming signals) or the module is missing, and the
caller then runs its Python path.

Module lifecycle — one module per machine, not per circuit:

* the circuit travels per call as a ``repro_plan`` struct
  (:func:`native_plan`: plan order, gate codes — an input is code 0 —,
  fanin and fanout CSR, controlling values), built once per
  :class:`CompiledCircuit` and memoized on its
  ``_fusion_cache`` — which ``__getstate__`` drops, so compiled
  circuits stay pickling-safe (an unpickled circuit rebuilds the
  struct, cheaply, on use),
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

import ctypes
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

from ..paths.table import fault_rows
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
NATIVE_ABI = 11

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
#: (module, its bound row readers or None) — see :func:`row_readers`.
_readers: Optional[Tuple[object, Optional[Tuple]]] = None


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
            # the row readers use the full C API (exact-type checks,
            # tuple items in place), which cffi's default limited API hides
            define_macros=[("_CFFI_NO_LIMITED_API", None)],
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


def row_readers() -> Optional[Tuple]:
    """The row codec's two C readers, or None without the module.

    ``(repro_tuple_planes, repro_path_flat)`` as :mod:`ctypes` functions
    of a :class:`ctypes.PyDLL` on the loaded module's file (module doc),
    bound once per module; use them through :func:`read_tuple_planes`
    and :func:`read_path_flat`.
    """
    global _readers
    module = _native_state()[0]
    if module is None:
        return None
    bound = _readers
    if bound is None or bound[0] is not module:
        try:
            dll = ctypes.PyDLL(module.__file__)
            tuple_planes, path_flat = dll.repro_tuple_planes, dll.repro_path_flat
        except (OSError, AttributeError):  # a loader without dlopen
            _readers = (module, None)
            return None
        tuple_planes.argtypes = (
            ctypes.py_object, ctypes.c_long, ctypes.c_long, ctypes.py_object,
            ctypes.py_object, ctypes.c_void_p,
        )
        path_flat.argtypes = (
            ctypes.py_object, ctypes.c_void_p, ctypes.c_long, ctypes.c_long
        )
        tuple_planes.restype = path_flat.restype = ctypes.c_int
        bound = _readers = (module, (tuple_planes, path_flat))
    return bound[1]


def read_tuple_planes(vectors: list, width: int) -> Optional[np.ndarray]:
    """*vectors* as ``(width, n_words)`` uint64 lane planes, read in C.

    Vector ``k`` lands in bit ``k % 64`` of word ``k // 64`` of every
    row, the padding lanes 0: what :func:`repro.kernel.packed.pack_bits`
    makes of the same vectors as rows.  *vectors* is a list of exact
    tuples of *width* items, each the int 0 or 1 itself.  None when
    anything else is met, or when there is no module: the caller decodes
    the whole batch in Python instead.
    """
    readers = row_readers()
    if readers is None:
        return None
    n = len(vectors)
    out = np.empty((width, -(-n // 64)), dtype=np.uint64)
    if readers[0](vectors, n, width, 0, 1, out.ctypes.data):
        return None
    return out


def read_path_flat(
    paths: list, size: int, n_signals: int
) -> Optional[np.ndarray]:
    """The ids of *paths* back to back, *size* of them, as int32, read in C.

    *paths* is a list of exact tuples of exact ints in ``[0,
    n_signals)`` with *size* ids in all.  None when anything else is
    met, or when there is no module: the caller flattens in Python.
    """
    readers = row_readers()
    if readers is None:
        return None
    flat = np.empty(size, dtype=np.int32)
    if readers[1](paths, flat.ctypes.data, size, n_signals):
        return None
    return flat


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
    alive by the memo entry, among them the primary inputs in circuit
    order and each signal's position there (-1 off the inputs).
    ``n_edges`` (the fanin CSR length) sizes the fault walks' edge-term
    memo.
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
            "input_sig": np.ascontiguousarray(compiled.input_index, np.int32),
            "input_pos": np.full(compiled.n_signals, -1, dtype=np.int32),
        }
        tables["input_pos"][tables["input_sig"]] = np.arange(
            compiled.n_inputs, dtype=np.int32
        )
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
                "n_inputs": compiled.n_inputs,
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


class ColumnViews:
    """C views of a :class:`repro.paths.FaultTable`'s columns, kept.

    Calling it returns the ``(flat, offsets, final_one)`` buffers a C
    call reads by row.  A table replaces its arrays when it grows, and a
    rebuilt table has new ones, so the views are rebuilt whenever an
    array is not the one they were made from.
    """

    __slots__ = ("_arrays", "_views")

    def __init__(self):
        self._arrays: Tuple = (None, None, None)
        self._views: Tuple = ()

    def __call__(self, table) -> Tuple:
        flat, offsets, final_one = arrays = table.columns
        old = self._arrays
        if flat is not old[0] or offsets is not old[1] or final_one is not old[2]:
            ffi = native_module().ffi
            self._views = (
                ffi.from_buffer("int32_t[]", flat),
                ffi.from_buffer("int32_t[]", offsets),
                ffi.from_buffer("uint8_t[]", final_one),
            )
            self._arrays = arrays
        return self._views


class DropRound:
    """A campaign drop bus's native round: one C ``repro_drop``, kept.

    The bus builds one over its circuit and calls :meth:`run` once per
    round.  The C struct holds the round's slabs, side-term memo and
    detected rows, grows them on demand (at least doubling) and never
    shrinks them, so a campaign allocates a handful of times; the
    buffers are freed with this object.
    """

    __slots__ = ("lib", "ffi", "c", "compiled", "robust", "_columns")

    def __init__(self, compiled: CompiledCircuit, robust: bool):
        module = native_module()
        self.lib, self.ffi = module.lib, module.ffi
        plan, _ = native_plan(compiled)
        raw = self.lib.repro_drop_new(plan)
        if raw == self.ffi.NULL:
            raise MemoryError("cannot allocate the native drop round")
        self.c = self.ffi.gc(raw, self.lib.repro_drop_free)
        # the struct points at compiled's memoized plan: keep it alive
        self.compiled = compiled
        self.robust = int(robust)
        self._columns = ColumnViews()

    def run(self, fresh: np.ndarray, table, live: np.ndarray) -> List[int]:
        """The rows of *table* live in *live* that a row of *fresh* detects.

        *fresh* is a C-contiguous ``(n, 2 * n_inputs)`` uint8 block of
        0/1 pattern rows, V1 then V2 (a
        :attr:`repro.core.patterns.PatternTable.rows` slice); *live* a
        bool array over at least the table's rows.  One
        ``repro_drop_round``: the block packed into 7-valued input
        planes, one forward pass, the detection walk over the live rows
        in row order.  The detected rows' *live* entries are cleared,
        and the rows returned, ascending.  Shapes are checked here, since
        the C call indexes all three unchecked.
        """
        width = 2 * self.compiled.n_inputs
        if fresh.dtype != np.uint8 or fresh.shape[1:] != (width,):
            raise ValueError(
                f"pattern rows of {fresh.dtype} and shape {fresh.shape}, "
                f"expected uint8 and (n, {width})"
            )
        if live.dtype != np.bool_ or len(live) < len(table):
            raise ValueError("the live mask must be a bool array over every table row")
        ffi = self.ffi
        count = self.lib.repro_drop_round(
            self.c,
            ffi.from_buffer("uint8_t[]", fresh),
            len(fresh),
            *self._columns(table),
            ffi.from_buffer("uint8_t[]", live),
            len(table),
            self.robust,
        )
        if count < 0:
            raise MemoryError("cannot grow the native drop round buffers")
        return ffi.unpack(self.c.out, count) if count else []


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
    def ppsfp_masks(
        self,
        compiled: CompiledCircuit,
        packed,
        faults: Sequence,
        robust: bool,
    ) -> List[int]:
        """Detection lane masks of *faults* over one packed batch.

        One 7-valued forward pass plus the whole detection walk (launch,
        off-path side conditions shared per on-path edge, early-out,
        validity masking) inside the native module, on buffers allocated
        for this call.  *faults* is a fault list or a
        :class:`repro.paths.FaultRows` view, range-checked here.  Returns
        Python-int lane masks index-aligned with *faults*, bit-identical
        to the interpreted oracle walk; only detected faults' rows come
        back from C and get converted.
        """
        if not faults:
            return []
        module = native_module()
        ffi = module.ffi
        columns = _fault_columns(ffi, compiled, faults)
        n_words = packed.n_words
        # a cast pointer does not keep its array alive: hold it here
        valid = packed.lane_valid()
        slabs = self._planes_pass(compiled, packed.planes7_arrays(), n_words)
        plan, n_edges = native_plan(compiled)
        slot = np.full(n_edges + 1, -1, dtype=np.int32)
        terms = np.empty((n_edges + 1, n_words), dtype=np.uint64)
        out = np.empty((len(faults), n_words), dtype=np.uint64)
        index = np.empty(len(faults), dtype=np.int32)
        count = module.lib.repro_detect_walk(
            plan,
            *(_u64_ptr(ffi, slab) for slab in slabs),
            n_words,
            *columns,
            len(faults),
            int(robust),
            _u64_ptr(ffi, valid),
            _i32_ptr(ffi, slot),
            _u64_ptr(ffi, terms),
            _u64_ptr(ffi, out),
            _i32_ptr(ffi, index),
        )
        masks = [0] * len(faults)
        for k, mask in zip(index[:count].tolist(), rows_to_ints(out[:count])):
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
