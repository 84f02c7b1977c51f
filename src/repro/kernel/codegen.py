"""Straight-line code generation for the compiled evaluation plan.

The int backend's fused strategy (``int/codegen``) and the Python TPG
engine's tables (``python/codegen``): instead of interpreting the plan
one ``(code, out, fanin)`` tuple at a time, render it **once** into
straight-line Python source — one expression per gate, no loops, no
gate-code dispatch — ``compile()`` it, and cache the function on the
:class:`CompiledCircuit`.  CPython then executes the whole netlist
pass as consecutive ``LOAD_FAST``/``BINARY_OP`` bytecode: no tuple
unpacking, no per-gate branch chain, no list-comprehension fanin
gathers.

Five generators live here:

* :func:`logic_fn` — the two-valued pass over Python-int lane words
  (``~x & mask`` inverts within the lane mask).
* :func:`planes7_fn` — the full 7-valued forward pass, the plane
  calculus of :mod:`repro.logic.seven_valued` inlined per gate.
* :func:`planes10_fn` — the full 10-valued forward pass: the 7-valued
  plane math plus the hazard-free plane of
  :mod:`repro.logic.ten_valued`, inlined per gate.
* :func:`forward_table` — per-signal specialized forward functions
  for the Python TPG implication engine (the one that runs without the
  native module or above 64 lanes): ``imply()`` pops one gate at a
  time (worklist order, not plan order), so instead of a straight line
  it gets a table of per-(code, arity) compiled bodies that replace
  the ``Algebra.forward`` dispatch chain.  Supports both the 3-valued
  and the 7-valued algebra.
* :func:`backward_table` — the same treatment for the backward half
  of ``imply()``: per-(code, arity) compiled bodies with the
  ``Algebra.backward`` prefix/suffix-product chains fully unrolled
  (no list building, no per-position Python loop).
* :func:`cone_fault_fn` — per-fault-site compiled stuck-at cone
  resimulation: the site's transitive fanout cone rendered as one
  straight-line body that forces the site, re-evaluates only cone
  gates (reading unaffected signals from the good-machine values) and
  returns the output-difference lane word directly.

The native kernel is not generated here: it is one circuit-generic C
translation unit, ``native.c`` beside this module, that
:mod:`repro.kernel.native` compiles once per machine.  Unlike the
Python strategies it is *not* straight-line and not per circuit — the
C passes are data-driven interpreters over a per-call ``repro_plan``
struct of plan/fanin tables, because gcc's per-function passes made
straight-line C a minutes-long build on thousand-gate circuits while
buying nothing over a dispatch loop that is dominated by slab memory
traffic.

All generated code is asserted bit-identical to the interpreted
oracle by ``tests/test_fusion.py`` (hypothesis cross-checks).

Input lane words handed to the generated functions must already be
confined to the lane mask (both engines guarantee this); the
generated bodies only re-mask where the interpreted rules do.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from .compiled import (
    CODE_AND,
    CODE_BUF,
    CODE_NAND,
    CODE_NOR,
    CODE_NOT,
    CODE_OR,
    CODE_XNOR,
    CODE_XOR,
    CompiledCircuit,
)

_AND_FAMILY = (CODE_AND, CODE_NAND)
_OR_FAMILY = (CODE_OR, CODE_NOR)
_XOR_FAMILY = (CODE_XOR, CODE_XNOR)
_INVERTING = (CODE_NAND, CODE_NOR, CODE_XNOR, CODE_NOT)


# ---------------------------------------------------------------------------
# expression emitters (shared by full-pass rendering and per-gate functions)
# ---------------------------------------------------------------------------


def _emit_logic(code: int, ins: Sequence[str], out: str) -> str:
    """One two-valued gate as a single assignment statement."""
    if code == CODE_BUF:
        return f"{out} = {ins[0]}"
    if code == CODE_NOT:
        return f"{out} = ~{ins[0]} & mask"
    if code in _AND_FAMILY:
        body = " & ".join(ins)
    elif code in _OR_FAMILY:
        body = " | ".join(ins)
    elif code in _XOR_FAMILY:
        body = " ^ ".join(ins)
    else:  # pragma: no cover - plan only contains known codes
        raise ValueError(f"unhandled gate code {code}")
    if code in _INVERTING:
        return f"{out} = ~({body}) & mask"
    return f"{out} = {body}"


PlaneNames = Tuple[str, str, str, str]


def _emit_planes7(
    code: int, ins: Sequence[PlaneNames], outs: PlaneNames
) -> List[str]:
    """One 7-valued gate as a block of assignments.

    *ins* / *outs* name the (zero, one, stable, instable) plane
    variables.  Scratch names (``_zs0`` …) are reused across blocks —
    straight-line code, each block completes before the next starts.
    The math is the scalar calculus of
    :mod:`repro.logic.seven_valued`, inlined.
    """
    n = len(ins)
    oz, oo, os_, oi = outs
    if code == CODE_BUF:
        z, o, s, i = ins[0]
        return [f"{oz}, {oo}, {os_}, {oi} = {z}, {o}, {s}, {i}"]
    if code == CODE_NOT:
        z, o, s, i = ins[0]
        return [f"{oz}, {oo}, {os_}, {oi} = {o}, {z}, {s}, {i}"]

    lines: List[str] = []
    if code in _AND_FAMILY or code in _OR_FAMILY:
        for k, (z, o, s, i) in enumerate(ins):
            lines.append(f"_zs{k} = {z} & {s}")
            lines.append(f"_os{k} = {o} & {s}")
            lines.append(f"_i0{k} = _zs{k} | ({o} & {i})")
            lines.append(f"_i1{k} = _os{k} | ({z} & {i})")
        zs = [f"_zs{k}" for k in range(n)]
        os2 = [f"_os{k}" for k in range(n)]
        i0s = [f"_i0{k}" for k in range(n)]
        i1s = [f"_i1{k}" for k in range(n)]
        zero_names = [z for z, _, _, _ in ins]
        one_names = [o for _, o, _, _ in ins]
        if code in _AND_FAMILY:
            lines.append(f"_z = {' | '.join(zero_names)}")
            lines.append(f"_o = {' & '.join(one_names)}")
            lines.append(f"_s = {' | '.join(zs)} | ({' & '.join(os2)})")
            lines.append(
                f"_i = ((_o & ({' | '.join(i0s)})) | "
                f"(_z & ({' & '.join(i1s)}))) & ~_s"
            )
        else:
            lines.append(f"_z = {' & '.join(zero_names)}")
            lines.append(f"_o = {' | '.join(one_names)}")
            lines.append(f"_s = ({' & '.join(zs)}) | {' | '.join(os2)}")
            lines.append(
                f"_i = ((_o & ({' & '.join(i0s)})) | "
                f"(_z & ({' | '.join(i1s)}))) & ~_s"
            )
        if code in _INVERTING:
            lines.append(f"{oz}, {oo}, {os_}, {oi} = _o, _z, _s, _i")
        else:
            lines.append(f"{oz}, {oo}, {os_}, {oi} = _z, _o, _s, _i")
        return lines

    if code in _XOR_FAMILY:
        az, ao, as_, ai = ins[0]
        lines.append(f"_az, _ao, _as, _ai = {az}, {ao}, {as_}, {ai}")
        for z, o, s, i in ins[1:]:
            lines.append("_x0 = (_az & _as) | (_ao & _ai)")
            lines.append("_x1 = (_ao & _as) | (_az & _ai)")
            lines.append(f"_y0 = ({z} & {s}) | ({o} & {i})")
            lines.append(f"_y1 = ({o} & {s}) | ({z} & {i})")
            lines.append(f"_tz = (_az & {z}) | (_ao & {o})")
            lines.append(f"_to = (_az & {o}) | (_ao & {z})")
            lines.append(f"_ts = _as & {s}")
            lines.append(
                "_ti = ((_to & ((_x0 & _y0) | (_x1 & _y1))) | "
                "(_tz & ((_x0 & _y1) | (_x1 & _y0)))) & ~_ts"
            )
            lines.append("_az, _ao, _as, _ai = _tz, _to, _ts, _ti")
        if code == CODE_XNOR:
            lines.append(f"{oz}, {oo}, {os_}, {oi} = _ao, _az, _as, _ai")
        else:
            lines.append(f"{oz}, {oo}, {os_}, {oi} = _az, _ao, _as, _ai")
        return lines

    raise ValueError(f"unhandled gate code {code}")  # pragma: no cover


def _emit_planes3(
    code: int, ins: Sequence[Tuple[str, str]], outs: Tuple[str, str]
) -> List[str]:
    """One 3-valued gate block (two planes: zero, one)."""
    oz, oo = outs
    if code == CODE_BUF:
        z, o = ins[0]
        return [f"{oz}, {oo} = {z}, {o}"]
    if code == CODE_NOT:
        z, o = ins[0]
        return [f"{oz}, {oo} = {o}, {z}"]
    zero_names = [z for z, _ in ins]
    one_names = [o for _, o in ins]
    if code in _AND_FAMILY:
        zeros, ones = " | ".join(zero_names), " & ".join(one_names)
    elif code in _OR_FAMILY:
        zeros, ones = " & ".join(zero_names), " | ".join(one_names)
    elif code in _XOR_FAMILY:
        lines = [f"_az, _ao = {zero_names[0]}, {one_names[0]}"]
        for z, o in ins[1:]:
            lines.append(f"_tz = (_az & {z}) | (_ao & {o})")
            lines.append(f"_to = (_az & {o}) | (_ao & {z})")
            lines.append("_az, _ao = _tz, _to")
        if code == CODE_XNOR:
            lines.append(f"{oz}, {oo} = _ao, _az")
        else:
            lines.append(f"{oz}, {oo} = _az, _ao")
        return lines
    else:  # pragma: no cover - plan only contains known codes
        raise ValueError(f"unhandled gate code {code}")
    if code in _INVERTING:
        return [f"{oz} = {ones}", f"{oo} = {zeros}"]
    return [f"{oz} = {zeros}", f"{oo} = {ones}"]


Planes10Names = Tuple[str, str, str, str, str]


def _emit_planes10(
    code: int, ins: Sequence[Planes10Names], outs: Planes10Names
) -> List[str]:
    """One 10-valued gate as a block of assignments.

    The first four planes are exactly the 7-valued block
    (:func:`_emit_planes7`); the fifth (hazard-free) plane inlines the
    ``_and_hazard_free`` / ``_or_hazard_free`` / ``_xor_hazard_free``
    rules of :mod:`repro.logic.ten_valued`, ORing the output stability
    plane in at the end as the interpreted ``forward`` does.  The
    hazard plane is inversion-invariant, so negated codes share their
    base family's rule.
    """
    oz, oo, os_, oi, oh = outs
    ins7 = [names[:4] for names in ins]
    if code in (CODE_BUF, CODE_NOT):
        lines = _emit_planes7(code, ins7, (oz, oo, os_, oi))
        lines.append(f"{oh} = {ins[0][4]} | {ins[0][2]}")
        return lines
    lines = _emit_planes7(code, ins7, (oz, oo, os_, oi))
    n = len(ins)
    if code in _AND_FAMILY or code in _OR_FAMILY:
        for k, (z, o, s, i, h) in enumerate(ins):
            lines.append(f"_nd{k} = {h} & ({s} | {o})")
            lines.append(f"_ni{k} = {h} & ({s} | {z})")
        nd = " & ".join(f"_nd{k}" for k in range(n))
        ni = " & ".join(f"_ni{k}" for k in range(n))
        if code in _AND_FAMILY:
            held = " | ".join(f"({z} & {s})" for z, _o, s, _i, _h in ins)
        else:
            held = " | ".join(f"({o} & {s})" for _z, o, s, _i, _h in ins)
        lines.append(f"_hf = {held} | (mask & {nd}) | (mask & {ni})")
    else:  # XOR family
        lines.append("_sp0 = mask")
        for k, names in enumerate(ins):
            lines.append(f"_sp{k + 1} = _sp{k} & {names[2]}")
        lines.append(f"_sq{n} = mask")
        for k in range(n - 1, -1, -1):
            lines.append(f"_sq{k} = _sq{k + 1} & {ins[k][2]}")
        clean = " | ".join(
            f"(_sp{k} & _sq{k + 1} & {ins[k][4]})" for k in range(n)
        )
        lines.append(f"_hf = _sp{n} | {clean}")
    lines.append(f"{oh} = _hf | {os_}")
    return lines


# ---------------------------------------------------------------------------
# full-pass renderers
# ---------------------------------------------------------------------------


def render_logic_source(compiled: CompiledCircuit) -> str:
    """The whole two-valued pass as one straight-line function."""
    lines = ["def _fused_logic(inputs, mask):"]
    for k, pi in enumerate(compiled.py_inputs):
        lines.append(f"    v{pi} = inputs[{k}] & mask")
    for code, out, fanin, _gt in compiled.plan:
        lines.append(
            "    " + _emit_logic(code, [f"v{f}" for f in fanin], f"v{out}")
        )
    signals = ", ".join(f"v{s}" for s in range(compiled.n_signals))
    lines.append(f"    return [{signals}]")
    return "\n".join(lines) + "\n"


def render_planes7_source(compiled: CompiledCircuit) -> str:
    """The whole 7-valued forward pass as one straight-line function."""
    lines = ["def _fused_planes7(inputs, mask):"]
    for k, pi in enumerate(compiled.py_inputs):
        lines.append(f"    z{pi}, o{pi}, s{pi}, i{pi} = inputs[{k}]")
    for code, out, fanin, _gt in compiled.plan:
        ins = [(f"z{f}", f"o{f}", f"s{f}", f"i{f}") for f in fanin]
        outs = (f"z{out}", f"o{out}", f"s{out}", f"i{out}")
        for line in _emit_planes7(code, ins, outs):
            lines.append("    " + line)
    rows = ", ".join(
        f"(z{s}, o{s}, s{s}, i{s})" for s in range(compiled.n_signals)
    )
    lines.append(f"    return [{rows}]")
    return "\n".join(lines) + "\n"


def render_planes10_source(compiled: CompiledCircuit) -> str:
    """The whole 10-valued forward pass as one straight-line function."""
    lines = ["def _fused_planes10(inputs, mask):"]
    for k, pi in enumerate(compiled.py_inputs):
        lines.append(
            f"    z{pi}, o{pi}, s{pi}, i{pi}, h{pi} = inputs[{k}]"
        )
    for code, out, fanin, _gt in compiled.plan:
        ins = [
            (f"z{f}", f"o{f}", f"s{f}", f"i{f}", f"h{f}") for f in fanin
        ]
        outs = (f"z{out}", f"o{out}", f"s{out}", f"i{out}", f"h{out}")
        for line in _emit_planes10(code, ins, outs):
            lines.append("    " + line)
    rows = ", ".join(
        f"(z{s}, o{s}, s{s}, i{s}, h{s})" for s in range(compiled.n_signals)
    )
    lines.append(f"    return [{rows}]")
    return "\n".join(lines) + "\n"


def _compile_fn(source: str, name: str, tag: str) -> Callable:
    namespace: dict = {}
    exec(compile(source, f"<repro.fused:{tag}>", "exec"), namespace)
    return namespace[name]


def logic_fn(compiled: CompiledCircuit) -> Callable:
    """The memoized compiled two-valued pass: ``fn(inputs, mask)``.

    Returns per-signal lane words as a list, index-aligned with
    signal ids; *mask* is the int lane mask.
    """
    fn = compiled._fusion_cache.get("logic_fn")
    if fn is None:
        fn = _compile_fn(
            render_logic_source(compiled),
            "_fused_logic",
            f"logic:{compiled.circuit.name}",
        )
        compiled._fusion_cache["logic_fn"] = fn
    return fn


def planes7_fn(compiled: CompiledCircuit) -> Callable:
    """The memoized compiled 7-valued pass: ``fn(inputs, mask)``.

    *inputs* is one (zero, one, stable, instable) tuple per primary
    input, aligned with ``compiled.py_inputs``; returns one plane
    tuple per signal.
    """
    fn = compiled._fusion_cache.get("planes7_fn")
    if fn is None:
        fn = _compile_fn(
            render_planes7_source(compiled),
            "_fused_planes7",
            f"planes7:{compiled.circuit.name}",
        )
        compiled._fusion_cache["planes7_fn"] = fn
    return fn


def planes10_fn(compiled: CompiledCircuit) -> Callable:
    """The memoized compiled 10-valued pass: ``fn(inputs, mask)``.

    *inputs* is one (zero, one, stable, instable, hazard-free) tuple
    per primary input, aligned with ``compiled.py_inputs``; returns
    one plane tuple per signal.
    """
    fn = compiled._fusion_cache.get("planes10_fn")
    if fn is None:
        fn = _compile_fn(
            render_planes10_source(compiled),
            "_fused_planes10",
            f"planes10:{compiled.circuit.name}",
        )
        compiled._fusion_cache["planes10_fn"] = fn
    return fn


# ---------------------------------------------------------------------------
# per-gate forward functions (the TPG implication engine's table)
# ---------------------------------------------------------------------------

#: (algebra name, code, arity) -> compiled forward function.  Shared
#: process-wide: the bodies depend only on gate code and arity, never
#: on the circuit, so every TpgState reuses them.
_FORWARD_CACHE: dict = {}


def gate_forward_fn(
    algebra_name: str, code: int, arity: int
) -> Optional[Callable]:
    """A specialized ``fn(ins, mask) -> planes`` for one gate shape.

    *ins* is the sequence of fanin plane tuples (as handed to
    ``Algebra.forward``); the body is the fully inlined plane math for
    exactly this (code, arity) — no gate-type dispatch, no Python
    folds.  Returns ``None`` for algebras without an emitter (callers
    fall back to the interpreted ``Algebra.forward``).
    """
    key = (algebra_name, code, arity)
    fn = _FORWARD_CACHE.get(key)
    if fn is None:
        if algebra_name == "seven_valued":
            names = [(f"z{k}", f"o{k}", f"s{k}", f"i{k}") for k in range(arity)]
            body = _emit_planes7(code, names, ("_rz", "_ro", "_rs", "_ri"))
            ret = "(_rz, _ro, _rs, _ri)"
        elif algebra_name == "three_valued":
            names = [(f"z{k}", f"o{k}") for k in range(arity)]
            body = _emit_planes3(code, names, ("_rz", "_ro"))
            ret = "(_rz, _ro)"
        else:
            return None
        lines = ["def _fwd(ins, mask):"]
        for k, name_tuple in enumerate(names):
            lines.append(f"    {', '.join(name_tuple)} = ins[{k}]")
        lines.extend("    " + line for line in body)
        lines.append(f"    return {ret}")
        fn = _compile_fn(
            "\n".join(lines) + "\n",
            "_fwd",
            f"forward:{algebra_name}:{code}:{arity}",
        )
        _FORWARD_CACHE[key] = fn
    return fn


def forward_table(
    compiled: CompiledCircuit, algebra_name: str
) -> Optional[Tuple[Optional[Callable], ...]]:
    """Per-signal forward functions for *algebra_name*, or ``None``.

    Index-aligned with signal ids; primary inputs hold ``None`` (the
    implication engine never evaluates them).  ``None`` overall means
    the algebra has no emitter and the caller should keep the
    interpreted dispatch.  Memoized per circuit and algebra on the
    compiled circuit's fusion memo, so every TPG state of a circuit
    shares one table; like every memo entry it is dropped on pickling
    and rebuilt on first use in each process.
    """
    return _gate_table(compiled, algebra_name, "forward_table", gate_forward_fn)


def _gate_table(
    compiled: CompiledCircuit, algebra_name: str, kind: str, gate_fn: Callable
) -> Optional[Tuple[Optional[Callable], ...]]:
    """The memoized per-signal *gate_fn* table (see :func:`forward_table`)."""
    key = (kind, algebra_name)
    table = compiled._fusion_cache.get(key)
    if table is None:
        if gate_fn(algebra_name, CODE_BUF, 1) is None:
            return None
        codes = compiled.py_codes
        fanins = compiled.py_fanin
        table = compiled._fusion_cache[key] = tuple(
            None if is_input else gate_fn(algebra_name, codes[s], len(fanins[s]))
            for s, is_input in enumerate(compiled.is_input)
        )
    return table


# ---------------------------------------------------------------------------
# per-gate backward functions (the implication engine's other half)
# ---------------------------------------------------------------------------
#
# ``Algebra.backward`` computes the unique backward implications of one
# gate with prefix/suffix products over the fanin planes (list-built,
# one Python loop per direction per call).  The renderers below unroll
# those chains for one fixed (code, arity) into straight-line bodies —
# the same value-plane swaps the interpreted dispatchers apply for
# OR/NOR/NAND/XNOR are performed at variable-bind time, so the emitted
# math is literally the AND/XOR core of the interpreted rules.

_SWAP_OUT = (CODE_NAND, CODE_OR, CODE_XNOR)  # core sees swapped output planes
_SWAP_IN = (CODE_OR, CODE_NOR)  # core sees swapped input value planes


def _render_backward7(code: int, n: int) -> str:
    """Source of the 7-valued backward body for one (code, arity)."""
    lines = ["def _bwd(out, ins, mask):"]
    if code == CODE_BUF:
        lines.append("    return (out,)")
        return "\n".join(lines) + "\n"
    if code == CODE_NOT:
        lines.append("    oz, oo, os, oi = out")
        lines.append("    return ((oo, oz, os, oi),)")
        return "\n".join(lines) + "\n"
    out_bind = "oo, oz, os, oi" if code in _SWAP_OUT else "oz, oo, os, oi"
    lines.append(f"    {out_bind} = out")
    for k in range(n):
        in_bind = (
            f"o{k}, z{k}, s{k}, i{k}" if code in _SWAP_IN else f"z{k}, o{k}, s{k}, i{k}"
        )
        lines.append(f"    {in_bind} = ins[{k}]")
    swap_result = code in _SWAP_IN
    if code in _AND_FAMILY or code in _OR_FAMILY:
        lines.append("    _s1 = oo & os")
        lines.append("    _n0 = oz & os")
        lines.append("    _fa = oz & oi")
        lines.append("    _ri = oo & oi")
        lines.append("    _p1_0 = _p2_0 = _p3_0 = mask")
        for k in range(n):
            lines.append(f"    _p1_{k + 1} = _p1_{k} & o{k}")
            lines.append(f"    _p2_{k + 1} = _p2_{k} & (o{k} | i{k})")
            lines.append(f"    _p3_{k + 1} = _p3_{k} & s{k}")
        lines.append(f"    _q1_{n} = _q2_{n} = _q3_{n} = mask")
        for k in range(n - 1, -1, -1):
            lines.append(f"    _q1_{k} = _q1_{k + 1} & o{k}")
            lines.append(f"    _q2_{k} = _q2_{k + 1} & (o{k} | i{k})")
            lines.append(f"    _q3_{k} = _q3_{k + 1} & s{k}")
        adds = []
        for k in range(n):
            lines.append(f"    _m{k} = _n0 & _p2_{k} & _q2_{k + 1}")
            lines.append(
                f"    _az{k} = (oz & _p1_{k} & _q1_{k + 1}) | _m{k}"
            )
            lines.append(f"    _as{k} = _s1 | _m{k} | (_fa & o{k})")
            lines.append(
                f"    _ai{k} = (_fa & z{k}) | (_ri & _p3_{k} & _q3_{k + 1})"
            )
            if swap_result:
                adds.append(f"(oo, _az{k}, _as{k}, _ai{k})")
            else:
                adds.append(f"(_az{k}, oo, _as{k}, _ai{k})")
        lines.append(f"    return ({', '.join(adds)},)")
        return "\n".join(lines) + "\n"
    # XOR family
    lines.append("    _kp_0 = _sp_0 = mask")
    lines.append("    _pp_0 = 0")
    for k in range(n):
        lines.append(f"    _kp_{k + 1} = _kp_{k} & (z{k} | o{k})")
        lines.append(f"    _pp_{k + 1} = _pp_{k} ^ o{k}")
        lines.append(f"    _sp_{k + 1} = _sp_{k} & s{k}")
    lines.append(f"    _kq_{n} = _sq_{n} = mask")
    lines.append(f"    _pq_{n} = 0")
    for k in range(n - 1, -1, -1):
        lines.append(f"    _kq_{k} = _kq_{k + 1} & (z{k} | o{k})")
        lines.append(f"    _pq_{k} = _pq_{k + 1} ^ o{k}")
        lines.append(f"    _sq_{k} = _sq_{k + 1} & s{k}")
    lines.append("    _ok = oz | oo")
    adds = []
    for k in range(n):
        lines.append(f"    _r{k} = _pp_{k} ^ _pq_{k + 1}")
        lines.append(f"    _a{k} = _kp_{k} & _kq_{k + 1} & _ok")
        lines.append(
            f"    _io{k} = ((oo & ~_r{k}) | (oz & _r{k})) & _a{k}"
        )
        lines.append(
            f"    _iz{k} = ((oo & _r{k}) | (oz & ~_r{k})) & _a{k}"
        )
        lines.append(f"    _ai{k} = oi & _sp_{k} & _sq_{k + 1}")
        adds.append(f"(_iz{k}, _io{k}, os, _ai{k})")
    lines.append(f"    return ({', '.join(adds)},)")
    return "\n".join(lines) + "\n"


def _render_backward3(code: int, n: int) -> str:
    """Source of the 3-valued backward body for one (code, arity)."""
    lines = ["def _bwd(out, ins, mask):"]
    if code == CODE_BUF:
        lines.append("    return (out,)")
        return "\n".join(lines) + "\n"
    if code == CODE_NOT:
        lines.append("    a0, a1 = out")
        lines.append("    return ((a1, a0),)")
        return "\n".join(lines) + "\n"
    out_bind = "a1, a0" if code in _SWAP_OUT else "a0, a1"
    lines.append(f"    {out_bind} = out")
    for k in range(n):
        in_bind = f"i1{k}, i0{k}" if code in _SWAP_IN else f"i0{k}, i1{k}"
        lines.append(f"    {in_bind} = ins[{k}]")
    swap_result = code in _SWAP_IN
    if code in _AND_FAMILY or code in _OR_FAMILY:
        lines.append("    _p_0 = mask")
        for k in range(n):
            lines.append(f"    _p_{k + 1} = _p_{k} & i1{k}")
        lines.append(f"    _q_{n} = mask")
        for k in range(n - 1, -1, -1):
            lines.append(f"    _q_{k} = _q_{k + 1} & i1{k}")
        adds = []
        for k in range(n):
            lines.append(f"    _az{k} = a0 & _p_{k} & _q_{k + 1}")
            adds.append(f"(a1, _az{k})" if swap_result else f"(_az{k}, a1)")
        lines.append(f"    return ({', '.join(adds)},)")
        return "\n".join(lines) + "\n"
    # XOR family
    lines.append("    _kp_0 = mask")
    lines.append("    _pp_0 = 0")
    for k in range(n):
        lines.append(f"    _kp_{k + 1} = _kp_{k} & (i0{k} | i1{k})")
        lines.append(f"    _pp_{k + 1} = _pp_{k} ^ i1{k}")
    lines.append(f"    _kq_{n} = mask")
    lines.append(f"    _pq_{n} = 0")
    for k in range(n - 1, -1, -1):
        lines.append(f"    _kq_{k} = _kq_{k + 1} & (i0{k} | i1{k})")
        lines.append(f"    _pq_{k} = _pq_{k + 1} ^ i1{k}")
    lines.append("    _ok = a0 | a1")
    adds = []
    for k in range(n):
        lines.append(f"    _r{k} = _pp_{k} ^ _pq_{k + 1}")
        lines.append(f"    _a{k} = _kp_{k} & _kq_{k + 1} & _ok")
        lines.append(
            f"    _io{k} = ((a1 & ~_r{k}) | (a0 & _r{k})) & _a{k}"
        )
        lines.append(
            f"    _iz{k} = ((a1 & _r{k}) | (a0 & ~_r{k})) & _a{k}"
        )
        adds.append(f"(_iz{k}, _io{k})")
    lines.append(f"    return ({', '.join(adds)},)")
    return "\n".join(lines) + "\n"


#: (algebra name, code, arity) -> compiled backward function.  Shared
#: process-wide like :data:`_FORWARD_CACHE`.
_BACKWARD_CACHE: dict = {}


def gate_backward_fn(
    algebra_name: str, code: int, arity: int
) -> Optional[Callable]:
    """A specialized ``fn(out, ins, mask) -> additions`` for one gate shape.

    The returned function computes the unique backward implications —
    one plane tuple of additions per fanin, exactly
    ``Algebra.backward``'s contract — with the prefix/suffix chains
    unrolled.  ``None`` for algebras without an emitter.
    """
    key = (algebra_name, code, arity)
    fn = _BACKWARD_CACHE.get(key)
    if fn is None:
        if algebra_name == "seven_valued":
            source = _render_backward7(code, arity)
        elif algebra_name == "three_valued":
            source = _render_backward3(code, arity)
        else:
            return None
        fn = _compile_fn(
            source, "_bwd", f"backward:{algebra_name}:{code}:{arity}"
        )
        _BACKWARD_CACHE[key] = fn
    return fn


def backward_table(
    compiled: CompiledCircuit, algebra_name: str
) -> Optional[Tuple[Optional[Callable], ...]]:
    """Per-signal backward functions for *algebra_name*, or ``None``.

    The mirror of :func:`forward_table` for the backward half of
    ``imply()``; primary inputs hold ``None``.  Memoized the same way.
    """
    return _gate_table(compiled, algebra_name, "backward_table", gate_backward_fn)


# ---------------------------------------------------------------------------
# per-cone stuck-at resimulation functions
# ---------------------------------------------------------------------------


def render_cone_source(compiled: CompiledCircuit, site: int) -> str:
    """The stuck-at resimulation of one fault site as straight-line code.

    ``fn(good, forced, mask)`` forces the site's lane word to
    *forced*, re-evaluates exactly the gates in the site's transitive
    fanout cone (in topological order, reading signals outside the
    cone from the good-machine values) and returns the lane word of
    good/faulty differences across the primary outputs — zero lanes
    where the fault does not propagate.  Works for Python-int words
    and numpy ``uint64`` rows alike (``mask`` is the polymorphic
    invert operand, as in :func:`logic_fn`).
    """
    lines = ["def _cone(good, forced, mask):", f"    v{site} = forced"]
    in_cone = {site}
    for s in compiled.cone_of(site):
        if s == site or compiled.is_input[s]:
            continue
        names = [
            f"v{f}" if f in in_cone else f"good[{f}]"
            for f in compiled.py_fanin[s]
        ]
        lines.append("    " + _emit_logic(compiled.py_codes[s], names, f"v{s}"))
        in_cone.add(s)
    terms = [
        f"(good[{po}] ^ v{po})"
        for po in compiled.py_outputs
        if po in in_cone
    ]
    lines.append("    return " + (" | ".join(terms) if terms else "0"))
    return "\n".join(lines) + "\n"


def cone_fault_fn(compiled: CompiledCircuit, site: int) -> Callable:
    """The memoized compiled cone resimulation of one fault site.

    Cached on the compiled circuit's fusion memo (keyed by site), so
    the sa0/sa1 fault pair — and every simulator over the same
    circuit — shares one body; the memo is dropped on pickling like
    every other exec-compiled artifact (:meth:`CompiledCircuit.
    __getstate__`) and rebuilt on first use in each process.
    """
    key = ("stuckat_cone", site)
    fn = compiled._fusion_cache.get(key)
    if fn is None:
        fn = _compile_fn(
            render_cone_source(compiled, site),
            "_cone",
            f"stuckat:{compiled.circuit.name}:{site}",
        )
        compiled._fusion_cache[key] = fn
    return fn
