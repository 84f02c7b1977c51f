"""Parameterized synthetic circuit generators.

The paper evaluates on the ISCAS85/89 suites, whose netlists are not
distributed with this code (:mod:`repro.circuit.suites` maps their
names onto these generators).  The generators produce deterministic
circuits with the structural features that drive path-delay ATPG
behaviour:

* arithmetic carry chains (ripple/lookahead adders) — long paths,
* array multipliers — the c6288-style exponential path blow-up,
* XOR trees — the c499/c1355 flavour,
* reconvergent ladders — tunable path-count explosion with
  redundancies,
* profile-driven random DAGs — everything else, seeded and
  reproducible.

All generators return frozen circuits that pass
:func:`repro.circuit.validate.validate_circuit`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from .builder import CircuitBuilder
from .circuit import Circuit
from .gates import GateType

# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def ripple_carry_adder(width: int, name: Optional[str] = None) -> Circuit:
    """*width*-bit ripple-carry adder (a + b + cin -> sum, cout).

    The carry chain makes the longest structural path grow linearly in
    *width* — the classic delay-test target.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    b = CircuitBuilder(name or f"rca{width}")
    b.inputs(*[f"a{i}" for i in range(width)])
    b.inputs(*[f"b{i}" for i in range(width)])
    b.inputs("cin")
    carry = "cin"
    for i in range(width):
        b.xor(f"p{i}", f"a{i}", f"b{i}")
        b.xor(f"sum{i}", f"p{i}", carry)
        b.and_(f"g{i}", f"a{i}", f"b{i}")
        b.and_(f"t{i}", f"p{i}", carry)
        b.or_(f"c{i}", f"g{i}", f"t{i}")
        carry = f"c{i}"
    b.outputs(*[f"sum{i}" for i in range(width)], carry)
    return b.build()


def carry_lookahead_adder(width: int, block: int = 4, name: Optional[str] = None) -> Circuit:
    """*width*-bit adder with *block*-wide carry lookahead groups.

    Wider gates and flatter carry logic than the ripple design; gives
    the suites a second, structurally distinct arithmetic flavour.
    """
    if width < 1 or block < 2:
        raise ValueError("width >= 1 and block >= 2 required")
    b = CircuitBuilder(name or f"cla{width}")
    b.inputs(*[f"a{i}" for i in range(width)])
    b.inputs(*[f"b{i}" for i in range(width)])
    b.inputs("cin")
    for i in range(width):
        b.xor(f"p{i}", f"a{i}", f"b{i}")
        b.and_(f"g{i}", f"a{i}", f"b{i}")
    carry_in = "cin"
    for start in range(0, width, block):
        bits = range(start, min(start + block, width))
        for i in bits:
            b.xor(f"sum{i}", f"p{i}", carry_in if i == start else f"c{i - 1}")
            # c_i = g_i | p_i & c_{i-1}, expanded over the block
            terms: List[str] = [f"g{i}"]
            prefix: List[str] = []
            for j in range(i, start - 1, -1):
                prefix.append(f"p{j}")
                if j == start:
                    src = carry_in
                else:
                    src = f"g{j - 1}"
                term = f"t{i}_{j}"
                b.and_(term, src, *prefix)
                terms.append(term)
            b.or_(f"c{i}", *terms)
        carry_in = f"c{bits[-1]}"
    b.outputs(*[f"sum{i}" for i in range(width)], carry_in)
    return b.build()


def array_multiplier(width: int, name: Optional[str] = None) -> Circuit:
    """*width* x *width* carry-save array multiplier.

    Reproduces the c6288 phenomenon: the number of structural paths
    grows so fast that full path enumeration becomes infeasible (the
    paper excluded c6288 for exactly this reason).
    """
    if width < 2:
        raise ValueError("width must be >= 2")
    b = CircuitBuilder(name or f"mul{width}")
    b.inputs(*[f"a{i}" for i in range(width)])
    b.inputs(*[f"b{i}" for i in range(width)])
    # partial products
    for i in range(width):
        for j in range(width):
            b.and_(f"pp{i}_{j}", f"a{i}", f"b{j}")

    def add_full(name: str, x: str, y: str, z: str) -> tuple:
        b.xor(f"{name}_p", x, y)
        b.xor(f"{name}_s", f"{name}_p", z)
        b.and_(f"{name}_g", x, y)
        b.and_(f"{name}_t", f"{name}_p", z)
        b.or_(f"{name}_c", f"{name}_g", f"{name}_t")
        return f"{name}_s", f"{name}_c"

    def add_half(name: str, x: str, y: str) -> tuple:
        b.xor(f"{name}_s", x, y)
        b.and_(f"{name}_c", x, y)
        return f"{name}_s", f"{name}_c"

    # column-compression: collect partial products per output column
    columns: List[List[str]] = [[] for _ in range(2 * width)]
    for i in range(width):
        for j in range(width):
            columns[i + j].append(f"pp{i}_{j}")
    outs: List[str] = []
    extra_carries: List[str] = []
    counter = 0
    for col in range(2 * width):
        signals = columns[col]
        while len(signals) > 1:
            if len(signals) >= 3:
                x, y, z = signals[:3]
                rest = signals[3:]
                s, c = add_full(f"fa{counter}", x, y, z)
            else:
                x, y = signals[:2]
                rest = signals[2:]
                s, c = add_half(f"ha{counter}", x, y)
            counter += 1
            signals = rest + [s]
            if col + 1 < 2 * width:
                columns[col + 1].append(c)
            else:
                # the top column's carry cannot occur arithmetically,
                # but it exists structurally; observe it so no logic
                # dangles
                extra_carries.append(c)
        if signals:
            outs.append(signals[0])
    b.outputs(*outs, *extra_carries)
    return b.build()


# ---------------------------------------------------------------------------
# tree / ladder structures
# ---------------------------------------------------------------------------


def parity_tree(width: int, name: Optional[str] = None) -> Circuit:
    """Balanced XOR tree over *width* inputs (c499/c1355 flavour)."""
    if width < 2:
        raise ValueError("width must be >= 2")
    b = CircuitBuilder(name or f"parity{width}")
    b.inputs(*[f"i{k}" for k in range(width)])
    layer = [f"i{k}" for k in range(width)]
    counter = 0
    while len(layer) > 1:
        nxt: List[str] = []
        for k in range(0, len(layer) - 1, 2):
            out = f"x{counter}"
            counter += 1
            b.xor(out, layer[k], layer[k + 1])
            nxt.append(out)
        if len(layer) & 1:
            nxt.append(layer[-1])
        layer = nxt
    b.outputs(layer[0])
    return b.build()


def mux_tree(depth: int, name: Optional[str] = None) -> Circuit:
    """A *depth*-level tree of 2:1 muxes (2^depth data + depth selects)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    b = CircuitBuilder(name or f"muxtree{depth}")
    data = [f"d{k}" for k in range(1 << depth)]
    sels = [f"s{k}" for k in range(depth)]
    b.inputs(*data)
    b.inputs(*sels)
    counter = 0
    layer = data
    for lvl in range(depth):
        sel = sels[lvl]
        nsel = f"n{sel}_{lvl}"
        b.not_(nsel, sel)
        nxt: List[str] = []
        for k in range(0, len(layer), 2):
            lo, hi = layer[k], layer[k + 1]
            m = f"m{counter}"
            counter += 1
            b.and_(f"{m}_a", lo, nsel)
            b.and_(f"{m}_b", hi, sel)
            b.or_(m, f"{m}_a", f"{m}_b")
            nxt.append(m)
        layer = nxt
    b.outputs(layer[0])
    return b.build()


def reconvergent_ladder(stages: int, name: Optional[str] = None) -> Circuit:
    """A ladder where every stage doubles the structural path count.

    Stage ``k`` computes ``u = AND(v, ctl_k)`` and ``w = OR(v, ctl_k)``
    then reconverges with ``v' = XOR(u, w)``, which equals
    ``v XOR ctl_k`` (the stage is functionally a staged parity).  Each
    stage multiplies the number of input-output paths through the seed
    by two, giving ``2^stages`` paths.  Used to exercise path-count
    explosion and lane utilisation without large gate counts.
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    b = CircuitBuilder(name or f"ladder{stages}")
    b.inputs("seed", *[f"ctl{k}" for k in range(stages)])
    v = "seed"
    for k in range(stages):
        b.and_(f"u{k}", v, f"ctl{k}")
        b.or_(f"w{k}", v, f"ctl{k}")
        b.xor(f"v{k}", f"u{k}", f"w{k}")
        v = f"v{k}"
    b.outputs(v)
    return b.build()


def comparator(width: int, name: Optional[str] = None) -> Circuit:
    """*width*-bit equality + greater-than comparator."""
    if width < 1:
        raise ValueError("width must be >= 1")
    b = CircuitBuilder(name or f"cmp{width}")
    b.inputs(*[f"a{i}" for i in range(width)])
    b.inputs(*[f"b{i}" for i in range(width)])
    eq_terms: List[str] = []
    gt_terms: List[str] = []
    for i in range(width):
        b.xnor(f"eq{i}", f"a{i}", f"b{i}")
        eq_terms.append(f"eq{i}")
        b.not_(f"nb{i}", f"b{i}")
        higher = [f"eq{j}" for j in range(i + 1, width)]
        b.and_(f"gt{i}", f"a{i}", f"nb{i}", *higher)
        gt_terms.append(f"gt{i}")
    if width == 1:
        b.buf("eq", eq_terms[0])
        b.buf("gt", gt_terms[0])
    else:
        b.and_("eq", *eq_terms)
        b.or_("gt", *gt_terms)
    b.outputs("eq", "gt")
    return b.build()


def decoder(width: int, name: Optional[str] = None) -> Circuit:
    """*width*-to-2^*width* line decoder."""
    if width < 1:
        raise ValueError("width must be >= 1")
    b = CircuitBuilder(name or f"dec{width}")
    b.inputs(*[f"a{i}" for i in range(width)])
    for i in range(width):
        b.not_(f"n{i}", f"a{i}")
    outs: List[str] = []
    for code in range(1 << width):
        terms = [
            (f"a{i}" if (code >> i) & 1 else f"n{i}") for i in range(width)
        ]
        out = f"o{code}"
        if width == 1:
            b.buf(out, terms[0])
        else:
            b.and_(out, *terms)
        outs.append(out)
    b.outputs(*outs)
    return b.build()


# ---------------------------------------------------------------------------
# profile-driven random DAGs
# ---------------------------------------------------------------------------

#: Gate-type mix profiles loosely matching ISCAS circuit families.
PROFILES: Dict[str, Dict[GateType, float]] = {
    "nand_heavy": {
        GateType.NAND: 0.45,
        GateType.NOR: 0.15,
        GateType.AND: 0.1,
        GateType.OR: 0.1,
        GateType.NOT: 0.15,
        GateType.BUF: 0.05,
    },
    "xor_rich": {
        GateType.XOR: 0.35,
        GateType.XNOR: 0.1,
        GateType.AND: 0.2,
        GateType.OR: 0.15,
        GateType.NAND: 0.1,
        GateType.NOT: 0.1,
    },
    "balanced": {
        GateType.AND: 0.22,
        GateType.OR: 0.22,
        GateType.NAND: 0.18,
        GateType.NOR: 0.13,
        GateType.XOR: 0.1,
        GateType.NOT: 0.1,
        GateType.BUF: 0.05,
    },
}


def random_dag(
    n_inputs: int,
    n_gates: int,
    seed: int,
    profile: str = "balanced",
    locality: int = 48,
    reconvergence: float = 0.3,
    max_fanin: int = 3,
    name: Optional[str] = None,
) -> Circuit:
    """Deterministic random circuit with a controlled structure.

    Args:
        n_inputs: number of primary inputs.
        n_gates: number of gates to create.
        seed: PRNG seed; identical arguments give identical circuits.
        profile: gate-type mix, a key of :data:`PROFILES`.
        locality: fanins are drawn from the most recent *locality*
            signals, which controls circuit depth.
        reconvergence: probability that a fanin is drawn from the whole
            history instead of the local window (creates reconvergent
            fanout, the structure that makes path counts explode and
            creates redundant paths).
        max_fanin: largest fanin for AND/OR-family gates.
        name: circuit name (defaults to a descriptive string).
    """
    if n_inputs < 2 or n_gates < 1:
        raise ValueError("need n_inputs >= 2 and n_gates >= 1")
    try:
        weights = PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}") from None
    rng = random.Random(seed)
    types = list(weights)
    cum = list(weights.values())

    circuit = Circuit(name=name or f"rand_{profile}_{n_inputs}x{n_gates}_s{seed}")
    signals: List[int] = [circuit.add_input(f"pi{k}") for k in range(n_inputs)]

    for g in range(n_gates):
        gate_type = rng.choices(types, weights=cum, k=1)[0]
        if gate_type in (GateType.NOT, GateType.BUF):
            fanin_count = 1
        elif gate_type in (GateType.XOR, GateType.XNOR):
            fanin_count = 2
        else:
            fanin_count = rng.randint(2, max_fanin)
        chosen: List[int] = []
        window = signals[-locality:]
        while len(chosen) < fanin_count:
            pool = signals if rng.random() < reconvergence else window
            pick = rng.choice(pool)
            if pick not in chosen:
                chosen.append(pick)
            elif len(set(window) - set(chosen)) == 0 and len(
                set(signals) - set(chosen)
            ) == 0:
                break
        if len(chosen) < max(1, fanin_count if fanin_count == 1 else 2):
            gate_type = GateType.BUF
            chosen = chosen[:1] or [signals[-1]]
        signals.append(circuit.add_gate(f"g{g}", gate_type, chosen))

    # every sink (signal with no reader) becomes a primary output
    readers = set()
    for gate in circuit.gates:
        readers.update(gate.fanin)
    sinks = [g.index for g in circuit.gates if g.index not in readers]
    for index in sinks:
        circuit.mark_output(index)
    return circuit.freeze()


#: Name -> factory for parameterized generators (used by the CLI).
GENERATORS = {
    "rca": ripple_carry_adder,
    "cla": carry_lookahead_adder,
    "mul": array_multiplier,
    "parity": parity_tree,
    "muxtree": mux_tree,
    "ladder": reconvergent_ladder,
    "cmp": comparator,
    "dec": decoder,
}
