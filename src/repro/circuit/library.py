"""Embedded benchmark circuits.

Small circuits that are public knowledge are embedded verbatim (c17);
the example circuit of the paper's Figures 1 and 2 is reconstructed so
that the published FPTPG/APTPG walkthroughs reproduce *exactly*, which
is what the figure tests check.  Everything here returns a frozen
:class:`repro.circuit.Circuit`.
"""

from __future__ import annotations

from .bench_parser import parse_bench
from .builder import CircuitBuilder
from .circuit import Circuit

#: The ISCAS85 c17 netlist (Brglez & Fujiwara 1985) — the canonical
#: six-NAND example, embedded in its original .bench form.
C17_BENCH = """\
# c17 (ISCAS85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"""


def c17() -> Circuit:
    """The ISCAS85 c17 benchmark (5 inputs, 6 NAND gates, 2 outputs)."""
    return parse_bench(C17_BENCH, name="c17")


def paper_example() -> Circuit:
    """The example circuit of the paper's Figures 1 and 2 (reconstructed).

    Signal names follow the figures: inputs ``a b c d``, internal
    signals ``p q r s t e``, outputs ``x y``.  The figure artwork did
    not survive text extraction, so gate types were reconstructed to
    reproduce the published walkthrough exactly:

    * FPTPG on the four paths ``b-p-x``, ``b-q-s-x``, ``c-r-s-x``,
      ``c-r-s-y`` (bit levels 0..3, rising transitions) yields: levels
      2 and 3 justified immediately (tested), level 1 a conflict at
      signal ``c`` with no optional assignments (hence the subpath
      ``b-q-s`` with a rising transition at ``b`` is redundant, and so
      is every path containing it), and level 0 one unjustified value
      (``s = 1``) that a single backtrace resolves by assigning
      ``d = 1``.
    * APTPG on path ``a-p-x`` backtraces to the two primary inputs
      ``c`` and ``d``; all four value alternatives are examined in the
      four bit levels at once and at least one level is conflict-free,
      so the path is tested (exactly one of the four alternatives,
      ``c=0, d=0``, conflicts).
    """
    b = CircuitBuilder("paper_example")
    b.inputs("a", "b", "c", "d")
    b.or_("p", "a", "b")
    b.and_("q", "b", "c")
    b.buf("r", "c")
    b.or_("s", "q", "r", "d")
    b.not_("t", "p")
    b.not_("e", "d")
    b.and_("x", "p", "s")
    b.and_("y", "s", "t", "e")
    b.outputs("x", "y")
    return b.build()


def half_adder() -> Circuit:
    """1-bit half adder (sum = a xor b, carry = a and b)."""
    b = CircuitBuilder("half_adder")
    b.inputs("a", "b")
    b.xor("sum", "a", "b")
    b.and_("carry", "a", "b")
    b.outputs("sum", "carry")
    return b.build()


def full_adder() -> Circuit:
    """1-bit full adder over inputs a, b, cin."""
    b = CircuitBuilder("full_adder")
    b.inputs("a", "b", "cin")
    b.xor("p", "a", "b")
    b.xor("sum", "p", "cin")
    b.and_("g", "a", "b")
    b.and_("t", "p", "cin")
    b.or_("cout", "g", "t")
    b.outputs("sum", "cout")
    return b.build()


def mux2() -> Circuit:
    """2-to-1 multiplexer: out = sel ? b : a."""
    b = CircuitBuilder("mux2")
    b.inputs("a", "b", "sel")
    b.not_("nsel", "sel")
    b.and_("ta", "a", "nsel")
    b.and_("tb", "b", "sel")
    b.or_("out", "ta", "tb")
    b.outputs("out")
    return b.build()


def majority3() -> Circuit:
    """3-input majority vote."""
    b = CircuitBuilder("majority3")
    b.inputs("a", "b", "c")
    b.and_("ab", "a", "b")
    b.and_("bc", "b", "c")
    b.and_("ac", "a", "c")
    b.or_("out", "ab", "bc", "ac")
    b.outputs("out")
    return b.build()


def redundant_and_chain() -> Circuit:
    """A tiny circuit with a structurally redundant path.

    ``x = AND(a, NOT(a))`` is constant 0, so no transition can ever
    propagate through the path ``a-n-x-out``; every delay fault on it
    is redundant.  Used by unit tests for redundancy identification.
    """
    b = CircuitBuilder("redundant_and_chain")
    b.inputs("a", "b")
    b.not_("n", "a")
    b.and_("x", "a", "n")
    b.or_("out", "x", "b")
    b.outputs("out")
    return b.build()


#: Name -> factory for every embedded circuit (used by the CLI).
EMBEDDED = {
    "c17": c17,
    "paper_example": paper_example,
    "half_adder": half_adder,
    "full_adder": full_adder,
    "mux2": mux2,
    "majority3": majority3,
    "redundant_and_chain": redundant_and_chain,
}


def load_embedded(name: str) -> Circuit:
    """Instantiate an embedded circuit by *name* (see :data:`EMBEDDED`)."""
    try:
        factory = EMBEDDED[name]
    except KeyError:
        known = ", ".join(sorted(EMBEDDED))
        raise ValueError(f"unknown embedded circuit {name!r}; known: {known}") from None
    return factory()
