"""Test helpers: run a test on the Python tiers with the native module
loaded.

``fusion`` is ``auto`` or ``interp``, so the Python fast paths
(``python/codegen`` TPG states, ``int/codegen`` and ``numpy/vector``
simulation) are what ``auto`` runs on a host without the native module.
:func:`python_tiers` makes this host one for a block.
"""

import contextlib

import pytest

from repro.core.state import TpgState
from repro.kernel import native

#: The TPG engines by tier, C first.
TPG_TIERS = ("native/c", "python/codegen", "python/interp")


@contextlib.contextmanager
def python_tiers():
    """Run the block as on a host without the native module.

    ``fusion="auto"`` then resolves to the Python tiers: TPG states run
    ``python/codegen``, simulation ``int/codegen`` up to 64 lanes and
    ``numpy/vector`` beyond.  A TPG state keeps the tier it was built
    with after the block.
    """
    saved = native._state
    native._state = (None, "forced by test")
    try:
        yield
    finally:
        native._state = saved


@contextlib.contextmanager
def select_engine(tier):
    """Yield the ``fusion`` value that selects TPG engine *tier* (one of
    :data:`TPG_TIERS`), with the native module hidden for
    ``python/codegen``; ``native/c`` skips where the module does not
    load."""
    if tier == "native/c" and not native.native_available():
        pytest.skip("no C toolchain and no cached native module")
    if tier == "python/codegen":
        with python_tiers():
            yield "auto"
    else:
        yield "interp" if tier == "python/interp" else "auto"


def tpg_state(tier, *args, **kwargs) -> TpgState:
    """A :class:`TpgState` on the engine *tier*."""
    with select_engine(tier) as fusion:
        state = TpgState(*args, fusion=fusion, **kwargs)
    assert state.tier == tier
    return state
