"""Shared fixtures: each TPG engine in turn (see ``tiers.py``)."""

import pytest

from tiers import TPG_TIERS, select_engine


@pytest.fixture(params=TPG_TIERS)
def engine(request):
    """The ``fusion`` value selecting each TPG engine in turn."""
    with select_engine(request.param) as fusion:
        yield fusion


@pytest.fixture(params=TPG_TIERS[:2])
def auto_tier(request):
    """Run the test on both tiers ``fusion="auto"`` picks: with the
    native module, and without it."""
    with select_engine(request.param) as fusion:
        yield fusion
