"""Fixtures shared across test directories."""

import pytest

from test_behaviour_contract import CONTRACT, measure


@pytest.fixture(scope="session")
def contract_measured() -> dict:
    """Point -> its four measured contract values: one run per point,
    shared by every test that checks a view of :data:`CONTRACT`."""
    return {point: measure(point) for point in CONTRACT}
