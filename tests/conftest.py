"""Fixtures that more than one test module uses."""

import pytest

from fsskit import twoport


@pytest.fixture
def fresh_phases(monkeypatch):
    """Nothing held per grid yet (twoport.held): no line phase, no jw, no
    frequency words, no width loop head; what earlier tests left does not
    count.  Clear the dict it returns to drop what the test itself formed."""
    monkeypatch.setattr(twoport, "_HELD", {})
    return twoport._HELD
