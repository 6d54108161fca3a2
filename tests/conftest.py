"""Fixtures that more than one test module uses."""

import pytest

from fsskit import builder


@pytest.fixture
def fresh_phases(monkeypatch):
    """No line phase held yet (builder.line_phase): what earlier tests left does
    not count.  Clear the dict it returns to drop what the test itself formed."""
    monkeypatch.setattr(builder, "_PHASES", {})
    return builder._PHASES
