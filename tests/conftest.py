"""Shared fixtures."""

import pytest

from shefferpoly import memo


@pytest.fixture
def fresh_memo(monkeypatch):
    """Run the test against an empty memo store, restored afterwards."""
    monkeypatch.setattr(memo, "_STORE", {})
