"""Shared fixtures."""

import pytest

from shefferpoly import memo


@pytest.fixture
def fresh_memo(monkeypatch):
    """Run the test against an empty memo store, restored afterwards."""
    monkeypatch.setattr(memo, "_STORE", {})


@pytest.fixture
def plant(monkeypatch):
    """plant(owner, name, value) sets owner.name to value over an empty memo
    store.  The memo keys name no code, so a fault planted in the engine is
    kept out of the memos of correct images only by that store: everything
    built while the plant stands reads and fills it.  Teardown, or an
    earlier ``monkeypatch.undo()``, restores both the attribute and the
    store the test started with.  A planted engine fault is registered,
    with the checks it fails, in ``tests/faults.py`` and planted from
    there (``FAULTS[name].plant(plant)``)."""
    def plant(owner, name, value):
        monkeypatch.setattr(memo, "_STORE", {})
        monkeypatch.setattr(owner, name, value)
    return plant
