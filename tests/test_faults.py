"""The fault matrix: every planted engine fault of ``faults.FAULTS`` fails
the checks its row pins, and leaves no trace once undone."""

import hashlib
from pathlib import Path

import pytest

from faults import FAULTS, SUITE_SIZES, failing_per_suite, verify_all

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", FAULTS)
def test_fault_fails_its_checks_and_leaves_no_trace(monkeypatch, plant, name):
    fault = FAULTS[name]
    fault.plant(plant)
    code, report = verify_all()
    assert code == 1
    assert failing_per_suite(report) == {
        suite: (fault.failing.get(suite, 0), size) for suite, size in SUITE_SIZES.items()}
    if fault.digest:
        digest = hashlib.sha256(report.encode()).hexdigest()
        assert digest == (GOLDEN / fault.digest).read_text().strip()
    monkeypatch.undo()
    # the values computed under the fault stayed in the planted store
    code, report = verify_all()
    assert code == 0
    assert failing_per_suite(report) == {
        suite: (0, size) for suite, size in SUITE_SIZES.items()}
