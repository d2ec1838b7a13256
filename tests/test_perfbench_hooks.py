"""The benchmark's planted faults (``perfbench/child.py``) still bite.

``perfbench/selfcheck.py`` shows that the benchmark's output checks can
fail by planting faults through ``child.plant_fault``.  Those hooks reach
into the package (``Deriv.apply``, ``MultiPoly.terms``, ``MultiPoly._raw``,
``ShefferPair.resolved``), so a change of representation could silently
disarm them.  Each case plants one fault in a fresh interpreter and runs
one cheap suite through the CLI; the failing-check counts are the ones the
faults produced when this test was written.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import child
child.plant_fault(sys.argv[2])
from shefferpoly.cli import main
sys.exit(main(["verify", "--suite", sys.argv[3], "--format", "json"]))
"""


@pytest.mark.parametrize("fault,suite,failing,total", [
    ("none", "heat", 0, 16),
    ("deriv", "heat", 6, 16),
    ("h-sign", "inverse", 13, 24),
])
def test_planted_fault_fails_the_same_checks(fault, suite, failing, total):
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, str(PERFBENCH), fault, suite],
        capture_output=True, text=True)
    assert proc.returncode == (1 if failing else 0), proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert len(checks) == total
    assert sum(not c["pass"] for c in checks) == failing
