"""Member digests pinned against recorded references.

``golden/members_o<order>.txt`` holds one sha256 per (pair, kind, r) over
the rendered members 0..order at that truncation order, r in {1, 2, 3},
plus one per pair for the plain Sheffer sequence.  ``members_o12.txt`` was
recorded from the polynomial-coefficient series engine the members were
first computed with; ``members_o16.txt``, at the order the ``expand-catalog``
benchmark builds, from the integer Sheffer-matrix engine before each member
sum reduced its scales.  Any change to how members are assembled must
reproduce both byte for byte.

Regenerate (only when an intended change of output is made):

    PYTHONPATH=src python tests/test_golden_members.py 12 > tests/golden/members_o12.txt
    PYTHONPATH=src python tests/test_golden_members.py 16 > tests/golden/members_o16.txt
"""

import hashlib
import sys
from pathlib import Path

from shefferpoly import MixedFamily, catalog, get_pair, sheffer_poly

GOLDEN = Path(__file__).parent / "golden"


def _digest(polys) -> str:
    text = "\n".join(str(p) for p in polys)
    return hashlib.sha256(text.encode()).hexdigest()


def member_digests(order: int) -> list[str]:
    lines = []
    for pair in catalog() + [get_pair("identity")]:
        for kind in ("S", "R"):
            for r in (1, 2, 3):
                fam = MixedFamily(pair, kind, r, order)
                digest = _digest(fam.member(n) for n in range(order + 1))
                lines.append(f"{pair.name} {kind} {r} {digest}")
        digest = _digest(sheffer_poly(pair, n, order) for n in range(order + 1))
        lines.append(f"{pair.name} sheffer - {digest}")
    return lines


def _check(order: int) -> None:
    want = (GOLDEN / f"members_o{order}.txt").read_text().splitlines()
    got = member_digests(order)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_member_digests_match_reference():
    _check(12)


def test_member_digests_match_reference_o16():
    _check(16)


if __name__ == "__main__":
    print("\n".join(member_digests(int(sys.argv[1]))))
