"""Member digests pinned against a recorded reference.

``golden/members_o12.txt`` holds one sha256 per (pair, kind, r) over the
rendered members 0..12 at truncation order 12, r in {1, 2, 3}, plus one per
pair for the plain Sheffer sequence.  It was recorded from the polynomial-
coefficient series engine the members were first computed with; any change
to how members are assembled must reproduce it byte for byte.

Regenerate (only when an intended change of output is made):

    PYTHONPATH=src python tests/test_golden_members.py > tests/golden/members_o12.txt
"""

import hashlib
from pathlib import Path

from shefferpoly import MixedFamily, catalog, get_pair, sheffer_poly

GOLDEN = Path(__file__).parent / "golden" / "members_o12.txt"
ORDER = 12


def _digest(polys) -> str:
    text = "\n".join(str(p) for p in polys)
    return hashlib.sha256(text.encode()).hexdigest()


def member_digests() -> list[str]:
    lines = []
    for pair in catalog() + [get_pair("identity")]:
        for kind in ("S", "R"):
            for r in (1, 2, 3):
                fam = MixedFamily(pair, kind, r, ORDER)
                digest = _digest(fam.member(n) for n in range(ORDER + 1))
                lines.append(f"{pair.name} {kind} {r} {digest}")
        digest = _digest(sheffer_poly(pair, n, ORDER) for n in range(ORDER + 1))
        lines.append(f"{pair.name} sheffer - {digest}")
    return lines


def test_member_digests_match_reference():
    want = GOLDEN.read_text().splitlines()
    got = member_digests()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    print("\n".join(member_digests()))
