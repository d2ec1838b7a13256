"""Acceptance gate: every criterion checked at zero tolerance.

All equalities here are exact equalities of rational coefficients; there
are no tolerances to tune.  Each test prints one PASS/FAIL line (visible
with ``pytest -s``) and asserts the same condition.

Run: ``pytest tests/test_acceptance.py -v -s``
"""

import hashlib
import math
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from shefferpoly import (
    MixedFamily,
    MultiPoly,
    catalog,
    crofton_check,
    cross_validate,
    sheffer_poly,
    umbral_pairing,
)
from shefferpoly.suites import (
    suite_heat,
    suite_integral,
    suite_operational,
)

ORDER = 12
GOLDEN = Path(__file__).parent / "golden"
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")


def _report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert passed, f"{criterion} failed{suffix}"


def test_criterion_1_compositional_inverse_conformance():
    failures = []
    checked = 0
    for pair in catalog():
        built = pair.build(ORDER)
        res = pair.resolved(ORDER)
        if built.claimed_H is not None:
            checked += 1
            if res.H != built.claimed_H:
                failures.append(f"{pair.name}: H")
        if built.claimed_A is not None:
            if res.A != built.claimed_A:
                failures.append(f"{pair.name}: A")
    _report("1 compositional-inverse conformance",
            not failures and checked == 14,
            f"{checked} pairs at order {ORDER}" if not failures else str(failures))


def test_criterion_2_biorthogonality():
    failures = []
    for pair in catalog():
        res = pair.resolved(ORDER)
        members = [sheffer_poly(pair, n, ORDER) for n in range(7)]
        fk = res.g
        for k in range(7):
            if k:
                fk = fk * res.f
            for n in range(7):
                want = F(math.factorial(n)) if n == k else F(0)
                if umbral_pairing(fk, members[n]) != want:
                    failures.append(f"{pair.name} n={n} k={k}")
    _report("2 biorthogonality", not failures,
            "14 pairs, n,k <= 6" if not failures else str(failures[:3]))


def test_criterion_3_monomiality_suite():
    s_failures = []
    r_missing = []
    for pair in catalog():
        for r in (2, 3):
            s_checks = MixedFamily(pair, "S", r, ORDER).verify_monomiality(8)
            s_bad = [c for c in s_checks if not c.passed]
            if s_bad:
                s_failures.append(f"{pair.name}/S/r={r}: {s_bad[0].name} n={s_bad[0].n}")
            r_checks = MixedFamily(pair, "R", r, ORDER).verify_monomiality(8)
            seen = {tuple(c.name.split("/")[:2]) for c in r_checks}
            for ident in ("raising", "lowering", "diffeq", "commutator"):
                for variant in ("printed", "theta"):
                    if (ident, variant) not in seen:
                        r_missing.append(f"{pair.name}/R/r={r}: {ident}/{variant}")
    _report("3 monomiality (S-kind 100% + R-kind verdicts recorded)",
            not s_failures and not r_missing,
            "14 pairs, r in {2,3}, n <= 8, commutator deg <= 8"
            if not (s_failures or r_missing) else str((s_failures + r_missing)[:3]))


def test_criterion_4_special_case_rows():
    bad = []
    for suite in ("leghpS-vs-table1", "leghpR-vs-table1"):
        for res in cross_validate(suite, 8):
            if not res.passed:
                bad.append(res.name)
    _report("4 special-case row reductions vs explicit sums", not bad,
            "rows I-XI, n <= 8" if not bad else str(bad[:3]))


def test_criterion_5_operational_representations():
    checks = suite_operational(ORDER, max_n=8)
    asserted = [c for c in checks if "recorded verdict" not in c.name]
    bad = [c.name for c in asserted if not c.passed]
    recorded = [c for c in checks if "recorded verdict" in c.name]
    _report("5 operational representations", not bad and bool(recorded),
            "sheffer-lift + z-restoration, 14 pairs, r in {2,3}, n <= 8"
            if not bad else str(bad[:3]))


def test_criterion_6_integral_representations():
    checks = suite_integral(ORDER, max_n=6)
    bad = [c.name for c in checks if not c.passed]
    _report("6 integral representations (moment rule)", not bad,
            "both kinds, 14 pairs, n <= 6" if not bad else str(bad[:3]))


def test_criterion_7_heat_and_operational_identities():
    checks = suite_heat(ORDER, max_n=10)
    bad = [c.name for c in checks if not c.passed]
    _report("7 heat equation + exponential-operator identities", not bad,
            "s in {2,3,4}, n <= 10" if not bad else str(bad[:3]))


def test_criterion_8_crofton_identity():
    bad = []
    lams = {"z": Z, "2z": 2 * Z, "z^2": Z * Z}
    for m in (2, 3):
        for lname, lam in lams.items():
            for k in range(1, 5):
                if not crofton_check(m, lam, Y ** k).passed:
                    bad.append(f"m={m} lam={lname} f=y^{k}")
    _report("8 shift (Crofton) identity", not bad,
            "m in {2,3}, 3 coefficients, f = y..y^4" if not bad else str(bad))


def test_criterion_9_oracle_suites_and_runtime():
    bad = []
    for name in ("ghp-vs-explicit", "leghpS-vs-table1", "leghpR-vs-table1",
                 "series-vs-naive-convolution"):
        for res in cross_validate(name, 8):
            if not res.passed:
                bad.append(f"{name}: {res.name}")
    # cold full verification run in a fresh interpreter, timed; its JSON
    # report must also be byte-identical to the pinned one
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "shefferpoly.cli", "verify", "--suite", "all",
         "--format", "json", "--order", "12"],
        capture_output=True, text=True)
    elapsed = time.time() - t0
    runtime_ok = proc.returncode == 0 and elapsed < 60.0
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    pinned = (GOLDEN / "verify_all_o12.sha256").read_text().strip()
    _report("9 oracle independence + full run under one minute",
            not bad and runtime_ok and digest == pinned,
            f"verify --suite all: exit {proc.returncode} in {elapsed:.1f}s, "
            f"sha256 {digest[:8]} (pinned {pinned[:8]})"
            if not bad else str(bad[:3]))
