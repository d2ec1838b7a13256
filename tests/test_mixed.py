"""The mixed-family engine: members, quasi-monomial operators, exponential
and moment representations, and the reduction recipes."""

import math
from fractions import Fraction as F

import pytest

from faults import FAULTS
from shefferpoly import (
    REDUCTIONS,
    MixedFamily,
    MultiPoly,
    UnknownReduction,
    catalog,
    deriv,
    get_pair,
    gould_hopper,
    leghp_S,
    sheffer_poly,
    theta_operator,
)
from shefferpoly.checks import Check, compare
from shefferpoly.operators import commutator_check
from shefferpoly.suites import core_checks

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")
ONE = MultiPoly.const(1)

IDENTITY = get_pair("identity")
LOWER_FACT = get_pair("lower-factorial")


def fam(pair=IDENTITY, kind="S", r=2, order=12):
    return MixedFamily(pair, kind, r, order)


def passing(checks, name):
    """Every record of one "{identity}/{variant}/{normalization}" passes."""
    recs = [c for c in checks if c.name == name]
    return bool(recs) and all(c.passed for c in recs)


# -- members ---------------------------------------------------------------------


def test_identity_pair_reduces_to_base_family():
    for r in (1, 2, 3):
        f = fam(r=r)
        for n in range(9):
            assert f.member(n) == leghp_S(n, r, 12)


def test_identity_hermite_slice():
    # x = 0, r = 2 gives the two-variable Hermite pattern
    assert fam().member(2).substitute({"x": 0}) == Y ** 2 + 2 * Z


def test_lower_factorial_first_member():
    assert fam(LOWER_FACT).member(0) == ONE
    assert fam(LOWER_FACT).member(1) == Y


def test_member_weights(plant):
    # egf_member divides a member by (n!)^(power - 1), the power the member
    # is stored at: by 3! at R's (n!)^2, and by nothing once it is n!
    f_r = fam(kind="R")
    assert f_r.egf_member(3) == f_r.member(3) / 6
    FAULTS["r-weight-one"].plant(plant)
    assert f_r.egf_member(3) == f_r.member(3)


def test_weighted_degree_bound():
    # S-kind member(n) stays within weighted degree n for weights
    # (x: 2, y: 1, z: r)
    for r in (2, 3):
        f = fam(LOWER_FACT, "S", r)
        for n in range(8):
            p = f.member(n)
            for (ex, ey, ez) in p.terms:
                assert 2 * ex + ey + r * ez <= n


# -- operators ----------------------------------------------------------------------


def test_identity_raising_operator_matches_base_form():
    # M = y + 2 D_x^{-1} d_y + 2 z d_y on the vacuum chain
    M = fam().raising_operator()
    assert M.apply(ONE) == Y
    assert M.apply(Y) == Y ** 2 + 2 * X + 2 * Z


def test_identity_lowering_is_d_dy():
    P = fam().lowering_operator()
    for n in range(1, 8):
        m = fam().member(n)
        assert P.apply(m) == deriv("y").apply(m)


def test_lowering_annihilates_vacuum():
    for pair in (IDENTITY, LOWER_FACT):
        f = fam(pair)
        assert f.lowering_operator().apply(f.member(0)).is_zero


def test_lower_factorial_lowering_is_forward_difference():
    # f = e^t - 1, so P = exp(d/dy) - 1: the shift-by-one difference
    f = fam(LOWER_FACT)
    P = f.lowering_operator()
    for n in range(7):
        m = f.member(n)
        shifted = m.substitute({"y": Y + 1})
        assert P.apply(m) == shifted - m


def test_raising_matches_members_lower_factorial():
    f = fam(LOWER_FACT)
    M = f.raising_operator()
    for n in range(7):
        assert M.apply(f.member(n)) == f.member(n + 1)


def test_theta_operator_action():
    # -d/dx x d/dx sends x^k to -k^2 x^(k-1)
    th = theta_operator()
    for k in range(1, 6):
        assert th.apply(X ** k) == -(k * k) * X ** (k - 1)
    assert th.apply(ONE).is_zero


# -- monomiality records ----------------------------------------------------------------


def test_monomiality_identity_all_pass():
    checks = fam().verify_monomiality(8)
    assert all(c.passed for c in core_checks("S", checks))
    assert not [c for c in checks if not c.passed]


def test_monomiality_bernoulli2_r3():
    checks = fam(get_pair("bernoulli2"), "S", 3).verify_monomiality(6)
    assert all(c.passed for c in core_checks("S", checks))


def test_monomiality_max_n_zero():
    checks = fam().verify_monomiality(0)
    assert all(c.passed for c in core_checks("S", checks))
    raising = [c for c in checks if c.name.startswith("raising/")]
    assert len(raising) == 1 and raising[0].n == 0


def test_monomiality_rejects_negative_max_n():
    # a negative max_n used to return the commutator rows alone
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        fam().verify_monomiality(-1)


def test_r_kind_report_has_definite_verdicts():
    checks = fam(IDENTITY, "R", 2, 10).verify_monomiality(5)
    verdicts = {}
    for rec in checks:
        key = tuple(rec.name.split("/"))
        verdicts[key] = verdicts.get(key, True) and rec.passed
    # the theta variant carries the quasi-monomial structure at egf weight
    assert verdicts[("raising", "theta", "egf")]
    assert verdicts[("lowering", "theta", "egf")]
    assert verdicts[("diffeq", "theta", "egf")]
    assert verdicts[("commutator", "theta", "egf")]
    # the operators exactly as printed do not, and the report says so
    assert not verdicts[("raising", "printed", "egf")]
    assert not verdicts[("lowering", "printed", "egf")]
    # every identity got a recorded verdict for both variants
    identities = {tuple(c.name.split("/")[:2]) for c in checks}
    for ident in ("raising", "lowering", "diffeq", "commutator"):
        assert (ident, "printed") in identities
        assert (ident, "theta") in identities


def test_r_kind_theta_variant_passes_catalog_wide():
    # with series arguments at Theta = -d/dx x d/dx, the n!-normalised
    # R-kind family is quasi-monomial for every pair (see mixed.py notes);
    # pin that so the report's verdicts cannot silently drift
    from shefferpoly import catalog

    for pair in (catalog()[0], get_pair("pidduck"), get_pair("bessel")):
        rep = MixedFamily(pair, "R", 2, 9).verify_monomiality(4)
        for ident in ("raising", "lowering", "diffeq", "commutator"):
            assert passing(rep, f"{ident}/theta/egf"), (pair.name, ident)


def test_r_rows_fail_when_theta_loses_its_sign(plant):
    # Theta without its -1 breaks every theta-variant identity at egf
    # weight; the R-kind rows assert those, so each one must now FAIL
    from shefferpoly.suites import suite_monomiality

    FAULTS["theta-sign"].plant(plant)
    rep = fam(LOWER_FACT, "R", 2, 4).verify_monomiality(1)
    for ident in ("raising", "lowering", "diffeq", "commutator"):
        assert not passing(rep, f"{ident}/theta/egf"), ident
    assert not all(c.passed for c in core_checks("R", rep))
    rows = suite_monomiality(order=4, max_n=1)
    r_rows = [c for c in rows if "R-kind" in c.name]
    s_rows = [c for c in rows if "S-kind" in c.name]
    assert len(r_rows) == 28 and not any(c.passed for c in r_rows)
    assert len(s_rows) == 28 and all(c.passed for c in s_rows)


def _reference_monomiality(family, max_n):
    """The records of the full loop: every identity at every n, through
    ``M.apply``, ``P.apply`` and ``M.residual``, with no verdict settled
    early."""
    variants, norms = ((("printed",), ("egf",)) if family.kind == "S"
                       else (("printed", "theta"), ("egf", "stored")))
    weighted = {"egf": family.egf_member, "stored": family.member}
    out = []
    for vname in variants:
        M, P = family.raising_operator(vname), family.lowering_operator(vname)
        for n in range(max_n + 1):
            mn = family.egf_member(n)
            up, down = M.apply(mn), P.apply(mn)
            for norm in norms:
                c = math.factorial(n) if norm == "stored" else 1
                at = weighted[norm]
                out.append(compare("monomiality", f"raising/{vname}/{norm}",
                                   up * c, at(n + 1), n))
                out.append(compare("monomiality", f"lowering/{vname}/{norm}",
                                   down * c, at(n - 1) * n if n else MultiPoly.zero(), n))
            out.append(compare("monomiality", f"diffeq/{vname}/egf",
                               M.residual(down, n, mn), 0, n, "residual {}"))
        degree = min(8, family.order - 1)
        com = commutator_check(P, M, degree)
        out.append(Check("monomiality", f"commutator/{vname}/egf",
                         com.passed, com.detail, degree))
    return out


def _verdicts(checks):
    verdicts = {}
    for c in checks:
        verdicts[c.name] = verdicts.get(c.name, True) and c.passed
    return verdicts


def _first_failures(checks):
    """The first failing record of each name, and of all of them."""
    firsts = {}
    for c in checks:
        if not c.passed:
            firsts.setdefault(c.name, c)
            firsts.setdefault(None, c)
    return firsts


@pytest.mark.parametrize("fault", [None, "deriv-off-by-one", "theta-sign"],
                         ids=["correct", "deriv-off-by-one", "theta-sign"])
@pytest.mark.parametrize("pair,kind", [("hahn", "S"), ("laguerre", "R")])
def test_a_failed_identity_gets_no_further_record(plant, fault, pair, kind):
    if fault:
        FAULTS[fault].plant(plant)
    family = fam(get_pair(pair), kind, 2, 9)
    checks = family.verify_monomiality(6)
    failed = set()
    for c in checks:
        assert c.name not in failed, f"{c.name} n={c.n} follows its failing record"
        if not c.passed:
            failed.add(c.name)
    # settling a verdict early changes no verdict and no first failure
    full = _reference_monomiality(family, 6)
    assert _verdicts(checks) == _verdicts(full)
    assert _first_failures(checks) == _first_failures(full)
    assert [c for c in full if c.name not in failed] == [
        c for c in checks if c.name not in failed]


def test_monomiality_suite_applies_each_operator_only_where_read(monkeypatch, fresh_memo):
    """Work-count guard: the printed R-kind variants fail every raising,
    lowering and diffeq identity by n <= 2, and no operator is applied to
    a member after that (1,512 applications when every n was applied)."""
    from shefferpoly import operators
    from shefferpoly.suites import suite_monomiality

    calls = 0
    apply = operators.LinOp.apply

    def counted(self, p):
        nonlocal calls
        calls += 1
        return apply(self, p)

    monkeypatch.setattr(operators.LinOp, "apply", counted)
    checks = suite_monomiality(order=12, max_n=8)
    assert checks and all(c.passed for c in checks)
    assert 0 < calls <= 1_148


def test_monomiality_is_reproducible():
    a = fam(LOWER_FACT).verify_monomiality(4)
    b = fam(LOWER_FACT).verify_monomiality(4)
    assert a == b
    assert [c.to_json_dict() for c in a] == [c.to_json_dict() for c in b]


# -- explicit representation ------------------------------------------------------------


def test_explicit_rep_empty_product():
    assert fam().explicit_member(0) == ONE


def test_explicit_rep_identity_n2():
    assert fam().explicit_member(2) == Y ** 2 + 2 * X + 2 * Z


def test_explicit_rep_equals_member_over_A0():
    for pair in (IDENTITY, LOWER_FACT, get_pair("peters")):
        f = fam(pair)
        a0 = pair.resolved(12).A.coeffs[0]
        for n in range(5):
            assert f.explicit_member(n) * a0 == f.member(n)


# -- operational representations ----------------------------------------------------------


def test_operational_identity_pair_n2():
    recs = {r.name: r for r in fam().operational_rep_check(2)}
    assert recs["sheffer-lift"].passed
    assert recs["z-restoration"].passed


def test_operational_n0_trivial():
    recs = fam().operational_rep_check(0)
    assert all(r.passed for r in recs)


def test_operational_lower_factorial_r3():
    f = fam(LOWER_FACT, "S", 3)
    recs = {r.name: r for r in f.operational_rep_check(4)}
    assert recs["sheffer-lift"].passed
    assert recs["z-restoration"].passed


def test_operational_r_kind_records_nonevaluable():
    recs = fam(IDENTITY, "R", 2).operational_rep_check(2)
    assert recs[0].name == "vacuum-lift-printed"
    assert not recs[0].passed
    assert "not evaluable" in recs[0].witness


# -- integral representation ------------------------------------------------------------------


def test_integral_rep():
    assert fam().integral_rep_check(0).passed
    assert fam().integral_rep_check(2).passed
    f = fam(LOWER_FACT, "S", 2)
    for n in range(4):
        assert f.integral_rep_check(n).passed
    r = fam(LOWER_FACT, "R", 2)
    for n in range(4):
        assert r.integral_rep_check(n).passed


def test_integral_rep_detects_a_dropped_term(plant):
    # the check compares against an independently generated family, so a
    # member with one term missing must fail it
    member = MixedFamily.member

    def dropped(self, n):
        terms = dict(member(self, n).terms)
        terms.pop(max(terms))
        return MultiPoly(terms)

    plant(MixedFamily, "member", dropped)
    for kind in ("S", "R"):
        for r in (2, 3):
            assert not fam(LOWER_FACT, kind, r).integral_rep_check(3).passed


# -- reductions ----------------------------------------------------------------------------------


def test_reduce_hermite_case():
    assert fam().reduce("ex8", 3).passed
    assert REDUCTIONS["ex8"].specialize(fam(), 3) == Y ** 3 + 6 * Y * Z


def test_reduce_trivial_n0():
    assert fam().reduce("ex2", 0).passed
    assert REDUCTIONS["ex2"].specialize(fam(), 0) == ONE


def test_reduce_legendre_P2():
    assert fam().reduce("ex10", 2).passed
    assert REDUCTIONS["ex10"].specialize(fam(), 2) == F(3, 2) * X ** 2 - F(1, 2)


def test_reduce_unknown_id():
    with pytest.raises(UnknownReduction):
        fam().reduce("ex99", 1)


def test_reduce_kind_mismatch():
    with pytest.raises(UnknownReduction):
        fam(kind="S").reduce("ex6", 1)


def test_reduce_r_mismatch():
    with pytest.raises(UnknownReduction):
        fam(r=3).reduce("ex8", 1)


@pytest.mark.parametrize("rid,kind,r", [
    ("ex1", "S", 2), ("ex2", "S", 2), ("ex3", "S", 2), ("ex4", "S", 2),
    ("ex5", "S", 1), ("ex7", "S", 2), ("ex8", "S", 2), ("ex9", "S", 2),
    ("ex10", "S", 2), ("ex11", "S", 3),
    ("ex6", "R", 2), ("ex3r", "R", 2), ("ex5r", "R", 1),
    ("ex9r", "R", 2), ("ex10r", "R", 1),
])
def test_reductions_hold_for_poisson_charlier(rid, kind, r):
    f = fam(get_pair("poisson-charlier"), kind, r)
    for n in range(6):
        assert f.reduce(rid, n).passed


# -- generating-function consistency through the operator route -----------------------------------


def test_series_reassembly_from_operator_route():
    # sum_n (M^n{1} * A(0)) t^n / n! equals the expanded product
    for pair in (IDENTITY, LOWER_FACT):
        f = fam(pair, "S", 2, order=8)
        series = f.generating_series()
        a0 = pair.resolved(8).A.coeffs[0]
        for n in range(7):
            want = f.explicit_member(n) * a0
            assert series[n] * math.factorial(n) == want


def test_associated_specialization():
    # dropping g (the A factor) from a pair leaves the family its f alone
    # generates: bernoulli2 and lower-factorial share f = e^t - 1
    b2 = get_pair("bernoulli2")
    assert b2.resolved(12).f == LOWER_FACT.resolved(12).f
    res = LOWER_FACT.resolved(12)
    assert res.A.coeffs[0] == 1 and all(c == 0 for c in res.A.coeffs[1:])
    from shefferpoly.families import leghp_phi, phi_coefficients

    # Phi(H) without A: sum_k phi_k H^k, phi_k the u^k coefficients of
    # C_0(-x u^2) exp(y u + z u^2)
    H = b2.resolved(12).H
    phi = phi_coefficients(leghp_phi("S", 2), 12)
    f_assoc = fam(LOWER_FACT, "S", 2)
    for n in range(7):
        got = sum((phi[k] * (H ** k).coeffs[n] for k in range(n + 1)),
                  MultiPoly.zero())
        assert got * math.factorial(n) == f_assoc.member(n)


def test_member_degree_bound():
    # every member has total degree <= n: each variable enters Phi with at
    # least one power of H, and A H^k starts at t^k
    for pair in (IDENTITY, LOWER_FACT, get_pair("hahn")):
        for kind in ("S", "R"):
            for r in (1, 2, 3):
                f = fam(pair, kind, r, order=10)
                for n in range(11):
                    assert f.member(n).total_degree() <= n


@pytest.mark.parametrize("name,params", [
    ("laguerre", {"alpha": F(-1, 2)}),
    ("generalized-hermite", {"nu": F(2), "k": F(3)}),
    ("peters", {"lambda": F(2), "mu": F(2)}),
    ("poisson-charlier", {"a": F(3, 2)}),
    ("shively", {"a": F(3)}),
])
def test_monomiality_holds_for_nondefault_parameters(name, params):
    pair = get_pair(name, params)
    for r in (1, 2):
        failures = [c for c in MixedFamily(pair, "S", r, 8).verify_monomiality(4)
                    if not c.passed]
        assert not failures, failures[0]


def test_inexact_rational_root_raises():
    with pytest.raises(ValueError):
        get_pair("peters", {"mu": F(1, 2)}).resolved(6)


def test_appell_specialization():
    # f = t turns the member into the A(t)-weighted base family:
    # member(n) = n! sum_j A_j [t^(n-j)] (base generating product)
    gh = get_pair("generalized-hermite")  # nu = 1, k = 2 gives f = t
    f = fam(gh, "S", 2, order=10)
    A = gh.resolved(10).A
    for n in range(7):
        acc = MultiPoly.zero()
        for j in range(n + 1):
            base = leghp_S(n - j, 2, 10) / math.factorial(n - j)
            acc = acc + base * A.coeffs[j]
        assert acc * math.factorial(n) == f.member(n)


@pytest.mark.parametrize("name,read", [
    ("MixedFamily.member", lambda: MixedFamily(get_pair("hahn"), "S", 2, 12).member(3)),
    ("sheffer_poly", lambda: sheffer_poly(get_pair("hahn"), 3, 12)),
    ("gould_hopper", lambda: gould_hopper(3, 2, 12)),
])
def test_cached_member_cannot_be_corrupted(name, read):
    # members are stored in the shared memo; a caller writing to what it
    # got must not change what the next caller reads
    m = read()
    before = str(m)
    m.terms[(9, 9, 9)] = F(1)
    m.terms.clear()
    with pytest.raises(AttributeError):
        m.terms = {}
    again = read()
    assert str(again) == before
    assert again == m and not again.is_zero


def test_printed_r_route_row_fails_once_the_route_is_evaluable(plant):
    # the row records that exp of the printed R-kind generator is not
    # evaluable; if the route ever evaluates, to the member or not, the row
    # must fail rather than keep passing
    from shefferpoly import mixed, suites

    def row():
        rows = [c for c in suites.suite_operational(order=6, max_n=0)
                if c.name == "R-kind printed route (recorded verdict)"]
        assert len(rows) == 1
        return rows[0]

    assert row().passed
    fam_r = MixedFamily(catalog()[0], "R", 2, 6)
    for result in (lambda p: p, lambda p: fam_r.egf_member(2)):
        plant(mixed, "exp_operator", lambda terms, p, cutoff=None, result=result: result(p))
        assert not row().passed
