"""The mixed-family engine: members, quasi-monomial operators, exponential
and moment representations, and the reduction recipes."""

import math
from fractions import Fraction as F

import pytest

from shefferpoly import (
    MixedFamily,
    MultiPoly,
    UnknownReduction,
    deriv,
    get_pair,
    leghp_S,
    theta_operator,
)

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")
ONE = MultiPoly.const(1)

IDENTITY = get_pair("identity")
LOWER_FACT = get_pair("lower-factorial")


def fam(pair=IDENTITY, kind="S", r=2, order=12):
    return MixedFamily(pair, kind, r, order)


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


def test_member_weights():
    f_s = fam(kind="S")
    f_r = fam(kind="R")
    assert f_s.weight(3) == 6
    assert f_r.weight(3) == 36
    assert f_r.egf_member(3) == f_r.member(3) / 6


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


# -- monomiality reports ----------------------------------------------------------------


def test_monomiality_identity_all_pass():
    report = fam().verify_monomiality(8)
    assert report.core_pass
    assert not report.failures()


def test_monomiality_bernoulli2_r3():
    report = fam(get_pair("bernoulli2"), "S", 3).verify_monomiality(6)
    assert report.core_pass


def test_monomiality_max_n_zero():
    report = fam().verify_monomiality(0)
    assert report.core_pass
    raising = [r for r in report.records if r.identity == "raising"]
    assert len(raising) == 1 and raising[0].n == 0


def test_r_kind_report_has_definite_verdicts():
    report = fam(IDENTITY, "R", 2, 10).verify_monomiality(5)
    verdicts = {}
    for rec in report.records:
        key = (rec.identity, rec.variant, rec.normalization)
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
    identities = {(r.identity, r.variant) for r in report.records}
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
            assert rep.passing(ident, "theta", "egf"), (pair.name, ident)


def test_r_rows_fail_when_theta_loses_its_sign(monkeypatch):
    # Theta without its -1 breaks every theta-variant identity at egf
    # weight; the R-kind rows assert those, so each one must now FAIL
    from shefferpoly import mixed
    from shefferpoly.operators import compose, mul_var
    from shefferpoly.suites import suite_monomiality

    monkeypatch.setattr(mixed, "theta_operator",
                        lambda: compose(deriv("x"), mul_var("x"), deriv("x")))
    rep = fam(LOWER_FACT, "R", 2, 4).verify_monomiality(1)
    for ident in ("raising", "lowering", "diffeq", "commutator"):
        assert not rep.passing(ident, "theta", "egf"), ident
    assert not rep.core_pass
    rows = suite_monomiality(order=4, max_n=1)
    r_rows = [c for c in rows if "R-kind" in c.name]
    s_rows = [c for c in rows if "S-kind" in c.name]
    assert len(r_rows) == 28 and not any(c.passed for c in r_rows)
    assert len(s_rows) == 28 and all(c.passed for c in s_rows)


def test_report_json_round_trip():
    import json

    report = fam().verify_monomiality(2)
    data = json.loads(report.to_json())
    assert data["pair"] == "identity"
    assert data["core_pass"] is True
    assert len(data["checks"]) == len(report.records)


def test_monomiality_is_reproducible():
    a = fam(LOWER_FACT).verify_monomiality(4)
    b = fam(LOWER_FACT).verify_monomiality(4)
    assert a.to_json() == b.to_json()


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
    recs = {r.identity: r for r in fam().operational_rep_check(2)}
    assert recs["sheffer-lift"].passed
    assert recs["z-restoration"].passed


def test_operational_n0_trivial():
    recs = fam().operational_rep_check(0)
    assert all(r.passed for r in recs)


def test_operational_lower_factorial_r3():
    f = fam(LOWER_FACT, "S", 3)
    recs = {r.identity: r for r in f.operational_rep_check(4)}
    assert recs["sheffer-lift"].passed
    assert recs["z-restoration"].passed


def test_operational_r_kind_records_nonevaluable():
    recs = fam(IDENTITY, "R", 2).operational_rep_check(2)
    assert recs[0].identity == "vacuum-lift-printed"
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


def test_integral_rep_detects_a_dropped_term(monkeypatch):
    # the check compares against an independently generated family, so a
    # member with one term missing must fail it
    member = MixedFamily.member

    def dropped(self, n):
        terms = dict(member(self, n).terms)
        terms.pop(max(terms))
        return MultiPoly(terms)

    monkeypatch.setattr(MixedFamily, "member", dropped)
    for kind in ("S", "R"):
        for r in (2, 3):
            assert not fam(LOWER_FACT, kind, r).integral_rep_check(3).passed


# -- reductions ----------------------------------------------------------------------------------


def test_reduce_hermite_case():
    res = fam().reduce("ex8", 3)
    assert res.equal
    assert res.specialized == Y ** 3 + 6 * Y * Z


def test_reduce_trivial_n0():
    res = fam().reduce("ex2", 0)
    assert res.equal and res.specialized == ONE


def test_reduce_legendre_P2():
    res = fam().reduce("ex10", 2)
    assert res.equal
    assert res.specialized == F(3, 2) * X ** 2 - F(1, 2)


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
        assert f.reduce(rid, n).equal


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
        report = MixedFamily(pair, "S", r, 8).verify_monomiality(4)
        assert not report.failures(), report.failures()[0]


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
