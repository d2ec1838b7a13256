"""Base family constructors against hand-evaluated finite sums, plus the
pair catalog's closed-form consistency checks."""

import io
import math
import subprocess
import sys
from contextlib import redirect_stdout
from decimal import Decimal
from fractions import Fraction as F

import pytest

from shefferpoly import (
    MultiPoly,
    NonScalarCoefficient,
    OrderTooSmall,
    Series,
    catalog,
    deriv,
    exp_operator,
    get_pair,
    gould_hopper,
    inv_deriv,
    leghp_R,
    leghp_S,
    legendre_R,
    legendre_S,
    op_pow,
    sheffer_poly,
    tricomi_c,
    umbral_pairing,
)
from shefferpoly.families import sheffer_matrix

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")
ONE = MultiPoly.const(1)


# -- Bessel-Tricomi -------------------------------------------------------------


def test_tricomi_c0_leading_terms():
    c0 = tricomi_c(0, 3)
    assert c0.coeffs == [F(1), F(-1), F(1, 4), F(-1, 36)]


def test_tricomi_c1_leading_terms():
    c1 = tricomi_c(1, 2)
    assert c1.coeffs == [F(1), F(-1, 2), F(1, 12)]


def test_tricomi_cn_at_zero():
    for n in range(5):
        assert tricomi_c(n, 4).coeffs[0] == F(1, math.factorial(n))


# -- closed-form coefficients of Phi ----------------------------------------------


def test_phi_exp_coefficients():
    from shefferpoly.families import exp_factor, phi_coefficients

    # exp(y u) at order 2: 1 + y u + (y^2/2) u^2, term-by-term Taylor
    assert phi_coefficients([exp_factor(Y)], 2) == [ONE, Y, Y * Y / 2]
    # exp(y u + z u^2) at order 2: matches the two-variable Hermite pattern
    assert phi_coefficients([exp_factor(Y), exp_factor(Z, 2)], 2) == \
        [ONE, Y, Y * Y / 2 + Z]


def test_phi_c0_and_geometric_coefficients():
    from shefferpoly.families import c0_compose, geometric, phi_coefficients

    # C_0(-x u^2) = 1 + x u^2 + x^2 u^4 / 4 + ...
    assert phi_coefficients([c0_compose(-X, 2)], 4) == \
        [ONE, MultiPoly.zero(), X, MultiPoly.zero(), X * X / 4]
    # 1/(1 - x u - y u^2): the multinomial sums x^2 + y at u^2, x^3 + 2 x y at u^3
    assert phi_coefficients([geometric((X, 1), (Y, 2))], 3) == \
        [ONE, X, X * X + Y, X ** 3 + 2 * X * Y]


def _reference_factor_terms(factor, order):
    """(power of u, coefficient) of every term of one factor through
    u^order, each term's closed-form weight written out again here."""
    kind, parts = factor
    terms = [(0, ONE, ())]
    for p, j in parts:
        grown = []
        for deg, poly, ms in terms:
            m = 0
            while deg + j * m <= order:
                grown.append((deg + j * m, poly, ms + (m,)))
                poly = poly * p
                m += 1
        terms = grown
    out = []
    for deg, poly, ms in terms:
        if kind == "exp":
            weight = F(1, math.factorial(ms[0]))
        elif kind == "c0":
            weight = F((-1) ** ms[0], math.factorial(ms[0]) ** 2)
        else:
            weight = F(math.factorial(sum(ms)), math.prod(map(math.factorial, ms)))
        out.append((deg, poly * weight))
    return out


def _reference_phi(factors, order):
    """[u^k] Phi(u), k = 0..order, as a product over every combination of
    the factors' terms, summed by degree at the end."""
    acc = [(0, ONE)]
    for factor in factors:
        acc = [(d1 + d2, p1 * p2)
               for d2, p2 in _reference_factor_terms(factor, order)
               for d1, p1 in acc if d1 + d2 <= order]
    phi = [MultiPoly.zero()] * (order + 1)
    for deg, poly in acc:
        phi[deg] = phi[deg] + poly
    return phi


def _every_phi():
    """(label, factors) of every Phi the package builds a member from."""
    from shefferpoly.families import c0_compose, exp_factor, geometric, leghp_phi
    from shefferpoly.mixed import REDUCTIONS

    out = []
    for kind in "SR":
        for r in (1, 2, 3):
            out.append((f"leghp-{kind}-r{r}", leghp_phi(kind, r)))
            out.append((f"integral-{kind}-r{r}",
                        leghp_phi(kind, r)[:-1] + (geometric((Z, r)),)))
    for name, recipe in sorted(REDUCTIONS.items()):
        for r in (1, 2, 3) if recipe.requires_r is None else (recipe.requires_r,):
            out.append((f"reduction-{name}-r{r}", recipe.phi(r)))
    for s in (2, 3):
        out.append((f"gould-hopper-s{s}", (exp_factor(X), exp_factor(Y, s))))
    out += [("legendre-S", (exp_factor(Y), c0_compose(-X, 2))),
            ("legendre-R", (c0_compose(X), c0_compose(-Y))),
            ("sheffer", (exp_factor(X),)),
            ("sheffer-y", (exp_factor(Y),)),
            ("oracle-exp-exp", (exp_factor(Y), exp_factor(Z, 2)))]
    return out


_EVERY_PHI = _every_phi()


@pytest.mark.parametrize("factors", [f for _, f in _EVERY_PHI],
                         ids=[label for label, _ in _EVERY_PHI])
def test_phi_coefficients_match_the_product_over_every_term(factors):
    """The degree-by-degree product against the product over every
    combination of the factors' terms, at orders 0, 1, 12 and 16."""
    from shefferpoly.families import phi_coefficients

    for order in (0, 1, 12, 16):
        assert phi_coefficients(factors, order) == _reference_phi(factors, order)


def test_graded_member_sums_never_accumulate_term_by_term(monkeypatch, fresh_memo):
    """Work-count guard: the phi_k of a hybrid Phi share no monomial, so
    neither they nor a member summed from them reach ``multipoly._sum``,
    the fallback for overlapping parts; the ex10 target's Phi, a function of
    (x^2 - 1)/4, is not graded, and its sums do."""
    from shefferpoly import MixedFamily, multipoly
    from shefferpoly.families import family_member
    from shefferpoly.mixed import REDUCTIONS

    calls = []
    total = multipoly._sum

    def counted(*args):
        calls.append(1)
        return total(*args)

    monkeypatch.setattr(multipoly, "_sum", counted)
    pair = get_pair("laguerre")
    for kind in "SR":
        fam = MixedFamily(pair, kind, 2, 16)
        for n in range(17):
            fam.member(n)
    assert not calls
    for n in range(17):
        family_member(("reduction", "ex10", 2), pair, lambda: REDUCTIONS["ex10"].phi(2),
                      n, 16, 1)
    assert calls


# -- Gould-Hopper ------------------------------------------------------------------


def test_gould_hopper_small_values():
    assert gould_hopper(0, 2) == ONE
    assert gould_hopper(2, 2) == X ** 2 + 2 * Y
    assert gould_hopper(3, 2) == X ** 3 + 6 * X * Y
    assert gould_hopper(3, 3) == X ** 3 + 6 * Y


def test_gould_hopper_heat_equation():
    # d/dy H_n^(s) = (d/dx)^s H_n^(s)
    for s in (2, 3, 4):
        for n in range(11):
            h = gould_hopper(n, s, 10)
            assert deriv("y").apply(h) == op_pow(deriv("x"), s).apply(h)


def test_gould_hopper_operational_identity():
    # exp(y (d/dx)^s) x^n = H_n^(s)
    for s in (2, 3, 4):
        for n in range(11):
            xn = MultiPoly.monomial((n, 0, 0))
            assert exp_operator([(Y, op_pow(deriv("x"), s))], xn) == \
                gould_hopper(n, s, 10)


# -- Legendre bases ------------------------------------------------------------------


def test_legendre_S_values():
    assert legendre_S(0) == ONE
    assert legendre_S(1) == Y
    assert legendre_S(2) == Y ** 2 + 2 * X


def test_legendre_R_values():
    assert legendre_R(0) == ONE
    assert legendre_R(1) == Y - X
    # closed sum (n!)^2 sum_s y^s (-x)^(n-s) / ((s!)^2 [(n-s)!]^2) at n=2
    want = sum(
        (MultiPoly.monomial((2 - s, s, 0),
                            F((-1) ** (2 - s) * 4, math.factorial(s) ** 2
                              * math.factorial(2 - s) ** 2))
         for s in range(3)),
        MultiPoly.zero(),
    )
    assert legendre_R(2) == want


def test_tricomi_exp_route_matches_legendre_R():
    # C_0(alpha x) = exp(-alpha D_x^{-1}){1}, truncated at matching degree
    for alpha in (F(1), F(-2), F(1, 3)):
        via_exp = exp_operator([(-alpha, inv_deriv("x"))], ONE, cutoff=6)
        series = tricomi_c(0, 6)
        direct = sum(
            ((X ** k) * (series.coeffs[k] * alpha ** k) for k in range(7)),
            MultiPoly.zero(),
        )
        assert via_exp == direct


# -- mixed bases -----------------------------------------------------------------------


def test_leghp_S_values():
    assert leghp_S(0, 2) == ONE
    assert leghp_S(2, 2) == Y ** 2 + 2 * X + 2 * Z
    assert leghp_R(0, 1) == ONE
    assert leghp_R(1, 1) == Z + Y - X


def test_leghp_S_x0_is_gould_hopper():
    for r in (1, 2, 3):
        for n in range(7):
            specialized = leghp_S(n, r, 8).substitute({"x": 0})
            renamed = specialized.substitute({"y": X, "z": Y})
            assert renamed == gould_hopper(n, r, 8)


def test_leghp_R_z0_is_legendre_R():
    for r in (1, 2, 3):
        for n in range(7):
            assert leghp_R(n, r, 8).substitute({"z": 0}) == legendre_R(n, 8)


def test_order_too_small():
    with pytest.raises(OrderTooSmall, match="^member 9 beyond truncation order 5$"):
        leghp_S(9, 2, 5)


def test_members_are_memoized_once_for_every_order(fresh_memo):
    assert leghp_S(5, 2, 8) is leghp_S(5, 2, 12)
    assert legendre_R(4, 6) is legendre_R(4)
    # a member cached at a larger order is still refused at a smaller one
    leghp_S(9, 2, 12)
    with pytest.raises(OrderTooSmall, match="^member 9 beyond truncation order 5$"):
        leghp_S(9, 2, 5)


def test_clearing_the_memo_returns_allocated_blocks_to_the_import_baseline():
    # counts the interpreter's allocated memory blocks: nothing is traced,
    # so the run goes at full speed
    script = """if True:
        import gc, sys
        from shefferpoly import memo
        from shefferpoly.suites import run_all, suite_monomiality
        gc.collect()
        base = sys.getallocatedblocks()
        run_all(order=12)
        suite_monomiality(order=16, max_n=12)
        full = sys.getallocatedblocks()
        memo.clear()
        gc.collect()
        print(base, full, sys.getallocatedblocks())
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    base, full, cleared = map(int, proc.stdout.split())
    assert full - base > 100_000  # the store did hold the run's values
    assert abs(cleared - base) < 1_000


def test_verify_all_builds_only_the_hybrid_members_it_reads(monkeypatch, fresh_memo):
    """Work-count guard: the suites read S- and R-kind members 0..9 at
    order 12 (monomiality raises member 8 to 9), so members 10..12 are
    never built."""
    from shefferpoly import families
    from shefferpoly.cli import main

    hybrid = [families.phi_coefficients(families.leghp_phi(kind, r), 12)
              for kind in "SR" for r in (2, 3)]
    built = []
    coefficient = families._coefficient

    def recording(cols, phi, n, weight):
        if phi in hybrid:
            built.append(n)
        return coefficient(cols, phi, n, weight)

    monkeypatch.setattr(families, "_coefficient", recording)
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--suite", "all", "--order", "12"]) == 0
    assert built and max(built) <= 9


def test_verify_all_builds_each_operator_piece_once_per_key(monkeypatch, fresh_memo):
    """Work-count guard: verify --suite all --order 12 builds the S-kind
    exponential routes once per r in (2, 3), and computes the raising
    factors once on each catalog pair's order-12 record and on no other,
    however many families read them; memo.clear() drops both, and the next
    read builds them again."""
    from collections import Counter
    from functools import cached_property

    from shefferpoly import MixedFamily, memo, mixed, pair_names, pairs
    from shefferpoly.cli import main

    built = Counter()
    stored = memo.memo

    def recording(key, make):
        def counted():
            built[key[0], key[1]] += 1
            return make()
        return stored(key, counted)

    computed = []
    factors = pairs.ResolvedPair.factors.func

    def counting(res):
        computed.append(res)
        return factors(res)

    counted_factors = cached_property(counting)
    counted_factors.__set_name__(pairs.ResolvedPair, "factors")
    monkeypatch.setattr(mixed, "memo", recording)
    monkeypatch.setattr(pairs.ResolvedPair, "factors", counted_factors)
    with redirect_stdout(io.StringIO()):
        assert main(["verify", "--suite", "all", "--order", "12"]) == 0
    assert {k: c for k, c in built.items() if k[0] == "exp-routes"} == {
        ("exp-routes", 2): 1, ("exp-routes", 3): 1}
    holding = [(key[1], key[3]) for key, res in memo._STORE.items()
               if key[0] == "resolved" and "factors" in vars(res)]
    assert sorted(holding) == sorted((name, 12) for name in pair_names())
    assert len(computed) == len(pair_names())

    memo.clear()
    assert not [k for k in memo._STORE if k[0] in ("exp-routes", "resolved")]
    built.clear()
    computed.clear()
    fam = MixedFamily(get_pair("laguerre"), "S", 2, 12)
    assert all(c.passed for c in fam.operational_rep_check(2))
    fam.raising_operator()
    assert built[("exp-routes", 2)] == 1 and len(computed) == 1


def test_a_member_builds_its_phi_only_on_a_miss(monkeypatch, fresh_memo):
    from shefferpoly import families

    calls = []
    leghp_phi = families.leghp_phi

    def counting(kind, r):
        calls.append((kind, r))
        return leghp_phi(kind, r)

    monkeypatch.setattr(families, "leghp_phi", counting)
    pair = get_pair("laguerre")
    for n in (3, 3, 5, 0):
        families.leghp_member(pair, "R", 2, n, 8)
    assert calls == [("R", 2)]
    # a member is kept for every order >= n; a new one at a new order misses
    families.leghp_member(pair, "R", 2, 3, 9)
    assert calls == [("R", 2)]
    families.leghp_member(pair, "R", 2, 6, 9)
    assert calls == [("R", 2)] * 2


def test_negative_member_index_is_rejected():
    # a negative n must not read a member from the end of the stored tuple
    from shefferpoly import MixedFamily

    with pytest.raises(ValueError, match="must be >= 0"):
        MixedFamily(get_pair("identity"), "S", 2, 4).member(-1)
    with pytest.raises(ValueError, match="must be >= 0"):
        sheffer_poly(get_pair("lower-factorial"), -1)
    with pytest.raises(ValueError, match="must be >= 0"):
        leghp_R(-1, 2, 4)


# -- Sheffer members -------------------------------------------------------------------


def test_sheffer_lower_factorial():
    lf = get_pair("lower-factorial")
    assert sheffer_poly(lf, 0) == ONE
    assert sheffer_poly(lf, 2) == X ** 2 - X
    assert sheffer_poly(lf, 3) == X ** 3 - 3 * X ** 2 + 2 * X


def test_sheffer_bernoulli_second_kind():
    b2 = get_pair("bernoulli2")
    assert sheffer_poly(b2, 1) == X + F(1, 2)


def test_sheffer_n0_is_A0():
    for pair in catalog():
        a0 = pair.resolved(4).A.coeffs[0]
        assert sheffer_poly(pair, 0, 4) == MultiPoly.const(a0)
        if pair.name != "peters":
            assert a0 == 1


# -- umbral pairing ---------------------------------------------------------------------


def test_pairing_defining_cases():
    t2 = Series.monomial(F(1), 2, 6)
    assert umbral_pairing(t2, X * X) == 2
    assert umbral_pairing(Series.t(6), X * X) == 0


def test_pairing_rejects_other_variables():
    with pytest.raises(ValueError):
        umbral_pairing(Series.t(4), Y)


def test_biorthogonality_lower_factorial():
    lf = get_pair("lower-factorial")
    res = lf.resolved(10)
    for n in range(7):
        sn = sheffer_poly(lf, n, 10)
        for k in range(7):
            val = umbral_pairing(res.g * res.f ** k, sn)
            assert val == (math.factorial(n) if n == k else 0)


# -- catalog ------------------------------------------------------------------------------


def test_catalog_has_fourteen_pairs():
    names = [p.name for p in catalog()]
    assert len(names) == 14
    assert names.index("generalized-hermite") == 0
    assert "identity" not in names


def test_catalog_specific_builders():
    pc = get_pair("poisson-charlier").build(6)
    e = Series.t(6).exp()
    assert pc.g == (e - 1).exp()
    assert pc.f == e - 1

    ml = get_pair("mittag-leffler").build(6)
    assert ml.f == (e - 1) * (e + 1).reciprocal()

    bessel = get_pair("bessel").build(6)
    t = Series.t(6)
    assert bessel.f == t - t * t * F(1, 2)

    hahn = get_pair("hahn").build(9)
    tan = hahn.f
    assert tan.coeffs[:6] == [F(0), F(1), F(0), F(1, 3), F(0), F(2, 15)]


def test_claimed_closed_forms_match_computed():
    # H = f^(-1) and A = 1/g(f^(-1)) for every pair that states them
    for pair in catalog():
        built = pair.build(12)
        res = pair.resolved(12)
        if built.claimed_H is not None:
            assert res.H == built.claimed_H, pair.name
        if built.claimed_A is not None:
            assert res.A == built.claimed_A, pair.name


def test_pair_f_is_delta_g_is_unit():
    for pair in catalog():
        built = pair.build(6)
        assert built.f.coeffs[0] == 0
        assert built.f.coeffs[1] != 0
        assert built.g.coeffs[0] != 0


def test_pair_param_override():
    pc = get_pair("poisson-charlier", {"a": F(2)})
    assert pc.resolved(4).f.coeffs[1] == 2
    assert get_pair("poisson-charlier", {"a": 2}).params == pc.params
    with pytest.raises(KeyError):
        get_pair("poisson-charlier", {"nu": F(1)})


@pytest.mark.parametrize("value", [0.1, "1/2", Decimal("0.5")], ids=["float", "str", "decimal"])
def test_pair_param_override_refuses_an_inexact_scalar(value):
    with pytest.raises(NonScalarCoefficient):
        get_pair("laguerre", {"alpha": value})


def test_cached_series_cannot_be_corrupted():
    # resolved pairs and Sheffer matrices are memoized and handed out as
    # they are, so a write through a returned value must not reach the cache
    hahn = get_pair("hahn")
    H = str(hahn.resolved(6).H)
    hahn.resolved(6).H.coeffs[3] = F(99)
    assert str(hahn.resolved(6).H) == H
    with pytest.raises(AttributeError):
        hahn.resolved(6).H.coeffs = [F(0)] * 7
    # parameters no other test uses, so nothing below is memoized yet
    pair = get_pair("poisson-charlier", {"a": F(7)})
    cols = sheffer_matrix(pair, 6)
    with pytest.raises(TypeError):
        cols[1][1] = F(5)
    cols[1].coeffs[1] = F(5)
    assert str(sheffer_poly(pair, 1, 6)) == "1/7*x - 1"
    assert sheffer_matrix(pair, 6)[1].coefficient(1) == F(1, 7)
