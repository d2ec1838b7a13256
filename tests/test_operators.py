"""Operator calculus: monomial action rules, nilpotency cutoffs, the
shift identity, and exponential operators."""

import json
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faults import FAULTS, SUITE_SIZES, off_by_one_deriv, verify_all
from shefferpoly import (
    CutoffRequired,
    MixedFamily,
    MultiPoly,
    NonNilpotentGenerator,
    NonScalarCoefficient,
    OpSeries,
    Series,
    catalog,
    commutator_check,
    compose,
    crofton_check,
    deriv,
    exp_operator,
    get_pair,
    identity,
    inv_deriv,
    mul_poly,
    mul_var,
    op_pow,
    op_sum,
    scale,
    substitute_operators,
    theta_operator,
)
from shefferpoly import memo, mixed, operators
from shefferpoly.multipoly import VARS, as_poly
from shefferpoly.operators import (
    LinOp,
    OperatorError,
    exp_generator,
    monomials_up_to,
)
from shefferpoly.series import OrderTooSmall
from shefferpoly.suites import run_all, suite_monomiality, suite_reductions

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")
ONE = MultiPoly.const(1)


def small_polys():
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
    return st.dictionaries(exps, coeffs, max_size=4).map(MultiPoly)


# -- primitive actions ---------------------------------------------------------


def test_monomial_rules():
    assert deriv("x").apply(X ** 3) == 3 * X ** 2
    assert deriv("x").apply(ONE).is_zero
    assert inv_deriv("x").apply(X ** 3) == X ** 4 / 4
    assert mul_var("x").apply(X ** 3) == X ** 4
    # each acts on its own variable only
    assert deriv("x").apply(X * Y ** 2) == Y ** 2


def test_inverse_derivative_vacuum():
    # InvDeriv(x)^n {1} = x^n / n!
    assert inv_deriv("x").apply(ONE) == X
    assert op_pow(inv_deriv("x"), 2).apply(ONE) == X * X / 2
    assert op_pow(inv_deriv("x"), 4).apply(ONE) == X ** 4 / 24


def test_hermite_one_step_raising():
    op = op_sum(mul_var("y"), F(2) * compose(mul_poly(Z), deriv("y")))
    assert op.apply(Y) == Y * Y + 2 * Z


def test_deriv_invderiv_identities():
    d, di = deriv("y"), inv_deriv("y")
    for m in monomials_up_to(10):
        assert compose(d, di).apply(m) == m
        if m.depends_on("y"):
            assert compose(di, d).apply(m) == m


@settings(max_examples=40)
@given(small_polys(), small_polys(),
       st.fractions(min_value=-3, max_value=3, max_denominator=3),
       st.fractions(min_value=-3, max_value=3, max_denominator=3))
def test_linearity(p, q, a, b):
    for op in (deriv("x"), inv_deriv("y"),
               compose(mul_var("z"), deriv("x")),
               op_sum(mul_var("x"), F(2) * deriv("y"))):
        assert op.apply(p * a + q * b) == op.apply(p) * a + op.apply(q) * b


# -- operator series ----------------------------------------------------------------


def test_op_series_constant_one_is_identity():
    h = Series.constant(F(1), 6)
    p = X ** 2 * Y + Z
    assert OpSeries(h, deriv("y")).apply(p) == p


def test_op_series_taylor_shift():
    # e^t at d/dy shifts y by 1
    h = Series.t(6).exp()
    assert OpSeries(h, deriv("y")).apply(Y ** 2) == Y ** 2 + 2 * Y + 1
    shifted = OpSeries(h, deriv("y")).apply(Y ** 3 - Y)
    assert shifted == (Y + 1) ** 3 - (Y + 1)


def test_op_series_plain_derivative():
    h = Series.t(6)
    for n in range(1, 6):
        assert OpSeries(h, deriv("y")).apply(Y ** n) == n * Y ** (n - 1)


def test_op_series_cutoff_required():
    h = Series.t(6).exp()
    with pytest.raises(CutoffRequired):
        OpSeries(h, inv_deriv("y")).apply(Y)
    # explicit cutoff unblocks it
    got = OpSeries(h, inv_deriv("y"), cutoff=2).apply(ONE)
    assert got == ONE + Y + Y * Y / 4


def test_op_series_deltas_keep_the_degree_it_lowers_and_bound_none_it_raises():
    h = Series.t(6).exp()
    # the k = 0 identity term keeps every degree the base lowers
    assert OpSeries(h, deriv("y")).deltas() == {"x": 0, "y": 0, "z": 0}
    assert OpSeries(h, compose(mul_var("x"), deriv("y"))).deltas() == {
        "x": None, "y": 0, "z": 0}


@pytest.mark.parametrize("apply,error", [
    (lambda h: OpSeries(h, OpSeries(h, deriv("y"))).apply(Y ** 2), CutoffRequired),
    (lambda h: exp_operator([(1, OpSeries(h, deriv("y")))], Y ** 2), NonNilpotentGenerator),
], ids=["series-base", "exp-generator"])
def test_a_series_lowers_no_degree_so_it_is_no_base_or_generator(apply, error):
    with pytest.raises(error):
        apply(Series.t(6).exp())


# -- commutators ----------------------------------------------------------------------


def test_weyl_commutator():
    assert commutator_check(deriv("x"), mul_var("x"), 6).passed


def test_self_commutator_fails_with_witness():
    rep = commutator_check(deriv("x"), deriv("x"), 3)
    assert not rep.passed
    assert rep.witness == "FAIL at 1: commutator gives 0"


def test_gould_hopper_operator_commutator():
    # s = 2 family operators: M = x + 2 y d/dx, P = d/dx
    M = op_sum(mul_var("x"), F(2) * compose(mul_var("y"), deriv("x")))
    assert commutator_check(deriv("x"), M, 6).passed


def test_negative_commutator_degree_is_rejected():
    # a negative degree tests no monomial, so [d_y, d_y] = 0 would pass
    with pytest.raises(ValueError, match="test degree must be >= 0"):
        commutator_check(deriv("y"), deriv("y"), -1)


# -- the shift identity ----------------------------------------------------------------


def test_crofton_hand_cases():
    # each side equals the other, so the exponential side pins the value
    d2 = op_pow(deriv("y"), 2)
    assert crofton_check(2, Z, Y ** 2).passed
    assert exp_operator([(Z, d2)], Y ** 2) == Y ** 2 + 2 * Z
    assert crofton_check(2, Z, ONE).passed  # constant f
    assert crofton_check(2, Z, Y ** 3).passed
    assert exp_operator([(Z, d2)], Y ** 3) == Y ** 3 + 6 * Z * Y
    for bad in (X * Y, Y + Z):
        with pytest.raises(OperatorError, match="must involve y only"):
            crofton_check(2, Z, bad)
    with pytest.raises(OperatorError, match="free of y"):
        crofton_check(2, Y, Y ** 2)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("lam", [Z, 2 * Z, Z * Z], ids=["z", "2z", "z^2"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_crofton_grid(m, lam, k):
    assert crofton_check(m, lam, Y ** k).passed


# -- exponential operators ----------------------------------------------------------------


def test_exp_operator_single_term():
    assert exp_operator([(Z, op_pow(deriv("y"), 2))], Y ** 2) == Y ** 2 + 2 * Z
    assert exp_operator([(F(1), compose(inv_deriv("x"), op_pow(deriv("y"), 2)))],
                        Y ** 2) == Y ** 2 + 2 * X


def test_exp_operator_on_constant():
    assert exp_operator([(Z, deriv("y"))], ONE) == ONE


def test_exp_operator_two_commuting_terms():
    got = exp_operator(
        [(F(1), compose(inv_deriv("x"), op_pow(deriv("y"), 2))),
         (Z, op_pow(deriv("y"), 2))],
        Y ** 2)
    assert got == Y ** 2 + 2 * X + 2 * Z


def test_exp_operator_rejects_non_nilpotent():
    cases = [
        ([(F(1), compose(inv_deriv("y"), deriv("y")))], Y),
        ([(F(1), inv_deriv("x"))], ONE),
        # each term lowers a variable, but no variable is lowered by both
        ([(F(1), deriv("x")), (Z, deriv("y"))], X * Y),
    ]
    for terms, p in cases:
        with pytest.raises(NonNilpotentGenerator) as exc:
            exp_operator(terms, p)
        # the operational suite prints this message in its recorded R-kind row
        assert str(exc.value) == ("no variable is lowered by every generator "
                                  "term; supply an explicit cutoff")


def test_exp_operator_explicit_cutoff():
    # exp(-D_x^{-1}){1} through degree 4 = truncated C_0(x)
    got = exp_operator([(F(-1), inv_deriv("x"))], ONE, cutoff=4)
    want = ONE - X + X ** 2 / 4 - X ** 3 / 36 + X ** 4 / 576
    assert got == want


# -- operator-valued substitution ------------------------------------------------------------


def test_substitute_operator_powers():
    # y^k -> (-D_x^{-1})^k {1} = (-x)^k / k!
    p = Y ** 3 + Y
    got = substitute_operators(p, {"y": compose(scale(-1), inv_deriv("x"))})
    assert got == -(X ** 3) / 6 - X


def test_substitute_mixed_plain_and_operator():
    # z -> y(d/dy)y applied to 1 gives k! y^k; x stays
    p = X * Z ** 2
    got = substitute_operators(
        p, {"z": compose(mul_var("y"), deriv("y"), mul_var("y"))})
    assert got == X * (2 * Y ** 2)


def test_substitute_operators_refuses_a_key_that_is_not_a_variable():
    with pytest.raises(ValueError, match="cannot substitute 'Y'"):
        substitute_operators(Y ** 2, {"Y": deriv("y")})


def _substitute_per_monomial(p, mapping):
    """The reference: the former second substitution routine, which built
    each monomial's image on its own and raised an operator image to its
    e-th power as the composition op_pow(op, e) applied to 1."""
    out = MultiPoly.zero()
    for exps, c in p.terms.items():
        term = MultiPoly.const(c)
        for v, e in zip(VARS, exps):
            if not e:
                continue
            image = mapping.get(v)
            if image is None:
                term = term * MultiPoly.var(v) ** e
            elif isinstance(image, LinOp):
                term = term * op_pow(image, e).apply(ONE)
            else:
                term = term * as_poly(image) ** e
        out = out + term
    return out


# operators of every kernel path: leaves, a shift composition, a many-term
# multiplication, a sum and an operator series
_OPERATOR_IMAGES = [
    lambda: inv_deriv("x"),
    lambda: compose(scale(-1), inv_deriv("x")),
    lambda: compose(mul_var("y"), deriv("y"), mul_var("y")),
    lambda: mul_poly(X + 2 * Z),
    lambda: op_sum(mul_var("y"), compose(scale(2), mul_var("z"), deriv("y"))),
    lambda: OpSeries(Series.t(3).exp(), inv_deriv("x"), cutoff=3),
]
_images = st.one_of(
    st.sampled_from(_OPERATOR_IMAGES).map(lambda make: make()),
    small_polys(),
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


@settings(max_examples=120, deadline=None)
@given(small_polys(), st.dictionaries(st.sampled_from(VARS), _images))
def test_substitute_matches_the_per_monomial_reference(p, mapping):
    # both build op^e {1} for an operator image, whatever the other factors
    # use, so they agree on every mapping, not only the sound ones
    assert p.substitute(mapping) == _substitute_per_monomial(p, mapping)
    assert substitute_operators(p, mapping) == p.substitute(mapping)


def test_substitute_refuses_a_float_image_or_a_bad_key_beside_an_operator():
    with pytest.raises(NonScalarCoefficient):
        (X * Y).substitute({"x": inv_deriv("x"), "y": 0.5})
    with pytest.raises(ValueError, match="cannot substitute 'w'"):
        (X * Y).substitute({"x": inv_deriv("x"), "w": Y})


def _substitute_by_products(p, mapping):
    """The reference: the former power-table route, which gave every
    variable a table, an absent one the identity's, and multiplied each
    monomial's entries as polynomials."""
    images = []
    for v in VARS:
        img = mapping.get(v)
        if img is None:
            img = MultiPoly.var(v)
        elif not (isinstance(img, MultiPoly) or callable(img)):
            img = MultiPoly.const(img)
        images.append(img)
    powers = [[ONE] for _ in VARS]

    def power(i, e):
        tab, img = powers[i], images[i]
        while len(tab) <= e:
            tab.append(img(tab[-1]) if callable(img) else tab[-1] * img)
        return tab[e]

    out = MultiPoly.zero()
    for exps, c in p.terms.items():
        term = MultiPoly.const(c)
        for i, e in enumerate(exps):
            if e:
                term = term * power(i, e)
        out = out + term
    return out


_nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
_monomials = st.builds(MultiPoly.monomial,
                       st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
                       _nonzero)
# the one-term images (0, constants, a variable, a scaled monomial, the
# powers of a weighted shift) and a two-term polynomial
_term_images = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    _nonzero,
    st.sampled_from(VARS).map(MultiPoly.var),
    _monomials,
    st.tuples(_monomials, _monomials).map(sum).filter(lambda q: len(q.terms) == 2),
    st.sampled_from([
        lambda: inv_deriv("x"),
        lambda: compose(scale(-1), inv_deriv("x")),
        lambda: compose(mul_var("y"), deriv("y"), mul_var("y")),
    ]).map(lambda make: make()),
)


@settings(max_examples=200, deadline=None)
@given(small_polys(), st.dictionaries(st.sampled_from(VARS), _term_images))
def test_substitute_matches_the_power_table_product_reference(p, mapping):
    # absent variables keep their exponents, one-term entries add theirs
    assert p.substitute(mapping) == _substitute_by_products(p, mapping)


def test_operator_rendering_is_stable():
    op = op_sum(mul_var("y"), F(2) * compose(inv_deriv("x"), deriv("y")))
    assert op.render() == "(y + 2∘D_x^-1∘d/dy)"
    assert identity().render() == "1"


# -- the memoized monomial kernel ---------------------------------------------------------
#
# The references below use plain MultiPoly arithmetic only: B^k p is built
# by repeated naive differentiation or antidifferentiation of the whole
# polynomial, independently of the operator classes.


def _naive_d(p, i):
    return MultiPoly({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                      for e, c in p.terms.items() if e[i]})


def _naive_int(p, i):
    return MultiPoly({e[:i] + (e[i] + 1,) + e[i + 1:]: c / (e[i] + 1)
                      for e, c in p.terms.items()})


def _exp_generator():
    # the generator exp_operator builds for exp(D_x^-1 d_y^2 + z d_y^2)
    return exp_generator([(F(1), compose(inv_deriv("x"), op_pow(deriv("y"), 2))),
                          (Z, op_pow(deriv("y"), 2))])


# (name, operator factory, naive one-step reference, explicit cutoff or None)
KERNEL_BASES = [
    ("d/dy", lambda: deriv("y"), lambda p: _naive_d(p, 1), None),
    ("theta", theta_operator, lambda p: -_naive_d(X * _naive_d(p, 0), 0), None),
    ("-d_x x d_y", lambda: compose(scale(-1), deriv("x"), mul_var("x"), deriv("y")),
     lambda p: -_naive_d(X * _naive_d(p, 1), 0), None),
    ("D_x^-1", lambda: inv_deriv("x"), lambda p: _naive_int(p, 0), 3),
    # zero step: every power maps x^e back to a multiple of x^e
    ("x d/dx", lambda: compose(mul_var("x"), deriv("x")),
     lambda p: X * _naive_d(p, 0), 3),
    ("exp generator", _exp_generator,
     lambda p: _naive_int(_naive_d(_naive_d(p, 1), 1), 0)
     + Z * _naive_d(_naive_d(p, 1), 1), None),
]


def _naive_op_series(h, step, p, cutoff):
    out, cur, k = MultiPoly.zero(), p, 0
    while not cur.is_zero and k <= (h.order if cutoff is None else cutoff):
        out = out + cur * h.coeffs[k]
        cur, k = step(cur), k + 1
    return out


def series_coeffs():
    return st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                    min_size=9, max_size=9)


@settings(max_examples=25, deadline=None)
@given(series_coeffs(), small_polys(), small_polys())
@pytest.mark.parametrize("name,make,step,cutoff", KERNEL_BASES,
                         ids=[b[0] for b in KERNEL_BASES])
def test_op_series_matches_naive_reference(name, make, step, cutoff, hs, p, q):
    h = Series(hs, 8)
    op = OpSeries(h, make(), cutoff)
    # the same instance on two polynomials reuses its memo
    for poly in (p, q, p + q):
        assert op.apply(poly) == _naive_op_series(h, step, poly, cutoff)


def test_memo_reuse_equals_fresh_instance():
    fam = MixedFamily(get_pair("hahn"), "R", 2, 12)
    p = fam.egf_member(4)
    q = fam.egf_member(5) + p * F(2, 3)  # shares every monomial of p
    for variant in ("printed", "theta"):
        M = fam.raising_operator(variant)
        M.apply(p)
        assert set(p.terms) <= set(M._images)
        assert M.apply(q) == fam.raising_operator(variant).apply(q)
        P = fam.lowering_operator(variant)
        assert P.apply(P.apply(q)) == fam.lowering_operator(variant).apply(
            fam.lowering_operator(variant).apply(q))


@pytest.mark.parametrize("make", [
    lambda: deriv("y"),
    lambda: compose(scale(-1), deriv("x"), mul_var("x"), deriv("y")),
    lambda: op_sum(mul_var("x"), F(2) * deriv("y")),
    lambda: OpSeries(Series.t(6).exp(), deriv("y")),
    lambda: OpSeries(Series.t(6).exp(), op_sum(deriv("y"), op_pow(deriv("y"), 2))),
], ids=["deriv", "shift-compose", "op-sum", "shift-series", "series"])
def test_a_full_memo_is_read_once_per_term_through_image_at(monkeypatch, fresh_memo, make):
    op = make()
    p = (X + Y + 1) ** 3 / 2
    want = op.apply(p)  # fills the memo
    reads = []
    image_at = operators.LinOp._image_at

    def counted(self, e):
        reads.append((self, e))
        return image_at(self, e)

    monkeypatch.setattr(operators.LinOp, "_image_at", counted)
    assert op.apply(p) == want
    assert sorted(e for _, e in reads) == sorted(p.terms)
    assert all(reader is op for reader, _ in reads)


# witnesses and commutator values recorded from the whole-polynomial
# operator code this kernel replaced, under the same planted faults
@pytest.mark.parametrize("wrong_at,pair,kind,variant,witness,got", [
    (lambda k: True, "hahn", "S", "printed", ONE, 2 * ONE),
    (lambda k: True, "laguerre", "R", "theta", ONE, 4 * ONE),
    (lambda k: k == 3, "identity", "S", "printed", Y ** 2, 2 * Y ** 2),
    (lambda k: k == 3, "hahn", "S", "printed", Y ** 2, 2 * Y ** 2 + F(2, 3)),
    (lambda k: k == 3, "laguerre", "R", "theta", X ** 2,
     F(10, 3) * X ** 2 - F(28, 3) * X + F(28, 3)),
], ids=["all-hahn-S", "all-laguerre-R", "k3-identity-S", "k3-hahn-S", "k3-laguerre-R"])
def test_off_by_one_deriv_fails_commutator_at_same_witness(
        plant, wrong_at, pair, kind, variant, witness, got):
    fam = MixedFamily(get_pair(pair), kind, 2, 12)
    assert commutator_check(fam.lowering_operator(variant),
                            fam.raising_operator(variant), 8).passed
    plant(operators.Deriv, "image", off_by_one_deriv(wrong_at))
    rep = commutator_check(fam.lowering_operator(variant),
                           fam.raising_operator(variant), 8)
    assert not rep.passed
    assert rep.witness == f"FAIL at {witness}: commutator gives {got}"


# -- weighted-shift compositions ----------------------------------------------------------


def _step(kind, arg, c):
    """One chain step: the operator and its naive whole-polynomial action."""
    if kind == "d":
        return deriv(VARS[arg]), lambda p: _naive_d(p, arg)
    if kind == "int":
        return inv_deriv(VARS[arg]), lambda p: _naive_int(p, arg)
    if kind == "mul":
        return mul_var(VARS[arg]), lambda p: p * MultiPoly.var(VARS[arg])
    if kind == "scale":
        return scale(c), lambda p: p * c
    mono = MultiPoly.monomial(arg, c)
    return mul_poly(mono), lambda p: p * mono


def chains():
    var = st.integers(0, 2)
    c = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    step = st.one_of(
        st.tuples(st.sampled_from(["d", "int", "mul"]), var, st.none()),
        st.tuples(st.just("scale"), st.none(), c),
        st.tuples(st.just("mono"),
                  st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)), c),
    )
    return st.lists(step, min_size=1, max_size=5)


def _chain(steps):
    """The composed chain of ``steps``, its naive action and the cutoff a
    series over it needs: none when it lowers a variable, else 3."""
    ops, refs = zip(*(_step(*s) for s in steps))
    chain = compose(*ops)

    def naive(poly):
        for ref in reversed(refs):
            poly = ref(poly)
        return poly

    lowers = any(dv is not None and dv <= -1 for dv in chain.deltas().values())
    return chain, naive, None if lowers else 3


@settings(max_examples=60, deadline=None)
@given(chains(), series_coeffs(), small_polys(), small_polys())
def test_shift_chain_matches_step_by_step(steps, hs, p, q):
    chain, naive, cutoff = _chain(steps)
    assert chain.shift
    h = Series(hs, 8)
    series = OpSeries(h, chain, cutoff)
    for poly in (p, q, p + q):
        assert chain.apply(poly) == naive(poly)
        assert series.apply(poly) == _naive_op_series(h, naive, poly, cutoff)


# (operator factory, input, error class, message); the messages are the
# ones the whole-polynomial operator code this kernel replaced raised
NESTED_SERIES_ERRORS = [
    (lambda: compose(mul_var("y"), OpSeries(Series.t(2).exp(), deriv("y"))),
     Y ** 5, OrderTooSmall, "operator series of order 2 applied where 5 terms are needed"),
    # checked on the intermediate y^3, not on the input y^2
    (lambda: compose(OpSeries(Series.t(2).exp(), deriv("y")), mul_var("y")),
     Y ** 2, OrderTooSmall, "operator series of order 2 applied where 3 terms are needed"),
    # the intermediate monomial x^5 y^5 needs five terms of a series in d/dx d/dy
    (lambda: compose(OpSeries(Series.t(3).exp(), compose(deriv("x"), deriv("y"))),
                     mul_poly(X ** 5 * Y ** 5)),
     ONE, OrderTooSmall, "operator series of order 3 applied where 5 terms are needed"),
    (lambda: op_sum(mul_var("x"), OpSeries(Series.t(2).exp(), deriv("y"))),
     Y ** 4, OrderTooSmall, "operator series of order 2 applied where 4 terms are needed"),
    (lambda: compose(mul_var("x"), OpSeries(Series.t(2).exp(), inv_deriv("y"), cutoff=4)),
     Y, OrderTooSmall, "operator series of order 2 applied where 4 terms are needed"),
    (lambda: compose(mul_var("x"), OpSeries(Series.t(4).exp(), inv_deriv("y"))),
     Y, CutoffRequired,
     "base operator D_y^-1 does not lower any degree; supply an explicit cutoff"),
    # x^5 and y^5 are memoized, yet x^5 y^5 beside them is checked
    (lambda: _memoized(OpSeries(Series.t(3).exp(), compose(deriv("x"), deriv("y"))),
                       [X ** 5, Y ** 5], mul_poly(X ** 5 + Y ** 5 + X ** 5 * Y ** 5)),
     ONE, OrderTooSmall, "operator series of order 3 applied where 5 terms are needed"),
    # y^2 is memoized, yet y^3 beside it in the intermediate y^2 + y^3 is checked
    (lambda: _memoized(OpSeries(Series.t(2).exp(), deriv("y")), [Y ** 2],
                       mul_poly(Y ** 2 + Y ** 3)),
     ONE, OrderTooSmall, "operator series of order 2 applied where 3 terms are needed"),
    # both read (1, 1, 1) over d/dy, but the cutoff keeps their memos apart: the
    # order-5 series at cutoff 2 fills its own, and the order-2 series at
    # cutoff 4 must still refuse
    (lambda: _memo_apart_from(OpSeries(Series([1, 1, 1, 0, 0, 0]), deriv("y"), cutoff=2),
                              OpSeries(Series([1, 1, 1]), deriv("y"), cutoff=4), Y ** 2),
     Y ** 2, OrderTooSmall, "operator series of order 2 applied where 4 terms are needed"),
    # the mirror: the order-2 series at cutoff 2 fills y^5's image, and the same
    # series with no cutoff, which needs 5 terms there, must still refuse
    (lambda: _after_filling(OpSeries(Series.t(2).exp(), deriv("y"), cutoff=2),
                            OpSeries(Series.t(2).exp(), deriv("y")), Y ** 5),
     Y ** 5, OrderTooSmall, "operator series of order 2 applied where 5 terms are needed"),
]


def _memoized(series, monomials, inner):
    """series after inner, once each of ``monomials`` has passed through series."""
    for m in monomials:
        series.apply(m)
        assert next(iter(m._nums)) in series._images
    return compose(series, inner)


def _after_filling(first, second, p):
    """second, once first has applied to p."""
    first.apply(p)
    return second


def _memo_apart_from(first, second, p):
    """second, once first has filled its own memo with p."""
    first.apply(p)
    assert second._images is not first._images and next(iter(p._nums)) in first._images
    return second


@pytest.mark.parametrize("make,p,exc,message", NESTED_SERIES_ERRORS)
def test_nested_op_series_keeps_its_checks(make, p, exc, message):
    with pytest.raises(exc) as info:
        make().apply(p)
    assert str(info.value) == message


def test_op_series_checks_each_monomial_not_the_sum(fresh_memo):
    """x^5 and y^5 each need no term of a series in d/dx d/dy past the
    first, so an order-3 series applies to x^5 + y^5, though a bound read
    from the whole sum would ask for five."""
    def series():
        return OpSeries(Series.t(3).exp(), compose(deriv("x"), deriv("y")))
    plain = compose(series(), mul_poly(X ** 5 + Y ** 5))
    assert plain.apply(ONE) == X ** 5 + Y ** 5
    memo.clear()
    nested = _memoized(series(), [X ** 5, Y ** 5], mul_poly(X ** 5 + Y ** 5))
    assert nested.apply(ONE) == X ** 5 + Y ** 5


@settings(max_examples=60, deadline=None)
@given(chains(), series_coeffs(), st.integers(0, 4), small_polys())
def test_op_series_applies_monomial_by_monomial(steps, hs, order, p):
    """A series over a shift chain sends a polynomial to the sum of its
    monomials' images, and refuses it exactly when it refuses one of them;
    what it does not refuse is exact, equal to the order-8 series' action."""
    chain, naive, cutoff = _chain(steps)
    series = OpSeries(Series(hs[:order + 1], order), chain, cutoff)

    def act(poly):
        try:
            return series.apply(poly)
        except OrderTooSmall:
            return None

    got = act(p)
    parts = [act(MultiPoly({e: c})) for e, c in p.terms.items()]
    if any(part is None for part in parts):
        assert got is None
    else:
        assert got == sum(parts, MultiPoly.zero())
        assert got == _naive_op_series(Series(hs, 8), naive, p, cutoff)


# one instance factory per LinOp subclass, and per multiplication factory
# (all MulPoly: the identity, a scaling, one term, many terms, a variable)
EVERY_OPERATOR = [
    ("identity", identity),
    ("scale", lambda: scale(F(2, 3))),
    ("mul_poly monomial", lambda: mul_poly(3 * Z)),
    ("mul_poly", lambda: mul_poly(X + 2 * Z)),
    ("mul_var", lambda: mul_var("y")),
    ("deriv", lambda: deriv("y")),
    ("inv_deriv", lambda: inv_deriv("y")),
    ("op_sum", lambda: op_sum(mul_var("x"), deriv("y"))),
    ("compose", lambda: compose(mul_var("x"), deriv("y"))),
    ("op_series", lambda: OpSeries(Series.t(6).exp(), deriv("y"))),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_operator_class_is_covered():
    assert {type(make()) for _, make in EVERY_OPERATOR} == set(_subclasses(LinOp))


@pytest.mark.parametrize("name,make", EVERY_OPERATOR, ids=[o[0] for o in EVERY_OPERATOR])
def test_applied_value_does_not_alias_the_memo(name, make):
    op = make()
    for p in (Y ** 2, X * Y ** 2 / 3 + Z):  # one unscaled monomial, and a sum
        got = op.apply(p)
        want = dict(got.terms)
        got.terms.clear()
        got.terms[(7, 7, 7)] = F(5)
        assert op.apply(p).terms == want
        assert make().apply(p).terms == want


def test_operator_classes_are_three_leaves_and_three_composites():
    assert {c.__name__ for c in _subclasses(LinOp)} == {
        "Deriv", "InvDeriv", "MulPoly", "OpSum", "Compose", "OpSeries"}


def test_scale_refuses_an_inexact_scalar():
    with pytest.raises(NonScalarCoefficient):
        scale(0.5)


def _family(pair, kind):
    return MixedFamily(get_pair(pair), kind, 2, 4)


RENDERED = dict(EVERY_OPERATOR) | {
    "theta": theta_operator,
    "exp generator": lambda: exp_generator([(1, deriv("y")), (X, op_pow(deriv("y"), 2))]),
    "laguerre/S M": lambda: _family("laguerre", "S").raising_operator(),
    "laguerre/S P": lambda: _family("laguerre", "S").lowering_operator(),
    "hahn/R printed M": lambda: _family("hahn", "R").raising_operator("printed"),
    "hahn/R printed P": lambda: _family("hahn", "R").lowering_operator("printed"),
    "hahn/R theta M": lambda: _family("hahn", "R").raising_operator("theta"),
    "hahn/R theta P": lambda: _family("hahn", "R").lowering_operator("theta"),
}

# a MulPoly prints a constant or a bare variable as it is, anything else as (p)
RENDERS = {
    "identity": "1",
    "scale": "2/3",
    "mul_poly monomial": "(3*z)",
    "mul_poly": "(x + 2*z)",
    "mul_var": "y",
    "deriv": "d/dy",
    "inv_deriv": "D_y^-1",
    "op_sum": "(x + d/dy)",
    "compose": "x∘d/dy",
    "op_series": "[1 + t + 1/2*t^2 + 1/6*t^3 + 1/24*t^4 + 1/120*t^5 + 1/720*t^6 + O(t^7)](d/dy)",
    "theta": "-1∘d/dx∘x∘d/dx",
    "exp generator": "(1∘d/dy + x∘d/dy∘d/dy)",
    "laguerre/S M": "(y + 2∘D_x^-1∘d/dy + 2∘z∘d/dy + [-1 - t - t^2 - t^3 + O(t^4)](d/dy))"
                    "∘[-1 + 2*t - t^2 + O(t^4)](d/dy)",
    "laguerre/S P": "[-t - t^2 - t^3 - t^4 + O(t^5)](d/dy)",
    "hahn/R printed M": "(-1∘D_x^-1 + D_y^-1 + 2∘z∘d/dy + [-t - 1/3*t^3 + O(t^4)](d/dy))"
                        "∘[1 - t^2 + O(t^4)](d/dy)",
    "hahn/R printed P": "[t + 1/3*t^3 + O(t^5)](-1∘d/dx∘x∘d/dy)",
    "hahn/R theta M": "(-1∘D_x^-1 + D_y^-1 + 2∘z∘-1∘d/dx∘x∘d/dx"
                      " + [-t - 1/3*t^3 + O(t^4)](-1∘d/dx∘x∘d/dx))"
                      "∘[1 - t^2 + O(t^4)](-1∘d/dx∘x∘d/dx)",
    "hahn/R theta P": "[t + 1/3*t^3 + O(t^5)](-1∘d/dx∘x∘d/dx)",
}


def test_renders_are_pinned():
    assert {name: make().render() for name, make in RENDERED.items()} == RENDERS


# -- read variables -------------------------------------------------------------------


def _family_operators():
    """(name, factory) of the raising and lowering operators of every kind
    and variant."""
    for pair, kind, variant in (("laguerre", "S", "printed"), ("hahn", "R", "theta"),
                                ("hahn", "R", "printed")):
        def fam(pair=pair, kind=kind):
            return MixedFamily(get_pair(pair), kind, 2, 8)
        yield (f"{pair}/{kind} {variant} M", lambda fam=fam, v=variant: fam().raising_operator(v))
        yield (f"{pair}/{kind} {variant} P", lambda fam=fam, v=variant: fam().lowering_operator(v))


_GENERATOR = exp_generator([(1, deriv("y")), (X, op_pow(deriv("y"), 2))])

# every operator class, MulPoly with one term and many, and operator series
# over shift and non-shift bases with and without a cutoff, some of which
# refuse large monomials
READS_CASES = EVERY_OPERATOR + [
    ("op_series shift cutoff", lambda: OpSeries(Series.t(4).exp(), inv_deriv("x"), cutoff=3)),
    ("op_series non-shift", lambda: OpSeries(Series.t(6).exp(), _GENERATOR)),
    ("op_series non-shift cutoff",
     lambda: OpSeries(Series.t(4).exp(), op_sum(mul_var("z"), deriv("y")), cutoff=3)),
    ("compose with series", lambda: compose(mul_var("z"), OpSeries(Series.t(2).exp(), deriv("y")))),
    ("op_series too short", lambda: OpSeries(Series.t(2).exp(), deriv("y"))),
    ("op_series cutoff past order", lambda: OpSeries(Series.t(2).exp(), inv_deriv("y"), cutoff=4)),
    ("op_series needs cutoff", lambda: OpSeries(Series.t(4).exp(), inv_deriv("y"))),
] + list(_family_operators())


DECLARED_READS = [
    ("identity", identity, set()), ("scale", lambda: scale(3), set()),
    ("mul_var", lambda: mul_var("z"), set()),
    ("mul_poly monomial", lambda: mul_poly(3 * Z), set()),
    ("mul_poly", lambda: mul_poly(X + Y * Z), set()),
    ("deriv", lambda: deriv("y"), {1}), ("inv_deriv", lambda: inv_deriv("z"), {2}),
    ("op_sum", lambda: op_sum(mul_var("x"), deriv("y"), inv_deriv("x")), {0, 1}),
    ("compose", lambda: compose(mul_var("x"), deriv("z")), {2}),
    ("op_series", lambda: OpSeries(Series.t(4).exp(), _GENERATOR), {1}),
    ("theta", theta_operator, {0}),
    ("S P", lambda: MixedFamily(get_pair("laguerre"), "S", 2, 8).lowering_operator(), {1}),
    ("S M", lambda: MixedFamily(get_pair("laguerre"), "S", 2, 8).raising_operator(), {0, 1}),
    ("R P", lambda: MixedFamily(get_pair("hahn"), "R", 2, 8).lowering_operator("theta"), {0}),
    ("R M", lambda: MixedFamily(get_pair("hahn"), "R", 2, 8).raising_operator("theta"), {0, 1}),
]


@pytest.mark.parametrize("make,want", [c[1:] for c in DECLARED_READS],
                         ids=[c[0] for c in DECLARED_READS])
def test_declared_read_variables(make, want):
    assert make().reads() == want


def test_undeclared_operator_reads_every_variable():
    assert LinOp.reads(deriv("y")) == {0, 1, 2}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([make for _, make in READS_CASES]),
       st.tuples(*[st.integers(0, 4)] * 3), st.tuples(*[st.integers(0, 4)] * 3))
def test_reads_is_sound(make, e, s):
    """For a shift s off the read variables, op(x^(e + s)) = x^s op(x^e),
    or both raise the same exception with the same message."""
    s = tuple(0 if i in make().reads() else k for i, k in enumerate(s))
    shifted = tuple(a + b for a, b in zip(e, s))
    assert _outcome(lambda: make().apply(MultiPoly.monomial(shifted))) == _outcome(
        lambda: MultiPoly.monomial(s) * make().apply(MultiPoly.monomial(e)))


# -- commutators and residuals against per-monomial references ---------------------------


def _reference_commutator(a, b, test_degree):
    """(passed, witness) of the commutator check, as a(b(m)) - b(a(m)) per
    monomial m through ``apply``."""
    for m in monomials_up_to(test_degree):
        got = a.apply(b.apply(m)) - b.apply(a.apply(m))
        if got != m:
            return False, f"FAIL at {m}: commutator gives {got}"
    return True, None


def _outcome(run):
    try:
        return run()
    except Exception as exc:  # the exception is part of the outcome compared
        return type(exc), str(exc)


# operator series that refuse some monomial: too short for y^3, an explicit
# cutoff above the order, a base that lowers nothing, and one nested
TOO_SHORT_SERIES = [
    lambda: OpSeries(Series.t(2).exp(), deriv("y")),
    lambda: OpSeries(Series.t(2).exp(), inv_deriv("y"), cutoff=4),
    lambda: OpSeries(Series.t(4).exp(), inv_deriv("y")),
    lambda: compose(mul_var("y"), OpSeries(Series.t(2).exp(), deriv("y"))),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([make for _, make in EVERY_OPERATOR] + TOO_SHORT_SERIES),
       st.sampled_from([make for _, make in EVERY_OPERATOR] + TOO_SHORT_SERIES),
       st.integers(0, 4))
def test_commutator_matches_the_per_monomial_reference(make_a, make_b, degree):
    def checked():
        rep = commutator_check(make_a(), make_b(), degree)
        return rep.passed, rep.witness

    assert _outcome(checked) == _outcome(lambda: _reference_commutator(make_a(), make_b(), degree))


def test_diffeq_residual_matches_apply_then_subtract():
    seen = 0
    for pair in catalog():
        for r in (2, 3):
            for kind, variants in (("S", ("printed",)), ("R", ("printed", "theta"))):
                fam = MixedFamily(pair, kind, r, 12)
                for variant in variants:
                    M, P = fam.raising_operator(variant), fam.lowering_operator(variant)
                    for n in range(4):
                        mn = fam.egf_member(n)
                        down = P.apply(mn)
                        assert M.residual(down, n, mn) == M.apply(down) - mn * n
                        seen += 1
    assert seen == 14 * 2 * 3 * 4


def _count_sums(monkeypatch):
    """A counter of ``operators._sum`` calls, read as ``counter[0]``."""
    counter = [0]
    total = operators._sum

    def counted(*args):
        counter[0] += 1
        return total(*args)

    monkeypatch.setattr(operators, "_sum", counted)
    return counter


def test_commutator_sums_once_per_test_monomial(monkeypatch, fresh_memo):
    """Work-count guard: a∘b(e) - b∘a(e) is one accumulator per monomial
    tested (three, 495 in all, when each side was reduced on its own).
    Neither operator reads z, so only the 45 z-free monomials of degree
    <= 8 are tested (all 165 before)."""
    fam = MixedFamily(get_pair("laguerre"), "S", 2, 12)
    P, M = fam.lowering_operator(), fam.raising_operator()
    assert commutator_check(P, M, 8).passed  # fills the memos
    calls = _count_sums(monkeypatch)
    assert commutator_check(P, M, 8).passed
    assert calls[0] == sum(not m.depends_on("z") for m in monomials_up_to(8)) == 45


def test_commutator_skips_only_variables_neither_operator_reads(monkeypatch, fresh_memo):
    # z is read here, so z is tested: [d_z, z + z^2 d_z] = 1 + 2 z d_z
    grow = op_sum(mul_var("z"), compose(mul_poly(Z ** 2), deriv("z")))
    rep = commutator_check(deriv("z"), grow, 2)
    assert not rep.passed and rep.witness == "FAIL at z: commutator gives 3*z"
    # one accumulator per tested monomial: all 165 when the pair reads
    # x, y and z, the 45 z-free ones when it reads only x and y.  A
    # composition's image sums too, so the memos are filled first
    for b, tested in ((op_sum(mul_var("x"), compose(deriv("y"), deriv("z"))), 165),
                      (op_sum(mul_var("x"), deriv("y")), 45)):
        assert commutator_check(deriv("x"), b, 8).passed  # fills the memos
        calls = _count_sums(monkeypatch)
        assert commutator_check(deriv("x"), b, 8).passed
        assert calls[0] == tested


def test_monomiality_suite_sums_few_commutator_images(monkeypatch, fresh_memo):
    """Work-count guard: the commutator rows of a fresh suite test only the
    monomials free of z, which no family operator reads (13,442 ``_sum``
    calls inside the commutator checks when every monomial was tested)."""
    calls = _count_sums(monkeypatch)
    inside = 0
    check = mixed.commutator_check

    def counted(*args):
        nonlocal inside
        before = calls[0]
        rep = check(*args)
        inside += calls[0] - before
        return rep

    monkeypatch.setattr(mixed, "commutator_check", counted)
    checks = suite_monomiality(order=12, max_n=8)
    assert checks and all(c.passed for c in checks)
    assert 0 < inside <= 4000


def test_monomiality_suite_bounds_few_degrees(monkeypatch, fresh_memo):
    """Work-count guard: an operator series never re-reads a single
    memoized monomial's degrees for its cutoff (42,448 bounds when every
    nested application re-checked)."""
    calls = 0
    bound = operators._degree_bound

    def counted(*args):
        nonlocal calls
        calls += 1
        return bound(*args)

    monkeypatch.setattr(operators, "_degree_bound", counted)
    checks = suite_monomiality(order=12, max_n=8)
    assert checks and all(c.passed for c in checks)
    assert 0 < calls <= 20_000


def test_explicit_cutoff_series_admits_each_monomial_once(monkeypatch, fresh_memo):
    """Work-count guard: a memoized monomial has passed the cutoff check,
    so a repeat single-monomial apply does not run it again."""
    calls = 0
    admit = OpSeries._admit

    def counted(self, exps):
        nonlocal calls
        calls += 1
        return admit(self, exps)

    monkeypatch.setattr(OpSeries, "_admit", counted)
    for base in (deriv("y"), exp_generator([(1, deriv("y"))])):  # shared memo and own
        op = OpSeries(Series.t(4).exp(), base, cutoff=3)
        calls = 0
        want = op.apply(Y ** 3)
        assert calls == 1
        assert all(op.apply(Y ** 3) == want for _ in range(3)) and calls == 1


# -- memo lifetimes -------------------------------------------------------------------


def test_weighted_shifts_share_one_memo_per_structure():
    assert deriv("y")._images is deriv("y")._images
    assert theta_operator()._images is theta_operator()._images
    assert mul_poly(3 * Z)._images is mul_poly(3 * Z)._images
    # the multiplication factories share the memo of their polynomial
    assert identity()._images is op_pow(deriv("x"), 0)._images is mul_poly(1)._images
    assert scale(F(2, 3))._images is mul_poly(F(2, 3))._images
    assert mul_var("z")._images is mul_poly(Z)._images
    deriv("y").apply(Y ** 30)
    assert (0, 30, 0) in deriv("y")._images  # filled through another instance
    for a, b in [(deriv("y"), deriv("x")), (deriv("y"), inv_deriv("y")),
                 (scale(F(1, 2)), scale(F(1, 3))), (theta_operator(), deriv("x"))]:
        assert a._images is not b._images
    # an operator series over a shift base shares the memo of its series and base
    h = Series.t(6).exp()
    assert OpSeries(h, deriv("y"))._images is OpSeries(Series.t(6).exp(), deriv("y"))._images
    assert OpSeries(h, theta_operator())._images is OpSeries(h, theta_operator())._images
    OpSeries(h, deriv("y")).apply(Y ** 5)
    assert (0, 5, 0) in OpSeries(h, deriv("y"))._images  # filled through another instance
    for a, b in [(OpSeries(h, deriv("y")), OpSeries(h * 2, deriv("y"))),
                 (OpSeries(h, deriv("y")), OpSeries(Series.t(7).exp(), deriv("y"))),
                 (OpSeries(h, deriv("y")), OpSeries(h, deriv("y"), cutoff=3)),
                 (OpSeries(h, deriv("y")), OpSeries(h, deriv("y"), cutoff=6)),
                 (OpSeries(h, deriv("y")), OpSeries(h, deriv("x"))),
                 (OpSeries(h, deriv("y")), OpSeries(h, op_pow(deriv("y"), 2)))]:
        assert a._images is not b._images
    # operators whose images depend on their whole tree keep their own memo
    generator = exp_generator([(1, deriv("y")), (X, op_pow(deriv("y"), 2))])
    for make in (lambda: OpSeries(h, generator),
                 lambda: op_sum(mul_var("x"), deriv("y")),
                 lambda: compose(mul_var("x"), OpSeries(h, deriv("y"))),
                 lambda: mul_poly(X + 2 * Z)):
        a, b = make(), make()
        a.apply(Y ** 3)
        assert a._images and not b._images


def test_replaced_deriv_image_reaches_every_operator_built_after_it(monkeypatch, plant):
    # the fault reaches every operator built in the planted store, and the
    # memos of the store before it never see the fault's images
    fam = MixedFamily(get_pair("hahn"), "S", 2, 12)

    def pair_check():
        return commutator_check(fam.lowering_operator("printed"),
                                fam.raising_operator("printed"), 8)

    assert pair_check().passed  # fills the shared memos with correct images
    before = deriv("y")
    FAULTS["deriv-off-by-one"].plant(plant)
    assert deriv("y")._images is not before._images
    assert deriv("y").apply(Y ** 40) == 41 * Y ** 39
    rep = pair_check()
    assert not rep.passed
    assert rep.witness == f"FAIL at {ONE}: commutator gives {2 * ONE}"
    monkeypatch.undo()
    assert deriv("y")._images is before._images
    assert pair_check().passed
    assert deriv("y").apply(Y ** 40) == 40 * Y ** 39


def test_replaced_series_image_reaches_every_operator_built_after_it(monkeypatch, plant):
    fam = MixedFamily(get_pair("hahn"), "S", 2, 12)
    f = get_pair("hahn").resolved(12).f

    def pair_check():
        return commutator_check(fam.lowering_operator("printed"),
                                fam.raising_operator("printed"), 8)

    assert pair_check().passed  # fills the shared series memos with correct images
    before = OpSeries(f, deriv("y"))
    assert before._images is fam.lowering_operator("printed")._images
    FAULTS["series-plus-identity"].plant(plant)
    assert fam.lowering_operator("printed")._images is not before._images
    assert OpSeries(f, deriv("y")).apply(Y * Z ** 9) == (
        (f.coeffs[0] + 1) * Y + f.coeffs[1]) * Z ** 9
    assert not pair_check().passed
    monkeypatch.undo()
    assert fam.lowering_operator("printed")._images is before._images
    assert pair_check().passed
    assert before.apply(Y * Z ** 9) == (f.coeffs[0] * Y + f.coeffs[1]) * Z ** 9


def test_monomiality_suite_computes_few_series_images(monkeypatch, fresh_memo):
    """Work-count guard: each operator-series image is computed once per
    structure, not once per family (23,408 with per-instance memos)."""
    calls = 0
    image = operators.OpSeries._image

    def counted(self, e):
        nonlocal calls
        calls += 1
        return image(self, e)

    monkeypatch.setattr(operators.OpSeries, "_image", counted)
    checks = suite_monomiality(order=8, max_n=3)
    assert checks and all(c.passed for c in checks)
    assert 0 < calls <= 10_000


def test_monomiality_suite_reads_few_leaf_images(monkeypatch, fresh_memo):
    """Work-count guard: every leaf image is read once per structure, not
    once per family (69,396 reads with per-instance memos)."""
    calls = 0

    def counting(image):
        def counted(self, e):
            nonlocal calls
            calls += 1
            return image(self, e)
        return counted

    for cls in _subclasses(LinOp):
        if "image" in vars(cls):
            monkeypatch.setattr(cls, "image", counting(cls.image))
    checks = suite_monomiality(order=8, max_n=3)
    assert checks and all(c.passed for c in checks)
    assert 0 < calls <= 2000


def test_threads_filling_the_shared_memos_agree(monkeypatch):
    fam = MixedFamily(get_pair("hahn"), "R", 2, 12)
    members = [fam.egf_member(n) for n in range(12)]

    def run():
        M, P = fam.raising_operator("theta"), fam.lowering_operator("theta")
        return [(M.apply(m), P.apply(m)) for m in members]

    want = run()
    monkeypatch.setattr(memo, "_STORE", {})  # the threads fill fresh memos
    results = [None] * 6

    def work(i):
        results[i] = run()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * len(results)


def test_fault_outside_the_read_variables_keeps_its_verdicts(plant):
    # the fault's row pins its verdicts; every S-kind row fails at raising
    FAULTS["dy-doubled-with-z"].plant(plant)
    code, report = verify_all()
    assert code == 1
    assert all(c["witness"].startswith("raising n=")
               for c in json.loads(report)["checks"]
               if c["suite"] == "monomiality" and not c["pass"])


def test_deriv_image_fault_rows_show_their_own_first_failure(plant):
    FAULTS["deriv-off-by-one"].plant(plant)
    code, report = verify_all()
    assert code == 1
    rows = {(c["suite"], c["name"]): c["witness"] for c in json.loads(report)["checks"]}
    assert rows["heat", "Gould-Hopper s=2: heat equation"] == "heat s=2 n=2"
    assert rows["heat", "Gould-Hopper s=2: exp(y d_x^2) x^n"] == "operational s=2 n=2"
    assert rows["heat", "Gould-Hopper s=2: raising/lowering"] == "raising s=2 n=1"
    assert rows["operational", "laguerre/S/r=2: sheffer-lift"] == (
        "n=2: got y^2 + 6*x - 4*y + 6*z + 2; expected y^2 + 2*x - 4*y + 2*z + 2")
    assert rows["operational", "laguerre/S/r=2: z-restoration"] == (
        "n=2: got y^2 + 2*x - 4*y + 6*z + 2; expected y^2 + 2*x - 4*y + 2*z + 2")


_DERIV_COMPOSITES = {
    "op_sum": lambda: op_sum(mul_var("x"), deriv("y")),
    "shift compose": lambda: compose(deriv("y"), mul_var("x"), deriv("y")),
    "compose": lambda: compose(mul_poly(X + 2 * Z), deriv("y")),
    "shift series": lambda: OpSeries(Series.t(6).exp(), deriv("y")),
    "series": lambda: OpSeries(Series.t(6).exp(), compose(deriv("y"), mul_poly(X + Z))),
}


def test_deriv_image_fault_reaches_every_composite(monkeypatch, plant):
    # each composite reads its d/dy leaves through Deriv.image, also when the
    # memos of the store before the plant hold the correct images
    want = {name: make().apply(Y ** 3) for name, make in _DERIV_COMPOSITES.items()}
    FAULTS["deriv-off-by-one"].plant(plant)
    got = {name: make().apply(Y ** 3) for name, make in _DERIV_COMPOSITES.items()}
    assert [name for name in got if got[name] == want[name]] == []
    assert got["op_sum"] == X * Y ** 3 + 4 * Y ** 2
    assert got["shift compose"] == 12 * X * Y
    assert got["compose"] == 4 * (X + 2 * Z) * Y ** 2
    assert got["shift series"] == Y ** 3 + 4 * Y ** 2 + 6 * Y + 4 * ONE
    monkeypatch.undo()
    assert {name: make().apply(Y ** 3) for name, make in _DERIV_COMPOSITES.items()} == want


# the planted kernel faults of faults.FAULTS; each fails every monomiality
# row of its matrix row, so one family's identities show it
KERNEL_FAULTS = ("deriv-off-by-one", "inv-deriv-constant", "series-plus-identity",
                 "compose-walk-plus-one", "mul-poly-squared")


@pytest.mark.parametrize("name", KERNEL_FAULTS)
def test_kernel_fault_fails_its_checks_and_leaves_no_trace(monkeypatch, plant, name):
    def failing(fam):
        return {c.name for c in fam.verify_monomiality(6) if not c.passed}

    assert FAULTS[name].failing["monomiality"] == SUITE_SIZES["monomiality"]
    before = MixedFamily(get_pair("hahn"), "S", 2, 12)
    assert failing(before) == set()
    FAULTS[name].plant(plant)
    assert "raising/printed/egf" in failing(MixedFamily(get_pair("hahn"), "S", 2, 12))
    monkeypatch.undo()
    # the images computed under the fault stayed in the planted store
    assert failing(before) == set()
    assert failing(MixedFamily(get_pair("hahn"), "S", 2, 12)) == set()


# -- ex9 reduction rows under kernel faults ------------------------------------------------


_EX9_ROWS = {"identity/ex9", "lower-factorial/ex9", "bernoulli2/ex9"}


def _failing_reductions():
    return {c.name for c in suite_reductions(12, 6) if not c.passed}


def test_compose_walk_fault_no_longer_reaches_the_ex9_rows(plant):
    # ex9's operator image is a bare InvDeriv, not a composition
    FAULTS["compose-walk-plus-one"].plant(plant)
    failing = _failing_reductions()
    assert len(failing) == 12 and not failing & _EX9_ROWS


def test_inv_deriv_fault_still_fails_every_ex9_row(plant):
    FAULTS["inv-deriv-constant"].plant(plant)
    assert _failing_reductions() >= _EX9_ROWS


def _leaves(key):
    """Every part of key that is not a container, at any depth."""
    if isinstance(key, (tuple, list, frozenset)):
        for part in key:
            yield from _leaves(part)
    else:
        yield key


def test_memo_keys_hold_structure_only(fresh_memo):
    assert all(c.passed for c in run_all(12))
    keys = list(memo._STORE)
    assert any(key[0] == "images" for key in keys)
    assert [key for key in keys
            if any(callable(p) and not isinstance(p, type) for p in _leaves(key))] == []
    # a Phi is named by plain data; only an operator's structure holds polynomials
    assert [key for key in keys if key[0] != "images"
            and any(isinstance(p, MultiPoly) for p in _leaves(key))] == []
