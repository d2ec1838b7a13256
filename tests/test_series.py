"""Truncated-series calculus: frozen small cases and exactness properties.

Expected coefficient lists were computed by hand convolution / term-by-term
Taylor expansion before the engine existed and are asserted verbatim.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shefferpoly import (
    ConstantTermNotOne,
    MultiPoly,
    NonScalarCoefficient,
    NonzeroConstantTerm,
    NotDeltaSeries,
    OrderTooSmall,
    Series,
    ZeroConstantTerm,
)


def S(*coeffs, order=None):
    return Series([F(c) for c in coeffs], order)


def scalar_series(order=6):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(
        lambda cs: Series(cs, order))


# -- products ---------------------------------------------------------------------


def test_mul_difference_of_squares():
    one = Series.constant(F(1), 3)
    t = Series.t(3)
    assert (one + t) * (one - t) == S(1, 0, -1, 0)


def test_mul_identity():
    a = S(2, 3, 5, 7)
    assert a * Series.constant(F(1), 3) == a


def test_mul_geometric_squared():
    # (sum t^k)^2 = 1 + 2t + 3t^2 + 4t^3, by hand convolution
    g = S(1, 1, 1, 1)
    assert g * g == S(1, 2, 3, 4)


def test_mul_truncates_to_min_order():
    a = S(1, 1, 1, 1)          # order 3
    b = S(1, 1, order=5)       # order 5
    assert (a * b).order == 3


@settings(max_examples=40)
@given(scalar_series(), scalar_series(), scalar_series())
def test_series_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_series_rejects_polynomial_coefficients():
    # series are scalar; polynomial families live in the families module
    with pytest.raises(NonScalarCoefficient):
        Series([MultiPoly.var("y"), 1])
    assert issubclass(NonScalarCoefficient, TypeError)
    with pytest.raises(TypeError):
        Series.t(3) * MultiPoly.var("y")
    with pytest.raises(TypeError):
        Series.t(3) + MultiPoly.var("y")


# -- exp / log ----------------------------------------------------------------------


def test_exp_zero():
    assert Series.zero(4).exp() == S(1, 0, 0, 0, 0)


def test_exp_requires_zero_constant():
    with pytest.raises(NonzeroConstantTerm):
        S(1, 1).exp()


def test_log_one():
    assert Series.constant(F(1), 4).log() == Series.zero(4)


def test_log_mercator():
    one_plus_t = S(1, 1, 0, 0)
    assert one_plus_t.log() == S(0, 1, F(-1, 2), F(1, 3))


def test_log_exp_roundtrip():
    t = Series.t(6)
    assert t.exp().log() == t


def test_log_requires_unit_constant():
    with pytest.raises(ConstantTermNotOne):
        S(2, 1).log()


@settings(max_examples=40)
@given(scalar_series())
def test_exp_log_inverse_pair(a):
    a = Series([F(0)] + a.coeffs[1:], a.order)
    assert a.exp().log() == a


# -- reciprocal / powers ---------------------------------------------------------------


def test_reciprocal_geometric():
    assert (Series.constant(F(1), 3) - Series.t(3)).reciprocal() == S(1, 1, 1, 1)


def test_reciprocal_requires_unit():
    with pytest.raises(ZeroConstantTerm):
        Series.t(3).reciprocal()


def test_pow_binomial():
    one_plus_t = S(1, 1, 0)
    assert one_plus_t ** 2 == S(1, 2, 1)


@settings(max_examples=40)
@given(scalar_series())
def test_reciprocal_roundtrip(a):
    coeffs = [F(1)] + a.coeffs[1:]
    u = Series(coeffs, a.order)
    assert u * u.reciprocal() == Series.constant(F(1), a.order)


def test_pow_fraction_sqrt():
    s = (Series.constant(F(1), 6) - Series.t(6) * 4).pow_fraction(F(1, 2))
    assert s * s == Series.constant(F(1), 6) - Series.t(6) * 4


# -- composition ------------------------------------------------------------------------


def test_compose_identity_inner():
    a = S(5, -1, F(2, 7), 3)
    assert a.compose(Series.t(3)) == a


def test_compose_exp_log():
    N = 4
    e = Series.t(N).exp()
    log1p = (Series.constant(F(1), N) + Series.t(N)).log()
    assert e.compose(log1p) == S(1, 1, 0, 0, 0)


def test_compose_self_inverse_moebius():
    # t/(t-1) is its own compositional inverse
    N = 8
    t = Series.t(N)
    f = -(t * (Series.constant(F(1), N) - t).reciprocal())
    assert f.compose(f) == Series.t(N)


def test_compose_requires_delta_inner():
    with pytest.raises(NonzeroConstantTerm):
        S(1, 1).compose(S(1, 1))


# -- derivative / truncation -------------------------------------------------------------


def test_derivative():
    assert S(0, 0, 1).derivative() == S(0, 2)
    assert S(1, 2, 3, 4).derivative() == S(2, 6, 12)


def test_truncation_consistency():
    a = S(1, 2, 3, 4, 5, 6, order=5)
    b = S(0, 1, 1, 2, 3, 5, order=5)
    assert (a * b).truncate(3) == a.truncate(3) * b.truncate(3)
    c = Series([F(0)] + a.coeffs[1:], 5)
    assert c.exp().truncate(3) == c.truncate(3).exp()
    assert a.reciprocal().truncate(3) == a.truncate(3).reciprocal()
    assert c.compositional_inverse().truncate(3) == \
        c.truncate(3).compositional_inverse()


def test_coefficient_out_of_range():
    with pytest.raises(OrderTooSmall):
        S(1, 2).coefficient(5)


# -- compositional inverse ------------------------------------------------------------------


def test_inverse_identity():
    assert Series.t(5).compositional_inverse() == Series.t(5)


def test_inverse_exp_minus_one():
    N = 10
    f = Series.t(N).exp() - 1
    g = f.compositional_inverse()
    assert g == (Series.constant(F(1), N) + Series.t(N)).log()


def test_inverse_tan_is_arctan():
    N = 9
    # tan = sin/cos, arctan = sum (-1)^k t^(2k+1)/(2k+1)
    sin = Series([F(0), 1, 0, F(-1, 6), 0, F(1, 120), 0, F(-1, 5040), 0, F(1, 362880)], N)
    cos = Series([F(1), 0, F(-1, 2), 0, F(1, 24), 0, F(-1, 720), 0, F(1, 40320), 0], N)
    tan = sin * cos.reciprocal()
    arctan = Series([F(0), 1, 0, F(-1, 3), 0, F(1, 5), 0, F(-1, 7), 0, F(1, 9)], N)
    assert tan.compositional_inverse() == arctan


def test_inverse_requires_delta():
    with pytest.raises(NotDeltaSeries):
        S(1, 1).compositional_inverse()
    with pytest.raises(NotDeltaSeries):
        S(0, 0, 1).compositional_inverse()


@settings(max_examples=30, deadline=None)
@given(scalar_series(),
       st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
def test_inverse_roundtrip_both_directions(a, f1):
    f = Series([F(0), f1] + a.coeffs[2:], a.order)
    g = f.compositional_inverse()
    t = Series.t(a.order)
    assert f.compose(g) == t
    assert g.compose(f) == t


def test_series_rendering():
    assert str(S(1, 0, F(-1, 2))) == "1 - 1/2*t^2 + O(t^3)"
