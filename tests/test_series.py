"""Truncated-series calculus: frozen small cases and exactness properties.

Expected coefficient lists were computed by hand convolution / term-by-term
Taylor expansion before the engine existed and are asserted verbatim.
"""

import math
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
from shefferpoly.series import series_str


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


def test_negative_indices_are_rejected():
    # a negative index must not read or write from the top end
    with pytest.raises(ValueError):
        S(1, 2, 3, 4).coefficient(-1)
    with pytest.raises(ValueError):
        Series.monomial(5, -1, 3)
    with pytest.raises(ValueError):
        S(1, 2, 3, 4).divided_by_t(-1)


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


@pytest.mark.parametrize("s,text", [
    (Series.zero(3), "0 + O(t^4)"),
    (Series([-2, 1, 0, -1], 3), "-2 + t - t^3 + O(t^4)"),
    (Series([0, 1, -1], 2), "t - t^2 + O(t^3)"),
    (Series([0, -1, 1, F(-1, 2)], 3), "-t + t^2 - 1/2*t^3 + O(t^4)"),
    (Series([F(1, 3), F(-2, 5), 0, 4], 4), "1/3 - 2/5*t + 4*t^3 + O(t^5)"),
    (Series([-1, -1, -1], 2), "-1 - t - t^2 + O(t^3)"),
])
def test_series_rendering_edge_cases(s, text):
    # recorded before series_str shared the polynomial term renderer
    assert series_str(s) == text


# -- the integer representation against a plain list[Fraction] reference ------------


def _ref_mul(a, b):
    size = min(len(a), len(b))
    return [sum((a[i] * b[n - i] for i in range(n + 1)), F(0)) for n in range(size)]


def _ref_reciprocal(a):
    out = [1 / a[0]]
    for n in range(1, len(a)):
        out.append(-sum((a[k] * out[n - k] for k in range(1, n + 1)), F(0)) / a[0])
    return out


def _ref_exp(a):
    # n e_n = sum_k k a_k e_(n-k)
    out = [F(1)]
    for n in range(1, len(a)):
        out.append(sum((k * a[k] * out[n - k] for k in range(1, n + 1)), F(0)) / n)
    return out


def _ref_log(a):
    # a = exp(l): n a_n = sum_k k l_k a_(n-k), solved for l_n (a_0 = 1)
    out = [F(0)]
    for n in range(1, len(a)):
        out.append(a[n] - sum((k * out[k] * a[n - k] for k in range(1, n)), F(0)) / n)
    return out


def _ref_pow(a, q):
    # b = a^q satisfies a b' = q a' b: n b_n = sum_k ((q+1) k - n) a_k b_(n-k)
    out = [F(1)]
    for n in range(1, len(a)):
        out.append(sum((((q + 1) * k - n) * a[k] * out[n - k]
                        for k in range(1, n + 1)), F(0)) / n)
    return out


def _ref_compose(a, b):
    size = min(len(a), len(b))
    out = [F(0)] * size
    power = [F(1)] + [F(0)] * (size - 1)
    for k in range(size):
        out = [o + a[k] * p for o, p in zip(out, power)]
        power = _ref_mul(power, b[:size])
    return out


def _ref_inverse(f):
    # solve f(g) = t one coefficient at a time: [t^n] f(g) = f_1 g_n + (terms
    # in g_1 .. g_(n-1))
    g = [F(0), 1 / f[1]] + [F(0)] * (len(f) - 2)
    for n in range(2, len(f)):
        g[n] = -_ref_compose(f, g)[n] / f[1]
    return g


def _ref_str(a):
    pieces = []
    for k, c in enumerate(a):
        if not c:
            continue
        body = str(abs(c))
        if k:
            mono = "t" if k == 1 else f"t^{k}"
            body = mono if body == "1" else f"{body}*{mono}"
        if pieces:
            pieces.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return f"{' '.join(pieces) or '0'} + O(t^{len(a)})"


def _assert_represents(s, ref):
    nums, den = s._nums, s._den
    assert type(den) is int and den > 0
    assert all(type(n) is int for n in nums)
    assert math.gcd(den, *nums) == 1
    if not any(nums):
        assert den == 1
    assert s.order == len(ref) - 1 and len(nums) == len(ref)
    assert s.coeffs == ref
    assert [s.coefficient(n) for n in range(len(ref))] == ref
    assert str(s) == _ref_str(ref)
    twin = Series(ref, len(ref) - 1)
    assert s == twin and hash(s) == hash(twin)
    assert s.is_zero == (not any(ref))


_ref_coeffs = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.integers(-30, 30).map(F),
    st.sampled_from([F(0), F(1), F(-1), F(7, 360), F(-11, 24)]),
)
_ref_series = st.integers(0, 6).flatmap(
    lambda order: st.lists(_ref_coeffs, min_size=order + 1, max_size=order + 1))
_scalars = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-5, max_value=5, max_denominator=9))


@settings(max_examples=150, deadline=None)
@given(_ref_series, _ref_series, _scalars, st.integers(0, 3),
       st.fractions(min_value=-2, max_value=2, max_denominator=3),
       st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
def test_representation_matches_reference(a, b, c, k, q, f1):
    ra, rb, rc = a, b, F(c)
    p, s = Series(a), Series(b)
    _assert_represents(p, ra)
    _assert_represents(s, rb)
    size = min(len(ra), len(rb))
    _assert_represents(p + s, [x + y for x, y in zip(ra, rb)])
    _assert_represents(p - s, [x - y for x, y in zip(ra, rb)])
    _assert_represents(-p, [-x for x in ra])
    _assert_represents(p + c, [ra[0] + rc] + ra[1:])
    _assert_represents(c - p, [rc - ra[0]] + [-x for x in ra[1:]])
    _assert_represents(p * s, _ref_mul(ra, rb))
    _assert_represents(p * c, [x * rc for x in ra])
    _assert_represents(c * p, [x * rc for x in ra])
    if c:
        _assert_represents(p / c, [x / rc for x in ra])
    power = [F(1)] + [F(0)] * (len(ra) - 1)
    for _ in range(k):
        power = _ref_mul(power, ra)
    _assert_represents(p ** k, power)
    if ra[0] and k:
        _assert_represents(p ** -k, _ref_reciprocal(power))
    # calculus
    _assert_represents(p.derivative(),
                       [n * ra[n] for n in range(1, len(ra))] or [F(0)])
    _assert_represents(p.integrate(), [F(0)] + [x / (n + 1) for n, x in enumerate(ra)])
    _assert_represents(p.truncate(size - 1), ra[:size])
    shifted = Series([0] + b, len(b))
    _assert_represents(shifted.divided_by_t(), rb)
    if ra[0]:
        _assert_represents(p.reciprocal(), _ref_reciprocal(ra))
        _assert_represents(s / p, _ref_mul(rb, _ref_reciprocal(ra)))
    else:
        with pytest.raises(ZeroConstantTerm):
            p.reciprocal()
    delta = [F(0)] + rb[1:]
    _assert_represents(Series(delta).exp(), _ref_exp(delta))
    unit = [F(1)] + ra[1:]
    _assert_represents(Series(unit).log(), _ref_log(unit))
    _assert_represents(Series(unit).pow_fraction(q), _ref_pow(unit, q))
    _assert_represents(p.compose(Series(delta)), _ref_compose(ra, delta))
    f = [F(0), f1] + ra[2:]
    _assert_represents(Series(f).compositional_inverse(), _ref_inverse(f))
    # equality of different orders, and of a value with its own rebuild
    assert (p == s) == (ra == rb)
    assert p == Series(p.coeffs, p.order) and hash(p) == hash(Series(p.coeffs))
