"""Polynomial ring basics: exact arithmetic, rendering, substitution."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shefferpoly import MultiPoly, poly_latex

X = MultiPoly.var("x")
Y = MultiPoly.var("y")
Z = MultiPoly.var("z")


def small_polys(max_terms=4, max_exp=3):
    coeffs = st.fractions(
        min_value=-4, max_value=4, max_denominator=6).filter(lambda c: c != 0)
    exps = st.tuples(
        st.integers(0, max_exp), st.integers(0, max_exp), st.integers(0, max_exp))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(MultiPoly)


def test_construction_drops_zero_terms():
    p = MultiPoly({(1, 0, 0): F(0), (0, 1, 0): F(2)})
    assert p.terms == {(0, 1, 0): F(2)}
    assert MultiPoly.const(0).is_zero


def test_degree_arithmetic():
    p = X ** 2 * Y + Z
    q = Y ** 3
    assert p.total_degree() == 3
    assert (p * q).total_degree() == 6
    assert (p + q).total_degree() <= max(p.total_degree(), q.total_degree())
    assert MultiPoly.zero().total_degree() == -1
    assert p.degree_in("x") == 2 and p.degree_in("z") == 1


def test_scalar_interop():
    assert X + 1 == 1 + X
    assert 2 * X == X * 2
    assert X - X == 0
    assert (X * F(1, 2)) * 2 == X
    assert MultiPoly.const(F(3, 2)) == F(3, 2)


@settings(max_examples=60)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40)
@given(small_polys(), small_polys())
def test_product_degree(p, q):
    if not p.is_zero and not q.is_zero:
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()


def test_pow_matches_repeated_mul():
    p = X + 2 * Y - Z
    assert p ** 3 == p * p * p
    assert p ** 0 == 1


def test_substitute_plain():
    p = X ** 2 + Y
    assert p.substitute({"x": Y}) == Y ** 2 + Y
    assert p.substitute({"x": F(2), "y": F(0)}) == 4
    # simultaneous, not sequential
    q = X * Y
    assert q.substitute({"x": Y, "y": X}) == X * Y


def test_render_graded_lex():
    p = Y ** 2 + 2 * X + 2 * Z
    assert str(p) == "y^2 + 2*x + 2*z"
    assert str(X ** 2 - X) == "x^2 - x"
    assert str(MultiPoly.zero()) == "0"
    assert str(MultiPoly.const(F(-3, 2))) == "-3/2"
    assert str(F(3, 2) * X * Y ** 2) == "3/2*x*y^2"


def test_render_latex():
    p = Y ** 2 + F(1, 2) * X
    assert poly_latex(p) == "y^{2} + \\frac{1}{2}x"
    assert poly_latex(X ** 2 - X) == "x^{2} - x"


def test_rendering_is_deterministic():
    terms = {(2, 0, 0): F(1), (0, 2, 0): F(1), (1, 1, 0): F(1), (0, 0, 1): F(5)}
    a = MultiPoly(dict(terms))
    b = MultiPoly(dict(reversed(list(terms.items()))))
    assert str(a) == str(b) == "x^2 + x*y + y^2 + 5*z"


# -- the representation against a plain {exponents: Fraction} reference ----------
#
# The reference below shares no code with the package: a polynomial is a dict
# of nonzero Fraction coefficients, and every operation is written out term
# by term.


def _ref_clean(d):
    return {e: F(c) for e, c in d.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + c
    return _ref_clean(out)


def _ref_scale(a, c):
    return _ref_clean({e: v * c for e, v in a.items()})


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return _ref_clean(out)


def _ref_pow(a, k):
    out = {(0, 0, 0): F(1)}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_substitute(a, images):
    out = {}
    for e, c in a.items():
        term = {(0, 0, 0): c}
        for i, k in enumerate(e):
            term = _ref_mul(term, _ref_pow(images[i], k))
        out = _ref_add(out, term)
    return out


def _ref_str(a):
    if not a:
        return "0"
    pieces = []
    for e in sorted(a, key=lambda e: (-sum(e), -e[0], -e[1], -e[2])):
        c = a[e]
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip("xyz", e) if k)
        mag = abs(c)
        mag_text = str(mag.numerator) if mag.denominator == 1 else \
            f"{mag.numerator}/{mag.denominator}"
        body = mag_text if not mono else (mono if mag == 1 else f"{mag_text}*{mono}")
        if pieces:
            pieces.append(("- " if c < 0 else "+ ") + body)
        else:
            pieces.append(("-" if c < 0 else "") + body)
    return " ".join(pieces)


def _assert_represents(p, ref):
    """p holds exactly the reference polynomial, in reduced fields."""
    nums, den = p._nums, p._den
    assert den > 0
    assert all(n != 0 for n in nums.values())
    assert math.gcd(den, *nums.values()) == 1
    if not nums:
        assert den == 1
    assert all(type(n) is int for n in nums.values()) and type(den) is int
    assert p.terms == ref
    assert str(p) == _ref_str(ref)
    assert p == MultiPoly(ref) and hash(p) == hash(MultiPoly(ref))
    assert p.is_zero == (not ref)


_ref_coeffs = st.one_of(
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.integers(-30, 30).map(F),
    st.sampled_from([F(0), F(1), F(-1), F(7, 360), F(-11, 24)]),
)
_ref_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    _ref_coeffs, max_size=5)
_scalars = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-5, max_value=5, max_denominator=9))


@settings(max_examples=150, deadline=None)
@given(_ref_polys, _ref_polys, _scalars, st.integers(0, 3),
       st.lists(st.one_of(_ref_polys, _scalars), min_size=3, max_size=3),
       st.sets(st.sampled_from("xyz")))
def test_representation_matches_reference(a, b, c, k, images, replaced):
    ra, rb, rc = _ref_clean(a), _ref_clean(b), F(c)
    p, q = MultiPoly(a), MultiPoly(b)
    _assert_represents(p, ra)
    _assert_represents(q, rb)
    _assert_represents(p + q, _ref_add(ra, rb))
    _assert_represents(p - q, _ref_add(ra, _ref_scale(rb, -1)))
    _assert_represents(-p, _ref_scale(ra, -1))
    _assert_represents(p * q, _ref_mul(ra, rb))
    _assert_represents(p * c, _ref_scale(ra, rc))
    _assert_represents(c * p, _ref_scale(ra, rc))
    _assert_represents(p + c, _ref_add(ra, _ref_clean({(0, 0, 0): rc})))
    _assert_represents(c - p, _ref_add(_ref_clean({(0, 0, 0): rc}), _ref_scale(ra, -1)))
    if c:
        _assert_represents(p / c, _ref_scale(ra, 1 / rc))
    _assert_represents(p ** k, _ref_pow(ra, k))
    # a substitution replaces the chosen variables, by polynomials or scalars
    mapping, ref_images = {}, []
    for v, img, var in zip("xyz", images, ({(1, 0, 0): F(1)}, {(0, 1, 0): F(1)},
                                           {(0, 0, 1): F(1)})):
        if v not in replaced:
            ref_images.append(var)
            continue
        if isinstance(img, dict):
            mapping[v] = MultiPoly(img)
            ref_images.append(_ref_clean(img))
        else:
            mapping[v] = img
            ref_images.append(_ref_clean({(0, 0, 0): F(img)}))
    _assert_represents(p.substitute(mapping), _ref_substitute(ra, ref_images))
    # equality with scalars
    assert MultiPoly.const(c) == c and MultiPoly.const(c) == rc
    assert (p == c) == (ra == _ref_clean({(0, 0, 0): rc}))
    assert (p == rc) == (p == c)
    for e in [(0, 0, 0)] + list(ra):
        assert p.coeff(e) == ra.get(e, 0)
    assert p.constant_value() == ra.get((0, 0, 0), 0)


def test_values_are_immutable():
    p = X * F(2, 3) + Y
    before = str(p)
    p.terms[(9, 9, 9)] = F(1)
    p.terms.clear()
    with pytest.raises(AttributeError):
        p.terms = {}
    with pytest.raises(AttributeError):
        p.coefficients = {}
    assert str(p) == before
    assert p.terms is not p.terms
