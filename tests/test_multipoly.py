"""Polynomial ring basics: exact arithmetic, rendering, substitution."""

import math
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shefferpoly import BadExponent, MultiPoly, NonScalarCoefficient, poly_latex, poly_str
from shefferpoly.families import leghp_phi, phi_coefficients
from shefferpoly.multipoly import _sum, _wrap, lincomb
from shefferpoly.operators import scale

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


@pytest.mark.parametrize("c", [0, 3, F(-2, 3)], ids=["zero", "int", "fraction"])
def test_constant_hashes_as_its_scalar(c):
    p = MultiPoly.const(c)
    assert p == c and hash(p) == hash(c) == hash(F(c))
    assert len({p, c}) == 1 and {p: "poly"}[c] == "poly"


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


@pytest.mark.parametrize("key", ["X", "t", ""])
def test_substitute_refuses_a_key_that_is_not_a_variable(key):
    with pytest.raises(ValueError, match=f"cannot substitute '{key}'"):
        (X ** 2).substitute({"y": 1, key: 0})


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


# (polynomial, poly_str, poly_latex), recorded before the three renderers
# shared one term renderer
_RENDERED = [
    (MultiPoly.zero(), "0", "0"),
    (MultiPoly.const(F(-5, 2)), "-5/2", "-\\frac{5}{2}"),
    (X - 3, "x - 3", "x - 3"),
    (X ** 2 - X * Y + Z - 1, "x^2 - x*y + z - 1", "x^{2} - xy + z - 1"),
    (-X ** 3 + Y, "-x^3 + y", "-x^{3} + y"),
    (X * F(-1, 2) + Y * F(3, 4) - F(1, 2), "-1/2*x + 3/4*y - 1/2",
     "-\\frac{1}{2}x + \\frac{3}{4}y - \\frac{1}{2}"),
    (7 * X * Y * Z - Y ** 2 * F(2, 3) + 1, "7*x*y*z - 2/3*y^2 + 1",
     "7xyz - \\frac{2}{3}y^{2} + 1"),
]


@pytest.mark.parametrize("p,text,latex", _RENDERED)
def test_rendering_edge_cases(p, text, latex):
    assert poly_str(p) == text
    assert poly_latex(p) == latex


@pytest.mark.parametrize("c", [0.1, "1/3", Decimal("0.5")], ids=["float", "str", "decimal"])
def test_inexact_scalars_are_refused(c):
    # an exact engine takes int or Fraction only; a float is never converted
    # (MultiPoly.const(0.1) would be 3602879701896397/36028797018963968)
    builds = [
        lambda: MultiPoly({(1, 0, 0): c}),
        lambda: MultiPoly.const(c),
        lambda: MultiPoly.monomial((1, 0, 0), c),
        lambda: X / c,
        lambda: scale(c),
    ]
    for build in builds:
        with pytest.raises(NonScalarCoefficient):
            build()
    assert MultiPoly.const(F(1, 3)) / 2 == MultiPoly.const(F(1, 6))
    assert str(scale(F(-1, 2))) == "-1/2"


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


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(-5, 5), st.sampled_from([0, 10 ** 20, -7])),
                          _ref_polys), max_size=5),
       st.integers(1, 60))
def test_sum_of_scaled_images_matches_reference(images, den):
    """multipoly._sum against the reference: sum n * p over (n, p), over den."""
    ref = {}
    for n, a in images:
        ref = _ref_add(ref, _ref_scale(_ref_clean(a), n))
    fields = [(n, (MultiPoly(a)._nums, MultiPoly(a)._den)) for n, a in images]
    _assert_represents(_wrap(_sum(fields, den)), _ref_scale(ref, F(1, den)))


@st.composite
def _lincomb_parts(draw):
    """(a, b, reference) with a zero or of either sign, and b sharing a
    factor f with a and, when drawn, the polynomial's whole denominator."""
    ref = draw(_ref_polys)
    f = draw(st.sampled_from([1, 2, 3, 4, 6, 12, 360]))
    a = draw(st.one_of(st.just(0), st.integers(-20, 20))) * f
    b = draw(st.integers(1, 12)) * f * draw(st.sampled_from([1, MultiPoly(ref)._den]))
    return a, b, ref


# phi_0..phi_6 of the S-kind hybrid Phi at r = 2, each weighted-homogeneous
# of its own degree, so no two share a monomial
_GRADED = [p.terms for p in phi_coefficients(leghp_phi("S", 2), 6)]


@st.composite
def _graded_parts(draw):
    """Scaled distinct phi_k of a small Phi: parts with disjoint monomials,
    the sums ``lincomb`` writes in one pass."""
    ks = draw(st.lists(st.integers(0, len(_GRADED) - 1), unique=True, max_size=len(_GRADED)))
    return [(draw(st.integers(-20, 20)) * 6, draw(st.integers(1, 12)) * 6, _GRADED[k])
            for k in ks]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(_lincomb_parts(), max_size=6), _graded_parts()))
def test_lincomb_matches_reference(parts):
    """multipoly.lincomb against the reference: sum (a/b) * p, reduced,
    for parts that overlap and for graded parts that do not."""
    ref = {}
    for a, b, r in parts:
        ref = _ref_add(ref, _ref_scale(_ref_clean(r), F(a, b)))
    _assert_represents(lincomb((a, b, MultiPoly(r)) for a, b, r in parts), ref)


@pytest.mark.parametrize("parts,expected", [
    ([(1, 1, X), (1, 1, X)], 2 * X),
    ([(3, 2, X), (0, 5, X * Y), (1, 3, Y)], X * F(3, 2) + Y / 3),
    ([(0, 1, X)], MultiPoly.zero()),
    ([], MultiPoly.zero()),
], ids=["same-part-twice", "zero-scale-part", "only-zero-scale", "empty"])
def test_lincomb_small_cases(parts, expected):
    got = lincomb(parts)
    assert got == expected
    _assert_represents(got, expected.terms)


@pytest.mark.parametrize("key,build", [
    ((1.5, 0, 0), lambda k: MultiPoly({k: 1})),
    ((0, "2", 0), MultiPoly.monomial),
    ((-1, 0, 0), lambda k: MultiPoly({k: 2})),
    ((0, -3, 0), lambda k: MultiPoly.monomial(k, 0)),
    ((0, 0), MultiPoly.monomial),
    ((0, 0, 0, 5), lambda k: MultiPoly({k: 1})),
    (3, lambda k: MultiPoly({k: 1})),
], ids=["inexact", "str", "negative", "negative-zero-coeff", "short", "long", "not-a-tuple"])
def test_bad_exponent_keys_are_refused(key, build):
    # exponents are ints >= 0, exactly three; a bad key is never truncated,
    # parsed or cut, and the error names it
    with pytest.raises(BadExponent) as info:
        build(key)
    assert isinstance(info.value, ValueError)
    assert repr(key) in str(info.value)


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
