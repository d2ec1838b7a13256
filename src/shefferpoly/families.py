"""Polynomial families as lookups into one scalar Sheffer matrix.

Every family here is generated by A(t) * Phi(H(t)): a Sheffer pair supplies
the scalar series A and H (``ShefferPair.resolved``), and Phi(u) is a
product of closed-form factors in x, y, z.  The t^n coefficient is

    sum_k phi_k(x, y, z) * [t^n] A(t) H(t)^k,      phi_k = [u^k] Phi(u),

one column of the pair's Sheffer (exponential Riordan) matrix per power of
H, weighted by a polynomial read off the factors.  With v = p * u^j for a
polynomial p, the factors and their closed-form coefficients are

* exp(v)                          [v^m] = 1/m!
* C_0(v) = sum_m (-v)^m/(m!)^2    [v^m] = (-1)^m/(m!)^2   (Bessel-Tricomi)
* 1/(1 - v_1 - ... - v_s)         [v_1^m_1 ... v_s^m_s] = (m_1+...+m_s)!/(m_1!...m_s!)

The base families are the ``identity`` pair's case (A = 1, H = t):

* Gould-Hopper          exp(x t + y t^s)            = sum H_n^(s)(x,y) t^n/n!
* Legendre S            exp(y t) C_0(-x t^2)        = sum S_n(x,y) t^n/n!
* Legendre R            C_0(x t) C_0(-y t)          = sum R_n(x,y)/n! t^n/n!
* S-kind hybrid base    C_0(-x t^2) exp(y t + z t^r) = sum members t^n/n!
* R-kind hybrid base    C_0(x t) C_0(-y t) exp(z t^r), weight t^n/(n!)^2

and ``sheffer_poly`` is the one-factor case Phi = exp(x u).  R-kind values
are stored with the full (n!)^2 scale, i.e. ``leghp_R(n, r)`` is (n!)^2
times the t^n coefficient; callers that want the n!-normalised family
divide once.  The closed finite sums and the naive convolution in the
oracle module share neither the matrix nor the factor expansion, so they
remain a genuinely independent route.

The matrix is a tuple of its columns A*H^k, each an immutable ``Series``:
integer numerators over one denominator, held on the pair's resolved
record (``ResolvedPair.columns``) beside the series it is built from.  The phi_k are polynomials in the
same representation, and a member is one integer linear combination of
them (``multipoly.lincomb``) against the numerators and denominators of
the matrix entries, with the weight folded into each entry; no
``Fraction`` is built on the way.  ``lincomb`` reduces each entry's scale
against its phi_k's denominator by one gcd before the sum, so a member is
summed over about its own denominator, not over the lcm of every column's
and every phi_k's.

The phi_k are the truncated product of the factors taken degree by
degree: after each factor, phi_k is one ``lincomb`` over d <= k of
phi_(k-d) times that factor's degree-d term.  For every hybrid Phi, phi_k
is weighted-homogeneous of degree k (x, y, z weighing the powers of u they
come with), so no two phi_k share a monomial: each term of a member is one
product, and ``lincomb`` writes it once instead of accumulating.  A Phi
that is not graded (the Legendre P_n recipes' functions of (x^2 - 1)/4 and
(1 -+ x)/2) is summed the same way and takes ``lincomb``'s accumulating
branch.  Every member is ``family_member(key, pair, factors,
n, order, power)``, where the key names Phi as plain data, such as
("leghp", kind, r).  The phi_k are memoized per (Phi name, order) in the
``memo`` store, and the factors are built only when that entry is missing;
any n <= order reads its phi_0..phi_n from that one list.  The named
families (``leghp_member``, ``gould_hopper``, ``legendre_S``/``legendre_R``,
``sheffer_poly`` and the operational suite's s_n(y)) memoize each member
once per (Phi name, pair, n) for every order >= n, so none is built unasked.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .memo import memo
from .multipoly import MultiPoly, as_poly, lincomb
from .pairs import get_pair
from .series import OrderTooSmall, Series

_X = MultiPoly.var("x")
_Y = MultiPoly.var("y")
_Z = MultiPoly.var("z")

_IDENTITY = get_pair("identity")


def tricomi_c(n: int, order: int) -> Series:
    """The order-n Bessel-Tricomi function as a series in its argument:
    C_n(u) = sum_k (-1)^k u^k / (k! (n+k)!)."""
    if n < 0:
        raise ValueError("order of the Bessel-Tricomi function must be >= 0")
    coeffs = [
        Fraction((-1) ** k, math.factorial(k) * math.factorial(n + k))
        for k in range(order + 1)
    ]
    return Series(coeffs, order)


# -- the factors of Phi: (kind, ((p, j), ...)) stands for a function of p u^j --


def exp_factor(p, j: int = 1) -> tuple:
    """exp(p u^j) as a factor of Phi."""
    return ("exp", ((as_poly(p), j),))


def c0_compose(p, j: int = 1) -> tuple:
    """C_0(p u^j) as a factor of Phi."""
    return ("c0", ((as_poly(p), j),))


def geometric(*terms) -> tuple:
    """1/(1 - sum_i p_i u^(j_i)) as a factor of Phi, from (p_i, j_i) pairs."""
    return ("geo", tuple((as_poly(p), j) for p, j in terms))


def _factor_weight(kind: str, ms: tuple[int, ...]) -> Fraction:
    if kind == "exp":
        return Fraction(1, math.factorial(ms[0]))
    if kind == "c0":
        return Fraction((-1) ** ms[0], math.factorial(ms[0]) ** 2)
    multinomial = math.factorial(sum(ms))
    for m in ms:
        multinomial //= math.factorial(m)
    return Fraction(multinomial)


def _factor_degrees(factor: tuple, order: int) -> list[MultiPoly]:
    """[u^d] of one factor for d = 0..order: its terms through u^order,
    each a product of powers of the parts' polynomials at the factor's
    closed-form weight, summed by degree."""
    kind, parts = factor
    terms = [(0, MultiPoly.const(1), ())]
    for p, j in parts:
        grown = []
        for deg, poly, ms in terms:
            m = 0
            while deg + j * m <= order:
                grown.append((deg + j * m, poly, ms + (m,)))
                poly = poly * p
                m += 1
        terms = grown
    by_degree = [[] for _ in range(order + 1)]
    for deg, poly, ms in terms:
        w = _factor_weight(kind, ms)
        by_degree[deg].append((w.numerator, w.denominator, poly))
    return [lincomb(parts) for parts in by_degree]


def phi_coefficients(factors, order: int) -> list[MultiPoly]:
    """[u^k] Phi(u) for k = 0..order, Phi the product of the factors; the
    first n + 1 entries at any order are the coefficients through u^n.

    The product is truncated and taken degree by degree: after each factor,
    phi_k is one ``lincomb`` over d <= k of phi_(k-d) times the factor's
    degree-d term."""
    phi = [MultiPoly.const(1)] + [MultiPoly.zero()] * order
    for factor in factors:
        terms = [(d, t) for d, t in enumerate(_factor_degrees(factor, order)) if t]
        phi = [lincomb((1, 1, phi[k - d] * t) for d, t in terms if d <= k and phi[k - d])
               for k in range(order + 1)]
    return phi


# -- the Sheffer matrix and the families read from it ---------------------------


def sheffer_matrix(pair, order: int) -> tuple[Series, ...]:
    """The columns A(t) H(t)^k of the pair's resolved record: entry (n, k)
    is [t^n] of column k.  Inverting f needs its linear term, so order 0
    reads the order-1 record."""
    return pair.resolved(max(order, 1)).columns


def _coefficient(cols: tuple[Series, ...], phi: list[MultiPoly], n: int,
                 weight: int) -> MultiPoly:
    """weight * sum_k phi_k [t^n] A H^k."""
    return lincomb((col._nums[n] * weight, col._den, phi[k])
                   for k, col in enumerate(cols[: n + 1]))


def _check_index(n: int, order: int) -> None:
    if n < 0:
        raise ValueError(f"member index must be >= 0, got {n}")
    if n > order:
        raise OrderTooSmall(f"member {n} beyond truncation order {order}")


def family_member(key, pair, factors, n: int, order: int, power: int) -> MultiPoly:
    """(n!)^power * [t^n] A(t) Phi(H(t)) = (n!)^power * sum_k phi_k [t^n] A H^k.

    key names Phi as plain data, such as ("leghp", kind, r); the phi_k are
    memoized under ("phi",) + key + (order,), and factors() gives the
    factors of Phi only on that miss."""
    _check_index(n, order)
    cols = sheffer_matrix(pair, order)
    phi = memo(("phi",) + key + (order,), lambda: phi_coefficients(factors(), order))
    return _coefficient(cols, phi, n, math.factorial(n) ** power)


def named_member(key, pair, factors, n: int, order: int, power: int) -> MultiPoly:
    """family_member memoized per (key, pair, n) for every order >= n: a
    member of a named family, built once however many callers read it."""
    _check_index(n, order)
    return memo(("member",) + key + (pair.name, pair.params, n),
                lambda: family_member(key, pair, factors, n, order, power))


def leghp_phi(kind: str, r: int) -> tuple:
    """Phi of the hybrid bases, exp(z u^r) last: S-kind C_0(-x u^2)
    exp(y u) exp(z u^r); R-kind C_0(x u) C_0(-y u) exp(z u^r)."""
    if r < 1:
        raise ValueError("superscript parameter r must be >= 1")
    if kind == "S":
        return (c0_compose(-_X, 2), exp_factor(_Y), exp_factor(_Z, r))
    return (c0_compose(_X), c0_compose(-_Y), exp_factor(_Z, r))


# the power of n! in the weight of a hybrid member, per kind
WEIGHT_POWER = {"S": 1, "R": 2}


def leghp_member(pair, kind: str, r: int, n: int, order: int) -> MultiPoly:
    """Member n of a pair's S- or R-kind hybrid family, at weight
    (n!)^WEIGHT_POWER[kind]."""
    return named_member(("leghp", kind, r), pair, lambda: leghp_phi(kind, r), n, order,
                        WEIGHT_POWER[kind])


def gould_hopper(n: int, s: int, order: int | None = None) -> MultiPoly:
    """H_n^(s)(x, y), the two-variable higher-order Hermite polynomial.

    >>> print(gould_hopper(3, 2))
    x^3 + 6*x*y
    """
    if s < 1:
        raise ValueError("Gould-Hopper order must be >= 1")
    order = n if order is None else order
    return named_member(("gould-hopper", s), _IDENTITY,
                        lambda: (exp_factor(_X), exp_factor(_Y, s)), n, order, 1)


def legendre_S(n: int, order: int | None = None) -> MultiPoly:
    """S_n(x, y) from exp(y t) C_0(-x t^2)."""
    order = n if order is None else order
    return named_member(("legendre-S",), _IDENTITY,
                        lambda: (exp_factor(_Y), c0_compose(-_X, 2)), n, order, 1)


def legendre_R(n: int, order: int | None = None) -> MultiPoly:
    """R_n(x, y): the (n!)^2-scaled t^n coefficient of C_0(x t) C_0(-y t)."""
    order = n if order is None else order
    return named_member(("legendre-R",), _IDENTITY,
                        lambda: (c0_compose(_X), c0_compose(-_Y)), n, order, 2)


def leghp_S(n: int, r: int, order: int | None = None) -> MultiPoly:
    """S-kind Legendre-Gould Hopper base member, n! * [t^n]."""
    return leghp_member(_IDENTITY, "S", r, n, n if order is None else order)


def leghp_R(n: int, r: int, order: int | None = None) -> MultiPoly:
    """R-kind Legendre-Gould Hopper base member, (n!)^2 * [t^n]."""
    return leghp_member(_IDENTITY, "R", r, n, n if order is None else order)


# -- Sheffer members and the umbral pairing -----------------------------------


def sheffer_series(pair, order: int) -> tuple[MultiPoly, ...]:
    """[t^n] A(t) exp(x H(t)), n = 0..order: the egf of a pair's Sheffer sequence."""
    return tuple(family_member(("sheffer",), pair, lambda: (exp_factor(_X),), n, order, 0)
                 for n in range(order + 1))


def sheffer_poly(pair, n: int, order: int | None = None) -> MultiPoly:
    """The Sheffer element s_n(x) of a pair: n! * [t^n] A(t) exp(x H(t)).

    This is the sequence biorthogonal to (g, f); pairs whose classical
    polynomial carries a different per-n scale record it in their
    ``normalization`` field (e.g. s_n = n! L_n^(alpha) for ``laguerre``).

    >>> from .pairs import get_pair
    >>> print(sheffer_poly(get_pair("lower-factorial"), 3))
    x^3 - 3*x^2 + 2*x
    """
    order = max(n, 1) if order is None else order
    return named_member(("sheffer",), pair, lambda: (exp_factor(_X),), n, order, 1)


def umbral_pairing(h: Series, p: MultiPoly) -> Fraction:
    """<h(t) | p(x)> = sum_k h_k * k! * [x^k] p, for p a polynomial in x only.

    With h = g f^k this realises the biorthogonality that defines a
    Sheffer sequence: <g f^k | s_n> = n! delta_{n,k}.
    """
    if p.depends_on("y") or p.depends_on("z"):
        raise ValueError("the umbral pairing is defined for polynomials in x only")
    hs, pnums = h._nums, p._nums
    total = 0
    fact = 1
    for k in range(min(h.order, p.degree_in("x") if not p.is_zero else 0) + 1):
        if k:
            fact *= k
        total += hs[k] * fact * pnums.get((k, 0, 0), 0)
    return Fraction(total, h._den * p._den)
