"""The catalog of classical Sheffer pairs.

A Sheffer sequence s_n(x) is pinned down by a pair (g, f): g an invertible
series, f a delta series.  Its exponential generating function is

    A(t) * exp(x * H(t))   with   H = f^(-1),  A = 1 / g(H).

Each catalog entry builds g and f from their closed forms, and also builds
the classical closed forms of A and H independently, so the package can
machine-check A = 1/g(f^(-1)) and H = f^(-1) coefficient by coefficient.
All parameters are exact rationals; integer-valued ones (k) are validated.

Sheffer-family members (with their conventional generating functions):

* generalized-hermite  H_{n,k,nu}:  exp(nu*x*t - t^k)
* laguerre             n! L_n^(alpha): (1-t)^(-alpha-1) exp(x t/(t-1)), weight t^n
* pidduck              P_n: 1/(1-t) * ((1+t)/(1-t))^x
* actuarial            a_n^(beta): exp(beta*t + x(1 - e^t))
* poisson-charlier     c_n(x; a): e^(-t) (1 + t/a)^x
* peters               S_n(x; lambda, mu): (1 + (1+t)^lambda)^(-mu) (1+t)^x
* bernoulli2           b_n (second kind): t/log(1+t) * (1+t)^x
* related              r_n: 2/(2+t) * (1+t)^x
* hahn                 R_n: 1/sqrt(1+t^2) * exp(x*arctan t)
* shively              R_n(a, x) pseudo-Laguerre, weight t^n

Associated members (g = 1):

* mittag-leffler       M_n: ((1+t)/(1-t))^x
* exponential          phi_n: exp(x(e^t - 1))
* lower-factorial      (x)_n: (1+t)^x
* bessel               p_n: exp(x(1 - sqrt(1-2t)))

The extra pair ``identity`` (g = 1, f = t) gives s_n = x^n and is the
monomial base case used throughout the tests; it is addressable by name
but is not part of the fourteen-entry catalog.

Note on the printed Pidduck closed forms: the invertible series is taken
as 2/(e^t + 1) with A = 1/(1-t); the variants 2/(e^t - 1) and t/(1-t)
sometimes seen in print are not formal power series / have A(0) = 0 and
cannot define a Sheffer pair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from .checks import Record
from .memo import memo
from .series import OrderTooSmall, Series, _ratio

Params = dict[str, Fraction]

# a little margin so internal divisions by t keep full precision
_MARGIN = 2

# the largest exact constant power a builder computes, in bits: beyond it a
# parameter such as peters' mu = 10^30 would run without bound
_MAX_POWER_BITS = 1 << 20

def _t(order: int) -> Series:
    return Series.t(order)


def _one(order: int) -> Series:
    return Series.constant(Fraction(1), order)


def _exp_t(order: int, scale: Fraction = Fraction(1)) -> Series:
    """exp(scale * t)."""
    return (Series.t(order) * scale).exp()


def _cos(order: int) -> Series:
    coeffs = []
    fact = Fraction(1)
    for n in range(order + 1):
        if n:
            fact /= n
        coeffs.append(fact * (-1) ** (n // 2) if n % 2 == 0 else Fraction(0))
    return Series(coeffs, order)


def _sin(order: int) -> Series:
    coeffs = []
    fact = Fraction(1)
    for n in range(order + 1):
        if n:
            fact /= n
        coeffs.append(fact * (-1) ** ((n - 1) // 2) if n % 2 == 1 else Fraction(0))
    return Series(coeffs, order)


def _arctan(order: int) -> Series:
    coeffs = [
        Fraction((-1) ** ((n - 1) // 2), n) if n % 2 == 1 else Fraction(0)
        for n in range(order + 1)
    ]
    return Series(coeffs, order)


def _pow_const(series: Series, q: Fraction) -> Series:
    """series ** q for rational q, factoring out the constant term.

    The constant term's q-th power must be an exact rational, otherwise the
    result would leave the rationals.
    """
    c0 = series.coefficient(0)
    root = _fraction_pow(c0, q)
    return (series / c0).pow_fraction(q) * root


def _fraction_pow(c: Fraction, q: Fraction) -> Fraction:
    """Exact c**q, raising when no rational value exists or when c**num
    would have more than ``_MAX_POWER_BITS`` bits."""
    if c <= 0:
        raise ValueError(f"cannot take rational power of non-positive constant {c}")
    num, den = q.numerator, q.denominator
    size = abs(num) * max(c.numerator.bit_length(), c.denominator.bit_length())
    if c != 1 and size > _MAX_POWER_BITS:
        raise ValueError(f"{c}^({q}) is too large to compute exactly")
    base = c ** num  # Fraction handles negative integer exponents exactly
    if den == 1:
        return base
    roots = _iroot(base.numerator, den), _iroot(base.denominator, den)
    if None in roots:
        raise ValueError(f"{c}^({q}) is not an exact rational")
    return Fraction(*roots)


def _iroot(n: int, k: int) -> int | None:
    """The integer k-th root of n > 0, or None when n is not a k-th power."""
    if k >= n.bit_length():
        # n < 2^k, so a root is below 2; this also keeps a huge k away from
        # the Newton step's r ** (k - 1)
        return 1 if n == 1 else None
    if k == 2:
        r = math.isqrt(n)
    else:
        # integer Newton iteration from above converges to floor(n^(1/k))
        r = 1 << -(-n.bit_length() // k)
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r ** k == n else None


class PairSeries(NamedTuple):
    """The four series attached to a pair at a given order."""

    g: Series
    f: Series
    claimed_A: Series | None
    claimed_H: Series | None


class ResolvedPair(Record):
    """Series actually used to generate members: H = f^(-1), A = 1/g(H),
    and the two values every family of the pair reads from them, each
    computed on its first read and kept in the instance dict."""

    _fields = ("g", "f", "H", "A")

    def __init__(self, g: Series, f: Series, H: Series, A: Series):
        vars(self).update(g=g, f=f, H=H, A=A)

    @cached_property
    def factors(self) -> tuple[Series, Series]:
        """(-g'/g, 1/f'), each one order below the pair's: the scalar
        factors of the quasi-monomial raising operator."""
        return (-(self.g.derivative() * self.g.reciprocal()),
                self.f.derivative().reciprocal())

    @cached_property
    def columns(self) -> tuple[Series, ...]:
        """The Sheffer matrix as its columns A(t) H(t)^k, k = 0..order:
        entry (n, k) is [t^n] of column k."""
        col = self.A
        cols = [col]
        for _ in range(col.order):
            col = col * self.H
            cols.append(col)
        return tuple(cols)


class ShefferPair(NamedTuple):
    """A named (g, f) pair plus the closed forms the catalog claims for it."""

    name: str
    family: str
    params: tuple[tuple[str, Fraction], ...]
    normalization: str  # scale linking s_n to the classical polynomial
    associated: bool
    builder: Callable[[Params, int], PairSeries]

    def __repr__(self) -> str:  # without the builder, a function
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields[:-1], self))
        return f"ShefferPair({fields})"

    def param_dict(self) -> Params:
        return dict(self.params)

    def build(self, order: int) -> PairSeries:
        return self.builder(self.param_dict(), order)

    def resolved(self, order: int) -> ResolvedPair:
        """g, f, H and A through t^order; an order below 1, which cannot
        invert f, raises ``OrderTooSmall``."""
        if order < 1:
            raise OrderTooSmall(f"resolving a pair needs order >= 1, not {order}")

        def make():
            built = self.build(order)
            H = built.f.compositional_inverse()
            A = built.g.compose(H).reciprocal()
            return ResolvedPair(built.g, built.f, H, A)

        return memo(("resolved", self.name, self.params, order), make)

    def metadata(self) -> dict:
        built = self.build(4)
        return {
            "name": self.name,
            "family": self.family,
            "params": {k: str(v) for k, v in self.params},
            "normalization": self.normalization,
            "associated": self.associated,
            "claimed": {
                "A": built.claimed_A is not None,
                "H": built.claimed_H is not None,
            },
        }


# -- the builders -----------------------------------------------------------------


def _build_generalized_hermite(p: Params, order: int) -> PairSeries:
    nu, k = p["nu"], p["k"]
    if nu == 0 or k.denominator != 1 or k < 1:
        raise ValueError("generalized-hermite needs nu != 0 and integer k >= 1")
    k = int(k)
    t = _t(order)
    g = ((t / nu) ** k).exp()
    f = t / nu
    A = (-(t ** k)).exp()
    H = t * nu
    return PairSeries(g, f, A, H)


def _build_laguerre(p: Params, order: int) -> PairSeries:
    alpha = p["alpha"]
    t = _t(order)
    one = _one(order)
    neg_pow = ((one - t).log() * (-(alpha + 1))).exp()  # (1-t)^(-alpha-1)
    f = -(t * (one - t).reciprocal())  # t/(t-1)
    return PairSeries(neg_pow, f, neg_pow, f)


def _build_pidduck(p: Params, order: int) -> PairSeries:
    t = _t(order)
    one = _one(order)
    e = _exp_t(order)
    g = (e + 1).reciprocal() * Fraction(2)
    f = (e - 1) * (e + 1).reciprocal()
    A = (one - t).reciprocal()
    H = ((one + t) * (one - t).reciprocal()).log()
    return PairSeries(g, f, A, H)


def _build_actuarial(p: Params, order: int) -> PairSeries:
    beta = p["beta"]
    t = _t(order)
    one = _one(order)
    g = ((one - t).log() * (-beta)).exp()  # (1-t)^(-beta)
    f = (one - t).log()
    A = (t * beta).exp()
    H = -(_exp_t(order) - 1)  # 1 - e^t
    return PairSeries(g, f, A, H)


def _build_poisson_charlier(p: Params, order: int) -> PairSeries:
    a = p["a"]
    if a == 0:
        raise ValueError("poisson-charlier needs a != 0")
    t = _t(order)
    one = _one(order)
    em1 = _exp_t(order) - 1
    g = (em1 * a).exp()
    f = em1 * a
    A = (-t).exp()
    H = (one + t / a).log()
    return PairSeries(g, f, A, H)


def _build_peters(p: Params, order: int) -> PairSeries:
    lam, mu = p["lambda"], p["mu"]
    t = _t(order)
    one = _one(order)
    g = _pow_const(_exp_t(order, lam) + 1, mu)
    f = _exp_t(order) - 1
    A = _pow_const(((one + t).log() * lam).exp() + 1, -mu)
    H = (one + t).log()
    return PairSeries(g, f, A, H)


def _build_bernoulli2(p: Params, order: int) -> PairSeries:
    wide = order + _MARGIN
    t = _t(order)
    one = _one(order)
    g = (_exp_t(wide) - 1).divided_by_t().truncate(order).reciprocal()  # t/(e^t-1)
    f = _exp_t(order) - 1
    A = (
        (Series.constant(Fraction(1), wide) + Series.t(wide)).log()
        .divided_by_t()
        .truncate(order)
        .reciprocal()
    )  # t/log(1+t)
    H = (one + t).log()
    return PairSeries(g, f, A, H)


def _build_related(p: Params, order: int) -> PairSeries:
    t = _t(order)
    one = _one(order)
    g = (_exp_t(order) + 1) * Fraction(1, 2)
    f = _exp_t(order) - 1
    A = (t + 2).reciprocal() * Fraction(2)
    H = (one + t).log()
    return PairSeries(g, f, A, H)


def _build_hahn(p: Params, order: int) -> PairSeries:
    t = _t(order)
    one = _one(order)
    sec = _cos(order).reciprocal()
    g = sec
    f = _sin(order) * sec  # tan
    A = (one + t * t).pow_fraction(Fraction(-1, 2))
    H = _arctan(order)
    return PairSeries(g, f, A, H)


def _build_shively(p: Params, order: int) -> PairSeries:
    a = p["a"]
    t = _t(order)
    one = _one(order)
    g = (one + t) * ((one - t).log() * (-a)).exp()  # (1+t)(1-t)^(-a)
    q = (one + t) * (one - t).reciprocal()
    f = (one - q * q) * Fraction(1, 4)
    s = (one - t * 4).pow_fraction(Fraction(1, 2))  # sqrt(1-4t)
    A = (one - t * 4).pow_fraction(Fraction(-1, 2)) * _pow_const(
        ((s + 1) * Fraction(1, 2)).reciprocal(), a - 1
    )  # (1-4t)^(-1/2) (2/(1+sqrt(1-4t)))^(a-1)
    H = -((t * 4) * ((s + 1) ** 2).reciprocal())
    return PairSeries(g, f, A, H)


def _build_mittag_leffler(p: Params, order: int) -> PairSeries:
    t = _t(order)
    one = _one(order)
    e = _exp_t(order)
    f = (e - 1) * (e + 1).reciprocal()
    H = ((one + t) * (one - t).reciprocal()).log()
    return PairSeries(_one(order), f, None, H)


def _build_exponential(p: Params, order: int) -> PairSeries:
    t = _t(order)
    one = _one(order)
    f = (one + t).log()
    H = _exp_t(order) - 1
    return PairSeries(_one(order), f, None, H)


def _build_lower_factorial(p: Params, order: int) -> PairSeries:
    t = _t(order)
    one = _one(order)
    f = _exp_t(order) - 1
    H = (one + t).log()
    return PairSeries(_one(order), f, None, H)


def _build_bessel(p: Params, order: int) -> PairSeries:
    t = _t(order)
    one = _one(order)
    f = t - (t * t) * Fraction(1, 2)
    H = one - (one - t * 2).pow_fraction(Fraction(1, 2))
    return PairSeries(_one(order), f, None, H)


def _build_identity(p: Params, order: int) -> PairSeries:
    t = _t(order)
    return PairSeries(_one(order), t, _one(order), t)


def _mk(
    name: str,
    family: str,
    builder,
    normalization: str = "1",
    associated: bool = False,
    **defaults: Fraction,
) -> ShefferPair:
    params = tuple(sorted((k, Fraction(v)) for k, v in defaults.items()))
    return ShefferPair(name, family, params, normalization, associated, builder)


_CATALOG: list[ShefferPair] = [
    _mk("generalized-hermite", "generalized Hermite H_{n,k,nu}",
        _build_generalized_hermite, nu=1, k=2),
    _mk("laguerre", "generalized Laguerre n!*L_n^(alpha)",
        _build_laguerre, normalization="n!", alpha=0),
    _mk("pidduck", "Pidduck P_n", _build_pidduck),
    _mk("actuarial", "actuarial a_n^(beta)", _build_actuarial, beta=1),
    _mk("poisson-charlier", "Poisson-Charlier c_n(x; a)",
        _build_poisson_charlier, a=1),
    _mk("peters", "Peters S_n(x; lambda, mu)", _build_peters,
        **{"lambda": Fraction(1), "mu": Fraction(1)}),
    _mk("bernoulli2", "Bernoulli polynomials of the second kind b_n",
        _build_bernoulli2),
    _mk("related", "related polynomials r_n", _build_related),
    _mk("hahn", "Hahn R_n", _build_hahn),
    _mk("shively", "Shively pseudo-Laguerre R_n(a, x)", _build_shively,
        normalization="n!", a=1),
    _mk("mittag-leffler", "Mittag-Leffler M_n", _build_mittag_leffler,
        associated=True),
    _mk("exponential", "exponential (Bell) phi_n", _build_exponential,
        associated=True),
    _mk("lower-factorial", "lower factorial (x)_n", _build_lower_factorial,
        associated=True),
    _mk("bessel", "Bessel p_n", _build_bessel, associated=True),
]

_EXTRA: dict[str, ShefferPair] = {
    "identity": _mk("identity", "monomials x^n", _build_identity, associated=True),
}


def catalog() -> list[ShefferPair]:
    """The fourteen built-in classical pairs, in catalog order."""
    return list(_CATALOG)


def pair_names() -> list[str]:
    return [p.name for p in _CATALOG]


def get_pair(name: str, overrides: Params | None = None) -> ShefferPair:
    """Look up a pair by name, optionally overriding its rational parameters.

    Each override is read by the one scalar rule: an int or a Fraction, else
    ``NonScalarCoefficient``."""
    by_name = {p.name: p for p in _CATALOG}
    by_name.update(_EXTRA)
    pair = by_name.get(name)
    if pair is None:
        known = ", ".join(sorted(by_name))
        raise KeyError(f"unknown pair {name!r}; known pairs: {known}")
    if overrides:
        params = pair.param_dict()
        for k, v in overrides.items():
            if k not in params:
                raise KeyError(f"pair {name!r} has no parameter {k!r}")
            params[k] = Fraction(*_ratio(v))
        pair = ShefferPair(
            pair.name,
            pair.family,
            tuple(sorted(params.items())),
            pair.normalization,
            pair.associated,
            pair.builder,
        )
    return pair
