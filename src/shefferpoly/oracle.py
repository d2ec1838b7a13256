"""Engine-vs-oracle cross-checks.

The independent side of every comparison is recomputed from scratch: the
explicit finite sums of the special-case rows (``row_*``), a naive
Cauchy-product convolution of coefficient rules, and Lagrange inversion
for compositional inverses.  It uses integer factorials, exact rationals
and ``MultiPoly`` arithmetic, and none of the engine's series, Sheffer
matrix or operator code, so a bug there cannot hide in the comparison.

The engine side is the code the other suites run: the Gould-Hopper
members, the identity pair's S- and R-kind members pushed through the
reduction recipes registered in ``mixed.REDUCTIONS`` (looked up when a
suite runs, so a fault in a recipe fails both the reductions suite and
this one), family members of three products of Phi factors, and the
Newton inverse of every catalog pair.

``cross_validate`` runs one registered suite and returns one
:class:`~shefferpoly.checks.Check` per comparison, named by its
description; a mismatch's witness renders both values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from . import families
from .checks import Check, compare
from .mixed import REDUCTIONS, MixedFamily
from .multipoly import MultiPoly
from .pairs import catalog, get_pair

_X = MultiPoly.var("x")
_Y = MultiPoly.var("y")
_Z = MultiPoly.var("z")


class UnknownSuite(KeyError):
    pass


def _compare(description: str, engine: MultiPoly, oracle: MultiPoly) -> Check:
    return compare("oracle", description, engine, oracle, form="{} != {}")


def _fact(n: int) -> int:
    return math.factorial(n)


def _mono(ex: int, ey: int, ez: int, c: Fraction) -> MultiPoly:
    return MultiPoly.monomial((ex, ey, ez), c)


# -- explicit finite sums, one per special-case row --------------------------------
#
# Each function evaluates the classical closed sum for that family, term by
# term, using only integer factorials and exact rationals.  Known misprints
# in circulated versions of these sums are corrected to the form that the
# family's own generating function satisfies:
#   * Legendre R_n: denominator [(n-s)!]^2 (often misprinted (n-2s)!)
#   * generalized Chebyshev U_n^(m): numerator (n-(m-1)k)! (the common
#     (n-k)! is its m = 2 instance)
#   * Bell-type: the double-sum form (the single-sum form binds no index r)


def row_gould_hopper(n: int, r: int) -> MultiPoly:
    """H_n^(r)(x, y) = n! sum_k y^k x^(n-rk) / (k! (n-rk)!)."""
    out = MultiPoly.zero()
    for k in range(n // r + 1):
        c = Fraction(_fact(n), _fact(k) * _fact(n - r * k))
        out = out + _mono(n - r * k, k, 0, c)
    return out


def row_legendre_type(n: int) -> MultiPoly:
    """n! sum_s x^s y^(n-2s) / ((s!)^2 (n-2s)!)."""
    out = MultiPoly.zero()
    for s in range(n // 2 + 1):
        c = Fraction(_fact(n), _fact(s) ** 2 * _fact(n - 2 * s))
        out = out + _mono(s, n - 2 * s, 0, c)
    return out


def row_laguerre_type(n: int, m: int) -> MultiPoly:
    """n! sum_k y^k x^(n-mk) / (k! [(n-mk)!]^2)."""
    out = MultiPoly.zero()
    for k in range(n // m + 1):
        c = Fraction(_fact(n), _fact(k) * _fact(n - m * k) ** 2)
        out = out + _mono(n - m * k, k, 0, c)
    return out


def row_chebyshev(n: int, m: int) -> MultiPoly:
    """U_n^(m)(x, y) = sum_k (n-(m-1)k)! y^k x^(n-mk) / (k! (n-mk)!)."""
    out = MultiPoly.zero()
    for k in range(n // m + 1):
        c = Fraction(_fact(n - (m - 1) * k), _fact(k) * _fact(n - m * k))
        out = out + _mono(n - m * k, k, 0, c)
    return out


def row_laguerre(n: int) -> MultiPoly:
    """L_n(x, y) = n! sum_s (-x)^s y^(n-s) / ((s!)^2 (n-s)!)."""
    out = MultiPoly.zero()
    for s in range(n + 1):
        c = Fraction((-1) ** s * _fact(n), _fact(s) ** 2 * _fact(n - s))
        out = out + _mono(s, n - s, 0, c)
    return out


def row_legendre_R(n: int) -> MultiPoly:
    """R_n(x, y) = (n!)^2 sum_s y^s (-x)^(n-s) / ((s!)^2 [(n-s)!]^2)."""
    out = MultiPoly.zero()
    for s in range(n + 1):
        c = Fraction((-1) ** (n - s) * _fact(n) ** 2,
                     _fact(s) ** 2 * _fact(n - s) ** 2)
        out = out + _mono(n - s, s, 0, c)
    return out


def row_truncated_exponential(n: int, r: int) -> MultiPoly:
    """e_n^(r)(x, y) = n! sum_k x^(n-rk) y^k / (n-rk)!."""
    out = MultiPoly.zero()
    for k in range(n // r + 1):
        c = Fraction(_fact(n), _fact(n - r * k))
        out = out + _mono(n - r * k, k, 0, c)
    return out


def row_legendre_P(n: int) -> MultiPoly:
    """P_n(x) = n! sum_k (x^2-1)^k x^(n-2k) / (2^(2k) (k!)^2 (n-2k)!)."""
    out = MultiPoly.zero()
    base = _X * _X - 1
    for k in range(n // 2 + 1):
        c = Fraction(_fact(n), 4 ** k * _fact(k) ** 2 * _fact(n - 2 * k))
        out = out + (base ** k) * _mono(n - 2 * k, 0, 0, c)
    return out


def row_bell_type(n: int) -> MultiPoly:
    """H_n^(3,2)(x, y, z) = n! sum_k sum_s y^k z^s x^(n-3k-2s) / (k! s! (n-3k-2s)!)."""
    out = MultiPoly.zero()
    for k in range(n // 3 + 1):
        for s in range((n - 3 * k) // 2 + 1):
            c = Fraction(_fact(n), _fact(k) * _fact(s) * _fact(n - 3 * k - 2 * s))
            out = out + _mono(n - 3 * k - 2 * s, k, s, c)
    return out


# -- naive convolution --------------------------------------------------------------


def oracle_series_product(
    factors: Sequence[Callable[[int], MultiPoly | Fraction]], order: int
) -> list[MultiPoly]:
    """Multiply coefficient rules by plain nested-loop convolution.

    Each factor is a closure k -> coefficient of t^k.  No code is shared
    with the series engine: this is the O(N^2 * len(factors)) kitchen-sink
    route.
    """
    cur: list[MultiPoly] = [MultiPoly.const(1)] + [MultiPoly.zero()] * order
    for rule in factors:
        nxt = []
        for n in range(order + 1):
            acc = MultiPoly.zero()
            for k in range(n + 1):
                a = cur[k]
                if a.is_zero:
                    continue
                b = rule(n - k)
                if isinstance(b, MultiPoly):
                    if b.is_zero:
                        continue
                    acc = acc + a * b
                elif b:
                    acc = acc + a * b
            nxt.append(acc)
        cur = nxt
    return cur


def rule_exp(var: MultiPoly, step: int) -> Callable[[int], MultiPoly | Fraction]:
    """Coefficient rule of exp(v t^step)."""

    def rule(k: int):
        if k % step:
            return Fraction(0)
        j = k // step
        return (var ** j) / _fact(j)

    return rule


def rule_c0(var: MultiPoly, step: int = 1) -> Callable[[int], MultiPoly | Fraction]:
    """Coefficient rule of C_0(var * t^step) = sum (-var)^j t^(step j) / (j!)^2."""

    def rule(k: int):
        if k % step:
            return Fraction(0)
        j = k // step
        return ((-var) ** j) / (_fact(j) ** 2)

    return rule


def lagrange_inverse(f: Sequence[Fraction], order: int) -> list[Fraction]:
    """Compositional inverse coefficients via Lagrange inversion:
    [t^n] f^(-1) = (1/n) [t^(n-1)] (t / f(t))^n.

    Uses only local list convolution; the engine's Newton iteration never
    touches this code path.
    """
    f = [Fraction(c) for c in f]
    if f[0] != 0 or len(f) < 2 or f[1] == 0:
        raise ValueError("Lagrange inversion needs a delta series")
    # u = t/f(t) as a unit series of length `order`
    shifted = f[1:]  # f/t
    u = [Fraction(0)] * order
    u[0] = 1 / shifted[0]
    for n in range(1, order):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if k < len(shifted) and shifted[k]:
                acc += shifted[k] * u[n - k]
        u[n] = -acc / shifted[0]
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)  # u^0
    for n in range(1, order + 1):
        # power = u^n, truncated at length `order`
        nxt = [Fraction(0)] * order
        for i, a in enumerate(power):
            if not a:
                continue
            for j in range(order - i):
                if u[j]:
                    nxt[i + j] += a * u[j]
        power = nxt
        out[n] = power[n - 1] / n
    return out


# -- the registered comparison suites ----------------------------------------------


def _suite_ghp_vs_explicit(max_n: int) -> list[Check]:
    out = []
    for s in (2, 3, 4):
        for n in range(max_n + 1):
            out.append(_compare(
                f"Gould-Hopper s={s} n={n}: series route vs explicit sum",
                families.gould_hopper(n, s, max_n),
                row_gould_hopper(n, s),
            ))
    return out


# Each row of the special-case table is (label, recipe id, r, explicit sum);
# the table is the one index of the row_* sums by row label.
# The engine side is member n of the identity pair's family of the recipe's
# kind, pushed through the recipe registered in ``mixed.REDUCTIONS``, looked
# up when the suite runs.  ``specialize`` reads the member but not r, so a
# row may run a recipe at an r its ``reduce`` would refuse (row III at r = 3
# through ex9).  The recipes in _IN_YZ leave a polynomial in (y, z), which
# is renamed to the (x, y) of the explicit sum.
_TABLE: list[tuple[str, str, int, Callable[[int], MultiPoly]]] = [
    ("I (r=3)", "ex1", 3, lambda n: row_gould_hopper(n, 3)),
    ("II (r=2)", "ex2", 2, row_legendre_type),
    ("III (r=2)", "ex9", 2, lambda n: row_laguerre_type(n, 2)),
    ("III (r=3)", "ex9", 3, lambda n: row_laguerre_type(n, 3)),
    ("IV (r=2)", "ex4", 2, lambda n: row_chebyshev(n, 2) * _fact(n)),
    ("IV (r=3)", "ex4", 3, lambda n: row_chebyshev(n, 3) * _fact(n)),
    ("V (r=1)", "ex5", 1, row_laguerre),
    ("VII (r=2)", "ex7", 2, lambda n: row_truncated_exponential(n, 2)),
    ("VII (r=3)", "ex7", 3, lambda n: row_truncated_exponential(n, 3)),
    ("VIII (r=2)", "ex8", 2, lambda n: row_gould_hopper(n, 2)),
    ("IX (r=2)", "ex9", 2, lambda n: row_laguerre_type(n, 2)),
    ("X (r=2)", "ex10", 2, row_legendre_P),
    ("XI (r=3)", "ex11", 3, row_bell_type),
    ("III (m=2)", "ex3r", 2, lambda n: row_laguerre_type(n, 2) * _fact(n)),
    ("V (r=1)", "ex5r", 1, lambda n: row_laguerre(n) * _fact(n)),
    ("VI", "ex6", 2, row_legendre_R),
    ("IX (r=2)", "ex9r", 2, lambda n: row_laguerre_type(n, 2) * _fact(n)),
    ("X (r=1)", "ex10r", 1, row_legendre_P),
]
_IN_YZ = ("ex1", "ex8")


def _suite_table(kind: str, max_n: int) -> list[Check]:
    identity = get_pair("identity")
    out = []
    for label, rid, r, target in _TABLE:
        recipe = REDUCTIONS[rid]
        if recipe.kind != kind:
            continue
        fam = MixedFamily(identity, kind, r, max_n)
        for n in range(max_n + 1):
            got = recipe.specialize(fam, n)
            if rid in _IN_YZ:
                got = got.substitute({"y": _X, "z": _Y})
            out.append(_compare(f"{kind}-kind base row {label} n={n}", got, target(n)))
    return out


def _suite_series_vs_naive(max_n: int) -> list[Check]:
    order = max_n
    identity = get_pair("identity")
    cases = [
        ("exp(yt) * C_0(-x t^2)",
         [families.exp_factor(_Y), families.c0_compose(-_X, 2)],
         [rule_exp(_Y, 1), rule_c0(-_X, 2)]),
        ("exp(yt) * exp(z t^2)",
         [families.exp_factor(_Y), families.exp_factor(_Z, 2)],
         [rule_exp(_Y, 1), rule_exp(_Z, 2)]),
        ("C_0(xt) * C_0(-yt) * exp(z t^3)",
         families.leghp_phi("R", 3),
         [rule_c0(_X, 1), rule_c0(-_Y, 1), rule_exp(_Z, 3)]),
    ]
    out = []
    for label, factors, rules in cases:
        naive = oracle_series_product(rules, order)
        for n in range(order + 1):
            engine = families.family_member(("oracle", label), identity,
                                            lambda: factors, n, order, 0)
            out.append(_compare(f"{label}: [t^{n}]", engine, naive[n]))
    return out


def _suite_lagrange_vs_newton(max_n: int) -> list[Check]:
    # inversion needs order >= 1; coefficients 0..max_n are compared
    order = max(max_n, 1)
    out = []
    for pair in catalog():
        res = pair.resolved(order)
        lag = lagrange_inverse(res.f.coeffs, order)
        newton = res.H.coeffs
        for n in range(max_n + 1):
            out.append(_compare(
                f"compositional inverse of {pair.name} f: [t^{n}]",
                MultiPoly.const(newton[n]),
                MultiPoly.const(lag[n]),
            ))
    return out


SUITES: dict[str, Callable[[int], list[Check]]] = {
    "ghp-vs-explicit": _suite_ghp_vs_explicit,
    "leghpS-vs-table1": partial(_suite_table, "S"),
    "leghpR-vs-table1": partial(_suite_table, "R"),
    "series-vs-naive-convolution": _suite_series_vs_naive,
    "lagrange-vs-newton": _suite_lagrange_vs_newton,
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def cross_validate(suite: str, max_n: int) -> list[Check]:
    """Run one registered engine-vs-oracle comparison exhaustively."""
    fn = SUITES.get(suite)
    if fn is None:
        raise UnknownSuite(
            f"unknown suite {suite!r}; known suites: {', '.join(suite_names())}")
    return fn(max_n)
