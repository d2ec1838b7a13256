"""Independent brute-force cross-checks for the series engine.

Everything in this module recomputes values from scratch: the explicit
finite sums for each special-case family row, a naive Cauchy-product
convolution, and Lagrange inversion for compositional inverses.  The only
imports from the engine's computational substrate are the two leaf value
types (Fraction lives in the stdlib, MultiPoly here); the series module is
deliberately not used, so a bug there cannot hide in the comparison.

``cross_validate`` pulls the engine route for the other side of each
comparison and returns the full pair of values for every mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .multipoly import MultiPoly
from . import families
from .operators import (
    compose,
    deriv,
    inv_deriv,
    mul_var,
    scale,
    substitute_operators,
)

_X = MultiPoly.var("x")
_Y = MultiPoly.var("y")
_Z = MultiPoly.var("z")


class UnknownRow(KeyError):
    pass


class UnknownSuite(KeyError):
    pass


@dataclass(frozen=True)
class OracleResult:
    description: str
    lhs: MultiPoly
    rhs: MultiPoly

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "equal": self.equal,
        }


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


def row_hermite(n: int) -> MultiPoly:
    """H_n(x, y) = n! sum_k x^(n-2k) y^k / (k! (n-2k)!)."""
    out = MultiPoly.zero()
    for k in range(n // 2 + 1):
        c = Fraction(_fact(n), _fact(k) * _fact(n - 2 * k))
        out = out + _mono(n - 2 * k, k, 0, c)
    return out


def row_hermite_type(n: int) -> MultiPoly:
    """G_n(x, y) = n! sum_k y^k x^(n-2k) / (k! [(n-2k)!]^2)."""
    out = MultiPoly.zero()
    for k in range(n // 2 + 1):
        c = Fraction(_fact(n), _fact(k) * _fact(n - 2 * k) ** 2)
        out = out + _mono(n - 2 * k, k, 0, c)
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


_ROWS: dict[str, Callable[..., MultiPoly]] = {
    "I": row_gould_hopper,
    "II": row_legendre_type,
    "III": row_laguerre_type,
    "IV": row_chebyshev,
    "V": row_laguerre,
    "VI": row_legendre_R,
    "VII": row_truncated_exponential,
    "VIII": row_hermite,
    "IX": row_hermite_type,
    "X": row_legendre_P,
    "XI": row_bell_type,
}

_ROW_TAKES_PARAM = {"I", "III", "IV", "VII"}


def oracle_explicit_sum(row: str, n: int, param: int | None = None) -> MultiPoly:
    """Evaluate one special-case row's explicit finite sum directly."""
    fn = _ROWS.get(row)
    if fn is None:
        raise UnknownRow(f"unknown row {row!r}; known rows: {', '.join(_ROWS)}")
    if row in _ROW_TAKES_PARAM:
        if param is None:
            raise ValueError(f"row {row} needs its integer parameter")
        return fn(n, param)
    return fn(n)


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


def _suite_ghp_vs_explicit(max_n: int) -> list[OracleResult]:
    out = []
    for s in (2, 3, 4):
        for n in range(max_n + 1):
            out.append(OracleResult(
                f"Gould-Hopper s={s} n={n}: series route vs explicit sum",
                families.gould_hopper(n, s, max_n),
                row_gould_hopper(n, s),
            ))
    return out


def _leghp_s_specialized(row: str, n: int, r: int, order: int) -> MultiPoly:
    """The S-kind base member pushed through one row's substitution recipe."""
    member = families.leghp_S(n, r, order)
    if row == "I":
        return member.substitute({"x": 0}).substitute({"y": _X, "z": _Y})
    if row == "II":
        return member.substitute({"z": 0})
    if row == "III":
        return substitute_operators(
            member.substitute({"x": 0}), {"y": inv_deriv("x"), "z": _Y})
    if row == "IV":
        p = member.substitute({"x": 0}).substitute({"y": _X, "z": _Y})
        return p.scale_monomials(lambda e: _fact(sum(e)))
    if row == "V":
        return substitute_operators(
            member.substitute({"x": 0}), {"z": compose(scale(-1), inv_deriv("x"))})
    if row == "VII":
        return substitute_operators(
            member.substitute({"x": 0}),
            {"y": _X, "z": compose(mul_var("y"), deriv("y"), mul_var("y"))})
    if row == "VIII":
        return member.substitute({"x": 0}).substitute({"y": _X, "z": _Y})
    if row == "IX":
        return substitute_operators(
            member.substitute({"x": 0}), {"y": inv_deriv("x"), "z": _Y})
    if row == "X":
        return member.substitute(
            {"x": (_X * _X - 1) * Fraction(1, 4), "y": _X, "z": 0})
    if row == "XI":
        return substitute_operators(
            member,
            {"x": compose(mul_var("z"), deriv("z"), mul_var("z")),
             "y": _X, "z": _Y})
    raise UnknownRow(row)


def _suite_leghp_s_vs_table(max_n: int) -> list[OracleResult]:
    order = max_n
    cases: list[tuple[str, int, Callable[[int], MultiPoly]]] = [
        ("I", 3, lambda n: row_gould_hopper(n, 3)),
        ("II", 2, row_legendre_type),
        ("III", 2, lambda n: row_laguerre_type(n, 2)),
        ("III", 3, lambda n: row_laguerre_type(n, 3)),
        ("IV", 2, lambda n: row_chebyshev(n, 2) * _fact(n)),
        ("IV", 3, lambda n: row_chebyshev(n, 3) * _fact(n)),
        ("V", 1, row_laguerre),
        ("VII", 2, lambda n: row_truncated_exponential(n, 2)),
        ("VII", 3, lambda n: row_truncated_exponential(n, 3)),
        ("VIII", 2, row_hermite),
        ("IX", 2, row_hermite_type),
        ("X", 2, row_legendre_P),
        ("XI", 3, row_bell_type),
    ]
    out = []
    for row, r, target in cases:
        for n in range(max_n + 1):
            out.append(OracleResult(
                f"S-kind base row {row} (r={r}) n={n}",
                _leghp_s_specialized(row, n, r, order),
                target(n),
            ))
    return out


def _suite_leghp_r_vs_table(max_n: int) -> list[OracleResult]:
    order = max_n
    out = []
    for n in range(max_n + 1):
        member = families.leghp_R(n, 2, order)
        out.append(OracleResult(
            f"R-kind base row III (m=2) n={n}",
            member.substitute({"y": 0}).substitute({"z": _Y, "x": -_X}),
            row_laguerre_type(n, 2) * _fact(n),
        ))
    for n in range(max_n + 1):
        member = families.leghp_R(n, 1, order)
        out.append(OracleResult(
            f"R-kind base row V (r=1) n={n}",
            member.substitute({"y": 0}).substitute({"z": _Y}),
            row_laguerre(n) * _fact(n),
        ))
    for n in range(max_n + 1):
        member = families.leghp_R(n, 2, order)
        out.append(OracleResult(
            f"R-kind base row VI n={n}",
            member.substitute({"z": 0}),
            row_legendre_R(n),
        ))
    for n in range(max_n + 1):
        member = families.leghp_R(n, 2, order)
        out.append(OracleResult(
            f"R-kind base row IX (r=2) n={n}",
            member.substitute({"x": 0}).substitute({"y": _X, "z": _Y}),
            row_hermite_type(n) * _fact(n),
        ))
    for n in range(max_n + 1):
        member = families.leghp_R(n, 1, order)
        half = Fraction(1, 2)
        out.append(OracleResult(
            f"R-kind base row X (r=1) n={n}",
            member.substitute(
                {"x": (MultiPoly.const(1) - _X) * half,
                 "y": (_X + 1) * half, "z": 0}),
            row_legendre_P(n),
        ))
    return out


def _suite_series_vs_naive(max_n: int) -> list[OracleResult]:
    from .pairs import get_pair

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
        engine = families.expand(identity, factors, order)
        naive = oracle_series_product(rules, order)
        for n in range(order + 1):
            out.append(OracleResult(f"{label}: [t^{n}]", engine[n], naive[n]))
    return out


def _suite_lagrange_vs_newton(max_n: int) -> list[OracleResult]:
    from .pairs import catalog

    # inversion needs order >= 1; coefficients 0..max_n are compared
    order = max(max_n, 1)
    out = []
    for pair in catalog():
        res = pair.resolved(order)
        lag = lagrange_inverse(res.f.coeffs, order)
        for n in range(max_n + 1):
            out.append(OracleResult(
                f"compositional inverse of {pair.name} f: [t^{n}]",
                MultiPoly.const(res.H.coeffs[n]),
                MultiPoly.const(lag[n]),
            ))
    return out


_SUITES: dict[str, Callable[[int], list[OracleResult]]] = {
    "ghp-vs-explicit": _suite_ghp_vs_explicit,
    "leghpS-vs-table1": _suite_leghp_s_vs_table,
    "leghpR-vs-table1": _suite_leghp_r_vs_table,
    "series-vs-naive-convolution": _suite_series_vs_naive,
    "lagrange-vs-newton": _suite_lagrange_vs_newton,
}


def suite_names() -> list[str]:
    return sorted(_SUITES)


def cross_validate(suite: str, max_n: int) -> list[OracleResult]:
    """Run one registered engine-vs-oracle comparison exhaustively."""
    fn = _SUITES.get(suite)
    if fn is None:
        raise UnknownSuite(
            f"unknown suite {suite!r}; known suites: {', '.join(suite_names())}")
    return fn(max_n)
