"""Sheffer families lifted onto the Legendre / Gould-Hopper bases.

For a pair (g, f) with H = f^(-1) and A = 1/g(H), the two mixed families
are generated by

  S-kind:  A(t) C_0(-x H(t)^2) exp(y H(t) + z H(t)^r)  = sum m_n(x,y,z) t^n/n!
  R-kind:  A(t) C_0(x H(t)) C_0(-y H(t)) exp(z H(t)^r) = sum m_n(x,y,z) t^n/(n!)^2

Both have the form A(t) Phi(H(t)), so member n is weight(n) times
sum_k phi_k [t^n] A H^k: closed-form polynomial coefficients phi_k of Phi
against one column each of the pair's scalar Sheffer matrix (see the
families module).  Every reduction target below is the same lookup with a
different Phi.

Members are stored at the weight written above, (n!)^power with the power
of ``families.WEIGHT_POWER`` (so R-kind members carry the full (n!)^2
scale).  The quasi-monomial operators act on the family at weight t^n/n!,
member n over (n!)^(power - 1), and the monomiality checks test both.

The S-kind family is quasi-monomial under

  M = (y + 2 D_x^(-1) d/dy + r z (d/dy)^(r-1) - (g'/g)(d/dy)) (1/f')(d/dy)
  P = f(d/dy)

which this module verifies extensionally: raising M m_n = m_{n+1},
lowering P m_n = n m_{n-1}, the operator differential equation
(M P - n) m_n = 0, and [P, M] = identity on monomials.

For the R-kind family the analogous printed operators replace
y-multiplication by -D_x^(-1) + D_y^(-1) but keep d/dy as the series
argument; that pairing is checked as stated and, separately, a variant
with the series arguments taken at Theta = -d/dx x d/dx (the operator
that multiplies the R-kind generating function by t) is checked as well.
Every check here returns :class:`~shefferpoly.checks.Check` records, one
definite verdict per identity, variant, normalisation and n; the
monomiality suite asserts only the theta variant at egf weight.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import families
from .checks import Check, Record, compare
from .memo import memo
from .multipoly import MultiPoly
from .operators import (
    LinOp,
    MulPoly,
    NonNilpotentGenerator,
    OpSeries,
    commutator_check,
    compose,
    deriv,
    exp_generator,
    exp_operator,
    inv_deriv,
    mul_var,
    op_pow,
    op_sum,
    scale,
)
from .pairs import ShefferPair
from .series import OrderTooSmall, Series
from .families import (
    c0_compose,
    exp_factor,
    family_member,
    geometric,
    leghp_member,
    leghp_phi,
    named_member,
)

_X = MultiPoly.var("x")
_Y = MultiPoly.var("y")
_Z = MultiPoly.var("z")


class UnknownReduction(KeyError):
    """The reduction id is not registered (or not valid for this kind)."""


class MixedFamily(Record):
    """One mixed family: a Sheffer pair, a base kind (S or R), r >= 1 and
    an order; another kind or r raises ``ValueError``.

    >>> from .pairs import get_pair
    >>> fam = MixedFamily(get_pair("identity"), "S", 2, 8)
    >>> print(fam.member(2))
    y^2 + 2*x + 2*z
    >>> all(c.passed for c in fam.verify_monomiality(3))
    True
    """

    _fields = ("pair", "kind", "r", "order")

    def __init__(self, pair: ShefferPair, kind: str = "S", r: int = 2, order: int = 12):
        if kind not in ("S", "R"):
            raise ValueError("kind must be 'S' or 'R'")
        if r < 1:
            raise ValueError("r must be >= 1")
        vars(self).update(pair=pair, kind=kind, r=r, order=order)

    @property
    def label(self) -> str:
        return f"{self.pair.name}/{self.kind}/r={self.r}"

    # -- members ------------------------------------------------------------

    def generating_series(self) -> tuple[MultiPoly, ...]:
        """The t^n coefficients of the generating function, n = 0..order."""
        return tuple(self.egf_member(n) / math.factorial(n) for n in range(self.order + 1))

    @property
    def power(self) -> int:
        """The power of n! in a member's weight (``families.WEIGHT_POWER``)."""
        return families.WEIGHT_POWER[self.kind]

    def member(self, n: int) -> MultiPoly:
        """The stored member: (n!)^power times the t^n coefficient."""
        return leghp_member(self.pair, self.kind, self.r, n, self.order)

    def _egf_scale(self, n: int) -> int:
        """member(n) over egf_member(n): (n!)^(power - 1)."""
        return math.factorial(n) ** (self.power - 1)

    def egf_member(self, n: int) -> MultiPoly:
        """The member at exponential weight t^n/n!: member(n) over
        (n!)^(power - 1), the weight read from ``families.WEIGHT_POWER``."""
        return self.member(n) / self._egf_scale(n)

    # -- quasi-monomial operators ---------------------------------------------

    def raising_operator(self, variant: str = "printed") -> LinOp:
        """The multiplicative (raising) operator.

        The bracket (head + r z B^(r-1) - (g'/g)(B)) composed after
        (1/f')(B).  S-kind: head y + 2 D_x^(-1) d_y and B = d_y.  R-kind:
        head -D_x^(-1) + D_y^(-1), and ``variant`` selects B = d_y
        ("printed", as stated) or B = -d_x x d_x ("theta").
        """
        if variant not in ("printed", "theta"):
            raise ValueError(f"unknown raising variant {variant!r}")
        minus_gp_over_g, recip_fp = self.pair.resolved(self.order).factors
        if self.kind == "S":
            head = (mul_var("y"), compose(scale(2), inv_deriv("x"), deriv("y")))
        else:
            head = (compose(scale(-1), inv_deriv("x")), inv_deriv("y"))
        base = theta_operator() if self.kind == "R" and variant == "theta" else deriv("y")
        bracket = op_sum(
            *head,
            compose(scale(self.r), MulPoly(_Z), op_pow(base, self.r - 1)),
            OpSeries(minus_gp_over_g, base),
        )
        return compose(bracket, OpSeries(recip_fp, base))

    def lowering_operator(self, variant: str = "printed") -> LinOp:
        """The derivative (lowering) operator.

        S-kind: f(d_y).  R-kind variants: "theta" is f(-d_x x d_x);
        "printed" is the mixed form f(-d_x x d_y) exactly as stated.
        """
        res = self.pair.resolved(self.order)
        if self.kind == "S":
            return OpSeries(res.f, deriv("y"))
        if variant == "theta":
            return OpSeries(res.f, theta_operator())
        if variant == "printed":
            mixed = compose(scale(-1), deriv("x"), mul_var("x"), deriv("y"))
            return OpSeries(res.f, mixed)
        raise ValueError(f"unknown lowering variant {variant!r}")

    # -- explicit representation -------------------------------------------------

    def explicit_member(self, n: int) -> MultiPoly:
        """M^n {1}: repeated raising from the vacuum.

        Equals member(n) / A(0); for pairs with A(0) = 1 it is member(n)
        itself.  (R-kind: equals the egf member scaled the same way, using
        the "theta" raising variant.)
        """
        M = self.raising_operator("theta" if self.kind == "R" else "printed")
        p = MultiPoly.const(1)
        for _ in range(n):
            p = M.apply(p)
        return p

    # -- verification -----------------------------------------------------------

    def verify_monomiality(self, max_n: int) -> list[Check]:
        """Raising, lowering, differential equation and commutator records
        for each operator variant (S: printed; R: printed, theta) and
        normalisation (S: egf; R: egf, stored).

        Each record is named "{identity}/{variant}/{normalization}" and
        carries its n (the commutator's is its test degree).  A name's
        verdict is settled by its first failing record, so no record
        follows it under that name, and an operator is applied to m_n only
        while some record at n still reads the image: M m_n while a raising
        name of the variant is open, P m_n while a lowering name or the
        diffeq name is.  Every name's verdict and the first failing record
        of any filter of names are those of the full loop, so the suite
        rows built from them are unchanged.
        """
        if max_n < 0:
            raise ValueError("max_n must be >= 0")
        if max_n + 1 > self.order:
            raise OrderTooSmall("raising check at max_n needs order >= max_n + 1")
        # the operator-series factors carry order - 1 terms (one is lost
        # to the derivative), which bounds the testable degree
        degree = min(8, self.order - 1)
        if self.kind == "S":
            variants, norms = ("printed",), ("egf",)
        else:
            variants, norms = ("printed", "theta"), ("egf", "stored")
        weighted = {"egf": self.egf_member, "stored": self.member}
        members = {norm: [weighted[norm](n) for n in range(max_n + 2)] for norm in norms}
        checks: list[Check] = []
        failed: set[str] = set()

        def record(check: Check) -> None:
            checks.append(check)
            if not check.passed:
                failed.add(check.name)

        for vname in variants:
            M = self.raising_operator(vname)
            P = self.lowering_operator(vname)
            raising = [f"raising/{vname}/{norm}" for norm in norms]
            lowering = [f"lowering/{vname}/{norm}" for norm in norms]
            diffeq = f"diffeq/{vname}/egf"
            for n in range(max_n + 1):
                mn = members["egf"][n]
                if not failed.issuperset(raising):
                    up = M.apply(mn)
                if diffeq not in failed or not failed.issuperset(lowering):
                    down = P.apply(mn)
                for norm, up_name, down_name in zip(norms, raising, lowering):
                    # stored = _egf_scale(n) egf, and so are the stored images
                    at, c = members[norm], self._egf_scale(n) if norm == "stored" else 1
                    if up_name not in failed:
                        record(compare("monomiality", up_name, up * c, at[n + 1], n))
                    if down_name not in failed:
                        record(compare("monomiality", down_name, down * c,
                                       at[n - 1] * n if n else MultiPoly.zero(), n))
                if diffeq not in failed:
                    record(compare("monomiality", diffeq, M.residual(down, n, mn), 0, n,
                                   "residual {}"))
            com = commutator_check(P, M, degree)
            record(Check("monomiality", f"commutator/{vname}/egf",
                         com.passed, com.detail, degree))
        return checks

    # -- operational representations ----------------------------------------------

    def _exp_routes(self) -> tuple[OpSeries, OpSeries]:
        """exp(D_x^(-1) d_y^2 + z d_y^r) and exp(z d_y^r), the S-kind
        sheffer-lift and z-restoration operators.  They depend on r and the
        order alone, so they are built once per (r, order), for every pair,
        and kept in the memo store: their memos serve every n of every pair.
        Both generators lower y, so the exponential series at the order
        reaches every member."""
        def make():
            exp = Series.t(self.order).exp()
            z_term = (_Z, op_pow(deriv("y"), self.r))
            lift = exp_generator([
                (Fraction(1), compose(inv_deriv("x"), op_pow(deriv("y"), 2))), z_term])
            return OpSeries(exp, lift), OpSeries(exp, exp_generator([z_term]))

        return memo(("exp-routes", self.r, self.order), make)

    def operational_rep_check(self, n: int) -> list[Check]:
        """Check the exponential-operator routes to member(n).

        S-kind: (a) exp(D_x^(-1) d_y^2 + z d_y^r) applied to the plain
        Sheffer polynomial s_n(y) equals member(n); (b) exp(z d_y^r)
        applied to the z = 0 member restores member(n).

        R-kind: the printed route applies
        exp(-D_x^(-1) d_y + D_y^(-1) d_y + z d_y^r) to s_n in the variable
        y; the middle generator does not lower any degree, so the
        exponential does not truncate, and the record states that outcome.
        """
        s_n = sheffer_poly_in_y(self.pair, n, self.order)
        if self.kind == "S":
            lift, restore = self._exp_routes()
            base = self.member(n).substitute({"z": Fraction(0)})
            return [
                compare("operational", "sheffer-lift", lift.apply(s_n), self.member(n), n),
                compare("operational", "z-restoration", restore.apply(base),
                        self.member(n), n),
            ]
        try:
            got = exp_operator(
                [
                    (Fraction(-1), compose(inv_deriv("x"), deriv("y"))),
                    (Fraction(1), compose(inv_deriv("y"), deriv("y"))),
                    (_Z, op_pow(deriv("y"), self.r)),
                ],
                s_n,
            )
        except NonNilpotentGenerator as exc:
            return [Check("operational", "vacuum-lift-printed", False,
                          f"not evaluable: {exc}", n)]
        return [compare("operational", "vacuum-lift-printed", got, self.egf_member(n), n)]

    # -- integral representation ----------------------------------------------------

    def integral_rep_check(self, n: int) -> Check:
        """Replace z by s z and integrate against e^(-s) (the moment rule
        z^k -> k! z^k); this turns exp(z H^r) into 1/(1 - z H^r), so the
        result must equal the member of the family generated with that
        geometric factor in place of the exponential."""
        member = self.member(n)
        integrated = member.scale_monomials(lambda e: math.factorial(e[2]))
        target = family_member(
            ("integral", self.kind, self.r), self.pair,
            lambda: leghp_phi(self.kind, self.r)[:-1] + (geometric((_Z, self.r)),),
            n, self.order, self.power)
        return compare("integral", "integral-rep", integrated, target, n)

    # -- reductions -------------------------------------------------------------------

    def reduce(self, reduction: str, n: int) -> Check:
        """Specialise member(n) per a named recipe and compare against an
        independently assembled target family member."""
        recipe = REDUCTIONS.get(reduction)
        if recipe is None:
            known = ", ".join(sorted(REDUCTIONS))
            raise UnknownReduction(f"unknown reduction {reduction!r}; known: {known}")
        if recipe.kind != self.kind:
            raise UnknownReduction(
                f"reduction {reduction!r} applies to kind {recipe.kind}, not {self.kind}")
        if recipe.requires_r is not None and self.r != recipe.requires_r:
            raise UnknownReduction(
                f"reduction {reduction!r} requires r = {recipe.requires_r}")
        lhs = recipe.specialize(self, n)
        rhs = family_member(("reduction", reduction, self.r), self.pair,
                            lambda: recipe.phi(self.r), n, self.order, self.power)
        return compare("reductions", reduction, lhs, rhs, n, "{} != {}")


def theta_operator() -> LinOp:
    """Theta = -d/dx x d/dx, the t-multiplication operator of the R-kind
    generating function (x^k -> -k^2 x^(k-1))."""
    return compose(scale(-1), deriv("x"), mul_var("x"), deriv("x"))


def sheffer_poly_in_y(pair: ShefferPair, n: int, order: int) -> MultiPoly:
    """The plain Sheffer polynomial s_n written in the variable y: the member
    of Phi = exp(y u), which every family of the pair reads."""
    return named_member(("sheffer-y",), pair, lambda: (exp_factor(_Y),), n, order, 1)


# -- the reduction registry ---------------------------------------------------------


class _Reduction(NamedTuple):
    """A named special case: ``specialize(fam, n)`` pushes member(n) through
    the recipe; ``phi(r)`` gives the factors of the target family's Phi,
    whose member at the family's weight is the expected value."""

    kind: str
    specialize: object
    phi: object
    requires_r: int | None = None


def _make_reductions() -> dict[str, _Reduction]:
    # each recipe is one simultaneous substitution into member(n); its
    # operator images are built per call, so that they read the memo store
    # of the moment
    R: dict[str, _Reduction] = {}

    # x = 0: Gould-Hopper based member in (y, z)
    R["ex1"] = _Reduction(
        "S",
        lambda fam, n: fam.member(n).substitute({"x": 0}),
        lambda r: (exp_factor(_Y), exp_factor(_Z, r)),
    )

    # z = 0: two-variable Legendre-type based member
    R["ex2"] = _Reduction(
        "S",
        lambda fam, n: fam.member(n).substitute({"z": 0}),
        lambda r: (c0_compose(-_X, 2), exp_factor(_Y)),
    )

    # x = 0, y -> -D_x^(-1){1}, z -> y: generalized Laguerre-type based
    # member (r plays m)
    R["ex3"] = _Reduction(
        "S",
        lambda fam, n: fam.member(n).substitute(
            {"x": 0, "y": compose(scale(-1), inv_deriv("x")), "z": _Y}),
        lambda r: (c0_compose(_X), exp_factor(_Y, r)),
    )

    # x = 0, y -> s*x, z -> s*y, then the moment rule s^k -> k!, which
    # scales each monomial by its total degree's factorial: generalized
    # Chebyshev based member (ordinary generating weight)
    R["ex4"] = _Reduction(
        "S",
        lambda fam, n: fam.member(n).substitute({"x": 0, "y": _X, "z": _Y})
        .scale_monomials(lambda e: math.factorial(sum(e))),
        lambda r: (geometric((_X, 1), (_Y, r)),),
    )

    # r = 1, x = 0, z -> -D_x^(-1){1}: two-variable Laguerre based member
    R["ex5"] = _Reduction(
        "S",
        lambda fam, n: fam.member(n).substitute(
            {"x": 0, "z": compose(scale(-1), inv_deriv("x"))}),
        lambda r: (c0_compose(_X), exp_factor(_Y)),
        requires_r=1,
    )

    # z = 0: two-variable Legendre based member (R-kind, stored (n!)^2 weight)
    R["ex6"] = _Reduction(
        "R",
        lambda fam, n: fam.member(n).substitute({"z": 0}),
        lambda r: (c0_compose(_X), c0_compose(-_Y)),
    )

    # x = 0, y -> x, z -> (y d/dy y)^k{1} = k! y^k: truncated-exponential
    # based member
    R["ex7"] = _Reduction(
        "S",
        lambda fam, n: fam.member(n).substitute(
            {"x": 0, "y": _X, "z": compose(mul_var("y"), deriv("y"), mul_var("y"))}),
        lambda r: (exp_factor(_X), geometric((_Y, r))),
    )

    # r = 2, x = 0: two-variable Hermite (Kampe de Feriet) based member,
    # ex1 restricted to r = 2
    R["ex8"] = R["ex1"]._replace(requires_r=2)

    # r = 2, x = 0, y -> D_x^(-1){1}, z -> y: Hermite-type G_n based member
    R["ex9"] = _Reduction(
        "S",
        lambda fam, n: fam.member(n).substitute({"x": 0, "y": inv_deriv("x"), "z": _Y}),
        lambda r: (c0_compose(-_X), exp_factor(_Y, 2)),
        requires_r=2,
    )

    # x -> (x^2-1)/4, y -> x, z = 0: Legendre P_n based member
    quarter = (_X * _X - 1) * Fraction(1, 4)
    R["ex10"] = _Reduction(
        "S",
        lambda fam, n: fam.member(n).substitute({"x": quarter, "y": _X, "z": 0}),
        lambda r: (c0_compose(-quarter, 2), exp_factor(_X)),
    )

    # r = 3, x -> (z d/dz z)^k{1} = k! z^k, y -> x, z -> y: Bell-type based
    # member
    R["ex11"] = _Reduction(
        "S",
        lambda fam, n: fam.member(n).substitute(
            {"x": compose(mul_var("z"), deriv("z"), mul_var("z")), "y": _X, "z": _Y}),
        lambda r: (exp_factor(_X), exp_factor(_Y, 3), exp_factor(_Z, 2)),
        requires_r=3,
    )

    # R-kind variants of the Laguerre-type / Laguerre / Hermite-type / Legendre
    # rows.  y = 0, z -> y, x -> -x: generalized Laguerre-type based member
    # (sign fixed so the Laguerre argument matches its series definition)
    R["ex3r"] = _Reduction(
        "R",
        lambda fam, n: fam.member(n).substitute({"y": 0, "z": _Y, "x": -_X}),
        lambda r: (c0_compose(-_X), exp_factor(_Y, r)),
    )
    # r = 1, y = 0, z -> y: two-variable Laguerre based member
    R["ex5r"] = _Reduction(
        "R",
        lambda fam, n: fam.member(n).substitute({"y": 0, "z": _Y}),
        lambda r: (c0_compose(_X), exp_factor(_Y)),
        requires_r=1,
    )
    # r = 2, x = 0, y -> x, z -> y: Hermite-type based member
    R["ex9r"] = _Reduction(
        "R",
        lambda fam, n: fam.member(n).substitute({"x": 0, "y": _X, "z": _Y}),
        lambda r: (c0_compose(-_X), exp_factor(_Y, 2)),
        requires_r=2,
    )
    # r = 1, x -> (1-x)/2, y -> (1+x)/2, z = 0: Legendre based member
    one_minus, one_plus = (1 - _X) * Fraction(1, 2), (_X + 1) * Fraction(1, 2)
    R["ex10r"] = _Reduction(
        "R",
        lambda fam, n: fam.member(n).substitute({"x": one_minus, "y": one_plus, "z": 0}),
        lambda r: (c0_compose(one_minus), c0_compose(-one_plus)),
        requires_r=1,
    )
    return R


REDUCTIONS = _make_reductions()
