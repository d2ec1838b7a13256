"""Named verification suites: thin orchestration over the engine checks.

Each suite enumerates (pair, kind, r, n) combinations, calls the engine,
and returns a flat list of :class:`~shefferpoly.checks.Check` rows: most
rows are :func:`~shefferpoly.checks.first_failure` over a filter of the
engine's records, so a row passes iff each of its checks passes and shows
its own first failure.  The CLI and the acceptance tests both run through
here so there is exactly one definition of what each suite covers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .checks import Check, compare, first_failure
from .families import (
    gould_hopper,
    sheffer_poly,
    tricomi_c,
    umbral_pairing,
)
from .mixed import REDUCTIONS, MixedFamily
from .multipoly import MultiPoly
from .operators import (
    commutator_check,
    compose,
    crofton_check,
    deriv,
    exp_operator,
    inv_deriv,
    mul_var,
    op_pow,
)
from .oracle import SUITES as ORACLE_SUITES, cross_validate
from .pairs import catalog, get_pair

_Y = MultiPoly.var("y")
_Z = MultiPoly.var("z")

DEFAULT_ORDER = 12

# the recorded witness of the printed R-kind operational route
_PRINTED_R_ROUTE = ("not evaluable: no variable is lowered by every generator "
                    "term; supply an explicit cutoff")


def _at_n(c: Check) -> str:
    return f"n={c.n}: "


def suite_inverse(order: int = DEFAULT_ORDER) -> list[Check]:
    """Compositional-inverse and A-series conformance for every pair that
    states closed forms for H and A; the check is per pair, so it takes no
    max_n."""
    out = []
    for pair in catalog():
        built = pair.build(order)
        res = pair.resolved(order)
        if built.claimed_H is not None:
            out.append(compare("inverse", f"{pair.name}: f^(-1) = H",
                               res.H, built.claimed_H))
        if built.claimed_A is not None:
            out.append(compare("inverse", f"{pair.name}: 1/g(f^(-1)) = A",
                               res.A, built.claimed_A))
    return out


def _pairings(pair, order: int, max_n: int):
    """<g f^k | s_n> against n! delta_{n,k}, k-major."""
    res = pair.resolved(order)
    fk = res.g
    for k in range(max_n + 1):
        if k:
            fk = fk * res.f
        for n in range(max_n + 1):
            want = Fraction(math.factorial(n)) if n == k else Fraction(0)
            yield compare("biorthogonality", f"n={n} k={k}",
                          umbral_pairing(fk, sheffer_poly(pair, n, order)), want,
                          form="got {}, expected {}")


def suite_biorthogonality(order: int = DEFAULT_ORDER, max_n: int = 6) -> list[Check]:
    """<g f^k | s_n> = n! delta_{n,k} for every pair, n, k <= max_n."""
    return [first_failure("biorthogonality", f"{pair.name}: <g f^k | s_n>",
                          _pairings(pair, order, max_n), lambda c: f"{c.name}: ")
            for pair in catalog()]


def core_checks(kind: str, checks: list[Check]) -> list[Check]:
    """The records the theory asserts outright: every S-kind record, and
    the R-kind records of the theta variant at egf weight.  The other
    R-kind verdicts are recorded, not asserted."""
    return checks if kind == "S" else [c for c in checks if c.name.endswith("/theta/egf")]


def suite_monomiality(order: int = DEFAULT_ORDER, max_n: int = 8) -> list[Check]:
    """Raising / lowering / differential equation / commutator verdicts.

    S-kind rows pass when every check passes.  R-kind rows pass when every
    theta-variant identity passes at egf weight; the witness lists each
    identity/variant/normalisation verdict, printed ones included.
    """
    out = []
    for pair in catalog():
        for r in (2, 3):
            for kind in ("S", "R"):
                fam = MixedFamily(pair, kind, r, order)
                checks = fam.verify_monomiality(max_n)
                name = f"{fam.label}: " + ("S-kind suite" if kind == "S" else "R-kind verdicts")
                row = first_failure("monomiality", name, core_checks(kind, checks),
                                    lambda c: f"{c.name.split('/')[0]} n={c.n}: ")
                if kind == "R":
                    # the witness is every verdict, the recorded ones included
                    verdicts = {}
                    for c in checks:
                        verdicts[c.name] = verdicts.get(c.name, True) and c.passed
                    row = Check(row.suite, row.name, row.passed, "; ".join(
                        f"{k}={'PASS' if v else 'FAIL'}" for k, v in sorted(verdicts.items())), row.n)
                out.append(row)
    return out


def suite_operational(order: int = DEFAULT_ORDER, max_n: int = 8) -> list[Check]:
    """Exponential-operator representations of the S-kind members, plus the
    recorded verdict for the printed R-kind route."""
    out = []
    for pair in catalog():
        for r in (2, 3):
            fam = MixedFamily(pair, "S", r, order)
            checks = [c for n in range(max_n + 1) for c in fam.operational_rep_check(n)]
            for route in ("sheffer-lift", "z-restoration"):
                out.append(first_failure(
                    "operational", f"{pair.name}/S/r={r}: {route}",
                    [c for c in checks if c.name == route], _at_n))
    # the printed R-kind route is recorded: its generator lowers no common
    # variable, so the row passes only while the route stays not evaluable
    fam = MixedFamily(catalog()[0], "R", 2, order)
    rec = fam.operational_rep_check(2)[0]
    out.append(Check("operational",
                     "R-kind printed route (recorded verdict)",
                     rec.witness == _PRINTED_R_ROUTE,
                     f"{rec.name}: {'PASS' if rec.passed else rec.witness}"))
    return out


def suite_integral(order: int = DEFAULT_ORDER, max_n: int = 6) -> list[Check]:
    """Gamma-moment integral representations for both kinds."""
    out = []
    for pair in catalog():
        for r in (2, 3):
            for kind in ("S", "R"):
                fam = MixedFamily(pair, kind, r, order)
                out.append(first_failure(
                    "integral", f"{fam.label}: moment rule",
                    (fam.integral_rep_check(n) for n in range(max_n + 1)), _at_n))
    return out


def suite_heat(order: int = DEFAULT_ORDER, max_n: int = 10) -> list[Check]:
    """Heat-equation and operational identities of the Gould-Hopper family,
    plus the inverse-derivative route to the Bessel-Tricomi function."""
    out = []
    for s in (2, 3, 4):
        # M = x + s y d^(s-1)/dx^(s-1),  P = d/dx
        M = mul_var("x") + Fraction(s) * compose(
            mul_var("y"), op_pow(deriv("x"), s - 1))
        P = deriv("x")
        heat, oper, ladder = "heat equation", f"exp(y d_x^{s}) x^n", "raising/lowering"
        checks = []
        for n in range(max_n + 1):
            h = gould_hopper(n, s, max_n + 1)
            down = gould_hopper(n - 1, s, max_n + 1) * n if n else MultiPoly.zero()
            xn = MultiPoly.monomial((n, 0, 0))
            checks += [
                Check("heat", heat, deriv("y").apply(h) == op_pow(deriv("x"), s).apply(h),
                      f"heat s={s} n={n}"),
                Check("heat", oper, exp_operator([(_Y, op_pow(deriv("x"), s))], xn) == h,
                      f"operational s={s} n={n}"),
                Check("heat", ladder, M.apply(h) == gould_hopper(n + 1, s, max_n + 1),
                      f"raising s={s} n={n}"),
                Check("heat", ladder, P.apply(h) == down, f"lowering s={s} n={n}"),
            ]
        for row in (heat, oper, ladder):
            out.append(first_failure("heat", f"Gould-Hopper s={s}: {row}",
                                     [c for c in checks if c.name == row]))
        out.append(first_failure("heat", f"Gould-Hopper s={s}: commutator",
                                 [commutator_check(P, M, 8)]))
    # C_0(alpha x) = exp(-alpha D_x^(-1)){1}, compared through degree `order`
    for alpha in (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)):
        via_exp = exp_operator(
            [(-alpha, inv_deriv("x"))], MultiPoly.const(1), cutoff=order)
        series = tricomi_c(0, order)
        direct = MultiPoly.zero()
        x = MultiPoly.var("x")
        for k, c in enumerate(series.coeffs):
            direct = direct + (x ** k) * (c * alpha ** k)
        out.append(compare("heat", f"C_0({alpha} x) via exp(-{alpha} D_x^-1)",
                           via_exp, direct))
    return out


def suite_crofton(order: int = DEFAULT_ORDER) -> list[Check]:
    """The shift identity f(y + m lam d^(m-1)/dy^(m-1)){1} = exp(lam d^m/dy^m) f(y),
    on a fixed set of cases, so it takes no max_n."""
    out = []
    z = MultiPoly.var("z")
    lams = {"z": z, "2z": z * 2, "z^2": z * z}
    for m in (2, 3):
        for lname, lam in lams.items():
            for k in range(1, 5):
                out.append(first_failure("crofton", f"m={m} lam={lname} f=y^{k}",
                                         [crofton_check(m, lam, _Y ** k)]))
    return out


def suite_oracle(order: int = DEFAULT_ORDER, max_n: int = 8) -> list[Check]:
    """The engine-vs-oracle cross validations."""
    out = []
    for name in ORACLE_SUITES:
        checks = cross_validate(name, max_n)
        out.append(first_failure("oracle", f"{name} ({len(checks)} comparisons)",
                                 checks, lambda c: f"{c.name}: "))
    return out


def suite_reductions(order: int = DEFAULT_ORDER, max_n: int = 6) -> list[Check]:
    """Every registered reduction, on a representative sample of pairs."""
    out = []
    sample = [get_pair("identity"), get_pair("lower-factorial"),
              get_pair("bernoulli2")]
    for pair in sample:
        for rid, recipe in sorted(REDUCTIONS.items()):
            fam = MixedFamily(pair, recipe.kind, recipe.requires_r or 2, order)
            out.append(first_failure(
                "reductions", f"{pair.name}/{rid}",
                (fam.reduce(rid, n) for n in range(max_n + 1)), _at_n))
    return out


# the suites whose size no max_n sets
_FIXED_SIZE = ("crofton", "inverse")

SUITES = {
    "inverse": suite_inverse,
    "biorthogonality": suite_biorthogonality,
    "monomiality": suite_monomiality,
    "operational": suite_operational,
    "integral": suite_integral,
    "heat": suite_heat,
    "crofton": suite_crofton,
    "oracle": suite_oracle,
    "reductions": suite_reductions,
}


def run_suite(name: str, order: int = DEFAULT_ORDER,
              max_n: int | None = None) -> list[Check]:
    fn = SUITES.get(name)
    if fn is None:
        raise KeyError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}, all")
    if max_n is None:
        return fn(order)
    if name in _FIXED_SIZE:
        raise ValueError(f"--max-n does not apply to suite {name!r}, which has a fixed size")
    return fn(order, max_n)


def run_all(order: int = DEFAULT_ORDER) -> list[Check]:
    out = []
    for name in sorted(SUITES):
        out.extend(SUITES[name](order))
    return out
