"""Named verification suites: thin orchestration over the engine checks.

Each suite enumerates (pair, kind, r, n) combinations, calls the engine,
and returns a flat list of :class:`Check` rows.  The CLI and the
acceptance tests both run through here so there is exactly one definition
of what each suite covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .families import (
    gould_hopper,
    sheffer_poly,
    tricomi_c,
    umbral_pairing,
)
from .mixed import MixedFamily
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
from .oracle import cross_validate
from .pairs import catalog

_Y = MultiPoly.var("y")
_Z = MultiPoly.var("z")

DEFAULT_ORDER = 12

# the recorded witness of the printed R-kind operational route
_PRINTED_R_ROUTE = ("not evaluable: no variable is lowered by every generator "
                    "term; supply an explicit cutoff")


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    passed: bool
    witness: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "pass": self.passed,
            "witness": self.witness,
        }


def _check(suite: str, name: str, got, want) -> Check:
    ok = got == want
    return Check(suite, name, ok, None if ok else f"got {got}; expected {want}")


def suite_inverse(order: int = DEFAULT_ORDER,
                  max_n: int | None = None) -> list[Check]:
    """Compositional-inverse and A-series conformance for every pair that
    states closed forms for H and A.  (max_n is accepted for CLI
    uniformity; the check is per-pair, not per-n.)"""
    out = []
    for pair in catalog():
        built = pair.build(order)
        res = pair.resolved(order)
        if built.claimed_H is not None:
            out.append(_check("inverse", f"{pair.name}: f^(-1) = H",
                              res.H, built.claimed_H))
        if built.claimed_A is not None:
            out.append(_check("inverse", f"{pair.name}: 1/g(f^(-1)) = A",
                              res.A, built.claimed_A))
    return out


def suite_biorthogonality(order: int = DEFAULT_ORDER, max_n: int = 6) -> list[Check]:
    """<g f^k | s_n> = n! delta_{n,k} for every pair, n, k <= max_n."""
    out = []
    for pair in catalog():
        res = pair.resolved(order)
        ok = True
        witness = None
        fk = res.g
        for k in range(max_n + 1):
            if k:
                fk = fk * res.f
            for n in range(max_n + 1):
                val = umbral_pairing(fk, sheffer_poly(pair, n, order))
                want = Fraction(math.factorial(n)) if n == k else Fraction(0)
                if val != want:
                    ok = False
                    witness = f"n={n} k={k}: got {val}, expected {want}"
                    break
            if not ok:
                break
        out.append(Check("biorthogonality", f"{pair.name}: <g f^k | s_n>",
                         ok, witness))
    return out


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
                report = fam.verify_monomiality(max_n)
                if kind == "S":
                    fails = report.failures()
                    out.append(Check(
                        "monomiality", f"{fam.label}: S-kind suite",
                        report.core_pass,
                        None if not fails else
                        f"{fails[0].identity} n={fails[0].n}: {fails[0].witness}"))
                else:
                    verdicts = {}
                    for rec in report.records:
                        key = f"{rec.identity}/{rec.variant}/{rec.normalization}"
                        verdicts[key] = verdicts.get(key, True) and rec.passed
                    summary = "; ".join(
                        f"{k}={'PASS' if v else 'FAIL'}"
                        for k, v in sorted(verdicts.items()))
                    out.append(Check(
                        "monomiality", f"{fam.label}: R-kind verdicts",
                        report.core_pass, summary))
    return out


def suite_operational(
    order: int = DEFAULT_ORDER,
    max_n: int = 8,
    rs: tuple[int, ...] = (2, 3),
) -> list[Check]:
    """Exponential-operator representations of the S-kind members, plus the
    recorded verdict for the printed R-kind route."""
    out = []
    for pair in catalog():
        for r in rs:
            fam = MixedFamily(pair, "S", r, order)
            ok_a = ok_b = True
            witness = None
            for n in range(max_n + 1):
                for rec in fam.operational_rep_check(n):
                    if rec.identity == "sheffer-lift" and not rec.passed:
                        ok_a = False
                        witness = witness or f"n={n}: {rec.witness}"
                    if rec.identity == "z-restoration" and not rec.passed:
                        ok_b = False
                        witness = witness or f"n={n}: {rec.witness}"
            out.append(Check("operational",
                             f"{pair.name}/S/r={r}: sheffer-lift", ok_a, witness))
            out.append(Check("operational",
                             f"{pair.name}/S/r={r}: z-restoration", ok_b, witness))
    # the printed R-kind route is recorded: its generator lowers no common
    # variable, so the row passes only while the route stays not evaluable
    fam = MixedFamily(catalog()[0], "R", 2, order)
    rec = fam.operational_rep_check(2)[0]
    out.append(Check("operational",
                     "R-kind printed route (recorded verdict)",
                     rec.witness == _PRINTED_R_ROUTE,
                     f"{rec.identity}: {'PASS' if rec.passed else rec.witness}"))
    return out


def suite_integral(order: int = DEFAULT_ORDER, max_n: int = 6,
                   rs: tuple[int, ...] = (2, 3)) -> list[Check]:
    """Gamma-moment integral representations for both kinds."""
    out = []
    for pair in catalog():
        for r in rs:
            for kind in ("S", "R"):
                fam = MixedFamily(pair, kind, r, order)
                ok = True
                witness = None
                for n in range(max_n + 1):
                    rec = fam.integral_rep_check(n)
                    if not rec.passed:
                        ok = False
                        witness = f"n={n}: {rec.witness}"
                        break
                out.append(Check("integral", f"{fam.label}: moment rule",
                                 ok, witness))
    return out


def suite_heat(order: int = 12, max_n: int = 10) -> list[Check]:
    """Heat-equation and operational identities of the Gould-Hopper family,
    plus the inverse-derivative route to the Bessel-Tricomi function."""
    out = []
    for s in (2, 3, 4):
        heat_ok = True
        oper_ok = True
        raise_ok = True
        witness = None
        # M = x + s y d^(s-1)/dx^(s-1),  P = d/dx
        M = mul_var("x") + Fraction(s) * compose(
            mul_var("y"), op_pow(deriv("x"), s - 1))
        P = deriv("x")
        for n in range(max_n + 1):
            h = gould_hopper(n, s, max_n + 1)
            lhs = deriv("y").apply(h)
            rhs = op_pow(deriv("x"), s).apply(h)
            if lhs != rhs:
                heat_ok = False
                witness = f"heat s={s} n={n}"
            xn = MultiPoly.monomial((n, 0, 0))
            if exp_operator([(_Y, op_pow(deriv("x"), s))], xn) != h:
                oper_ok = False
                witness = f"operational s={s} n={n}"
            if M.apply(h) != gould_hopper(n + 1, s, max_n + 1):
                raise_ok = False
                witness = f"raising s={s} n={n}"
            if P.apply(h) != (gould_hopper(n - 1, s, max_n + 1) * n
                              if n else MultiPoly.zero()):
                raise_ok = False
                witness = f"lowering s={s} n={n}"
        com = commutator_check(P, M, 8)
        out.append(Check("heat", f"Gould-Hopper s={s}: heat equation", heat_ok,
                         witness if not heat_ok else None))
        out.append(Check("heat", f"Gould-Hopper s={s}: exp(y d_x^{s}) x^n", oper_ok,
                         witness if not oper_ok else None))
        out.append(Check("heat", f"Gould-Hopper s={s}: raising/lowering", raise_ok,
                         witness if not raise_ok else None))
        out.append(Check("heat", f"Gould-Hopper s={s}: commutator",
                         com.passed, None if com.passed else com.describe()))
    # C_0(alpha x) = exp(-alpha D_x^(-1)){1}, compared through degree `order`
    for alpha in (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)):
        via_exp = exp_operator(
            [(-alpha, inv_deriv("x"))], MultiPoly.const(1), cutoff=order)
        series = tricomi_c(0, order)
        direct = MultiPoly.zero()
        x = MultiPoly.var("x")
        for k, c in enumerate(series.coeffs):
            direct = direct + (x ** k) * (c * alpha ** k)
        out.append(_check("heat", f"C_0({alpha} x) via exp(-{alpha} D_x^-1)",
                          via_exp, direct))
    return out


def suite_crofton(order: int = DEFAULT_ORDER, max_n: int | None = None) -> list[Check]:
    """The shift identity f(y + m lam d^(m-1)/dy^(m-1)){1} = exp(lam d^m/dy^m) f(y)."""
    out = []
    z = MultiPoly.var("z")
    lams = {"z": z, "2z": z * 2, "z^2": z * z}
    for m in (2, 3):
        for lname, lam in lams.items():
            for k in range(1, 5):
                chk = crofton_check(m, lam, _Y ** k)
                out.append(Check(
                    "crofton", f"m={m} lam={lname} f=y^{k}", chk.passed,
                    None if chk.passed else f"{chk.lhs} != {chk.rhs}"))
    return out


def suite_oracle(order: int = DEFAULT_ORDER, max_n: int = 8) -> list[Check]:
    """The engine-vs-oracle cross validations."""
    out = []
    for name in ("ghp-vs-explicit", "leghpS-vs-table1", "leghpR-vs-table1",
                 "series-vs-naive-convolution", "lagrange-vs-newton"):
        results = cross_validate(name, max_n)
        bad = [r for r in results if not r.equal]
        out.append(Check(
            "oracle", f"{name} ({len(results)} comparisons)",
            not bad,
            None if not bad else
            f"{bad[0].description}: {bad[0].lhs} != {bad[0].rhs}"))
    return out


def suite_reductions(order: int = DEFAULT_ORDER, max_n: int = 6) -> list[Check]:
    """Every registered reduction, on a representative sample of pairs."""
    from .mixed import REDUCTIONS
    from .pairs import get_pair

    out = []
    sample = [get_pair("identity"), get_pair("lower-factorial"),
              get_pair("bernoulli2")]
    for pair in sample:
        for rid, recipe in sorted(REDUCTIONS.items()):
            r = recipe.requires_r if recipe.requires_r is not None else (
                3 if rid == "ex11" else 2)
            fam = MixedFamily(pair, recipe.kind, r, order)
            ok = True
            witness = None
            for n in range(max_n + 1):
                res = fam.reduce(rid, n)
                if not res.equal:
                    ok = False
                    witness = (f"n={n}: {res.specialized} != {res.target}")
                    break
            out.append(Check("reductions", f"{pair.name}/{rid}", ok, witness))
    return out


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
    return fn(order, max_n)


def run_all(order: int = DEFAULT_ORDER) -> list[Check]:
    out = []
    for name in sorted(SUITES):
        out.extend(SUITES[name](order))
    return out
