"""Every planted engine fault, in one registry.

A row names the attribute it replaces (``owner.attr``), builds the
replacement from the original with ``make(original)``, and pins the
failing checks per suite of ``verify --suite all --format json --order
12`` under the fault; a row may also pin the golden digest of that
output.  ``test_faults.py`` plants every row through the ``plant``
fixture (an empty memo store), runs the verifier in process, and checks
that 297 of 297 pass once the fault is undone.  Tests that assert
something else under a fault take its replacement from here
(``FAULTS[name].plant(plant)``).

Some rows pin known gaps rather than passes: a fault that fails few
checks shows what the verifier cannot see yet.  Recount a row only when
the verifier's checks change on purpose; any other mismatch is a finding.
"""

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

from shefferpoly import MultiPoly, Series, families, mixed, multipoly, operators
from shefferpoly.cli import main
from shefferpoly.operators import compose, deriv, mul_var
from shefferpoly.pairs import ShefferPair

# checks per suite of verify --suite all --order 12: 297 in all
SUITE_SIZES = {
    "biorthogonality": 14, "crofton": 24, "heat": 16, "integral": 56, "inverse": 24,
    "monomiality": 56, "operational": 57, "oracle": 5, "reductions": 45,
}


@dataclass(frozen=True)
class Fault:
    owner: object
    attr: str
    make: Callable  # the original attribute -> its faulty replacement
    failing: dict[str, int]  # failing checks per suite; suites not named pass
    digest: str | None = None  # golden file holding the faulty output's sha256

    def plant(self, plant):
        plant(self.owner, self.attr, self.make(getattr(self.owner, self.attr)))


def verify_all() -> tuple[int, str]:
    """Exit code and output of ``verify --suite all --format json --order
    12``, run in process."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "--suite", "all", "--format", "json", "--order", "12"])
    return code, out.getvalue()


def failing_per_suite(report: str) -> dict[str, tuple[int, int]]:
    """(failing, total) checks per suite of a JSON verify report."""
    counts = {}
    for c in json.loads(report)["checks"]:
        failing, total = counts.get(c["suite"], (0, 0))
        counts[c["suite"]] = (failing + (not c["pass"]), total + 1)
    return counts


def off_by_one_deriv(wrong_at):
    """A d/dv image that multiplies v^k (k >= 1) by k + 1 instead of k
    where wrong_at(k)."""
    def image(self, e):
        k = e[self.index]
        if not k:
            return MultiPoly.zero()
        e2 = e[:self.index] + (k - 1,) + e[self.index + 1:]
        return MultiPoly({e2: k + 1 if wrong_at(k) else k})
    return image


def _dy_doubled_with_z(image):
    """d/dy doubling its image of every monomial with a z in it: d/dy then
    reads z, which breaks the translation lemma the commutator rows rest on."""
    def doubled(self, e):
        img = image(self, e)
        return 2 * img if self.var == "y" and e[2] else img
    return doubled


def _inv_deriv_wrong_constant(self, e):
    """A D_v^-1 image that divides v^(k+1) by k + 2 instead of k + 1."""
    k = e[self.index]
    return MultiPoly({e[:self.index] + (k + 1,) + e[self.index + 1:]: F(1, k + 2)})


def _series_plus_identity(image):
    """h(B) + 1 in place of h(B)."""
    return lambda self, e: operators._sum(((1, image(self, e)), (1, ({e: 1}, 1))))


def _path_weight_plus_one(image):
    """A shift composition's image, its parts applied in turn, with its path
    weight plus one."""
    def planted(self, e):
        nums, den = image(self, e)
        if not self.shift or not nums:
            return nums, den
        (e2, n), = nums.items()
        return {e2: n + den}, den
    return planted


def _mul_poly_squared(self, e):
    """A multiplication by p that multiplies by p^2."""
    return self.poly ** 2 * MultiPoly.monomial(e)


def _lincomb_numerator_only(parts):
    """A member sum that divides each scale a by gcd(a, b * den) but keeps
    b * den."""
    images = []
    for a, b, p in parts:
        d = b * p._den
        images.append((a // math.gcd(a, d), (p._nums, d)))
    return multipoly._wrap(multipoly._sum(images))


def _geo_multinomial_plus_one(weight):
    """The geometric factor's multinomial weight one too large."""
    return lambda kind, ms: weight(kind, ms) + (kind == "geo")


def _c0_sign_flipped(weight):
    """(-1)^(m+1)/(m!)^2 for m >= 1."""
    return lambda kind, ms: -weight(kind, ms) if kind == "c0" and ms[0] else weight(kind, ms)


def _times_term_x_plus_one(a, b):
    """multipoly._times_term with the product's x exponent one too high."""
    (e, n, d), (f, m, q) = a, b
    return (e[0] + f[0] + 1, e[1] + f[1], e[2] + f[2]), n * m, d * q


def _mul_z_max(mul):
    """A product taking the max of the z exponents, not their sum: a ring
    homomorphism onto Q[x, y, z]/(z^2 - z)."""
    def planted(self, other):
        if not isinstance(other, MultiPoly):
            return mul(self, other)
        out = {}
        for (a1, b1, c1), k1 in self._nums.items():
            for (a2, b2, c2), k2 in other._nums.items():
                e = (a1 + a2, b1 + b2, max(c1, c2))
                out[e] = out.get(e, 0) + k1 * k2
        return multipoly._wrap(multipoly._reduced(out, self._den * other._den))
    return planted


def _laguerre_a3_plus_one(resolved):
    """laguerre's resolved record with [t^3] A one too high in column 0 of
    its Sheffer matrix.  Keyed on the name: at the catalog defaults
    actuarial's g equals laguerre's 1/(1 - t)."""
    def planted(self, order):
        res = resolved(self, order)
        if self.name == "laguerre" and "columns" not in vars(res):
            A, *rest = res.columns
            coeffs = A.coeffs
            coeffs[3] += 1
            vars(res)["columns"] = (Series(coeffs, A.order), *rest)
        return res
    return planted


def _theta_without_sign(theta):
    """Theta = -d/dx x d/dx without its -1."""
    return lambda: compose(deriv("x"), mul_var("x"), deriv("x"))


FAULTS = {
    # the two d/dv rows were first recorded from the whole-polynomial
    # operator code the monomial kernel replaced (dy-doubled-with-z with
    # every commutator test monomial evaluated), the next four from the
    # kernel that walked a shift composition as one product of its leaves'
    # weights; a composition's parts applied in turn give the same images.
    # mul-poly-squared was recorded with the squaring also planted on three
    # more multiplication leaves that are MulPoly today
    "deriv-off-by-one": Fault(
        operators.Deriv, "image", lambda image: off_by_one_deriv(lambda k: True),
        {"crofton": 15, "heat": 12, "monomiality": 56, "operational": 56, "oracle": 1,
         "reductions": 6},
        "verify_all_o12_deriv_fault.sha256"),
    "dy-doubled-with-z": Fault(
        operators.Deriv, "image", _dy_doubled_with_z,
        {"crofton": 3, "monomiality": 28, "operational": 56},
        "verify_all_o12_translation_fault.sha256"),
    "inv-deriv-constant": Fault(
        operators.InvDeriv, "image", lambda image: _inv_deriv_wrong_constant,
        {"heat": 4, "monomiality": 56, "operational": 28, "oracle": 1, "reductions": 9}),
    "series-plus-identity": Fault(
        operators.OpSeries, "_image", _series_plus_identity,
        {"crofton": 24, "heat": 7, "monomiality": 56, "operational": 56}),
    # 3 reductions higher while a substitution raised an operator image to
    # its e-th power as op_pow(op, e): ex9's y -> D_x^-1{1} applies the bare
    # InvDeriv, which no composition walk reaches
    "compose-walk-plus-one": Fault(
        operators.Compose, "_image", _path_weight_plus_one,
        {"crofton": 9, "heat": 16, "monomiality": 56, "operational": 56, "oracle": 1,
         "reductions": 12}),
    "mul-poly-squared": Fault(
        operators.MulPoly, "image", lambda image: _mul_poly_squared,
        {"crofton": 24, "heat": 13, "monomiality": 56, "operational": 56, "oracle": 1,
         "reductions": 12}),
    # the reduced scales of a member sum can fail, the oracle's explicit
    # sums included
    "lincomb-numerator-only": Fault(
        families, "lincomb", lambda lincomb: _lincomb_numerator_only,
        {"biorthogonality": 14, "heat": 6, "monomiality": 56, "oracle": 3,
         "reductions": 13}),
    # a wrong Phi factor weight reaches every member, target and oracle case
    # that reads the factor through the phi_k memoized under Phi's name
    "geo-multinomial-plus-one": Fault(
        families, "_factor_weight", _geo_multinomial_plus_one,
        {"integral": 56, "reductions": 6}),
    "c0-sign-flipped": Fault(
        families, "_factor_weight", _c0_sign_flipped,
        {"monomiality": 56, "operational": 28, "oracle": 3, "reductions": 12}),
    "times-term-x-plus-one": Fault(
        multipoly, "_times_term", lambda times_term: _times_term_x_plus_one,
        {"crofton": 24, "oracle": 2, "reductions": 33}),
    "theta-sign": Fault(
        mixed, "theta_operator", _theta_without_sign, {"monomiality": 28}),
    # known gaps: a homomorphism onto a quotient ring passes every identity
    # whose two sides both come from the engine; only rows with a step
    # outside the ring (the moment rule, a substitution, an explicit sum)
    # catch it
    "mul-z-max": Fault(
        MultiPoly, "__mul__", _mul_z_max,
        {"integral": 56, "oracle": 2, "reductions": 27}),
    # a Sheffer matrix fault cancels out of every suite that reads the
    # matrix on both sides
    "laguerre-a3-plus-one": Fault(
        ShefferPair, "resolved", _laguerre_a3_plus_one,
        {"biorthogonality": 1, "monomiality": 4}),
    # a known gap: R-kind members at weight n! instead of (n!)^2.  Every
    # member, egf_member and stored-weight check reads the power from
    # WEIGHT_POWER, so the monomiality identities agree with themselves;
    # only the oracle's explicit R-kind sums see the weight
    "r-weight-one": Fault(
        families, "WEIGHT_POWER", lambda powers: {**powers, "R": 1},
        {"oracle": 1}),
}
