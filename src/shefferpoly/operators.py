"""Formal linear operators on exact polynomials.

The operator algebra is generated by, per variable v in {x, y, z}:

* ``Deriv(v)``     -- d/dv,           v^k -> k v^(k-1)
* ``InvDeriv(v)``  -- antiderivative, v^k -> v^(k+1)/(k+1)

and by ``MulPoly(p)``, multiplication by a fixed polynomial p, together
with sums and composition.  The identity, a rational scaling and
multiplication by a variable are the ``MulPoly`` of 1, of the scalar and
of the variable (:func:`identity`, :func:`scale`, :func:`mul_var`).
``InvDeriv`` carries the vacuum normalisation InvDeriv(v)^n {1} = v^n / n!,
i.e. the integration constant is always zero.

Operator power series h(B) = sum h_k B^k act through nilpotency: when B
strictly lowers the degree in some variable the sum truncates after
finitely many terms on any polynomial, so the action is exact.
:func:`exp_operator` is the operator series exp(B) for a generator
B = sum c_i op_i, with the same degree bound; it refuses to exponentiate
a generator that does not visibly lower a common variable unless the
caller supplies an explicit cutoff.  :func:`commutator_check` and
:func:`crofton_check` return one :class:`~shefferpoly.checks.Check` each.
The commutator forms a∘b(e) - b∘a(e) of each test monomial e in one
accumulator, from the memoized images of b(e)'s monomials under a and of
a(e)'s under b; it never reduces either side on its own.

Each operator declares the variables its image reads (``reads()``, beside
``deltas()``): ``Deriv(v)`` and ``InvDeriv(v)`` read v; ``MulPoly``
reads nothing; a sum or composition reads the union of its parts, and an
operator series what its base reads; an operator that declares nothing
reads every variable.  The image of a monomial depends on the exponents of
the read variables only up to translation: for s zero on them,
op(x^(e + s)) = x^s op(x^e).  That holds for the leaves by their rules,
and sums and compositions inherit it.  An operator series refuses a
monomial only by the degrees of the variables its base lowers, and a
variable is lowered only through a ``Deriv`` of it, so it refuses
x^(e + s) exactly when it refuses x^e.  Hence
(ab - ba)(x^(e + s)) = x^s (ab - ba)(x^e), and :func:`commutator_check`
tests only the monomials free of the variables neither a nor b reads:
a failure or an exception at e + s is the same one at e, which comes
earlier.  No family's raising or lowering operator reads z.

Every leaf operator (``Deriv``, ``InvDeriv``, ``MulPoly``) defines only
its image of one monomial, ``image(e)``.  All but a many-term ``MulPoly``
are weighted shifts, and set ``shift``: they send x^e to one monomial
w(e) x^(e + delta), or to zero.  A ``Compose`` (so an ``op_pow``) of
weighted shifts is one weighted shift too, and shares a memo like one
(below); its image, like that of every composition, is its parts applied
in turn.  An ``OpSeries`` h(B) over a weighted-shift base has the
closed-form image sum_k h_k W_k(e) x^(e + k delta), where W_k(e) is the
product of B's weights along e, B e, ..., B^(k-1) e; for B = d/dy this is
h(d/dy) y^m = sum_k h_k m!/(m-k)! y^(m-k).  The shift bases d/dy,
Theta = -d/dx x d/dx and -d/dx x d/dy all take this path, the kernel's one
walk: it reads each step's image as B's memo holds it, a ``Num`` of one
term or none.

Images, and every intermediate value inside a composite, are in the
polynomial's own representation: integer numerators over one denominator,
reduced by their gcd (``multipoly.Num``).  It is the one image form: a
weighted shift's memo holds it too.  A linear combination of whole
images is summed in one accumulator by ``multipoly._sum``, single scaled
monomials by ``multipoly._collect``.  ``_sum`` takes a list of (scale,
image) pairs and reads it as it is, once for the common denominator and
once to accumulate, so every caller builds that list once:
``LinOp._images_over`` appends each scaled image of a polynomial straight
into the caller's list, and ``commutator_check`` puts both sides of one
test monomial, and ``LinOp.residual`` the image and the subtracted
polynomial, into one list and one ``_sum``.  ``multipoly.lincomb`` builds
its list the same way but first reduces each scale against its
polynomial's denominator; an image's scale shares few factors with the
image's denominator, so the kernel sums its scales as they are.
``LinOp.apply`` is the one linear extension, and there is no conversion
at its boundary: it hands the polynomial's fields to the kernel and wraps
the result as it is.  Images
are memoized, so an operator applied to many polynomials (the raising and
lowering operators of a monomiality check, over every member and every
commutator test monomial) computes the image of each monomial once.
``LinOp._image_at`` is the only reader of an image memo: every image read,
hit or miss, goes through it.  The memo has one of two lifetimes:

* A weighted shift, and an ``OpSeries`` over a weighted-shift base, shares
  one memo with every operator of the same structure, kept in the ``memo``
  store until ``memo.clear()``.  The key is the structure only: a leaf's is
  its class and its argument (the variable or the polynomial);
  a shift ``Compose``'s is the tuple of its parts' keys; an ``OpSeries``'s
  is its class, the series numerators and denominator it reads, its cutoff
  and its base's key.  Every family's d/dy, Theta, f(d/dy) or (1/f')(Theta)
  computes each image once.
* Every other operator (an ``OpSeries`` over any other base, ``OpSum``, a
  ``Compose`` that is not a shift, a many-term ``MulPoly``) keeps its own
  memo, since its images depend on its whole tree; the memo is freed with
  the operator.

``shift`` decides only that sharing and the walk above.  A leaf reads
its class's ``image`` on every memo miss, so every composite sees the
leaf's action.  The keys name no code, so a memo holds whatever the code
of the moment computed: a fault planted in the engine (a replaced
``image`` or ``_image``) is kept out of the correct images by whoever
plants it, with an empty memo store for as long as it stands (the tests'
``plant`` fixture), never by the engine.  Operators are immutable
expression trees and application is pure: a memo write, shared memo or
not, stores the value any other call would compute, and since polynomials
are immutable, a result that shares its fields with a memoized image
cannot change it, so concurrent use is safe.

An operator series checks its cutoff (``OpSeries._admit``) in ``_image``,
on each monomial before it computes that monomial's image, so a memo holds
only images whose check passed, and a polynomial's image, the sum of its
monomials' images, is exact when it is returned.  The key of a shared memo
fixes that verdict: with no cutoff the h_k in it fix the series order and
the base's key the lowered variables, and with a cutoff c it holds c and
the h_k read, so the series refuses exactly when fewer than c + 1 exist.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .checks import Check, compare
from .memo import memo
from .multipoly import VARS, VAR_INDEX, Exponent, MultiPoly, Num, _collect, _sum, _wrap, as_poly
from .series import OrderTooSmall, Series


class OperatorError(ValueError):
    """Base class for operator precondition violations."""


class CutoffRequired(OperatorError):
    """An operator series needs an explicit cutoff: its base does not
    provably lower any variable's degree."""


class NonNilpotentGenerator(OperatorError):
    """exp_operator got a generator with no commonly lowered variable."""


# Degree-change bookkeeping: each operator reports, per variable, the
# worst-case (largest) change it can make to that variable's degree, or
# None when the change is unbounded.  A value <= -1 proves the operator
# strictly lowers that degree on every monomial it does not annihilate.
Deltas = dict[str, int | None]


def _zero_deltas() -> Deltas:
    return {v: 0 for v in VARS}


# The indices of the variables whose exponents an operator's image depends
# on beyond translation (see the module docstring).
Reads = frozenset[int]

_READS_NONE: Reads = frozenset()
_READS_ALL: Reads = frozenset(range(len(VARS)))


def _term(e: Exponent, n: int = 1, d: int = 1) -> MultiPoly:
    """n/d times the monomial with exponents e (zero when n is 0); n/d is
    in lowest terms with d > 0."""
    return _wrap(({e: n}, d) if n else ({}, 1))


def _bump(e: Exponent, i: int, step: int) -> Exponent:
    return e[:i] + (e[i] + step,) + e[i + 1:]


class LinOp:
    """Base class for formal linear operators on MultiPoly.

    A leaf defines ``image(e)``, its action on the single monomial with
    exponents e, and sets ``shift`` when that image is always one monomial
    or zero.  Composites define ``_image``, the image of x^e as
    (numerators, denominator) fields; a leaf's returns the fields of its
    ``image(e)``.  Every memo holds those fields, and ``apply`` is the
    linear extension, written once here: each image is computed once per
    memo.  A weighted shift, and an ``OpSeries`` over one, shares the memo
    of its structure, kept in the ``memo`` store under a key that holds the
    structure only; every other operator keeps its own, which is freed with
    the operator.
    """

    shift = False

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls)
        self._images = {}
        return self

    def _share(self, key: tuple) -> None:
        """Make this operator read and fill the shared memo of ``key``."""
        self._key = key
        self._images = memo(("images", key), dict)

    def _leaf(self, arg) -> None:
        """Share the memo of this leaf's class and argument."""
        self._share((type(self), arg))

    def _image(self, e: Exponent) -> Num:
        """A leaf's image of x^e, read from its ``image``."""
        img = self.image(e)
        return img._nums, img._den

    def _image_at(self, e: Exponent) -> Num:
        """The memoized image of the single monomial x^e.

        The one reader of the memo: every read of an image, hit or miss,
        goes through here, and a miss computes it with ``_image``."""
        images = self._images
        img = images.get(e)
        if img is None:
            img = images[e] = self._image(e)
        return img

    def _images_over(self, terms: Mapping[Exponent, int], c: int,
                     out: list[tuple[int, Num]]) -> None:
        """Append (c n, image of x^e) to ``out`` for every term n x^e of a
        polynomial, each image read through ``_image_at``."""
        image_at = self._image_at
        out.extend([(c * n, image_at(e)) for e, n in terms.items()])

    def _act(self, terms: dict[Exponent, int], den: int) -> Num:
        """This operator applied to sum_e terms[e] x^e / den."""
        images: list[tuple[int, Num]] = []
        self._images_over(terms, 1, images)
        return _sum(images, den)

    def apply(self, p: MultiPoly) -> MultiPoly:
        return _wrap(self._act(p._nums, p._den))

    def residual(self, p: MultiPoly, c: int, q: MultiPoly) -> MultiPoly:
        """self(p) - c q, with q summed into the accumulator of p's images."""
        images: list[tuple[int, Num]] = []
        self._images_over(p._nums, 1, images)
        images.append((-c * p._den, (q._nums, q._den)))
        return _wrap(_sum(images, p._den))

    def deltas(self) -> Deltas:
        raise NotImplementedError

    def reads(self) -> Reads:
        """The indices of the variables whose exponents this operator's image
        depends on beyond translation; an operator that does not declare
        them reads every variable."""
        return _READS_ALL

    def __call__(self, p: MultiPoly) -> MultiPoly:
        return self.apply(p)

    # convenience algebra
    def __add__(self, other: "LinOp") -> "LinOp":
        return OpSum((self, other))

    def __rmul__(self, c) -> "LinOp":
        if isinstance(c, (int, Fraction, MultiPoly)):
            return Compose((MulPoly(c), self))
        return NotImplemented

    def __repr__(self) -> str:
        return self.render()

    def render(self) -> str:
        raise NotImplementedError


class MulPoly(LinOp):
    """Multiplication by a fixed polynomial p, x^e -> p x^e: the one
    multiplication leaf, so also the identity (p = 1), a rational scaling
    (p constant) and multiplication by a variable (p = v).  With at most
    one term it is a weighted shift and shares the memo of (MulPoly, p)."""

    def __init__(self, poly: MultiPoly):
        self.poly = as_poly(poly)
        self.shift = len(self.poly._nums) <= 1
        if self.shift:
            self._leaf(self.poly)

    def image(self, e: Exponent) -> MultiPoly:
        return self.poly * _term(e)

    def deltas(self) -> Deltas:
        # the zero polynomial has degree -1 in every variable
        return {v: max(self.poly.degree_in(v), 0) for v in VARS}

    def reads(self) -> Reads:
        return _READS_NONE

    def render(self) -> str:
        s = str(self.poly)
        # a constant or a bare variable needs no parentheses
        return s if self.poly.total_degree() <= 0 or s in VARS else f"({s})"


class Deriv(LinOp):
    shift = True

    def __init__(self, var: str):
        self.var = var
        self.index = VAR_INDEX[var]
        self._leaf(var)

    def image(self, e: Exponent) -> MultiPoly:
        return _term(_bump(e, self.index, -1), e[self.index])

    def deltas(self) -> Deltas:
        d = _zero_deltas()
        d[self.var] = -1
        return d

    def reads(self) -> Reads:
        return frozenset((self.index,))

    def render(self) -> str:
        return f"d/d{self.var}"


class InvDeriv(LinOp):
    shift = True

    def __init__(self, var: str):
        self.var = var
        self.index = VAR_INDEX[var]
        self._leaf(var)

    def image(self, e: Exponent) -> MultiPoly:
        return _term(_bump(e, self.index, 1), 1, e[self.index] + 1)

    def deltas(self) -> Deltas:
        d = _zero_deltas()
        d[self.var] = 1
        return d

    def reads(self) -> Reads:
        return frozenset((self.index,))

    def render(self) -> str:
        return f"D_{self.var}^-1"


class OpSum(LinOp):
    def __init__(self, ops: Sequence[LinOp]):
        flat: list[LinOp] = []
        for op in ops:
            if isinstance(op, OpSum):
                flat.extend(op.ops)
            else:
                flat.append(op)
        self.ops = tuple(flat)

    def _image(self, e: Exponent) -> Num:
        parts = []
        for op in self.ops:
            t, d = op._image_at(e)
            parts += [(e2, n, d) for e2, n in t.items()]
        return _collect(parts)

    def deltas(self) -> Deltas:
        parts = [op.deltas() for op in self.ops]
        return {v: None if any(d[v] is None for d in parts)
                else max((d[v] for d in parts), default=0) for v in VARS}

    def reads(self) -> Reads:
        return _READS_NONE.union(*(op.reads() for op in self.ops))

    def render(self) -> str:
        return "(" + " + ".join(op.render() for op in self.ops) + ")"


class Compose(LinOp):
    """Composition; the rightmost operator acts first, as in written math.
    Its image of x^e is its parts applied in turn."""

    def __init__(self, ops: Sequence[LinOp]):
        flat: list[LinOp] = []
        for op in ops:
            if isinstance(op, Compose):
                flat.extend(op.ops)
            else:
                flat.append(op)
        self.ops = tuple(flat)
        self.shift = all(op.shift for op in self.ops)
        if self.shift:
            self._share(tuple(op._key for op in self.ops))

    def _image(self, e: Exponent) -> Num:
        *rest, first = self.ops
        cur = first._image_at(e)
        for op in reversed(rest):
            cur = op._act(*cur)
        return cur

    def deltas(self) -> Deltas:
        parts = [op.deltas() for op in self.ops]
        return {v: None if any(d[v] is None for d in parts) else sum(d[v] for d in parts)
                for v in VARS}

    def reads(self) -> Reads:
        return _READS_NONE.union(*(op.reads() for op in self.ops))

    def render(self) -> str:
        return "∘".join(op.render() for op in self.ops)


def _lowered(deltas: Deltas) -> list[tuple[int, int]]:
    """(index, step) of every variable whose degree an operator with these
    ``deltas`` provably lowers, by at least step."""
    return [(VAR_INDEX[v], -dv) for v, dv in deltas.items() if dv is not None and dv <= -1]


def _degree_bound(lowered: list[tuple[int, int]], exps: Collection[Exponent]) -> int | None:
    """The largest k for which B^k can be nonzero on a polynomial with the
    monomials ``exps``, read from B's ``_lowered`` variables; None when it
    lowers none."""
    if not exps:
        return 0
    if not lowered:
        return None
    return min(max(e[i] for e in exps) // step for i, step in lowered)


class OpSeries(LinOp):
    """An operator power series h(B) = sum_k h_k B^k.

    Application uses the nilpotency cutoff: if B provably lowers the
    degree of some variable, only finitely many terms act on a given
    polynomial.  Otherwise an explicit ``cutoff`` must be supplied.  The
    image of one monomial e checks that cutoff against the series order
    (``_admit``), then sums h_k B^k e until the power vanishes (or through
    the explicit cutoff).  Over a weighted-shift base each B^k e is one
    monomial W_k(e) x^(e + k delta), read step by step from B's memo; over
    any other base each power is B applied to the previous one.  The h_k
    are read as the series stores them, integer numerators over its one
    denominator, so every term of an image is an integer ratio.

    Over a weighted-shift base the memo is shared by structure like a
    shift's, under the class, the h_k, the cutoff and the base's key; over
    any other base it is the operator's own.
    """

    def __init__(self, series: Series, base: LinOp, cutoff: int | None = None):
        self.series = series
        self.base = base
        self.cutoff = cutoff
        self._lowered = _lowered(base.deltas())
        # h_k = _hs[k] / _hden
        self._hs = series._nums if cutoff is None else series._nums[: cutoff + 1]
        self._hden = series._den
        if base.shift:
            self._share((type(self), self._hs, self._hden, cutoff, base._key))

    def _admit(self, exps: Collection[Exponent]) -> None:
        """Raise unless the series has every term it needs on the monomials
        ``exps``."""
        k_max = self.cutoff
        if k_max is None:
            k_max = _degree_bound(self._lowered, exps)
            if k_max is None:
                raise CutoffRequired(
                    f"base operator {self.base.render()} does not lower any degree; "
                    "supply an explicit cutoff"
                )
        if k_max > self.series.order:
            raise OrderTooSmall(
                f"operator series of order {self.series.order} applied where "
                f"{k_max} terms are needed"
            )

    def _image(self, e: Exponent) -> Num:
        self._admit((e,))
        base, hs, hden = self.base, self._hs, self._hden
        parts = [(e, hs[0], hden)]
        if base.shift:
            a = b = 1
            for h in hs[1:]:
                t, d = base._image_at(e)
                if not t:
                    break
                (e, n), = t.items()
                a *= n
                b *= d
                parts.append((e, h * a, hden * b))
        else:
            t, d = {e: 1}, 1
            for h in hs[1:]:
                t, d = base._act(t, d)
                if not t:
                    break
                parts += [(e2, h * n, hden * d) for e2, n in t.items()]
        return _collect(parts)

    def deltas(self) -> Deltas:
        base = self.base.deltas()
        d: Deltas = {}
        for v in VARS:
            bv = base[v]
            if bv is None or bv > 0:
                d[v] = None
            else:
                d[v] = 0  # includes the k = 0 identity term
        return d

    def reads(self) -> Reads:
        # the cutoff check reads only the lowered variables, and a variable is
        # lowered only through a Deriv of it in the base
        return self.base.reads()

    def render(self) -> str:
        return f"[{self.series}]({self.base.render()})"


# -- factory helpers -------------------------------------------------------------


def deriv(var: str) -> LinOp:
    return Deriv(var)


def inv_deriv(var: str) -> LinOp:
    return InvDeriv(var)


def mul_var(var: str) -> LinOp:
    return MulPoly(MultiPoly.var(var))


def mul_poly(p) -> LinOp:
    return MulPoly(p)


def scale(c) -> LinOp:
    return MulPoly(MultiPoly.const(c))


def identity() -> LinOp:
    return scale(1)


def compose(*ops: LinOp) -> LinOp:
    return Compose(ops)


def op_sum(*ops: LinOp) -> LinOp:
    return OpSum(ops)


def op_pow(op: LinOp, k: int) -> LinOp:
    if k < 0:
        raise ValueError("negative operator power")
    if k == 0:
        return identity()
    return Compose((op,) * k)


# -- verification helpers ---------------------------------------------------------


def _exponents_up_to(max_degree: int) -> Iterator[Exponent]:
    """The exponents of every monomial of total degree <= max_degree, in
    graded-lex order."""
    for d in range(max_degree + 1):
        for ex in range(d, -1, -1):
            for ey in range(d - ex, -1, -1):
                yield ex, ey, d - ex - ey


def monomials_up_to(max_degree: int) -> list[MultiPoly]:
    """All monomials of total degree <= max_degree, in graded-lex order."""
    return [_term(e) for e in _exponents_up_to(max_degree)]


def commutator_check(a: LinOp, b: LinOp, test_degree: int) -> Check:
    """Check (a∘b - b∘a) = identity on all monomials of degree <= test_degree.

    The record carries test_degree as its n; a failure names the first
    monomial, in graded-lex order, where the identity breaks.  Per
    monomial e, a∘b(e) - b∘a(e) is one accumulator over the memoized
    images, read in the order b(e), a over it, a(e), b over it.  A
    negative test_degree, which would test nothing, raises
    ``ValueError``.

    Only the monomials free of the variables that neither operator reads
    are tested, a generating set of the rest under translation.  For s
    zero on every read variable, (ab - ba)(x^(e + s)) = x^s (ab - ba)(x^e),
    and an operator refuses x^(e + s) exactly when it refuses x^e.  So a
    failure or an exception at e + s is the same one at e, which comes
    earlier in graded-lex order: the first failure, its witness and any
    exception are those of the check over every monomial.
    """
    if test_degree < 0:
        raise ValueError("the commutator test degree must be >= 0")
    unread = _READS_ALL - a.reads() - b.reads()
    for e in _exponents_up_to(test_degree):
        if any(e[i] for i in unread):
            continue  # a translate of a monomial tested before it
        # a(b(e)) - b(a(e)) = (ad * sum ab - bd * sum ba) / (ad * bd), read
        # in the order b(e), a over it, a(e), b over it; the ab images are
        # scaled by ad once a(e) is read
        bt, bd = b._image_at(e)
        images: list[tuple[int, Num]] = []
        a._images_over(bt, 1, images)
        split = len(images)
        at, ad = a._image_at(e)
        if ad != 1:
            images[:split] = [(n * ad, img) for n, img in images[:split]]
        b._images_over(at, -bd, images)
        got = _sum(images, ad * bd)
        if got != ({e: 1}, 1):
            return Check("operators", "commutator", False,
                         lambda: f"FAIL at {_term(e)}: commutator gives {_wrap(got)}",
                         test_degree)
    return Check("operators", "commutator", True, None, test_degree)


def exp_generator(terms: Iterable[tuple[MultiPoly | int | Fraction, LinOp]]) -> LinOp:
    """B = sum_i c_i op_i, the generator that :func:`exp_operator` exponentiates."""
    return OpSum([Compose((MulPoly(as_poly(c)), op)) for c, op in terms])


def exp_operator(
    terms: Iterable[tuple[MultiPoly | int | Fraction, LinOp]],
    p: MultiPoly,
    cutoff: int | None = None,
) -> MultiPoly:
    """Apply exp(sum_i c_i op_i) to a polynomial, exactly.

    The exponential is the operator series exp(B) at B = sum_i c_i op_i.
    Without an explicit cutoff every summand must strictly lower the
    degree of one common variable; the exponential then truncates after
    deg_v(p) steps.  With a cutoff the sum is taken through that power
    regardless (used for identities stated "up to degree d").
    """
    gen = exp_generator(terms)
    k = cutoff if cutoff is not None else _degree_bound(_lowered(gen.deltas()), p._nums)
    if k is None:
        raise NonNilpotentGenerator(
            "no variable is lowered by every generator term; "
            "supply an explicit cutoff"
        )
    return OpSeries(Series.t(k).exp(), gen, k).apply(p)


def crofton_check(m: int, lam: MultiPoly, f_poly: MultiPoly) -> Check:
    """Check f(y + m*lam*d^(m-1)/dy^(m-1)){1} = exp(lam*d^m/dy^m){f(y)}.

    ``f_poly`` is a polynomial in y; ``lam`` must not involve y.
    """
    if lam.depends_on("y"):
        raise OperatorError("the shift coefficient must be free of y")
    if f_poly.depends_on("x") or f_poly.depends_on("z"):
        raise OperatorError("the test polynomial must involve y only")
    shifted_arg = OpSum(
        (mul_var("y"), Compose((scale(m), MulPoly(lam), op_pow(Deriv("y"), m - 1))))
    )
    lhs = f_poly.substitute({"y": shifted_arg})
    rhs = exp_operator([(lam, op_pow(Deriv("y"), m))], f_poly)
    return compare("crofton", f"shift identity m={m}", lhs, rhs, form="{} != {}")


def substitute_operators(
    p: MultiPoly, mapping: Mapping[str, "LinOp | MultiPoly | int | Fraction"]
) -> MultiPoly:
    """``p.substitute(mapping)``, under the name that callers outside the
    package still use: :meth:`MultiPoly.substitute` takes operator images."""
    return p.substitute(mapping)
