"""Sparse polynomials over exact rationals in the three variables x, y, z.

A polynomial is stored as integer numerators over one common denominator:
a map from exponent triples (e_x, e_y, e_z) to nonzero ``int`` numerators,
and one positive ``int`` denominator.  The pair is always reduced, so every
value has exactly one representation:

* no numerator is zero;
* the denominator is positive;
* gcd(denominator, *numerators) == 1;
* the zero polynomial is ({}, 1).

Equal polynomials therefore have equal fields, and equality and hashing
compare the fields directly.  All arithmetic (``+``, ``-``, ``*``, scalar
``*`` and ``/``, ``**``, ``substitute``) and rendering run in integers; a
``fractions.Fraction`` is built only where a coefficient is asked for
(``coeff``, ``constant_value``, ``terms``, ``sorted_terms``).

Values are immutable: the fields are private slots, set once at
construction and never written afterwards, and ``terms`` returns a fresh
{exponents: Fraction} dict on every read, so no caller can change a
polynomial another caller holds.  Polynomials are therefore safe to share
between threads and to keep in caches.

The operator kernel (``operators``) computes directly on these fields; the
helpers below that take or return a ``Num`` pair, ``(numerators,
denominator)``, are its interface.

A scalar (a coefficient, a constant, a factor or divisor) is an ``int`` or
a ``Fraction``; anything else, a float included, raises
``series.NonScalarCoefficient``.  That rule, the binary power and the
signed-term renderer are the ones ``series`` uses.  An exponent key is a
tuple of exactly three ``int``s >= 0, read by the same ``isinstance`` rule;
any other key raises ``BadExponent``, a ``ValueError``.

The canonical term order used by ``str()`` and :func:`poly_latex` is graded
lexicographic with x > y > z, highest total degree first.  Each coefficient
is its numerator over the denominator reduced by one gcd, rendered as
``p/q`` (or ``p`` when the reduced denominator is 1); this rendering is the
one golden-file tests pin down.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Union

from .series import _power, _ratio, _render_terms

VARS = ("x", "y", "z")
VAR_INDEX = {v: i for i, v in enumerate(VARS)}

Exponent = tuple[int, int, int]
Scalar = Union[int, Fraction]
# A polynomial's fields: {exponents: integer numerator} over one positive
# denominator, reduced as the module docstring states.
Num = tuple[dict[Exponent, int], int]

_CONST = (0, 0, 0)


class BadExponent(ValueError):
    """An exponent key that is not exactly three ints >= 0."""


def _exponents(exps) -> Exponent:
    """exps as an exponent key: a tuple of exactly three ints >= 0, read by
    the scalar reader's ``isinstance`` rule; anything else raises
    ``BadExponent``, which names the key."""
    if (isinstance(exps, tuple) and len(exps) == 3
            and all(isinstance(k, int) and k >= 0 for k in exps)):
        return exps
    raise BadExponent(f"exponent key must be three integers >= 0, not {exps!r}")


def _reduced(nums: dict[Exponent, int], den: int) -> Num:
    """(nums, den) with zero numerators dropped and the gcd divided out;
    den must be positive.  The dict may be returned as it is, so callers
    pass one they own."""
    if 0 in nums.values():
        nums = {e: n for e, n in nums.items() if n}
    if not nums:
        return {}, 1
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            return {e: n // g for e, n in nums.items()}, den // g
    return nums, den


def _sum(images: list[tuple[int, Num]], den: int = 1) -> Num:
    """The sum of n * (nums/d) over (n, (nums, d)) in images, divided by den
    (> 0): one pass over the list finds the common denominator, a second
    scales each image into one accumulator over it.  The list is read as it
    is, never copied or filtered."""
    common = 1
    for _, (_, d) in images:
        if common % d:
            common = lcm(common, d)
    acc: dict[Exponent, int] = {}
    get = acc.get
    for n, (nums, d) in images:
        if n:
            m = n * (common // d)
            for e, k in nums.items():
                acc[e] = get(e, 0) + k * m
    return _reduced(acc, den * common)


def _collect(parts: list[tuple[Exponent, int, int]], den: int = 1) -> Num:
    """The sum of (n/d) x^e over parts (e, n, d), divided by den."""
    common = lcm(*[d for _, _, d in parts])
    acc: dict[Exponent, int] = {}
    for e, n, d in parts:
        acc[e] = acc.get(e, 0) + n * (common // d)
    return _reduced(acc, den * common)


def _times_term(a: tuple[Exponent, int, int],
                b: tuple[Exponent, int, int]) -> tuple[Exponent, int, int]:
    """The product of two terms (e, n, d), each n/d x^e: exponents added,
    numerators and denominators multiplied, nothing reduced."""
    (e, n, d), (f, m, q) = a, b
    return (e[0] + f[0], e[1] + f[1], e[2] + f[2]), n * m, d * q


def _check_vars(mapping: Mapping[str, object]) -> None:
    """Raise ValueError naming the first key of a substitution that is not
    a variable."""
    for v in mapping:
        if v not in VAR_INDEX:
            raise ValueError(f"cannot substitute {v!r}: the variables are x, y and z")


def _wrap(num: Num) -> "MultiPoly":
    """The polynomial with the given (already reduced) fields, not copied."""
    p = object.__new__(MultiPoly)
    p._nums, p._den = num
    return p


class MultiPoly:
    """A sparse exact polynomial in x, y, z.

    >>> x, y = MultiPoly.var("x"), MultiPoly.var("y")
    >>> print((x + y) ** 2)
    x^2 + 2*x*y + y^2
    >>> print((x ** 2 + y).substitute({"x": y}))
    y^2 + y
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[Exponent, Scalar] | None = None):
        ratios = {}
        for exps, c in (terms or {}).items():
            exps = _exponents(exps)
            a, b = _ratio(c)
            if a:
                ratios[exps] = (a, b)
        den = lcm(*[b for _, b in ratios.values()])
        self._nums, self._den = _reduced(
            {e: a * (den // b) for e, (a, b) in ratios.items()}, den)

    @classmethod
    def _raw(cls, terms: Mapping[Exponent, Scalar]) -> "MultiPoly":
        """The public constructor under its former name, which callers
        outside the package (``perfbench/child.py``) still use."""
        return cls(terms)

    @classmethod
    def zero(cls) -> "MultiPoly":
        return _wrap(({}, 1))

    @classmethod
    def const(cls, c: Scalar) -> "MultiPoly":
        a, b = _ratio(c)
        return _wrap(({_CONST: a}, b) if a else ({}, 1))

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        exps = [0, 0, 0]
        exps[VAR_INDEX[name]] = 1
        return _wrap(({tuple(exps): 1}, 1))

    @classmethod
    def monomial(cls, exps: Exponent, c: Scalar = 1) -> "MultiPoly":
        return cls({tuple(exps): c})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other) -> "MultiPoly":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._nums:
            return self
        if not self._nums:
            return other
        den = lcm(self._den, other._den)
        ma, mb = den // self._den, den // other._den
        out = {e: n * ma for e, n in self._nums.items()}
        for e, n in other._nums.items():
            out[e] = out.get(e, 0) + n * mb
        return _wrap(_reduced(out, den))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _wrap(({e: -n for e, n in self._nums.items()}, self._den))

    def __sub__(self, other) -> "MultiPoly":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return _lift(other) + (-self)

    def _scaled(self, a: int, b: int) -> "MultiPoly":
        """self * a/b for a reduced ratio with b > 0."""
        nums, den = self._nums, self._den
        if not a or not nums:
            return _wrap(({}, 1))
        g = gcd(a, den)
        if g != 1:
            a //= g
            den //= g
        if b != 1:
            g = gcd(b, *nums.values())
            if g != 1:
                b //= g
                nums = {e: n // g for e, n in nums.items()}
        if a != 1:
            nums = {e: n * a for e, n in nums.items()}
        return _wrap((nums, den * b))

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        out: dict[Exponent, int] = {}
        for (a1, b1, c1), k1 in self._nums.items():
            for (a2, b2, c2), k2 in other._nums.items():
                e = (a1 + a2, b1 + b2, c1 + c2)
                out[e] = out.get(e, 0) + k1 * k2
        return _wrap(_reduced(out, self._den * other._den))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "MultiPoly":
        a, b = _ratio(other)
        if not a:
            raise ZeroDivisionError("polynomial division by zero")
        return self._scaled(b, a) if a > 0 else self._scaled(-b, -a)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n, MultiPoly.const(1))

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self._den == other._den and self._nums == other._nums
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self._nums
            return (self._den == other.denominator
                    and self._nums == {_CONST: other.numerator})
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __hash__(self):
        # a constant equals its scalar, so it must hash as one
        if self._nums.keys() <= {_CONST}:
            return hash(Fraction(self._nums.get(_CONST, 0), self._den))
        return hash((self._den, frozenset(self._nums.items())))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """A fresh {exponents: Fraction} dict of the nonzero coefficients."""
        den = self._den
        return {e: Fraction(n, den) for e, n in self._nums.items()}

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._nums:
            return -1
        return max(sum(e) for e in self._nums)

    def degree_in(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._nums:
            return -1
        i = VAR_INDEX[name]
        return max(e[i] for e in self._nums)

    def depends_on(self, name: str) -> bool:
        i = VAR_INDEX[name]
        return any(e[i] for e in self._nums)

    def coeff(self, exps: Exponent) -> Fraction:
        return Fraction(self._nums.get(tuple(exps), 0), self._den)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant monomial."""
        return self.coeff(_CONST)

    def scale_monomials(self, weight: Callable[[Exponent], int]) -> "MultiPoly":
        """Each monomial c x^e replaced by c * weight(e) x^e, weight integer."""
        den = self._den
        return _wrap(_reduced({e: n * weight(e) for e, n in self._nums.items()}, den))

    # -- substitution --------------------------------------------------------

    def substitute(self, mapping: Mapping[str, "MultiPoly | Scalar | Callable"]) -> "MultiPoly":
        """Simultaneously replace variables by polynomials, constants or
        operators applied to 1.

        Variables absent from ``mapping`` keep their exponents; a key that
        is not x, y or z raises ``ValueError``, and a scalar image is read
        by the module's scalar rule.  A callable image is an operator (an
        ``operators.LinOp``), whose e-th power is op^e {1}.  Each image
        keeps a table of its powers, entry e filled from entry e - 1: by
        one more multiplication for a polynomial, by one more application
        for an operator.  A monomial's image is its kept variables times the
        product of its mapped variables' entries.  An entry of one term (0,
        a constant, a scaled monomial, op^e {1} of a weighted shift) joins
        that product by adding exponents and multiplying integer numerators
        and denominators (``_times_term``); only entries of several terms
        are multiplied as polynomials.  For an operator image this is sound
        exactly when the operator acts on variables that the other factors
        do not use (true of every reduction recipe and shift identity in
        this package).
        """
        _check_vars(mapping)
        keep = [1, 1, 1]
        tables = []
        for i, v in enumerate(VARS):
            img = mapping.get(v)
            if img is not None:
                if not (isinstance(img, MultiPoly) or callable(img)):
                    img = MultiPoly.const(img)
                tables.append((i, img, [MultiPoly.const(1)]))
                keep[i] = 0
        kx, ky, kz = keep
        parts: list[tuple[Exponent, int, int]] = []
        for exps, n in self._nums.items():
            term, poly = ((exps[0] * kx, exps[1] * ky, exps[2] * kz), n, 1), None
            for i, img, tab in tables:
                e = exps[i]
                if not e:
                    continue
                while len(tab) <= e:
                    tab.append(img(tab[-1]) if callable(img) else tab[-1] * img)
                nums = tab[e]._nums
                if len(nums) == 1:
                    (f, m), = nums.items()
                    term = _times_term(term, (f, m, tab[e]._den))
                elif nums:
                    poly = tab[e] if poly is None else poly * tab[e]
                else:
                    term = (term[0], 0, 1)
            if not term[1]:
                continue
            if poly is None:
                parts.append(term)
            else:
                den = poly._den
                parts += [_times_term(term, (f, m, den)) for f, m in poly._nums.items()]
        return _wrap(_collect(parts, self._den))

    # -- rendering -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in graded-lex order (x > y > z), highest degree first."""
        den = self._den
        return [(e, Fraction(self._nums[e], den)) for e in _graded_lex(self._nums)]

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"MultiPoly({poly_str(self)})"


def lincomb(parts: Iterable[tuple[int, int, MultiPoly]]) -> MultiPoly:
    """sum (a/b) * p over (a, b, p) triples with integers a and b > 0, the
    ratio not necessarily reduced, in integers over one common denominator.

    Each part's scale a / (b * p's denominator) is put in lowest terms by
    one gcd before it is summed, so the common denominator is the lcm of
    the reduced ones: a member's sum runs over about its own denominator,
    not over the lcm of every column's and every phi_k's, and the final
    reduction mostly finds nothing to divide.

    The parts of a graded sum share no monomial (the phi_k of a weighted-
    homogeneous Phi, summed into a member), so each scaled numerator is
    written once by one comprehension.  The result then has exactly as many
    keys as the parts have terms; fewer keys is an exact test for overlap,
    and only then is the sum accumulated term by term (``_sum``)."""
    images = []
    common = 1
    size = 0
    for a, b, p in parts:
        if a and p._nums:
            d = b * p._den
            g = gcd(a, d)
            d //= g
            if common % d:
                common = lcm(common, d)
            images.append((a // g, (p._nums, d)))
            size += len(p._nums)
    acc = {e: k * m for n, (nums, d) in images for m in (n * (common // d),)
           for e, k in nums.items()}
    if len(acc) < size:
        return _wrap(_sum(images))
    return _wrap(_reduced(acc, common))


def _lift(v) -> "MultiPoly":
    if isinstance(v, MultiPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return MultiPoly.const(v)
    return NotImplemented


def as_poly(v) -> MultiPoly:
    """Coerce a scalar or polynomial to a MultiPoly."""
    lifted = _lift(v)
    if lifted is NotImplemented:
        raise TypeError(f"cannot interpret {v!r} as a polynomial")
    return lifted


def _monomial(exps: Exponent, power: str, times: str) -> str:
    return times.join(v if e == 1 else power.format(v, e) for v, e in zip(VARS, exps) if e)


def _graded_lex(nums: Mapping[Exponent, int]) -> list[Exponent]:
    """The exponents in graded-lex order (x > y > z), highest degree first."""
    return sorted(nums, key=lambda e: (-sum(e), -e[0], -e[1], -e[2]))


def poly_str(p: MultiPoly) -> str:
    """Canonical plain-text rendering, e.g. ``y^2 + 2*x + 2*z``."""
    nums = p._nums
    return _render_terms(((_monomial(e, "{}^{}", "*"), nums[e]) for e in _graded_lex(nums)),
                         p._den)


def _frac_latex(p: int, q: int) -> str:
    """The positive rational p/q, in lowest terms, in LaTeX."""
    return f"{p}" if q == 1 else f"\\frac{{{p}}}{{{q}}}"


def poly_latex(p: MultiPoly) -> str:
    """LaTeX rendering in the same canonical term order."""
    nums = p._nums
    return _render_terms(((_monomial(e, "{}^{{{}}}", ""), nums[e]) for e in _graded_lex(nums)),
                         p._den, _frac_latex, "")
