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
``*`` and ``/``, ``**``, ``substitute``) runs in integers; a
``fractions.Fraction`` is built only where a single coefficient is asked
for (``coeff``, ``constant_value``, ``terms``) or rendered.

Values are immutable: the fields are private slots, set once at
construction and never written afterwards, and ``terms`` returns a fresh
{exponents: Fraction} dict on every read, so no caller can change a
polynomial another caller holds.  Polynomials are therefore safe to share
between threads and to keep in caches.

The operator kernel (``operators``) computes directly on these fields; the
helpers below that take or return a ``Num`` pair, ``(numerators,
denominator)``, are its interface.

The canonical term order used by ``str()`` and :func:`poly_latex` is graded
lexicographic with x > y > z, highest total degree first.  Rationals render
as ``p/q`` (or ``p`` when the denominator is 1); this rendering is the one
golden-file tests pin down.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Mapping, Union

VARS = ("x", "y", "z")
VAR_INDEX = {v: i for i, v in enumerate(VARS)}

Exponent = tuple[int, int, int]
Scalar = Union[int, Fraction]
# A polynomial's fields: {exponents: integer numerator} over one positive
# denominator, reduced as the module docstring states.
Num = tuple[dict[Exponent, int], int]

_CONST = (0, 0, 0)


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


def _collect(parts: list[tuple[Exponent, int, int]], den: int = 1) -> Num:
    """The sum of (n/d) x^e over parts (e, n, d), divided by den."""
    if len(parts) == 1:
        e, n, d = parts[0]
        d *= den
        g = gcd(n, d)
        return ({e: n // g}, d // g) if n else ({}, 1)
    common = lcm(*[d for _, _, d in parts])
    acc: dict[Exponent, int] = {}
    for e, n, d in parts:
        acc[e] = acc.get(e, 0) + n * (common // d)
    return _reduced(acc, den * common)


def _wrap(num: Num) -> "MultiPoly":
    """The polynomial with the given (already reduced) fields, not copied."""
    p = object.__new__(MultiPoly)
    p._nums, p._den = num
    return p


def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction scalar."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    return c.numerator, c.denominator


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
            a, b = _ratio(c)
            if a:
                ratios[(int(exps[0]), int(exps[1]), int(exps[2]))] = (a, b)
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
        result = MultiPoly.const(1)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

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

    def substitute(self, mapping: Mapping[str, "MultiPoly | Scalar"]) -> "MultiPoly":
        """Simultaneously replace variables by polynomials (or constants).

        Variables absent from ``mapping`` are left in place.
        """
        images: list[MultiPoly] = []
        for v in VARS:
            img = mapping.get(v)
            if img is None:
                images.append(MultiPoly.var(v))
            elif isinstance(img, MultiPoly):
                images.append(img)
            else:
                images.append(MultiPoly.const(img))
        # power tables keep repeated exponents cheap
        powers: list[dict[int, MultiPoly]] = [{0: MultiPoly.const(1)} for _ in VARS]

        def power(i: int, e: int) -> MultiPoly:
            tab = powers[i]
            got = tab.get(e)
            if got is None:
                got = tab[e] = power(i, e - 1) * images[i]
            return got

        parts = []
        for exps, n in self._nums.items():
            term = None
            for i, e in enumerate(exps):
                if e:
                    term = power(i, e) if term is None else term * power(i, e)
            if term is None:
                parts.append((_CONST, n, 1))
            else:
                d = term._den
                parts += [(e2, n * k, d) for e2, k in term._nums.items()]
        return _wrap(_collect(parts, self._den))

    # -- rendering -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in graded-lex order (x > y > z), highest degree first."""
        den = self._den
        return [(e, Fraction(self._nums[e], den))
                for e in sorted(self._nums, key=lambda e: (-sum(e), -e[0], -e[1], -e[2]))]

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"MultiPoly({poly_str(self)})"


def lincomb(pairs: Iterable[tuple[Scalar, MultiPoly]]) -> MultiPoly:
    """sum c * p over (c, p) pairs, in integers over one common denominator."""
    scaled = []
    common = 1
    for c, p in pairs:
        if c and p._nums:
            d = c.denominator * p._den
            common = lcm(common, d)
            scaled.append((c.numerator, d, p._nums))
    acc: dict[Exponent, int] = {}
    for a, d, nums in scaled:
        m = a * (common // d)
        for e, n in nums.items():
            acc[e] = acc.get(e, 0) + n * m
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


def _monomial_str(exps: Exponent) -> str:
    parts = []
    for v, e in zip(VARS, exps):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def poly_str(p: MultiPoly) -> str:
    """Canonical plain-text rendering, e.g. ``y^2 + 2*x + 2*z``."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for exps, c in p.sorted_terms():
        mono = _monomial_str(exps)
        neg = c < 0
        mag = -c if neg else c
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)


def _frac_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def poly_latex(p: MultiPoly) -> str:
    """LaTeX rendering in the same canonical term order."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for exps, c in p.sorted_terms():
        mono = "".join(
            v if e == 1 else f"{v}^{{{e}}}"
            for v, e in zip(VARS, exps)
            if e
        )
        neg = c < 0
        mag = -c if neg else c
        if not mono:
            body = _frac_latex(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_frac_latex(mag)}{mono}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)
