"""Truncated formal power series with exact coefficients.

A :class:`Series` holds the rational coefficients of t^0 .. t^N for a
fixed truncation order N: the pair functions g, f, A, H and the columns
A*H^k of a pair's Sheffer matrix.  Series are scalar only; polynomial
families are assembled from these scalar columns and closed-form
coefficients in x, y, z (see the families module).  Every operation is
exact through the result's order and truncation is the only
"approximation" anywhere: combining series of different orders truncates
to the smaller one.

A series is stored the way a ``MultiPoly`` is: the integer numerators of
t^0 .. t^N over one positive denominator, in two private slots.  The pair
is always reduced, gcd(denominator, *numerators) == 1, and zero is all-zero
numerators over 1, so equal series have equal fields; equality, hashing
and rendering read the fields.  Every operation runs in integers, and a
``fractions.Fraction`` is built only where a coefficient is asked for
(``coefficient``, ``coeffs``).  A coefficient or scalar is
an ``int`` or a ``Fraction``, anything else raises
``NonScalarCoefficient``; that rule (``_ratio``), the binary power and the
signed-term renderer live here and serve ``multipoly`` too, since this
module imports nothing from the package.  Values are immutable: the
fields are set once, and ``coeffs`` returns a fresh list on every read, so
a series kept in a cache cannot be changed by a caller.

Supported calculus: Cauchy product, integer powers, reciprocal of a unit
series, exp of a series with zero constant term, log of a series with unit
constant term, rational powers of a unit series, composition with a series
of zero constant term, derivative, and compositional inverse of a delta
series (zero constant term, nonzero linear term).  The compositional
inverse uses Newton iteration built from the same product, reciprocal and
composition, doubling the working precision each step (Brent and Kung,
"Fast algorithms for manipulating formal power series", 1978); an
independent Lagrange-inversion implementation lives in the oracle module so
the two can cross-check each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import mul
from typing import Sequence


class SeriesError(ValueError):
    """Base class for precondition violations on series operations."""


class NonzeroConstantTerm(SeriesError):
    """exp / composition requires a zero constant term."""


class ConstantTermNotOne(SeriesError):
    """log requires the constant term to be exactly 1."""


class ZeroConstantTerm(SeriesError):
    """reciprocal requires an invertible constant term."""


class NotDeltaSeries(SeriesError):
    """compositional inverse requires f(0) = 0 and f'(0) != 0."""


class OrderTooSmall(SeriesError):
    """The requested coefficient lies beyond the truncation order."""


class NonScalarCoefficient(SeriesError, TypeError):
    """Coefficients and scalars must be exact rationals (int or Fraction)."""


def _ratio(c) -> tuple[int, int]:
    """(numerator, denominator) of an exact scalar, an int or a Fraction.

    The one rule by which series, polynomials and operators read a scalar:
    a float, str or Decimal is refused, never converted."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    raise NonScalarCoefficient(
        f"coefficients must be exact rationals (int or Fraction), not {type(c).__name__}")


def _power(x, n: int, one):
    """x ** n for n >= 0 by binary powering, starting from ``one``."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def _plain(p: int, q: int) -> str:
    """The positive rational p/q, in lowest terms, as ``str`` renders a
    ``Fraction``: "p/q", or "p" when q is 1."""
    return f"{p}" if q == 1 else f"{p}/{q}"


def _render_terms(terms, den: int, magnitude=_plain, times: str = "*") -> str:
    """The signed sum of (monomial, numerator) terms over the positive
    denominator den, each numerator a nonzero int and the constant's
    monomial "": "-a + b*m - m" with a unit magnitude left out before a
    monomial, and "0" for no terms.  Each term is reduced by one gcd and
    ``magnitude`` renders its lowest-terms (p, q)."""
    pieces: list[str] = []
    for mono, n in terms:
        g = gcd(n, den)
        p, q = abs(n) // g, den // g
        if not mono:
            body = magnitude(p, q)
        elif p == q:  # both 1, the pair being in lowest terms
            body = mono
        else:
            body = f"{magnitude(p, q)}{times}{mono}"
        if pieces:
            pieces.append(f"- {body}" if n < 0 else f"+ {body}")
        else:
            pieces.append(f"-{body}" if n < 0 else body)
    return " ".join(pieces) or "0"


def _wrap(nums: tuple[int, ...], den: int) -> "Series":
    """The series with the given (already reduced) fields, not copied."""
    s = object.__new__(Series)
    s._nums = nums
    s._den = den
    return s


def _make(nums: Sequence[int], den: int) -> "Series":
    """The series nums/den with the gcd divided out; den must be positive."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return _wrap(tuple([n // g for n in nums]), den // g)
    return _wrap(tuple(nums), den)


def _product(a: Sequence[int], b: Sequence[int], size: int) -> list[int]:
    """The first ``size`` coefficients of the Cauchy product a*b; b has at
    least ``size`` entries, a may be shorter."""
    rb = b[size - 1::-1]
    return [sum(map(mul, a, rb[size - 1 - m:])) for m in range(size)]


class Series:
    """A power series truncated at t^order, with exact coefficients.

    >>> t = Series.t(4)
    >>> print(t.exp())
    1 + t + 1/2*t^2 + 1/6*t^3 + 1/24*t^4 + O(t^5)
    >>> print((t.exp() - 1).compositional_inverse())
    t - 1/2*t^2 + 1/3*t^3 - 1/4*t^4 + O(t^5)
    >>> (Series.constant(1, 4) - t).reciprocal() == Series([1, 1, 1, 1, 1], 4)
    True
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        ratios = [_ratio(c) for c in coeffs]
        if order is None:
            order = len(ratios) - 1 if ratios else 0
        if order < 0:
            raise ValueError("order must be >= 0")
        del ratios[order + 1:]
        den = lcm(*[b for _, b in ratios])
        nums = [a * (den // b) for a, b in ratios]
        nums += [0] * (order + 1 - len(nums))
        s = _make(nums, den)
        self._nums, self._den = s._nums, s._den

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order)

    @classmethod
    def constant(cls, c, order: int) -> "Series":
        return cls([c], order)

    @classmethod
    def t(cls, order: int) -> "Series":
        return cls([0, 1], order)

    @classmethod
    def monomial(cls, c, k: int, order: int) -> "Series":
        """c * t^k."""
        if k < 0:
            raise ValueError(f"monomial power must be >= 0, got {k}")
        coeffs = [0] * (order + 1)
        if k <= order:
            coeffs[k] = c
        return cls(coeffs, order)

    # -- basic queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def coeffs(self) -> list[Fraction]:
        """A fresh list of the coefficients of t^0 .. t^order."""
        den = self._den
        return [Fraction(n, den) for n in self._nums]

    def coefficient(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"coefficient index must be >= 0, got {n}")
        if n > self.order:
            raise OrderTooSmall(f"coefficient t^{n} beyond truncation order {self.order}")
        return Fraction(self._nums[n], self._den)

    @property
    def is_zero(self) -> bool:
        return not any(self._nums)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise OrderTooSmall(f"cannot extend order {self.order} to {order}")
        if order < 0:
            raise ValueError("order must be >= 0")
        return _make(self._nums[: order + 1], self._den)

    def _padded(self, order: int) -> "Series":
        """The same coefficients, with zeros through t^order (order >= self.order)."""
        return _wrap(self._nums + (0,) * (order - self.order), self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    # -- ring operations --------------------------------------------------------

    def __add__(self, other) -> "Series":
        if not isinstance(other, Series):
            other = Series.constant(other, self.order)
        da, db = self._den, other._den
        if da == db:
            return _make([a + b for a, b in zip(self._nums, other._nums)], da)
        den = lcm(da, db)
        ma, mb = den // da, den // db
        return _make([a * ma + b * mb for a, b in zip(self._nums, other._nums)], den)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return _wrap(tuple([-n for n in self._nums]), self._den)

    def __sub__(self, other) -> "Series":
        if not isinstance(other, Series):
            other = Series.constant(other, self.order)
        return self + (-other)

    def __rsub__(self, other) -> "Series":
        return Series.constant(other, self.order) + (-self)

    def _scaled(self, a: int, b: int) -> "Series":
        """self * a/b for a reduced ratio with b > 0."""
        nums, den = self._nums, self._den
        if not a:
            return _wrap((0,) * len(nums), 1)
        g = gcd(a, den)
        if g != 1:
            a //= g
            den //= g
        if b != 1:
            g = gcd(b, *nums)
            if g != 1:
                b //= g
                nums = tuple([n // g for n in nums])
        if a != 1:
            nums = tuple([n * a for n in nums])
        return _wrap(nums, den * b)

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        if not isinstance(other, Series):
            return NotImplemented
        size = min(len(self._nums), len(other._nums))
        return _make(_product(self._nums, other._nums, size), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            a, b = other.numerator, other.denominator
            if not a:
                raise ZeroDivisionError("series division by zero")
            return self._scaled(b, a) if a > 0 else self._scaled(-b, -a)
        if isinstance(other, Series):
            return self * other.reciprocal()
        return NotImplemented

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            return self.reciprocal() ** (-n)
        return _power(self, n, Series.constant(1, self.order))

    # -- calculus ---------------------------------------------------------------

    def derivative(self) -> "Series":
        """Formal d/dt; the result has order one less."""
        nums = self._nums
        if len(nums) == 1:
            return Series.zero(0)
        return _make([k * nums[k] for k in range(1, len(nums))], self._den)

    def integrate(self) -> "Series":
        """Formal antiderivative with zero constant term; order one more."""
        scale = lcm(*range(1, len(self._nums) + 1))
        out = [0] + [n * (scale // k) for k, n in enumerate(self._nums, 1)]
        return _make(out, self._den * scale)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse of a series with nonzero constant term."""
        nums = self._nums
        a0 = nums[0]
        if not a0:
            raise ZeroConstantTerm("reciprocal of a series with zero constant term")
        N = len(nums) - 1
        # for a = A/d, 1/a = d/A, and B_n = a0^(n+1) [t^n] 1/A are integers
        # with B_0 = 1 and B_n = -sum_(k=1..n) A_k a0^(k-1) B_(n-k)
        powers = [a0 ** k for k in range(N + 2)]
        c = [nums[k] * powers[k - 1] for k in range(1, N + 1)]
        B = [1]
        for n in range(1, N + 1):
            B.append(-sum(map(mul, c, reversed(B))))
        d = self._den
        out = [d * b * powers[N - n] for n, b in enumerate(B)]
        den = powers[N + 1]
        if den < 0:
            out, den = [-v for v in out], -den
        return _make(out, den)

    def exp(self) -> "Series":
        """exp of a series with zero constant term."""
        nums = self._nums
        if nums[0]:
            raise NonzeroConstantTerm("exp needs a zero constant term")
        N, d = len(nums) - 1, self._den
        # (exp a)' = a' exp a gives n e_n = sum_(k=1..n) k a_k e_(n-k); for
        # a = A/d the E_n = N! d^n e_n are integers with
        # n E_n = sum_(k=1..n) k A_k d^(k-1) E_(n-k), E_0 = N!
        powers = [d ** k for k in range(N + 1)]
        c = [k * nums[k] * powers[k - 1] for k in range(1, N + 1)]
        E = [factorial(N)]
        for n in range(1, N + 1):
            E.append(sum(map(mul, c, reversed(E))) // n)
        return _make([e * powers[N - n] for n, e in enumerate(E)], powers[N] * E[0])

    def log(self) -> "Series":
        """log of a series with constant term exactly 1."""
        if self._nums[0] != self._den:
            raise ConstantTermNotOne("log needs constant term 1")
        q = self.derivative() * self.reciprocal()
        return q.integrate().truncate(self.order)

    def pow_fraction(self, q: Fraction) -> "Series":
        """Raise a series with constant term 1 to an arbitrary rational power."""
        q = Fraction(*_ratio(q))
        if self._nums[0] != self._den:
            raise ConstantTermNotOne("rational powers need constant term 1")
        return (self.log() * q).exp()

    def compose(self, inner: "Series") -> "Series":
        """Evaluate this series at another one with zero constant term."""
        inums = inner._nums
        if inums[0]:
            raise NonzeroConstantTerm("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        c, e = self._nums, inner._den
        powers = [e ** k for k in range(n + 1)]
        # sum_k c_k (I/e)^k = (sum_k c_k e^(n-k) I^k) / e^n, by Horner's rule
        # in integers.  After c_k is added the partial sum is multiplied by
        # I, of valuation >= 1, k more times, so only its first n - k + 1
        # coefficients can reach t^n.
        acc = [c[n]]
        for k in range(n - 1, -1, -1):
            acc = _product(acc, inums, n - k + 1)
            acc[0] = c[k] * powers[n - k]
        return _make(acc, self._den * powers[n])

    def divided_by_t(self, k: int = 1) -> "Series":
        """Divide by t^k; the first k coefficients must vanish.  Order drops by k."""
        if k < 0:
            raise ValueError(f"power of t must be >= 0, got {k}")
        if self.order < k:
            raise OrderTooSmall(f"cannot divide order-{self.order} series by t^{k}")
        for i in range(k):
            if self._nums[i]:
                raise SeriesError(f"t^{i} coefficient is nonzero; not divisible by t^{k}")
        return _make(self._nums[k:], self._den)

    def compositional_inverse(self) -> "Series":
        """Inverse under composition of a delta series.

        Requires f(0) = 0 and f'(0) != 0; the result g satisfies
        f(g(t)) = g(f(t)) = t through the truncation order.  Each Newton
        step g <- g - (f(g) - t) / f'(g) at least doubles the number of
        correct coefficients, so it runs at working precision min(2 prec, N)
        on ordinary series operations.
        """
        if self.order < 1:
            raise NotDeltaSeries("need at least order 1 to invert")
        if self._nums[0]:
            raise NotDeltaSeries("constant term must vanish")
        f1 = self._nums[1]
        if not f1:
            raise NotDeltaSeries("linear coefficient must be nonzero")
        N = self.order
        # the top entry of f' is unknown at this order; it only influences
        # terms beyond t^N of the Newton correction (the error factor has
        # valuation >= 2), so padding with zero is exact.
        fp = self.derivative()._padded(N)
        g = Series([0, Fraction(self._den, f1)], 1)
        prec = 1
        while prec < N:
            prec = min(2 * prec, N)
            g = g._padded(prec)
            err = self.truncate(prec).compose(g) - Series.t(prec)
            g = g - err * fp.truncate(prec).compose(g).reciprocal()
        return g

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        return series_str(self)

    def __repr__(self) -> str:
        return f"Series({series_str(self)})"


# -- rendering -----------------------------------------------------------------


def series_str(s: Series) -> str:
    """Canonical rendering: ``c0 + c1*t + c2*t^2 + O(t^N+1)``."""
    terms = [("" if k == 0 else "t" if k == 1 else f"t^{k}", n)
             for k, n in enumerate(s._nums) if n]
    return f"{_render_terms(terms, s._den)} + O(t^{s.order + 1})"
