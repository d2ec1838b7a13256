"""Truncated formal power series with exact coefficients.

A :class:`Series` holds the rational coefficients of t^0 .. t^N for a
fixed truncation order N: the pair functions g, f, A, H and the columns
A*H^k of a pair's Sheffer matrix.  Series are scalar only; polynomial
families are assembled from these scalar columns and closed-form
coefficients in x, y, z (see the families module).  Every operation is
exact through the result's order and truncation is the only
"approximation" anywhere: combining series of different orders truncates
to the smaller one.

Supported calculus: Cauchy product, integer powers, reciprocal of a unit
series, exp of a series with zero constant term, log of a series with unit
constant term, rational powers of a unit series, composition with a series
of zero constant term, derivative, and compositional inverse of a delta
series (zero constant term, nonzero linear term).  The compositional
inverse uses Newton iteration built from the same product, reciprocal and
composition, doubling the working precision each step; an independent
Lagrange-inversion implementation lives in the oracle module so the two
can cross-check each other.
"""

from __future__ import annotations

from fractions import Fraction
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
    """Series coefficients must be exact rationals (int or Fraction)."""


ZERO = Fraction(0)
ONE = Fraction(1)


def _scalar(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise NonScalarCoefficient(
        f"series coefficients must be rationals, not {type(c).__name__}")


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

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        coeffs = [_scalar(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1 if coeffs else 0
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs.extend([ZERO] * (order + 1 - len(coeffs)))
        else:
            coeffs = coeffs[: order + 1]
        self.order = order
        self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order)

    @classmethod
    def constant(cls, c, order: int) -> "Series":
        return cls([c], order)

    @classmethod
    def t(cls, order: int) -> "Series":
        return cls([ZERO, ONE], order)

    @classmethod
    def monomial(cls, c, k: int, order: int) -> "Series":
        """c * t^k."""
        coeffs = [ZERO] * (order + 1)
        if k <= order:
            coeffs[k] = c
        return cls(coeffs, order)

    # -- basic queries ---------------------------------------------------------

    def coefficient(self, n: int):
        if n > self.order:
            raise OrderTooSmall(f"coefficient t^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; order+1 if all vanish."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.order + 1

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise OrderTooSmall(f"cannot extend order {self.order} to {order}")
        return Series(self.coeffs[: order + 1], order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order:
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.order, tuple(str(c) for c in self.coeffs)))

    # -- ring operations --------------------------------------------------------

    def __add__(self, other) -> "Series":
        if not isinstance(other, Series):
            other = Series.constant(other, self.order)
        n = min(self.order, other.order)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs], self.order)

    def __sub__(self, other) -> "Series":
        if not isinstance(other, Series):
            other = Series.constant(other, self.order)
        return self + (-other)

    def __rsub__(self, other) -> "Series":
        return Series.constant(other, self.order) + (-self)

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Series.zero(self.order)
            return Series([c * other for c in self.coeffs], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        out = []
        a, b = self.coeffs, other.coeffs
        for k in range(n + 1):
            acc = ZERO
            for i in range(k + 1):
                ai = a[i]
                bj = b[k - i]
                if ai and bj:
                    acc += ai * bj
            out.append(acc)
        return Series(out, n)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            inv = ONE / Fraction(other)
            return Series([c * inv for c in self.coeffs], self.order)
        if isinstance(other, Series):
            return self * other.reciprocal()
        return NotImplemented

    def __pow__(self, n: int) -> "Series":
        if n < 0:
            return self.reciprocal() ** (-n)
        result = Series.constant(ONE, self.order)
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    # -- calculus ---------------------------------------------------------------

    def derivative(self) -> "Series":
        """Formal d/dt; the result has order one less."""
        if self.order == 0:
            return Series.zero(0)
        return Series(
            [(k + 1) * self.coeffs[k + 1] for k in range(self.order)],
            self.order - 1,
        )

    def integrate(self) -> "Series":
        """Formal antiderivative with zero constant term; order one more."""
        out = [ZERO] + [self.coeffs[k] / (k + 1) for k in range(self.order + 1)]
        return Series(out, self.order + 1)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse of a series with nonzero constant term."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroConstantTerm("reciprocal of a series with zero constant term")
        inv0 = ONE / c0
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = ZERO
            for k in range(1, n + 1):
                ak = self.coeffs[k]
                if ak:
                    acc += ak * out[n - k]
            out.append(-inv0 * acc)
        return Series(out, self.order)

    def exp(self) -> "Series":
        """exp of a series with zero constant term."""
        if self.coeffs[0]:
            raise NonzeroConstantTerm("exp needs a zero constant term")
        # (exp a)' = a' * exp a  gives the coefficient recurrence
        out = [ONE]
        for n in range(self.order):
            acc = ZERO
            for k in range(n + 1):
                ak1 = self.coeffs[k + 1]
                if ak1 and out[n - k]:
                    acc += (k + 1) * ak1 * out[n - k]
            out.append(acc / (n + 1))
        return Series(out, self.order)

    def log(self) -> "Series":
        """log of a series with constant term exactly 1."""
        if self.coeffs[0] != 1:
            raise ConstantTermNotOne("log needs constant term 1")
        q = self.derivative() * self.reciprocal()
        return q.integrate().truncate(self.order)

    def pow_fraction(self, q: Fraction) -> "Series":
        """Raise a series with constant term 1 to an arbitrary rational power."""
        q = Fraction(q)
        if self.coeffs[0] != 1:
            raise ConstantTermNotOne("rational powers need constant term 1")
        return (self.log() * q).exp()

    def sqrt(self) -> "Series":
        return self.pow_fraction(Fraction(1, 2))

    def compose(self, inner: "Series") -> "Series":
        """Evaluate this series at another one with zero constant term."""
        if inner.coeffs[0]:
            raise NonzeroConstantTerm("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        result = Series.constant(self.coeffs[n], n)
        for k in range(n - 1, -1, -1):
            result = result * inner + Series.constant(self.coeffs[k], n)
        return result

    def divided_by_t(self, k: int = 1) -> "Series":
        """Divide by t^k; the first k coefficients must vanish.  Order drops by k."""
        if self.order < k:
            raise OrderTooSmall(f"cannot divide order-{self.order} series by t^{k}")
        for i in range(k):
            if self.coeffs[i]:
                raise SeriesError(f"t^{i} coefficient is nonzero; not divisible by t^{k}")
        return Series(self.coeffs[k:], self.order - k)

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
        if self.coeffs[0]:
            raise NotDeltaSeries("constant term must vanish")
        f1 = self.coeffs[1]
        if not f1:
            raise NotDeltaSeries("linear coefficient must be nonzero")
        N = self.order
        # the top entry of f' is unknown at this order; it only influences
        # terms beyond t^N of the Newton correction (the error factor has
        # valuation >= 2), so padding with zero is exact.
        fp = Series(self.derivative().coeffs + [ZERO], N)
        g = Series([ZERO, ONE / f1], 1)
        prec = 1
        while prec < N:
            prec = min(2 * prec, N)
            g = Series(g.coeffs, prec)
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
    pieces: list[str] = []
    for k, c in enumerate(s.coeffs):
        if not c:
            continue
        neg = c < 0
        body = str(-c if neg else c)
        if k == 0:
            term = body
        elif k == 1:
            term = "t" if body == "1" else f"{body}*t"
        else:
            term = f"t^{k}" if body == "1" else f"{body}*t^{k}"
        if not pieces:
            pieces.append(f"-{term}" if neg else term)
        else:
            pieces.append(f"- {term}" if neg else f"+ {term}")
    head = " ".join(pieces) if pieces else "0"
    return f"{head} + O(t^{s.order + 1})"
