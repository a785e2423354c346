"""Univariate polynomials and rational functions over exact rationals.

Just enough symbolic machinery for the differentiation ladders that
verify bid functions. The ladders step over integer coefficient lists
(ascending, no trailing zeros) times one Fraction scale, with the
private helpers _imul, _ipow and _iadd, and build a RationalFunction,
with its one gcd, only for a finished result. Polynomial holds Fraction
coefficients and does arithmetic, derivative, antiderivative vanishing
at zero, exact division and gcd. A RationalFunction is compared by
integer cross-multiplication, evaluated, and differentiated or divided
only as the quotient-rule reference the ladder step is tested against.
Every coefficient is an int or a Fraction, so every identity checked
here is a statement about integers, never about floats. Not a general
CAS and not trying to be.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _coeff(value) -> Fraction:
    # Fraction(float) is the exact binary value of the float, so even
    # "messy" distribution parameters stay exact once converted.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


class Polynomial:
    """Dense polynomial in one variable, coefficients ascending by power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        # zero polynomial reports degree -1
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, float, Fraction)):
            return self.coeffs == Polynomial([other]).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    @staticmethod
    def _coerce(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, float, Fraction)):
            return Polynomial([other])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self or not other:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out, base = Polynomial([1]), self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading_coefficient
        if len(rem) <= d:
            return Polynomial(), Polynomial(rem)
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] / lead
            quot[i - d] = c
            if c:
                for j, oc in enumerate(other.coeffs):
                    rem[i - d + j] -= c * oc
        return Polynomial(quot), Polynomial(rem[:d])

    def __floordiv__(self, other):
        result = divmod(self, other)
        if result is NotImplemented:
            return NotImplemented
        return result[0]

    def __mod__(self, other):
        result = divmod(self, other)
        if result is NotImplemented:
            return NotImplemented
        return result[1]

    def monic(self) -> "Polynomial":
        if not self:
            return self
        return self * (Fraction(1) / self.leading_coefficient)

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with zero constant term, i.e. the integral from 0."""
        return Polynomial([Fraction(0)] +
                          [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def __call__(self, x):
        # Horner. Exact for Fraction/int arguments, plain float otherwise.
        if not self.coeffs:
            return 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


# Integer coefficient lists, ascending by power, with no trailing zeros:
# a product or power of such lists has none either, and a sum is trimmed.

def _imul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _ipow(p: list[int], exponent: int) -> list[int]:
    out = [1]
    while exponent:
        if exponent & 1:
            out = _imul(out, p)
        exponent >>= 1
        if exponent:
            p = _imul(p, p)
    return out


def _iadd(p: list[int], q: list[int]) -> list[int]:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _cleared(coeffs) -> tuple[list[int], int]:
    """Fractions as integers over one denominator: (coeffs * L, L), with
    L the lcm of their denominators."""
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (lcm // c.denominator) for c in coeffs], lcm


def polynomial_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while q:
        p, q = q, p % q
    return p.monic()


class RationalFunction:
    """Quotient of polynomials, stored with gcd cancelled and monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = Polynomial._coerce(num), Polynomial._coerce(den)
        if num is None or den is None:
            raise TypeError("RationalFunction needs Polynomial or scalar parts")
        if not den:
            raise ZeroDivisionError("denominator is identically zero")
        g = polynomial_gcd(num, den)
        if g.degree > 0:
            num //= g
            den //= g
        lead = den.leading_coefficient
        if lead != 1:
            inv = Fraction(1) / lead
            num *= inv
            den *= inv
        self.num = num
        self.den = den

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (Polynomial, int, float, Fraction)):
            return RationalFunction(other)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # cross-multiplied: p1/q1 == p2/q2  iff  p1*q2 == p2*q1, in integers
        # once each side's num and den are cleared by one lcm
        p1, q1 = self._as_integers()
        p2, q2 = other._as_integers()
        return _imul(p1, q2) == _imul(p2, q1)

    def _as_integers(self) -> tuple[list[int], list[int]]:
        ints, _ = _cleared(self.num.coeffs + self.den.coeffs)
        split = len(self.num.coeffs)
        return ints[:split], ints[split:]

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den)

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __str__(self) -> str:
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"
