"""Univariate polynomials and rational functions over exact rationals.

Just enough symbolic machinery for the differentiation ladders that
verify bid functions, and the package's one home for each exact-integer
job: the dense kernels _iadd, _imul and _ipow and the long division
_idivmod serve int and Fraction coefficients alike (and _idivmod residues
mod a prime); _ipow expands a base x^v (c0 + c1 x), as every ladder base
is, by the binomial theorem, and squares and multiplies any other; and
_over_one_denominator brings ints, floats, Fractions and numpy numbers
to integers over one denominator (the public *_sides of combinatorics
call it; identity_sweep draws its integers directly). The ladders step
with the kernels over integer coefficient lists times one Fraction scale
and build a RationalFunction, with its one gcd, only for a finished
result. Polynomial holds Fraction coefficients; its +, *, ** and divmod
are the kernels, plus derivative, antiderivative vanishing at zero and
gcd. polynomial_gcd and RationalFunction take Polynomials, scalars or
lists of Python ints (ascending, as Polynomial(list) reads them), so the
ladders hand over their integers with no Fraction round trip; anything
but an int list is cleared once (_int_pair). polynomial_gcd takes the
common power of x out of both parts exactly, returns it at once when a
cofactor is a nonzero constant (a unit, so nothing more is shared),
proves other cofactors coprime by Euclid on integer residues mod the
prime 2^61 - 1, and runs Euclid over the rationals only on the cofactors
that proof cannot settle. A RationalFunction cuts the gcd's x^v from
its integer lists by slicing and divides them by the rest h of the gcd
(_idivmod) only when h is not constant; it keeps the reduced integer
pair, is compared by integer cross-multiplication of those pairs,
evaluated and printed (Fraction parts are built on first access), and
has no arithmetic of its own. Every identity here is about integers,
never floats.
Not a general CAS.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Sequence
from fractions import Fraction

import numpy as np


def _coeff(value) -> Fraction:
    # Fraction(float) is the exact binary value of the float, so even
    # "messy" distribution parameters stay exact once converted.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, np.floating):  # float16, float32, longdouble
        return Fraction(*value.as_integer_ratio())
    if isinstance(value, numbers.Integral):  # numpy integers
        return Fraction(int(value))
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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its coefficient, so it hashes as that number
        if self.degree <= 0:
            return hash(self.leading_coefficient)
        return hash(self.coeffs)

    @staticmethod
    def _coerce(other):
        if isinstance(other, Polynomial):
            return other
        try:  # a scalar, as _coeff takes it
            return Polynomial([other])
        except TypeError:
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial(_iadd(self.coeffs, other.coeffs))

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
        return Polynomial(_imul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        # _ipow never leaves its loop on a negative exponent
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return Polynomial(_ipow(self.coeffs, exponent))

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _idivmod(self.coeffs, other.coeffs, operator.truediv)
        return Polynomial(quot), Polynomial(rem)

    # divmod() raises TypeError itself on an operand that it cannot take
    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

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
        # Horner. Exact for Fraction/int arguments, plain float otherwise;
        # a float array gives float64, each coefficient rounded to float
        # as each element's scalar call rounds it.
        cs, acc = self.coeffs, self.leading_coefficient
        if isinstance(x, np.ndarray) and x.dtype.kind == "f":
            x = x.astype(np.float64)
            cs, acc = [float(c) for c in cs], np.full(x.shape, float(acc))
        elif isinstance(x, float):  # a constant's value is a float too
            acc = float(acc)
        if not cs:
            return 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        for c in reversed(cs[:-1]):
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


# Dense coefficient sequences, ascending by power, with no trailing zeros:
# the ladders' int lists and Polynomial's Fraction tuples alike. A product
# or power of such sequences has none either, and a sum is trimmed.

def _imul(p: Sequence, q: Sequence) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _ipow(p: Sequence, exponent: int) -> list:
    """p**exponent. A base x**v (c0 + c1 x), c0 != 0, c1 nonzero or
    absent, takes the binomial theorem:
    x**(v e) sum_i binom(e, i) c0**(e-i) c1**i x**i, which is the product
    square-and-multiply would form, term for term; no term is 0 and no
    long product is made. Every ladder base is one: g = B + A x,
    G = x (2B + A x), and their uniform and triangle monomials. Any other
    base is squared and multiplied. A zero base (no nonzero coefficient)
    gives [] for e >= 1 and [1] for e = 0."""
    v = next((i for i, c in enumerate(p) if c), len(p))
    terms = len(p) - v
    if terms == 0:
        return [] if exponent else [1]
    if terms == 1:
        return [0] * (v * exponent) + [p[v] ** exponent]
    if terms == 2:
        c0, c1 = p[v], p[v + 1]
        lows = [1]  # c0**0 .. c0**e
        for _ in range(exponent):
            lows.append(lows[-1] * c0)
        out = [0] * (v * exponent)
        binom, high = 1, 1  # binom(e, i), c1**i
        for i in range(exponent + 1):
            out.append(binom * lows[exponent - i] * high)
            binom = binom * (exponent - i) // (i + 1)
            high *= c1
        return out
    out = [1]
    while exponent:
        if exponent & 1:
            out = _imul(out, p)
        exponent >>= 1
        if exponent:
            p = _imul(p, p)
    return out


def _iadd(p: Sequence, q: Sequence) -> list:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _idivmod(p: Sequence, q: Sequence, div) -> tuple[list, list]:
    """(quotient, remainder) of p by q by long division, each quotient
    coefficient div(remainder lead, q's lead): / over Fractions, // for
    integer lists that q divides exactly, reduction mod a prime for
    residue lists with q monic (the remainder is then left unreduced)."""
    rem = list(p)
    d = len(q) - 1
    lead = q[-1]
    quot = [0] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        c = div(rem[i], lead)
        quot[i - d] = c
        if c:
            for j, qc in enumerate(q):
                rem[i - d + j] -= c * qc
    return quot, rem[:d]


def _over_one_denominator(*xs) -> tuple[int, list[int]]:
    """(D, [x * D for x in xs]): ints, floats, Fractions and numpy numbers
    as exact integers over D, the lcm of their denominators."""
    try:  # the fast path: no per-value type check
        ratios = [x.as_integer_ratio() for x in xs]
    except AttributeError:  # numpy integers have no as_integer_ratio
        ratios = [(int(x), 1) if isinstance(x, numbers.Integral)
                  else x.as_integer_ratio() for x in xs]
    den = math.lcm(*[q for _, q in ratios])
    return den, [p * (den // q) for p, q in ratios]


_M = 2 ** 61 - 1  # a Mersenne prime


def _int_pair(p, q) -> tuple[list[int], list[int]]:
    """p and q as integer lists, ascending, neither ending in 0: lists of
    Python ints (no bool, float or numpy integer) as they are, otherwise
    both as Polynomials cleared over one denominator (one positive scale)."""
    ints = [type(v) is list and {int}.issuperset(map(type, v))
            for v in (p, q)]
    if all(ints) and (not p or p[-1]) and (not q or q[-1]):
        return p, q
    p, q = (Polynomial(v) if i else Polynomial._coerce(v)
            for v, i in zip((p, q), ints))
    if p is None or q is None:
        raise TypeError("parts must be Polynomials, scalars or int lists")
    _, cleared = _over_one_denominator(*p.coeffs, *q.coeffs)
    return cleared[:len(p.coeffs)], cleared[len(p.coeffs):]


def _coprime_mod_m(p: list[int], q: list[int]) -> bool:
    """True only if integer lists p and q are coprime over the rationals,
    by the proof in polynomial_gcd; False when it cannot tell."""
    if not p or not q:
        return False
    a, b = ([c % _M for c in v] for v in (p, q))
    if not a[-1] or not b[-1]:
        return False
    while len(b) > 1:  # Euclid in F_M[x], each divisor made monic
        inv = pow(b[-1], -1, _M)
        b = [c * inv % _M for c in b]
        rem = [c % _M for c in _idivmod(a, b, lambda r, _: r % _M)[1]]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            return False
        a, b = b, rem
    return True


def polynomial_gcd(p, q) -> Polynomial:
    """Monic gcd over the rationals of two Polynomials, scalars or lists
    of Python ints (coefficients ascending).

    Both parts become integer lists first (_int_pair; clearing scales
    them, not their gcd). The common power of x comes out next, exactly:
    if both lists begin with v zero coefficients,
    gcd(x^v P, x^v Q) = x^v gcd(P, Q), and x divides at most one of the
    cofactors P, Q. If either cofactor is a nonzero constant c, x^v is
    returned at once, since a nonzero constant is a unit over the
    rationals: gcd(P, c) = 1 whatever P is, even 0, and whatever c is,
    even a multiple of M below (every uniform and triangle result ends
    here, its denominator a power of b or of a x). Any other coprime pair
    of cofactors is proved coprime with no Fraction arithmetic, by Euclid
    on both mod the prime M = 2^61 - 1. Suppose M divides neither leading
    coefficient and the gcd mod M is constant. A gcd G of degree >= 1
    over the rationals could be taken primitive in Z[x] with P = G*U,
    Q = G*V in Z[x] (Gauss's lemma); M does not divide
    lc(P) = lc(G)*lc(U), so G mod M would keep its degree and divide both
    reductions. Hence the gcd is 1, and x^v is returned. Every other pair
    of cofactors (a zero part beside a nonconstant one, a leading
    coefficient divisible by M, or a nonconstant gcd mod M) takes the
    Euclidean algorithm over the rationals.
    """
    p, q = _int_pair(p, q)
    # a nonzero part ends in a nonzero coefficient, so the scan stops
    # inside the shorter part unless one part is zero
    v = next((i for i, pair in enumerate(zip(p, q)) if any(pair)), 0)
    p, q = p[v:], q[v:]
    if len(p) == 1 or len(q) == 1 or _coprime_mod_m(p, q):
        g = (Fraction(1),)
    else:
        p, q = Polynomial(p), Polynomial(q)
        while q:
            p, q = q, p % q
        g = p.monic().coeffs
    gcd = Polynomial()  # its coefficients are Fractions already
    gcd.coeffs = (Fraction(0),) * v + g
    return gcd


class RationalFunction:
    """Quotient of polynomials, stored with gcd cancelled and monic denominator.

    num and den are Polynomials, scalars or lists of Python ints
    (coefficients ascending), brought to integer lists by _int_pair. The
    one gcd, x^v h, comes from polynomial_gcd on those lists: x^v is cut
    from both by slicing off v leading zeros, and h, if not constant, is
    cancelled by exact division (_idivmod with //). The reduced integer
    pair is kept for ==; the Fraction parts .num and .den (the pair over
    the denominator's leading coefficient) are built on first access.
    """

    __slots__ = ("_ints", "_parts")

    def __init__(self, num, den=1):
        p, q = _int_pair(num, den)
        if not q:
            raise ZeroDivisionError("denominator is identically zero")
        g = polynomial_gcd(p, q).coeffs
        v = next(i for i, c in enumerate(g) if c)  # the gcd is x^v h
        p, q, h = p[v:], q[v:], g[v:]
        if len(h) > 1:
            # A monic polynomial cleared by the lcm of its denominators is
            # primitive with a positive leading coefficient, so by Gauss's
            # lemma it divides p and q exactly in integers.
            _, h = _over_one_denominator(*h)
            p, q = (_idivmod(w, h, operator.floordiv)[0] for w in (p, q))
        self._ints = p, q
        self._parts = None

    def _fraction_parts(self) -> tuple[Polynomial, Polynomial]:
        if self._parts is None:
            p, q = self._ints
            lead = q[-1]
            self._parts = tuple(Polynomial([Fraction(c, lead) for c in v])
                                for v in (p, q))
        return self._parts

    @property
    def num(self) -> Polynomial:
        return self._fraction_parts()[0]

    @property
    def den(self) -> Polynomial:
        return self._fraction_parts()[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            other = Polynomial._coerce(other)
            if other is None:
                return NotImplemented
            other = RationalFunction(other)
        # cross-multiplied in integers: p1/q1 == p2/q2  iff  p1*q2 == p2*q1
        p1, q1 = self._ints
        p2, q2 = other._ints
        return _imul(p1, q2) == _imul(p2, q1)

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __str__(self) -> str:
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"
