"""Exact Catalan-number machinery and the binomial identities behind it.

The k-th price bid series is driven by Catalan numbers
C_l = binom(2l, l)/(l+1) through the coefficients

    theta(n, k, l) = binom(n-2, k-3-l) * C_l / 2**l,    l = 0..k-3,

and their alternating sum

    Omega(n, k) = sum_l (-1)**l * theta(n, k, l) / 2**(l+1)
                = binom(n - 3/2, k - 2) - binom(n - 2, k - 2),

which is the slope premium of the equilibrium bid under a triangle
value density. The closed form: (-1)**l C_l / 4**l is the coefficient of
t**l in 2 (sqrt(1+t) - 1) / t and binom(n-2, j) that of t**j in
(1+t)**(n-2), so Omega is the coefficient of t**(k-2) in
(1+t)**(n-3/2) - (1+t)**(n-2). The triangle bid's slope is therefore

    1 + Omega / binom(n-2, k-2) = binom(n - 3/2, k - 2) / binom(n - 2, k - 2)
                                = prod_{m=n-k+1}^{n-2} (1 + 1/(2m)).

Positivity: for 3 <= k <= n the product has k - 2 >= 1 factors, each
above 1, so Omega > 0. Lower bound: a product of factors 1 + x_m with
x_m >= 0 is at least 1 + sum x_m, and m <= n-2 gives
sum 1/(2m) >= (k-2)/(2(n-2)), so

    Omega(n, k) >= binom(n-2, k-2) (k-2) / (2(n-2)) = binom(n-3, k-3)/2,

with equality exactly at k = 3 (one factor, m = n-2): Omega(n, 3) = 1/2.
The upper bound

    Omega(n, k) <= 7*binom(n-3, k-3)/8   on the wedge n + 4 > 2k

is proved. Divided by binom(n-2, k-2) it reads P - 1 <= 7t/8, with
t = (k-2)/(n-2) and P the product above. For k < n, log(1 + y) <= y and
sum_{m=a+1}^{b} 1/m <= ln(b/a) give P <= sqrt((n-2)/(n-k)) =
(1-t)**(-1/2). Next, h(t) = (1 + 7t/8)**2 (1-t) - 1 =
t (3/4 - 63t/64 - 49t**2/64); the bracket decreases in t and
h(15/28) = 45/28672 > 0, so (1-t)**(-1/2) <= 1 + 7t/8 on (0, 15/28].
On the wedge t <= (n-1)/(2(n-2)) <= 15/28 once n >= 16, which proves
the bound for every n >= 16. The pairs below n = 16 are finitely many:
the square-root step is too weak only at (5, 4), (7, 5), (9, 6),
(11, 7), (13, 8) and (15, 9), and k = n is on the wedge only at n = 3.
The tests check each step in exact arithmetic and the product form on
every wedge pair with n <= 200, which covers them. `kthprice bounds`
and identity_sweep check the bound pair by pair in _omega_check, the one
home of the wedge, the anchor binom(n-3, k-3) (omega_bounds reads it
there) and both inequalities, cross-multiplied in integers: Omega is one
integer over 2**(2k-5), summed by Horner in 4 from the theta row of
(n, k), the integers theta * 2**l that theta_coeff and identity_sweep's
two theta checks read too.

The Jensen / Hagen-Rothe / shifted-Jensen convolution identities take
real arguments; one integer helper per identity sums both sides exactly
over one denominator D**s s!. The public *_sides round each side once
(int / int); identity_sweep draws integers over one D = 2**49, skips
only exact Hagen-Rothe poles (_pole, as hagen_rothe_sides refuses them)
and rounds only where the integers differ, so a case passes iff the
rounded floats are equal. The falling factorials' factors come by
running subtraction (x -= D); the O(s) sides are running products of
them, summed Horner-fashion, and the O(s**2) left sides multiply each
term's factors out inline. The cases come from the Generator's public
array calls, a fixed block of 1024 at a time, so they are prefix-stable:
the first T cases are the same for every trial count >= T. The only
other floating point is the quadrature check of the integral
representation

    C_l = (2**(2l+1) / pi) * int_0^1 t**l * sqrt((1-t)/t) dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .distributions import _check_int, _check_nk
from .polynomials import _over_one_denominator
from .quadrature import integrate

__all__ = [
    "catalan",
    "catalan_recurrence_holds",
    "catalan_integral",
    "jensen_sides",
    "hagen_rothe_sides",
    "shifted_jensen_sides",
    "theta_coeff",
    "omega",
    "omega_bounds",
    "IdentityResult",
    "identity_sweep",
]


def catalan(l: int) -> int:
    """l-th Catalan number binom(2l, l) / (l + 1), exact."""
    l = _check_int("catalan", "l", l, 0)
    # (l+1) always divides binom(2l, l); // keeps the result an int
    return math.comb(2 * l, l) // (l + 1)


def catalan_recurrence_holds(l_max: int) -> bool:
    """Check (l+1) C_l == 2(2l-1) C_{l-1} in integers for l = 1..l_max."""
    l_max = _check_int("catalan_recurrence_holds", "l_max", l_max, 1)
    c = [1, *map(catalan, range(1, l_max + 1))]  # C_0 = 1
    return all((l + 1) * c[l] == 2 * (2 * l - 1) * c[l - 1]
               for l in range(1, l_max + 1))


def catalan_integral(l: int) -> float:
    """Evaluate C_l from its integral representation by quadrature.

    Substituting t = sin(u)**2 removes both endpoint singularities of
    sqrt((1-t)/t) and leaves the smooth integrand
    (2**(2l+2)/pi) * sin(u)**(2l) * cos(u)**2 on [0, pi/2].
    """
    l = _check_int("catalan_integral", "l", l, 0)
    if l > 510:
        raise OverflowError(f"catalan_integral: 2**(2l+2) leaves the float "
                            f"range; need l <= 510, got l={l}")
    scale = 2.0 ** (2 * l + 2) / math.pi

    def integrand(u):
        s = np.sin(u)
        c = np.cos(u)
        return s ** (2 * l) * c * c

    return scale * integrate(integrand, 0.0, math.pi / 2.0)


def _falling(x: int, j: int, d: int) -> int:
    """x (x-d) ... (x-(j-1)d) = D**j j! binom(x/D, j) for d = D."""
    out = 1
    for i in range(j):
        out *= x - i * d
    return out


# The convolution sums below are brutally ill-conditioned in float64:
# at s = 12 individual terms reach ~1e8 while the sides can cancel down
# to ~1e-5, losing up to 13 digits. Each side is therefore computed
# exactly: the binary values of the inputs are brought to integers over
# one denominator D, binom(X/D, j) = falling(X, j) / (D**j j!), and every
# term becomes an integer over D**s s!. The one rounding is the final
# int / int division, which is correctly rounded (the float nearest the
# exact side), so equal sides give equal floats. Each falling factorial's
# factors are formed by running subtraction, x -= D. One helper per
# identity, (D, M, R, Z, s) -> its two integers, serves the public *_sides
# and identity_sweep alike.

def _convolution_lhs(m: int, r: int, z: int, d: int, s: int,
                     hagen_rothe: bool) -> int:
    """sum_l binom(s, l) lead_l (A-D) ... (A-(l-1)D) * B (B-D) ... (B-(s-l-1)D)
    with A = M + Zl and B = R - Zl; lead_l is A (Jensen: D**l l!
    binom(A/D, l)) or M (Hagen-Rothe: D**l l! m/(m+zl) binom(A/D, l)), and
    the l = 0 term has no lead."""
    total = 0
    a, b = m, r
    for l in range(s + 1):
        term = math.comb(s, l)
        if l:
            term *= m if hagen_rothe else a
            x = a
            for _ in range(l - 1):
                x -= d
                term *= x
        x = b
        for _ in range(s - l):
            term *= x
            x -= d
        total += term
        a += z
        b -= z
    return total


def _perm_sum(x: int, dx: int, s: int, w: int) -> int:
    """sum_l perm(s, l) w**l prod(factors[:s-l]), factors x, x+dx, x+2dx, ...

    Horner-fashion: acc_j = prod(factors[:j]) + j w acc_{j-1}, acc_0 = 1,
    ends at acc_s, the sum.
    """
    acc = prod = 1
    for j in range(1, s + 1):
        prod *= x
        acc = prod + j * w * acc
        x += dx
    return acc


def _jensen_ints(d: int, m: int, r: int, z: int, s: int) -> tuple[int, int]:
    # falling(M+R-lD, s-l, D) is the suffix product of M+R-iD over l <= i < s
    return (_convolution_lhs(m, r, z, d, s, False),
            _perm_sum(m + r - (s - 1) * d, d, s, z))


def _pole(m: int, z: int) -> int:
    """The one l with M + Zl = 0 (every l when M = Z = 0: 0), else -1."""
    return 0 if m == 0 else -m // z if z and m % z == 0 else -1


def _hagen_rothe_ints(d: int, m: int, r: int, z: int,
                      s: int) -> tuple[int, int]:
    # no pole check: hagen_rothe_sides refuses poles, the sweep skips them
    return _convolution_lhs(m, r, z, d, s, True), _falling(m + r, s, d)


def _shifted_jensen_ints(d: int, r: int, z: int, s: int) -> tuple[int, int]:
    # falling(R-lD, s-l, D) is a suffix product, falling(R+D, s-l, D) a prefix
    return (_perm_sum(r - (s - 1) * d, d, s, z),
            _perm_sum(r + d, -d, s, z - d))


def _rounded(d: int, s: int, sides: tuple[int, int]) -> tuple[float, float]:
    """The floats nearest the two integers over D**s s!."""
    scale = d ** s * math.factorial(s)
    return sides[0] / scale, sides[1] / scale


def jensen_sides(m: float, r: float, z: float, s: int) -> tuple[float, float]:
    """Both sides of Jensen's convolution identity,
    sum_l binom(m+z*l, l) binom(r-z*l, s-l) == sum_l binom(m+r-l, s-l) z**l."""
    s = _check_int("jensen_sides", "s", s, 0)
    d, xs = _over_one_denominator(m, r, z)
    return _rounded(d, s, _jensen_ints(d, *xs, s))


def hagen_rothe_sides(m: float, r: float, z: float, s: int) -> tuple[float, float]:
    """Both sides of the Hagen-Rothe convolution identity,
    sum_l m/(m+z*l) binom(m+z*l, l) binom(r-z*l, s-l) == binom(m+r, s)."""
    s = _check_int("hagen_rothe_sides", "s", s, 0)
    d, (m, r, z) = _over_one_denominator(m, r, z)
    if 0 <= (pole := _pole(m, z)) <= s:
        raise ValueError(f"hagen_rothe_sides: m + z*l vanishes at l={pole}")
    return _rounded(d, s, _hagen_rothe_ints(d, m, r, z, s))


def shifted_jensen_sides(r: float, z: float, s: int) -> tuple[float, float]:
    """Both sides of the shifted variant used to telescope the bid series,
    sum_l binom(r-l, s-l) z**l == sum_l binom(r+1, s-l) (z-1)**l."""
    s = _check_int("shifted_jensen_sides", "s", s, 0)
    d, xs = _over_one_denominator(r, z)
    return _rounded(d, s, _shifted_jensen_ints(d, *xs, s))


def theta_coeff(n: int, k: int, l: int) -> Fraction:
    """theta(n, k, l) = binom(n-2, k-3-l) * C_l / 2**l, exact.

    Defined for 3 <= k <= n and 0 <= l <= k-3.
    """
    n, k = _check_nk("theta_coeff", n, k, 3)
    l = _check_int("theta_coeff", "l", l)
    if not 0 <= l <= k - 3:
        raise ValueError("theta_coeff: index l must lie in 0..k-3")
    return Fraction(_theta_row(n, k, (l,))[0], 2 ** l)


def _theta_row(n: int, k: int, ls=None) -> list[int]:
    """[theta(n, k, l) * 2**l for l in ls], by default l = 0..k-3,
    unchecked.

    The Catalan numbers come from math.comb, not from catalan() or the
    recurrence the sweep checks.
    """
    return [math.comb(n - 2, k - 3 - l) * (math.comb(2 * l, l) // (l + 1))
            for l in (range(k - 2) if ls is None else ls)]


# The two theta checks, exact,
#   step:  theta(n, k+1, l) == (2l-1)/(l+1) * theta(n, k, l-1), l = 1..k-2,
#   index: (n-k+l+1) theta(n, k, l) == (k-2-l) theta(n, k+1, l), l = 0..k-3,
# compare the integers theta * 2**l, cross-multiplied, in the rows for k
# and k + 1; identity_sweep builds each row once for both checks and for
# both pairs that read it.

def _theta_step_holds(row: list[int], next_row: list[int]) -> bool:
    return all((l + 1) * next_row[l] == 2 * (2 * l - 1) * row[l - 1]
               for l in range(1, len(next_row)))


def _theta_index_holds(n: int, k: int, row: list[int],
                       next_row: list[int]) -> bool:
    return all((n - k + l + 1) * row[l] == (k - 2 - l) * next_row[l]
               for l in range(k - 2))


def _omega_numerator(row: list[int]) -> int:
    """Omega(n, k) * 2**(2k-5) from the theta row of (n, k), by Horner in 4."""
    total = 0
    for l, coeff in enumerate(row):
        total = 4 * total + (-coeff if l % 2 else coeff)
    return total


def omega(n: int, k: int) -> Fraction:
    """Alternating Catalan sum Omega(n, k), the triangle bid's slope premium.

    Omega(n, k) = sum_{l=0}^{k-3} (-1)**l * theta(n, k, l) / 2**(l+1),
    summed by Horner in 4 as one integer over 2**(2k-5). Equal to
    binom(n - 3/2, k - 2) - binom(n - 2, k - 2), strictly positive for
    all 3 <= k <= n (see the module docstring).
    """
    n, k = _check_nk("omega", n, k, 3)
    return Fraction(_omega_numerator(_theta_row(n, k)), 2 ** (2 * k - 5))


def _omega_check(n: int, k: int, num=None) -> tuple[int, int, bool] | None:
    """None off the wedge n + 4 > 2k, else (num, A, A/2 <= num / 2**(2k-5)
    <= 7A/8) with the anchor A = binom(n-3, k-3), cross-multiplied;
    unchecked. num is Omega's numerator, from its theta row if None."""
    if not n + 4 > 2 * k:
        return None
    num = _omega_numerator(_theta_row(n, k)) if num is None else num
    anchor, e = math.comb(n - 3, k - 3), 2 * k - 5
    return num, anchor, anchor << e <= 2 * num and 8 * num <= 7 * anchor << e


def omega_bounds(n: int, k: int) -> tuple[Fraction, Fraction] | None:
    """Exact bounds binom(n-3,k-3)/2 and 7*binom(n-3,k-3)/8 on Omega(n, k).

    They are claimed only on the wedge n + 4 > 2k; outside it this
    returns None. Divided by binom(n-2, k-2) they bound the triangle
    bid's slope premium by (k-2)/(2(n-2)) and 7(k-2)/(8(n-2)).
    """
    n, k = _check_nk("omega_bounds", n, k, 3)
    if (checked := _omega_check(n, k, 0)) is None:  # reads the anchor only
        return None
    return Fraction(checked[1], 2), Fraction(7 * checked[1], 8)


@dataclass(frozen=True)
class IdentityResult:
    """One identity's verdict, the number of cases checked (up to the first
    failure) and the swept range, or the failing case as "witness ..."."""

    name: str
    passed: bool
    cases: int
    detail: str


_BLOCK = 1024
_D = 2 ** 49  # the sweep's m, r, z = M/D, R/D, Z/D; every numerator < 2**53


def _random_cases(rng: np.random.Generator):
    """Endless (M, R, Z, s) draws as Python ints, M in [1, 5D], R in
    [-3D, 10D), Z in [-2D, 2D), s in [0, 12], a fixed block of _BLOCK cases
    per pair of array calls, so the first T cases are the same for every
    count >= T."""
    while True:
        mrz = rng.integers((1, -3 * _D, -2 * _D), (5 * _D + 1, 10 * _D, 2 * _D),
                           (_BLOCK, 3))
        yield from zip(*mrz.T.tolist(), rng.integers(0, 13, _BLOCK).tolist())


def identity_sweep(lmax: int, integral_lmax: int, trials: int, seed: int,
                   nmax: int) -> list[IdentityResult]:
    """Check every identity behind the bid series; one result per identity.

    catalan-recurrence exactly for l = 1..lmax; catalan-integral within
    1e-6 relative for l = 0..integral_lmax; jensen, hagen-rothe and
    shifted-jensen on `trials` checked random draws each, from one
    generator seeded with `seed`, passing iff lhs == rhs (each side is
    the correctly rounded float of its exact value, rounded only where
    the exact integers differ; a witness prints both floats with repr);
    theta-recurrences and omega-positive exactly for all
    3 <= k <= n <= nmax; omega-bounds exactly on the wedge n + 4 > 2k,
    with Omega(n, 3) = 1/2. The library form of `kthprice identities`.
    """
    func = "identity_sweep"
    lmax = _check_int(func, "lmax", lmax, 1)
    integral_lmax = _check_int(func, "integral_lmax", integral_lmax, 0)
    trials = _check_int(func, "trials", trials, 1)
    seed = _check_int(func, "seed", seed, 0)
    nmax = _check_int(func, "nmax", nmax, 3)
    worst = max(abs(catalan_integral(l) - catalan(l)) / catalan(l)
                for l in range(integral_lmax + 1))
    results = [
        IdentityResult("catalan-recurrence", catalan_recurrence_holds(lmax),
                       lmax, f"(lmax={lmax})"),
        IdentityResult("catalan-integral", worst <= 1e-6, integral_lmax + 1,
                       f"(lmax={integral_lmax}, max_rel_err={worst:.12g})"),
    ]

    rng = np.random.default_rng(seed)
    for name, ints, skip in (("jensen", _jensen_ints, 0),
                             ("hagen-rothe", _hagen_rothe_ints, 0),
                             ("shifted-jensen", _shifted_jensen_ints, 1)):
        passed, detail = True, f"(trials={trials}, seed={seed})"
        cases = (c for c in _random_cases(rng) if name != "hagen-rothe"
                 or not 0 <= _pole(c[0], c[2]) <= c[3])
        for checked, (m, r, z, s) in enumerate(islice(cases, trials), 1):
            lhs, rhs = ints(_D, *(m, r, z)[skip:], s)
            if lhs != rhs:  # unequal integers may still round to one float
                lhs, rhs = _rounded(_D, s, (lhs, rhs))
                if lhs != rhs:
                    passed, detail = False, (
                        f"witness m={m / _D:.12g} r={r / _D:.12g} "
                        f"z={z / _D:.12g} s={s} lhs={lhs!r} rhs={rhs!r}")
                    break
        results.append(IdentityResult(name, passed, checked, detail))

    # One walk over the pairs: the theta row of (n, k + 1) is built once,
    # for both theta checks of (n, k) and the Omega numerator of (n, k + 1);
    # each check keeps its cases and a verdict per case.
    pairs, wedge, theta, positive, bounded = [], [], [], [], []
    for n in range(3, nmax + 1):
        row = _theta_row(n, 3)
        for k in range(3, n + 1):
            next_row = _theta_row(n, k + 1)
            total = _omega_numerator(row)
            pairs.append((n, k))
            theta.append(_theta_step_holds(row, next_row)
                         and _theta_index_holds(n, k, row, next_row))
            positive.append(total > 0)
            if (checked := _omega_check(n, k, total)) is not None:
                wedge.append((n, k))
                bounded.append(checked[2])
            row = next_row
    for name, cases, holds in (("theta-recurrences", pairs, theta),
                               ("omega-positive", pairs, positive),
                               ("omega-bounds", wedge, bounded)):
        passed = all(holds)
        checked = len(holds) if passed else holds.index(False) + 1
        detail = (f"(nmax={nmax})" if passed
                  else "witness n={} k={}".format(*cases[checked - 1]))
        results.append(IdentityResult(name, passed, checked, detail))
    return results
