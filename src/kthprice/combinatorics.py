"""Exact Catalan-number machinery and the binomial identities behind it.

The k-th price bid series is driven by Catalan numbers
C_l = binom(2l, l)/(l+1) through the coefficients

    theta(n, k, l) = binom(n-2, k-3-l) * C_l / 2**l,    l = 0..k-3,

and their alternating sum

    Omega(n, k) = sum_l (-1)**l * theta(n, k, l) / 2**(l+1),

which is the slope premium of the equilibrium bid under a triangle
value density. Positivity of Omega and the sandwich

    binom(n-3, k-3)/2 <= Omega(n, k) <= 7*binom(n-3, k-3)/8   (n+4 > 2k)

are exact rational statements, checked as integers over one
denominator: theta * 2**l is an integer, and Omega is one integer over
2**(2k-5), returned as a Fraction. The Jensen / Hagen-Rothe /
shifted-Jensen convolution identities take real arguments; each side is
summed exactly as an integer over one denominator from the binary values
of the inputs, and its float is one correctly rounded int / int
division. The only other floating point is the quadrature check of the
integral representation

    C_l = (2**(2l+1) / pi) * int_0^1 t**l * sqrt((1-t)/t) dt.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .distributions import _check_int, _check_nk
from .quadrature import integrate

__all__ = [
    "catalan",
    "catalan_recurrence_holds",
    "catalan_integral",
    "jensen_sides",
    "hagen_rothe_sides",
    "shifted_jensen_sides",
    "theta_coeff",
    "theta_step_recurrence_holds",
    "theta_index_identity_holds",
    "omega",
    "omega_bounds",
    "omega_bounds_hold",
    "IdentityResult",
    "identity_sweep",
]


def catalan(l: int) -> int:
    """l-th Catalan number binom(2l, l) / (l + 1), exact."""
    l = _check_int("catalan", "l", l, 0)
    # (l+1) always divides binom(2l, l); // keeps the result an int
    return math.comb(2 * l, l) // (l + 1)


def catalan_recurrence_holds(l_max: int) -> bool:
    """Check C_l == 2(2l-1)/(l+1) * C_{l-1} exactly for l = 1..l_max."""
    l_max = _check_int("catalan_recurrence_holds", "l_max", l_max, 1)
    c = Fraction(1)  # C_0
    for l in range(1, l_max + 1):
        c = c * Fraction(2 * (2 * l - 1), l + 1)
        if c != catalan(l):
            return False
    return True


def catalan_integral(l: int) -> float:
    """Evaluate C_l from its integral representation by quadrature.

    Substituting t = sin(u)**2 removes both endpoint singularities of
    sqrt((1-t)/t) and leaves the smooth integrand
    (2**(2l+2)/pi) * sin(u)**(2l) * cos(u)**2 on [0, pi/2].
    """
    l = _check_int("catalan_integral", "l", l, 0)
    scale = 2.0 ** (2 * l + 2) / math.pi

    def integrand(u):
        s = np.sin(u)
        c = np.cos(u)
        return s ** (2 * l) * c * c

    return scale * integrate(integrand, 0.0, math.pi / 2.0)


def _over_one_denominator(*xs) -> tuple[int, list[int]]:
    """(D, [x*D for x in xs]): the exact values of xs as integers over
    D, the lcm of their denominators (a power of 2 for floats)."""
    # numpy integers have no as_integer_ratio
    ratios = [(int(x), 1) if isinstance(x, numbers.Integral)
              else x.as_integer_ratio() for x in xs]
    den = math.lcm(*(q for _, q in ratios))
    return den, [p * (den // q) for p, q in ratios]


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
# exact side), so the returned pair is within one ulp of the true
# (equal) sides.

def jensen_sides(m: float, r: float, z: float, s: int) -> tuple[float, float]:
    """Both sides of Jensen's convolution identity.

    sum_l binom(m+z*l, l) binom(r-z*l, s-l) == sum_l binom(m+r-l, s-l) z**l
    """
    s = _check_int("jensen_sides", "s", s, 0)
    d, (m, r, z) = _over_one_denominator(m, r, z)
    lhs = sum(math.comb(s, l) * _falling(m + z * l, l, d)
              * _falling(r - z * l, s - l, d) for l in range(s + 1))
    rhs = sum(math.perm(s, l) * _falling(m + r - l * d, s - l, d) * z ** l
              for l in range(s + 1))
    scale = d ** s * math.factorial(s)
    return lhs / scale, rhs / scale


def hagen_rothe_sides(m: float, r: float, z: float, s: int) -> tuple[float, float]:
    """Both sides of the Hagen-Rothe convolution identity.

    sum_l m/(m+z*l) binom(m+z*l, l) binom(r-z*l, s-l) == binom(m+r, s)
    """
    s = _check_int("hagen_rothe_sides", "s", s, 0)
    d, (m, r, z) = _over_one_denominator(m, r, z)
    for l in range(s + 1):
        if m + z * l == 0:
            raise ValueError(f"hagen_rothe_sides: m + z*l vanishes at l={l}")
    # D**l l! m/(m+z*l) binom(m+z*l, l) = M (M+Zl-D) ... (M+Zl-(l-1)D),
    # and 1 at l = 0
    lhs = sum(math.comb(s, l) * _falling(r - z * l, s - l, d)
              * (m * _falling(m + z * l - d, l - 1, d) if l else 1)
              for l in range(s + 1))
    scale = d ** s * math.factorial(s)
    return lhs / scale, _falling(m + r, s, d) / scale


def shifted_jensen_sides(r: float, z: float, s: int) -> tuple[float, float]:
    """Both sides of the shifted variant used to telescope the bid series.

    sum_l binom(r-l, s-l) z**l == sum_l binom(r+1, s-l) (z-1)**l
    """
    s = _check_int("shifted_jensen_sides", "s", s, 0)
    d, (r, z) = _over_one_denominator(r, z)
    lhs = sum(math.perm(s, l) * _falling(r - l * d, s - l, d) * z ** l
              for l in range(s + 1))
    rhs = sum(math.perm(s, l) * _falling(r + d, s - l, d) * (z - d) ** l
              for l in range(s + 1))
    scale = d ** s * math.factorial(s)
    return lhs / scale, rhs / scale


def _theta_num(n: int, k: int, l: int) -> int:
    """theta(n, k, l) * 2**l = binom(n-2, k-3-l) * C_l, unchecked."""
    return math.comb(n - 2, k - 3 - l) * catalan(l)


def theta_coeff(n: int, k: int, l: int) -> Fraction:
    """theta(n, k, l) = binom(n-2, k-3-l) * C_l / 2**l, exact.

    Defined for 3 <= k <= n and 0 <= l <= k-3.
    """
    n, k = _check_nk("theta_coeff", n, k, 3)
    l = _check_int("theta_coeff", "l", l)
    if not 0 <= l <= k - 3:
        raise ValueError("theta_coeff: index l must lie in 0..k-3")
    return Fraction(_theta_num(n, k, l), 2 ** l)


# The two theta checks compare the integers theta * 2**l, cross-multiplied.

def theta_step_recurrence_holds(n: int, k: int) -> bool:
    """Check theta(n, k+1, l) == (2l-1)/(l+1) * theta(n, k, l-1) exactly.

    Verified for l = 1..k-2, the full range on which both sides exist.
    """
    n, k = _check_nk("theta_step_recurrence_holds", n, k, 3)
    return all((l + 1) * _theta_num(n, k + 1, l)
               == 2 * (2 * l - 1) * _theta_num(n, k, l - 1)
               for l in range(1, k - 1))


def theta_index_identity_holds(n: int, k: int) -> bool:
    """Check (n-k+l+1) * theta(n,k,l) == (k-2-l) * theta(n,k+1,l) exactly."""
    n, k = _check_nk("theta_index_identity_holds", n, k, 3)
    return all((n - k + l + 1) * _theta_num(n, k, l)
               == (k - 2 - l) * _theta_num(n, k + 1, l)
               for l in range(k - 2))


def omega(n: int, k: int) -> Fraction:
    """Alternating Catalan sum Omega(n, k), the triangle bid's slope premium.

    Omega(n, k) = sum_{l=0}^{k-3} (-1)**l * theta(n, k, l) / 2**(l+1),
    summed as integers over the common denominator 2**(2k-5).
    Strictly positive for all 3 <= k <= n.
    """
    n, k = _check_nk("omega", n, k, 3)
    total = sum((-1) ** l * _theta_num(n, k, l) * 4 ** (k - 3 - l)
                for l in range(k - 2))
    return Fraction(total, 2 ** (2 * k - 5))


def omega_bounds(n: int, k: int) -> tuple[Fraction, Fraction] | None:
    """Exact bounds binom(n-3,k-3)/2 and 7*binom(n-3,k-3)/8 on Omega(n, k).

    They are claimed only on the wedge n + 4 > 2k; outside it this
    returns None. Divided by binom(n-2, k-2) they bound the triangle
    bid's slope premium by (k-2)/(2(n-2)) and 7(k-2)/(8(n-2)).
    """
    n, k = _check_nk("omega_bounds", n, k, 3)
    if not n + 4 > 2 * k:
        return None
    anchor = math.comb(n - 3, k - 3)
    return Fraction(anchor, 2), Fraction(7 * anchor, 8)


def omega_bounds_hold(n: int, k: int) -> bool:
    """Exact check that Omega(n, k) lies within omega_bounds(n, k).

    Parameters off the wedge are rejected. For k = 3 the lower bound is
    attained with equality.
    """
    n, k = _check_nk("omega_bounds_hold", n, k, 3)
    bounds = omega_bounds(n, k)
    if bounds is None:
        raise ValueError(f"omega_bounds_hold: bounds are only claimed for "
                         f"n + 4 > 2k, got n={n}, k={k}")
    lower, upper = bounds
    return lower <= omega(n, k) <= upper


@dataclass(frozen=True)
class IdentityResult:
    """One identity's verdict, the number of cases checked (up to the first
    failure) and the swept range, or the failing case as "witness ..."."""

    name: str
    passed: bool
    cases: int
    detail: str


def _first_witness(cases, holds):
    """(cases checked, first case where holds(*case) is false, or None)."""
    checked = 0
    for checked, case in enumerate(cases, 1):
        if not holds(*case):
            return checked, case
    return checked, None


def _random_cases(rng: np.random.Generator, avoid_poles: bool):
    """Endless (m, r, z, s) draws; with avoid_poles, skip those with
    |m + z*l| < 1e-3 for some l <= s, the Hagen-Rothe identity's poles."""
    while True:
        m = float(5.0 * rng.random()) or 1.0  # (0, 5]
        r = float(-3.0 + 13.0 * rng.random())
        z = float(-2.0 + 4.0 * rng.random())
        s = int(rng.integers(0, 13))
        if not (avoid_poles and any(abs(m + z * l) < 1e-3 for l in range(s + 1))):
            yield m, r, z, s


_RANDOM_SIDES = {
    "jensen": lambda m, r, z, s: jensen_sides(m, r, z, s),
    "hagen-rothe": lambda m, r, z, s: hagen_rothe_sides(m, r, z, s),
    "shifted-jensen": lambda m, r, z, s: shifted_jensen_sides(r, z, s),
}


def identity_sweep(lmax: int, integral_lmax: int, trials: int, seed: int,
                   nmax: int, tol: float) -> list[IdentityResult]:
    """Check every identity behind the bid series; one result per identity.

    catalan-recurrence exactly for l = 1..lmax; catalan-integral within
    1e-6 relative for l = 0..integral_lmax; jensen, hagen-rothe and
    shifted-jensen on `trials` checked random draws each, from one
    generator seeded with `seed`, within tol * max(1, |rhs|);
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
    if not tol > 0:
        raise ValueError(f"identity_sweep: tol must be > 0, got {tol}")
    worst = max(abs(catalan_integral(l) - catalan(l)) / catalan(l)
                for l in range(integral_lmax + 1))
    results = [
        IdentityResult("catalan-recurrence", catalan_recurrence_holds(lmax),
                       lmax, f"(lmax={lmax})"),
        IdentityResult("catalan-integral", worst <= 1e-6, integral_lmax + 1,
                       f"(lmax={integral_lmax}, max_rel_err={worst:.12g})"),
    ]

    rng = np.random.default_rng(seed)
    for name, sides in _RANDOM_SIDES.items():
        def close(*case, sides=sides):
            lhs, rhs = sides(*case)
            return abs(lhs - rhs) <= tol * max(1.0, abs(rhs))

        draws = _random_cases(rng, avoid_poles=name == "hagen-rothe")
        checked, bad = _first_witness(islice(draws, trials), close)
        detail = f"(trials={trials}, seed={seed})"
        if bad is not None:
            (m, r, z, s), (lhs, rhs) = bad, sides(*bad)
            detail = (f"witness m={m:.12g} r={r:.12g} z={z:.12g} s={s} "
                      f"lhs={lhs:.12g} rhs={rhs:.12g}")
        results.append(IdentityResult(name, bad is None, checked, detail))

    pairs = [(n, k) for n in range(3, nmax + 1) for k in range(3, n + 1)]
    for name, cases, holds in (
            ("theta-recurrences", pairs,
             lambda n, k: (theta_step_recurrence_holds(n, k)
                           and theta_index_identity_holds(n, k))),
            ("omega-positive", pairs, lambda n, k: omega(n, k) > 0),
            ("omega-bounds", [(n, k) for n, k in pairs if omega_bounds(n, k)],
             lambda n, k: (omega_bounds_hold(n, k)
                           and (k > 3 or omega(n, k) == Fraction(1, 2))))):
        checked, bad = _first_witness(cases, holds)
        detail = (f"(nmax={nmax})" if bad is None
                  else f"witness n={bad[0]} k={bad[1]}")
        results.append(IdentityResult(name, bad is None, checked, detail))
    return results
