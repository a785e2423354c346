"""Equilibrium bid functions for k-th price auctions.

With n bidders, i.i.d. linear-density values and the winner paying the
k-th highest bid, the symmetric increasing equilibrium is pinned down by
revenue equivalence: the expected payment of a bidder with value x must
equal the second-price benchmark int_0^x y F(y)**(n-2) f(y) dy times
(n-1). Differentiating that integral identity once per price level and
dividing by the density each time gives the ladder

    psi_0(x)   = int_0^x y F(y)**(n-2) f(y) dy,
    psi_{t+1}  = psi_t' / f,
    beta_k(x)  = psi_{k-1}(x) / (binom(n-2, k-2) (k-2)! F(x)**(n-k)).

Because f' = a is constant here, the ladder telescopes into a finite
series with Catalan-weighted coefficients theta(n, k, l):

    beta_k(x) = x + binom(n-2, k-2)**-1 *
                sum_{l=0}^{k-3} (-1)**l theta(n,k,l) a**l F**(l+1) / f**(2l+1).

Special cases: beta_2(x) = x (bid your value), beta_3(x) = x +
F(x)/((n-2) f(x)), uniform values give beta_k = x (n-1)/(n-k+1), and the
triangle density gives the linear bid beta_k = x (1 + Omega_k /
binom(n-2, k-2)), shaded *upward*: in a k-th price auction with k >= 3
you bid above your value. These are the series at k = 2, k = 3, a = 0
and b = 0, so a BidFunction is an exact rational slope or the series:
equilibrium takes the slope where there is one, and series, third_price
(the series at k = 3) and second_price (slope 1) build one form directly.

The ladder is also run symbolically in exact arithmetic
(psi_ladder_oracle), which makes the series formula checkable as a
polynomial identity with no floating point anywhere in the loop. Every
denominator on it is a power of f, so each value is carried as a
numerator and a power of f; a step is polynomial arithmetic only, and
each public result becomes one RationalFunction (one gcd) at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import combinatorics
from .distributions import (AuctionConfig, LinearDensityDistribution,
                            _check_int, _check_nk)
from .polynomials import Polynomial, RationalFunction

__all__ = [
    "BidFunction",
    "MonotonicityResult",
    "series_coefficients",
    "psi_ladder_oracle",
    "psi_closed_form",
    "bid_from_psi_ladder",
    "phi_ladder_check",
    "monotonicity_certificate",
]


def _exact_slope(dist: LinearDensityDistribution, n: int,
                 k: int) -> Fraction | None:
    """The exact slope of beta_k where it is linear in x, else None.

    k = 2 bids truthfully, uniform values (a = 0) give 1 + (k-2)/(n-k+1),
    the triangle density (b = 0) gives 1 + Omega(n, k)/binom(n-2, k-2).
    """
    if k == 2:
        return Fraction(1)
    if dist.a == 0.0:
        return 1 + Fraction(k - 2, n - k + 1)
    if dist.b == 0.0:
        return 1 + combinatorics.omega(n, k) / math.comb(n - 2, k - 2)
    return None


def series_coefficients(n: int, k: int) -> tuple[Fraction, ...]:
    """Exact coefficients c_l = (-1)**l theta(n,k,l) / binom(n-2,k-2)."""
    n, k = _check_nk("series_coefficients", n, k, 3)
    denom = math.comb(n - 2, k - 2)
    out = []
    for l in range(k - 2):
        c = combinatorics.theta_coeff(n, k, l) / denom
        out.append(-c if l % 2 else c)
    return tuple(out)


@lru_cache(maxsize=None)
def _float_series_coefficients(n: int, k: int) -> tuple[float, ...]:
    return tuple(float(c) for c in series_coefficients(n, k))


def _series_eval(dist: LinearDensityDistribution, n: int, k: int,
                 x: np.ndarray) -> np.ndarray:
    """Series bid x + sum_l c_l a**l F(x)**(l+1) / f(x)**(2l+1), vectorized.

    x = 0 maps to 0 by continuity (for the triangle density the series
    term there is a 0/0 form).
    """
    cs = _float_series_coefficients(n, k)
    big_f = np.asarray(dist.cdf(x))
    f = np.asarray(dist.pdf(x))
    pos = f > 0.0
    f_safe = np.where(pos, f, 1.0)
    base = big_f / f_safe                      # F/f
    # sum_l c_l a^l F^(l+1) / f^(2l+1) = base * Horner(a F / f^2; c_l)
    acc = cs[-1]
    if len(cs) > 1:
        factor = dist.a * big_f / (f_safe * f_safe)
        for c in reversed(cs[:-1]):
            acc = acc * factor + c
    return np.where(pos, x + base * acc, 0.0)


# ---------------------------------------------------------------------------
# bid function objects

@dataclass(frozen=True)
class BidFunction:
    """A bid profile beta(x), evaluable on scalars or arrays.

    One rule: slope * x when the exact rational slope is set, otherwise
    the Catalan series for (config, dist).
    """

    config: AuctionConfig
    dist: LinearDensityDistribution
    slope: Fraction | None = None

    @classmethod
    def second_price(cls, config: AuctionConfig,
                     dist: LinearDensityDistribution) -> "BidFunction":
        """Truthful bidding, beta(x) = x: the equilibrium at k = 2 and the
        negative control for k >= 3."""
        return cls(config, dist, Fraction(1))

    @classmethod
    def third_price(cls, config: AuctionConfig,
                    dist: LinearDensityDistribution) -> "BidFunction":
        """The series at AuctionConfig(config.n, 3), x + F/((n-2) f); the
        returned bid's config has k = 3 whatever config.k is."""
        return cls.series(AuctionConfig(config.n, 3), dist)

    @classmethod
    def series(cls, config: AuctionConfig,
               dist: LinearDensityDistribution) -> "BidFunction":
        """The Catalan series in floats, for any linear density. Against
        exact Fraction evaluation (a = 1.9, 20 points in [0.05, 1]) its
        relative error is at most 1e-13 for n <= 20, 5.7e-12 at n = 30 and
        2.2e-9 at n = 40, worst at k = n, where the alternating Horner sum
        cancels; larger n is accepted but not validated."""
        if config.k < 3:
            raise ValueError("series bid needs k >= 3 (k = 2 is second price)")
        return cls(config, dist)

    @classmethod
    def equilibrium(cls, config: AuctionConfig,
                    dist: LinearDensityDistribution) -> "BidFunction":
        """The exact slope where beta_k is linear (k = 2, uniform,
        triangle), otherwise the series."""
        return cls(config, dist, _exact_slope(dist, config.n, config.k))

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        xs = np.atleast_1d(arr)
        if self.slope is not None:
            out = float(self.slope) * xs
        else:
            out = _series_eval(self.dist, self.config.n, self.config.k, xs)
        return float(out[0]) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# symbolic ladders

def _ladder(num: Polynomial, j: int, f: Polynomial,
            steps: int) -> tuple[Polynomial, int]:
    """Apply psi -> psi' / f `steps` times to psi = num / f**j.

    By the quotient rule with f' = a constant,
    (N / f**j)' / f = (N' f - j a N) / f**(j+2).
    """
    a = f.derivative()(0)
    for _ in range(steps):
        num = num.derivative() * f - (j * a) * num
        j += 2
    return num, j


def _psi_ladder(big_f: Polynomial, f: Polynomial, n: int,
                k: int) -> tuple[Polynomial, int]:
    """psi_{k-1} as the pair (numerator, power of f)."""
    psi_0 = (Polynomial.variable() * big_f ** (n - 2) * f).antiderivative()
    return _ladder(psi_0, 0, f, k - 1)


def psi_ladder_oracle(dist: LinearDensityDistribution, n: int,
                      k: int) -> RationalFunction:
    """Run the differentiation ladder symbolically and return psi_{k-1}.

    psi_0 is the exact antiderivative of x F**(n-2) f (zero at 0); each
    step differentiates and divides by f by the quotient rule, in exact
    polynomial arithmetic over powers of f. Independent of the series
    formula by construction: the only shared input is the distribution.
    """
    n, k = _check_nk("psi_ladder_oracle", n, k, 3)
    big_f, f = dist.exact_polynomials()
    num, j = _psi_ladder(big_f, f, n, k)
    return RationalFunction(num, f ** j)


def psi_closed_form(dist: LinearDensityDistribution, n: int,
                    k: int) -> RationalFunction:
    """Telescoped form of psi_{k-1}, as an exact rational function.

    psi_{k-1} / (k-2)! = binom(n-2,k-2) x F**(n-k)
                         + sum_l (-1)**l theta(n,k,l) a**l F**(n-k+l+1) / f**(2l+1)

    Over the common denominator f**(2m+1), m = k-3, the sum is
    F**(n-k+1) sum_l c_l (aF)**l (f**2)**(m-l), evaluated by Horner in f**2.
    """
    n, k = _check_nk("psi_closed_form", n, k, 3)
    big_f, f = dist.exact_polynomials()
    a = Fraction(dist.a)
    x = Polynomial.variable()
    f2 = f * f
    a_big_f = a * big_f
    power = Polynomial([1])  # (aF)**l
    acc = Polynomial()
    for l in range(k - 2):
        coeff = combinatorics.theta_coeff(n, k, l)
        acc = acc * f2 + (-coeff if l % 2 else coeff) * power
        power = power * a_big_f
    den = f * f2 ** (k - 3)
    num = big_f ** (n - k) * (math.comb(n - 2, k - 2) * x * den + big_f * acc)
    return RationalFunction(math.factorial(k - 2) * num, den)


def bid_from_psi_ladder(dist: LinearDensityDistribution, n: int,
                        k: int) -> RationalFunction:
    """beta_k as a rational function, straight from the symbolic ladder."""
    n, k = _check_nk("bid_from_psi_ladder", n, k, 3)
    big_f, f = dist.exact_polynomials()
    num, j = _psi_ladder(big_f, f, n, k)
    scale = math.comb(n - 2, k - 2) * math.factorial(k - 2)
    return RationalFunction(num, scale * big_f ** (n - k) * f ** j)


def phi_ladder_check(dist: LinearDensityDistribution, n: int, k: int) -> bool:
    """Exact check of the expected-payment ladder against the bid.

    Starting from gamma_l(x) = int_0^x beta_k(y) F(y)**(n-k+l) f(y) dy and

        Phi_t = sum_{l=0}^{k-t} (-1)**l binom(k-t, l) F**(k-t-l) gamma_l,

    verifies (i) Phi_t' = (k-t) Phi_{t+1} f as polynomial identities for
    t = 2..k-1, and (ii) that applying the divide-by-f derivative ladder
    k-1 times to Phi_2 lands exactly on (k-2)! beta_k F**(n-k); with the
    ladder at N / f**j, (ii) is the polynomial identity
    N = (k-2)! beta_k F**(n-k) f**j. Requires a uniform or triangle
    distribution so every gamma_l is a polynomial.
    """
    n, k = _check_nk("phi_ladder_check", n, k, 3)
    slope = _exact_slope(dist, n, k)
    if slope is None:
        raise ValueError("phi_ladder_check: distribution must be uniform or "
                         "triangle so the payment integrals stay polynomial")
    big_f, f = dist.exact_polynomials()
    beta = Polynomial([0, slope])
    gammas = [(beta * big_f ** (n - k + l) * f).antiderivative()
              for l in range(k - 1)]

    def phi(t: int) -> Polynomial:
        out = Polynomial()
        for l in range(k - t + 1):
            term = math.comb(k - t, l) * big_f ** (k - t - l) * gammas[l]
            out = out - term if l % 2 else out + term
        return out

    phis = {t: phi(t) for t in range(2, k + 1)}
    for t in range(2, k):
        if phis[t].derivative() != (k - t) * phis[t + 1] * f:
            return False

    num, j = _ladder(phis[2], 0, f, k - 1)
    return num == math.factorial(k - 2) * beta * big_f ** (n - k) * f ** j


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class MonotonicityResult:
    """Outcome of a strict-increase check; truthy iff the bid is increasing."""

    increasing: bool
    witness: tuple[float, float] | None = None
    slope: Fraction | None = None

    def __bool__(self) -> bool:
        return self.increasing


def monotonicity_certificate(bid: BidFunction, grid_size: int = 256) -> MonotonicityResult:
    """Certify that a bid function is strictly increasing.

    A bid with an exact slope is certified exactly (slope > 0); the
    series is checked on a grid over (0, omega], and a failing adjacent
    pair is returned as the witness.
    """
    grid_size = _check_int("monotonicity_certificate", "grid_size",
                           grid_size, 2)
    if bid.slope is not None:
        return MonotonicityResult(bid.slope > 0, slope=bid.slope)
    omega = bid.dist.omega
    xs = omega * np.arange(1, grid_size + 1) / grid_size
    vals = bid(xs)
    diffs = np.diff(vals)
    bad = np.nonzero(diffs <= 0.0)[0]
    if bad.size:
        i = int(bad[0])
        return MonotonicityResult(False, witness=(float(xs[i]), float(xs[i + 1])))
    return MonotonicityResult(True)
