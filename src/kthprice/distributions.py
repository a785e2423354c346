"""Linear-density value distributions and their order statistics.

Values are drawn i.i.d. from F(x) = a*x**2/2 + b*x on [0, omega], with
density f(x) = a*x + b. Constructors reject unnormalised parameters
(F(omega) must be 1) instead of silently rescaling. Positivity of f is
required on (0, omega] only, so the triangle case b = 0, f(0) = 0 is
legal. Sampling inverts the quadratic CDF in closed form, so a stream
of uniforms maps to values deterministically given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .polynomials import Polynomial

__all__ = [
    "NORMALIZATION_TOL",
    "AuctionConfig",
    "LinearDensityDistribution",
    "make_uniform",
    "make_triangle",
    "make_linear",
    "highest_order_stat",
    "conditional_order_stat_density",
    "sample_values",
]

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class AuctionConfig:
    """Bidder count n and price index k: winner pays the k-th highest bid."""

    n: int
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"AuctionConfig.k must be >= 2, got {self.k}")
        if self.n < self.k:
            raise ValueError(
                f"AuctionConfig needs n >= k, got n={self.n}, k={self.k}")


@dataclass(frozen=True)
class LinearDensityDistribution:
    """Distribution with density f(x) = a*x + b on [0, omega]."""

    a: float
    b: float
    omega: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.b < 0.0:
            raise ValueError(f"b must be >= 0 (density negative near 0): {self.b}")
        if self.b == 0.0 and self.a <= 0.0:
            raise ValueError("a must be positive when b = 0")
        if not self.a * self.omega + self.b > 0.0:
            raise ValueError(
                f"density must stay positive at omega: f(omega) = "
                f"{self.a * self.omega + self.b}")
        mass = self.a * self.omega ** 2 / 2.0 + self.b * self.omega
        if abs(mass - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"parameters are not normalised: F(omega) = {mass!r}, "
                f"expected 1 within {NORMALIZATION_TOL}")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = x * (self.a * x / 2.0 + self.b)
        return float(out) if out.ndim == 0 else out

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = self.a * x + self.b
        return float(out) if out.ndim == 0 else out

    def inverse_cdf(self, u):
        """Solve a*x**2/2 + b*x = u on [0, omega].

        Rationalised root x = 2u / (b + sqrt(b**2 + 2*a*u)): stable as
        a -> 0 and valid for either sign of a. The denominator vanishes
        only at u = 0 in the triangle case, where x = 0 anyway.
        """
        u = np.asarray(u, dtype=float)
        disc = self.b * self.b + 2.0 * self.a * u
        denom = self.b + np.sqrt(np.maximum(disc, 0.0))
        safe = np.where(denom > 0.0, denom, 1.0)
        x = np.where(denom > 0.0, 2.0 * u / safe, 0.0)
        out = np.clip(x, 0.0, self.omega)
        return float(out) if out.ndim == 0 else out

    def exact_polynomials(self) -> tuple[Polynomial, Polynomial]:
        """(F, f) as polynomials over the exact binary values of a and b."""
        a, b = Fraction(self.a), Fraction(self.b)
        return Polynomial([0, b, a / 2]), Polynomial([b, a])


def make_uniform(omega: float) -> LinearDensityDistribution:
    """Uniform values on [0, omega]: a = 0, b = 1/omega."""
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    return LinearDensityDistribution(0.0, 1.0 / omega, omega)


def make_triangle(omega: float) -> LinearDensityDistribution:
    """Triangle density rising from 0: b = 0, a = 2/omega**2."""
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    return LinearDensityDistribution(2.0 / omega ** 2, 0.0, omega)


def make_linear(a: float, omega: float) -> LinearDensityDistribution:
    """General linear density with slope a; b is fixed by normalisation."""
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    b = (1.0 - a * omega ** 2 / 2.0) / omega
    return LinearDensityDistribution(a, b, omega)


def highest_order_stat(dist: LinearDensityDistribution, n: int, y):
    """CDF and density of the highest of n-1 opponent values.

    Returns (G(y), g(y)) with G = F**(n-1), g = (n-1) F**(n-2) f.
    """
    if n < 2:
        raise ValueError(f"highest_order_stat: need n >= 2, got {n}")
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0.0) or np.any(y_arr > dist.omega):
        raise ValueError("highest_order_stat: y must lie in [0, omega]")
    big_f = dist.cdf(y)
    g_cdf = big_f ** (n - 1)
    g_pdf = (n - 1) * big_f ** (n - 2) * dist.pdf(y)
    return g_cdf, g_pdf


def conditional_order_stat_density(dist: LinearDensityDistribution,
                                   m: int, r: int, x: float, y):
    """Density of the r-th highest of m draws, given the highest is below x.

    h(y) = m / F(x)**m * binom(m-1, r-1) (F(x)-F(y))**(r-1) F(y)**(m-r) f(y)
    on [0, x]. With m = n-1 and r = k-1 this is exactly the density of
    the price paid by a winning bidder with value x.
    """
    if not 1 <= r <= m:
        raise ValueError(f"conditional_order_stat_density: need 1 <= r <= m, "
                         f"got r={r}, m={m}")
    if not 0.0 < x <= dist.omega:
        raise ValueError("conditional_order_stat_density: x must lie in (0, omega]")
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr < 0.0) or np.any(y_arr > x):
        raise ValueError("conditional_order_stat_density: y must lie in [0, x]")
    fx = dist.cdf(x)
    fy = dist.cdf(y_arr)
    out = np.asarray(m / fx ** m * math.comb(m - 1, r - 1)
                     * (fx - fy) ** (r - 1) * fy ** (m - r) * dist.pdf(y_arr))
    return float(out) if out.ndim == 0 else out


def sample_values(dist: LinearDensityDistribution, count: int, seed: int):
    """count i.i.d. values via inverse-CDF sampling, deterministic in seed."""
    if count < 1:
        raise ValueError(f"sample_values: count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return dist.inverse_cdf(rng.random(count))
