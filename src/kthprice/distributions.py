"""Linear-density value distributions and the auction configuration.

Values are drawn i.i.d. from F(x) = a*x**2/2 + b*x on [0, omega], with
density f(x) = a*x + b. Each parameter is read once, by _check_finite, as
its nearest float, the one binary density that the float paths and the
exact ladders read. A bool, or a value not finite as a float (an int
past the float range too, and a or b past it at an extreme omega),
raises a ValueError naming the field; unnormalised parameters (F(omega)
must be 1) raise one instead of silently rescaling. Positivity of f is
required on (0, omega] only, so the triangle case b = 0, f(0) = 0 is
legal. inverse_cdf inverts the quadratic CDF in closed form; the Monte
Carlo routes use it to map uniforms to values. _check_int and _check_nk,
beside AuctionConfig, check the integer and (n, k) arguments of every module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AuctionConfig",
    "LinearDensityDistribution",
    "make_uniform",
    "make_triangle",
    "make_linear",
]

_NORMALIZATION_TOL = 1e-12


def _check_int(func: str, name: str, value, low: int | None = None) -> int:
    """value as an int, and >= low if low is given; a ValueError names func
    and name otherwise ("func: name", or "Class.name" for a class's field).
    numpy integers are accepted and converted; bools are refused."""
    if type(value) is not int:  # the common case skips the slower checks
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            where = f"{func}.{name}" if func[0].isupper() else f"{func}: {name}"
            raise ValueError(f"{where} must be an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{func}: {name} must be >= {low}, got {value}")
    return value


def _check_nk(func: str, n, k, k_min: int) -> tuple[int, int]:
    """(n, k) as ints with k_min <= k <= n, else a ValueError naming func."""
    if type(n) is not int or type(k) is not int:
        n, k = _check_int(func, "n", n), _check_int(func, "k", k)
    if not k_min <= k <= n:
        raise ValueError(f"{func}: need {k_min} <= k <= n, got n={n}, k={k}")
    return n, k


def _check_finite(name: str, value) -> float:
    """value as its nearest float; a ValueError naming the field for a
    bool or a value that is not finite as a float."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an int past the float range
        value = "an int past the float range"
    raise ValueError(f"{name} must be finite, got {value}")


def _check_omega(omega) -> float:
    """omega as a finite, positive float, checked before any arithmetic."""
    omega = _check_finite("omega", omega)
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    return omega


@dataclass(frozen=True)
class AuctionConfig:
    """Bidder count n and price index k: winner pays the k-th highest bid."""

    n: int
    k: int

    def __post_init__(self):
        n, k = _check_nk("AuctionConfig", self.n, self.k, 2)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class LinearDensityDistribution:
    """Distribution with density f(x) = a*x + b on [0, omega], in floats."""

    a: float
    b: float
    omega: float

    def __post_init__(self):
        object.__setattr__(self, "omega", _check_omega(self.omega))
        for name in ("a", "b"):
            object.__setattr__(self, name, _check_finite(name, getattr(self, name)))
        if self.b < 0.0:
            raise ValueError(f"b must be >= 0 (density negative near 0): {self.b}")
        if self.b == 0.0 and self.a <= 0.0:
            raise ValueError("a must be positive when b = 0")
        if not self.a * self.omega + self.b > 0.0:
            raise ValueError(
                f"density must stay positive at omega: f(omega) = "
                f"{self.a * self.omega + self.b}")
        mass = (self.a * self.omega / 2.0 + self.b) * self.omega  # cdf(omega)
        if abs(mass - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(
                f"parameters are not normalised: F(omega) = {mass!r}, "
                f"expected 1 within {_NORMALIZATION_TOL}")

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
        # The float operations of denom = b + sqrt(max(b*b + 2a*u, 0)) and
        # clip(where(denom > 0, 2u / denom, 0), 0, omega), in that order,
        # in two buffers; out= keeps a 0-d input a 0-d array.
        denom = np.multiply(2.0 * self.a, u, out=np.empty_like(u))
        denom += self.b * self.b
        np.maximum(denom, 0.0, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.b
        zero = ~(denom > 0.0)
        denom[zero] = 1.0
        out = np.multiply(2.0, u, out=np.empty_like(u))
        np.divide(out, denom, out=out)
        out[zero] = 0.0
        np.clip(out, 0.0, self.omega, out=out)
        return float(out) if out.ndim == 0 else out


def make_uniform(omega: float) -> LinearDensityDistribution:
    """Uniform values on [0, omega]: a = 0, b = 1/omega."""
    omega = _check_omega(omega)
    return LinearDensityDistribution(0.0, 1.0 / omega, omega)


def make_triangle(omega: float) -> LinearDensityDistribution:
    """Triangle density rising from 0: b = 0, a = 2/omega**2."""
    omega = _check_omega(omega)
    try:
        a = 2.0 / omega ** 2
    except (OverflowError, ZeroDivisionError):  # omega**2 leaves the range
        a = 2.0 / omega / omega  # inf or 0 where a leaves the range too
    return LinearDensityDistribution(a, 0.0, omega)


def make_linear(a: float, omega: float) -> LinearDensityDistribution:
    """General linear density with slope a; b is fixed by normalisation."""
    omega, a = _check_omega(omega), _check_finite("a", a)
    try:
        b = (1.0 - a * omega ** 2 / 2.0) / omega
    except OverflowError:  # float ** raises past the float range; * does not
        b = (1.0 - a * omega * omega / 2.0) / omega
    return LinearDensityDistribution(a, b, omega)
