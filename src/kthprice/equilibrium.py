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

The series alternates in r = aF/f**2. In u = 1 - 2r = (b/f)**2 the
binomial series makes every term positive: beta_k = x + (F/f) Q(u),
Q(u) = sum_{j=0}^{k-3} d_j u**j, d_j = t_{j+1} + ... + t_{k-2}, with
t_i = 2 C_{i-1} 2**(1-2i) binom(n-3/2-i, k-2-i) / binom(n-2, k-2) > 0.
So beta' = M(u) = 1 + (1+u)/2 Q - u(1-u) Q' has positive coefficients,
1 + d_0/2 and then (j - 1/2) t_j, and rises from the triangle slope
M(0) = prod_{m=n-k+1}^{n-2} (1 + 1/(2m)) to the uniform slope
M(1) = prod (1 + 1/m) = (n-1)/(n-k+1): for a > 0, u lies in (0, 1] and
beta' between the two; for a < 0, u >= 1 and beta' >= M(1).

The ladder is also run symbolically in exact arithmetic
(psi_ladder_oracle), which makes the series formula checkable as a
polynomial identity with no floating point anywhere in the loop. Every
denominator on it is a power of f, and with a = A/D, b = B/D exactly,
f = g/D for the integer polynomial g = B + A x. So each value is carried
as an integer coefficient list, one Fraction scale and a power of g; a
step and the closed form are integer polynomial arithmetic only, and
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
                            _check_nk, make_triangle, make_uniform)
from .polynomials import (Polynomial, RationalFunction, _cleared, _iadd, _imul,
                          _ipow)

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


def _u_coefficients(n: int, k: int) -> tuple[Fraction, ...]:
    """Exact d_0..d_{k-3} of Q(u), as suffix sums of the t_i > 0."""
    denom = math.comb(n - 2, k - 2)
    out, acc = [], Fraction(0)
    for i in range(k - 2, 0, -1):
        m = k - 2 - i  # 2**m m! binom(n-3/2-i, m) = falling(2n-3-2i, m, 2)
        odd = combinatorics._falling(2 * n - 3 - 2 * i, m, 2)
        acc += Fraction(combinatorics.catalan(i - 1) * odd,
                        2 ** (i + k - 4) * math.factorial(m) * denom)
        out.append(acc)
    return tuple(reversed(out))


@lru_cache(maxsize=None)
def _float_series_coefficients(n: int, k: int) -> tuple[float, ...]:
    return tuple(float(d) for d in _u_coefficients(n, k))


def _series_eval(dist: LinearDensityDistribution, n: int, k: int,
                 x: np.ndarray) -> np.ndarray:
    """Series bid x + (F/f) Q(v**2), vectorized, with v = b/f and
    F/f = x (1 + v) / 2. f = 0 only at x = 0 on the triangle (b = 0)."""
    ds = _float_series_coefficients(n, k)
    f = np.asarray(dist.pdf(x))
    v = dist.b / np.where(f > 0.0, f, 1.0)
    u, acc = v * v, ds[-1]
    for d in reversed(ds[:-1]):
        acc = acc * u + d
    return x + x * (1.0 + v) / 2.0 * acc


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

    def __post_init__(self):
        n, k, a = self.config.n, self.config.k, self.dist.a
        if self.slope is None and k < 3:
            raise ValueError("series bid needs k >= 3 (k = 2 is second price)")
        if self.slope is None and a < 0:  # increasing: largest at omega
            with np.errstate(over="ignore"):
                if not math.isfinite(self(self.dist.omega)):
                    raise ValueError(f"series bid exceeds the float range at "
                                     f"omega for n={n}, k={k}, a={a}")

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
        """The Catalan series in floats, for any linear density, k >= 3.
        Against exact rational evaluation its relative error is at most
        2e-15 for a > 0 and 2e-13 at a = -1 and -1.9 (tested to n = 150).
        For a < 0 a bid past the float range at omega raises ValueError;
        for a >= 0, beta <= x (n-1)/(n-k+1) cannot overflow."""
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
#
# With the exact binary values a = A/D and b = B/D (D the lcm of their
# denominators), g = D f = B + A x and G = 2D F = x (2B + A x) are integer
# coefficient lists, and every value on a ladder is scale * N / g**j: an
# integer list N, one Fraction scale and a power of g.

def _int_density(dist: LinearDensityDistribution) -> tuple[int, int, int]:
    """(A, B, D): a = A/D and b = B/D exactly."""
    (a_num, a_den), (b_num, b_den) = (dist.a.as_integer_ratio(),
                                      dist.b.as_integer_ratio())
    d = math.lcm(a_den, b_den)
    return a_num * (d // a_den), b_num * (d // b_den), d


def _int_polynomials(
        density: tuple[int, int, int]) -> tuple[list[int], list[int]]:
    """(G, g) = (2D F, D f) as integer coefficient lists."""
    a_int, b_int, _ = density
    if not a_int:
        return [0, 2 * b_int], [b_int]
    return [0, 2 * b_int, a_int], [b_int, a_int]


@lru_cache(maxsize=None)
def _psi_0(dist: LinearDensityDistribution,
           n: int) -> tuple[tuple[int, ...], int]:
    """(N, L): psi_0 = int_0^x y F**(n-2) f dy = sum_i N[i] x**i / L exactly.

    In closed form: the integrand is
    x**(n-1) (2B + Ax)**(n-2) (B + Ax) / (2**(n-2) D**(n-1)). The binomial
    expansion gives its coefficients c_j of x**(n-1+j), and the
    integral's, c_j / (n+j), share the denominator lcm(n..2n-1). L is the
    least common denominator, as for reduced fractions.
    """
    a_int, b_int, d = _int_density(dist)
    # (2B + Ax)**(n-2) = sum_j e[j] x**j, then times (B + Ax)
    e = [math.comb(n - 2, j) * a_int ** j * (2 * b_int) ** (n - 2 - j)
         for j in range(n - 1)] + [0]
    c = [b_int * e[j] + (a_int * e[j - 1] if j else 0) for j in range(n)]
    span = math.lcm(*range(n, 2 * n))
    nums = [0] * n + [c[j] * (span // (n + j)) for j in range(n)]
    den = 2 ** (n - 2) * d ** (n - 1) * span
    g = math.gcd(den, *nums)
    nums = [v // g for v in nums]
    while nums[-1] == 0:  # a = 0 leaves the top coefficients zero
        nums.pop()
    return tuple(nums), den // g


def _ladder(num, scale: Fraction, j: int, density: tuple[int, int, int],
            steps: int) -> tuple[list[int], Fraction, int]:
    """Apply psi -> psi' / f `steps` times to psi = scale * num / g**j.

    By the quotient rule with f' = a constant,
    (N / g**j)' / f = D (N' g - j A N) / g**(j+2), and the coefficient of
    x**i in N' (B + A x) - j A N is B (i+1) N[i+1] + A (i-j) N[i].
    """
    a_int, b_int, d = density
    for _ in range(steps):
        nxt = [a_int * (i - j) * c for i, c in enumerate(num)]
        for i in range(1, len(num)):
            nxt[i - 1] += b_int * i * num[i]
        while nxt and nxt[-1] == 0:
            nxt.pop()
        num, scale, j = nxt, scale * d, j + 2
    return num, scale, j


def _psi_ladder(dist: LinearDensityDistribution, n: int,
                k: int) -> tuple[list[int], Fraction, int, tuple[int, int, int]]:
    """psi_{k-1} as (N, scale, j) with the density (A, B, D) it ran on:
    psi_{k-1} = scale * N / g**j."""
    density = _int_density(dist)
    nums, den = _psi_0(dist, n)
    return *_ladder(nums, Fraction(1, den), 0, density, k - 1), density


def psi_ladder_oracle(dist: LinearDensityDistribution, n: int,
                      k: int) -> RationalFunction:
    """Run the differentiation ladder symbolically and return psi_{k-1}.

    psi_0 is the exact antiderivative of x F**(n-2) f (zero at 0); each
    step differentiates and divides by f by the quotient rule, in exact
    integer polynomial arithmetic over powers of f. Independent of the
    series formula by construction: the only shared input is the
    distribution.
    """
    n, k = _check_nk("psi_ladder_oracle", n, k, 3)
    num, scale, j, density = _psi_ladder(dist, n, k)
    _, g = _int_polynomials(density)
    return RationalFunction(Polynomial(scale * c for c in num),
                            Polynomial(_ipow(g, j)))


def psi_closed_form(dist: LinearDensityDistribution, n: int,
                    k: int) -> RationalFunction:
    """Telescoped form of psi_{k-1}, as an exact rational function.

    psi_{k-1} / (k-2)! = binom(n-2,k-2) x F**(n-k)
                         + sum_l (-1)**l theta(n,k,l) a**l F**(n-k+l+1) / f**(2l+1)

    Over the common denominator f**(2m+1), m = k-3, the sum is
    F**(n-k+1) sum_l (-1)**l theta(n,k,l) (aF)**l (f**2)**(m-l). In
    integers, with theta(n,k,l) = T_l / 2**l, it is
    G**(n-k+1) S D / ((2D)**(n-k+1) 4**m g**(2m+1)), where
    S = sum_l (-1)**l T_l (A G)**l (4 g**2)**(m-l) is evaluated by Horner
    in 4 g**2.
    """
    n, k = _check_nk("psi_closed_form", n, k, 3)
    density = _int_density(dist)
    a_int, _, d = density
    big_g, g = _int_polynomials(density)
    m = k - 3
    g2 = [4 * c for c in _imul(g, g)]
    a_big_g = [a_int * c for c in big_g] if a_int else []
    power = [1]  # (A G)**l
    acc = []
    for l in range(k - 2):
        coeff = combinatorics._theta_num(n, k, l)
        acc = _iadd(_imul(acc, g2),
                    [(-coeff if l % 2 else coeff) * c for c in power])
        power = _imul(power, a_big_g)
    den = _ipow(g, 2 * m + 1)
    x_term = [0] + [math.comb(n - 2, k - 2) * 2 ** (2 * m + 1) * c
                    for c in den]
    num = _imul(_ipow(big_g, n - k), _iadd(x_term, _imul(big_g, acc)))
    scale = Fraction(math.factorial(k - 2),
                     (2 * d) ** (n - k) * 2 ** (2 * m + 1))
    return RationalFunction(Polynomial(scale * c for c in num),
                            Polynomial(den))


def bid_from_psi_ladder(dist: LinearDensityDistribution, n: int,
                        k: int) -> RationalFunction:
    """beta_k as a rational function, straight from the symbolic ladder."""
    n, k = _check_nk("bid_from_psi_ladder", n, k, 3)
    num, scale, j, density = _psi_ladder(dist, n, k)
    big_g, g = _int_polynomials(density)
    # beta_k = psi_{k-1} / (binom(n-2,k-2) (k-2)! F**(n-k)), F = G / (2D)
    scale *= Fraction((2 * density[2]) ** (n - k),
                      math.comb(n - 2, k - 2) * math.factorial(k - 2))
    den = _imul(_ipow(big_g, n - k), _ipow(g, j))
    return RationalFunction(Polynomial(scale * c for c in num),
                            Polynomial(den))


def phi_ladder_check(dist: LinearDensityDistribution, n: int, k: int) -> bool:
    """Exact check of the expected-payment ladder against the bid.

    Starting from gamma_l(x) = int_0^x beta_k(y) F(y)**(n-k+l) f(y) dy and

        Phi_t = sum_{l=0}^{k-t} (-1)**l binom(k-t, l) F**(k-t-l) gamma_l,

    verifies (i) Phi_t' = (k-t) Phi_{t+1} f as polynomial identities for
    t = 2..k-1, and (ii) that applying the divide-by-f derivative ladder
    k-1 times to Phi_2 lands exactly on (k-2)! beta_k F**(n-k); with the
    ladder at scale * N / g**j, (ii) is the polynomial identity
    scale * N = (k-2)! beta_k F**(n-k) g**j. Requires a uniform or
    triangle distribution so every gamma_l is a polynomial.
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

    phi_2, lcm = _cleared(phis[2].coeffs)
    density = _int_density(dist)
    num, scale, j = _ladder(phi_2, Fraction(1, lcm), 0, density, k - 1)
    big_g, g = _int_polynomials(density)
    # (k-2)! beta_k F**(n-k) g**j, with beta_k = slope x and F = G / (2D)
    want = [0] + _imul(_ipow(big_g, n - k), _ipow(g, j))
    want_scale = math.factorial(k - 2) * slope / (2 * density[2]) ** (n - k)
    return (Polynomial(scale * c for c in num)
            == Polynomial(want_scale * c for c in want))


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class MonotonicityResult:
    """An exact lower bound on beta' over (0, omega]; truthy iff > 0."""

    slope: Fraction

    def __bool__(self) -> bool:
        return self.slope > 0


def monotonicity_certificate(bid: BidFunction) -> MonotonicityResult:
    """The exact lower bound on beta' (module docstring): a linear bid's
    slope, else the triangle slope for a >= 0 and the uniform for a < 0."""
    if bid.slope is not None:
        return MonotonicityResult(bid.slope)
    edge = make_uniform(1.0) if bid.dist.a < 0 else make_triangle(1.0)
    return MonotonicityResult(_exact_slope(edge, bid.config.n, bid.config.k))
