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
each public result becomes one RationalFunction (one gcd) at the end,
handed two int lists: the scale's numerator multiplied into the
numerator's integers and its denominator into the denominator's
(_rational), with no Polynomial of Fractions in between.
_int_density is the one home of those integers: A, B and D from
polynomials._over_one_denominator, and the lists G = 2D F and g. One
integer kernel, _payment_integral = S int_0^x y G**m g dy, builds psi_0
(m = n-2) and every term of phi_ladder_check. __all__ is the module's
one list of public names.
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
from .polynomials import (RationalFunction, _iadd, _imul, _ipow,
                          _over_one_denominator)

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
    return tuple(Fraction(-t if l % 2 else t, 2 ** l * denom)
                 for l, t in enumerate(combinatorics._theta_row(n, k)))


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
                    raise OverflowError(f"series bid exceeds the float range "
                                        f"at omega for n={n}, k={k}, a={a}")

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
        For a < 0 a bid past the float range at omega raises OverflowError;
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

def _int_density(dist: LinearDensityDistribution) -> tuple:
    """(A, B, D, G, g): a = A/D and b = B/D exactly, and G = 2D F and
    g = D f as integer coefficient lists."""
    d, (a_int, b_int) = _over_one_denominator(dist.a, dist.b)
    if not a_int:
        return a_int, b_int, d, [0, 2 * b_int], [b_int]
    return a_int, b_int, d, [0, 2 * b_int, a_int], [b_int, a_int]


def _payment_integral(big_g: list, g: list, m: int, span: int) -> list[int]:
    """span * int_0^x y G**m g dy as an integer list; span must be a
    multiple of every power of x that the integral has, m+2..2m+3."""
    integrand = _imul(_ipow(big_g, m), g)  # coefficients of y**(i+1)
    return [0, 0] + [c * (span // (i + 2)) for i, c in enumerate(integrand)]


@lru_cache(maxsize=None)
def _psi_0(dist: LinearDensityDistribution,
           n: int) -> tuple[tuple[int, ...], int]:
    """(N, L): psi_0 = int_0^x y F**(n-2) f dy = sum_i N[i] x**i / L exactly.

    With F = G / (2D) and f = g / D, psi_0 = I / ((2D)**(n-2) D S) for the
    payment integral I = S int_0^x y G**(n-2) g dy, whose powers of x run
    from n to 2n-1, so S = lcm(n..2n-1). L is the least common
    denominator, as for reduced fractions.
    """
    _, _, d, big_g, g = _int_density(dist)
    span = math.lcm(*range(n, 2 * n))
    nums = _payment_integral(big_g, g, n - 2, span)
    den = 2 ** (n - 2) * d ** (n - 1) * span
    common = math.gcd(den, *nums)
    return tuple(v // common for v in nums), den // common


def _ladder(num, scale: Fraction, j: int, density: tuple,
            steps: int) -> tuple[list[int], Fraction, int]:
    """Apply psi -> psi' / f `steps` times to psi = scale * num / g**j.

    By the quotient rule with f' = a constant,
    (N / g**j)' / f = D (N' g - j A N) / g**(j+2), and the coefficient of
    x**i in N' (B + A x) - j A N is B (i+1) N[i+1] + A (i-j) N[i]. That is
    zero wherever N[i] = N[i+1] = 0, so if N has no power of x below
    x**lo, the step's result has none below x**(lo-1): each step is one
    loop from there, and the zeros below it are never read.
    """
    a_int, b_int, d, *_ = density
    lo = next((i for i, c in enumerate(num) if c), 0)
    for _ in range(steps):
        lo = max(lo - 1, 0)
        top = len(num) - 1
        nxt = [0] * lo
        for i in range(lo, top):
            nxt.append(b_int * (i + 1) * num[i + 1]
                       + a_int * (i - j) * num[i])
        if num:
            nxt.append(a_int * (top - j) * num[top])
        while nxt and nxt[-1] == 0:
            nxt.pop()
        num, j = nxt, j + 2
    return num, scale * d ** steps, j


def _psi_ladder(dist: LinearDensityDistribution, n: int,
                k: int) -> tuple[list[int], Fraction, int, tuple]:
    """psi_{k-1} as (N, scale, j) with the density (A, B, D, G, g) it ran
    on: psi_{k-1} = scale * N / g**j."""
    density = _int_density(dist)
    nums, den = _psi_0(dist, n)
    return *_ladder(nums, Fraction(1, den), 0, density, k - 1), density


def _rational(num: list[int], scale: Fraction,
              den: list[int]) -> RationalFunction:
    """scale * num / den, with scale's numerator multiplied into num's
    integers and its denominator into den's, handed over as int lists."""
    return RationalFunction([scale.numerator * c for c in num],
                            [scale.denominator * c for c in den])


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
    num, scale, j, (*_, g) = _psi_ladder(dist, n, k)
    return _rational(num, scale, _ipow(g, j))


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
    a_int, _, d, big_g, g = _int_density(dist)
    m = k - 3
    g2 = [4 * c for c in _imul(g, g)]
    a_big_g = [a_int * c for c in big_g] if a_int else []
    power = [1]  # (A G)**l
    acc = []
    for l, coeff in enumerate(combinatorics._theta_row(n, k)):
        acc = _iadd(_imul(acc, g2),
                    [(-coeff if l % 2 else coeff) * c for c in power])
        power = _imul(power, a_big_g)
    den = _ipow(g, 2 * m + 1)
    x_term = [0] + [math.comb(n - 2, k - 2) * 2 ** (2 * m + 1) * c
                    for c in den]
    num = _imul(_ipow(big_g, n - k), _iadd(x_term, _imul(big_g, acc)))
    scale = Fraction(math.factorial(k - 2),
                     (2 * d) ** (n - k) * 2 ** (2 * m + 1))
    return _rational(num, scale, den)


def bid_from_psi_ladder(dist: LinearDensityDistribution, n: int,
                        k: int) -> RationalFunction:
    """beta_k as a rational function, straight from the symbolic ladder."""
    n, k = _check_nk("bid_from_psi_ladder", n, k, 3)
    num, scale, j, (_, _, d, big_g, g) = _psi_ladder(dist, n, k)
    # beta_k = psi_{k-1} / (binom(n-2,k-2) (k-2)! F**(n-k)), F = G / (2D)
    scale *= Fraction((2 * d) ** (n - k),
                      math.comb(n - 2, k - 2) * math.factorial(k - 2))
    den = _imul(_ipow(big_g, n - k), _ipow(g, j))
    return _rational(num, scale, den)


def phi_ladder_check(dist: LinearDensityDistribution, n: int, k: int) -> bool:
    """Exact revenue-equivalence check of the linear equilibrium bid.

    Against beta_k, a bidder with value x pays (n-1) binom(n-2, k-2) Phi_2,
    Phi_2(x) = int_0^x beta_k(y) (F(x) - F(y))**(k-2) F(y)**(n-k) f(y) dy,
    and (n-1) psi_0(x) at second price. Checks binom(n-2, k-2) Phi_2 ==
    psi_0 as polynomials, which any other slope fails. With beta_k =
    slope x, G = 2D F, g = D f, L = lcm(1..2n-1) and the integer lists
    I_m = L int_0^x y G**m g dy (_payment_integral),

        Phi_2 = slope / ((2D)**(n-2) D L)
                * sum_{l=0}^{k-2} (-1)**l binom(k-2, l) G**(k-2-l) I_{n-k+l},

    and psi_0 = I_{n-2} / ((2D)**(n-2) D L), the last term's integral: the
    check is one equation between integer lists, over no denominator.
    Requires a uniform or triangle distribution, where beta_k is linear.
    """
    n, k = _check_nk("phi_ladder_check", n, k, 3)
    slope = _exact_slope(dist, n, k)
    if slope is None:
        raise ValueError("phi_ladder_check: distribution must be uniform or "
                         "triangle so the payment integrals stay polynomial")
    _, _, _, big_g, g = _int_density(dist)
    span = math.lcm(*range(1, 2 * n))
    total = []
    for l in range(k - 1):
        coeff = -math.comb(k - 2, l) if l % 2 else math.comb(k - 2, l)
        integral = _payment_integral(big_g, g, n - k + l, span)
        total = _iadd(total, [coeff * c for c in
                              _imul(_ipow(big_g, k - 2 - l), integral)])
    left, right = math.comb(n - 2, k - 2) * slope.numerator, slope.denominator
    return [left * c for c in total] == [right * c for c in integral]


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
