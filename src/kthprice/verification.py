"""Independent checks that a bid profile is (or is not) an equilibrium.

Three routes to the same expected payment, none sharing code with the
bid formulas they test:

* expected_payment_benchmark: the revenue-equivalence target
  int_0^x y g(y) dy with g = (n-1) F**(n-2) f, which is (n-1) psi_0(x):
  the exact antiderivative the symbolic ladder starts from, held as
  integers over one denominator and evaluated in integers at the exact
  binary value p / 2**e of x; the one rounding is the final correctly
  rounded division;
* expected_payment_quadrature: the k-th price payment formula
  (n-1) binom(n-2,k-2) int_0^x beta(y) (F(x)-F(y))**(k-2) F(y)**(n-k) f(y) dy
  under the candidate bid, by adaptive Gauss-Legendre quadrature;
* monte_carlo_expected_payment: simulated auctions, sharded so the
  result is a pure function of (seed, shard layout) and therefore
  byte-reproducible no matter how the shards are scheduled.

A bid passes revenue_equivalence_check when routes one and two agree on
a grid; truthful bidding with k >= 3 is the canonical negative control.
best_response_profile scans the interim payoff G(z) x - m(z) over
deviations z in [0, omega]; at equilibrium the argmax sits at z = x.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import LinearDensityDistribution, _check_int, _check_nk
from .equilibrium import BidFunction, _psi_0
from .quadrature import integrate

__all__ = [
    "SHARD_SIZE",
    "MonteCarloResult",
    "VerificationReport",
    "expected_payment_benchmark",
    "expected_payment_quadrature",
    "revenue_equivalence_check",
    "monte_carlo_expected_payment",
    "expected_revenue",
    "best_response_profile",
]

# Monte Carlo streams are consumed in fixed-size shards; shard i uses the
# generator seeded by SeedSequence(seed, spawn_key=(i,)). Results depend
# only on (seed, SHARD_SIZE), never on how shards are executed.
SHARD_SIZE = 1 << 16

# _order_statistic compares whole columns of _BLOCK_ROWS rows at a time
# while its column work, m (p + 1) for m columns and p passes, is at most
# _COLUMN_LIMIT; above that, one numpy call per row is cheaper (both
# measured on shards of SHARD_SIZE rows, m up to 60).
_BLOCK_ROWS = 4096
_COLUMN_LIMIT = 32


@dataclass(frozen=True)
class MonteCarloResult:
    """Point estimate with its standard error (sample std / sqrt(samples)).

    wins counts the trials in which the simulated bidder won (payment)
    or the item sold (revenue, always samples); the library always sets
    it, None is left for results built by hand.
    """

    estimate: float
    standard_error: float
    samples: int
    seed: int
    wins: int | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Result of one named check over a grid; passed == (max_error <= tolerance)."""

    check: str
    n: int
    k: int
    dist: LinearDensityDistribution
    grid: tuple[float, ...]
    errors: tuple[float, ...]
    max_error: float
    tolerance: float
    passed: bool

    @classmethod
    def from_errors(cls, check, n, k, dist, grid, errors,
                    tolerance) -> "VerificationReport":
        grid = tuple(float(g) for g in grid)
        errors = tuple(float(e) for e in errors)
        max_error = max(errors) if errors else 0.0
        return cls(check=check, n=n, k=k, dist=dist, grid=grid, errors=errors,
                   max_error=max_error, tolerance=float(tolerance),
                   passed=max_error <= tolerance)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": {
                "n": self.n,
                "k": self.k,
                "dist": {"a": self.dist.a, "b": self.dist.b,
                         "omega": self.dist.omega},
            },
            "grid": list(self.grid),
            "errors": list(self.errors),
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def expected_payment_benchmark(dist: LinearDensityDistribution, n: int,
                               x: float) -> float:
    """Revenue-equivalence target m(x) = int_0^x y (n-1) F**(n-2) f dy.

    m = (n-1) psi_0, and psi_0, integers N[i] over one denominator D, is
    evaluated by Horner in integers at the exact value x = p / q (q is a
    power of 2 for a float):
    m(x) = (n-1) sum_i N[i] p**i q**(d-i) / (D q**d).
    The only rounding is that final int / int division, which is
    correctly rounded: the result is the float nearest the exact m(x).
    """
    n = _check_int("expected_payment_benchmark", "n", n, 2)
    if not 0.0 <= x <= dist.omega:
        raise ValueError(f"expected_payment_benchmark: x must lie in "
                         f"[0, omega], got x={x}")
    if isinstance(x, numbers.Integral):
        x = int(x)  # numpy integers have no as_integer_ratio
    nums, den = _psi_0(dist, n)
    p, q = x.as_integer_ratio()
    acc, q_pow = nums[-1], 1
    for c in reversed(nums[:-1]):
        q_pow *= q
        acc = acc * p + c * q_pow
    return (n - 1) * acc / (den * q_pow)


def expected_payment_quadrature(bid: BidFunction,
                                dist: LinearDensityDistribution,
                                n: int, k: int, x: float) -> float:
    """Expected payment of a value-x bidder under an arbitrary bid profile.

    m(x) = (n-1) binom(n-2, k-2) *
           int_0^x bid(y) (F(x)-F(y))**(k-2) F(y)**(n-k) f(y) dy
    """
    n, k = _check_nk("expected_payment_quadrature", n, k, 2)
    if not 0.0 < x <= dist.omega:
        raise ValueError(f"expected_payment_quadrature: x must lie in "
                         f"(0, omega], got x={x}")
    fx = dist.cdf(x)
    const = (n - 1) * math.comb(n - 2, k - 2)

    def integrand(y):
        big_f = dist.cdf(y)
        return (bid(y) * (fx - big_f) ** (k - 2)
                * big_f ** (n - k) * dist.pdf(y))

    return const * integrate(integrand, 0.0, x)


def revenue_equivalence_check(bid: BidFunction,
                              dist: LinearDensityDistribution,
                              n: int, k: int, grid_size: int = 20,
                              tol: float = 1e-8) -> VerificationReport:
    """Compare payment-by-quadrature against the benchmark on a grid.

    Grid points are omega * i / grid_size for i = 1..grid_size, all in
    (0, omega]. An equilibrium bid passes; truthful bidding with k >= 3
    must fail (it pays too little).
    """
    n, k = _check_nk("revenue_equivalence_check", n, k, 2)
    grid_size = _check_int("revenue_equivalence_check", "grid_size",
                           grid_size, 2)
    if not tol > 0.0:
        raise ValueError("revenue_equivalence_check: tol must be positive")
    grid = [dist.omega * i / grid_size for i in range(1, grid_size + 1)]
    errors = [
        abs(expected_payment_quadrature(bid, dist, n, k, x)
            - expected_payment_benchmark(dist, n, x))
        for x in grid
    ]
    return VerificationReport.from_errors(
        "revenue-equivalence", n, k, dist, grid, errors, tol)


def _shards(samples: int):
    for index, done in enumerate(range(0, samples, SHARD_SIZE)):
        yield index, min(SHARD_SIZE, samples - done)


def _shard_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _order_statistic(u: np.ndarray, r: int) -> np.ndarray:
    """The r-th smallest entry (0-based) of each row of u, exactly.

    u has m columns. Each bubble pass of compare-exchanges between whole
    columns (np.minimum and np.maximum over a block of rows) carries the
    largest entry of every row out of the columns still in play, or the
    smallest for a rank below the middle. After p = min(r, m-1-r) passes
    the wanted entry is the extreme of the columns left. Without NaNs, min
    and max return one of their arguments, so the result equals
    np.partition(u, r, axis=1)[:, r] bit for bit.

    The column work grows as m (p+1). Above _COLUMN_LIMIT it falls back to
    one numpy call per row: u.max for the maximum, else a partition of u
    in place, which reorders the entries within u's rows.
    """
    rows, m = u.shape
    p = min(r, m - 1 - r)
    if m * (p + 1) > _COLUMN_LIMIT:
        if r == m - 1:
            return u.max(axis=1)
        u.partition(r, axis=1)
        return u[:, r]
    # a high rank drops each row's maxima: the minimum stays behind
    stay, carry = (np.minimum, np.maximum) if r > p else (np.maximum, np.minimum)
    out = np.empty(rows)
    for start in range(0, rows, _BLOCK_ROWS):
        cols = u[start:start + _BLOCK_ROWS].T.copy()
        for last in range(m - 1, m - 1 - p, -1):
            carried = cols[0].copy()
            for j in range(1, last + 1):
                stay(carried, cols[j], out=cols[j - 1])
                carry(carried, cols[j], out=carried)
        carry.reduce(cols[:m - p], axis=0, out=out[start:start + _BLOCK_ROWS])
    return out


def _mc_accumulate(samples: int, seed: int, payoff_for_shard) -> MonteCarloResult:
    """Sum payoff_for_shard(rng, size) -> (payoffs, wins) over the shards."""
    total = 0.0
    total_sq = 0.0
    wins = 0
    for index, size in _shards(samples):
        pay, shard_wins = payoff_for_shard(_shard_rng(seed, index), size)
        total += float(pay.sum())
        total_sq += float((pay * pay).sum())
        wins += shard_wins
    mean = total / samples
    if samples > 1:
        var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        se = math.sqrt(var / samples)
    else:
        se = 0.0
    return MonteCarloResult(mean, se, samples, seed, wins)


def monte_carlo_expected_payment(bid: BidFunction,
                                 dist: LinearDensityDistribution,
                                 n: int, k: int, x: float,
                                 samples: int, seed: int) -> MonteCarloResult:
    """Simulate the expected payment of a bidder with value x.

    Each trial draws n-1 opponent uniforms U; the opponent values are
    F^-1(U). The bidder wins when the highest value is below x and then
    pays bid(Y_{k-1}), the bid at the (k-1)-th highest opponent value,
    else pays 0. F^-1 is increasing, so the order statistics of the
    values are F^-1 of the order statistics of the uniforms: only the
    maximum of each trial and, for winning trials, the (k-1)-th highest
    uniform are inverted, and only the latter are bid on. Each order
    statistic is picked exactly, by min/max comparisons of whole columns
    of draws, or by one numpy call per trial past a fixed limit on that
    column work (large n, interior ranks). The payoffs
    equal inverting and sorting all n-1 values whenever the float
    F^-1 keeps the order of the draws. It can swap only draws a few
    ulps apart (about 3 % of adjacent-float pairs for the triangle, none
    among 1e8 sorted random draws per density), and two draws of one
    trial are that close with probability of order n**2 * 2**-53.

    Warns (RuntimeWarning) when no trial wins: the estimate is then
    0 +- 0, which only says that a win is rarer than 1 / samples.
    """
    func = "monte_carlo_expected_payment"
    n, k = _check_nk(func, n, k, 2)
    samples = _check_int(func, "samples", samples, 1)
    seed = _check_int(func, "seed", seed, 0)
    if not 0.0 < x <= dist.omega:
        raise ValueError(f"{func}: x must lie in (0, omega], got x={x}")
    pivot = n - k  # ascending index of the (k-1)-th highest of n-1 values

    def shard(rng, size):
        u = rng.random((size, n - 1))
        win = dist.inverse_cdf(_order_statistic(u, n - 2)) < x
        pay = np.zeros(size)
        pay[win] = bid(dist.inverse_cdf(_order_statistic(u[win], pivot)))
        return pay, int(np.count_nonzero(win))

    result = _mc_accumulate(samples, seed, shard)
    if result.wins == 0:
        warnings.warn(f"monte_carlo_expected_payment: no winning trial at "
                      f"n={n}, k={k}, x={x}, samples={samples}; the estimate "
                      f"0 +- 0 is not exact", RuntimeWarning, stacklevel=2)
    return result


def expected_revenue(bid: BidFunction, dist: LinearDensityDistribution,
                     n: int, k: int, samples: int, seed: int) -> MonteCarloResult:
    """Simulate the seller's expected revenue: the k-th highest of n bids.

    For an increasing bid the k-th highest bid is the bid at the k-th
    highest value, and that value is F^-1 of the k-th highest of the n
    uniforms drawn per trial: only that uniform, picked exactly as in
    monte_carlo_expected_payment, is inverted and bid on (see there for
    the float caveat). Every trial sells, so wins == samples. At
    equilibrium the revenue is independent of k (revenue equivalence),
    equal to the expected second-highest value.
    """
    n, k = _check_nk("expected_revenue", n, k, 2)
    samples = _check_int("expected_revenue", "samples", samples, 1)
    seed = _check_int("expected_revenue", "seed", seed, 0)
    pivot = n - k

    def shard(rng, size):
        u = rng.random((size, n))
        return bid(dist.inverse_cdf(_order_statistic(u, pivot))), size

    return _mc_accumulate(samples, seed, shard)


def best_response_profile(bid: BidFunction, dist: LinearDensityDistribution,
                          n: int, k: int, x: float, z_grid):
    """Interim payoff pi(z) = F(z)**(n-1) x - m(z) over deviation values z.

    The bidder pretends their value is z while it is really x; only
    deviations inside [0, omega] are scanned (higher bids are dominated).
    Returns (argmax z*, payoff array); at equilibrium z* == x up to the
    grid resolution.
    """
    n, k = _check_nk("best_response_profile", n, k, 2)
    if not 0.0 < x <= dist.omega:
        raise ValueError(f"best_response_profile: x must lie in (0, omega], "
                         f"got x={x}")
    z_arr = np.asarray(z_grid, dtype=float)
    if z_arr.ndim != 1 or z_arr.size < 2:
        raise ValueError("best_response_profile: z_grid must be a 1-d grid")
    if np.any(z_arr < 0.0) or np.any(z_arr > dist.omega):
        raise ValueError("best_response_profile: z_grid must lie in [0, omega]")
    payments = np.array([
        0.0 if z == 0.0 else expected_payment_quadrature(bid, dist, n, k, z)
        for z in z_arr
    ])
    payoff = np.asarray(dist.cdf(z_arr)) ** (n - 1) * x - payments
    z_star = float(z_arr[int(np.argmax(payoff))])
    return z_star, payoff
