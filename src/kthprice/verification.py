"""Independent checks that a bid profile is (or is not) an equilibrium.

Three routes to the same expected payment, none sharing code with the
bid formulas they test:

* expected_payment_benchmark: the revenue-equivalence target
  int_0^x y g(y) dy with g = (n-1) F**(n-2) f, which is (n-1) psi_0(x):
  the exact antiderivative the symbolic ladder starts from
  (equilibrium._psi_0), held as integers over one denominator and
  evaluated in integers at the exact value p / q of x (from
  polynomials._ratio), with shifts for the powers of 2 in
  q; the one rounding is the final correctly rounded division;
* expected_payment_quadrature: the k-th price payment formula
  (n-1) binom(n-2,k-2) int_0^x beta(y) (F(x)-F(y))**(k-2) F(y)**(n-k) f(y) dy
  under the candidate bid, by adaptive Gauss-Legendre quadrature (the
  integrand is pointwise, so the first two rules share one call), and
  for an array of x on blocks of limits with F(x) as a column;
* monte_carlo_expected_payment: simulated auctions, sharded so the
  result is a pure function of (seed, shard layout) and therefore
  byte-reproducible no matter how the shards are scheduled.

A bid passes revenue_equivalence_check when routes one and two agree on
a grid; truthful bidding with k >= 3 is the canonical negative control.
best_response_profile scans the interim payoff G(z) x - m(z) over
deviations z in [0, omega], for one value x or an array of them sharing
the payments m(z); at equilibrium the argmax sits at z = x. __all__ is
the module's one list of public names.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import LinearDensityDistribution, _check_int, _check_nk
from .equilibrium import BidFunction, _psi_0
from .polynomials import _ratio
from .quadrature import BLOCK_ROWS, integrate

__all__ = [
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
# only on (seed, _SHARD_SIZE), never on how shards are executed.
_SHARD_SIZE = 1 << 16

# _order_statistic compares whole columns of a block of u's rows, about
# _BLOCK_BYTES of them (16384 rows of 8 columns), while its column work,
# m (p + 1) for m columns and p passes, is at most _COLUMN_LIMIT; above
# that, one row-wise numpy call over the whole shard is cheaper. Both
# measured on shards of _SHARD_SIZE rows, m up to 64. Blocks hold bytes,
# not rows: a fixed 16384 rows ran 2-3x slower than 4096 at m = 16, 32
# and 48, where a row's stride is a multiple of 128 bytes.
_BLOCK_BYTES = 1 << 20
_COLUMN_LIMIT = 48


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
    """Result of one named check over a grid, in floats; its verdict is
    read from them: passed == (max_error <= tolerance)."""

    check: str
    n: int
    k: int
    dist: LinearDensityDistribution
    grid: tuple[float, ...]
    errors: tuple[float, ...]
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(map(float, self.grid)))
        object.__setattr__(self, "errors", tuple(map(float, self.errors)))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def max_error(self) -> float:
        # max skips a NaN that is not first; any NaN error fails the check
        if any(map(math.isnan, self.errors)):
            return math.nan
        return max(self.errors, default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

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


def _scalar_x(func: str, x):
    """x, or a 0-d array's scalar; any other array is refused by name."""
    if np.ndim(x):
        raise ValueError(f"{func}: x must be a scalar, got shape {np.shape(x)}")
    return x[()] if isinstance(x, np.ndarray) else x


def expected_payment_benchmark(dist: LinearDensityDistribution, n: int,
                               x: float) -> float:
    """Revenue-equivalence target m(x) = int_0^x y (n-1) F**(n-2) f dy.

    m = (n-1) psi_0, and psi_0, integers N[i] over one denominator D, is
    evaluated in integers at the exact value x = p / q:
    m(x) = (n-1) p**n sum_{i>=n} N[i] p**(i-n) q**(d-i) / (D q**d),
    since N[i] = 0 for i < n. The sum runs by Horner with q = odd 2**e
    split: powers of 2**e are shifts, and odd is 1 unless x is a
    Fraction (q is a power of 2 for a float or an int). The only
    rounding is that final int / int division, which is correctly
    rounded: the result is the float nearest the exact m(x).
    """
    n = _check_int("expected_payment_benchmark", "n", n, 2)
    x = x if type(x) is float else _scalar_x("expected_payment_benchmark", x)
    if not 0.0 <= x <= dist.omega:
        raise ValueError(f"expected_payment_benchmark: x must lie in "
                         f"[0, omega], got x={x}")
    nums, den = _psi_0(dist, n)
    p, q = _ratio(x)
    e = (q & -q).bit_length() - 1  # q = odd 2**e; odd is 1 unless a Fraction
    odd = q >> e
    # N[i] = 0 for i < n: Horner runs over N[n..d], times p**n at the end
    acc, odd_pow, shift = nums[-1], 1, 0
    for c in reversed(nums[n:-1]):
        odd_pow *= odd
        shift += e
        acc = acc * p + (c * odd_pow << shift)
    d = len(nums) - 1
    return (n - 1) * acc * p ** n / ((den * odd_pow * odd ** n) << (e * d))


def expected_payment_quadrature(bid: BidFunction,
                                dist: LinearDensityDistribution,
                                n: int, k: int, x):
    """Expected payment of a value-x bidder under an arbitrary bid profile.

    m(x) = (n-1) binom(n-2, k-2) *
           int_0^x bid(y) (F(x)-F(y))**(k-2) F(y)**(n-k) f(y) dy

    For a 1-d array x, an ndarray of the scalar calls' floats, integrated
    BLOCK_ROWS values per integrate call.
    """
    n, k = _check_nk("expected_payment_quadrature", n, k, 2)
    rows = not isinstance(x, float) and np.ndim(x) > 0
    if rows and np.ndim(x) > 1:
        raise ValueError(f"expected_payment_quadrature: x must be a scalar "
                         f"or a 1-d array, got {np.ndim(x)} dimensions")
    if rows:
        x = np.asarray(x, dtype=float)
        outside = x[~((0.0 < x) & (x <= dist.omega))]
    else:
        outside = [] if 0.0 < x <= dist.omega else [x]
    if len(outside):
        raise ValueError(f"expected_payment_quadrature: x must lie in "
                         f"(0, omega], got x={outside[0]}")
    const = (n - 1) * math.comb(n - 2, k - 2)

    def integrand(y):
        big_f = dist.cdf(y)
        return (bid(y) * (fx - big_f) ** (k - 2)
                * big_f ** (n - k) * dist.pdf(y))

    if not rows:
        fx = dist.cdf(x)
        return const * integrate(integrand, 0.0, x)
    out = np.empty(x.size)
    for start in range(0, x.size, BLOCK_ROWS):
        xs = x[start:start + BLOCK_ROWS]
        fx = dist.cdf(xs)[:, None]  # one row of abscissae per limit
        out[start:start + BLOCK_ROWS] = const * integrate(integrand, 0.0, xs)
    return out


def revenue_equivalence_check(bid: BidFunction,
                              dist: LinearDensityDistribution,
                              n: int, k: int, grid_size: int = 20,
                              tol: float = 1e-8) -> VerificationReport:
    """Compare payment-by-quadrature against the benchmark on a grid.

    Grid points are omega * i / grid_size for i = 1..grid_size, all in
    (0, omega]. An equilibrium bid passes; truthful bidding with k >= 3
    must fail (it pays too little).

    Tested domain: n <= 60. Past it correct bids fail (known defect):
    the payment is far below 1, where the quadrature's stop test is
    absolute, so the error reaches 2.4e-7 at (150, 75) on the uniform
    and 8.3e-7 at (100, 50) on the triangle, against tol 1e-8.
    """
    n, k = _check_nk("revenue_equivalence_check", n, k, 2)
    grid_size = _check_int("revenue_equivalence_check", "grid_size",
                           grid_size, 2)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"revenue_equivalence_check: tol must be positive "
                         f"and finite, got {tol!r}")
    grid = [dist.omega * i / grid_size for i in range(1, grid_size + 1)]
    errors = [
        abs(expected_payment_quadrature(bid, dist, n, k, x)
            - expected_payment_benchmark(dist, n, x))
        for x in grid
    ]
    return VerificationReport("revenue-equivalence", n, k, dist, grid,
                              errors, tol)


def _shards(samples: int):
    for index, done in enumerate(range(0, samples, _SHARD_SIZE)):
        yield index, min(_SHARD_SIZE, samples - done)


def _shard_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _order_statistic(u: np.ndarray, r: int) -> np.ndarray:
    """The r-th smallest entry (0-based) of each row of u, exactly.

    u has m columns. A row extreme (r = 0 or m-1) folds np.minimum or
    np.maximum over u's strided column views straight into the output,
    block by block, with no copy of u. Other ranks work on a transposed
    copy of each block: each bubble pass of compare-exchanges between
    whole columns carries the largest entry of every row out of the
    columns still in play, or the smallest for a rank below the middle.
    After p = min(r, m-1-r) passes the wanted entry is the extreme of the
    columns left. Without NaNs, min and max return one of their
    arguments, so the result equals np.partition(u, r, axis=1)[:, r] bit
    for bit.

    The column work grows as m (p+1). Above _COLUMN_LIMIT it falls back to
    one row-wise numpy call over all of u: u.max(axis=1) or u.min(axis=1)
    for a row extreme, else a partition of u in place, which reorders the
    entries within u's rows.
    """
    rows, m = u.shape
    p = min(r, m - 1 - r)
    if m * (p + 1) > _COLUMN_LIMIT:
        if p == 0:
            return u.max(axis=1) if r else u.min(axis=1)
        u.partition(r, axis=1)
        return u[:, r]
    # a high rank drops each row's maxima: the minimum stays behind
    stay, carry = (np.minimum, np.maximum) if r > p else (np.maximum, np.minimum)
    block = max(1, _BLOCK_BYTES // (u.itemsize * m))
    out = np.empty(rows)
    if p:  # one buffer for the transposed blocks
        cols_buffer = np.empty((m, min(block, rows)))
    for start in range(0, rows, block):
        acc = out[start:start + block]
        if p == 0:  # a row extreme, folded over strided views into u
            cols = u[start:start + block].T
            carry(cols[0], cols[-1], out=acc)  # one column: its own extreme
            for col in cols[1:-1]:
                carry(acc, col, out=acc)
        else:
            cols = cols_buffer[:, :acc.size]
            np.copyto(cols, u[start:start + block].T)
            for last in range(m - 1, m - 1 - p, -1):
                carried = cols[0].copy()
                for j in range(1, last + 1):
                    stay(carried, cols[j], out=cols[j - 1])
                    carry(carried, cols[j], out=carried)
            carry.reduce(cols[:m - p], axis=0, out=acc)
    return out


def _mc_accumulate(samples: int, seed: int, payoff_for_shard) -> MonteCarloResult:
    """Sum payoff_for_shard(rng, size) -> (payoffs, wins) over the shards.

    The payoffs array is squared in place: a shard hands over its own."""
    total = 0.0
    total_sq = 0.0
    wins = 0
    for index, size in _shards(samples):
        pay, shard_wins = payoff_for_shard(_shard_rng(seed, index), size)
        total += float(pay.sum())
        pay *= pay
        total_sq += float(pay.sum())
        wins += shard_wins
    mean = total / samples
    var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
    return MonteCarloResult(mean, math.sqrt(var / samples), samples, seed, wins)


def monte_carlo_expected_payment(bid: BidFunction,
                                 dist: LinearDensityDistribution,
                                 n: int, k: int, x: float,
                                 samples: int, seed: int) -> MonteCarloResult:
    """Simulate the expected payment of a bidder with value x.

    Each trial draws n-1 opponent uniforms U; the opponent values are
    F^-1(U). The bidder wins when the highest value is below x and then
    pays bid(Y_{k-1}), the bid at the (k-1)-th highest opponent value,
    else pays 0. F^-1 is increasing, so the order statistics of the
    values are F^-1 of the order statistics of the uniforms. Only the
    trials whose maximum uniform is at most hi = F(x) (1 + 1e-9) can
    win: only their maxima are inverted and compared with x, and for the
    winners the (k-1)-th highest uniform is inverted and bid on.
    Each order statistic is picked exactly, by min/max comparisons of
    whole columns of draws, or by one row-wise numpy call over the shard
    past a fixed limit on that column work (large n, interior ranks).

    The filter drops no winner. inverse_cdf and cdf are within a few
    ulps of F^-1 and F, and F^-1 rises by at least half as much,
    relatively, as u does: d ln F^-1 / d ln u = F / (x f) >= 1/2 for
    any linear density. So a maximum above hi maps to at least
    x (1 + 5e-10) less a few ulps, which is above x: 5e-10 is over two
    million ulps. Draws are multiples of 2**-53, so when F(x) is
    subnormal (or rounds to 0) only a zero maximum, which wins, is at
    most hi; and at x = omega, hi >= 1 keeps every trial.

    The payoffs equal inverting and sorting all n-1 values whenever the
    float F^-1 keeps the order of the draws. It can swap only draws a few
    ulps apart (about 3 % of adjacent-float pairs for the triangle, none
    among 1e8 sorted random draws per density), and two draws of one
    trial are that close with probability of order n**2 * 2**-53.

    Warns (RuntimeWarning) when no trial wins: the estimate is then
    0 +- 0, which only says that a win is rarer than 1 / samples.
    """
    func = "monte_carlo_expected_payment"
    n, k = _check_nk(func, n, k, 2)
    samples = _check_int(func, "samples", samples, 2)
    seed = _check_int(func, "seed", seed, 0)
    x = x if type(x) is float else _scalar_x(func, x)
    if not 0.0 < x <= dist.omega:
        raise ValueError(f"{func}: x must lie in (0, omega], got x={x}")
    pivot = n - k  # ascending index of the (k-1)-th highest of n-1 values
    hi = dist.cdf(x) * (1 + 1e-9)  # no maximum above hi can win

    def shard(rng, size):
        u = rng.random((size, n - 1))
        highest = _order_statistic(u, n - 2)
        # winners picked by index: cheaper than a boolean mask on u
        cand = np.flatnonzero(highest <= hi)
        won = cand[dist.inverse_cdf(highest[cand]) < x]
        # the pivot is the memory peak: the maxima go before it, pay after
        del highest, cand
        price = bid(dist.inverse_cdf(
            _order_statistic(u.take(won, axis=0), pivot)))
        pay = np.zeros(size)
        pay[won] = price
        return pay, won.size

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
    samples = _check_int("expected_revenue", "samples", samples, 2)
    seed = _check_int("expected_revenue", "seed", seed, 0)
    pivot = n - k

    def shard(rng, size):
        u = rng.random((size, n))
        return bid(dist.inverse_cdf(_order_statistic(u, pivot))), size

    return _mc_accumulate(samples, seed, shard)


def best_response_profile(bid: BidFunction, dist: LinearDensityDistribution,
                          n: int, k: int, x, z_grid):
    """Interim payoff pi(z) = F(z)**(n-1) x - m(z) over deviation values z.

    The bidder pretends their value is z while it is really x; only
    deviations inside [0, omega] are scanned (higher bids are dominated),
    and a grid point outside it, NaN included, raises ValueError.
    Returns (argmax z*, payoff array); at equilibrium z* == x up to the
    grid resolution. For a 1-d array x, returns the array of z* and one
    payoff row per value, bit for bit the scalar calls, integrating the
    payments m(z) on z_grid once for all of them.
    """
    n, k = _check_nk("best_response_profile", n, k, 2)
    xs = np.asarray(x, dtype=float)
    if xs.ndim > 1:
        raise ValueError(f"best_response_profile: x must be a scalar or a "
                         f"1-d array, got {xs.ndim} dimensions")
    outside = xs[~((0.0 < xs) & (xs <= dist.omega))]
    if outside.size:
        raise ValueError(f"best_response_profile: x must lie in "
                         f"(0, omega], got x={outside[0]}")
    z_arr = np.asarray(z_grid, dtype=float)
    if z_arr.ndim != 1 or z_arr.size < 2:
        raise ValueError("best_response_profile: z_grid must be a 1-d grid")
    if not np.all((0.0 <= z_arr) & (z_arr <= dist.omega)):
        raise ValueError("best_response_profile: z_grid must be finite and "
                         "lie in [0, omega]")
    payments = np.zeros(z_arr.size)
    inside = z_arr > 0.0
    payments[inside] = expected_payment_quadrature(bid, dist, n, k,
                                                   z_arr[inside])
    win_prob = np.asarray(dist.cdf(z_arr)) ** (n - 1)
    payoff = win_prob * xs[..., None] - payments  # one row per value
    z_star = z_arr[np.argmax(payoff, axis=-1)]
    return (z_star, payoff) if xs.ndim else (float(z_star), payoff)
