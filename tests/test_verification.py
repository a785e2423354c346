"""Payment cross-checks: benchmark vs quadrature vs simulation."""

import json
import math
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from kthprice import (
    AuctionConfig,
    BidFunction,
    VerificationReport,
    best_response_profile,
    bid_from_psi_ladder,
    catalan,
    catalan_integral,
    catalan_recurrence_holds,
    expected_payment_benchmark,
    expected_payment_quadrature,
    expected_revenue,
    hagen_rothe_sides,
    identity_sweep,
    jensen_sides,
    make_linear,
    make_triangle,
    make_uniform,
    monte_carlo_expected_payment,
    omega,
    omega_bounds,
    phi_ladder_check,
    psi_closed_form,
    psi_ladder_oracle,
    revenue_equivalence_check,
    series_coefficients,
    shifted_jensen_sides,
    theta_coeff,
)
from kthprice import equilibrium, verification
from kthprice.equilibrium import _exact_slope
from kthprice.polynomials import Polynomial

U = make_uniform(1.0)
T = make_triangle(1.0)
A_FULL = 6575255455960925 / 2 ** 53  # odd 53-bit numerator: a full-mantissa 0.73


def test_benchmark_frozen_values():
    # uniform: m(x) = (n-1) x^n / n; triangle: 2(n-1) x^(2n-1) / (2n-1)
    assert expected_payment_benchmark(U, 3, 1.0) == pytest.approx(2 / 3, abs=1e-15)
    assert expected_payment_benchmark(U, 2, 0.5) == pytest.approx(1 / 8, abs=1e-15)
    assert expected_payment_benchmark(T, 4, 1.0) == pytest.approx(6 / 7, abs=1e-15)
    assert expected_payment_benchmark(U, 5, 0.0) == 0.0
    with pytest.raises(ValueError):
        expected_payment_benchmark(U, 1, 0.5)
    with pytest.raises(ValueError):
        expected_payment_benchmark(U, 3, 1.5)


def _fraction_density(dist):
    """(F, f) as Polynomials over the exact binary values of a and b."""
    a, b = Fraction(dist.a), Fraction(dist.b)
    return Polynomial([0, b, a / 2]), Polynomial([b, a])


def _fraction_antiderivative(dist, n):
    """int_0^x y (n-1) F**(n-2) f dy as a Polynomial over Fraction."""
    big_f, f = _fraction_density(dist)
    y = Polynomial.variable()
    return ((n - 1) * y * big_f ** (n - 2) * f).antiderivative()


def _fraction_payment(dist, n, k, slope, x):
    """(n-1) binom(n-2, k-2) int_0^x slope y (F(x) - F(y))**(k-2)
    F(y)**(n-k) f(y) dy at one rational x, exactly: the integrand is a
    polynomial in y once F(x) is a number."""
    big_f, f = _fraction_density(dist)
    y = Polynomial.variable()
    integrand = (slope * y * (big_f(x) - big_f) ** (k - 2)
                 * big_f ** (n - k) * f)
    return (n - 1) * math.comb(n - 2, k - 2) * integrand.antiderivative()(x)


@pytest.mark.parametrize("dist", [U, T, make_uniform(0.7), make_triangle(2.5)],
                         ids=["uniform", "triangle", "uniform-0.7",
                              "triangle-2.5"])
def test_phi_ladder_check_matches_fraction_payment(dist, monkeypatch):
    # Both payments are polynomials of degree <= 2n-1 in x, so agreement
    # at 2n points is agreement as polynomials.
    for n in range(3, 10):
        benchmark = _fraction_antiderivative(dist, n)
        xs = [Fraction(dist.omega) * i / (2 * n) for i in range(1, 2 * n + 1)]
        for k in range(3, n + 1):
            right = _exact_slope(dist, n, k)
            for slope in (right, right + 1, Fraction(1),
                          right * (1 + Fraction(1, 2 ** 60)),
                          _exact_slope(dist, n, k - 1)):
                monkeypatch.setattr(equilibrium, "_exact_slope",
                                    lambda *_: slope)
                equal = all(_fraction_payment(dist, n, k, slope, x)
                            == benchmark(x) for x in xs)
                assert equal == (slope == right), (n, k, slope)
                assert phi_ladder_check(dist, n, k) == equal, (n, k, slope)


_SIX_DISTS = pytest.mark.parametrize("dist", [
    U, T, make_linear(A_FULL, 1.0), make_linear(-1.3, 1.0),
    make_triangle(2.5), make_uniform(0.3)],
    ids=["uniform", "triangle", "a-full-mantissa", "a-negative", "omega-2.5",
         "omega-0.3"])


@_SIX_DISTS
def test_psi_0_equals_fraction_antiderivative(dist):
    # coefficient for coefficient, and reduced: (N, L) share no factor
    for n in range(2, 41):
        nums, den = equilibrium._psi_0(dist, n)
        assert math.gcd(den, *nums) == 1
        psi = Polynomial([Fraction((n - 1) * c, den) for c in nums])
        assert psi.coeffs == _fraction_antiderivative(dist, n).coeffs, n


@_SIX_DISTS
def test_benchmark_bit_identical_to_fraction_horner(dist):
    # non-dyadic x (q with an odd factor) and an int check the 2-adic split
    xs = (0.0, dist.omega, 5e-324, dist.omega / 3, 0.5 * dist.omega,
          0.77 * dist.omega, Fraction(1, 3) * Fraction(dist.omega),
          Fraction(2, 7)) + ((1,) if dist.omega >= 1 else ())
    for n in (2, 3, 7, 19, 40, 60):
        reference = _fraction_antiderivative(dist, n)
        for x in xs:
            assert expected_payment_benchmark(dist, n, x) == \
                float(reference(Fraction(x))), (n, x)


def test_benchmark_input_types():
    lin = make_linear(A_FULL, 1.0)
    for n in (3, 19):
        for one in (1, np.int64(1)):
            value = expected_payment_benchmark(lin, n, one)
            assert type(value) is float
            assert value == expected_payment_benchmark(lin, n, 1.0)
        for x in (0.3, 0.77, 1.0):
            value = expected_payment_benchmark(lin, n, np.float64(x))
            assert type(value) is float
            assert value == expected_payment_benchmark(lin, n, x)
        for zero in (0.0, np.int32(0)):
            value = expected_payment_benchmark(lin, n, zero)
            assert type(value) is float and value == 0.0
        for x in (0.77, 1):  # a 0-d array is its scalar
            value = expected_payment_benchmark(lin, n, np.array(x))
            assert type(value) is float
            assert value == expected_payment_benchmark(lin, n, x)
    for bad in (float("nan"), float("inf"), -float("inf"), -1e-300,
                np.nextafter(1.0, 2.0), 2):
        with pytest.raises(ValueError):
            expected_payment_benchmark(lin, 5, bad)
    for array in (np.array([0.5]), np.array([0.2, 0.5]), [0.5]):
        with pytest.raises(ValueError, match=r"benchmark: x must be a scalar"):
            expected_payment_benchmark(lin, 5, array)


def test_quadrature_payment_frozen_values():
    # uniform n=4, k=3: equilibrium pays 3x^4/4, truthful pays x^4/2
    eq = BidFunction.equilibrium(AuctionConfig(4, 3), U)
    truthful = BidFunction.second_price(AuctionConfig(4, 3), U)
    assert expected_payment_quadrature(eq, U, 4, 3, 1.0) == pytest.approx(0.75, abs=1e-10)
    assert expected_payment_quadrature(truthful, U, 4, 3, 1.0) == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(ValueError):
        expected_payment_quadrature(eq, U, 4, 5, 0.5)
    with pytest.raises(ValueError):
        expected_payment_quadrature(eq, U, 4, 3, 0.0)


def test_revenue_equivalence_pass_and_fail():
    eq = BidFunction.equilibrium(AuctionConfig(4, 3), U)
    rep = revenue_equivalence_check(eq, U, 4, 3)
    assert rep.passed and rep.max_error < 1e-12
    assert len(rep.grid) == 20 and rep.grid[-1] == 1.0
    assert rep.check == "revenue-equivalence"

    truthful = BidFunction.second_price(AuctionConfig(4, 3), U)
    bad = revenue_equivalence_check(truthful, U, 4, 3)
    assert not bad.passed
    assert bad.max_error == pytest.approx(0.25, abs=1e-9)  # 3x^4/4 - x^4/2 at x=1

    with pytest.raises(ValueError):
        revenue_equivalence_check(eq, U, 4, 3, grid_size=1)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            revenue_equivalence_check(eq, U, 4, 3, tol=tol)


def test_revenue_equivalence_general_linear_density():
    lin = make_linear(1.0, 1.0)
    for n, k in ((5, 3), (6, 5), (4, 4)):
        bid = BidFunction.equilibrium(AuctionConfig(n, k), lin)
        assert revenue_equivalence_check(bid, lin, n, k).passed


def test_revenue_equivalence_at_benchmark_sizes():
    # the largest (n, k) of the benchmark's quad-verify workload, on a
    # full-mantissa slope: about 0.4 s from cold caches on a 2-core Xeon VM
    lin = make_linear(A_FULL, 1.0)
    start = time.perf_counter()
    for n, k in ((30, 20), (45, 30), (60, 50)):
        cfg = AuctionConfig(n, k)
        eq = revenue_equivalence_check(BidFunction.equilibrium(cfg, lin), lin, n, k)
        assert eq.passed and eq.max_error < 1e-12, (n, k, eq.max_error)
        truthful = revenue_equivalence_check(
            BidFunction.second_price(cfg, lin), lin, n, k)
        assert not truthful.passed and truthful.max_error > 0.1, (n, k)
    assert time.perf_counter() - start < 2.0


@pytest.mark.xfail(strict=True, reason="known defect past n = 60: the "
                   "quadrature's stop test is absolute below 1, so the 16- "
                   "and 32-node rules agree on payments far below 1 whatever "
                   "their relative error")
@pytest.mark.parametrize("n, k, dist", [
    (150, 75, U),  # max error 2.4e-7 against tol 1e-8; the bid is linear
    (100, 50, T),  # max error 8.3e-7
], ids=["uniform-150-75", "triangle-100-50"])
def test_revenue_equivalence_passes_equilibrium_bids_past_n_60(n, k, dist):
    # The tested domain of revenue_equivalence_check is n <= 60; these
    # equilibrium bids are correct and should pass once it is mended.
    bid = BidFunction.equilibrium(AuctionConfig(n, k), dist)
    report = revenue_equivalence_check(bid, dist, n, k)
    assert report.passed, report.max_error


def test_report_to_dict_schema():
    rep = VerificationReport.from_errors(
        "demo", 4, 3, U, (0.5, 1.0), (1e-12, 2e-12), 1e-8)
    doc = rep.to_dict()
    assert doc["check"] == "demo"
    assert doc["params"] == {"n": 4, "k": 3,
                             "dist": {"a": 0.0, "b": 1.0, "omega": 1.0}}
    assert doc["pass"] is True and doc["max_error"] == 2e-12
    assert set(doc) == {"check", "params", "grid", "errors", "max_error",
                        "tolerance", "pass"}
    failed = VerificationReport.from_errors(
        "demo", 4, 3, U, (0.5,), (1.0,), 1e-8)
    assert failed.passed is False and failed.to_dict()["pass"] is False


@pytest.mark.parametrize("errors", [
    (math.nan, 1e-9, 2e-9), (1e-9, math.nan, 2e-9), (1e-9, 2e-9, math.nan),
], ids=["first", "middle", "last"])
def test_report_with_a_nan_error_fails(errors):
    rep = VerificationReport.from_errors(
        "demo", 4, 3, U, (0.25, 0.5, 1.0), errors, 1e-8)
    assert math.isnan(rep.max_error)
    assert rep.passed is False and rep.to_dict()["pass"] is False


def test_monte_carlo_payment_matches_benchmark():
    eq = BidFunction.equilibrium(AuctionConfig(4, 3), U)
    mc = monte_carlo_expected_payment(eq, U, 4, 3, 0.5, 200_000, 11)
    bench = expected_payment_benchmark(U, 4, 0.5)
    assert abs(mc.estimate - bench) <= 4.0 * mc.standard_error
    assert mc.samples == 200_000 and mc.seed == 11
    assert type(mc.wins) is int and 0 < mc.wins < mc.samples
    assert set(asdict(mc)) == {"estimate", "standard_error", "samples", "seed",
                               "wins"}


def test_monte_carlo_zero_wins_warns():
    # triangle, x = 0.2: a win has probability 0.04**5 ~ 1e-7 per trial
    eq = BidFunction.equilibrium(AuctionConfig(6, 4), T)
    with pytest.warns(RuntimeWarning,
                      match=r"n=6, k=4, x=0\.2, samples=65536"):
        mc = monte_carlo_expected_payment(eq, T, 6, 4, 0.2, 1 << 16, 3)
    assert (mc.estimate, mc.standard_error, mc.wins) == (0.0, 0.0, 0)


def test_monte_carlo_is_seed_deterministic():
    eq = BidFunction.equilibrium(AuctionConfig(5, 4), T)
    one = monte_carlo_expected_payment(eq, T, 5, 4, 0.8, 150_000, 11)
    two = monte_carlo_expected_payment(eq, T, 5, 4, 0.8, 150_000, 11)
    assert one == two  # bitwise, across the shard boundary at 2**16
    other = monte_carlo_expected_payment(eq, T, 5, 4, 0.8, 150_000, 12)
    assert other.estimate != one.estimate


def test_monte_carlo_validation():
    eq = BidFunction.equilibrium(AuctionConfig(4, 3), U)
    with pytest.raises(ValueError):
        monte_carlo_expected_payment(eq, U, 4, 3, 0.5, 0, 1)
    with pytest.raises(ValueError):
        monte_carlo_expected_payment(eq, U, 4, 3, 0.0, 100, 1)
    with pytest.raises(ValueError):
        monte_carlo_expected_payment(eq, U, 4, 5, 0.5, 100, 1)
    with pytest.raises(ValueError, match=r"payment: seed must be >= 0, got -1"):
        monte_carlo_expected_payment(eq, U, 4, 3, 0.5, 100, -1)
    with pytest.raises(ValueError, match=r"revenue: seed must be >= 0, got -1"):
        expected_revenue(eq, U, 4, 3, 100, -1)
    # one draw has no standard error
    with pytest.raises(ValueError, match=r"payment: samples must be >= 2"):
        monte_carlo_expected_payment(eq, U, 4, 3, 0.5, 1, 1)
    with pytest.raises(ValueError, match=r"revenue: samples must be >= 2"):
        expected_revenue(eq, U, 4, 3, 1, 1)
    # x is one value: a 0-d array is its scalar, any other array is refused
    for array in (np.array([0.5]), np.array([0.2, 0.5])):
        with pytest.raises(ValueError, match=r"payment: x must be a scalar"):
            monte_carlo_expected_payment(eq, U, 4, 3, array, 100, 1)
    assert monte_carlo_expected_payment(eq, U, 4, 3, np.array(0.5), 100, 1) \
        == monte_carlo_expected_payment(eq, U, 4, 3, 0.5, 100, 1)
    two = expected_revenue(eq, U, 4, 3, 2, 1)
    assert two.samples == 2 and two.standard_error > 0.0
    # the identity sweep's random trials are seeded the same way
    with pytest.raises(ValueError, match=r"sweep: seed must be >= 0, got -1"):
        identity_sweep(1, 0, 1, -1, 3)


def test_expected_revenue_anchors():
    # E[second-highest of n uniforms] = (n-1)/(n+1)
    rev = expected_revenue(BidFunction.second_price(AuctionConfig(3, 2), U),
                           U, 3, 2, 200_000, 5)
    assert abs(rev.estimate - 0.5) <= 4.0 * rev.standard_error
    assert rev.wins == rev.samples  # every trial sells
    # triangle n=4: revenue equivalence pins every k at 16/21
    eq = BidFunction.equilibrium(AuctionConfig(4, 3), T)
    rev_t = expected_revenue(eq, T, 4, 3, 200_000, 5)
    assert abs(rev_t.estimate - 16 / 21) <= 4.0 * rev_t.standard_error
    with pytest.raises(ValueError):
        expected_revenue(eq, T, 4, 3, 0, 5)


def _direct_payment_shard(bid, dist, n, k, x):
    """Invert all n-1 opponent values, take their max, partition them."""
    pivot = n - k

    def shard(rng, size):
        vals = dist.inverse_cdf(rng.random((size, n - 1)))
        highest = vals.max(axis=1)
        price_base = np.partition(vals, pivot, axis=1)[:, pivot]
        win = highest < x
        return np.where(win, bid(price_base), 0.0), int(np.count_nonzero(win))

    return shard


def _direct_revenue_shard(bid, dist, n, k):
    """Invert all n values and bid at the k-th highest."""
    pivot = n - k

    def shard(rng, size):
        vals = dist.inverse_cdf(rng.random((size, n)))
        return bid(np.partition(vals, pivot, axis=1)[:, pivot]), size

    return shard


@pytest.mark.filterwarnings("ignore:monte_carlo_expected_payment:RuntimeWarning")
def test_monte_carlo_equals_direct_simulation(monkeypatch):
    # the library inverts and bids only the order statistics it uses; the
    # direct simulator inverts every value. Same stream, so same bits.
    # n = 12 and 20 put interior ranks past the column limit (per-row path).
    monkeypatch.setattr(verification, "_SHARD_SIZE", 3000)
    samples, seed = 1 << 13, 17  # three shards, the last one partial
    cases = ([(n, k) for n in range(3, 7) for k in range(2, n + 1)]
             + [(n, k) for n in (12, 20) for k in (2, n // 2, n)])
    for dist in (U, T, make_linear(0.73, 1.0)):
        for n, k in cases:
            bid = BidFunction.equilibrium(AuctionConfig(n, k), dist)
            for x in (0.2, 0.5, 0.8):
                direct = verification._mc_accumulate(
                    samples, seed, _direct_payment_shard(bid, dist, n, k, x))
                assert monte_carlo_expected_payment(
                    bid, dist, n, k, x, samples, seed) == direct
            direct = verification._mc_accumulate(
                samples, seed, _direct_revenue_shard(bid, dist, n, k))
            assert expected_revenue(bid, dist, n, k, samples, seed) == direct


def test_standard_error_is_the_sample_std_of_the_direct_payoffs(monkeypatch):
    # SE = std(payoffs, ddof=1) / sqrt(N) over every shard's payoffs
    monkeypatch.setattr(verification, "_SHARD_SIZE", 3000)
    samples, seed = 1 << 13, 31  # three shards, the last one partial
    for dist, n, k, x in ((U, 4, 3, 0.5), (T, 6, 2, 0.8),
                          (make_linear(0.73, 1.0), 5, 5, 0.6)):
        bid = BidFunction.equilibrium(AuctionConfig(n, k), dist)
        for result, shard in (
                (monte_carlo_expected_payment(bid, dist, n, k, x, samples,
                                              seed),
                 _direct_payment_shard(bid, dist, n, k, x)),
                (expected_revenue(bid, dist, n, k, samples, seed),
                 _direct_revenue_shard(bid, dist, n, k))):
            payoffs = np.concatenate([
                shard(verification._shard_rng(seed, index), size)[0]
                for index, size in verification._shards(samples)])
            assert payoffs.size == samples
            want = np.std(payoffs, ddof=1) / math.sqrt(samples)
            assert want > 0.0
            assert result.standard_error == pytest.approx(want, rel=1e-12,
                                                          abs=0.0)


def test_z_scores_against_the_benchmark_have_unit_variance():
    # z = (estimate - exact) / SE is close to standard normal when the SE
    # is right. The sample variance of 64 such draws has standard
    # deviation sqrt(2/63) ~ 0.18, so [0.5, 1.6] is about 3 sigma wide;
    # an SE off by a factor of 2 puts the variance near 1/4 or 4.
    bid = BidFunction.equilibrium(AuctionConfig(4, 3), U)
    bench = expected_payment_benchmark(U, 4, 0.8)
    z = []
    for seed in range(64):
        mc = monte_carlo_expected_payment(bid, U, 4, 3, 0.8, 4096, seed)
        z.append((mc.estimate - bench) / mc.standard_error)
    assert 0.5 <= np.var(z, ddof=1) <= 1.6


@pytest.mark.filterwarnings("ignore:monte_carlo_expected_payment:RuntimeWarning")
@pytest.mark.parametrize(
    "dist", [U, T, make_linear(0.73, 1.0), make_linear(-0.9, 1.0),
             make_linear(-1.999, 1.0)],  # the last has f(omega) = 5e-4
    ids=["uniform", "triangle", "a=0.73", "a=-0.9", "a=-1.999"])
def test_payment_filter_edges_equal_direct_simulation(monkeypatch, dist):
    # a payment inverts only the maxima at most hi = F(x) (1 + 1e-9); at
    # the edges of that filter it is still the direct simulation, bit for bit
    monkeypatch.setattr(verification, "_SHARD_SIZE", 3000)
    samples, seed = 1 << 13, 23  # three shards, the last one partial
    omega = dist.omega
    xs = [omega, np.nextafter(omega, 0.0), 0.999 * omega]
    # F(x) subnormal: only an all-zero trial could win; on the triangle
    # F(1e-170) even rounds to 0
    tiny = [1e-310] if dist.b else [1e-160, 1e-170]
    assert all(dist.cdf(t) < np.finfo(float).tiny for t in tiny)
    xs += tiny
    # x = F^-1 of a drawn maximum (n = 5), and the floats beside it, puts
    # maxima in [F(x), hi); for a falling density some of them still win,
    # where cdf and inverse_cdf round apart
    first = verification._shard_rng(seed, 0).random((3000, 4)).max(axis=1)
    x0 = dist.inverse_cdf(first)
    near = np.concatenate([np.nextafter(x0, 0.0), x0, np.nextafter(x0, omega)])
    drawn = np.tile(first, 3)
    edge = near[(dist.cdf(near) < drawn) & (dist.inverse_cdf(drawn) < near)]
    assert edge.size > 0 or dist.a >= 0.0
    xs += near[[300, 4500, 8990]].tolist() + edge[:3].tolist()
    banded = 0
    for x in xs:
        hi = dist.cdf(x) * (1 + 1e-9)
        banded += np.count_nonzero((dist.cdf(x) <= first) & (first < hi))
        for n, k in ((2, 2), (5, 2), (5, 3), (5, 5)):
            bid = BidFunction.equilibrium(AuctionConfig(n, k), dist)
            direct = verification._mc_accumulate(
                samples, seed, _direct_payment_shard(bid, dist, n, k, x))
            assert monte_carlo_expected_payment(
                bid, dist, n, k, x, samples, seed) == direct, (x, n, k)
    assert banded > 0


def test_payment_inverts_only_the_trials_that_can_win(monkeypatch):
    # inverse_cdf sees the maxima at most hi = F(x) (1 + 1e-9), then each
    # winner's price uniform: not one value per trial
    n, k, x, samples, seed = 6, 4, 0.5, 150_000, 7
    bid = BidFunction.equilibrium(AuctionConfig(n, k), U)
    inverted = []
    inverse_cdf = type(U).inverse_cdf

    def counting(self, u):
        inverted.append(np.size(u))
        return inverse_cdf(self, u)

    monkeypatch.setattr(type(U), "inverse_cdf", counting)
    result = monte_carlo_expected_payment(bid, U, n, k, x, samples, seed)
    hi = U.cdf(x) * (1 + 1e-9)
    candidates = sum(
        int(np.count_nonzero(verification._shard_rng(seed, index).random(
            (size, n - 1)).max(axis=1) <= hi))
        for index, size in verification._shards(samples))
    assert 0 < result.wins <= candidates < samples / 10  # F(x)**5 = 1/32
    assert sum(inverted) <= candidates + result.wins


def test_monte_carlo_transient_memory_is_bounded():
    # one 2**16-sample call at n = 8, whose draws alone take 3.5 MiB
    # (payment) and 4 MiB (revenue), against the peaks of the column-copy
    # implementation it replaced: 5.07, 5.42 and 7.00 MiB. The payments
    # now peak at 4.07 and 5.30 MiB; keeping the maxima to the end of a
    # shard reads 4.51 at x = 0.5, and making pay before the pivot 5.80
    # at x = 0.8. The revenue still peaks in the bid, with the draws alive.
    import tracemalloc
    lin = make_linear(0.73, 1.0)
    pay = BidFunction.equilibrium(AuctionConfig(8, 3), U)
    rev = BidFunction.equilibrium(AuctionConfig(8, 5), lin)
    cases = [
        (lambda: monte_carlo_expected_payment(pay, U, 8, 3, 0.5, 1 << 16, 3),
         4.3),
        (lambda: monte_carlo_expected_payment(pay, U, 8, 3, 0.8, 1 << 16, 3),
         5.42),
        (lambda: expected_revenue(rev, lin, 8, 5, 1 << 16, 3), 7.01),
    ]
    for call, bound_mib in cases:
        call()  # anything cached on first use is not transient
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20, (bound_mib, peak / 2 ** 20)


@pytest.mark.parametrize("limit", [0, verification._COLUMN_LIMIT, 10 ** 6],
                         ids=["per-row", "cost-rule", "columns"])
def test_order_statistic_equals_partition(monkeypatch, limit):
    # blocks of 8 rows, so 0, 1 and 21 rows give no block, a partial one,
    # and two whole blocks and a partial one; integer draws tie in most
    # rows. The row extremes (r = 0, m-1) also run in blocks of 1 row,
    # and those folded over columns leave u as it was.
    monkeypatch.setattr(verification, "_COLUMN_LIMIT", limit)
    rng = np.random.default_rng(29)
    for m in range(1, 41):
        for rows in (0, 1, 21):
            for u in (rng.random((rows, m)),
                      rng.integers(0, 4, (rows, m)).astype(float)):
                for block in (8, 1):
                    monkeypatch.setattr(verification, "_BLOCK_BYTES",
                                        block * u.itemsize * m)
                    for r in range(m) if block == 8 else {0, m - 1}:
                        work = u.copy()
                        got = verification._order_statistic(work, r)
                        assert np.array_equal(
                            got, np.partition(u, r, axis=1)[:, r]), (
                                m, rows, r, block)
                        if r in (0, m - 1) and m <= limit:
                            assert np.array_equal(work, u), (m, rows, r)


def test_order_statistic_at_shard_size():
    # default block and limit, on a row count that is no block multiple;
    # m = 8 is column work only, m = 12 takes both sides of the cost rule
    rng = np.random.default_rng(31)
    for m in (2, 7, 8, 12):
        rows = 3 * (verification._BLOCK_BYTES // (8 * m)) + 5
        u = rng.random((rows, m))
        for r in range(m):
            assert np.array_equal(verification._order_statistic(u.copy(), r),
                                  np.partition(u, r, axis=1)[:, r]), (m, r)


def test_best_response_peaks_at_own_value():
    eq = BidFunction.equilibrium(AuctionConfig(4, 3), U)
    grid = np.linspace(0.0, 1.0, 101)
    z_star, payoff = best_response_profile(eq, U, 4, 3, 0.5, grid)
    assert z_star == 0.5
    assert payoff.shape == grid.shape
    # against truthful opponents in a third-price auction, overbid
    truthful = BidFunction.second_price(AuctionConfig(4, 3), U)
    z_dev, _ = best_response_profile(truthful, U, 4, 3, 0.5, grid)
    assert z_dev > 0.5


def test_best_response_validation():
    eq = BidFunction.equilibrium(AuctionConfig(4, 3), U)
    with pytest.raises(ValueError):
        best_response_profile(eq, U, 4, 3, 0.0, np.linspace(0, 1, 11))
    with pytest.raises(ValueError):
        best_response_profile(eq, U, 4, 3, 0.5, np.array([0.5]))
    with pytest.raises(ValueError):
        best_response_profile(eq, U, 4, 3, 0.5, np.linspace(0, 2, 11))
    # an array of values is checked value by value, and must be 1-d
    for xs in (np.array([0.5, 1.5]), np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match=r"x must lie in \(0, omega\]"):
            best_response_profile(eq, U, 4, 3, xs, np.linspace(0, 1, 11))
    with pytest.raises(ValueError, match="scalar or a 1-d array"):
        best_response_profile(eq, U, 4, 3, np.full((2, 2), 0.5),
                              np.linspace(0, 1, 11))
    # (n, k) is checked at entry, also when no z > 0 needs a payment
    with pytest.raises(ValueError, match=r"need 2 <= k <= n, got n=3, k=1"):
        best_response_profile(eq, U, 3, 1, 0.5, [0.0, 0.0])


def test_best_response_rejects_non_finite_grid():
    eq = BidFunction.equilibrium(AuctionConfig(4, 3), U)
    for bad in (np.nan, np.inf, -np.inf):
        grid = np.array([0.0, 0.5, bad, 1.0])
        with pytest.raises(ValueError, match="best_response_profile: z_grid"):
            best_response_profile(eq, U, 4, 3, 0.5, grid)


# Payments on whole arrays of upper limits: (n, k) up to 60, and three
# densities, one with a full-mantissa slope.
_ARRAY_POINTS = ((4, 2), (5, 3), (6, 4), (10, 3), (12, 8), (20, 10), (30, 20),
                 (45, 30), (60, 50))
_ARRAY_DISTS = pytest.mark.parametrize(
    "dist", [U, T, make_linear(A_FULL, 1.0)],
    ids=["uniform", "triangle", "a-0.73"])


def _bids(dist, n, k):
    cfg = AuctionConfig(n, k)
    bids = [BidFunction.equilibrium(cfg, dist),
            BidFunction.second_price(cfg, dist)]
    return bids + [BidFunction.series(cfg, dist)] if k >= 3 else bids


@_ARRAY_DISTS
def test_payment_array_equals_point_calls(dist, monkeypatch):
    # blocks of 16 rows: 41 points make two whole blocks and a partial one
    monkeypatch.setattr(verification, "BLOCK_ROWS", 16)
    xs = dist.omega * np.arange(1, 42) / 41
    for n, k in _ARRAY_POINTS:
        for bid in _bids(dist, n, k):
            got = expected_payment_quadrature(bid, dist, n, k, xs)
            want = [expected_payment_quadrature(bid, dist, n, k, float(x))
                    for x in xs]
            assert got.tolist() == want, (n, k, bid.slope)


def test_payment_array_spans_blocks_of_block_rows():
    assert verification.BLOCK_ROWS == 128
    bid = BidFunction.series(AuctionConfig(8, 5), T)
    xs = np.linspace(0.0, 1.0, 301)[1:]
    assert expected_payment_quadrature(bid, T, 8, 5, xs).tolist() == [
        expected_payment_quadrature(bid, T, 8, 5, x) for x in xs.tolist()]


def test_payment_array_validation():
    with pytest.raises(ValueError, match=r"\(0, omega\], got x=nan"):
        expected_payment_quadrature(EQ43, U, 4, 3, np.array([0.5, np.nan]))
    with pytest.raises(ValueError, match=r"got x=0\.0"):
        expected_payment_quadrature(EQ43, U, 4, 3, np.array([0.5, 0.0, 2.0]))
    assert expected_payment_quadrature(EQ43, U, 4, 3, np.array([])).size == 0
    with pytest.raises(ValueError, match=r"^expected_payment_quadrature: x "
                                         r"must be a scalar or a 1-d array"):
        expected_payment_quadrature(EQ43, U, 4, 3, np.full((2, 2), 0.5))


def _best_response_reference(bid, dist, n, k, x, z_grid):
    """best_response_profile with one scalar payment per grid point."""
    payments = np.array([0.0 if z == 0.0 else
                         expected_payment_quadrature(bid, dist, n, k, z)
                         for z in z_grid.tolist()])
    payoff = np.asarray(dist.cdf(z_grid)) ** (n - 1) * x - payments
    return float(z_grid[int(np.argmax(payoff))]), payoff


@_ARRAY_DISTS
def test_best_response_equals_point_reference(dist):
    # unsorted, with a repeated point and a second zero
    grid = np.concatenate((np.linspace(0.0, dist.omega, 101),
                           [0.0, 0.37, 0.37 * dist.omega]))
    xs = (0.2, 0.5, 0.8)
    for n, k in ((5, 3), (12, 8), (60, 50)):
        for bid in _bids(dist, n, k):
            wants = [_best_response_reference(bid, dist, n, k, x, grid)
                     for x in xs]
            for x, want in zip(xs, wants):
                got = best_response_profile(bid, dist, n, k, x, grid)
                assert got[0] == want[0]
                assert got[1].tolist() == want[1].tolist()
            # an array of values: the z* array and one payoff row per value
            z_stars, payoffs = best_response_profile(bid, dist, n, k,
                                                     np.array(xs), grid)
            assert z_stars.tolist() == [want[0] for want in wants]
            assert payoffs.tolist() == [want[1].tolist() for want in wants]


def test_best_response_memory_is_bounded_by_blocks():
    import tracemalloc
    eq = BidFunction.equilibrium(AuctionConfig(6, 4), U)
    grid = np.linspace(0.0, 1.0, 20_001)
    tracemalloc.start()
    try:
        z_star, _ = best_response_profile(eq, U, 6, 4, 0.5, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z_star == 0.5
    # ~1.5 MB, most of it the grid-long arrays; one block for the whole
    # grid peaks at ~34 MB
    assert peak < 4_000_000


EQ43 = BidFunction.equilibrium(AuctionConfig(4, 3), U)
GRID = np.linspace(0.0, 1.0, 11)


def _case(name, func, *args):
    """func(*args) must reject argument name; the id names func."""
    return pytest.param(name, lambda: func(*args), id=f"{func.__name__}-{name}")


@pytest.mark.parametrize("name, call", [
    ("n", lambda: expected_payment_benchmark(U, 4.0, 0.5)),
    ("n", lambda: expected_payment_quadrature(EQ43, U, 4.0, 3, 0.5)),
    ("k", lambda: expected_payment_quadrature(EQ43, U, 4, 3.0, 0.5)),
    ("n", lambda: revenue_equivalence_check(EQ43, U, Fraction(4), 3)),
    ("grid_size", lambda: revenue_equivalence_check(EQ43, U, 4, 3,
                                                    grid_size=2.5)),
    ("samples", lambda: monte_carlo_expected_payment(EQ43, U, 4, 3, 0.5,
                                                     1000.0, 1)),
    ("k", lambda: monte_carlo_expected_payment(EQ43, U, 4, "3", 0.5, 100, 1)),
    ("samples", lambda: expected_revenue(EQ43, U, 4, 3, 1e3, 1)),
    ("n", lambda: expected_revenue(EQ43, U, np.float64(4), 3, 100, 1)),
    ("seed", lambda: monte_carlo_expected_payment(EQ43, U, 4, 3, 0.5, 100,
                                                  1.5)),
    ("seed", lambda: monte_carlo_expected_payment(EQ43, U, 4, 3, 0.5, 100,
                                                  "3")),
    ("seed", lambda: expected_revenue(EQ43, U, 4, 3, 100, 1.5)),
    ("seed", lambda: expected_revenue(EQ43, U, 4, 3, 100, "3")),
    ("seed", lambda: monte_carlo_expected_payment(EQ43, U, 4, 3, 0.5, 100,
                                                  True)),
    ("k", lambda: best_response_profile(EQ43, U, 4, 3.0, 0.5, GRID)),
    ("s", lambda: jensen_sides(1.0, 2.0, 0.5, 2.0)),
    ("s", lambda: hagen_rothe_sides(1.0, 2.0, 0.5, None)),
    ("s", lambda: shifted_jensen_sides(2.0, 0.5, np.float64(3))),
    _case("n", psi_ladder_oracle, U, 5.0, 3),
    _case("n", psi_closed_form, U, 4.0, 3),
    _case("k", bid_from_psi_ladder, U, 5, np.float64(3)),
    _case("k", phi_ladder_check, U, 5, 3.0),
    _case("n", series_coefficients, 6.0, 4),
    _case("l", catalan, Fraction(2)),
    _case("l", catalan_integral, 2.5),
    _case("l_max", catalan_recurrence_holds, 3.0),
    _case("n", theta_coeff, 6.5, 4, 0),
    _case("l", theta_coeff, 6, 4, 0.0),
    _case("n", omega, 6.0, 4),
    _case("k", omega, 6, True),
    _case("k", omega_bounds, 10, 3.0),
    _case("n", omega_bounds, np.float64(10), 3),
    _case("lmax", identity_sweep, 3.5, 0, 1, 1, 3),
    _case("integral_lmax", identity_sweep, 1, 0.0, 1, 1, 3),
    _case("trials", identity_sweep, 1, 0, 1.0, 1, 3),
    _case("seed", identity_sweep, 1, 0, 1, 1.5, 3),
    _case("nmax", identity_sweep, 1, 0, 1, 1, 3.0),
])
def test_integer_arguments_are_checked_by_name(name, call):
    with pytest.raises(ValueError, match=rf": {name} must be an integer"):
        call()


def test_numpy_integer_arguments_accepted():
    n, k = np.int64(4), np.int64(3)
    assert expected_payment_benchmark(U, n, 0.5) == \
        expected_payment_benchmark(U, 4, 0.5)
    assert expected_payment_quadrature(EQ43, U, n, k, 0.5) == \
        expected_payment_quadrature(EQ43, U, 4, 3, 0.5)
    seed = np.int64(3)
    for mc, plain in (
            (monte_carlo_expected_payment(EQ43, U, n, k, 0.5, 100, seed),
             monte_carlo_expected_payment(EQ43, U, 4, 3, 0.5, 100, 3)),
            (expected_revenue(EQ43, U, n, k, 100, seed),
             expected_revenue(EQ43, U, 4, 3, 100, 3))):
        assert mc == plain and type(mc.seed) is int
        assert json.loads(json.dumps(asdict(mc)))["seed"] == 3
    n, k = np.int64(5), np.int32(3)
    for ladder in (psi_ladder_oracle, psi_closed_form, bid_from_psi_ladder,
                   phi_ladder_check):
        assert ladder(U, n, k) == ladder(U, 5, 3)
    config = AuctionConfig(np.int64(6), np.int32(4))
    assert type(config.n) is int and type(config.k) is int
