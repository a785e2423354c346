"""Payment cross-checks: benchmark vs quadrature vs simulation."""

from dataclasses import asdict

import numpy as np
import pytest

from kthprice import (
    AuctionConfig,
    BidFunction,
    VerificationReport,
    best_response_profile,
    expected_payment_benchmark,
    expected_payment_quadrature,
    expected_revenue,
    make_linear,
    make_triangle,
    make_uniform,
    monte_carlo_expected_payment,
    revenue_equivalence_check,
)
from kthprice import verification

U = make_uniform(1.0)
T = make_triangle(1.0)


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
    with pytest.raises(ValueError):
        revenue_equivalence_check(eq, U, 4, 3, tol=0.0)


def test_revenue_equivalence_general_linear_density():
    lin = make_linear(1.0, 1.0)
    for n, k in ((5, 3), (6, 5), (4, 4)):
        bid = BidFunction.equilibrium(AuctionConfig(n, k), lin)
        assert revenue_equivalence_check(bid, lin, n, k).passed


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
    monkeypatch.setattr(verification, "SHARD_SIZE", 3000)
    samples, seed = 1 << 13, 17  # three shards, the last one partial
    for dist in (U, T, make_linear(0.73, 1.0)):
        for n in range(3, 7):
            for k in range(2, n + 1):
                bid = BidFunction.equilibrium(AuctionConfig(n, k), dist)
                for x in (0.2, 0.5, 0.8):
                    direct = verification._mc_accumulate(
                        samples, seed, _direct_payment_shard(bid, dist, n, k, x))
                    assert monte_carlo_expected_payment(
                        bid, dist, n, k, x, samples, seed) == direct
                direct = verification._mc_accumulate(
                    samples, seed, _direct_revenue_shard(bid, dist, n, k))
                assert expected_revenue(bid, dist, n, k, samples, seed) == direct


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
