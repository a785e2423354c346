"""Payment cross-checks: benchmark vs quadrature vs simulation."""

import json
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
    omega_bounds_hold,
    phi_ladder_check,
    psi_closed_form,
    psi_ladder_oracle,
    revenue_equivalence_check,
    series_coefficients,
    shifted_jensen_sides,
    theta_coeff,
    theta_index_identity_holds,
    theta_step_recurrence_holds,
)
from kthprice import verification
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


def _fraction_antiderivative(dist, n):
    """int_0^x y (n-1) F**(n-2) f dy as a Polynomial over Fraction."""
    big_f, f = dist.exact_polynomials()
    y = Polynomial.variable()
    return ((n - 1) * y * big_f ** (n - 2) * f).antiderivative()


@pytest.mark.parametrize("dist", [
    U, T, make_linear(A_FULL, 1.0), make_linear(-1.3, 1.0),
    make_triangle(2.5), make_uniform(0.3)],
    ids=["uniform", "triangle", "a-full-mantissa", "a-negative", "omega-2.5",
         "omega-0.3"])
def test_benchmark_bit_identical_to_fraction_horner(dist):
    xs = (0.0, dist.omega, 5e-324, dist.omega / 3, 0.5 * dist.omega,
          0.77 * dist.omega)
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
    for bad in (float("nan"), float("inf"), -float("inf"), -1e-300,
                np.nextafter(1.0, 2.0), 2):
        with pytest.raises(ValueError):
            expected_payment_benchmark(lin, 5, bad)


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
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
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
    with pytest.raises(ValueError, match=r"payment: seed must be >= 0, got -1"):
        monte_carlo_expected_payment(eq, U, 4, 3, 0.5, 100, -1)
    with pytest.raises(ValueError, match=r"revenue: seed must be >= 0, got -1"):
        expected_revenue(eq, U, 4, 3, 100, -1)
    # the identity sweep's random trials are seeded the same way
    with pytest.raises(ValueError, match=r"sweep: seed must be >= 0, got -1"):
        identity_sweep(1, 0, 1, -1, 3, 1e-9)


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
    monkeypatch.setattr(verification, "SHARD_SIZE", 3000)
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


@pytest.mark.parametrize("limit", [0, verification._COLUMN_LIMIT, 10 ** 6],
                         ids=["per-row", "cost-rule", "columns"])
def test_order_statistic_equals_partition(monkeypatch, limit):
    # a block of 8 rows, so 0, 1 and 21 rows give no block, a partial one,
    # and two whole blocks and a partial one; integer draws tie in most rows
    monkeypatch.setattr(verification, "_COLUMN_LIMIT", limit)
    monkeypatch.setattr(verification, "_BLOCK_ROWS", 8)
    rng = np.random.default_rng(29)
    for m in range(1, 41):
        for rows in (0, 1, 21):
            for u in (rng.random((rows, m)),
                      rng.integers(0, 4, (rows, m)).astype(float)):
                for r in range(m):
                    got = verification._order_statistic(u.copy(), r)
                    assert np.array_equal(
                        got, np.partition(u, r, axis=1)[:, r]), (m, rows, r)


def test_order_statistic_at_shard_size():
    # default block and limit, on a row count that is no block multiple;
    # m = 8 is column work only, m = 12 takes both sides of the cost rule
    rng = np.random.default_rng(31)
    rows = 3 * verification._BLOCK_ROWS + 5
    for m in (2, 7, 8, 12):
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
    # (n, k) is checked at entry, also when no z > 0 needs a payment
    with pytest.raises(ValueError, match=r"need 2 <= k <= n, got n=3, k=1"):
        best_response_profile(eq, U, 3, 1, 0.5, [0.0, 0.0])


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
    _case("k", theta_step_recurrence_holds, 6, 4.0),
    _case("n", theta_index_identity_holds, "6", 4),
    _case("n", omega, 6.0, 4),
    _case("k", omega_bounds, 10, 3.0),
    _case("n", omega_bounds_hold, np.float64(10), 3),
    _case("lmax", identity_sweep, 3.5, 0, 1, 1, 3, 1e-9),
    _case("integral_lmax", identity_sweep, 1, 0.0, 1, 1, 3, 1e-9),
    _case("trials", identity_sweep, 1, 0, 1.0, 1, 3, 1e-9),
    _case("seed", identity_sweep, 1, 0, 1, 1.5, 3, 1e-9),
    _case("nmax", identity_sweep, 1, 0, 1, 1, 3.0, 1e-9),
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
