"""Bid functions: exact slopes, the series, symbolic ladders, certificates."""

from fractions import Fraction

import numpy as np
import pytest

from kthprice import (
    AuctionConfig,
    BidFunction,
    Polynomial,
    RationalFunction,
    bid_from_psi_ladder,
    make_linear,
    make_triangle,
    make_uniform,
    monotonicity_certificate,
    omega,
    phi_ladder_check,
    psi_closed_form,
    psi_ladder_oracle,
    series_coefficients,
)
from kthprice.equilibrium import _ladder
import math
import time

X = Polynomial.variable()
U = make_uniform(1.0)
T = make_triangle(1.0)


# ---------------------------------------------------------------------------
# closed forms

def test_second_price_is_truthful():
    assert BidFunction.second_price(AuctionConfig(4, 2), U)(0.37) == 0.37


def test_third_price_frozen():
    # triangle omega=1, n=5, x=0.5: F=1/4, f=1, bid = 1/2 + (1/4)/3
    bid = BidFunction.third_price(AuctionConfig(5, 3), T)
    assert bid(0.5) == pytest.approx(0.5 + 0.25 / 3, abs=1e-15)
    with pytest.raises(ValueError):
        BidFunction.third_price(AuctionConfig(2, 2), T)


def test_uniform_closed_form_frozen():
    def bid(n, k, x):
        return BidFunction.equilibrium(AuctionConfig(n, k), U)(x)

    assert bid(5, 3, 1.0) == pytest.approx(4 / 3, abs=1e-15)
    assert bid(10, 3, 0.8) == pytest.approx(0.9, abs=1e-15)
    assert bid(4, 2, 0.6) == 0.6  # k = 2 collapses to truthful
    with pytest.raises(ValueError):
        bid(3, 4, 0.5)


def test_triangle_closed_form_frozen():
    def bid(n, k, x):
        return BidFunction.equilibrium(AuctionConfig(n, k), T)(x)

    # n=5, k=4: premium Omega/binom = (11/8)/3, slope 35/24
    assert bid(5, 4, 1.0) == pytest.approx(35 / 24, abs=1e-15)
    assert bid(4, 3, 0.5) == pytest.approx(0.5 * 5 / 4, abs=1e-15)


def test_series_coefficients_frozen():
    assert series_coefficients(4, 3) == (Fraction(1, 2),)
    assert series_coefficients(5, 4) == (Fraction(1), Fraction(-1, 6))
    with pytest.raises(ValueError):
        series_coefficients(5, 2)


def test_series_reduces_to_third_price():
    # beta_3(x) = x + F/((n-2) f), written out here as the reference
    lin = make_linear(1.0, 1.0)
    for x in (0.2, 0.5, 0.9, 1.0):
        for n in (3, 5, 8):
            want = x + lin.cdf(x) / ((n - 2) * lin.pdf(x))
            cfg = AuctionConfig(n, 3)
            assert BidFunction.series(cfg, lin)(x) == pytest.approx(want, abs=1e-12)
            assert BidFunction.third_price(AuctionConfig(n, n), lin)(x) == \
                pytest.approx(want, abs=1e-12)


def test_series_matches_exact_slopes():
    xs = np.linspace(0.0, 1.0, 21)
    for dist in (U, T):
        for n in range(3, 9):
            for k in range(3, n + 1):
                cfg = AuctionConfig(n, k)
                slope = BidFunction.equilibrium(cfg, dist).slope
                got = BidFunction.series(cfg, dist)(xs)
                np.testing.assert_allclose(got, float(slope) * xs, atol=1e-12)


def test_series_slope_sum_is_exact_on_triangle():
    # On the triangle density every series term is linear in x, and the
    # coefficient sum telescopes to the closed-form premium exactly.
    for n in range(3, 15):
        for k in range(3, n + 1):
            cs = series_coefficients(n, k)
            total = sum(c / Fraction(2 ** (l + 1)) for l, c in enumerate(cs))
            assert total == omega(n, k) / math.comb(n - 2, k - 2)


def test_series_float_error_against_exact_series():
    # The alternating Catalan-weighted Horner sum cancels; measured worst
    # relative error on this grid is 1.8e-14 at n = 20 (k = 20, x = 0.75),
    # growing to 5.7e-12 at n = 30 and 2.2e-9 at n = 40, each at k = n.
    lin = make_linear(1.9, 1.0)
    a, b = Fraction(lin.a), Fraction(lin.b)
    xs = np.linspace(0.05, 1.0, 20)
    worst = 0.0
    for n in range(3, 21):
        for k in range(3, n + 1):
            got = BidFunction.series(AuctionConfig(n, k), lin)(xs)
            cs = series_coefficients(n, k)
            for x, value in zip(xs, got):
                x = Fraction(float(x))
                big_f, f = a * x * x / 2 + b * x, a * x + b
                acc = Fraction(0)
                for c in reversed(cs):
                    acc = acc * (a * big_f / (f * f)) + c
                exact = x + big_f / f * acc
                worst = max(worst, float(abs(Fraction(float(value)) - exact) / exact))
    assert worst <= 1e-13


def test_series_validation_and_origin():
    assert BidFunction.series(AuctionConfig(6, 4), T)(0.0) == 0.0
    with pytest.raises(ValueError):
        BidFunction.series(AuctionConfig(6, 2), T)


# ---------------------------------------------------------------------------
# BidFunction objects

def test_equilibrium_dispatch():
    u, t, lin = make_uniform(1.0), make_triangle(1.0), make_linear(1.0, 1.0)
    assert BidFunction.equilibrium(AuctionConfig(5, 2), lin).slope == Fraction(1)
    assert BidFunction.equilibrium(AuctionConfig(10, 3), u).slope == Fraction(9, 8)
    assert BidFunction.equilibrium(AuctionConfig(5, 4), t).slope == Fraction(35, 24)
    assert BidFunction.equilibrium(AuctionConfig(5, 3), lin).slope is None


def test_factory_validation():
    u, t = make_uniform(1.0), make_triangle(1.0)
    with pytest.raises(ValueError):
        BidFunction.series(AuctionConfig(5, 2), t)
    with pytest.raises(ValueError):
        BidFunction.third_price(AuctionConfig(2, 2), u)  # n < 3
    assert BidFunction.third_price(AuctionConfig(6, 5), u).config == AuctionConfig(6, 3)


def test_bid_function_scalar_and_array():
    bid = BidFunction.equilibrium(AuctionConfig(5, 4), make_triangle(1.0))
    val = bid(1.0)
    assert isinstance(val, float) and val == pytest.approx(35 / 24, abs=1e-15)
    arr = bid(np.array([0.0, 0.5, 1.0]))
    assert arr.shape == (3,)
    np.testing.assert_allclose(arr, [0.0, 35 / 48, 35 / 24], atol=1e-15)


def test_third_price_bid_function_limit_at_zero():
    bid = BidFunction.third_price(AuctionConfig(5, 3), T)
    assert bid(0.0) == 0.0  # continuity limit where f(0) = 0


# ---------------------------------------------------------------------------
# symbolic ladders

def test_psi_ladder_hand_worked_examples():
    # triangle omega=1, n=k=3: psi_0 = 2x^5/5, psi_1 = x^3, psi_2 = 3x/2
    assert psi_ladder_oracle(make_triangle(1.0), 3, 3) == \
        RationalFunction(Polynomial([0, Fraction(3, 2)]))
    # uniform omega=1, n=k=3: psi_0 = x^3/3, psi_1 = x^2, psi_2 = 2x
    assert psi_ladder_oracle(make_uniform(1.0), 3, 3) == \
        RationalFunction(Polynomial([0, 2]))


def test_psi_ladder_general_k3_form():
    # for k=3, psi_2 = F^(n-2)/f + (n-2) x F^(n-3) for any admissible density
    lin = make_linear(1.0, 1.0)
    big_f = Polynomial([0, Fraction(1, 2), Fraction(1, 2)])
    f = Polynomial([Fraction(1, 2), Fraction(1)])
    for n in (3, 4, 6):
        # over the common denominator f
        want = RationalFunction(
            big_f ** (n - 2) + (n - 2) * X * big_f ** (n - 3) * f, f)
        assert psi_ladder_oracle(lin, n, 3) == want


@pytest.mark.parametrize("dist", [U, T, make_linear(0.73, 1.0)],
                         ids=["uniform", "triangle", "linear-0.73"])
@pytest.mark.parametrize("j", [0, 1, 4])
def test_ladder_step_matches_quotient_rule(dist, j):
    # one (numerator, power of f) step against the general rational route
    big_f, f = dist.exact_polynomials()
    num = (X * big_f ** 3 * f).antiderivative() + Polynomial([1, -2, 3])
    stepped, power = _ladder(num, j, f, 1)
    assert power == j + 2
    assert RationalFunction(stepped, f ** power) == \
        RationalFunction(num, f ** j).derivative() / RationalFunction(f)


def test_psi_oracle_sweep_to_n30():
    start = time.perf_counter()
    cases = [(dist, n) for dist in (U, T) for n in range(3, 31)]
    cases += [(make_linear(1.0, 1.0), n) for n in range(3, 13)]
    assert all(psi_ladder_oracle(dist, n, k) == psi_closed_form(dist, n, k)
               for dist, n in cases for k in range(3, n + 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"elapsed={elapsed:.2f}s >= 10s"


def test_psi_closed_form_agrees_with_ladder():
    # exhaustive agreement is an acceptance gate; spot combos here
    for dist in (make_uniform(1.0), make_triangle(1.0),
                 make_linear(-1.5, 1.0), make_linear(0.25, 2.0)):
        for n, k in ((3, 3), (5, 4), (6, 6), (7, 5)):
            assert psi_ladder_oracle(dist, n, k) == psi_closed_form(dist, n, k)


def test_bid_from_ladder_matches_closed_forms():
    assert bid_from_psi_ladder(make_uniform(1.0), 3, 3) == \
        RationalFunction(Polynomial([0, 2]))
    assert bid_from_psi_ladder(make_triangle(1.0), 5, 4) == \
        RationalFunction(Polynomial([0, Fraction(35, 24)]))
    # general linear density: rational-function bid vs float series
    lin = make_linear(1.0, 1.0)
    beta = bid_from_psi_ladder(lin, 6, 4)
    series = BidFunction.series(AuctionConfig(6, 4), lin)
    for x in (0.25, 0.5, 0.75, 1.0):
        assert float(beta(Fraction(x))) == pytest.approx(series(x), abs=1e-12)


def test_phi_ladder_spot_checks():
    assert phi_ladder_check(make_uniform(1.0), 5, 4)
    assert phi_ladder_check(make_triangle(1.0), 6, 5)
    assert phi_ladder_check(make_triangle(2.0), 4, 3)
    with pytest.raises(ValueError):
        phi_ladder_check(make_linear(1.0, 1.0), 5, 4)
    with pytest.raises(ValueError):
        phi_ladder_check(make_uniform(1.0), 5, 2)


# ---------------------------------------------------------------------------
# certificates

def test_monotonicity_exact_for_linear_kinds():
    u = make_uniform(1.0)
    res = monotonicity_certificate(BidFunction.second_price(AuctionConfig(5, 2), u))
    assert res and res.slope == 1
    res = monotonicity_certificate(
        BidFunction.equilibrium(AuctionConfig(6, 4), make_triangle(1.0)))
    assert res and res.slope > 1


def test_monotonicity_grid_kinds():
    lin = make_linear(1.0, 1.0)
    assert monotonicity_certificate(BidFunction.series(AuctionConfig(6, 4), lin))
    assert monotonicity_certificate(BidFunction.third_price(AuctionConfig(4, 3), lin))
    with pytest.raises(ValueError):
        monotonicity_certificate(
            BidFunction.second_price(AuctionConfig(4, 2), lin), grid_size=1)


def test_monotonicity_reports_witness():
    # a decreasing linear bid is rejected through the exact-slope path
    bad = BidFunction(AuctionConfig(4, 2), make_uniform(1.0), Fraction(-1))
    res = monotonicity_certificate(bad)
    assert not res and res.slope == Fraction(-1)

