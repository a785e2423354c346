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
    theta_coeff,
)
from kthprice.equilibrium import (_exact_slope, _int_density, _int_polynomials,
                                  _ladder, _u_coefficients)
from kthprice.polynomials import _cleared
import functools
import math
import sys
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


@functools.lru_cache(maxsize=None)
def _paper_coefficients(n, k):
    """series_coefficients(n, k) as (integers over one denominator, it)."""
    return _cleared(series_coefficients(n, k))


def _exact_series(n, k, dist, x):
    """beta_k(x) from the paper's form x + (F/f) sum_l c_l r**l, r = aF/f**2,
    exactly, in integers: with a = A/D, b = B/D and x = P/Q,
    g = A P + B Q = D Q f and h = A P + 2 B Q = 2 D Q**2 F / P, so
    r = A P h / (2 g**2) and F/f = P h / (2 Q g). Returned as the integer
    pair (numerator, denominator), positive and not reduced."""
    cs, den = _paper_coefficients(n, k)
    big_a, big_b, _ = _int_density(dist)
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    g, h = big_a * p + big_b * q, big_a * p + 2 * big_b * q
    r_num, r_den = big_a * p * h, 2 * g * g
    acc, r_pow = cs[-1], 1  # sum_l cs[l] r_num**l r_den**(m-l), m = k-3
    for c in reversed(cs[:-1]):
        r_pow *= r_den
        acc = acc * r_num + c * r_pow
    scale = 2 * g * den * r_pow
    return p * (scale + h * acc), q * scale


def test_u_coefficients_equal_the_taylor_shift():
    # d_j = (-1)**j sum_{l>=j} c_l binom(l, j) / 2**l re-expands the paper's
    # P(r) = sum_l c_l r**l at r = (1-u)/2; the library sums the closed
    # form instead. Both must agree exactly, and the d_j must be positive,
    # strictly decreasing, and give the triangle and uniform slopes at
    # u = 0 and u = 1. 1711 pairs, about 1 s on a 2-core VM.
    start = time.perf_counter()
    for n in range(3, 61):
        for k in range(3, n + 1):
            cs, den = _paper_coefficients(n, k)
            top = len(cs) - 1
            shifted = tuple(
                Fraction((-1) ** j * sum(c * math.comb(l, j) * 2 ** (top - l)
                                         for l, c in enumerate(cs) if l >= j),
                         den * 2 ** top)
                for j in range(len(cs)))
            d = _u_coefficients(n, k)
            assert d == shifted, (n, k)
            assert d[-1] > 0 and all(d[j - 1] > d[j] for j in range(1, len(d)))
            assert 1 + d[0] / 2 == _exact_slope(T, n, k)
            assert 1 + sum(d) == _exact_slope(U, n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"elapsed={elapsed:.2f}s >= 5s"


SWEEP_PAIRS = [(n, k) for n in range(3, 31) for k in range(3, n + 1)] + [
    (n, k) for n in (60, 100, 150) for k in (3, n // 2, n - 1, n)]


def test_series_float_error_against_exact_series():
    # Every k for n <= 30 and four k each at n = 60, 100 and 150, on 20
    # points, five densities: about 2 s on a 2-core VM. For a < 0,
    # f = a x + b is small near omega; the worst errors measured there are
    # 3.4e-14 (a = -1, (150, 150)) and 1.5e-13 (a = -1.9, (100, 100)). A
    # bid past the float range at omega must be refused, and only if its
    # exact value there is.
    start = time.perf_counter()
    xs = np.linspace(0.05, 1.0, 20)
    for a, bound in ((0.73, 2e-15), (1.9, 2e-15), (2 - 2.0 ** -40, 2e-15),
                     (-1.0, 2e-13), (-1.9, 2e-13)):
        lin = make_linear(a, 1.0)
        worst = 0.0
        for n, k in SWEEP_PAIRS:
            try:
                bid = BidFunction.series(AuctionConfig(n, k), lin)
            except ValueError:
                num, den = _exact_series(n, k, lin, 1.0)
                assert a < 0 and num > den * int(sys.float_info.max), (a, n, k)
                continue
            for x, value in zip(xs, bid(xs)):
                num, den = _exact_series(n, k, lin, float(x))
                v_num, v_den = float(value).as_integer_ratio()
                worst = max(worst,
                            abs(v_num * den - v_den * num) / (v_den * num))
        assert worst <= bound, (a, worst)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"elapsed={elapsed:.2f}s >= 10s"


def test_series_out_of_float_range_is_refused():
    lin = make_linear(-1.9, 1.0)
    with pytest.raises(ValueError, match=r"n=150, k=150, a=-1\.9"):
        BidFunction.series(AuctionConfig(150, 150), lin)
    top = BidFunction.series(AuctionConfig(100, 100), lin)(1.0)
    assert 1e306 < top < sys.float_info.max  # largest, and still finite


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


# The Fraction ladders the integer ones replaced, kept as the reference
# they must equal field by field.

def _fraction_ladder(num, j, f, steps):
    # (N / f**j)' / f = (N' f - j a N) / f**(j+2), f' = a constant
    a = f.derivative()(0)
    for _ in range(steps):
        num = num.derivative() * f - (j * a) * num
        j += 2
    return num, j


def _fraction_psi(dist, n, k):
    big_f, f = dist.exact_polynomials()
    psi_0 = (X * big_f ** (n - 2) * f).antiderivative()
    num, j = _fraction_ladder(psi_0, 0, f, k - 1)
    oracle = RationalFunction(num, f ** j)
    scale = math.comb(n - 2, k - 2) * math.factorial(k - 2)
    bid = RationalFunction(num, scale * big_f ** (n - k) * f ** j)
    return oracle, bid


def _fraction_closed_form(dist, n, k):
    big_f, f = dist.exact_polynomials()
    a = Fraction(dist.a)
    f2 = f * f
    a_big_f = a * big_f
    power = Polynomial([1])  # (aF)**l
    acc = Polynomial()
    for l in range(k - 2):
        coeff = theta_coeff(n, k, l)
        acc = acc * f2 + (-coeff if l % 2 else coeff) * power
        power = power * a_big_f
    den = f * f2 ** (k - 3)
    num = big_f ** (n - k) * (math.comb(n - 2, k - 2) * X * den + big_f * acc)
    return RationalFunction(math.factorial(k - 2) * num, den)


REFERENCE_DISTS = {
    "uniform": U,
    "triangle-1": T,
    "triangle-2.5": make_triangle(2.5),
    "linear-1": make_linear(1.0, 1.0),
    "linear-full-mantissa": make_linear(6575255455960925 / 2 ** 53, 1.0),
    "linear-negative": make_linear(-1.3, 1.0),
}


@pytest.mark.parametrize("dist", REFERENCE_DISTS.values(),
                         ids=REFERENCE_DISTS.keys())
def test_ladders_equal_fraction_reference(dist):
    for n in range(3, 13):
        for k in range(3, n + 1):
            oracle, bid = _fraction_psi(dist, n, k)
            for got, want in ((psi_ladder_oracle(dist, n, k), oracle),
                              (bid_from_psi_ladder(dist, n, k), bid),
                              (psi_closed_form(dist, n, k),
                               _fraction_closed_form(dist, n, k))):
                assert got.num == want.num and got.den == want.den, (n, k)


@pytest.mark.parametrize("dist", [U, T, make_linear(0.73, 1.0)],
                         ids=["uniform", "triangle", "linear-0.73"])
@pytest.mark.parametrize("j", [0, 1, 4])
def test_ladder_step_matches_quotient_rule(dist, j):
    # one integer step, scale * N / g**j with g = D f, against the general
    # rational route
    density = _int_density(dist)
    _, g = _int_polynomials(density)
    num, scale = [3, -2, 0, 5, 7], Fraction(5, 3)
    stepped, new_scale, power = _ladder(num, scale, j, density, 1)
    assert power == j + 2 and new_scale == scale * density[2]
    g = Polynomial(g)
    psi = RationalFunction(Polynomial(num) * scale, g ** j)
    _, f = dist.exact_polynomials()
    assert RationalFunction(Polynomial(stepped) * new_scale, g ** power) == \
        psi.derivative() / RationalFunction(f)


def test_psi_oracle_sweep_to_n30():
    start = time.perf_counter()
    cases = [(dist, n) for dist in (U, T) for n in range(3, 31)]
    cases += [(make_linear(1.0, 1.0), n) for n in range(3, 21)]
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
    # a series bid is bounded below by the triangle slope for a > 0 and by
    # the uniform slope for a < 0
    cfg = AuctionConfig(6, 4)
    for a, edge in ((1.0, T), (-1.0, U)):
        bid = BidFunction.series(cfg, make_linear(a, 1.0))
        res = monotonicity_certificate(bid)
        assert res and res.slope == BidFunction.equilibrium(cfg, edge).slope


@pytest.mark.parametrize("a", [-1.9, -1.0, 0.3, 0.73, 1.3, 1.9])
def test_series_secants_lie_in_the_slope_sandwich(a):
    # By the mean value theorem every secant of beta is a value of beta',
    # so on an exact grid each must lie in [M(0), M(1)] for a > 0 and at
    # or above M(1) for a < 0: the certificate's bound, checked on the
    # paper's form of the series.
    lin = make_linear(a, 1.0)
    xs = [Fraction(i, 40) for i in range(1, 41)]
    for n, k in ((4, 3), (8, 5), (12, 7), (30, 15), (20, 20)):
        lower = monotonicity_certificate(
            BidFunction.series(AuctionConfig(n, k), lin)).slope
        uniform = Fraction(n - 1, n - k + 1)
        assert lower == (uniform if a < 0 else _exact_slope(T, n, k))
        betas = [Fraction(*_exact_series(n, k, lin, x)) for x in xs]
        for x0, x1, b0, b1 in zip(xs, xs[1:], betas, betas[1:]):
            secant = (b1 - b0) / (x1 - x0)
            assert lower <= secant and (a < 0 or secant <= uniform), (n, k, x0)


def test_monotonicity_reports_witness():
    # a decreasing linear bid is rejected through the exact-slope path
    bad = BidFunction(AuctionConfig(4, 2), make_uniform(1.0), Fraction(-1))
    res = monotonicity_certificate(bad)
    assert not res and res.slope == Fraction(-1)

