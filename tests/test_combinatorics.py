"""Catalan numbers, theta/omega coefficients, convolution identities."""

import math
import time
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from kthprice import (catalan, catalan_integral, catalan_recurrence_holds,
                      hagen_rothe_sides, jensen_sides, omega, omega_bounds,
                      omega_bounds_hold, shifted_jensen_sides, theta_coeff)
from kthprice.combinatorics import _random_cases

CATALAN_PREFIX = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_catalan_known_values():
    assert [catalan(l) for l in range(11)] == CATALAN_PREFIX
    assert isinstance(catalan(30), int)


def test_catalan_rejects_negative_index():
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_recurrence_exact_to_60():
    assert catalan_recurrence_holds(60)


def test_catalan_integral_matches_exact():
    for l in range(13):
        approx = catalan_integral(l)
        assert abs(approx - catalan(l)) / catalan(l) <= 1e-6, l


def test_catalan_integral_tiny_tolerance_example():
    assert abs(catalan_integral(0) - 1.0) <= 1e-8


def test_identity_trivial_and_frozen_cases():
    assert jensen_sides(1.0, 1.0, 0.5, 0) == (1.0, 1.0)
    lhs, rhs = jensen_sides(2.0, 3.0, 0.0, 2)
    assert lhs == rhs == 10.0
    lhs, rhs = hagen_rothe_sides(3.0, 2.0, 0.0, 2)
    assert lhs == rhs == 10.0
    lhs, rhs = shifted_jensen_sides(4.0, 1.0, 3)
    assert lhs == rhs == 10.0
    assert shifted_jensen_sides(3.0, 0.0, 0) == (1.0, 1.0)


def test_identity_real_argument_cases():
    for lhs, rhs in (jensen_sides(1.7, 4.2, -0.9, 7),
                     hagen_rothe_sides(2.3, 5.1, 1.4, 6),
                     shifted_jensen_sides(6.5, -0.3, 8)):
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_hagen_rothe_rejects_vanishing_denominator():
    # m + z*l = 0 at l = 2
    with pytest.raises(ValueError):
        hagen_rothe_sides(2.0, 1.0, -1.0, 4)


def test_identities_randomized():
    rng = np.random.default_rng(97)
    for _ in range(200):
        m = float(5.0 * rng.random()) or 1.0
        r = float(-3.0 + 13.0 * rng.random())
        z = float(-2.0 + 4.0 * rng.random())
        s = int(rng.integers(0, 13))
        lhs, rhs = jensen_sides(m, r, z, s)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), (m, r, z, s)
        lhs, rhs = shifted_jensen_sides(r, z, s)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), (r, z, s)
        if all(m + z * l != 0 for l in range(s + 1)):
            lhs, rhs = hagen_rothe_sides(m, r, z, s)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), (m, r, z, s)


# Reference sides: each summed term by term in Fraction arithmetic over
# the exact binary values of the inputs and rounded once. The library
# computes the same exact sides in integers over one denominator, so the
# floats must agree bit for bit.

def _binom_falling(x, s):
    out = Fraction(1)
    for i in range(s):
        out *= Fraction(x - i, i + 1)
    return out


def reference_jensen(m, r, z, s):
    mf, rf, zf = Fraction(m), Fraction(r), Fraction(z)
    lhs = sum((_binom_falling(mf + zf * l, l)
               * _binom_falling(rf - zf * l, s - l) for l in range(s + 1)),
              Fraction(0))
    rhs = sum((_binom_falling(mf + rf - l, s - l) * zf ** l
               for l in range(s + 1)), Fraction(0))
    return float(lhs), float(rhs)


def reference_hagen_rothe(m, r, z, s):
    mf, rf, zf = Fraction(m), Fraction(r), Fraction(z)
    for l in range(s + 1):
        if mf + zf * l == 0:
            raise ValueError(f"m + z*l vanishes at l={l}")
    lhs = sum((mf / (mf + zf * l)
               * _binom_falling(mf + zf * l, l)
               * _binom_falling(rf - zf * l, s - l) for l in range(s + 1)),
              Fraction(0))
    return float(lhs), float(_binom_falling(mf + rf, s))


def reference_shifted_jensen(r, z, s):
    rf, zf = Fraction(r), Fraction(z)
    lhs = sum((_binom_falling(rf - l, s - l) * zf ** l for l in range(s + 1)),
              Fraction(0))
    rhs = sum((_binom_falling(rf + 1, s - l) * (zf - 1) ** l
               for l in range(s + 1)), Fraction(0))
    return float(lhs), float(rhs)


def assert_same_sides(sides, reference, *args):
    """Equal float pairs, or the same exception type from both."""
    try:
        expected = reference(*args)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            sides(*args)
        return
    assert sides(*args) == expected, args


def test_sides_bit_identical_to_fraction_reference_on_random_draws():
    rng = np.random.default_rng(2024)
    for m, r, z, s in islice(_random_cases(rng, avoid_poles=True), 2000):
        assert_same_sides(jensen_sides, reference_jensen, m, r, z, s)
        assert_same_sides(hagen_rothe_sides, reference_hagen_rothe, m, r, z, s)
        assert_same_sides(shifted_jensen_sides, reference_shifted_jensen,
                          r, z, s)


@pytest.mark.parametrize("m, r, z", [
    (1.7, 4.2, -0.9),
    (2.3, 5.1, 0.0),               # z = 0
    (2.3, 5.1, 5e-324),            # subnormal z
    (3, -2, 1),                    # ints
    (np.float64(0.3), np.float64(7.9), np.float64(-1.1)),
    (Fraction(1, 3), 2.5, Fraction(-2, 3)),   # denominators not powers of 2
    (0.75, 1e300, 0.5),            # r = 1e300: the sides overflow for s >= 2
    (0.0, 1.5, 0.25),              # m = 0: Hagen-Rothe pole at l = 0
    (2.0, 1.0, -1.0),              # Hagen-Rothe pole at l = 2
])
@pytest.mark.parametrize("s", [0, 1, 2, 7, 12])
def test_sides_bit_identical_to_fraction_reference_on_edge_cases(m, r, z, s):
    assert_same_sides(jensen_sides, reference_jensen, m, r, z, s)
    assert_same_sides(hagen_rothe_sides, reference_hagen_rothe, m, r, z, s)
    assert_same_sides(shifted_jensen_sides, reference_shifted_jensen, r, z, s)


def test_sides_accept_numpy_integers():
    assert jensen_sides(1.7, 4.2, -0.9, np.int64(7)) == \
        jensen_sides(1.7, 4.2, -0.9, 7)
    assert shifted_jensen_sides(np.int64(6), 0.5, 3) == \
        shifted_jensen_sides(6, 0.5, 3)


def test_theta_and_omega_equal_term_by_term_fraction_sums():
    for n in range(3, 61):
        for k in range(3, n + 1):
            thetas = [Fraction(math.comb(n - 2, k - 3 - l)
                               * (math.comb(2 * l, l) // (l + 1)), 2 ** l)
                      for l in range(k - 2)]
            assert [theta_coeff(n, k, l) for l in range(k - 2)] == thetas
            total = Fraction(0)
            for l, theta in enumerate(thetas):
                term = theta / 2 ** (l + 1)
                total += -term if l % 2 else term
            assert omega(n, k) == total, (n, k)


def theta_row(n, k):
    return [theta_coeff(n, k, l) for l in range(k - 2)]


def test_theta_tables_frozen():
    assert theta_row(3, 3) == [Fraction(1)]
    assert theta_row(5, 4) == [Fraction(3), Fraction(1, 2)]
    assert theta_row(4, 4) == [Fraction(2), Fraction(1, 2)]
    # fractions arrive in lowest terms with positive denominators
    for entry in theta_row(12, 9):
        from math import gcd
        assert entry.denominator > 0
        assert gcd(entry.numerator, entry.denominator) == 1


def test_theta_validation():
    with pytest.raises(ValueError):
        theta_coeff(2, 3, 0)  # n < 3
    with pytest.raises(ValueError):
        theta_coeff(4, 2, 0)  # k < 3
    with pytest.raises(ValueError):
        theta_coeff(5, 4, -1)  # l < 0
    with pytest.raises(ValueError):
        theta_coeff(5, 4, 2)  # l > k-3


def test_omega_frozen_values():
    assert omega(3, 3) == Fraction(1, 2)
    assert omega(5, 4) == Fraction(11, 8)
    assert omega(4, 4) == Fraction(7, 8)


def _general_binom(x: Fraction, j: int) -> Fraction:
    # x (x-1) ... (x-j+1) / j!, for any rational x
    out = Fraction(1)
    for i in range(j):
        out *= x - i
    return out / math.factorial(j)


def test_omega_closed_form_by_an_independent_route():
    # Omega(n, k) = binom(n - 3/2, k - 2) - binom(n - 2, k - 2), from
    # sum_l C_l (-t/4)**l = 2 (sqrt(1+t) - 1) / t; shares no code with omega
    start = time.perf_counter()
    pairs = [(n, k) for n in range(3, 81) for k in range(3, n + 1)]
    assert len(pairs) == 3081
    for n, k in pairs:
        want = (_general_binom(Fraction(2 * n - 3, 2), k - 2)
                - _general_binom(Fraction(n - 2), k - 2))
        assert omega(n, k) == want, (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"elapsed={elapsed:.2f}s >= 5s"


def test_omega_bounds_rejects_outside_wedge():
    assert omega_bounds(10, 3) == (Fraction(1, 2), Fraction(7, 8))
    assert omega_bounds(10, 6) == (Fraction(35, 2), Fraction(245, 8))
    assert omega_bounds(6, 5) is None
    with pytest.raises(ValueError):
        omega_bounds_hold(6, 5)  # n + 4 = 10 = 2k
    with pytest.raises(ValueError):
        omega_bounds(5, 2)
    with pytest.raises(ValueError):
        omega(5, 2)
