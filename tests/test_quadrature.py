"""Adaptive Gauss-Legendre integration helper."""

import math

import numpy as np
import pytest

import kthprice.combinatorics as combinatorics
import kthprice.quadrature as quadrature
import kthprice.verification as verification
from kthprice import (AuctionConfig, BidFunction, QuadratureError,
                      catalan_integral, expected_payment_quadrature,
                      integrate, make_linear, make_triangle, make_uniform)


def test_polynomials_are_exact():
    assert integrate(lambda y: y ** 3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)
    assert integrate(lambda y: np.full_like(y, 2.0), -1.0, 3.0) == pytest.approx(8.0)


def test_smooth_nonpolynomial():
    got = integrate(np.sin, 0.0, math.pi)
    assert got == pytest.approx(2.0, abs=1e-12)


def test_peaked_integrand_within_1e_10():
    # 1/(c^2 + x^2), c = 0.05, peaks sharply at 0: the first two rules are
    # far off, so only doubling on to TOL = 1e-10 gets within 1e-10
    exact = 20.0 * math.atan(20.0)
    got = integrate(lambda y: 1.0 / (0.05 ** 2 + y * y), 0.0, 1.0)
    assert abs(got - exact) <= 1e-10 * exact


def test_empty_interval():
    assert integrate(lambda y: y, 0.7, 0.7) == 0.0


def test_nonconvergence_raises_with_estimate(monkeypatch):
    # integrable singularity, far too slow for fixed Gauss-Legendre; a
    # small rule keeps the test fast (the real one ends at 4096 nodes)
    monkeypatch.setattr(quadrature, "TOL", 1e-14)
    monkeypatch.setattr(quadrature, "START_NODES", 4)
    monkeypatch.setattr(quadrature, "MAX_NODES", 16)
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda y: 1.0 / np.sqrt(y), 1e-12, 1.0)
    assert exc.value.estimate == pytest.approx(2.0, abs=0.1)
    assert exc.value.error_estimate > 0.0


def _counted(f):
    """f plus the list of the abscissa shapes it was called with."""
    shapes = []

    def wrapper(y):
        shapes.append(y.shape)
        return f(y)
    return wrapper, shapes


def test_first_two_rules_share_one_call():
    f, shapes = _counted(np.sin)
    assert integrate(f, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)
    assert shapes == [(16 + 32,)]


def test_each_later_doubling_is_one_call():
    # y**60 is exact under 32 nodes (degree <= 63); 16 miss it by ~1e-9
    f, shapes = _counted(lambda y: y ** 60)
    assert integrate(f, 0.0, 1.0) == pytest.approx(1 / 61, abs=1e-15)
    assert shapes == [(16 + 32,), (64,)]


def test_joined_rule_follows_start_nodes(monkeypatch):
    monkeypatch.setattr(quadrature, "START_NODES", 8)
    f, shapes = _counted(np.cos)
    assert integrate(f, 0.0, 1.0) == pytest.approx(math.sin(1.0), abs=1e-12)
    assert shapes == [(8 + 16,)]


def _two_call_integrate(f, a, b):
    """integrate as it was before the first two rules shared one call of f:
    one call per rule, the same arithmetic otherwise."""
    if a == b:
        return 0.0
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def estimate(nodes):
        x, w = np.polynomial.legendre.leggauss(nodes)
        return half * float(np.dot(w, f(mid + half * x)))

    nodes = quadrature.START_NODES
    prev = estimate(nodes)
    while 2 * nodes <= quadrature.MAX_NODES:
        nodes *= 2
        cur = estimate(nodes)
        err = abs(cur - prev)
        if err <= quadrature.TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError("no convergence", cur, err)


_QUAD_POINTS = ((5, 3), (6, 4), (8, 5), (10, 3), (12, 8), (20, 10), (30, 3),
                (30, 20), (45, 30), (60, 50))
_A_FULL = 6575255455960925 / 2 ** 53  # a full-mantissa 0.73


@pytest.mark.parametrize("dist", [
    make_uniform(1.0), make_triangle(1.0), make_linear(_A_FULL, 1.0),
    make_linear(-1.3, 1.0)], ids=["uniform", "triangle", "a-0.73", "a--1.3"])
def test_payments_equal_two_call_loop(dist, monkeypatch):
    payments = []
    for n, k in _QUAD_POINTS:
        cfg = AuctionConfig(n, k)
        for bid in (BidFunction.equilibrium(cfg, dist),
                    BidFunction.series(cfg, dist),
                    BidFunction.second_price(cfg, dist)):
            for i in range(1, 21):
                x = dist.omega * i / 20
                payments.append((n, k, bid, x, expected_payment_quadrature(
                    bid, dist, n, k, x)))
    monkeypatch.setattr(verification, "integrate", _two_call_integrate)
    for n, k, bid, x, got in payments:
        assert got == expected_payment_quadrature(bid, dist, n, k, x), (n, k, x)


def test_catalan_integral_equals_two_call_loop(monkeypatch):
    got = [catalan_integral(l) for l in range(41)]
    monkeypatch.setattr(combinatorics, "integrate", _two_call_integrate)
    assert got == [catalan_integral(l) for l in range(41)]


# Upper limits as an array: one row per limit. With TOL at 1e-13, y**20
# settles at 32 nodes, y**60 at 64 and y**200 at 128; rows 3 and 5 have
# b == a.
_POWERS = np.array([20.0, 60.0, 200.0, 60.0, 20.0, 200.0])
_UPPER = np.array([1.0, 0.9, 1.0, 0.1, 0.7, 0.1])


def test_array_rows_equal_scalar_calls(monkeypatch):
    monkeypatch.setattr(quadrature, "TOL", 1e-13)
    f, shapes = _counted(lambda y: np.power(y, _POWERS[:, None]))
    got = integrate(f, 0.1, _UPPER)
    assert isinstance(got, np.ndarray) and got.shape == _UPPER.shape
    # every row in every round, rows in b's order
    assert shapes == [(6, 48), (6, 64), (6, 128)]
    settled = []
    for p, b, value in zip(_POWERS, _UPPER, got):
        g, row_shapes = _counted(lambda y: np.power(y, p[None]))
        assert value == integrate(g, 0.1, b), (p, b)
        settled.append(row_shapes)
    assert got[3] == got[5] == 0.0
    assert settled == [[(48,)], [(48,), (64,)], [(48,), (64,), (128,)],
                       [], [(48,)], []]


def test_array_of_equal_limits_calls_nothing():
    f, shapes = _counted(np.sin)
    assert integrate(f, 0.5, np.array([0.5, 0.5])).tolist() == [0.0, 0.0]
    assert integrate(f, 0.5, np.array([])).shape == (0,)
    assert shapes == []


def test_upper_limits_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-d"):
        integrate(np.sin, 0.0, np.ones((2, 2)))


def test_array_nonconvergence_raises_for_first_failing_row(monkeypatch):
    monkeypatch.setattr(quadrature, "TOL", 1e-14)
    monkeypatch.setattr(quadrature, "START_NODES", 4)
    monkeypatch.setattr(quadrature, "MAX_NODES", 16)
    # y**-0.5 (rows 1 and 3) is too slow for these rules, y**3 is exact
    powers = np.array([3.0, -0.5, 3.0, -0.5])
    upper = np.array([1.0, 1.0, 0.5, 0.5])
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda y: np.power(y, powers[:, None]), 1e-12, upper)
    with pytest.raises(QuadratureError) as row:
        integrate(lambda y: np.power(y, powers[1:2]), 1e-12, 1.0)
    assert str(exc.value) == str(row.value)
    assert exc.value.estimate == row.value.estimate
    assert exc.value.error_estimate == row.value.error_estimate
    with pytest.raises(QuadratureError) as last:
        integrate(lambda y: np.power(y, powers[3:]), 1e-12, 0.5)
    assert last.value.estimate != row.value.estimate
