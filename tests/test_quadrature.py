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
    """f plus the list of the abscissa counts it was called with."""
    sizes = []

    def wrapper(y):
        sizes.append(y.size)
        return f(y)
    return wrapper, sizes


def test_first_two_rules_share_one_call():
    f, sizes = _counted(np.sin)
    assert integrate(f, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)
    assert sizes == [16 + 32]


def test_each_later_doubling_is_one_call():
    # y**60 is exact under 32 nodes (degree <= 63); 16 miss it by ~1e-9
    f, sizes = _counted(lambda y: y ** 60)
    assert integrate(f, 0.0, 1.0) == pytest.approx(1 / 61, abs=1e-15)
    assert sizes == [16 + 32, 64]


def test_joined_rule_follows_start_nodes(monkeypatch):
    monkeypatch.setattr(quadrature, "START_NODES", 8)
    f, sizes = _counted(np.cos)
    assert integrate(f, 0.0, 1.0) == pytest.approx(math.sin(1.0), abs=1e-12)
    assert sizes == [8 + 16]


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
