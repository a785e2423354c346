"""Adaptive Gauss-Legendre integration helper."""

import math

import numpy as np
import pytest

import kthprice.quadrature as quadrature
from kthprice import QuadratureError, integrate


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
