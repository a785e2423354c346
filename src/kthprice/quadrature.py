"""Gauss-Legendre integration with node doubling, under one fixed rule.

A START_NODES-point rule is applied, then the node count is doubled
until two successive estimates agree to TOL * max(1, |integral|), or
until MAX_NODES is reached; the difference between the last two
estimates is the reported error estimate. For the smooth integrands
used in this package (bid integrands, trig-substituted Catalan
integrands) Gauss rules converge geometrically, so the estimate is
conservative for the finer rule.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# The tolerance is measured against max(1, |integral|), so it acts as a
# relative tolerance for large values and an absolute one near zero.
TOL = 1e-10
START_NODES = 16
MAX_NODES = 4096


class QuadratureError(RuntimeError):
    """Raised when node doubling hits MAX_NODES before estimates settle."""

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


@lru_cache(maxsize=None)
def _rule(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def integrate(f, a: float, b: float) -> float:
    """Integrate a vectorized callable f over [a, b].

    f must accept an ndarray of abscissae and return an ndarray of the
    same shape. Raises QuadratureError when the doubling loop runs out
    of nodes; the exception carries the last estimate and its error.
    """
    if a == b:
        return 0.0
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def estimate(nodes: int) -> float:
        x, w = _rule(nodes)
        return half * float(np.dot(w, f(mid + half * x)))

    nodes = START_NODES
    prev = estimate(nodes)
    while 2 * nodes <= MAX_NODES:
        nodes *= 2
        cur = estimate(nodes)
        err = abs(cur - prev)
        if err <= TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(
        f"quadrature did not converge within {MAX_NODES} nodes "
        f"(last error estimate {err:.3e}, tol {TOL:.3e})",
        estimate=cur,
        error_estimate=err,
    )
