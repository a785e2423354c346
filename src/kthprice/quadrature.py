"""Gauss-Legendre integration with node doubling, under one fixed rule.

A START_NODES-point rule is applied, then the node count is doubled
until two successive estimates agree to TOL * max(1, |integral|), or
until MAX_NODES is reached; the difference between the last two
estimates is the reported error estimate. The first two rules always
both run, so their abscissae go to the integrand in one call; each
later doubling is one more call. For the smooth integrands used in
this package (bid integrands, trig-substituted Catalan integrands)
Gauss rules converge geometrically, so the estimate is conservative for
the finer rule.
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


@lru_cache(maxsize=None)
def _first_rules(nodes: int):
    """The nodes- and 2*nodes-point rules joined: their abscissae
    concatenated, then each rule's weights."""
    (x_lo, w_lo), (x_hi, w_hi) = _rule(nodes), _rule(2 * nodes)
    return np.concatenate((x_lo, x_hi)), w_lo, w_hi


def integrate(f, a: float, b: float) -> float:
    """Integrate a vectorized callable f over [a, b].

    f must accept an ndarray of abscissae and return an ndarray of the
    same shape, and it must be pointwise: each output entry depends only
    on the abscissa at the same position. The first two rules share one
    call of f, on their abscissae concatenated, and each later doubling
    makes one call. Raises QuadratureError when the doubling loop runs
    out of nodes; the exception carries the last estimate and its error.
    """
    if a == b:
        return 0.0
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def estimate(nodes: int) -> float:
        x, w = _rule(nodes)
        return half * float(np.dot(w, f(mid + half * x)))

    x, w_lo, w_hi = _first_rules(START_NODES)
    y = f(mid + half * x)
    prev = half * float(np.dot(w_lo, y[:w_lo.size]))
    cur = half * float(np.dot(w_hi, y[w_lo.size:]))
    nodes = 2 * START_NODES
    while True:
        err = abs(cur - prev)
        if err <= TOL * max(1.0, abs(cur)):
            return cur
        if 2 * nodes > MAX_NODES:
            break
        nodes *= 2
        prev, cur = cur, estimate(nodes)
    raise QuadratureError(
        f"quadrature did not converge within {MAX_NODES} nodes "
        f"(last error estimate {err:.3e}, tol {TOL:.3e})",
        estimate=cur,
        error_estimate=err,
    )
