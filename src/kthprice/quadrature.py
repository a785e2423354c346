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

The upper limit may also be a 1-d array, one row per limit: one
integrand call per round serves every row, and each row keeps its own
stop test and its own 1-d dot product (a 2-d matmul may sum in another
order), so it gets the scalar call's float. Callers pass at most
BLOCK_ROWS rows per call: 4 MB per array at MAX_NODES.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["QuadratureError", "integrate"]

# The tolerance is measured against max(1, |integral|), so it acts as a
# relative tolerance for large values and an absolute one near zero.
TOL = 1e-10
START_NODES = 16
MAX_NODES = 4096
BLOCK_ROWS = 128


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


def integrate(f, a: float, b):
    """Integrate a vectorized callable f over [a, b], or over [a, b[i]]
    for each entry of a 1-d array b, returning an ndarray.

    f takes one ndarray of abscissae and returns values of its shape,
    each depending only on its own abscissa and row. For an array b the
    abscissae have shape (len(b), nodes), rows in b's order, every row in
    every round, so f may hold per-row data as a column. A row is fixed
    in the round where it converges; b[i] == a gives 0.0. The first two
    rules share one call of f; each later doubling makes one call.
    QuadratureError, raised when the doubling runs out of nodes, carries
    the last estimate and error of the first such row in b's order.
    """
    rows = not isinstance(b, float) and np.ndim(b) > 0
    if rows:
        b = np.asarray(b, dtype=float)
        if b.ndim > 1:
            raise ValueError("integrate: b must be a scalar or a 1-d array")
    elif a == b:
        return 0.0
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    halves, open_rows = [half], [0]
    if rows:
        halves, half, mid = half.tolist(), half[:, None], mid[:, None]
        open_rows = np.flatnonzero(b != a).tolist()
    prev, cur = [0.0] * len(halves), [0.0] * len(halves)
    if not open_rows:
        return np.array(cur)

    # a scalar b's abscissae stay 1-d: its one row is f's whole result
    x, w_lo, w = _first_rules(START_NODES)
    y = f(mid + half * x)
    y = y if rows else (y,)
    for i in open_rows:
        cur[i] = halves[i] * float(w_lo.dot(y[i][:w_lo.size]))
    part = slice(w_lo.size, None)  # the second rule's abscissae
    nodes = 2 * START_NODES
    while True:
        still_open = []
        for i in open_rows:
            prev[i], cur[i] = cur[i], halves[i] * float(w.dot(y[i][part]))
            if not abs(cur[i] - prev[i]) <= TOL * max(1.0, abs(cur[i])):
                still_open.append(i)
        open_rows = still_open
        if not open_rows:
            return np.array(cur) if rows else cur[0]
        if 2 * nodes > MAX_NODES:
            break
        nodes *= 2
        x, w = _rule(nodes)
        y, part = f(mid + half * x), slice(None)
        y = y if rows else (y,)
    i = open_rows[0]
    err = abs(cur[i] - prev[i])
    raise QuadratureError(
        f"quadrature did not converge within {MAX_NODES} nodes "
        f"(last error estimate {err:.3e}, tol {TOL:.3e})",
        estimate=cur[i],
        error_estimate=err,
    )
