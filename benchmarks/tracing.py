"""Span recorder for the traced benchmark run.

`install(recorder)` wraps the public callables of every `kthprice` module
from the outside: each binding of a wrapped function in any `kthprice`
namespace is replaced (a name is wrapped where it is looked up, so
`kthprice.verification.integrate` is wrapped as well as
`kthprice.quadrature.integrate`), and methods are replaced on their
class. No library file changes. Every wrapped call records one span
(layer name, start, end, parent span, op id) in flat in-memory arrays;
a few layers also add counts at the same boundary. Self time is a
span's duration minus the time covered by its child spans; the run is
single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

_FIELDS = 6  # name id, start, end, parent, op id, time covered by children


class Recorder:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Return fn wrapped so that each call records one span."""
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans) // _FIELDS
            spans.extend((nid, 0.0, 0.0, parent, self.op, 0.0))
            stack.append(idx)
            base = idx * _FIELDS
            start = clock()
            spans[base + 1] = start
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                spans[base + 2] = end
                stack.pop()
                if parent >= 0:
                    spans[parent * _FIELDS + 5] += end - start

        return wrapper

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=float).reshape(-1, _FIELDS)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """{layer: (calls, self seconds)} over all recorded spans."""
        t = self.table()
        out = {}
        if not len(t):
            return out
        ids = t[:, 0].astype(int)
        self_s = (t[:, 2] - t[:, 1]) - t[:, 5]
        calls = np.bincount(ids, minlength=len(self.names))
        secs = np.bincount(ids, weights=self_s, minlength=len(self.names))
        for nid, name in enumerate(self.names):
            out[name] = (int(calls[nid]), float(secs[nid]))
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, spans=self.table(),
                            names=np.array(self.names),
                            fields=np.array(["name", "start", "end", "parent",
                                             "op", "child_s"]))


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kthprice" or name.startswith("kthprice."))]


def _counting_integrate(rec: Recorder, integrate):
    """integrate() with its integrand wrapped to count abscissae and doublings."""
    from kthprice.quadrature import QuadratureError

    def counted(f, a, b, *args, **kwargs):
        evals = 0

        def integrand(x):
            nonlocal evals
            evals += 1
            rec.counts["quadrature.nodes"] += int(np.size(x))
            return f(x)

        try:
            return integrate(integrand, a, b, *args, **kwargs)
        except QuadratureError:
            rec.counts["quadrature.nonconverged"] += 1
            raise
        finally:
            rec.counts["quadrature.doublings"] += max(evals - 1, 0)

    return functools.wraps(integrate)(counted)


def _counting(rec: Recorder, key: str, fn):
    """Method fn(self, x, ...) that adds the size of x to counter key."""

    @functools.wraps(fn)
    def counted(self, x, *args, **kwargs):
        rec.counts[key] += int(np.size(x))
        return fn(self, x, *args, **kwargs)

    return counted


_POLY_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
             "__mul__", "__rmul__", "__pow__", "__divmod__", "__floordiv__",
             "__mod__", "monic", "derivative", "antiderivative", "__call__")


def install(rec: Recorder):
    """Wrap the library's public callables; return a function that undoes it."""
    import kthprice.cli as cli
    import kthprice.combinatorics as comb
    import kthprice.equilibrium as eq
    import kthprice.polynomials as poly
    import kthprice.quadrature as quad
    import kthprice.verification as ver
    from kthprice.distributions import LinearDensityDistribution as Dist

    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def method(cls, attr, layer, inner=None):
        fn = getattr(cls, attr)
        patch(cls, attr, rec.span(layer, inner(fn) if inner else fn))

    def function(fn, layer, inner=None):
        wrapped = rec.span(layer, inner(fn) if inner else fn)
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patch(module, attr, wrapped)

    method(Dist, "inverse_cdf", "distributions.inverse_cdf",
           lambda fn: _counting(rec, "distributions.inverse_cdf.values", fn))
    method(Dist, "cdf", "distributions.cdf_pdf")
    method(Dist, "pdf", "distributions.cdf_pdf")
    method(eq.BidFunction, "__call__", "equilibrium.bid",
           lambda fn: _counting(rec, "equilibrium.bid.points", fn))
    for fn in (eq.psi_ladder_oracle, eq.psi_closed_form,
               eq.bid_from_psi_ladder, eq.phi_ladder_check):
        function(fn, "equilibrium.ladder")
    for attr in _POLY_OPS:
        method(poly.Polynomial, attr, "polynomials.poly_ops")
    method(poly.Polynomial, "__eq__", "polynomials.equality")
    method(poly.RationalFunction, "__eq__", "polynomials.equality")
    method(poly.RationalFunction, "__init__", "polynomials.ratfunc_new")
    function(poly.polynomial_gcd, "polynomials.gcd")
    function(quad.integrate, "quadrature.integrate",
             lambda fn: _counting_integrate(rec, fn))
    function(ver.monte_carlo_expected_payment, "verification.mc")
    function(ver.expected_revenue, "verification.mc")
    function(ver.expected_payment_benchmark, "verification.benchmark")
    for attr in comb.__all__:
        fn = getattr(comb, attr)
        if not isinstance(fn, type):
            function(fn, "combinatorics")
    function(cli.main, "cli")

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
