"""Equilibrium bids for k-th price auctions with linear-density values.

The winner pays the k-th highest bid; with values drawn from
F(x) = a x**2/2 + b x on [0, omega] the symmetric equilibrium bid is a
finite series with Catalan-weighted coefficients, shaded above value
for k >= 3. This package computes those bids exactly, verifies them
three independent ways (symbolic differentiation ladders over exact
rational functions, Gauss-Legendre payment quadrature against the
revenue-equivalence benchmark, and sharded deterministic Monte Carlo),
and ships a CLI plus narrative demos on top.

Each module's __all__ is its one list of public names; the package
re-exports them all, and its __all__ is their sorted union.
"""

from . import (combinatorics, distributions, equilibrium, polynomials,
               quadrature, verification)
from .combinatorics import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .equilibrium import *  # noqa: F401,F403
from .polynomials import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .verification import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(name for module in (combinatorics, distributions, equilibrium,
                                     polynomials, quadrature, verification)
                 for name in module.__all__)
