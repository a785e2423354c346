"""Equilibrium bids for k-th price auctions with linear-density values.

The winner pays the k-th highest bid; with values drawn from
F(x) = a x**2/2 + b x on [0, omega] the symmetric equilibrium bid is a
finite series with Catalan-weighted coefficients, shaded above value
for k >= 3. This package computes those bids exactly, verifies them
three independent ways (symbolic differentiation ladders over exact
rational functions, Gauss-Legendre payment quadrature against the
revenue-equivalence benchmark, and sharded deterministic Monte Carlo),
and ships a CLI plus narrative demos on top.
"""

from .combinatorics import (IdentityResult, catalan, catalan_integral,
                            catalan_recurrence_holds, hagen_rothe_sides,
                            identity_sweep, jensen_sides, omega, omega_bounds,
                            shifted_jensen_sides, theta_coeff)
from .distributions import (AuctionConfig, LinearDensityDistribution,
                            make_linear, make_triangle, make_uniform)
from .equilibrium import (BidFunction, MonotonicityResult,
                          bid_from_psi_ladder, monotonicity_certificate,
                          phi_ladder_check, psi_closed_form,
                          psi_ladder_oracle, series_coefficients)
from .polynomials import Polynomial, RationalFunction, polynomial_gcd
from .quadrature import QuadratureError, integrate
from .verification import (MonteCarloResult, VerificationReport,
                           best_response_profile, expected_payment_benchmark,
                           expected_payment_quadrature, expected_revenue,
                           monte_carlo_expected_payment,
                           revenue_equivalence_check)

__version__ = "0.1.0"

__all__ = [
    "AuctionConfig",
    "BidFunction",
    "IdentityResult",
    "LinearDensityDistribution",
    "MonotonicityResult",
    "MonteCarloResult",
    "Polynomial",
    "QuadratureError",
    "RationalFunction",
    "VerificationReport",
    "best_response_profile",
    "bid_from_psi_ladder",
    "catalan",
    "catalan_integral",
    "catalan_recurrence_holds",
    "expected_payment_benchmark",
    "expected_payment_quadrature",
    "expected_revenue",
    "hagen_rothe_sides",
    "identity_sweep",
    "integrate",
    "jensen_sides",
    "make_linear",
    "make_triangle",
    "make_uniform",
    "monotonicity_certificate",
    "monte_carlo_expected_payment",
    "omega",
    "omega_bounds",
    "phi_ladder_check",
    "polynomial_gcd",
    "psi_closed_form",
    "psi_ladder_oracle",
    "revenue_equivalence_check",
    "series_coefficients",
    "shifted_jensen_sides",
    "theta_coeff",
]
