"""Catalan numbers three ways, and the coefficient tables built from them.

Run:  python3 demos/catalan_and_identities.py
"""

from fractions import Fraction

from kthprice import (catalan, catalan_integral, catalan_recurrence_holds,
                      jensen_sides, hagen_rothe_sides, omega, omega_bounds,
                      theta_coeff)

# the closed form, the recurrence, and a definite integral all agree
print("first Catalan numbers:", [catalan(l) for l in range(10)])
print("recurrence holds up to l=60:", catalan_recurrence_holds(60))
for l in (0, 3, 8, 12):
    approx = catalan_integral(l)
    print(f"  integral l={l}: {approx:.6f}  (exact {catalan(l)})")

# the bid-series coefficients: theta(n, k, l) for a small auction
print()
print("theta table for n=7:")
for k in range(3, 8):
    entries = [theta_coeff(7, k, l) for l in range(k - 2)]
    print(f"  k={k}: " + ", ".join(str(e) for e in entries))

# alternating Catalan sums stay positive and are sandwiched between
# one half and seven eighths of a single binomial coefficient
print()
print("omega values and their exact bounds (n=10):")
for k in range(3, 7):
    lo, hi = omega_bounds(10, k)
    print(f"  k={k}: omega={omega(10, k)}  bounds hold:",
          lo <= omega(10, k) <= hi)
print("k=3 always sits exactly on the lower bound:",
      all(omega(n, 3) == Fraction(1, 2) for n in range(3, 25)))

# the binomial convolution identities behind the bounds, at real arguments
print()
lhs, rhs = jensen_sides(2.0, 3.0, 0.0, 2)
print(f"jensen at (2, 3, 0, 2):      lhs={lhs:g} rhs={rhs:g}")
lhs, rhs = hagen_rothe_sides(3.0, 2.0, 0.0, 2)
print(f"hagen-rothe at (3, 2, 0, 2): lhs={lhs:g} rhs={rhs:g}")
