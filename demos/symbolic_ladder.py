"""The differentiate-and-divide ladder, run in exact rational arithmetic.

Every object printed here is a polynomial or a quotient of polynomials
with Fraction coefficients; no floats are involved until the very last
comparison table.
"""

from fractions import Fraction

from kthprice import (AuctionConfig, BidFunction, bid_from_psi_ladder,
                      make_linear, make_triangle, make_uniform,
                      phi_ladder_check, psi_closed_form, psi_ladder_oracle)

# the ladder output psi_{k-1} for a few small auctions
for name, dist in [("uniform", make_uniform(1.0)),
                   ("triangle", make_triangle(1.0))]:
    for n, k in [(3, 3), (5, 3), (5, 4)]:
        psi = psi_ladder_oracle(dist, n, k)
        print(f"{name} n={n} k={k}: psi_{k - 1} = {psi}")
print()

# ladder vs the telescoped closed form, as exact identities
lin = make_linear(1.0, 1.0)
agree = all(psi_ladder_oracle(lin, n, k) == psi_closed_form(lin, n, k)
            for n in range(3, 9) for k in range(3, n + 1))
print("ladder == closed form for all 3 <= k <= n <= 8 (linear a=1):", agree)

# the bid itself, straight from the ladder
beta = bid_from_psi_ladder(lin, 6, 4)
series = BidFunction.series(AuctionConfig(6, 4), lin)
print(f"beta_4 for n=6, linear a=1: {beta}")
for x in (0.25, 0.5, 0.75, 1.0):
    exact = float(beta(Fraction(x)))
    print(f"  x={x}: exact {exact:.12f}   series {series(x):.12f}")
print()

# the reverse direction, by one integration rather than a ladder: the
# expected payment under the bid,
# binom(n-2, k-2) int_0^x beta (F(x) - F)**(k-2) F**(n-k) f dy, must equal
# the second-price payment psi_0 as a polynomial (revenue equivalence);
# a bid of any other slope fails, so this checks the bid itself, not
# just the formula it came from
print("payment identity holds (uniform, n=7, k=5):",
      phi_ladder_check(make_uniform(1.0), 7, 5))
print("payment identity holds (triangle, n=6, k=6):",
      phi_ladder_check(make_triangle(1.0), 6, 6))
