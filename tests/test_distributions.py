"""Linear-density distributions and auction configs: parameter checks,
CDF, density and inverse CDF."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from kthprice import (
    AuctionConfig,
    BidFunction,
    LinearDensityDistribution,
    make_linear,
    make_triangle,
    make_uniform,
    monte_carlo_expected_payment,
)


def test_factories_cover_the_three_families():
    u = make_uniform(2.0)
    assert (u.a, u.b, u.omega) == (0.0, 0.5, 2.0)
    t = make_triangle(2.0)
    assert (t.a, t.b, t.omega) == (0.5, 0.0, 2.0)
    lin = make_linear(1.0, 1.0)
    assert (lin.a, lin.b, lin.omega) == (1.0, 0.5, 1.0)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LinearDensityDistribution(0.0, 1.0, 0.0)       # omega <= 0
    with pytest.raises(ValueError):
        LinearDensityDistribution(2.0, -0.5, 1.0)      # density negative at 0
    with pytest.raises(ValueError):
        LinearDensityDistribution(0.0, 0.0, 1.0)       # b = 0 needs a > 0
    with pytest.raises(ValueError):
        LinearDensityDistribution(0.0, 1.0, 2.0)       # mass 2, not normalised
    with pytest.raises(ValueError):
        make_linear(-2.0, 1.0)                          # f(omega) = 0
    with pytest.raises(ValueError):
        make_uniform(-1.0)
    # products of in-range ints leave the float range as floats, with no
    # OverflowError; a bool is no parameter, although True == 1
    for make in (lambda: LinearDensityDistribution(10 ** 200, 0, 10 ** 200),
                 lambda: make_linear(10 ** 200, 10 ** 200),
                 lambda: make_uniform(True),
                 lambda: make_linear(0.5, np.True_),
                 lambda: LinearDensityDistribution(True, 0.5, 1.0)):
        with pytest.raises(ValueError):
            make()


INF, NAN, HUGE = float("inf"), float("nan"), 10 ** 400  # HUGE: no float


@pytest.mark.parametrize("make, field", [
    (lambda: make_uniform(INF), "omega"),
    (lambda: make_triangle(INF), "omega"),
    (lambda: make_linear(0.5, INF), "omega"),
    (lambda: make_linear(NAN, 1.0), "a"),
    (lambda: make_linear(INF, 1.0), "a"),
    (lambda: LinearDensityDistribution(0.0, NAN, 1.0), "b"),
    (lambda: LinearDensityDistribution(0.0, 1.0, NAN), "omega"),
    (lambda: LinearDensityDistribution(-INF, 1.0, 1.0), "a"),
    (lambda: make_uniform(HUGE), "omega"),
    (lambda: make_triangle(HUGE), "omega"),
    (lambda: make_linear(0.5, HUGE), "omega"),
    (lambda: make_linear(HUGE, 1.0), "a"),
    (lambda: LinearDensityDistribution(0, 1, HUGE), "omega"),
], ids=["uniform-inf", "triangle-inf", "linear-omega-inf", "linear-a-nan",
        "linear-a-inf", "b-nan", "omega-nan", "a-minus-inf", "uniform-huge",
        "triangle-huge", "linear-omega-huge", "linear-a-huge", "omega-huge"])
def test_non_finite_parameter_is_named(make, field):
    # checked before the sign and mass checks, which would blame another
    # quantity: make_uniform(inf) has b = 1/inf = 0, make_linear(0.5, inf)
    # has b = nan; an int past the float range is no finite float either,
    # where arithmetic on it would raise OverflowError
    with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        make()


def test_parameters_are_stored_as_their_nearest_floats():
    # an int, Fraction, Decimal or numpy number is read once, as a float
    third = 1.0 / 3.0
    for a, b, omega in ((Fraction(1, 3), Fraction(5, 6), 1),
                        (Decimal(1) / 3, Decimal(5) / 6, Decimal(1)),
                        (np.float64(third), np.float64(5 / 6), np.int64(1))):
        dist = LinearDensityDistribution(a, b, omega)
        assert [type(v) for v in (dist.a, dist.b, dist.omega)] == [float] * 3
        assert dist == LinearDensityDistribution(third, 5 / 6, 1.0)
    half = np.float32(0.5)
    assert make_linear(half, 1).b == 0.75 and type(make_linear(half, 1).a) is float
    assert make_uniform(1).omega == 1.0 and type(make_uniform(1).omega) is float
    assert make_triangle(Fraction(2)) == make_triangle(2.0)
    assert make_uniform(Decimal("0.5")) == LinearDensityDistribution(0.0, 2.0, 0.5)
    big = make_uniform(10 ** 300)
    assert type(big.omega) is float and big.omega == 1e300


def test_fraction_parameters_give_the_float_distributions_results():
    exact = LinearDensityDistribution(Fraction(1, 3), Fraction(5, 6), 1)
    dist = LinearDensityDistribution(1.0 / 3.0, 5.0 / 6.0, 1.0)
    xs = np.linspace(0.0, 1.0, 7)
    cfg = AuctionConfig(5, 3)
    for d in (exact, dist):
        for values in (d.cdf(xs), d.pdf(xs), d.inverse_cdf(xs),
                       BidFunction.series(cfg, d)(xs)):
            assert values.dtype == np.float64
    payments = [monte_carlo_expected_payment(BidFunction.equilibrium(cfg, d),
                                             d, 5, 3, 0.7, 4096, 3)
                for d in (exact, dist)]
    assert payments[0] == payments[1] and payments[0].wins > 0


EXTREME_OMEGAS = [1e-320, 1e-170, 1e170, 1e300]


@pytest.mark.parametrize("omega", EXTREME_OMEGAS)
@pytest.mark.parametrize("make", [make_uniform, make_triangle,
                                  lambda omega: make_linear(0.5, omega)],
                         ids=["uniform", "triangle", "linear"])
def test_extreme_omega_gives_a_distribution_or_a_value_error(make, omega):
    # omega**2 overflows or underflows here; float ** raises for the first,
    # and 2/0 for the second, but neither may leave the constructor
    try:
        dist = make(omega)
    except ValueError as exc:
        assert str(exc).split()[0] in ("a", "b", "omega"), exc
        return
    assert dist.omega == omega
    assert abs(dist.cdf(omega) - 1.0) <= 1e-12
    assert dist.pdf(omega) > 0.0


def test_extreme_omega_verdicts():
    # the uniform needs no omega**2 and stays valid; the triangle's
    # a = 2/omega**2 leaves the float range at both ends
    for omega in EXTREME_OMEGAS[1:]:
        assert make_uniform(omega).b == 1.0 / omega
    with pytest.raises(ValueError, match="^b must be finite, got inf"):
        make_uniform(1e-320)  # 1/omega overflows
    for omega, message in ((1e-320, "finite, got inf"),
                           (1e-170, "finite, got inf"),
                           (1e170, "positive when b = 0")):
        with pytest.raises(ValueError, match=f"^a must be {message}"):
            make_triangle(omega)
    with pytest.raises(ValueError, match="^b must be finite, got -inf"):
        make_linear(0.5, 1e300)
    # past omega**2's range, a subnormal a = 2/omega**2 is still a density
    wide = make_triangle(2e154)
    assert 0.0 < wide.a < 2.3e-308 and abs(wide.cdf(2e154) - 1.0) <= 1e-12


def test_parameters_bit_identical_to_the_power_formulas():
    # where omega**2 stays in the float range, a and b are the float **
    # formulas' bits (** and * round omega**2 differently at times)
    rng = np.random.default_rng(7)
    omegas = 10.0 ** rng.uniform(-150.0, 150.0, 2000)
    for omega in [1e-150, 1e150, 1.0, 2.0, *omegas.tolist()]:
        assert make_triangle(omega).a == 2.0 / omega ** 2, omega
        assert make_uniform(omega).b == 1.0 / omega, omega
        # near 1, 1 - a*omega**2/2 is exact and keeps a last-bit change
        for a in (1.9 / omega ** 2, -1.5 / omega ** 2):
            lin = make_linear(a, omega)
            assert lin.b == (1.0 - a * omega ** 2 / 2.0) / omega, omega


def test_auction_config_validation():
    AuctionConfig(5, 3)
    AuctionConfig(np.int64(6), np.int32(4))
    with pytest.raises(ValueError):
        AuctionConfig(5, 1)
    with pytest.raises(ValueError):
        AuctionConfig(3, 4)
    # non-integers name the field instead of failing later in math.comb
    for n, k, field in ((6.0, 4, "n"), (5.5, 3, "n"), (6, 4.0, "k"),
                        (np.float64(6.0), 4, "n"), ("6", 4, "n")):
        with pytest.raises(ValueError, match=f"AuctionConfig.{field} "):
            AuctionConfig(n, k)


def test_cdf_pdf_frozen_values():
    u, t, lin = make_uniform(1.0), make_triangle(1.0), make_linear(1.0, 1.0)
    assert u.cdf(0.5) == 0.5 and u.pdf(0.5) == 1.0
    assert t.cdf(0.5) == 0.25 and t.pdf(0.5) == 1.0
    assert lin.cdf(0.5) == 0.375 and lin.pdf(0.5) == 1.0
    # endpoints
    for d in (u, t, lin):
        assert d.cdf(0.0) == 0.0
        assert d.cdf(d.omega) == pytest.approx(1.0, abs=1e-15)


def test_scalar_in_scalar_out():
    t = make_triangle(1.0)
    assert isinstance(t.cdf(0.5), float)
    assert isinstance(t.inverse_cdf(0.25), float)
    arr = t.cdf(np.array([0.1, 0.2]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)


def test_inverse_cdf_frozen_and_round_trip():
    u, t, lin = make_uniform(1.0), make_triangle(1.0), make_linear(1.0, 1.0)
    assert u.inverse_cdf(0.25) == 0.25
    assert t.inverse_cdf(0.25) == 0.5       # sqrt(u)
    assert lin.inverse_cdf(0.375) == 0.5
    grid = np.linspace(0.0, 1.0, 101)
    for d in (u, t, lin, make_linear(-1.5, 1.0), make_triangle(2.5)):
        np.testing.assert_allclose(d.cdf(d.inverse_cdf(grid)), grid, atol=1e-12)
        xs = np.linspace(0.0, d.omega, 101)
        np.testing.assert_allclose(d.inverse_cdf(d.cdf(xs)), xs, atol=1e-12)


def test_inverse_cdf_triangle_origin():
    # denominator b + sqrt(...) vanishes at u = 0 when b = 0; must not NaN
    t = make_triangle(1.0)
    assert t.inverse_cdf(0.0) == 0.0
    assert t.inverse_cdf(np.array([0.0, 1.0])).tolist() == [0.0, 1.0]


def reference_inverse_cdf(dist, u):
    """The inverse CDF as one expression, a temporary per step."""
    u = np.asarray(u, dtype=float)
    disc = dist.b * dist.b + 2.0 * dist.a * u
    denom = dist.b + np.sqrt(np.maximum(disc, 0.0))
    safe = np.where(denom > 0.0, denom, 1.0)
    x = np.where(denom > 0.0, 2.0 * u / safe, 0.0)
    out = np.clip(x, 0.0, dist.omega)
    return float(out) if out.ndim == 0 else out


@pytest.mark.parametrize("dist", [
    make_uniform(1.0), make_uniform(2.5), make_triangle(1.0),
    make_triangle(2.5), make_linear(0.73, 1.0), make_linear(2.0, 1.0),
    make_linear(-0.9, 1.0), make_linear(-1.1, 1.3)], ids=repr)
def test_inverse_cdf_bit_identical_to_one_expression(dist):
    rng = np.random.default_rng(41)
    edges = np.array([0.0, -0.0, 1.0, 5e-324, 1e-310, 0.5,
                      np.nextafter(1.0, 0.0), np.nan])
    for u in (edges, rng.random(10_000), rng.random((257, 7)),
              rng.random((64, 5))[:, 2], [0.25, 0.75]):
        got, want = dist.inverse_cdf(u), reference_inverse_cdf(dist, u)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for u in (0.0, 1.0, 0.3, np.float64(0.7), 1):
        got, want = dist.inverse_cdf(u), reference_inverse_cdf(dist, u)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
