"""Catalan numbers, theta/omega coefficients, convolution identities."""

import math
import time
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from kthprice import (IdentityResult, catalan, catalan_integral,
                      catalan_recurrence_holds, hagen_rothe_sides,
                      identity_sweep, jensen_sides, omega, omega_bounds,
                      shifted_jensen_sides, theta_coeff)
import kthprice.combinatorics as comb
from kthprice.cli import main
from kthprice.combinatorics import _random_cases

CATALAN_PREFIX = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def test_catalan_known_values():
    assert [catalan(l) for l in range(11)] == CATALAN_PREFIX
    assert isinstance(catalan(30), int)


def test_catalan_rejects_negative_index():
    with pytest.raises(ValueError):
        catalan(-1)


def test_catalan_recurrence_exact_to_60():
    assert catalan_recurrence_holds(60)


def test_catalan_integral_matches_exact():
    for l in range(13):
        approx = catalan_integral(l)
        assert abs(approx - catalan(l)) / catalan(l) <= 1e-6, l


def test_catalan_integral_tiny_tolerance_example():
    assert abs(catalan_integral(0) - 1.0) <= 1e-8


def test_catalan_integral_names_its_float_range():
    assert abs(catalan_integral(510) - catalan(510)) / catalan(510) <= 1e-6
    with pytest.raises(OverflowError,
                       match=r"catalan_integral: .*need l <= 510, got l=511"):
        catalan_integral(511)


def test_identity_trivial_and_frozen_cases():
    assert jensen_sides(1.0, 1.0, 0.5, 0) == (1.0, 1.0)
    lhs, rhs = jensen_sides(2.0, 3.0, 0.0, 2)
    assert lhs == rhs == 10.0
    lhs, rhs = hagen_rothe_sides(3.0, 2.0, 0.0, 2)
    assert lhs == rhs == 10.0
    lhs, rhs = shifted_jensen_sides(4.0, 1.0, 3)
    assert lhs == rhs == 10.0
    assert shifted_jensen_sides(3.0, 0.0, 0) == (1.0, 1.0)


def test_identity_real_argument_cases():
    for lhs, rhs in (jensen_sides(1.7, 4.2, -0.9, 7),
                     hagen_rothe_sides(2.3, 5.1, 1.4, 6),
                     shifted_jensen_sides(6.5, -0.3, 8)):
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_hagen_rothe_rejects_vanishing_denominator():
    # m + z*l = 0 at l = 2
    with pytest.raises(ValueError):
        hagen_rothe_sides(2.0, 1.0, -1.0, 4)


D = comb._D


def floats(case):
    """A drawn case (M, R, Z, s) as the floats m, r, z = M/D, R/D, Z/D."""
    m, r, z, s = case
    return m / D, r / D, z / D, s


def exact_pole(case):
    m, _, z, s = case
    return any(m + z * l == 0 for l in range(s + 1))


class FixedDraws(np.random.Generator):
    """A generator whose array calls repeat the given (M, R, Z) rows and
    s values."""

    def __init__(self, mrz, s):
        super().__init__(np.random.PCG64(0))
        self.mrz, self.s = mrz, s

    def integers(self, low, high=None, size=None, **kwargs):
        return np.resize(self.mrz if isinstance(size, tuple) else self.s, size)


@pytest.mark.parametrize("seed", [97, 20250815])
def test_random_cases_contract(seed):
    def draw(count):
        return list(islice(_random_cases(np.random.default_rng(seed)), count))

    drawn = draw(3000)
    for case in drawn:
        assert list(map(type, case)) == [int, int, int, int]
        m, r, z, s = case
        assert 1 <= m <= 5 * D and -3 * D <= r < 10 * D and -2 * D <= z < 2 * D
        assert 0 <= s <= 12
        # every numerator is below 2**53, so M/D, R/D, Z/D are exact floats
        assert [Fraction(x) for x in floats(case)[:3]] == \
            [Fraction(x, D) for x in case[:3]]
    # the ranges are filled: m near both ends, r and z on both signs
    m, r, z, s = zip(*drawn)
    assert min(m) < D // 100 and max(m) > 5 * D - D // 100
    assert min(r) < -2 * D and max(r) > 9 * D
    assert min(z) < -D and max(z) > D and set(s) == set(range(13))
    # prefix-stable and reproducible
    assert draw(10) == drawn[:10]
    assert draw(3000) == drawn
    # the rows and s values come straight from the two array calls
    fixed = FixedDraws([[1, 2 * D, -D], [5 * D, -3 * D, D - 1]], [3, 0, 12])
    assert list(islice(_random_cases(fixed), 3)) == [
        (1, 2 * D, -D, 3), (5 * D, -3 * D, D - 1, 0), (1, 2 * D, -D, 12)]


def per_number_cases(rng):
    """Cases drawn one number at a time: each block's 3 * _BLOCK numerators
    row by row by scalar calls with their column's bounds, then its _BLOCK
    values of s."""
    bounds = [(1, 5 * D + 1), (-3 * D, 10 * D), (-2 * D, 2 * D)]
    while True:
        rows = [[int(rng.integers(low, high)) for low, high in bounds]
                for _ in range(comb._BLOCK)]
        for row in rows:
            yield (*row, int(rng.integers(0, 13)))


@pytest.mark.parametrize("after_a_sweep", [False, True])
@pytest.mark.parametrize("seed", [97, 20250815])
def test_random_cases_equal_scalar_draws(seed, after_a_sweep):
    # the array draws, across three block boundaries; after_a_sweep, as
    # for each identity after the first, the cases start on a fresh block
    # of the same generator, the rest of the last one left undrawn
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    want = per_number_cases(ref)
    if after_a_sweep:
        assert len(list(islice(_random_cases(rng), 5))) == 5
        list(islice(want, comb._BLOCK))
    count = 3 * comb._BLOCK + 5
    got = list(islice(_random_cases(rng), count))
    assert got == list(islice(want, count))
    assert all(list(map(type, case)) == [int, int, int, int] for case in got)


def test_identities_randomized():
    rng = np.random.default_rng(97)
    for m, r, z, s in map(floats, islice(_random_cases(rng), 200)):
        lhs, rhs = jensen_sides(m, r, z, s)
        assert lhs == rhs, (m, r, z, s)
        lhs, rhs = shifted_jensen_sides(r, z, s)
        assert lhs == rhs, (r, z, s)
        if all(m + z * l != 0 for l in range(s + 1)):
            lhs, rhs = hagen_rothe_sides(m, r, z, s)
            assert lhs == rhs, (m, r, z, s)


def test_identity_sweep_fails_on_a_left_side_off_by_2_to_the_minus_40(
        monkeypatch):
    # far inside any tolerance of 1e-9, yet no longer the same float
    import kthprice.combinatorics as comb
    lhs = comb._convolution_lhs

    def skewed(*args, **kwargs):
        v = lhs(*args, **kwargs)
        return v + v // 2 ** 40

    monkeypatch.setattr(comb, "_convolution_lhs", skewed)
    results = {r.name: r for r in identity_sweep(1, 0, 500, 20250815, 3)}
    assert not results["jensen"].passed
    assert not results["hagen-rothe"].passed
    assert results["shifted-jensen"].passed  # sums no _convolution_lhs
    # the witness prints both sides with repr, so they read unequal
    witness = results["jensen"].detail.split()
    assert witness[0] == "witness"
    fields = dict(item.split("=") for item in witness[1:])
    assert float(fields["lhs"]) != float(fields["rhs"])
    # the witness cases themselves; hagen-rothe draws its block from the
    # generator after jensen's
    assert results["jensen"].detail.startswith(
        "witness m=4.64371465219 r=4.18314318813 z=-1.50083710129 s=5 ")
    assert results["hagen-rothe"].detail.startswith(
        "witness m=1.25671407237 r=9.42999005619 z=-1.23213491406 s=12 ")


def test_identity_sweep_skips_only_exact_hagen_rothe_poles(monkeypatch):
    # m + z*l = 2 - l vanishes at l = 2: a pole for s = 4, none for s = 1;
    # z = -1 + 1/D leaves m + 2z = 2/D, a near-pole the sweep now checks
    rows = [[2 * D, D, -D], [2 * D, D, 1 - D], [2 * D, D, -D]]
    draw = comb._random_cases
    monkeypatch.setattr(comb, "_random_cases",
                        lambda rng: draw(FixedDraws(rows, [4, 4, 1])))
    calls = {}
    for name in ("_jensen_ints", "_hagen_rothe_ints"):
        ints = getattr(comb, name)
        monkeypatch.setattr(comb, name, lambda *args, ints=ints, name=name: (
            calls.setdefault(name, []).append(args[1:]) or ints(*args)))
    results = {r.name: r for r in identity_sweep(1, 0, 4, 0, 3)}
    assert results["jensen"].passed and results["hagen-rothe"].passed
    assert results["hagen-rothe"].cases == 4
    pole, near, beyond = [(*row, s) for row, s in zip(rows, [4, 4, 1])]
    assert calls["_jensen_ints"] == [pole, near, beyond, pole]
    assert calls["_hagen_rothe_ints"] == [near, beyond, near, beyond]
    # the public sides refuse the pole and agree with the reference elsewhere
    with pytest.raises(ValueError, match="vanishes at l=2"):
        hagen_rothe_sides(*floats(pole))
    for case in (near, beyond):
        assert hagen_rothe_sides(*floats(case)) == \
            reference_hagen_rothe(*floats(case))
        assert not exact_pole(case)
    assert exact_pole(pole)


def per_case_sweep(trials, seed):
    """The three random identities checked one case at a time through the
    public *_sides: the reference for identity_sweep's block path."""
    rng = np.random.default_rng(seed)
    results = []
    for name, sides, skip in (("jensen", jensen_sides, 0),
                              ("hagen-rothe", hagen_rothe_sides, 0),
                              ("shifted-jensen", shifted_jensen_sides, 1)):
        passed, detail = True, f"(trials={trials}, seed={seed})"
        cases = (c for c in _random_cases(rng)
                 if name != "hagen-rothe" or not exact_pole(c))
        for checked, case in enumerate(islice(cases, trials), 1):
            lhs, rhs = sides(*floats(case)[skip:])
            if lhs != rhs:
                m, r, z, s = floats(case)
                passed, detail = False, (
                    f"witness m={m:.12g} r={r:.12g} z={z:.12g} s={s} "
                    f"lhs={lhs!r} rhs={rhs!r}")
                break
        results.append(IdentityResult(name, passed, checked, detail))
    return results


@pytest.mark.parametrize("skewed", [False, True])
@pytest.mark.parametrize("trials", [1, 500, 2500])  # 2500 spans three blocks
@pytest.mark.parametrize("seed", [1, 97, 20250815])
def test_identity_sweep_equals_a_loop_over_the_public_sides(
        monkeypatch, seed, trials, skewed):
    if skewed:  # left sides off by 2**-40 relative fail two identities; at
        # least one unit off, so that the side 1 of an s = 0 case fails too
        lhs = comb._convolution_lhs
        monkeypatch.setattr(comb, "_convolution_lhs", lambda *args: (
            (v := lhs(*args)) + (v // 2 ** 40 or 1)))
    got = identity_sweep(1, 0, trials, seed, 3)[2:5]
    assert got == per_case_sweep(trials, seed)
    assert [r.passed for r in got] == [not skewed, not skewed, True]


def test_identity_sweep_compares_floats_not_integers(monkeypatch):
    # 1 more on an integer side above 2**200 is far below one ulp of its
    # float over D**s s!: the integers differ, the rounded floats do not
    perm_sum, rounded = comb._perm_sum, comb._rounded
    monkeypatch.setattr(comb, "_perm_sum", lambda *args: (
        (v := perm_sum(*args)) + (abs(v) > 2 ** 200)))
    calls = []
    monkeypatch.setattr(comb, "_rounded",
                        lambda *args: calls.append(args) or rounded(*args))
    results = {r.name: r for r in identity_sweep(1, 0, 500, 20250815, 3)}
    assert results["jensen"].passed
    assert results["shifted-jensen"].passed
    assert len(calls) > 100  # so many cases had unequal integer sides


# Reference sides: each summed term by term in Fraction arithmetic over
# the exact binary values of the inputs and rounded once. The library
# computes the same exact sides in integers over one denominator, so the
# floats must agree bit for bit.

def _binom_falling(x, s):
    out = Fraction(1)
    for i in range(s):
        out *= Fraction(x - i, i + 1)
    return out


def reference_jensen(m, r, z, s):
    mf, rf, zf = Fraction(m), Fraction(r), Fraction(z)
    lhs = sum((_binom_falling(mf + zf * l, l)
               * _binom_falling(rf - zf * l, s - l) for l in range(s + 1)),
              Fraction(0))
    rhs = sum((_binom_falling(mf + rf - l, s - l) * zf ** l
               for l in range(s + 1)), Fraction(0))
    return float(lhs), float(rhs)


def reference_hagen_rothe(m, r, z, s):
    mf, rf, zf = Fraction(m), Fraction(r), Fraction(z)
    for l in range(s + 1):
        if mf + zf * l == 0:
            raise ValueError(f"m + z*l vanishes at l={l}")
    lhs = sum((mf / (mf + zf * l)
               * _binom_falling(mf + zf * l, l)
               * _binom_falling(rf - zf * l, s - l) for l in range(s + 1)),
              Fraction(0))
    return float(lhs), float(_binom_falling(mf + rf, s))


def reference_shifted_jensen(r, z, s):
    rf, zf = Fraction(r), Fraction(z)
    lhs = sum((_binom_falling(rf - l, s - l) * zf ** l for l in range(s + 1)),
              Fraction(0))
    rhs = sum((_binom_falling(rf + 1, s - l) * (zf - 1) ** l
               for l in range(s + 1)), Fraction(0))
    return float(lhs), float(rhs)


def assert_same_sides(sides, reference, *args):
    """Equal float pairs, or the same exception type from both."""
    try:
        expected = reference(*args)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            sides(*args)
        return
    assert sides(*args) == expected, args


def test_sides_bit_identical_to_fraction_reference_on_random_draws():
    rng = np.random.default_rng(2024)
    for m, r, z, s in map(floats, islice(_random_cases(rng), 2000)):
        assert_same_sides(jensen_sides, reference_jensen, m, r, z, s)
        assert_same_sides(hagen_rothe_sides, reference_hagen_rothe, m, r, z, s)
        assert_same_sides(shifted_jensen_sides, reference_shifted_jensen,
                          r, z, s)


@pytest.mark.parametrize("m, r, z", [
    (1.7, 4.2, -0.9),
    (2.3, 5.1, 0.0),               # z = 0
    (2.3, 5.1, 5e-324),            # subnormal z
    (3, -2, 1),                    # ints
    (np.float64(0.3), np.float64(7.9), np.float64(-1.1)),
    (Fraction(1, 3), 2.5, Fraction(-2, 3)),   # denominators not powers of 2
    (0.75, 1e300, 0.5),            # r = 1e300: the sides overflow for s >= 2
    (0.0, 1.5, 0.25),              # m = 0: Hagen-Rothe pole at l = 0
    (2.0, 1.0, -1.0),              # Hagen-Rothe pole at l = 2
])
@pytest.mark.parametrize("s", [0, 1, 2, 7, 12])
def test_sides_bit_identical_to_fraction_reference_on_edge_cases(m, r, z, s):
    assert_same_sides(jensen_sides, reference_jensen, m, r, z, s)
    assert_same_sides(hagen_rothe_sides, reference_hagen_rothe, m, r, z, s)
    assert_same_sides(shifted_jensen_sides, reference_shifted_jensen, r, z, s)


def test_sides_accept_numpy_integers():
    assert jensen_sides(1.7, 4.2, -0.9, np.int64(7)) == \
        jensen_sides(1.7, 4.2, -0.9, 7)
    assert shifted_jensen_sides(np.int64(6), 0.5, 3) == \
        shifted_jensen_sides(6, 0.5, 3)


def test_theta_and_omega_equal_term_by_term_fraction_sums():
    for n in range(3, 61):
        for k in range(3, n + 1):
            thetas = [Fraction(math.comb(n - 2, k - 3 - l)
                               * (math.comb(2 * l, l) // (l + 1)), 2 ** l)
                      for l in range(k - 2)]
            assert [theta_coeff(n, k, l) for l in range(k - 2)] == thetas
            total = Fraction(0)
            for l, theta in enumerate(thetas):
                term = theta / 2 ** (l + 1)
                total += -term if l % 2 else term
            assert omega(n, k) == total, (n, k)


def test_theta_coeff_is_its_row_entry(monkeypatch):
    rows = {(n, k): comb._theta_row(n, k)
            for n in range(3, 41) for k in range(3, n + 1)}
    # theta_coeff computes its one entry, never the whole row
    built = []
    row = comb._theta_row
    monkeypatch.setattr(comb, "_theta_row",
                        lambda *args: built.append(row(*args)) or built[-1])
    for (n, k), want in rows.items():
        assert [theta_coeff(n, k, l) for l in range(k - 2)] == \
            [Fraction(t, 2 ** l) for l, t in enumerate(want)], (n, k)
    assert {len(entries) for entries in built} == {1}


def test_theta_checks_refuse_a_one_unit_error(monkeypatch):
    # every entry of the k row is read by both checks; entry l of the k + 1
    # row by the step check for l >= 1 and by the index check for l <= k-3
    for n in range(3, 21):
        for k in range(3, n + 1):
            row, next_row = comb._theta_row(n, k), comb._theta_row(n, k + 1)
            assert comb._theta_step_holds(row, next_row), (n, k)
            assert comb._theta_index_holds(n, k, row, next_row), (n, k)
            for delta in (-1, 1):
                for l in range(k - 2):
                    bad = row.copy()
                    bad[l] += delta
                    assert not comb._theta_step_holds(bad, next_row)
                    assert not comb._theta_index_holds(n, k, bad, next_row)
                for l in range(k - 1):
                    bad = next_row.copy()
                    bad[l] += delta
                    assert comb._theta_step_holds(row, bad) == (l == 0)
                    assert comb._theta_index_holds(n, k, row, bad) == (
                        l == k - 2), (n, k, l)
    # one unit off in theta(9, 6, 2): the sweep fails at (9, 5), the 24th
    # pair, whose k + 1 row it is
    theta_row = comb._theta_row

    def corrupt(n, k, ls=None):
        out = theta_row(n, k, ls)
        if (n, k, ls) == (9, 6, None):
            out[2] += 1
        return out

    monkeypatch.setattr(comb, "_theta_row", corrupt)
    theta = {r.name: r for r in identity_sweep(1, 0, 1, 0, 12)}[
        "theta-recurrences"]
    assert (theta.passed, theta.cases, theta.detail) == (
        False, 24, "witness n=9 k=5")


@pytest.mark.parametrize("check", ["_theta_step_holds", "_theta_index_holds"])
def test_identity_sweep_reads_both_theta_checks(monkeypatch, check):
    # fail each check alone at the pair (7, 4), the 12th in the walk
    holds = getattr(comb, check)
    rows = comb._theta_row(7, 4), comb._theta_row(7, 5)
    monkeypatch.setattr(comb, check,
                        lambda *args: args[-2:] != rows and holds(*args))
    results = {r.name: r for r in identity_sweep(1, 0, 1, 0, 9)}
    theta = results["theta-recurrences"]
    assert (theta.passed, theta.cases, theta.detail) == (
        False, 12, "witness n=7 k=4")
    assert results["omega-positive"].passed
    assert results["omega-bounds"].passed


def test_omega_numerator_of_the_theta_row():
    for n in range(3, 41):
        for k in range(3, n + 1):
            assert (comb._omega_numerator(comb._theta_row(n, k))
                    == omega(n, k) * 2 ** (2 * k - 5)), (n, k)


def test_omega_check_agrees_with_fraction_reference(capsys):
    # Omega from omega(), its bounds from the formula and omega_bounds(), as
    # Fractions, against the integer check for the true numerator and its
    # neighbours one unit of 2**-(2k-5) away, and against the lines of
    # `kthprice bounds --nmax 60`
    lines = []
    for n in range(3, 61):
        for k in range(3, n + 1):
            value = omega(n, k)
            total = comb._omega_numerator(comb._theta_row(n, k))
            assert comb._omega_check(n, k) == comb._omega_check(n, k, total)
            if not n + 4 > 2 * k:
                assert comb._omega_check(n, k, total) is None, (n, k)
                assert omega_bounds(n, k) is None, (n, k)
                continue
            anchor = math.comb(n - 3, k - 3)
            lower, upper = Fraction(anchor, 2), Fraction(7 * anchor, 8)
            assert omega_bounds(n, k) == (lower, upper), (n, k)
            for num in (total - 1, total, total + 1):
                near = Fraction(num, 2 ** (2 * k - 5))
                assert comb._omega_check(n, k, num) == (
                    num, anchor, lower <= near <= upper), (n, k, num)
            ok = lower <= value <= upper
            lines.append(f"{'ok' if ok else 'FAIL'} n={n} k={k} "
                         f"omega={value.numerator}/{value.denominator} "
                         f"lower={lower.numerator}/{lower.denominator} "
                         f"upper={upper.numerator}/{upper.denominator}")
    assert main(["bounds", "--nmax", "60"]) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("n, k", [(9, 6), (20, 10)])
def test_omega_check_refuses_one_unit_outside_the_bounds(n, k):
    # numerators over 2**(2k-5) one unit below A/2 and one above 7A/8
    scale = 2 ** (2 * k - 5)
    anchor = math.comb(n - 3, k - 3)
    low = Fraction(anchor, 2) * scale
    high = Fraction(7 * anchor, 8) * scale
    assert low.denominator == high.denominator == 1
    if (n, k) == (9, 6):
        assert (low - 1, high + 1) == (1279, 2241)
    for num, holds in ((low - 1, False), (low, True), (high, True),
                       (high + 1, False)):
        assert comb._omega_check(n, k, int(num)) == (num, anchor, holds)
    assert comb._omega_check(n, k)[2]


def test_omega_at_k3_is_the_lower_bound():
    # Omega(n, 3) = 1/2 = binom(n-3, 0)/2: the check passes with equality,
    # and the numerators 0 and 2 over 2 fail it
    for n in range(3, 61):
        assert omega(n, 3) == Fraction(1, 2) == omega_bounds(n, 3)[0]
        assert comb._omega_check(n, 3) == (1, 1, True)
        assert not comb._omega_check(n, 3, 0)[2]
        assert not comb._omega_check(n, 3, 2)[2]


def theta_row(n, k):
    return [theta_coeff(n, k, l) for l in range(k - 2)]


def test_theta_tables_frozen():
    assert theta_row(3, 3) == [Fraction(1)]
    assert theta_row(5, 4) == [Fraction(3), Fraction(1, 2)]
    assert theta_row(4, 4) == [Fraction(2), Fraction(1, 2)]
    # fractions arrive in lowest terms with positive denominators
    for entry in theta_row(12, 9):
        from math import gcd
        assert entry.denominator > 0
        assert gcd(entry.numerator, entry.denominator) == 1


def test_theta_validation():
    with pytest.raises(ValueError):
        theta_coeff(2, 3, 0)  # n < 3
    with pytest.raises(ValueError):
        theta_coeff(4, 2, 0)  # k < 3
    with pytest.raises(ValueError):
        theta_coeff(5, 4, -1)  # l < 0
    with pytest.raises(ValueError):
        theta_coeff(5, 4, 2)  # l > k-3


def test_omega_frozen_values():
    assert omega(3, 3) == Fraction(1, 2)
    assert omega(5, 4) == Fraction(11, 8)
    assert omega(4, 4) == Fraction(7, 8)


def _general_binom(x: Fraction, j: int) -> Fraction:
    # x (x-1) ... (x-j+1) / j!, for any rational x
    out = Fraction(1)
    for i in range(j):
        out *= x - i
    return out / math.factorial(j)


def test_omega_closed_form_by_an_independent_route():
    # Omega(n, k) = binom(n - 3/2, k - 2) - binom(n - 2, k - 2), from
    # sum_l C_l (-t/4)**l = 2 (sqrt(1+t) - 1) / t; shares no code with omega
    start = time.perf_counter()
    pairs = [(n, k) for n in range(3, 81) for k in range(3, n + 1)]
    assert len(pairs) == 3081
    for n, k in pairs:
        want = (_general_binom(Fraction(2 * n - 3, 2), k - 2)
                - _general_binom(Fraction(n - 2), k - 2))
        assert omega(n, k) == want, (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"elapsed={elapsed:.2f}s >= 5s"


def test_slope_sandwich_by_the_product_to_n_200():
    # 1 + Omega / binom(n-2, k-2) = prod_{m=n-k+1}^{n-2} (1 + 1/(2m)) by the
    # closed form above; with premium = (slope - 1)(n - 2), the lower bound
    # reads (k-2)/2 <= premium (every k, equality at k = 3); the upper bound
    # is proved step by step in the tests below
    start = time.perf_counter()
    for n in range(3, 201):
        slope = Fraction(1)
        for k in range(3, n + 1):
            slope *= 1 + Fraction(1, 2 * (n - k + 1))
            premium = (slope - 1) * (n - 2)
            assert premium >= Fraction(k - 2, 2), (n, k)
            assert (premium == Fraction(k - 2, 2)) == (k == 3), (n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"elapsed={elapsed:.2f}s >= 5s"


# The upper bound Omega <= c binom(n-3, k-3) on the wedge n + 4 > 2k, with
# c = 7/8, divided by binom(n-2, k-2): P - 1 <= c t, where t = (k-2)/(n-2)
# and P = prod_{m=n-k+1}^{n-2} (1 + 1/(2m)) is the triangle slope. The
# proof: P <= (1-t)**(-1/2) for k < n; h(t) = (1 + c t)**2 (1-t) - 1 >= 0
# on (0, 15/28], so (1-t)**(-1/2) <= 1 + c t there; and t <= 15/28 on the
# wedge once n >= 16. Each test takes c as a parameter, so a smaller c
# (0.82, below the supremum 2(sqrt 2 - 1) of (P - 1)/t) fails both.
T_MAX = Fraction(15, 28)


def _h(c, t):
    return (1 + c * t) ** 2 * (1 - t) - 1


def _h_over_t(c, t):
    return (2 * c - 1) + (c * c - 2 * c) * t - c * c * t * t


@pytest.mark.parametrize("c", [Fraction(7, 8)])
def test_omega_upper_bound_polynomial_step(c):
    # h(t) = t * _h_over_t(c, t) as cubics: equal at four points, so equal
    for t in (Fraction(0), Fraction(1), Fraction(2), T_MAX):
        assert _h(c, t) == t * _h_over_t(c, t), t
    # its derivative (c**2 - 2c) - 2 c**2 t is negative for t >= 0 when
    # 0 < c < 2, so h(t)/t decreases there and is least on [0, 15/28] at
    # 15/28; positive there, h > 0 on (0, 15/28]
    assert 0 < c < 2 and c * c - 2 * c < 0
    assert _h_over_t(c, T_MAX) > 0
    if c == Fraction(7, 8):  # h(t)/t = 3/4 - 63t/64 - 49t**2/64
        assert _h(c, T_MAX) == Fraction(45, 28672)


@pytest.mark.parametrize("c", [Fraction(7, 8)])
def test_omega_upper_bound_wedge_steps_to_n_200(c):
    # On the wedge k - 2 <= (n-1)/2, so t <= (n-1)/(2(n-2)) = 1/2 +
    # 1/(2(n-2)), which decreases in n and is 15/28 at n = 16.
    assert Fraction(16 - 1, 2 * (16 - 2)) == T_MAX
    start = time.perf_counter()
    wedge, sqrt_too_weak = 0, []
    for n in range(3, 201):
        slope = Fraction(1)  # P, built up over k
        for k in range(3, n + 1):
            slope *= 1 + Fraction(1, 2 * (n - k + 1))
            if not n + 4 > 2 * k:
                continue
            wedge += 1
            assert omega_bounds(n, k)[1] == c * math.comb(n - 3, k - 3)
            t = Fraction(k - 2, n - 2)
            if k < n:  # the square-root step, P**2 (1-t) <= 1
                assert slope * slope * (1 - t) <= 1, (n, k)
            if n >= 16:
                assert t <= T_MAX, (n, k)
                assert _h(c, t) >= 0, (n, k)
            elif k < n and _h(c, t) < 0:
                sqrt_too_weak.append((n, k))
            assert slope - 1 <= c * t, (n, k)  # the bound itself
    assert wedge == 9900
    # the pairs below n = 16 that the exact check, not the proof, covers
    # (with k = n, on the wedge only at n = 3)
    if c == Fraction(7, 8):
        assert sqrt_too_weak == [(5, 4), (7, 5), (9, 6), (11, 7), (13, 8),
                                 (15, 9)]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"elapsed={elapsed:.2f}s >= 5s"


def test_omega_bounds_rejects_outside_wedge():
    assert omega_bounds(10, 3) == (Fraction(1, 2), Fraction(7, 8))
    assert omega_bounds(10, 6) == (Fraction(35, 2), Fraction(245, 8))
    assert omega_bounds(6, 5) is None  # n + 4 = 10 = 2k
    with pytest.raises(ValueError):
        omega_bounds(5, 2)
    with pytest.raises(ValueError):
        omega(5, 2)
