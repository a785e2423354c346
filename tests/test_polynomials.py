"""Exact polynomial / rational function arithmetic."""

import operator
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from kthprice import Polynomial, RationalFunction, polynomial_gcd
from kthprice import polynomials
from kthprice.polynomials import (_coeff, _idivmod, _imul, _ipow,
                                  _over_one_denominator)

X = Polynomial.variable()


def test_construction_trims_trailing_zeros():
    assert Polynomial([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial([0, 0]).degree == -1
    assert not Polynomial()
    assert Polynomial([0, 0, 3]).degree == 2


def test_float_coefficients_become_exact():
    assert Polynomial([0.5]).coeffs == (Fraction(1, 2),)
    assert Polynomial([0.1]).coeffs == (Fraction(0.1),)  # exact binary value


def test_numpy_integers_are_coefficients_and_scalars():
    p = Polynomial([np.int64(2), np.int32(1)])
    assert p == X + 2
    assert all(type(c) is Fraction and type(c.numerator) is int
               for c in p.coeffs)
    assert X * np.int64(3) == 3 * X
    r = RationalFunction(X, np.int64(2))
    assert (r.num, r.den) == (Fraction(1, 2) * X, Polynomial([1]))
    assert RationalFunction(6 * X, 3 * X) == np.int64(2)


@pytest.mark.parametrize("value", [np.float32(0.5), np.float16(0.25),
                                   np.longdouble("0.1")])
def test_numpy_floats_are_exact_coefficients_and_scalars(value):
    exact = Fraction(*value.as_integer_ratio())
    assert Polynomial([value]).coeffs == (exact,)
    assert X * value == exact * X
    r = RationalFunction(X, value)
    assert (r.num, r.den) == ((1 / exact) * X, Polynomial([1]))
    assert _over_one_denominator(value) == (exact.denominator,
                                            [exact.numerator])
    # a longdouble keeps the bits a float64 would round away
    assert (exact == Fraction(float(value))) == \
        (np.finfo(type(value)).nmant <= np.finfo(np.float64).nmant)


def test_hash_agrees_with_eq():
    for poly, number in ((Polynomial([3]), 3), (Polynomial(), 0),
                         (Polynomial([0.5]), 0.5),
                         (Polynomial([Fraction(-2, 3)]), Fraction(-2, 3))):
        assert poly == number and hash(poly) == hash(number)
        assert {poly: 1}.get(number) == 1 and {number: 1}.get(poly) == 1
    assert hash(X + 1) == hash(Polynomial([1, 1]))


def test_arithmetic():
    p = (X + 1) * (X - 1)
    assert p == X ** 2 - 1
    assert (X + 2) ** 3 == X ** 3 + 6 * X ** 2 + 12 * X + 8
    assert 2 * X - X == X
    assert (X ** 2 - 1) - (X ** 2) == Polynomial([-1])
    # the zero polynomial: 0**0 is 1, and nothing leaves a trailing zero
    assert Polynomial() ** 0 == Polynomial([1])
    for zero in (Polynomial() ** 2, 0 * X, X + (-X)):
        assert zero.coeffs == ()
    with pytest.raises(ValueError):
        X ** -1


def test_divmod_exact():
    num = X ** 3 - 2 * X + 5
    den = X - 3
    q, r = divmod(num, den)
    assert q * den + r == num
    assert r.degree < den.degree
    assert (X ** 4 - 1) % (X ** 2 + 1) == Polynomial()
    assert divmod(X, X ** 2 + 1) == (Polynomial(), X)
    with pytest.raises(ZeroDivisionError):
        divmod(X, Polynomial())
    # the same kernel with // on integer lists: 3x^2 + 5x - 2 = (x + 2)(3x - 1)
    assert _idivmod([-2, 5, 3], [2, 1], operator.floordiv) == ([-1, 3], [0])


@pytest.mark.parametrize("x, den, num", [
    (3, 1, 3),
    (-0.75, 4, -3),
    (5e-324, 2 ** 1074, 1),  # the least subnormal
    (Fraction(1, 3), 3, 1),
    (np.int64(-7), 1, -7),
    (np.int32(5), 1, 5),
    (np.float64(0.1), 2 ** 55, 3602879701896397),  # binary value of 0.1
    (True, 1, 1),
    (np.float32(0.75), 4, 3),
    (Decimal("0.1"), 10, 1),  # a Decimal's value is decimal
])
def test_over_one_denominator_of_each_type(x, den, num):
    # Polynomial's coefficients read the same exact value (_ratio)
    got = _over_one_denominator(x)
    assert got == (den, [num]) and type(got[1][0]) is int
    assert _coeff(x) == Fraction(num, den) and type(_coeff(x)) is Fraction
    assert Polynomial([x]).coeffs == (Fraction(num, den),)


@pytest.mark.parametrize("x", ["1", 1j, None])
def test_both_readers_refuse_a_non_number(x):
    with pytest.raises(TypeError, match="as an exact number"):
        _over_one_denominator(1, x)
    with pytest.raises(TypeError, match="as an exact number"):
        _coeff(x)


def test_over_one_denominator_takes_the_lcm():
    assert _over_one_denominator(3, 0.75, Fraction(1, 3), np.int64(2),
                                 np.int32(-1), np.float64(0.5)) == \
        (12, [36, 9, 4, 24, -12, 6])
    assert _over_one_denominator() == (1, [])


def test_gcd_monic():
    g = polynomial_gcd((X - 1) * (X + 2) ** 2, (X + 2) * (X ** 2))
    assert g == X + 2
    assert polynomial_gcd(Polynomial(), X ** 2) == X ** 2  # gcd(0, p) = monic p
    # scalars are coerced as RationalFunction does; anything else is refused
    assert polynomial_gcd(Polynomial([1, 1]), 3) == 1
    assert polynomial_gcd(0, 2 * X + 1) == X + Fraction(1, 2)
    with pytest.raises(TypeError):
        polynomial_gcd(X, "x")


def random_poly(rng, degree):
    return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for _ in range(degree)] + [rng.choice([-3, -1, 1, 2])])


def euclid_reference(p, q):
    """The plain Euclidean loop over the rationals, with no coprimality
    proof first."""
    while q:
        p, q = q, p % q
    return p.monic()


def gcd_cases():
    rng = random.Random(25)
    for degree in (0, 1, 2, 3):  # planted common factors
        for _ in range(25):
            common = random_poly(rng, degree)
            yield (random_poly(rng, rng.randint(0, 4)) * common,
                   random_poly(rng, rng.randint(0, 4)) * common)
    m = 2 ** 61 - 1
    yield m * X + 1, X + 2           # M divides a leading coefficient
    # ... and the common factor m*x + 1 vanishes mod M but for its constant
    yield (m * X + 1) * (X + 3), (m * X + 1) * (X + 5)
    yield X, X - m                   # coprime over Q, not mod M
    yield X * (X + 3), X ** 2 * (2 * X - 1)   # x divides both
    yield Polynomial(), Polynomial([5])
    yield Polynomial([0.1, 0.5, 0.3]), Polynomial([0.7, 0.25])   # floats
    # the common power of x comes out first: x^v P with x^w Q
    cofactors = (
        (Fraction(1, 3) * X + 3, 2 * X - Fraction(1, 7)),   # coprime
        ((X - 2) * (X + 1), (X - 2) * (3 * X + 4)),          # share x - 2
        (X + m, 2 * X + m),  # share x mod M only: Euclid, which finds x^min
        (Polynomial([Fraction(5, 3)]), X - Fraction(1, 2)),  # a monomial part,
    )                                                        # constant at v = 0
    for v in range(7):
        for w in range(7):
            for p, q in cofactors:
                yield X ** v * p, X ** w * q
    yield Polynomial(), X ** 3 * (X + 1)
    # a constant cofactor: gcd(P, c) = 1, also when M divides c
    yield Polynomial([3 * m]), X ** 2 + 1
    yield X ** 2 * (5 * m), X ** 3 * (X + 1)
    yield X ** 2 * 5, X ** 4 * Fraction(7, 3)
    yield Polynomial(), Polynomial([m])
    yield Polynomial(), X ** 2 * m


@pytest.mark.parametrize("p, q", list(gcd_cases()))
def test_gcd_equals_plain_euclid(p, q):
    assert polynomial_gcd(p, q).coeffs == euclid_reference(p, q).coeffs
    assert polynomial_gcd(q, p).coeffs == euclid_reference(q, p).coeffs


def test_coprime_pair_runs_no_euclid_step(monkeypatch):
    steps = []
    mod = Polynomial.__mod__

    def spy(self, other):
        steps.append(other)
        return mod(self, other)

    monkeypatch.setattr(Polynomial, "__mod__", spy)
    assert polynomial_gcd(3 * X ** 3 - X + Fraction(1, 7), X ** 2 + 5) == 1
    # a common power of x is taken out exactly, and the cofactors proved
    assert polynomial_gcd(X ** 3 * (X + 1), 2 * X ** 5) == X ** 3
    assert not steps
    # the fallbacks do run Euclid, and still find gcd 1
    assert polynomial_gcd(X, X - (2 ** 61 - 1)) == 1
    assert polynomial_gcd((2 ** 61 - 1) * X + 1, X + 2) == 1
    assert len(steps) == 4
    # cofactors x (x + M) and 2x + M share x mod M only: Euclid finds 1
    assert polynomial_gcd(X ** 2 * (X + 2 ** 61 - 1),
                          X * (2 * X + 2 ** 61 - 1)) == X
    assert len(steps) > 4


def test_a_constant_cofactor_needs_no_proof(monkeypatch):
    # after the common x^v, a nonzero constant part settles the gcd: x^v,
    # with no proof mod M (which a constant divisible by M would fail)
    calls = []
    for name in ("_coprime_mod_m", "_idivmod"):
        def spy(*args, _name=name, _fn=getattr(polynomials, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(polynomials, name, spy)
    m = 2 ** 61 - 1
    assert polynomial_gcd(X ** 2 * (5 * m), X ** 3 * (X + 1)) == X ** 2
    assert polynomial_gcd(X ** 4 * (X - 2), X ** 4 * Fraction(1, 3)) == X ** 4
    assert polynomial_gcd(Polynomial(), 7) == 1
    assert not calls
    # a zero part is not a constant: gcd(0, Q) is Q made monic
    assert polynomial_gcd(Polynomial(), 2 * X + 1) == X + Fraction(1, 2)
    assert calls


def square_and_multiply(p, exponent):
    """_ipow as it was before its binomial rule: square-and-multiply by
    _imul for every base."""
    out = [1]
    while exponent:
        if exponent & 1:
            out = _imul(out, p)
        exponent >>= 1
        if exponent:
            p = _imul(p, p)
    return out


def power_bases():
    rng = random.Random(30)
    for zeros in range(4):
        for terms in range(1, 5):
            for _ in range(3):
                # inner coefficients may be 0; the last one never is
                body = [rng.randint(-9, 9) for _ in range(terms - 1)]
                body.append(rng.choice([-5, -2, -1, 1, 3, 2 ** 70 + 1]))
                ints = [0] * zeros + body
                yield ints
                yield [Fraction(c, rng.randint(1, 7)) for c in ints]


@pytest.mark.parametrize("exponent", range(13))
def test_ipow_equals_square_and_multiply(exponent):
    bases = list(power_bases()) + [[]]
    for base in bases:
        got = _ipow(base, exponent)
        assert got == square_and_multiply(base, exponent), (base, exponent)
        assert not got or got[-1] != 0


def test_ipow_hand_worked_and_zero_bases():
    # the binomial rule covers every ladder base: x^v times 1 or 2 terms
    assert _ipow([3, 2], 4) == [81, 216, 216, 96, 16]
    assert _ipow((0, 0, Fraction(1, 2)), 3) == [0] * 6 + [Fraction(1, 8)]
    # square-and-multiply gave [0] for [0] ** 2, against the invariant
    assert square_and_multiply([0], 2) == [0]
    assert _ipow([0], 2) == _ipow([0, 0], 5) == _ipow([], 1) == []
    assert _ipow([0], 0) == _ipow([], 0) == [1]


def test_calculus():
    p = Polynomial([5, 0, 3])          # 3x^2 + 5
    assert p.derivative() == 6 * X
    assert p.antiderivative() == X ** 3 + 5 * X
    assert p.antiderivative()(Fraction(0)) == 0
    assert p.antiderivative().derivative() == p


def test_evaluation_exact_and_float():
    p = X ** 2 + Fraction(1, 3)
    assert p(Fraction(1, 2)) == Fraction(7, 12)
    assert p(0.5) == pytest.approx(0.25 + 1 / 3)


def test_rational_function_normalisation():
    r = RationalFunction((X ** 2 - 1), (X - 1) * 2)
    # gcd cancelled, monic denominator: (x+1)/2 as num/den = (x/2+1/2)/1
    assert r.num == Fraction(1, 2) * (X + 1)
    assert r.den == Polynomial([1])
    r = RationalFunction(2 * X + 2, 4 * X ** 2)
    assert (r.num, r.den) == (Fraction(1, 2) * X + Fraction(1, 2), X ** 2)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(X, Polynomial())


def fraction_reference(num, den):
    """The cancellation in Fraction arithmetic: long division by the monic
    gcd, then both parts scaled by 1 / the leading denominator coefficient."""
    num, den = Polynomial._coerce(num), Polynomial._coerce(den)
    g = polynomial_gcd(num, den)
    if g.degree > 0:
        num //= g
        den //= g
    inv = Fraction(1) / den.leading_coefficient
    return (num * inv).coeffs, (den * inv).coeffs


def cancellation_cases():
    rng = random.Random(19)
    for _ in range(40):  # planted common factors
        common = random_poly(rng, rng.randint(1, 4))
        yield (random_poly(rng, rng.randint(0, 4)) * common,
               random_poly(rng, rng.randint(0, 4)) * common)
    yield Polynomial(), (X + 1) * (X - Fraction(1, 3))   # zero numerator
    yield Polynomial(), Polynomial([-7])
    yield (X + Fraction(2, 3)) ** 2, Fraction(-5, 4)     # constant denominator
    yield X ** 3 - 1, -(X - 1) * (X + 5)                 # negative leading den
    yield 3 * X + 2, Polynomial([4, 0, -6])
    yield Polynomial([0.1, 0.5, 0.3]), Polynomial([0.7, 0.25])   # floats
    yield (Polynomial([0.73, 1.0]) * (X - 0.1),
           (X - 0.1) * Polynomial([Fraction(1, 3), Fraction(5, 7), 1.5]))
    yield Fraction(3, 8), Fraction(-9, 10)


@pytest.mark.parametrize("num, den", list(cancellation_cases()))
def test_integer_cancellation_matches_fraction_reference(num, den):
    r = RationalFunction(num, den)
    assert (r.num.coeffs, r.den.coeffs) == fraction_reference(num, den)
    assert all(type(c) is Fraction for c in r.num.coeffs + r.den.coeffs)


def test_rational_function_equality_cross_multiplied():
    a = RationalFunction(X ** 2 - 1, X - 1)
    b = RationalFunction(X + 1)
    assert (a.num, a.den) == (b.num, b.den) == (X + 1, Polynomial([1]))
    assert a == b
    assert a != RationalFunction(X + 2)
    assert a != RationalFunction(X + 1, X)
    assert RationalFunction(2 * X, 2) == X
    # differently scaled inputs: == reads each side's reduced integer pair
    half = RationalFunction(Fraction(1, 2) * X + Fraction(1, 2),
                            Fraction(3, 2) * X ** 2)
    for equal in (RationalFunction(6 * X + 6, 18 * X ** 2),
                  RationalFunction(-(X + 1) * (X - 7), -3 * X ** 2 * (X - 7)),
                  RationalFunction(0.25 * X + 0.25, 0.75 * X ** 2)):
        assert half == equal and equal == half
    for unequal in (RationalFunction(6 * X + 6, 17 * X ** 2),
                    RationalFunction(-(X + 1), 3 * X ** 2),
                    RationalFunction(X + 1, 3 * X ** 2 + X)):
        assert half != unequal and unequal != half
    # against a Polynomial and a scalar, on either side
    third = RationalFunction(X ** 2 - 1, 3 * X - 3)
    assert third == Fraction(1, 3) * X + Fraction(1, 3)
    assert Fraction(1, 3) * (X + 1) == third
    assert third != X + 1
    assert RationalFunction(5 * X - 5, 2 * X - 2) == 2.5
    assert 2.5 == RationalFunction(5 * X - 5, 2 * X - 2)
    assert RationalFunction(5 * X - 5, 2 * X - 2) != 2
    assert RationalFunction(Polynomial(), X ** 2 + 3) == 0
    assert RationalFunction(X, 1) != "x"


def test_str_round_trip_is_readable():
    assert str(Polynomial([0, Fraction(3, 2)])) == "3/2*x"
    assert str(RationalFunction(X ** 2, X + 1)) == "(x^2) / (x + 1)"


def as_int_lists(p, q):
    """The pair cleared over one denominator, as two lists of Python ints."""
    _, ints = _over_one_denominator(*p.coeffs, *q.coeffs)
    return ints[:len(p.coeffs)], ints[len(p.coeffs):]


@pytest.mark.parametrize("p, q", list(gcd_cases()))
def test_int_lists_match_polynomial_parts(p, q):
    for num, den in ((p, q), (q, p)):
        lists = as_int_lists(num, den)
        assert polynomial_gcd(*lists).coeffs == \
            euclid_reference(num, den).coeffs
        if not den:
            with pytest.raises(ZeroDivisionError):
                RationalFunction(*lists)
            continue
        a, b = RationalFunction(*lists), RationalFunction(num, den)
        assert a._ints == b._ints
        assert all(type(c) is int for c in a._ints[0] + a._ints[1])
        assert (a.num, a.den, str(a), repr(a)) == \
            (b.num, b.den, str(b), repr(b))
        # the value is kept and the whole gcd is cancelled
        assert a.num * den == a.den * num
        assert a.den.degree == den.degree - polynomial_gcd(num, den).degree


def test_int_list_edge_cases():
    zero = RationalFunction([], [1])
    assert zero == 0 and str(zero) == "0" and zero._ints == ([], [1])
    assert not zero.num and zero.den == 1
    with pytest.raises(ZeroDivisionError):
        RationalFunction([1], [])
    with pytest.raises(ZeroDivisionError):
        RationalFunction([1], [0])  # trimmed like Polynomial([0])
    # trailing zeros are trimmed, as Polynomial(list) trims them
    assert RationalFunction([2, 4, 0], [6, 0])._ints == \
        RationalFunction(Polynomial([2, 4]), 6)._ints == ([2, 4], [6])
    assert RationalFunction([0, 3]) == 3 * X
    assert polynomial_gcd([0, 0, 2], [0, 6]) == X


@pytest.mark.parametrize("odd", [True, 0.5, np.int64(2)])
def test_a_list_of_other_numbers_is_not_an_int_list(odd):
    # a bool, a float or a numpy integer would leak into the integer
    # pair, so such a list is refused; Polynomial takes it
    for part in ([1, odd], [odd]):
        with pytest.raises(TypeError):
            RationalFunction(part, [1])
        with pytest.raises(TypeError):
            RationalFunction([1], part)
        with pytest.raises(TypeError):
            polynomial_gcd(part, [1, 1])
        r = RationalFunction(Polynomial(part), [3])
        assert all(type(c) is int for c in r._ints[0] + r._ints[1])


def test_float_arrays_evaluate_to_float64_like_scalar_calls():
    xs = np.linspace(-1.5, 2.0, 9)
    for p in (X ** 3 - Fraction(1, 3) * X + Fraction(2, 7), 0.1 * X + 0.7,
              Polynomial([Fraction(5, 3)]), Polynomial()):
        got = p(xs)
        assert got.dtype == np.float64 and got.shape == xs.shape
        want = np.array([float(p(float(x))) for x in xs])
        assert got.tobytes() == want.tobytes()
        assert p(xs.astype(np.float32)).dtype == np.float64
    r = RationalFunction(X ** 2 + 1, 3 * X - Fraction(1, 2))
    got = r(xs)
    assert got.dtype == np.float64
    assert got.tobytes() == np.array([r(float(x)) for x in xs]).tobytes()
    # exact arguments stay exact
    assert (X ** 2)(np.array([Fraction(1, 3)], dtype=object))[0] == \
        Fraction(1, 9)


def test_a_constant_called_at_a_float_gives_a_float():
    # as a non-constant polynomial does; exact arguments stay exact
    for call in (Polynomial([3]), RationalFunction(3)):
        assert type(call(0.5)) is float and call(0.5) == 3.0
        assert type(call(Fraction(1, 2))) is Fraction
    assert type((X + 3)(0.5)) is float
    assert type(Polynomial([Fraction(1, 3)])(np.float64(2.0))) is float
