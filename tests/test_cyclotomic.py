import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sympdec.cyclotomic import CycScalar, as_cyc


def rand_scalar(rng):
    return CycScalar(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])


def test_i_squared_is_minus_one():
    i = CycScalar.i()
    assert i * i == -1


def test_sqrt2_squared_is_two():
    s = CycScalar.sqrt2()
    assert s * s == 2


def test_inverse_of_sqrt2():
    s = CycScalar.sqrt2()
    inv = s.inv()
    # oracle: multiply out and check the product is exactly 1
    assert s * inv == CycScalar.one()
    assert inv == s / 2


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero().inv()


def test_zeta_powers_reduce():
    z = CycScalar.zeta()
    assert z ** 4 == -1
    assert z ** 8 == 1
    assert z ** 2 == CycScalar.i()
    assert z - z ** 3 == CycScalar.sqrt2()


def test_field_laws_randomized():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inv() == 1
            assert (b / a) * a == b


SCALARS = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30),
                   min_size=4, max_size=4).map(lambda c: CycScalar(*c))


@settings(max_examples=100, deadline=None)
@given(SCALARS, SCALARS, SCALARS, st.integers(1, 10 ** 6))
def test_field_laws_property(a, b, c, k):
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c and (a + b) * c == a * c + b * c
    assert a + (-a) == CycScalar.zero() and a - a == 0
    if not a.is_zero():
        assert a * a.inv() == CycScalar.one() and (b / a) * a == b
    # canonical form: every way of writing a value gives the same num, den and hash
    for same in ((a + b) - b, CycScalar(*a.coeffs), CycScalar._raw(
            tuple(k * x for x in a.num), k * a.den)):
        assert (same.num, same.den, hash(same)) == (a.num, a.den, hash(a))
    assert a.den > 0 and gcd(*a.num, a.den) == 1


def test_coeffs_are_reduced_fractions():
    x = CycScalar(Fraction(2, 4), Fraction(-6, 9), 0, 3)
    for c in x.coeffs:
        assert c.denominator > 0
        assert gcd(c.numerator, c.denominator) == 1
    assert x.coeffs[0] == Fraction(1, 2)


def test_canonical_form_makes_equality_structural():
    a = CycScalar(Fraction(1, 2), 0, Fraction(3, 2), 0)
    b = CycScalar(Fraction(2, 4), 0, Fraction(6, 4), 0)
    assert a == b and hash(a) == hash(b)
    assert a.num == (1, 0, 3, 0) and a.den == 2


def test_coercion_and_rational_view():
    assert CycScalar(5).as_fraction() == 5
    assert (CycScalar(3) + Fraction(1, 2)).as_fraction() == Fraction(7, 2)
    with pytest.raises(ValueError):
        CycScalar.zeta().as_fraction()


def test_str_forms():
    assert str(CycScalar.zero()) == "0"
    assert str(CycScalar(1, 0, -1, 0) / 2) == "(1 - z^2)/2"
    assert str(-CycScalar.one()) == "-1"


INTS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(2 ** 64, 2 ** 200),
    st.integers(-(2 ** 200), -(2 ** 64)),
    st.just(0),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(INTS, st.fractions(max_denominator=50), st.lists(st.fractions(max_denominator=20),
                                                         min_size=4, max_size=4))
def test_int_coercion_matches_the_general_constructor(k, q, coeffs):
    ref = CycScalar(k)          # goes through Fraction and the lcm loop
    got = as_cyc(k)
    assert got.num == ref.num and got.den == ref.den and hash(got) == hash(ref)
    assert all(type(x) is int for x in got.num)
    c = CycScalar(*coeffs)
    assert c + k == c + ref and k + c == ref + c
    assert c - k == c - ref and k - c == ref - c
    assert c * k == c * ref and k * c == ref * c
    assert got + q == CycScalar(Fraction(k) + q)
    assert (c * k) * q == c * CycScalar(Fraction(k) * q)
    assert (k == c) == (ref == c)
