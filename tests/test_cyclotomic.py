"""Arithmetic in the cyclotomic field Q(z), z^4 = -1, as the library does it.

A scalar is a 1 x 1 ExactMatrix: four numerators over one denominator in
canonical form, multiplied by the kernel (@) and by kron.  Results are
checked against sympy over Q(exp(i pi/4)), whose field arithmetic,
inverses included, is independent of ours.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy import I, exp, pi, sqrt

from sympdec.matrix import ExactMatrix

from conftest import Q_ZETA8, over_q_zeta8
from oracles import HALF_SQRT2, from_rows

Z = Q_ZETA8.from_sympy(exp(I * pi / 4))


def scalar(*c) -> ExactMatrix:
    """The scalar c0 + c1 z + c2 z^2 + c3 z^3 as a 1 x 1 matrix."""
    return from_rows([[tuple(c) + (0,) * (4 - len(c))]])


def element(x: ExactMatrix):
    """x as an element of sympy's Q(z)."""
    return over_q_zeta8(x)[0, 0].element


def from_element(e) -> ExactMatrix:
    """The 1 x 1 matrix of the sympy field element e (coefficients highest first)."""
    c = [Fraction(int(q.numerator), int(q.denominator)) for q in reversed(e.to_list())]
    return scalar(*c)


def add(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(1, 1, [a * y.den + b * x.den for a, b in zip(x.num, y.num)], x.den * y.den)


def rand_scalar(rng):
    return scalar(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])


ONE = scalar(1)
ZERO = scalar(0)


def test_i_squared_is_minus_one():
    i = scalar(0, 0, 1)
    assert i @ i == scalar(-1) == i.kron(i)
    assert element(i) == Z ** 2


def test_sqrt2_squared_is_two():
    s = scalar(0, 1, 0, -1)
    assert s @ s == scalar(2)
    assert element(s) == Q_ZETA8.from_sympy(sqrt(2))


def test_inverse_of_sqrt2():
    # 1/sqrt2 = (z - z^3)/2, the constant of the orthonormal basis of J kron J
    half = from_rows([[HALF_SQRT2]])
    assert scalar(0, 1, 0, -1) @ half == ONE
    assert element(half) == Q_ZETA8.from_sympy(1 / sqrt(2))
    assert from_element(Q_ZETA8.from_sympy(1 / sqrt(2))) == half


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ExactMatrix(1, 1, [1, 0, 0, 0], 0)


def test_zeta_powers_reduce():
    z = scalar(0, 1)
    powers = [ONE]
    for _ in range(8):
        powers.append(powers[-1] @ z)
    assert powers[2] == scalar(0, 0, 1) and powers[3] == scalar(0, 0, 0, 1)
    assert powers[4] == scalar(-1) and powers[8] == ONE
    assert add(z, -powers[3]) == scalar(0, 1, 0, -1)     # sqrt2 = z - z^3
    assert [element(p) for p in powers] == [Z ** k for k in range(9)]


def check_field_laws(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ b == b @ a == a.kron(b)
    assert a @ add(b, c) == add(a @ b, a @ c)
    assert element(a @ b) == element(a) * element(b)
    if a != ZERO:
        # the inverse from sympy, multiplied back by the kernel
        inv = from_element(Q_ZETA8.one / element(a))
        assert a @ inv == ONE and (b @ inv) @ a == b


def test_field_laws_randomized():
    rng = random.Random(20240817)
    for _ in range(200):
        check_field_laws(*(rand_scalar(rng) for _ in range(3)))


SCALARS = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30),
                   min_size=4, max_size=4).map(lambda c: scalar(*c))


@settings(max_examples=100, deadline=None)
@given(SCALARS, SCALARS, SCALARS, st.integers(1, 10 ** 6))
def test_field_laws_property(a, b, c, k):
    check_field_laws(a, b, c)
    assert add(a, -a) == ZERO and a @ scalar(-1) == -a
    # canonical form: every way of writing a value gives the same numerators and denominator
    for same in (add(add(a, b), -b), from_element(element(a)),
                 ExactMatrix(1, 1, [k * x for x in a.num], k * a.den)):
        assert (same.num, same.den) == (a.num, a.den)
    assert a.den > 0 and gcd(*a.num, a.den) == 1


def test_coeffs_are_reduced_fractions():
    x = scalar(Fraction(2, 4), Fraction(-6, 9), 0, 3)
    assert (x.num, x.den) == ([3, -4, 0, 18], 6)
    assert gcd(*x.num, x.den) == 1
    assert element(x) == Q_ZETA8.from_sympy(Fraction(1, 2) - Fraction(2, 3) * exp(I * pi / 4)
                                            + 3 * exp(3 * I * pi / 4))


def test_canonical_form_makes_equality_structural():
    a = ExactMatrix(1, 1, [1, 0, 3, 0], 2)
    b = ExactMatrix(1, 1, [2, 0, 6, 0], 4)
    assert a == b
    assert (a.num, a.den) == (b.num, b.den) == ([1, 0, 3, 0], 2)
