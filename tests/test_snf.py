import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from sympdec.errors import ShapeMismatchError
from sympdec.induced import _presentation_matrix
from sympdec.intmatrix import IntMatrix, smith_normal_form


def _nonzero(factors) -> list[int]:
    """The factors as nonnegative ints, trailing zeros dropped."""
    factors = [abs(int(x)) for x in factors]
    while factors and factors[-1] == 0:
        factors.pop()
    return factors


def check_snf(m: IntMatrix) -> list[int]:
    """Our invariant factors of m: min(rows, cols) of them, a nonnegative
    divisibility chain, and, up to trailing zeros, sympy's."""
    diag = smith_normal_form(m)
    assert len(diag) == min(m.rows, m.cols)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    theirs = invariant_factors(Matrix(m.rows, m.cols, m.data), domain=ZZ)
    assert _nonzero(diag) == _nonzero(theirs), m
    return diag


def test_rejects_non_integer_entries_and_shapes():
    for bad in (2.9, 2.0, Fraction(6, 2)):
        with pytest.raises(TypeError):
            IntMatrix(1, 1, [bad])
        with pytest.raises(TypeError):
            IntMatrix(1, 2, [1, bad])
    with pytest.raises(TypeError):
        IntMatrix(1.0, 1, [2])
    with pytest.raises(ShapeMismatchError):
        IntMatrix(-1, -1, [0])
    m = IntMatrix(1, 2, [True, 3])
    assert m.data == [1, 3] and type(m.data[0]) is int


def test_frozen_example_2x2():
    # d1 = gcd of the entries = 2 and d1*d2 = |det| = 8, so the diagonal is (2, 4)
    assert check_snf(IntMatrix(2, 2, [2, 4, 6, 8])) == [2, 4]


def test_identity_and_zero():
    assert check_snf(IntMatrix.identity(4)) == [1, 1, 1, 1]
    assert check_snf(IntMatrix(1, 1, [0])) == [0]
    assert check_snf(IntMatrix(3, 2, [0] * 6)) == [0, 0]


def test_rectangular_shapes():
    # the pivot 2 leaves 3 beside it, so only clearing the row finds gcd 1
    assert check_snf(IntMatrix(1, 2, [2, 3])) == [1]
    check_snf(IntMatrix(2, 3, [1, 2, 3, 4, 5, 6]))
    check_snf(IntMatrix(3, 1, [3, 6, 9]))
    check_snf(IntMatrix(0, 3, []))
    check_snf(IntMatrix(3, 0, []))


def test_randomized_snf():
    rng = random.Random(2718)
    for _ in range(120):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix(r, c, [rng.randint(-9, 9) for _ in range(r * c)])
        check_snf(m)


@st.composite
def int_matrices(draw, max_dim=5):
    """Integer matrices up to max_dim x max_dim, some rows and columns zeroed."""
    r, c = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    entry = st.integers(-60, 60) | st.integers(-10 ** 12, 10 ** 12)
    data = draw(st.lists(entry, min_size=r * c, max_size=r * c))
    zero_rows = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    zero_cols = draw(st.lists(st.booleans(), min_size=c, max_size=c))
    return IntMatrix(r, c, [0 if zero_rows[k // c] or zero_cols[k % c] else x
                            for k, x in enumerate(data)])


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_snf_property(m):
    # a nonnegative divisibility chain, equal to sympy's invariant factors
    check_snf(m)


@st.composite
def unit_heavy_matrices(draw):
    """Matrices up to 4 x 6 whose entries are 0, +-1 and +-2, now and then
    +-10^30, with some rows and columns zeroed: the pivots are mostly units,
    at every pivot position, and a huge entry beside a unit still has to be
    cleared."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 1, -1, 1, -1, 2, -2, 10 ** 30, -10 ** 30])
    data = draw(st.lists(entry, min_size=r * c, max_size=r * c))
    zero_rows = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    zero_cols = draw(st.lists(st.booleans(), min_size=c, max_size=c))
    return IntMatrix(r, c, [0 if zero_rows[k // c] or zero_cols[k % c] else x
                            for k, x in enumerate(data)])


@settings(max_examples=400, deadline=None)
@given(unit_heavy_matrices())
# a unit pivot at each of the four positions, then a 2 beside a -1
@example(IntMatrix(4, 6, [1, 2, 0, 0, 10 ** 30, 0,
                          0, -1, 2, 0, 0, 2,
                          0, 0, 1, -2, 0, 0,
                          2, 0, 0, -1, 0, 10 ** 30]))
@example(IntMatrix(2, 3, [2, 2, 1, 2, -1, 0]))
def test_snf_unit_heavy_property(m):
    # the unit-pivot exit gives sympy's invariant factors wherever it is taken
    check_snf(m)


def test_a_pivot_of_two_is_not_a_unit():
    # 2 divides neither 3 nor 1, so the step at a pivot 2 must go on past
    # its column: clearing the row, then the divisibility scan
    assert check_snf(IntMatrix(2, 2, [2, 0, 0, 3])) == [1, 6]
    assert check_snf(IntMatrix(1, 2, [-2, 3])) == [1]
    assert check_snf(IntMatrix(2, 3, [2, 0, 0, 0, 2, 3])) == [1, 2]


def test_determinism():
    m = IntMatrix(3, 3, [6, 4, 2, 2, 8, 4, 10, 2, 0])
    assert smith_normal_form(m) == smith_normal_form(m) == [2, 2, 10]


def test_diagonal_matches_sympy_on_random_matrices():
    rng = random.Random(1729)
    for _ in range(150):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        grid = [[rng.randint(-30, 30) for _ in range(c)] for _ in range(r)]
        for row in grid:
            if rng.random() < 0.2:
                row[:] = [0] * c
        for j in range(c):
            if rng.random() < 0.2:
                for row in grid:
                    row[j] = 0
        check_snf(IntMatrix(r, c, [x for row in grid for x in row]))


def test_diagonal_matches_sympy_on_golden_presentations(golden_homs):
    for h in golden_homs:
        check_snf(_presentation_matrix(h))
