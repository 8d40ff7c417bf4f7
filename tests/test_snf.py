import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

from sympdec.errors import ShapeMismatchError
from sympdec.induced import _presentation_matrix
from sympdec.intmatrix import IntMatrix, smith_normal_form, xgcd

from oracles import is_diagonal


def unimodular(m: IntMatrix) -> bool:
    """|det m| = 1, with the determinant from sympy."""
    return abs(DomainMatrix([[ZZ(x) for x in row] for row in m.row_lists()],
                            (m.rows, m.cols), ZZ).det()) == 1


def check_snf(m: IntMatrix):
    d, u, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert is_diagonal(d)
    diag = d.diagonal()
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert unimodular(u) and unimodular(v)
    return d


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
    d = check_snf(IntMatrix(2, 2, [2, 4, 6, 8]))
    assert d.diagonal() == [2, 4]


def test_identity_and_zero():
    assert check_snf(IntMatrix.identity(4)).diagonal() == [1, 1, 1, 1]
    assert check_snf(IntMatrix(1, 1, [0])).diagonal() == [0]
    assert check_snf(IntMatrix(3, 2, [0] * 6)).diagonal() == [0, 0]


def test_rectangular_shapes():
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
    # U*M*V = D, det U and det V = +-1 by sympy, D a nonnegative divisibility chain
    check_snf(m)


def test_determinism():
    m = IntMatrix(3, 3, [6, 4, 2, 2, 8, 4, 10, 2, 0])
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first[0] == second[0] and first[1] == second[1] and first[2] == second[2]


def test_xgcd():
    for a, b in [(9, 16), (16, 9), (-5, 3), (0, 7), (7, 0), (12, 18)]:
        g, x, y = xgcd(a, b)
        assert a * x + b * y == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def _agrees_with_sympy(m: IntMatrix):
    """Our diagonal against sympy's invariant factors, up to sign and trailing zeros."""
    def canon(diag):
        diag = [abs(int(x)) for x in diag]
        while diag and diag[-1] == 0:
            diag.pop()
        return diag
    theirs = invariant_factors(Matrix(m.rows, m.cols, m.data), domain=ZZ)
    assert canon(check_snf(m).diagonal()) == canon(theirs), m


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
        _agrees_with_sympy(IntMatrix(r, c, [x for row in grid for x in row]))


def test_diagonal_matches_sympy_on_golden_presentations(golden_homs):
    for h in golden_homs:
        _agrees_with_sympy(_presentation_matrix(h))
