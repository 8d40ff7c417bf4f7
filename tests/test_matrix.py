import random
from fractions import Fraction

import pytest

from sympdec.cyclotomic import CycScalar
from sympdec.errors import ShapeMismatchError
from sympdec.matrix import ExactMatrix, block_diag, block_matrix, perm_matrix


def rand_matrix(n, rng, span=5):
    return ExactMatrix.from_rows(
        [[Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]
    )


def test_kron_identities():
    assert ExactMatrix.identity(2).kron(ExactMatrix.identity(3)) == ExactMatrix.identity(6)


def test_perm_matrix_transposition_is_involution():
    p = perm_matrix([1, 0])
    assert (p @ p).is_identity()


def test_perm_matrix_rejects_non_permutation():
    with pytest.raises(ValueError):
        perm_matrix([0, 0])


def test_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ExactMatrix.identity(2) @ ExactMatrix.identity(3)
    with pytest.raises(ShapeMismatchError):
        ExactMatrix.identity(2) + ExactMatrix.zeros(2, 3)


def test_transpose_involution_and_product_rule():
    rng = random.Random(13)
    a = rand_matrix(4, rng)
    b = rand_matrix(4, rng)
    assert a.transpose().transpose() == a
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_det_multiplicative():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_matrix(3, rng)
        b = rand_matrix(3, rng)
        assert (a @ b).det() == a.det() * b.det()


def test_block_assembly():
    i2, i3 = ExactMatrix.identity(2), ExactMatrix.identity(3)
    m = block_matrix([[i2, ExactMatrix.zeros(2, 3)], [ExactMatrix.zeros(3, 2), i3]])
    assert m.is_identity()
    assert block_diag(i2, i3).is_identity()
    with pytest.raises(ShapeMismatchError):
        block_matrix([[i2, i3]])


def test_entries_with_cyclotomic_values():
    i = CycScalar.i()
    s2 = CycScalar.sqrt2()
    m = ExactMatrix.from_rows([[i, 0], [s2, Fraction(1, 2)]])
    assert m.entry(0, 0) == i
    assert m.entry(1, 1) == Fraction(1, 2)
    assert m.det() == i * Fraction(1, 2)
    assert ExactMatrix.from_rows([[i, s2], [s2, -i]]).det() == CycScalar(-1)


def test_common_denominator_is_canonical():
    a = ExactMatrix.from_rows([[Fraction(1, 2), 1]])
    b = ExactMatrix.from_rows([[Fraction(2, 4), Fraction(3, 3)]])
    assert a == b and hash(a) == hash(b)
    assert a.den == 2


def test_scale_and_negate():
    m = ExactMatrix.identity(3)
    assert m.scale(Fraction(1, 2)) + m.scale(Fraction(1, 2)) == m
    assert -(-m) == m
