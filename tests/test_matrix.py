import random
from fractions import Fraction

import pytest
from sympy import QQ

from sympdec.cyclotomic import CycScalar
from sympdec.errors import ShapeMismatchError
from sympdec.matrix import ExactMatrix, block_diag, block_matrix, perm_matrix, place_blocks

from conftest import Q_ZETA8, over_q_zeta8


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


def test_block_assembly():
    i2, i3 = ExactMatrix.identity(2), ExactMatrix.identity(3)
    m = block_matrix([[i2, ExactMatrix.zeros(2, 3)], [ExactMatrix.zeros(3, 2), i3]])
    assert m.is_identity()
    assert block_diag(i2, i3).is_identity()
    with pytest.raises(ShapeMismatchError):
        block_matrix([[i2, i3]])


def entrywise(rows, cols, cells):
    """Reference assembly: cells maps (row, col) to an entry, all else is zero."""
    return ExactMatrix.from_rows([[cells.get((i, j), 0) for j in range(cols)]
                                  for i in range(rows)]) if rows else ExactMatrix.zeros(0, cols)


def rand_block(r, c, rng):
    return ExactMatrix(r, c, [rng.randint(-5, 5) for _ in range(4 * r * c)], rng.randint(1, 6))


def test_block_assembly_matches_entrywise_reference():
    rng = random.Random(8)
    for _ in range(40):
        hs = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        ws = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        grid = [[rand_block(h, w, rng) for w in ws] for h in hs]
        cells = {(sum(hs[:p]) + i, sum(ws[:q]) + j): b.entry(i, j)
                 for p, row in enumerate(grid) for q, b in enumerate(row)
                 for i in range(b.rows) for j in range(b.cols)}
        assert block_matrix(grid) == entrywise(sum(hs), sum(ws), cells)
        blocks = [rand_block(rng.randint(0, 3), rng.randint(0, 3), rng)
                  for _ in range(rng.randint(0, 4))]
        cells, r0, c0 = {}, 0, 0
        for b in blocks:
            cells.update({(r0 + i, c0 + j): b.entry(i, j)
                          for i in range(b.rows) for j in range(b.cols)})
            r0, c0 = r0 + b.rows, c0 + b.cols
        assert block_diag(*blocks) == entrywise(r0, c0, cells)


def test_place_blocks_scatters_and_rejects_bad_indices():
    b = ExactMatrix.from_rows([[1, Fraction(1, 2)], [CycScalar.i(), 3]])
    cells = {(3, 0): 1, (3, 2): Fraction(1, 2), (1, 0): CycScalar.i(), (1, 2): 3}
    assert place_blocks(4, 3, [(b, [3, 1], [0, 2])]) == entrywise(4, 3, cells)
    with pytest.raises(ShapeMismatchError):
        place_blocks(4, 3, [(b, [3], [0, 2])])
    for rows, cols in (([4, 1], [0, 2]), ([-1, 1], [0, 1]), ([3, 1], [0, 3]), ([3, 1], [-1, 0])):
        with pytest.raises(ShapeMismatchError):
            place_blocks(4, 3, [(b, rows, cols)])


def test_entries_with_cyclotomic_values():
    i = CycScalar.i()
    s2 = CycScalar.sqrt2()
    m = ExactMatrix.from_rows([[i, 0], [s2, Fraction(1, 2)]])
    assert m.entry(0, 0) == i
    assert m.entry(1, 1) == Fraction(1, 2)
    # determinants from sympy over Q(z), where i = z^2
    assert over_q_zeta8(m).det() == Q_ZETA8([QQ(1, 2), 0, 0])
    assert over_q_zeta8(ExactMatrix.from_rows([[i, s2], [s2, -i]])).det() == -Q_ZETA8.one


def test_common_denominator_is_canonical():
    a = ExactMatrix.from_rows([[Fraction(1, 2), 1]])
    b = ExactMatrix.from_rows([[Fraction(2, 4), Fraction(3, 3)]])
    assert a == b and hash(a) == hash(b)
    assert a.den == 2


def test_scale_and_negate():
    m = ExactMatrix.identity(3)
    assert m.scale(Fraction(1, 2)) + m.scale(Fraction(1, 2)) == m
    assert -(-m) == m


def test_gather_reads_entries_and_inverts_place_blocks():
    rng = random.Random(12)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_block(rows, cols, rng)
        r_idx = [rng.randrange(rows) for _ in range(rng.randint(0, 6))]
        c_idx = [rng.randrange(cols) for _ in range(rng.randint(0, 6))]
        cells = {(i, j): m.entry(r, c) for i, r in enumerate(r_idx) for j, c in enumerate(c_idx)}
        assert m.gather(r_idx, c_idx) == entrywise(len(r_idx), len(c_idx), cells)
        # distinct indices: placing the gathered block back agrees with m there
        r_set, c_set = sorted(set(r_idx)), sorted(set(c_idx))
        back = place_blocks(rows, cols, [(m.gather(r_set, c_set), r_set, c_set)])
        assert all(back.entry(r, c) == m.entry(r, c) for r in r_set for c in c_set)


def test_gather_rejects_bad_indices():
    m = ExactMatrix.identity(3)
    for rows, cols in (([3], [0]), ([-1], [0]), ([0], [3]), ([0], [-1]), ([0, 1, 5], [0, 1])):
        with pytest.raises(ShapeMismatchError):
            m.gather(rows, cols)
    assert m.gather([], [0, 1]) == ExactMatrix.zeros(0, 2)


def test_gather_reduces_content_and_transpose_and_negation_keep_it():
    # a sub-block can have a smaller content than the whole matrix: 2/2 comes out over 1
    g = ExactMatrix(1, 2, [2, 0, 0, 0, 1, 0, 0, 0], 2).gather([0], [0])
    assert (g.num, g.den) == ([1, 0, 0, 0], 1)
    # permuting entries or flipping signs leaves the content as it was
    rng = random.Random(13)
    for _ in range(20):
        m = rand_block(rng.randint(0, 4), rng.randint(0, 4), rng)
        for out, num in ((m.transpose(), m.transpose().num), (-m, [-x for x in m.num])):
            assert out == ExactMatrix(out.rows, out.cols, num, m.den)


def rand_mixed(r, c, rng):
    """Entries drawn as zero, a rational integer or a full Q(z) element: the cases kron
    and the kernel treat apart."""
    num = []
    for _ in range(r * c):
        kind = rng.randrange(3)
        num += ([0] * 4 if kind == 0 else [rng.randint(-5, 5), 0, 0, 0] if kind == 1
                else [rng.randint(-5, 5) for _ in range(4)])
    return ExactMatrix(r, c, num, rng.randint(1, 6))


def test_kron_and_transpose_match_entrywise_references():
    rng = random.Random(13)
    for _ in range(30):
        a = rand_mixed(rng.randint(0, 3), rng.randint(0, 3), rng)
        b = rand_mixed(rng.randint(0, 3), rng.randint(0, 3), rng)
        cells = {(i * b.rows + k, j * b.cols + l): a.entry(i, j) * b.entry(k, l)
                 for i in range(a.rows) for j in range(a.cols)
                 for k in range(b.rows) for l in range(b.cols)}
        assert a.kron(b) == entrywise(a.rows * b.rows, a.cols * b.cols, cells)
        assert a.transpose() == entrywise(a.cols, a.rows, {(j, i): a.entry(i, j)
                                                           for i in range(a.rows)
                                                           for j in range(a.cols)})
    i = CycScalar.i()
    z = ExactMatrix.from_rows([[0, 1], [i, 0]])
    assert z.kron(ExactMatrix.identity(2)) == entrywise(
        4, 4, {(0, 2): 1, (1, 3): 1, (2, 0): i, (3, 1): i})


def test_is_identity_compares_without_building_it():
    assert ExactMatrix.identity(0).is_identity() and ExactMatrix.identity(4).is_identity()
    i = CycScalar.i()
    for rows in ([[1, 0], [0, 2]], [[1, 1], [0, 1]], [[1, 0], [0, i]], [[Fraction(1, 2), 0], [0, 1]],
                 [[1, 0], [0, 0]], [[0, 1], [1, 0]], [[1, 0, 0], [0, 1, 0]]):
        assert not ExactMatrix.from_rows(rows).is_identity()
    assert ExactMatrix(2, 2, [3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0], 3).is_identity()


def test_content_is_reduced_against_the_denominator():
    m = ExactMatrix(1, 2, [4, 0, 6, 0, 0, 0, 0, 0], 10)
    assert (m.num, m.den) == ([2, 0, 3, 0, 0, 0, 0, 0], 5)
    z = ExactMatrix(1, 1, [0, 0, 0, 0], 7)
    assert (z.num, z.den) == ([0, 0, 0, 0], 1)
    n = ExactMatrix(1, 1, [3, 0, 0, -6], -9)
    assert (n.num, n.den) == ([-1, 0, 0, 2], 3)
