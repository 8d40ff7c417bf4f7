import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import I as I_, QQ, exp, pi, sqrt

from sympdec.errors import ShapeMismatchError
from sympdec.matrix import ExactMatrix, block_diag, is_scaled_identity, place_blocks, transposed_num

from conftest import Q_ZETA8, over_q_zeta8
from oracles import HALF_SQRT2, I, entry, from_rows, perm_matrix, product, scale, transpose

SQRT2 = (0, 1, 0, -1)


def rand_matrix(n, rng, span=5):
    return from_rows([[Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(n)]
                      for _ in range(n)])


def test_kron_identities():
    assert ExactMatrix.identity(2).kron(ExactMatrix.identity(3)) == ExactMatrix.identity(6)


def test_perm_matrix_transposition_is_involution():
    p = perm_matrix([1, 0])
    assert p @ p == ExactMatrix.identity(2)


def test_perm_matrix_rejects_non_permutation():
    with pytest.raises(ValueError):
        perm_matrix([0, 0])


def test_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        ExactMatrix.identity(2) @ ExactMatrix.identity(3)
    with pytest.raises(ShapeMismatchError):
        ExactMatrix(2, 3, [0] * 20)


def test_transpose_involution_and_product_rule():
    """transposed_num, which the membership predicates apply to numerators."""
    rng = random.Random(13)
    for rows, cols in ((4, 4), (2, 5), (0, 3), (3, 1)):
        a = ExactMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(4 * rows * cols)])
        b = ExactMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(4 * rows * cols)])
        at, bt = (ExactMatrix(cols, rows, transposed_num(x.num, rows, cols)) for x in (a, b))
        assert at == transpose(a) and transposed_num(at.num, cols, rows) == a.num
        # (A^T B)^T = B^T A, all products of numerators
        left = ExactMatrix(cols, cols, transposed_num((at @ b).num, cols, cols))
        assert left == bt @ a


def test_block_assembly():
    i2, i3 = ExactMatrix.identity(2), ExactMatrix.identity(3)
    assert block_diag(i2, i3) == ExactMatrix.identity(5)


def entrywise(rows, cols, cells):
    """Reference assembly: cells maps (row, col) to an entry, all else is zero."""
    return from_rows([[cells.get((i, j), 0) for j in range(cols)] for i in range(rows)], cols)


def rand_block(r, c, rng):
    return ExactMatrix(r, c, [rng.randint(-5, 5) for _ in range(4 * r * c)], rng.randint(1, 6))


def test_block_assembly_matches_entrywise_reference():
    rng = random.Random(8)
    for _ in range(40):
        blocks = [rand_block(rng.randint(0, 3), rng.randint(0, 3), rng)
                  for _ in range(rng.randint(0, 4))]
        cells, r0, c0 = {}, 0, 0
        for b in blocks:
            cells.update({(r0 + i, c0 + j): entry(b, i, j)
                          for i in range(b.rows) for j in range(b.cols)})
            r0, c0 = r0 + b.rows, c0 + b.cols
        assert block_diag(*blocks) == entrywise(r0, c0, cells)


def test_place_blocks_scatters_and_rejects_bad_indices():
    b = from_rows([[1, Fraction(1, 2)], [I, 3]])
    cells = {(3, 0): 1, (3, 2): Fraction(1, 2), (1, 0): I, (1, 2): 3}
    assert place_blocks(4, 3, [(b, [3, 1], [0, 2])]) == entrywise(4, 3, cells)
    with pytest.raises(ShapeMismatchError):
        place_blocks(4, 3, [(b, [3], [0, 2])])
    for rows, cols in (([4, 1], [0, 2]), ([-1, 1], [0, 1]), ([3, 1], [0, 3]), ([3, 1], [-1, 0])):
        with pytest.raises(ShapeMismatchError):
            place_blocks(4, 3, [(b, rows, cols)])


def test_place_blocks_copies_runs_of_any_index_list():
    """Column lists with gaps, descending runs and runs of one: each run is one slice per row."""
    rng = random.Random(9)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        r_idx = rng.sample(range(rows), rng.randint(0, rows))
        c_idx = rng.sample(range(cols), rng.randint(0, cols))
        if rng.randrange(2):
            c_idx.sort(reverse=rng.randrange(2))
        b = rand_block(len(r_idx), len(c_idx), rng)
        cells = {(r, c): entry(b, i, j) for i, r in enumerate(r_idx) for j, c in enumerate(c_idx)}
        assert place_blocks(rows, cols, [(b, r_idx, c_idx)]) == entrywise(rows, cols, cells)


def test_entries_with_cyclotomic_values():
    m = from_rows([[I, 0], [SQRT2, Fraction(1, 2)]])
    assert (m.num, m.den) == ([0, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0, -2, 1, 0, 0, 0], 2)
    # entries and determinants from sympy over Q(z), where i = z^2 and sqrt2 = z - z^3
    z = Q_ZETA8.from_sympy(exp(I_ * pi / 4))
    d = over_q_zeta8(m)
    assert d[0, 0].element == z ** 2 and d[1, 0].element == z - z ** 3
    assert d[1, 1].element == Q_ZETA8(QQ(1, 2))
    assert over_q_zeta8(m).det() == Q_ZETA8([QQ(1, 2), 0, 0])
    minus_i = (0, 0, -1, 0)
    assert over_q_zeta8(from_rows([[I, SQRT2], [SQRT2, minus_i]])).det() == -Q_ZETA8.one
    # 1/sqrt2 = (z - z^3)/2
    assert over_q_zeta8(from_rows([[HALF_SQRT2]]))[0, 0].element == Q_ZETA8.from_sympy(1 / sqrt(2))


def test_a_matrix_from_a_tuple_a_generator_or_a_list_is_the_same():
    """The constructor keeps a list it is handed as the matrix's storage and copies
    any other iterable; the three give equal matrices, reduced alike."""
    num = [3, 0, -6, 0, 9, 0, 0, 3]
    for den, reduced in ((1, (num, 1)), (6, ([1, 0, -2, 0, 3, 0, 0, 1], 2)),
                         (-3, ([-1, 0, 2, 0, -3, 0, 0, -1], 1))):
        made = [ExactMatrix(1, 2, tuple(num), den), ExactMatrix(1, 2, iter(num), den),
                ExactMatrix(1, 2, (x for x in num), den), ExactMatrix(1, 2, list(num), den)]
        assert all(type(m.num) is list and (m.num, m.den) == reduced for m in made)
        assert all(m == made[0] for m in made)
    handed = list(num)
    assert ExactMatrix(1, 2, handed).num is handed


def test_common_denominator_is_canonical():
    a = ExactMatrix(1, 2, [1, 0, 0, 0, 2, 0, 0, 0], 2)
    b = ExactMatrix(1, 2, [2, 0, 0, 0, 4, 0, 0, 0], 4)
    assert a == b and (a.num, a.den) == (b.num, b.den)
    assert a.den == 2


def test_scale_and_negate():
    """kron by a 1 x 1 matrix scales; unary minus negates and keeps the content."""
    rng = random.Random(14)
    for _ in range(10):
        m = rand_mixed(rng.randint(0, 3), rng.randint(0, 3), rng)
        for a in (Fraction(1, 2), I, SQRT2, (Fraction(1, 3), -2, 0, 5)):
            assert from_rows([[a]]).kron(m) == scale(m, a) == m.kron(from_rows([[a]]))
        assert -(-m) == m and -m == scale(m, -1)
    half = from_rows([[Fraction(1, 2)]]).kron(ExactMatrix.identity(3))
    assert half @ from_rows([[2]]).kron(ExactMatrix.identity(3)) == ExactMatrix.identity(3)


def test_gather_reads_entries_and_inverts_place_blocks():
    rng = random.Random(12)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_block(rows, cols, rng)
        r_idx = [rng.randrange(rows) for _ in range(rng.randint(0, 6))]
        c_idx = [rng.randrange(cols) for _ in range(rng.randint(0, 6))]
        cells = {(i, j): entry(m, r, c) for i, r in enumerate(r_idx) for j, c in enumerate(c_idx)}
        assert m.gather(r_idx, c_idx) == entrywise(len(r_idx), len(c_idx), cells)
        # distinct indices: placing the gathered block back agrees with m there
        r_set, c_set = sorted(set(r_idx)), sorted(set(c_idx))
        back = place_blocks(rows, cols, [(m.gather(r_set, c_set), r_set, c_set)])
        assert all(entry(back, r, c) == entry(m, r, c) for r in r_set for c in c_set)


def test_gather_rejects_bad_indices():
    m = ExactMatrix.identity(3)
    for rows, cols in (([3], [0]), ([-1], [0]), ([0], [3]), ([0], [-1]), ([0, 1, 5], [0, 1])):
        with pytest.raises(ShapeMismatchError):
            m.gather(rows, cols)
    assert m.gather([], [0, 1]) == ExactMatrix(0, 2, [])


def test_gather_with_an_empty_index_list_is_the_empty_matrix():
    m = rand_block(3, 4, random.Random(14))
    for rows, cols in (([], []), ([], [3, 0]), ([2, 2, 0], []), (range(0), range(4))):
        assert m.gather(rows, cols) == ExactMatrix(len(rows), len(cols), [])
    assert ExactMatrix(0, 0, []).gather([], []) == ExactMatrix(0, 0, [])


def test_gather_reduces_content_and_transpose_and_negation_keep_it():
    # a sub-block can have a smaller content than the whole matrix: 2/2 comes out over 1
    g = ExactMatrix(1, 2, [2, 0, 0, 0, 1, 0, 0, 0], 2).gather([0], [0])
    assert (g.num, g.den) == ([1, 0, 0, 0], 1)
    # permuting entries or flipping signs leaves the content as it was
    rng = random.Random(13)
    for _ in range(20):
        m = rand_block(rng.randint(0, 4), rng.randint(0, 4), rng)
        t = transposed_num(m.num, m.rows, m.cols)
        assert (transpose(m).num, transpose(m).den) == (t, m.den)
        assert ((-m).num, (-m).den) == ([-x for x in m.num], m.den)
        assert -m == ExactMatrix(m.rows, m.cols, [-x for x in m.num], m.den)


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
        cells = {(i * b.rows + k, j * b.cols + l): product(entry(a, i, j), entry(b, k, l))
                 for i in range(a.rows) for j in range(a.cols)
                 for k in range(b.rows) for l in range(b.cols)}
        assert a.kron(b) == entrywise(a.rows * b.rows, a.cols * b.cols, cells)
        t = ExactMatrix(a.cols, a.rows, transposed_num(a.num, a.rows, a.cols), a.den)
        assert t == entrywise(a.cols, a.rows, {(j, i): entry(a, i, j)
                                               for i in range(a.rows) for j in range(a.cols)})
    z = from_rows([[0, 1], [I, 0]])
    assert z.kron(ExactMatrix.identity(2)) == entrywise(
        4, 4, {(0, 2): 1, (1, 3): 1, (2, 0): I, (3, 1): I})


# a left-factor entry by the cases kron treats apart: 0, +-1 and +-2 (rational
# integers, 0 and 1 shared, every integer scaled once), a Gaussian integer, a
# multiple of z, z^2 or z^3 alone and a dense element of Q(z) (all three through
# the kernel)
_KRON_ENTRIES = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2]).map(lambda a: (a, 0, 0, 0)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).map(lambda c: (c[0], 0, c[1], 0)),
    st.tuples(st.sampled_from([1, 2, 3]), st.integers(-4, 4)).map(
        lambda jc: tuple(jc[1] if t == jc[0] else 0 for t in range(4))),
    st.tuples(*[st.integers(-4, 4)] * 4))


@st.composite
def _kron_factors(draw):
    def matrix(rows, cols, entries):
        num = [x for _ in range(rows * cols) for x in draw(entries)]
        return ExactMatrix(rows, cols, num, draw(st.integers(1, 6)))

    r, c = draw(st.sampled_from([(0, 2), (2, 0), (0, 0), (1, 1), (1, 3), (2, 2), (3, 2)]))
    p, q = draw(st.sampled_from([(0, 3), (3, 0), (1, 1), (2, 3), (3, 3), (1, 4)]))
    return matrix(r, c, _KRON_ENTRIES), matrix(p, q, st.tuples(*[st.integers(-5, 5)] * 4))


@settings(max_examples=300, deadline=None)
@given(_kron_factors())
def test_kron_matches_the_entrywise_reference_property(factors):
    a, b = factors
    cells = {(i * b.rows + k, j * b.cols + l): product(entry(a, i, j), entry(b, k, l))
             for i in range(a.rows) for j in range(a.cols)
             for k in range(b.rows) for l in range(b.cols)}
    assert a.kron(b) == entrywise(a.rows * b.rows, a.cols * b.cols, cells)


def test_is_identity_compares_without_building_it():
    """is_scaled_identity(num, n, d): whether numerators num are d times I_n."""
    for n in (0, 1, 4):
        assert is_scaled_identity(ExactMatrix.identity(n).num, n, 1)
        assert is_scaled_identity([3 * x for x in ExactMatrix.identity(n).num], n, 3)
    for rows in ([[1, 0], [0, 2]], [[1, 1], [0, 1]], [[1, 0], [0, I]], [[2, 0], [0, 1]],
                 [[1, 0], [0, 0]], [[0, 1], [1, 0]], [[1, (0, 1, 0, 0)], [0, 1]]):
        assert not is_scaled_identity(from_rows(rows).num, 2, 1)
    assert not is_scaled_identity(from_rows([[2, 0], [0, 2]]).num, 2, 1)
    assert is_scaled_identity(from_rows([[2, 0], [0, 2]]).num, 2, 2)


def test_content_is_reduced_against_the_denominator():
    m = ExactMatrix(1, 2, [4, 0, 6, 0, 0, 0, 0, 0], 10)
    assert (m.num, m.den) == ([2, 0, 3, 0, 0, 0, 0, 0], 5)
    z = ExactMatrix(1, 1, [0, 0, 0, 0], 7)
    assert (z.num, z.den) == ([0, 0, 0, 0], 1)
    n = ExactMatrix(1, 1, [3, 0, 0, -6], -9)
    assert (n.num, n.den) == ([-1, 0, 0, 2], 3)
