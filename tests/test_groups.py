import hashlib
import random
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st
from sympy import sqrt
from sympy.polys.matrices import DomainMatrix

from sympdec import groups, suites
from sympdec.errors import IndexOutOfRangeError, NotInGroupError, ShapeMismatchError
from sympdec.groups import (
    _rng,
    _Stream,
    direct_sum_sp,
    doubling,
    is_orthogonal,
    is_symplectic,
    is_symplectic_blocks,
    is_symplectic_gram,
    r_fold_sum_sp,
    random_gl,
    random_so,
    random_sp,
    stabilization_sj,
    tensor_sp_o,
    tensor_sp_sp,
    verify_l_conjugation,
    verify_mixed_product,
    verify_sj_conjugation,
)
from sympdec.matrix import ExactMatrix, block_diag, place_blocks, transposed_num

from conftest import Q_ZETA8, over_q_zeta8
from oracles import (I, change_of_basis_p, dense_gram, dense_gram_product, entry, from_rows,
                     perm_matrix, perm_pj, perm_pmn, random_symmetric, random_unimodular, scale,
                     shake_draws, transpose, with_perturbed_entry)


# -- membership predicates ---------------------------------------------------

def test_identity_is_symplectic():
    for m in (1, 2, 3):
        assert is_symplectic(ExactMatrix.identity(2 * m))


def test_gram_matrix_is_symplectic():
    # J^T J J = J because J^2 = -I
    for m in (1, 2):
        assert is_symplectic(dense_gram(m))


def test_rational_diagonal_example():
    assert is_symplectic(from_rows([[2, 0], [0, Fraction(1, 2)]]))


def test_odd_size_raises():
    # each route, and is_symplectic, refuses odd-sized and non-square input and takes 0 x 0
    for route in (is_symplectic, is_symplectic_gram, is_symplectic_blocks):
        assert route(ExactMatrix(0, 0, []))
        for bad in (ExactMatrix.identity(3), ExactMatrix(2, 4, [0] * 32),
                    ExactMatrix(4, 2, [0] * 32)):
            with pytest.raises(ShapeMismatchError):
                route(bad)


def off_target(a):
    """a diag(1 + i, 1, ..., 1).  Its Gram product is D^T (a^T J a) D, so for a in Sp
    it matches J in component 0 of every entry but has an i part at (0, k) and
    (k, 0): only the zeros off J's entries refuse it."""
    n = a.rows
    return a @ from_rows([[(1, 0, 1, 0) if r == c == 0 else int(r == c) for c in range(n)]
                          for r in range(n)])


def test_gram_and_block_routes_form_a_biconditional():
    rng = random.Random(11)
    for k in range(30):
        m = rng.randint(1, 3)
        member = random_sp(m, seed=f"bicond:{k}")
        candidates = [member, with_perturbed_entry(member), off_target(member)]
        for cand in candidates:
            assert is_symplectic_gram(cand) == is_symplectic_blocks(cand)
    assert not is_symplectic(with_perturbed_entry(ExactMatrix.identity(4)))


def test_orthogonal_predicates():
    assert is_orthogonal(ExactMatrix.identity(3))
    refl = from_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    assert is_orthogonal(refl) and over_q_zeta8(refl).det() == -Q_ZETA8.one
    assert not is_orthogonal(with_perturbed_entry(ExactMatrix.identity(3)))


# -- membership against sympy, outside our arithmetic -------------------------

def sympy_is_symplectic(m):
    """M^T J M == J, computed by sympy over Q(z)."""
    k = m.rows // 2
    one, zero = Q_ZETA8.one, Q_ZETA8.zero
    j = DomainMatrix([[one if c == r + k else -one if r == c + k else zero
                       for c in range(2 * k)] for r in range(2 * k)], (2 * k, 2 * k), Q_ZETA8)
    d = over_q_zeta8(m)
    return d.transpose() * j * d == j


def sympy_is_orthogonal(m):
    """M^T M == I, computed by sympy over Q(z)."""
    d = over_q_zeta8(m)
    return d.transpose() * d == DomainMatrix.eye(m.rows, Q_ZETA8).to_dense()


@st.composite
def symplectic_candidates(draw):
    """A random_sp, direct_sum_sp or tensor_sp_o output, then three non-members made
    from it: perturbed, anti-symplectic, and with an i part off J's entries."""
    seed, m = draw(st.integers(0, 10 ** 6)), draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["random_sp", "direct_sum_sp", "tensor_sp_o"]))
    a = random_sp(m, seed)
    if kind == "direct_sum_sp":
        a = direct_sum_sp(a, random_sp(draw(st.integers(1, 2)), seed + 1))
    elif kind == "tensor_sp_o":
        a = tensor_sp_o(a, random_so(draw(st.integers(1, 3)), seed))
    # (M D)^T J (M D) = D^T J D = -J for D = diag(I, -I)
    k = a.rows // 2
    anti = a @ block_diag(ExactMatrix.identity(k), -ExactMatrix.identity(k))
    return [a, with_perturbed_entry(a, draw(st.sampled_from([-2, -1, 1, 2]))), anti, off_target(a)]


@st.composite
def orthogonal_candidates(draw):
    """A random_so or tensor_sp_sp output or a reflection, kept or perturbed."""
    seed = draw(st.integers(0, 10 ** 6))
    kind = draw(st.sampled_from(["random_so", "tensor_sp_sp", "reflection"]))
    if kind == "tensor_sp_sp":
        a = tensor_sp_sp(random_sp(draw(st.integers(1, 2)), seed),
                         random_sp(draw(st.integers(1, 2)), seed + 1))
    else:
        n = draw(st.integers(1, 6))
        a = random_so(n, seed)
        if kind == "reflection":
            a = from_rows([[-1 if i == j == 0 else int(i == j) for j in range(n)]
                           for i in range(n)]) @ a
    if draw(st.booleans()):
        a = with_perturbed_entry(a, draw(st.sampled_from([-2, -1, 1, 2])))
    return a


@settings(max_examples=40, deadline=None)
@given(symplectic_candidates())
def test_is_symplectic_agrees_with_sympy_property(candidates):
    for m in candidates:
        assert is_symplectic(m) == sympy_is_symplectic(m)


@settings(max_examples=40, deadline=None)
@given(orthogonal_candidates())
def test_is_orthogonal_agrees_with_sympy_property(m):
    assert is_orthogonal(m) == sympy_is_orthogonal(m)


# -- direct sums and stabilizations -------------------------------------------

def test_direct_sum_of_identities():
    assert direct_sum_sp(ExactMatrix.identity(2), ExactMatrix.identity(2)) == ExactMatrix.identity(4)


def test_direct_sum_with_identity_is_stabilization():
    # the first of r slots is the plain stabilization, a direct sum with the identity
    a = random_sp(2, seed=3)
    assert direct_sum_sp(a, ExactMatrix.identity(4)) == stabilization_sj(a, 1, 2)
    assert direct_sum_sp(ExactMatrix.identity(4), a) == stabilization_sj(a, 2, 2)
    assert stabilization_sj(a, 1, 1) == a


def test_direct_sum_closure_randomized():
    for k in range(20):
        a = random_sp(1 + k % 2, seed=f"ds:{k}:a")
        b = random_sp(1 + (k + 1) % 3, seed=f"ds:{k}:b")
        assert is_symplectic(direct_sum_sp(a, b))


def test_direct_sum_rejects_non_members():
    with pytest.raises(NotInGroupError):
        direct_sum_sp(with_perturbed_entry(ExactMatrix.identity(2)), ExactMatrix.identity(2))


def test_r_fold_sum():
    a = random_sp(1, seed=4)
    assert r_fold_sum_sp(a, 1) == a
    assert r_fold_sum_sp(ExactMatrix.identity(2), 2) == ExactMatrix.identity(4)
    triple = r_fold_sum_sp(a, 3)
    assert triple == direct_sum_sp(a, direct_sum_sp(a, a))
    assert is_symplectic(triple)


def test_stabilization_sj_basics():
    a = random_sp(1, seed=5)
    # the first slot recovers the plain stabilization
    assert stabilization_sj(a, 1, 3) == direct_sum_sp(a, ExactMatrix.identity(4))
    assert stabilization_sj(ExactMatrix.identity(4), 2, 3) == ExactMatrix.identity(12)
    for j in (1, 2, 3):
        assert is_symplectic(stabilization_sj(a, j, 3))
    with pytest.raises(IndexOutOfRangeError):
        stabilization_sj(a, 4, 3)
    with pytest.raises(IndexOutOfRangeError):
        stabilization_sj(a, 0, 3)


def test_sj_conjugation_identity():
    for n, r in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        for j in range(1, r):
            a = random_sp(n, seed=f"sjconj:{n}:{r}:{j}")
            assert verify_sj_conjugation(a, j, r)
    # worked case: third slot of three one-dimensional blocks
    a = random_sp(1, seed="worked")
    assert verify_sj_conjugation(a, 2, 3)
    assert verify_sj_conjugation(ExactMatrix.identity(2), 1, 2)


def test_perm_pj_is_a_transposition():
    p = perm_pj(1, 2, 3)
    assert p @ p == ExactMatrix.identity(6) and p != ExactMatrix.identity(6)
    assert groups._pj_cols(1, 2, 3) == [2, 3, 0, 1, 4, 5]
    with pytest.raises(IndexOutOfRangeError):
        groups._pj_cols(3, 2, 3)
    with pytest.raises(IndexOutOfRangeError):
        verify_sj_conjugation(random_sp(2, seed=6), 3, 3)


# -- doubling -----------------------------------------------------------------

def test_doubling():
    assert doubling(ExactMatrix.identity(3)) == ExactMatrix.identity(6)
    refl = from_rows([[1, 0], [0, -1]])
    d = doubling(refl)
    assert d == block_diag(refl, refl)
    assert is_symplectic(d)
    for k in range(10):
        assert is_symplectic(doubling(random_so(3, seed=k)))
    with pytest.raises(NotInGroupError):
        doubling(with_perturbed_entry(ExactMatrix.identity(2)))


# -- tensor products ----------------------------------------------------------

def test_tensor_sp_o_identities():
    assert tensor_sp_o(ExactMatrix.identity(4), ExactMatrix.identity(3)) == ExactMatrix.identity(12)


def test_tensor_sp_o_center_to_center():
    m, n = 2, 3
    neg = -ExactMatrix.identity(2 * m)
    assert tensor_sp_o(neg, ExactMatrix.identity(n)) == -ExactMatrix.identity(2 * m * n)


def test_tensor_sp_o_closure_randomized():
    for k in range(15):
        a = random_sp(1 + k % 2, seed=f"tso:{k}:a")
        b = random_so(2 + k % 2, seed=f"tso:{k}:b")
        assert is_symplectic(tensor_sp_o(a, b))


def test_tensor_gram_compatibility():
    # the basis ordering makes J kron I literally the bigger J
    for m, n in [(1, 2), (2, 3)]:
        assert dense_gram(m).kron(ExactMatrix.identity(n)) == dense_gram(m * n)


def test_l_and_r_restrictions_fit_together():
    a = random_sp(2, seed="lr:a")
    b = random_so(3, seed="lr:b")
    left = tensor_sp_o(a, ExactMatrix.identity(3))
    right = tensor_sp_o(ExactMatrix.identity(4), b)
    assert left @ right == tensor_sp_o(a, b)


def test_orthonormal_change_of_basis():
    for m, n in [(1, 1), (1, 2), (2, 2)]:
        p = change_of_basis_p(m, n)
        g = dense_gram(m).kron(dense_gram(n))
        assert transpose(p) @ g @ p == ExactMatrix.identity(4 * m * n)


def test_tensor_sp_sp():
    assert tensor_sp_sp(ExactMatrix.identity(2), ExactMatrix.identity(2)) == ExactMatrix.identity(4)
    for k in range(10):
        a = random_sp(1, seed=f"tss:{k}:a")
        b = random_sp(1 + k % 2, seed=f"tss:{k}:b")
        out = tensor_sp_sp(a, b)
        assert is_orthogonal(out)
        assert out.rows == 4 * 1 * (1 + k % 2)


def test_l_conjugation_identity():
    a = random_sp(1, seed="L:1")
    assert verify_l_conjugation(a, 1)       # trivial shuffle
    for m, n in [(1, 2), (2, 3), (3, 2)]:
        a = random_sp(m, seed=f"L:{m}:{n}")
        assert verify_l_conjugation(a, n)
    assert perm_pmn(1, 1) == ExactMatrix.identity(1)
    assert perm_pmn(2, 3) == perm_matrix(groups._pmn_cols(2, 3))


def test_mixed_product():
    assert verify_mixed_product(ExactMatrix.identity(2), ExactMatrix.identity(3))
    assert verify_mixed_product(random_gl(2, seed=1), random_gl(3, seed=2))
    # scalar case is the commutativity of the field
    assert verify_mixed_product(from_rows([[7]]), from_rows([[5]]))


# -- placed constructions against dense oracles -------------------------------
# The oracles build every matrix entry by entry and combine by dense products,
# so none of them goes through matrix.place_blocks.

def dense_block_diag(*blocks):
    size = sum(b.rows for b in blocks)
    rows = [[0] * size for _ in range(size)]
    o = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                rows[o + i][o + j] = entry(b, i, j)
        o += b.rows
    return from_rows(rows, size)


def interleaving(halves):
    """S such that S^T diag(B_1, ..., B_k) S is the interleaved sum of the B_t (size 2 n_t)."""
    starts = [2 * sum(halves[:t]) for t in range(len(halves))]
    cols = [s + q for s, k in zip(starts, halves) for q in range(k)]
    cols += [s + k + q for s, k in zip(starts, halves) for q in range(k)]
    return perm_matrix(cols)


def interleaved_oracle(*blocks):
    s = interleaving([b.rows // 2 for b in blocks])
    return transpose(s) @ dense_block_diag(*blocks) @ s


def g_scan_change_of_basis(m, n):
    """P over sympy's Q(z), from a scan of G = J kron J: each column of G holds one
    nonzero, eps at the partner, and gives the columns (e_a + eps e_a')/sqrt2 and
    i (e_a - eps e_a')/sqrt2."""
    g = over_q_zeta8(dense_gram(m).kron(dense_gram(n))).to_list()
    half = Q_ZETA8.from_sympy(1 / sqrt(2))
    ihalf = Q_ZETA8.from_sympy(sqrt(-1)) * half
    size = len(g)
    cols, seen = [], [False] * size
    for a in range(size):
        if seen[a]:
            continue
        partner = next(r for r in range(size) if g[r][a])
        eps = g[partner][a]
        seen[a] = seen[partner] = True
        u, v = [Q_ZETA8.zero] * size, [Q_ZETA8.zero] * size
        u[a], u[partner] = half, eps * half
        v[a], v[partner] = ihalf, -eps * ihalf
        cols += [u, v]
    return DomainMatrix([list(row) for row in zip(*cols)], (size, size), Q_ZETA8)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_interleaved_sums_match_the_conjugated_block_diagonal(m):
    ident = ExactMatrix.identity(2 * m)
    for seed in range(2):
        a = random_sp(m, seed=f"place:{m}:{seed}")
        for n in (1, 2, 3):
            b = random_sp(n, seed=f"place:{n}:{seed}:b")
            assert direct_sum_sp(a, b) == interleaved_oracle(a, b)
        for r in (1, 2, 3):
            assert r_fold_sum_sp(a, r) == interleaved_oracle(*[a] * r)
            for j in range(1, r + 1):
                slots = [ident] * (j - 1) + [a] + [ident] * (r - j)
                assert stabilization_sj(a, j, r) == interleaved_oracle(*slots)


def test_change_of_basis_matches_the_gram_scan():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            assert over_q_zeta8(change_of_basis_p(m, n)) == g_scan_change_of_basis(m, n)


def test_tensor_sp_sp_inverse_and_gram_oracle():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            # the identity factors leave exactly the P^{-1} P that tensor_sp_sp forms
            ident = tensor_sp_sp(ExactMatrix.identity(2 * m), ExactMatrix.identity(2 * n))
            assert ident == ExactMatrix.identity(4 * m * n)
            if m * n <= 4:
                a, b = random_sp(m, seed=f"tss-p:{m}"), random_sp(n, seed=f"tss-p:{n}:b")
                p = change_of_basis_p(m, n)
                g = dense_gram(m).kron(dense_gram(n))
                assert tensor_sp_sp(a, b) == transpose(p) @ g @ a.kron(b) @ p


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_tensor_sp_sp_matches_the_dense_conjugation_property(m, n, seed):
    a, b = random_sp(m, seed), random_sp(n, seed + 1)
    p = change_of_basis_p(m, n)
    g = dense_gram(m).kron(dense_gram(n))
    assert tensor_sp_sp(a, b) == transpose(p) @ g @ a.kron(b) @ p


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conjugation_gathers_match_the_dense_permutation_products(n):
    rng = random.Random(f"gather:{n}")
    for r in range(1, 5):
        x = ExactMatrix(2 * r * n, 2 * r * n, [rng.randint(-3, 3) for _ in range(16 * r * r * n * n)])
        for j in range(1, r):
            cols = groups._pj_cols(j, n, r)
            p = perm_pj(j, n, r)
            assert perm_matrix(cols) == p
            pp = dense_block_diag(p, p)
            idx = groups._doubled(cols)
            assert x.gather(idx, idx) == pp @ x @ pp
            a = random_sp(n, seed=f"gather:{n}:{r}:{j}")
            assert stabilization_sj(a, j + 1, r) == pp @ stabilization_sj(a, j, r) @ pp
            assert verify_sj_conjugation(a, j, r)
    for m in range(1, 5):
        x = ExactMatrix(2 * m * n, 2 * m * n, [rng.randint(-3, 3) for _ in range(16 * m * m * n * n)])
        p = perm_pmn(m, n)
        assert perm_matrix(groups._pmn_cols(m, n)) == p and transpose(p) == perm_pmn(n, m)
        pp = dense_block_diag(p, p)
        idx = groups._doubled(groups._pmn_cols(n, m))
        assert x.gather(idx, idx) == pp @ x @ transpose(pp)
        a = random_sp(m, seed=f"gather:L:{m}:{n}")
        assert a.kron(ExactMatrix.identity(n)) == pp @ r_fold_sum_sp(a, n) @ transpose(pp)
        assert verify_l_conjugation(a, n)


def anti_symplectic(a):
    """a diag(I, -I): its Gram product is -J, so the Gram route must tell the sign."""
    k = a.rows // 2
    return a @ dense_block_diag(ExactMatrix.identity(k), -ExactMatrix.identity(k))


def _gram_route_product(m, monkeypatch):
    """The one product the Gram route makes on m, Q = Y^T X, as flat numerators."""
    products = []
    real = groups.kernels.matmul_num

    def logging(*args):
        products.append(real(*args))
        return products[-1]

    with monkeypatch.context() as patch:
        patch.setattr(groups.kernels, "matmul_num", logging)
        is_symplectic_gram(m)
    [q] = products
    return q


def test_gram_route_matches_the_dense_gram_product(monkeypatch):
    """Q^T - Q, read off the Gram route's one product, is d^2 M^T J M, the dense (J^T M)^T M."""
    for k in range(1, 5):
        j = dense_gram(k)
        for seed in range(4):
            member = random_sp(k, seed=f"gram:{k}:{seed}")
            cases = [member, with_perturbed_entry(member), with_perturbed_entry(member, -2),
                     anti_symplectic(member), off_target(member), scale(member, I), -member,
                     ExactMatrix(2 * k, 2 * k, [x for x in member.num], 3)]
            for m in cases:
                n, q = m.rows, _gram_route_product(m, monkeypatch)
                gram = dense_gram_product(m)
                read = list(map(sub, transposed_num(q, n, n), q))
                assert ExactMatrix(n, n, read, m.den * m.den) == gram
                assert is_symplectic_gram(m) == (gram == j)
                assert is_symplectic_gram(m) == is_symplectic_blocks(m)
            assert is_symplectic_gram(member) and is_symplectic_gram(-member)
            assert not is_symplectic_gram(anti_symplectic(member))
    assert is_symplectic_gram(ExactMatrix(0, 0, []))


def test_gram_route_refuses_a_matrix_that_breaks_one_antisymmetric_pair():
    """M = I - s J e_a e_b^T has M^T J M = J + s (E_ab - E_ba), which differs from J
    at (a, b) and (b, a) only: Q^T - Q is antisymmetric, so this is the least
    a non-member can break.  (a, b) = (r, k + r) changes an entry of J itself."""
    for k in (1, 2, 3):
        n, j = 2 * k, dense_gram(k)
        for a in range(n):
            for b in range(a + 1, n):
                for s in (1, -2, 3):
                    # column b of J e_a e_b^T is column a of J, the rest zero
                    m = from_rows([[int(t == c) - (s * entry(j, t, a)[0] if c == b else 0)
                                    for c in range(n)] for t in range(n)])
                    gram = dense_gram_product(m)
                    broken = {(r, c) for r in range(n) for c in range(n)
                              if entry(gram, r, c) != entry(j, r, c)}
                    assert broken == {(a, b), (b, a)}
                    assert not is_symplectic_gram(m) and not is_symplectic_blocks(m)


def test_block_route_refuses_each_broken_condition_alone():
    """Each matrix breaks exactly one block condition; both routes must refuse it."""
    h = Fraction(1, 2)

    def diag(*d):
        return from_rows([[x if r == c else 0 for c in range(4)] for r, x in enumerate(d)])

    # C = [[0, 1], [0, 0]] in the A21 block, then in the A12 block
    broken = [from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]),  # A11^T A21 = C
              from_rows([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),  # A12^T A22 = C
              diag(2, 2, 1, 1),         # A11^T A22 - A21^T A12 = 2I
              diag(h, h, h, h)]         # ... = I/4, over den 2
    for m in broken:
        assert not is_symplectic_blocks(m) and not is_symplectic_gram(m)
    # diag(A, A^-T) with A = I/2: a member over den 2, whose products are over den^2
    assert is_symplectic(diag(h, h, 2, 2))


def test_each_route_makes_one_product_of_its_own(monkeypatch):
    """Each route makes one (2k, k, 2k) product: the block route X^T Y and the Gram
    route Y^T X, from different left operands, so neither reads the other's."""
    calls = []
    real = groups.kernels.matmul_num

    def logging(a, b, n, k, m):
        calls.append((a, (n, k, m)))
        return real(a, b, n, k, m)

    monkeypatch.setattr(groups.kernels, "matmul_num", logging)
    for k in range(1, 5):
        member = random_sp(k, seed=f"one-product:{k}")
        for m in (member, with_perturbed_entry(member)):
            half = len(m.num) // 2
            calls.clear()
            blocks = is_symplectic_blocks(m)
            assert [shape for _, shape in calls] == [(2 * k, k, 2 * k)]
            block_left = calls.pop()[0]
            assert is_symplectic_gram(m) == blocks
            assert [shape for _, shape in calls] == [(2 * k, k, 2 * k)]
            gram_left = calls[0][0]
            assert block_left == transposed_num(m.num[:half], k, 2 * k)        # X^T
            assert gram_left == transposed_num(m.num[half:], k, 2 * k)         # Y^T
            assert block_left != gram_left


def test_quadrant_reader_matches_gather():
    rng = random.Random(17)
    for k in range(5):
        for _ in range(3):
            n = 2 * k
            m = ExactMatrix(n, n, [rng.randint(-9, 9) for _ in range(4 * n * n)],
                            rng.randint(1, 6))
            halves = (range(k), range(k, n))
            expected = [m.gather(rows, cols) for rows in halves for cols in halves]
            quads = groups._quadrants(m.num, k)
            assert [ExactMatrix(k, k, q, m.den) for q in quads] == expected


# -- membership carried by the element ----------------------------------------

def _count_predicates(monkeypatch):
    """Patch both membership predicates to log their names; returns the log."""
    calls = []

    def counting(name):
        real = getattr(groups, name)

        def predicate(m):
            calls.append(name)
            return real(m)
        return predicate

    for name in ("is_symplectic", "is_orthogonal"):
        monkeypatch.setattr(groups, name, counting(name))
    return calls


def test_constructions_trust_generator_built_inputs(monkeypatch):
    a, b = random_sp(2, seed="mark:a"), random_sp(1, seed="mark:b")
    o = random_so(3, seed="mark:o")
    with monkeypatch.context() as patched:
        calls = _count_predicates(patched)
        symplectic = [direct_sum_sp(a, b), r_fold_sum_sp(b, 3), stabilization_sj(a, 1, 1),
                      stabilization_sj(a, 1, 3), stabilization_sj(b, 2, 3), doubling(o),
                      tensor_sp_o(a, o)]
        orthogonal = [tensor_sp_sp(a, b)]
        assert verify_sj_conjugation(a, 1, 2) and verify_l_conjugation(a, 3)
        # construction outputs are marked as well, so they feed on unchecked
        symplectic += [tensor_sp_o(direct_sum_sp(a, b), o), doubling(tensor_sp_sp(a, b))]
        orthogonal += [tensor_sp_sp(doubling(o), r_fold_sum_sp(b, 2))]
        assert calls == []
    assert all(is_symplectic(x) for x in symplectic)
    assert all(is_orthogonal(x) for x in orthogonal)


# each construction with a non-member in one input slot: sp where a symplectic
# matrix belongs, so where an orthogonal one does; a and o are members.
# stabilization-k places the input beside k identity slots
NON_MEMBER_SLOTS = {
    "direct-sum-left": lambda sp, so, a, o: direct_sum_sp(sp, a),
    "direct-sum-right": lambda sp, so, a, o: direct_sum_sp(a, sp),
    "r-fold": lambda sp, so, a, o: r_fold_sum_sp(sp, 2),
    "stabilization-0": lambda sp, so, a, o: stabilization_sj(sp, 1, 1),
    "stabilization-1": lambda sp, so, a, o: stabilization_sj(sp, 2, 2),
    "stabilization-j": lambda sp, so, a, o: stabilization_sj(sp, 1, 2),
    "sj-conjugation": lambda sp, so, a, o: verify_sj_conjugation(sp, 1, 2),
    "l-conjugation": lambda sp, so, a, o: verify_l_conjugation(sp, 2),
    "tensor-sp-o-left": lambda sp, so, a, o: tensor_sp_o(sp, o),
    "tensor-sp-o-right": lambda sp, so, a, o: tensor_sp_o(a, so),
    "doubling": lambda sp, so, a, o: doubling(so),
    "tensor-sp-sp-left": lambda sp, so, a, o: tensor_sp_sp(sp, a),
    "tensor-sp-sp-right": lambda sp, so, a, o: tensor_sp_sp(a, sp),
}


@pytest.mark.parametrize("slot", NON_MEMBER_SLOTS)
def test_constructions_reject_unmarked_non_members(slot):
    a, o = random_sp(2, seed="nm:a"), random_so(2, seed="nm:o")
    for sp, so in [(with_perturbed_entry(random_sp(2, seed="nm:sp")),
                    with_perturbed_entry(random_so(2, seed="nm:so"))),
                   (with_perturbed_entry(ExactMatrix.identity(4)),
                    with_perturbed_entry(ExactMatrix.identity(2)))]:
        with pytest.raises(NotInGroupError):
            NON_MEMBER_SLOTS[slot](sp, so, a, o)


def test_unmarked_members_are_checked_and_accepted(monkeypatch):
    a = random_sp(1, seed="um:a")
    o = random_so(2, seed="um:o")
    with monkeypatch.context() as patched:
        calls = _count_predicates(patched)
        assert direct_sum_sp(ExactMatrix(a.rows, a.cols, a.num, a.den), a) == direct_sum_sp(a, a)
        assert tensor_sp_o(a, ExactMatrix(o.rows, o.cols, o.num, o.den)) == tensor_sp_o(a, o)
        assert calls == ["is_symplectic", "is_orthogonal"]


def test_arithmetic_results_are_unmarked():
    a, b = random_sp(2, seed="ar:a"), random_sp(1, seed="ar:b")
    o = random_so(3, seed="ar:o")
    assert type(a) is groups._Sp and type(o) is groups._O
    assert type(tensor_sp_sp(a, b)) is groups._O and type(tensor_sp_o(a, o)) is groups._Sp
    for x in (a, o, tensor_sp_sp(a, b), direct_sum_sp(a, b)):
        for y in (x @ x, x.kron(x), x.kron(o), x.gather(range(x.rows), range(x.cols))):
            assert type(y) is ExactMatrix
        # the mark does not change equality
        plain = ExactMatrix(x.rows, x.cols, x.num, x.den)
        assert plain == x and x == plain


def test_negation_keeps_the_mark(monkeypatch):
    a, o = random_sp(2, seed="neg:a"), random_so(3, seed="neg:o")
    plain = ExactMatrix(a.rows, a.cols, a.num, a.den)
    assert type(-a) is groups._Sp and type(-o) is groups._O and type(-plain) is ExactMatrix
    assert -(-a) == a and is_symplectic(-a) and is_orthogonal(-o)
    with monkeypatch.context() as patched:
        calls = _count_predicates(patched)
        # the center suite's tensor_sp_o(-a, b) takes -a on trust
        assert tensor_sp_o(-a, o) == -tensor_sp_o(a, o)
        assert calls == []


def test_closure_suite_runs_both_routes_on_every_output(monkeypatch):
    seen = {name: [] for name in ("is_symplectic_gram", "is_symplectic_blocks", "is_orthogonal")}
    for name, log in seen.items():
        real = getattr(groups, name)
        monkeypatch.setattr(groups, name, lambda m, real=real, log=log: log.append(m) or real(m))
    samples = 3
    rep = suites.run_closure(suites.Bounds(), samples, seed=11)
    assert rep.ok and rep.cases == 6 * samples
    # each sample checks five symplectic outputs by both routes and one orthogonal output
    gram, blocks = seen["is_symplectic_gram"], seen["is_symplectic_blocks"]
    assert len(gram) == 5 * samples and [id(m) for m in gram] == [id(m) for m in blocks]
    assert len(seen["is_orthogonal"]) == samples


def test_predicates_do_not_read_the_mark():
    bad_sp = groups._marked(groups._Sp, with_perturbed_entry(random_sp(2, seed="fm:sp")))
    bad_o = groups._marked(groups._O, with_perturbed_entry(random_so(3, seed="fm:o")))
    assert not is_symplectic(bad_sp) and not is_orthogonal(bad_o)
    # a construction trusts the forced mark, and the check of its output catches it
    assert not is_symplectic(direct_sum_sp(bad_sp, random_sp(1, seed="fm:b")))
    assert not is_symplectic(tensor_sp_o(random_sp(1, seed="fm:c"), bad_o))


# -- random element generators --------------------------------------------------

def test_random_sp_membership_and_determinism():
    for seed in range(8):
        a = random_sp(2, seed=seed)
        assert is_symplectic(a)
    assert random_sp(3, seed=42) == random_sp(3, seed=42)
    assert random_sp(3, seed=42) != random_sp(3, seed=43)


def test_random_so_membership_and_determinism():
    for n in range(1, 9):
        draws = [random_so(n, seed=seed) for seed in range(10)]
        for a in draws:
            # det from sympy is an oracle independent of the construction
            assert is_orthogonal(a) and over_q_zeta8(a).det() == Q_ZETA8.one
        assert random_so(n, seed=1) == draws[1]
        if n >= 2:
            # a genuinely complex rotation: some entry has a nonzero i = z^2 part
            assert all(any(a.num[2::4]) for a in draws)
            assert any(a != draws[0] for a in draws)
        if n >= 3:
            assert random_so(n, seed=0) != random_so(n, seed=1)


def test_random_unimodular_carries_its_inverse_transpose():
    for k in range(1, 7):
        for seed in range(40):
            rows = random_unimodular(k, random.Random(f"unimodular:{k}:{seed}"))
            a, a_inv_t = (from_rows(r) for r in rows)
            assert transpose(a) @ a_inv_t == ExactMatrix.identity(k)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 255, 256, 257, 496])
def test_stream_matches_the_shake_reference(k):
    # 2000 draws of even one byte run past the stream's first digest
    for label in ("", "sympdec:sp:2:0", "0:closure:ds:A:3", "m\u00fc"):
        stream = _Stream(label)
        assert [stream.randrange(k) for _ in range(2000)] == shake_draws(label, [k] * 2000)
    # _rng reads its label, and randint, choice and shuffle draw through randrange
    stream = _rng("so:5", 7)
    drawn = [stream.randint(-2, 2), stream.choice("xyz"), stream.randrange(k)]
    items = list(range(4))
    stream.shuffle(items)
    want = shake_draws("sympdec:so:5:7", [5, 3, k, 4, 3, 2])
    assert drawn == [want[0] - 2, "xyz"[want[1]], want[2]]
    swapped = list(range(4))
    for i, j in zip((3, 2, 1), want[3:]):
        swapped[i], swapped[j] = swapped[j], swapped[i]
    assert items == swapped


def test_stream_reaches_every_order_and_value():
    orders = set()
    for t in range(100):
        items = ["a", "b", "c"]
        _Stream(f"shuffle:{t}").shuffle(items)
        orders.add("".join(items))
    assert len(orders) == 6
    stream = _Stream("randint")
    values = [stream.randint(-2, 2) for _ in range(5000)]
    assert all(800 <= values.count(v) <= 1200 for v in range(-2, 3))
    assert set(values) == set(range(-2, 3))


def dense_shear(s, upper):
    """[[I, S], [0, I]] if upper, else [[I, 0], [S, I]], from the integer rows of S."""
    m = len(s)
    eye = [[int(r == c) for c in range(m)] for r in range(m)]
    top, bottom = (s, [[0] * m] * m) if upper else ([[0] * m] * m, s)
    return from_rows([a + b for a, b in zip(eye, top)] + [a + b for a, b in zip(bottom, eye)])


def dense_random_sp(m, seed):
    """random_sp's generator product, every generator a dense matrix and every step a dense product."""
    rng = _rng(f"sp:{m}", seed)
    out = ExactMatrix.identity(2 * m)
    for _ in range(rng.randint(2, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            f = dense_block_diag(*(from_rows(r) for r in random_unimodular(m, rng)))
        else:
            f = dense_shear(random_symmetric(m, rng), upper=kind == 1)
        out = out @ f
    return out


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_random_sp_is_the_product_of_its_generators(m):
    for seed in range(20):
        assert random_sp(m, seed) == dense_random_sp(m, seed)


def dense_random_gl(k, seed):
    """random_gl's row operations, each a dense elementary matrix E = I + c e_j e_i^T
    multiplied on the left."""
    rng = _rng(f"gl:{k}", seed)
    out = ExactMatrix.identity(k)
    for _ in range(2 * k + 2 if k > 1 else 0):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        rows = [[int(r == c) for c in range(k)] for r in range(k)]
        rows[j][i] = rng.randint(-2, 2)
        out = from_rows(rows) @ out
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_random_gl_is_the_product_of_its_row_operations(k):
    for seed in range(20):
        assert random_gl(k, seed) == dense_random_gl(k, seed)


def dense_random_so(n, seed):
    """random_so's rotations, each a dense n x n matrix [[c, -s], [s, c]] on its
    plane (c = 5/4, s = +-3i/4), multiplied on the left in drawing order."""
    rng = _rng(f"so:{n}", seed)
    planes = [(p, q) for p in range(n) for q in range(p + 1, n)]
    rng.shuffle(planes)
    out = ExactMatrix.identity(n)
    for p, q in planes:
        s = Fraction(3, 4) * rng.choice((1, -1))
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[p][p] = rows[q][q] = Fraction(5, 4)
        rows[p][q], rows[q][p] = (0, 0, -s, 0), (0, 0, s, 0)
        out = from_rows(rows) @ out
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_random_so_is_the_product_of_its_rotations(n):
    for seed in range(20):
        assert random_so(n, seed) == dense_random_so(n, seed)


def test_random_sp_and_gl_draws_are_pinned():
    # every seeded sample of the verify suites derives from these draws, so a
    # change in how the generators consume their rng must be deliberate
    digest = hashlib.sha256()
    for m in range(1, 5):
        for seed in range(40):
            a, g = random_sp(m, seed), random_gl(m, seed)
            digest.update(repr((a.num, a.den, g.num, g.den)).encode())
    assert digest.hexdigest().startswith("bac657d7e30af68f")


def test_random_so_draws_are_pinned():
    # as for random_sp and random_gl: the closure and center samples derive
    # from these draws
    digest = hashlib.sha256()
    for n in range(1, 9):
        for seed in range(40):
            a = random_so(n, seed)
            digest.update(repr((a.num, a.den)).encode())
    assert digest.hexdigest().startswith("b621f17ffe4d8c6b")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10 ** 6))
def test_random_so_lies_in_so_property(n, seed):
    a = random_so(n, seed)
    assert is_orthogonal(a) and over_q_zeta8(a).det() == Q_ZETA8.one


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10 ** 6))
def test_random_sp_passes_both_routes_property(m, seed):
    a = random_sp(m, seed)
    assert is_symplectic_gram(a) and is_symplectic_blocks(a)


def _constructions(a, b, o, g):
    """(inputs, call) for each construction of the package, on Sp draws a and b, an
    SO draw o and a GL draw g; the identity-like ones (a 1 x 1 identity factor, one
    block filling the whole matrix, a 1-fold sum) are where storage could be shared."""
    one, ident = ExactMatrix.identity(1), ExactMatrix.identity(o.cols)
    whole = [range(o.rows), range(o.cols)]
    return [
        ((g, g), lambda: g @ g), ((o, ident), lambda: o @ ident),
        ((a, o), lambda: a.kron(o)), ((o, a), lambda: o.kron(a)),
        ((one, a), lambda: one.kron(a)), ((a, one), lambda: a.kron(one)),
        ((a,), lambda: -a), ((o,), lambda: -o),
        ((o,), lambda: o.gather(*whole)),
        ((o,), lambda: place_blocks(o.rows, o.cols, [(o, *whole)])),
        ((o,), lambda: block_diag(o)), ((a, g), lambda: block_diag(a, g)),
        ((a, b), lambda: direct_sum_sp(a, b)), ((a,), lambda: r_fold_sum_sp(a, 1)),
        ((a,), lambda: stabilization_sj(a, 1, 1)), ((o,), lambda: doubling(o)),
        ((a, o), lambda: tensor_sp_o(a, o)), ((a, b), lambda: tensor_sp_sp(a, b)),
    ]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_constructions_neither_share_nor_change_their_inputs_numerators_property(seed):
    """A matrix owns the numerator list it is built with, so no construction may hand
    back an input's list, or change one."""
    a, b = random_sp(2, seed), random_sp(1, seed + 1)
    o, g = random_so(3, seed), random_gl(3, seed)
    for inputs, call in _constructions(a, b, o, g):
        before = [(list(x.num), x.den) for x in inputs]
        out = call()
        assert all(out.num is not x.num for x in inputs)
        assert [(x.num, x.den) for x in inputs] == before
