"""Exact realizations of complex symplectic and orthogonal group elements.

Conventions
-----------
Sp(k) elements are 2k x 2k matrices preserving the standard skew form
J = [[0, I_k], [-I_k, 0]]; the four k x k quadrants of such a matrix are
its symplectic blocks (A11, A12, A21, A22).  Membership is decided two
independent ways (Gram identity M^T J M = J, and the block conditions:
A11^T A21 and A12^T A22 symmetric, A11^T A22 - A21^T A12 = I) and both
routes must agree.

The predicates (both routes and is_orthogonal) compute on M's flat
numerators over its denominator d and build no intermediate ExactMatrix.
A product of numerator lists (kernels.matmul_num) is d^2 times the product
of the matrices, so it is read against d^2 times the target, J or I; a
symmetry condition needs no scaling.  Neither J nor I is ever built: the
reader checks the target's nonzero components and counts the zeros.  The
Gram route never multiplies by J: for M = [X; Y] (row halves of size
k x 2k), J M = [Y; -X], so M^T J M = X^T Y - Y^T X.  It makes the one
product Q = Y^T X, of shape (2k, k, 2k), and reads M^T J M as Q^T - Q.  For
M of size 2k, d^2 J has component 0 of entry (r, k + r) equal to d^2, that
of entry (k + r, r) equal to -d^2, and no other nonzero.  The block route
makes one product of its own, P = X^T Y of the row halves X = [A11 A12]
and Y = [A21 A22], whose quadrants are the four block products:
P11 = A11^T A21, P12 = A11^T A22, P21 = A12^T A21 and P22 = A12^T A22 (and
A21^T A12 = P21^T).  It reads the conditions off those quadrants: P11 and
P22 symmetric, P12 - P21^T = d^2 I.  Q equals P^T as a matrix, but neither
route takes the other's product: each multiplies its own operands (Y^T by
X, X^T by Y) and reads the result its own way, so a fault in one product or
its reading cannot hide from the other check.

The conjugation lemmas gather instead of multiplying by permutations:
for the permutation matrix P whose column k is e_{cols[k]}, P X P^T is X
gathered at the inverse of cols on both sides (ExactMatrix.gather), so
verify_sj_conjugation and verify_l_conjugation read s_j(A) and A^{(+n)}
at the index lists of the slot swap P_j and the m,n shuffle.  No
permutation matrix is ever built; the tests build them densely as the
oracle for the gathers.

The Kronecker basis is ordered left-factor-major, which makes
J_{2m} kron I_n literally equal to J_{2mn}, so the symplectic-times-
orthogonal tensor product is the plain Kronecker product.

Random elements are exact products of seeded generators, never the result
of numerical orthogonalization or elimination, so membership holds on the
nose and every draw is reproducible from its seed.  The draws come from
SHAKE-256 (FIPS 202) of the case label, by rejection sampling (_Stream), so
they rest on no Python version's random module.  No generator is built
as a matrix or multiplied in: each is applied as the few row, column or
plane operations it makes.  random_so applies one complex plane rotation
per coordinate plane to the rows of its product, kept as real and
imaginary integer parts over a power of 4.  random_sp applies
diag(A, A^{-T}), for A a product of integer row operations E, as column
operations on its left and right halves (E on the left, E^{-T} on the
right), and a shear [[I, S], [0, I]] or [[I, 0], [S, I]] as S-weighted
sums of one half's columns added to the other.  random_gl applies the row
operations of A to the identity.

Membership travels with the element.  random_sp and random_so return
their draws marked as members (the private no-slot ExactMatrix subclasses
_Sp and _O, with ExactMatrix's values and equality), and so does
every construction: the direct sums, stabilizations, doubling and
tensor_sp_o give _Sp, tensor_sp_sp gives _O.  So does unary minus: -A
is in Sp or O exactly when A is, so -A keeps A's mark.  A construction
trusts a marked input; every other input goes through is_symplectic (both
routes) or is_orthogonal, and a non-member raises NotInGroupError.  The
rest of the arithmetic (@, kron, gather) returns plain ExactMatrix values,
and the predicates never read the mark, so a check of a construction's
output, as the verify suites make, always runs them in full.
"""

from __future__ import annotations

from operator import add, itemgetter, neg, sub

from sympdec import kernels
from sympdec.errors import IndexOutOfRangeError, NotInGroupError, ShapeMismatchError
from sympdec.matrix import ExactMatrix, block_diag, is_scaled_identity, place_blocks, transposed_num


# -- forms and predicates ----------------------------------------------------

def _quadrants(num: list[int], k: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """The flat numerators of the four k x k quadrants (Q11, Q12, Q21, Q22) of
    the 2k x 2k matrix with flat numerators num."""
    w = 4 * k
    left, right = [], []
    for r in range(2 * k):
        p = 2 * w * r
        left += num[p:p + w]
        right += num[p + w:p + 2 * w]
    half = len(left) // 2
    return left[:half], right[:half], left[half:], right[half:]


def is_symplectic_gram(m: ExactMatrix) -> bool:
    """Gram route: M^T J M == J.

    For M = [X; Y] (row halves), M^T J M = X^T Y - Y^T X, so the one product
    Q = Y^T X, of shape (2k, k, 2k) for M of size 2k, gives M^T J M as
    Q^T - Q.  That is read against den^2 J by structure, as
    is_scaled_identity reads den^2 I, with a reader of its own: for each
    r < k, component 0 of entry (r, k + r) is den^2 and that of entry
    (k + r, r) is -den^2, and those 2k components are the only nonzeros.
    """
    if not m.is_square() or m.rows % 2:
        raise ShapeMismatchError("symplectic matrices have even size")
    n, half = m.rows, len(m.num) // 2
    k, d2 = n // 2, m.den * m.den
    q = kernels.matmul_num(transposed_num(m.num[half:], k, n), m.num[:half], n, k, n)
    p = list(map(sub, transposed_num(q, n, n), q))
    step = 4 * (n + 1)      # from entry (r, c) to entry (r + 1, c + 1)
    return (all(x == d2 for x in p[4 * k:4 * n * k:step])
            and all(x == -d2 for x in p[4 * n * k::step])
            and p.count(0) == len(p) - n)


def is_symplectic_blocks(m: ExactMatrix) -> bool:
    """Block route: A11^T A21, A12^T A22 symmetric and A11^T A22 - A21^T A12 = I.

    For the row halves X = [A11 A12] and Y = [A21 A22] of M, the one product
    P = X^T Y holds every block product in its quadrants: P11 = A11^T A21,
    P12 = A11^T A22, P21 = A12^T A21 and P22 = A12^T A22, and A21^T A12 is
    P21^T.  Products of numerators are den^2 times the products of the
    blocks, so P12 - P21^T is compared with den^2 I.  M^T J M = P - P^T, but
    the Gram route makes its own product, so the routes share none.
    """
    if not m.is_square() or m.rows % 2:
        raise ShapeMismatchError("symplectic blocks need an even square matrix")
    k, half = m.rows // 2, len(m.num) // 2
    p = kernels.matmul_num(transposed_num(m.num[:half], k, 2 * k), m.num[half:], 2 * k, k, 2 * k)
    p11, p12, p21, p22 = _quadrants(p, k)
    return (p11 == transposed_num(p11, k, k) and p22 == transposed_num(p22, k, k)
            and is_scaled_identity(list(map(sub, p12, transposed_num(p21, k, k))), k,
                                   m.den * m.den))


def is_symplectic(m: ExactMatrix) -> bool:
    gram = is_symplectic_gram(m)
    blocks = is_symplectic_blocks(m)
    if gram != blocks:
        raise AssertionError("symplectic membership routes disagree; internal error")
    return gram


def is_orthogonal(m: ExactMatrix) -> bool:
    """M^T M == I, as the product of numerators against den^2 I."""
    if not m.is_square():
        raise ShapeMismatchError("orthogonal matrices are square")
    n = m.rows
    gram = kernels.matmul_num(transposed_num(m.num, n, n), m.num, n, n, n)
    return is_scaled_identity(gram, n, m.den * m.den)


class _Sp(ExactMatrix):
    """An ExactMatrix built as a symplectic matrix by construction."""
    __slots__ = ()


class _O(ExactMatrix):
    """An ExactMatrix built as an orthogonal matrix by construction."""
    __slots__ = ()


def _marked(group: type, m: ExactMatrix) -> ExactMatrix:
    """The freshly built m, marked as a member of group (_Sp or _O)."""
    m.__class__ = group
    return m


def _require(m: ExactMatrix, group: type, what: str) -> None:
    """Raise NotInGroupError unless m is marked as a member of group or passes its predicate."""
    if isinstance(m, group):
        return
    if not (is_symplectic(m) if group is _Sp else is_orthogonal(m)):
        raise NotInGroupError(what)


# -- direct sums and stabilizations -------------------------------------------

def _interleaved_sum(blocks: list[ExactMatrix]) -> ExactMatrix:
    """Sp(n_1) x ... x Sp(n_k) -> Sp(N), N = sum n_t, blockwise diag on quadrants.

    Block t goes to indices [o, o + n_t) u [N + o, N + o + n_t), where o is
    the sum of the earlier n_s.
    """
    total = sum(b.rows for b in blocks) // 2
    placements, o = [], 0
    for b in blocks:
        k = b.rows // 2
        idx = [*range(o, o + k), *range(total + o, total + o + k)]
        placements.append((b, idx, idx))
        o += k
    return _marked(_Sp, place_blocks(2 * total, 2 * total, placements))


def direct_sum_sp(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Interleaved direct sum Sp(m) x Sp(n) -> Sp(m+n), blockwise diag on quadrants."""
    _require(a, _Sp, "left summand is not symplectic")
    _require(b, _Sp, "right summand is not symplectic")
    return _interleaved_sum([a, b])


def r_fold_sum_sp(a: ExactMatrix, r: int) -> ExactMatrix:
    """r-fold interleaved direct sum Sp(n) -> Sp(rn)."""
    if r < 1:
        raise IndexOutOfRangeError("r must be positive")
    _require(a, _Sp, "summand is not symplectic")
    return _interleaved_sum([a] * r)


def stabilization_sj(a: ExactMatrix, j: int, r: int) -> ExactMatrix:
    """Place the blocks of a in the j-th of r diagonal slots: Sp(n) -> Sp(rn), 1 <= j <= r.

    This is the interleaved sum of identities with a in slot j, so that
    j = 1 recovers the plain stabilization (direct sum with the identity).
    """
    if not 1 <= j <= r:
        raise IndexOutOfRangeError(f"j = {j} not in 1..{r}")
    _require(a, _Sp, "input is not symplectic")
    ident = ExactMatrix.identity(a.rows)
    return _interleaved_sum([ident] * (j - 1) + [a] + [ident] * (r - j))


def _pj_cols(j: int, n: int, r: int) -> list[int]:
    """The columns of the permutation P_j of rn, 1 <= j <= r-1: the j-th and
    (j+1)-st slots of n swapped (column k of P_j is e_{cols[k]})."""
    if not 1 <= j <= r - 1:
        raise IndexOutOfRangeError(f"j = {j} not in 1..{r - 1}")
    cols = list(range(r * n))
    lo = (j - 1) * n
    for t in range(n):
        cols[lo + t], cols[lo + n + t] = cols[lo + n + t], cols[lo + t]
    return cols


def _doubled(cols: list[int]) -> list[int]:
    """The index list of diag(P, P) for the permutation P with columns cols."""
    return cols + [len(cols) + c for c in cols]


def verify_sj_conjugation(a: ExactMatrix, j: int, r: int) -> bool:
    """Exact identity s_{j+1}(A) = diag(P_j, P_j) s_j(A) diag(P_j, P_j).

    For P with columns cols, (P X)[u, :] = X[cols^-1[u], :] and
    (X P)[:, v] = X[:, cols[v]].  P_j is an involution (cols^-1 = cols), so
    the conjugate is s_j(A) gathered at diag(P_j, P_j)'s own index list on
    both sides, with no product.
    """
    idx = _doubled(_pj_cols(j, a.rows // 2, r))
    return stabilization_sj(a, j + 1, r) == stabilization_sj(a, j, r).gather(idx, idx)


# -- doubling and tensor products ---------------------------------------------

def doubling(a: ExactMatrix) -> ExactMatrix:
    """O(n) -> Sp(n): A |-> diag(A, A)."""
    _require(a, _O, "doubling input is not orthogonal")
    return _marked(_Sp, block_diag(a, a))


def tensor_sp_o(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Sp(m) x O(n) -> Sp(mn) as the Kronecker product (J kron I = J on the nose)."""
    _require(a, _Sp, "left tensor factor is not symplectic")
    _require(b, _O, "right tensor factor is not orthogonal")
    return _marked(_Sp, a.kron(b))


def _pmn_cols(m: int, n: int) -> list[int]:
    """The columns of the m,n shuffle P: column k*m + s is e_{s*n + k}.

    For A in Sp(m), diag(P, P) conjugates A^{(+n)} to A kron I_n.
    """
    return [s * n + k for k in range(n) for s in range(m)]


def verify_l_conjugation(a: ExactMatrix, n: int) -> bool:
    """Exact identity A kron I_n = diag(P,P) A^{(+n)} diag(P,P)^T with P the m,n shuffle.

    For P with columns cols, (P X P^T)[u, v] = X[cols^-1[u], cols^-1[v]]
    (see verify_sj_conjugation), and the inverse of the m,n shuffle is the
    n,m shuffle, so the right side is A^{(+n)} gathered at diag(P_{n,m},
    P_{n,m})'s index list, with no product.
    """
    _require(a, _Sp, "input is not symplectic")
    idx = _doubled(_pmn_cols(n, a.rows // 2))
    return a.kron(ExactMatrix.identity(n)) == r_fold_sum_sp(a, n).gather(idx, idx)


def _basis_pairs(m: int, n: int) -> list[tuple[int, int, int]]:
    """The index pairs (a, a', eps) of G = J_{2m} kron J_{2n}, G e_a = eps e_{a'}, a < a'.

    J_{2k} e_c = -e_{c+k} for c < k and e_{c-k} otherwise, and G e_a for
    a = a1*2n + a2 is the product of those for a1 (k = m) and a2 (k = n).
    So the smaller index of each pair has a1 < m (sign -1), its partner is
    a + 2mn +- n, and eps = +1 for a2 < n, -1 otherwise.  The smaller
    indices are exactly 0, ..., 2mn - 1, in that order.
    """
    count = 2 * m * n
    return [(a, a + count + n, 1) if a % (2 * n) < n else (a, a + count - n, -1)
            for a in range(count)]


# component k of x * i^e is sign * x[src], as (src, sign) for k = 0..3 (i = z^2)
_TIMES_I_POWER = {0: ((0, 1), (1, 1), (2, 1), (3, 1)),
                  1: ((2, -1), (3, -1), (0, 1), (1, 1)),
                  3: ((2, 1), (3, 1), (0, -1), (1, -1))}


def tensor_sp_sp(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Sp(m) x Sp(n) -> O(4mn): Kronecker product conjugated to the orthonormal basis.

    G = J_{2m} kron J_{2n} is a symmetric signed involution with empty
    diagonal.  Its index pairs (a, a', eps_a) (_basis_pairs) give the
    orthonormal change of basis P, P^T G P = I, whose column 2a + t is
    i^t (e_a + (-1)^t eps_a e_a')/sqrt2; any other choice differs by a
    complex-orthogonal matrix.  The conjugate P^{-1} K P of K = A kron B
    is gathered from the entries of K, not multiplied out.  P^{-1} = P^T G
    is P^T with its odd rows negated, so row 2a + s of P^{-1} is
    (-i)^s (e_a + (-1)^s eps_a e_a')^T/sqrt2.  Entry (2a + s, 2b + t) is
    therefore (-i)^s i^t / 2 * (U[b] + (-1)^t eps_b U[b']) with the row
    combination U = K[a] + (-1)^s eps_a K[a'].
    """
    _require(a, _Sp, "left tensor factor is not symplectic")
    _require(b, _Sp, "right tensor factor is not symplectic")
    k = a.kron(b)
    pairs = _basis_pairs(a.rows // 2, b.rows // 2)
    w = 4 * k.cols
    # one gather per row parity s: numerator q of an output row is
    # uu[first[q]] + uu[second[q]] for uu = U + (-U), so a position past w
    # picks a negated component
    gathers = []
    for s in (0, 1):
        first, second = [], []
        for col, partner, eps in pairs:
            for t in (0, 1):
                tau = -eps if t else eps
                for src, sign in _TIMES_I_POWER[(3 * s + t) % 4]:
                    first.append(4 * col + src + (0 if sign > 0 else w))
                    second.append(4 * partner + src + (0 if sign * tau > 0 else w))
        gathers.append((itemgetter(*first), itemgetter(*second)))
    num = []
    for row, partner, eps in pairs:
        kr, kp = k.num[row * w:(row + 1) * w], k.num[partner * w:(partner + 1) * w]
        for s, (first, second) in enumerate(gathers):
            u = list(map(add if eps == (-1) ** s else sub, kr, kp))
            uu = u + list(map(neg, u))
            num.extend(map(add, first(uu), second(uu)))
    return _marked(_O, ExactMatrix(k.rows, k.cols, num, 2 * k.den))


def verify_mixed_product(a: ExactMatrix, b: ExactMatrix) -> bool:
    """Exact identity A kron B = (A kron I)(I kron B)."""
    left = a.kron(ExactMatrix.identity(b.rows))
    right = ExactMatrix.identity(a.rows).kron(b)
    return a.kron(b) == left @ right


# -- seeded exact random elements ----------------------------------------------

# (bytes per read, rejection limit) of a draw from range(k), by k
_READS: dict[int, tuple[int, int]] = {}


class _Stream:
    """Seeded uniform draws from the bytes of SHAKE-256(label), by rejection sampling.

    A draw from range(k) reads the next n bytes, n the fewest that hold
    k - 1 (none for k = 1), as a big-endian integer v.  It returns v mod k
    when v is below the largest multiple of k not above 256^n, and otherwise
    reads the next n bytes, so every value is equally likely.  The bytes are
    a digest of the label; when they run out the stream takes a longer one,
    which starts with the shorter, as an XOF's output does.  randint, choice
    and shuffle have random.Random's names and signatures and draw through
    randrange.
    """
    __slots__ = ("_xof", "_buf", "_pos")

    def __init__(self, label: str):
        # imported here, not at the top: OpenSSL's start-up is paid only by commands that draw
        import hashlib
        self._xof = hashlib.shake_256(label.encode())
        self._buf = self._xof.digest(136)       # one block of SHAKE-256's output
        self._pos = 0

    def randrange(self, k: int) -> int:
        reads = _READS.get(k)
        if reads is None:
            if k < 1:
                raise ValueError(f"empty range({k})")
            n = (k - 1).bit_length() + 7 >> 3
            reads = _READS[k] = n, (1 << 8 * n) // k * k
        n, limit = reads
        while True:
            pos = self._pos
            end = pos + n
            if end > len(self._buf):
                self._buf = self._xof.digest(2 * end)
            self._pos = end
            v = self._buf[pos] if n == 1 else int.from_bytes(self._buf[pos:end], "big")
            if v < limit:
                return v % k

    def randint(self, a: int, b: int) -> int:
        return a + self.randrange(b - a + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, x: list) -> None:
        """Fisher-Yates, from the last position down, as random.Random.shuffle."""
        for i in reversed(range(1, len(x))):
            j = self.randrange(i + 1)
            x[i], x[j] = x[j], x[i]


def _rng(label: str, seed) -> _Stream:
    return _Stream(f"sympdec:{label}:{seed}")


def random_so(n: int, seed=0) -> ExactMatrix:
    """Product of complex rotations, one per coordinate plane, in a seeded order.

    The rotation in plane (p, q) is [[c, -s], [s, c]] with c = 5/4 and
    s = +-3i/4 (seeded sign), so c^2 + s^2 = 1: every factor, and hence the
    product, is orthogonal with determinant 1 by construction.

    Each rotation multiplies the product so far on the left, a plane
    operation on its rows: row p becomes c row_p - s row_q and row q becomes
    s row_p + c row_q.  Every entry lies in Z[i] over a power of 4, so row r
    is kept as the integer lists re[r] and im[r] of its real and imaginary
    parts over 4^exp[r].  Both rows are brought over 4^max(exp[p], exp[q])
    by the factors fp and fq, and since i(x + iy) = -y + ix, the rotation is
    one list comprehension per part of each row.
    """
    rng = _rng(f"so:{n}", seed)
    planes = [(p, q) for p in range(n) for q in range(p + 1, n)]
    rng.shuffle(planes)
    re = [[int(r == c) for c in range(n)] for r in range(n)]
    im = [[0] * n for _ in range(n)]
    exp = [0] * n
    for p, q in planes:
        s = 3 * rng.choice((1, -1))
        e = max(exp[p], exp[q])
        fp, fq = 4 ** (e - exp[p]), 4 ** (e - exp[q])
        cp, sp, cq, sq = 5 * fp, s * fp, 5 * fq, s * fq
        re_p, im_p, re_q, im_q = re[p], im[p], re[q], im[q]
        re[p] = [cp * x + sq * y for x, y in zip(re_p, im_q)]
        im[p] = [cp * x - sq * y for x, y in zip(im_p, re_q)]
        re[q] = [cq * x - sp * y for x, y in zip(re_q, im_p)]
        im[q] = [cq * x + sp * y for x, y in zip(im_q, re_p)]
        exp[p] = exp[q] = e + 1
    top = max(exp, default=0)
    num = [0] * (4 * n * n)
    for r, e in enumerate(exp):
        f, o = 4 ** (top - e), 4 * n * r
        num[o:o + 4 * n:4] = [f * x for x in re[r]]
        num[o + 2:o + 4 * n:4] = [f * x for x in im[r]]
    return _O(n, n, num, 4 ** top)


def _row_ops(k: int, rng: _Stream) -> list[tuple[int, int, int]]:
    """The row operations (i, j, c) of a random unimodular k x k matrix A, in drawing order.

    Operation (i, j, c) is row j += c * row i, i.e. E = I + c e_j e_i^T, and
    A = E_N ... E_1 is their product applied to I in this order.  Draws with
    i = j are skipped and draws with c = 0 are dropped, since E = I there;
    for k < 2 no pair can have i != j, so none is drawn.
    """
    if k < 2:
        return []
    ops = []
    for _ in range(2 * k + 2):
        i, j = rng.randrange(k), rng.randrange(k)
        if i != j:
            c = rng.randint(-2, 2)
            if c:
                ops.append((i, j, c))
    return ops


def _int_matrix(rows) -> ExactMatrix:
    """The integer matrix with the given rows."""
    k, cols = len(rows), len(rows[0]) if rows else 0
    num = [0] * (4 * k * cols)
    num[0::4] = [x for row in rows for x in row]
    return ExactMatrix(k, cols, num)


def _plus(x: list[int], c: int, y: list[int]) -> list[int]:
    """x + c y entrywise; a coefficient of +-1 adds or subtracts without multiplying."""
    if c == 1:
        return list(map(add, x, y))
    if c == -1:
        return list(map(sub, x, y))
    return [a + c * b for a, b in zip(x, y)]


def random_sp(m: int, seed=0) -> ExactMatrix:
    """Product of exact symplectic generators: diag(A, A^{-T}) and shear blocks.

    The product is kept as the integer columns of its left and right halves
    L | R, and each generator multiplies it on the right, as column
    operations.  diag(A, A^{-T}) gives L A | R A^{-T}: for A = E_N ... E_1
    with E = I + c e_j e_i^T (_row_ops), L E adds c * column j to column i
    and R E^{-T} = R (I - c e_i e_j^T) subtracts c * column i from column j,
    so the operations are applied last drawn first.  [[I, S], [0, I]] gives
    L | R + L S and [[I, 0], [S, I]] gives L + R S | R, for S symmetric with
    entries drawn row by row on and above the diagonal: each entry
    S[i][j] = S[j][i] adds its multiple of column i of one half to column j
    of the other, and of column j to column i, as it is drawn.
    """
    rng = _rng(f"sp:{m}", seed)
    left = [[int(r == c) for r in range(2 * m)] for c in range(m)]
    right = [[int(r == c + m) for r in range(2 * m)] for c in range(m)]
    for _ in range(rng.randint(2, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            for i, j, c in reversed(_row_ops(m, rng)):
                left[i] = _plus(left[i], c, left[j])
                right[j] = _plus(right[j], -c, right[i])
        else:
            src, dst = (left, right) if kind == 1 else (right, left)
            for i in range(m):
                for j in range(i, m):
                    c = rng.randint(-2, 2)      # S[i][j] = S[j][i]
                    if c:
                        dst[j] = _plus(dst[j], c, src[i])
                        if i != j:
                            dst[i] = _plus(dst[i], c, src[j])
    return _marked(_Sp, _int_matrix(list(zip(*left, *right))))


def random_gl(k: int, seed=0) -> ExactMatrix:
    """Random unimodular integer matrix: the row operations of _row_ops applied to I."""
    rows = [[int(r == c) for c in range(k)] for r in range(k)]
    for i, j, c in _row_ops(k, _rng(f"gl:{k}", seed)):
        rows[j] = [x + c * y for x, y in zip(rows[j], rows[i])]
    return _int_matrix(rows)
