"""Reference constructions the tests check the library against.

Each builds its result entry by entry from the textbook definition, not
through the index lists, gathers and numerator loops the library uses, so
a fault on either side shows as a disagreement.  The one exception,
change_of_basis_p, reads the library's index pairs of J kron J; the tests
check it against a scan of J kron J made in sympy.  Matrix entries are given
as an int or Fraction, or as the 4-tuple of rational coefficients of
1, z, z^2, z^3 (z^4 = -1); for instance i = (0, 0, 1, 0) and
1/sqrt2 = (z - z^3)/2 = (0, 1/2, 0, -1/2).

hom is no reference: it is the one-degree run of the library's one builder,
induced.homs, shared by the tests that state a map one degree at a time.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import factorial, gcd, lcm

from sympdec.abgroup import FgAbGroup
from sympdec.groups import _basis_pairs
from sympdec.induced import homs
from sympdec.matrix import ExactMatrix

I = (0, 0, 1, 0)
HALF_SQRT2 = (0, Fraction(1, 2), 0, Fraction(-1, 2))      # 1/sqrt2
HALF_I_SQRT2 = (0, Fraction(1, 2), 0, Fraction(1, 2))     # i/sqrt2


def hom(op: str, i: int, **params):
    """Table entry op at degree i: homs(op, (i,), **params)'s one map, raising
    what that run raises."""
    (_, h), = homs(op, (i,), **params)
    return h


def coeffs(x) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The four rational coefficients of an entry given as a number or a 4-tuple."""
    return tuple(Fraction(c) for c in (x if isinstance(x, tuple) else (x, 0, 0, 0)))


def from_rows(rows, cols: int | None = None) -> ExactMatrix:
    """The matrix with the given rows of entries; cols is needed only when there are no rows."""
    rows = [[coeffs(x) for x in row] for row in rows]
    cols = len(rows[0]) if rows else cols or 0
    assert all(len(row) == cols for row in rows), "ragged rows"
    den = lcm(1, *(c.denominator for row in rows for x in row for c in x))
    return ExactMatrix(len(rows), cols, [int(c * den) for row in rows for x in row for c in x], den)


def entry(m: ExactMatrix, i: int, j: int) -> tuple[Fraction, ...]:
    """Entry (i, j) of m as its four rational coefficients."""
    assert 0 <= i < m.rows and 0 <= j < m.cols
    p = 4 * (i * m.cols + j)
    return tuple(Fraction(c, m.den) for c in m.num[p:p + 4])


def product(x, y) -> tuple[Fraction, ...]:
    """The product of two entries, by the schoolbook rule with z^4 = -1."""
    out = [Fraction(0)] * 4
    for s, a in enumerate(coeffs(x)):
        for t, b in enumerate(coeffs(y)):
            out[(s + t) % 4] += a * b if s + t < 4 else -a * b
    return tuple(out)


def transpose(m: ExactMatrix) -> ExactMatrix:
    return from_rows([[entry(m, i, j) for i in range(m.rows)] for j in range(m.cols)], m.rows)


def scale(m: ExactMatrix, a) -> ExactMatrix:
    """Each entry of m times the scalar a."""
    return from_rows([[product(a, entry(m, i, j)) for j in range(m.cols)]
                      for i in range(m.rows)], m.cols)


def dense_gram(k: int) -> ExactMatrix:
    """The standard skew form J = [[0, I_k], [-I_k, 0]] of size 2k."""
    return from_rows([[1 if c == r + k else -1 if r == c + k else 0
                       for c in range(2 * k)] for r in range(2 * k)], 2 * k)


def dense_gram_product(m: ExactMatrix) -> ExactMatrix:
    """M^T J M for M of even size, as the dense product (J^T M)^T M with J built entry by
    entry and each transpose read entry by entry."""
    return transpose(transpose(dense_gram(m.rows // 2)) @ m) @ m


def with_perturbed_entry(m: ExactMatrix, delta: int = 1) -> ExactMatrix:
    """Copy of m with delta added to the top-left entry: a non-member of m's group."""
    num = list(m.num)
    num[0] += delta * m.den
    return ExactMatrix(m.rows, m.cols, num, m.den)


def random_unimodular(k: int, rng) -> tuple[list[list[int]], list[list[int]]]:
    """Integer rows of (A, A^{-T}) for a random product A of integer row operations.

    It draws from rng as random_sp and random_gl do.  On A the operation is
    row j += c * row i, i.e. A <- E A with E = I + c e_j e_i^T; then
    A^{-T} <- E^{-T} A^{-T}, which is row i -= c * row j.  For k < 2 no
    pair can have i != j, so none is drawn.
    """
    a = [[int(r == c) for c in range(k)] for r in range(k)]
    a_inv_t = [row[:] for row in a]
    for _ in range(2 * k + 2 if k > 1 else 0):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        a[j] = [x + c * y for x, y in zip(a[j], a[i])]
        a_inv_t[i] = [x - c * y for x, y in zip(a_inv_t[i], a_inv_t[j])]
    return a, a_inv_t


def random_symmetric(k: int, rng) -> list[list[int]]:
    """Integer rows of a random symmetric k x k matrix S, drawn from rng as random_sp
    draws its shears: row by row, on and above the diagonal."""
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = rng.randint(-2, 2)
    return rows


def shake_draws(label: str, bounds) -> list[int]:
    """One draw from range(k) for each k in bounds, in turn, read from SHAKE-256(label).

    A draw takes the next width bytes of the digest, width the fewest that
    hold k - 1, as a base-256 number v, most significant byte first.  It is
    v mod k when v < 256^width - (256^width mod k); otherwise the next width
    bytes are taken instead.  The digest is taken once, long enough for
    every draw to be rejected three times.
    """
    bounds = list(bounds)
    widths = [((k - 1).bit_length() + 7) // 8 for k in bounds]
    data = hashlib.shake_256(label.encode()).digest(4 * sum(widths) + 1)
    out, pos = [], 0
    for k, width in zip(bounds, widths):
        limit = 256 ** width - 256 ** width % k
        while True:
            v = 0
            for _ in range(width):
                v = 256 * v + data[pos]
                pos += 1
            if v < limit:
                out.append(v % k)
                break
    return out


# -- permutations and the orthonormal basis of J kron J -----------------------

def perm_matrix(cols) -> ExactMatrix:
    """Permutation matrix whose k-th column is the standard basis vector e[cols[k]]."""
    n = len(cols)
    if sorted(cols) != list(range(n)):
        raise ValueError("not a permutation of 0..n-1")
    return from_rows([[int(r == cols[k]) for k in range(n)] for r in range(n)], n)


def perm_pj(j: int, n: int, r: int) -> ExactMatrix:
    """P_j: swaps the j-th and (j+1)-st slots of n in rn, 1 <= j <= r-1."""
    assert 1 <= j <= r - 1
    lo, hi = (j - 1) * n, (j + 1) * n

    def image(k):
        return k if not lo <= k < hi else k + n if k < lo + n else k - n
    return perm_matrix([image(k) for k in range(r * n)])


def perm_pmn(m: int, n: int) -> ExactMatrix:
    """The m,n shuffle P: column k*m + s is e_{s*n + k}; diag(P, P) conjugates
    A^{(+n)} to A kron I_n for A in Sp(m)."""
    cols = [0] * (m * n)
    for s in range(m):
        for k in range(n):
            cols[k * m + s] = s * n + k
    return perm_matrix(cols)


def change_of_basis_p(m: int, n: int) -> ExactMatrix:
    """P with P^T (J_{2m} kron J_{2n}) P = I, from the library's index pairs.

    Each pair (a, a', eps) gives the columns 2a and 2a + 1, which are
    (e_a + eps e_a')/sqrt2 and i (e_a - eps e_a')/sqrt2.
    """
    size = 4 * m * n
    rows = [[0] * size for _ in range(size)]
    for a, partner, eps in _basis_pairs(m, n):
        rows[a][2 * a], rows[a][2 * a + 1] = HALF_SQRT2, HALF_I_SQRT2
        rows[partner][2 * a], rows[partner][2 * a + 1] = (product(eps, HALF_SQRT2),
                                                         product(-eps, HALF_I_SQRT2))
    return from_rows(rows, size)


# -- abelian groups ----------------------------------------------------------

def canonical(g: FgAbGroup) -> FgAbGroup:
    """The isomorphism class of g: free factors first, torsion as an ascending
    divisibility chain."""
    torsion = [f for f in g.factors if f]
    # pairwise gcd/lcm sweeps converge to invariant factors without ever
    # factoring the orders (they can be huge factorials)
    changed = True
    while changed:
        changed = False
        for i in range(len(torsion)):
            for j in range(i + 1, len(torsion)):
                x, y = torsion[i], torsion[j]
                if y % x:
                    d = gcd(x, y)
                    torsion[i], torsion[j] = d, x * y // d
                    changed = True
    free = g.factors.count(0)
    return FgAbGroup((0,) * free + tuple(f for f in sorted(torsion) if f != 1))


def isomorphic(g: FgAbGroup, h: FgAbGroup) -> bool:
    return canonical(g) == canonical(h)


# -- the Bezout witness ---------------------------------------------------------

def brute_force_witness(m: int, n: int) -> tuple[int, int] | None:
    """The least (u, v) of positive integers with |v*n - 4*u*m^2| = 1, by a
    search over u up to n that solves for v; None when no u up to n has one.

    When gcd(4m^2, n) = 1 the residues of u that work are those of
    +-(4m^2)^(-1) mod n, so the least u is at most n."""
    for u in range(1, n + 1):
        for s in (-1, 1):       # the smaller v first
            v, r = divmod(4 * u * m * m + s, n)
            if r == 0 and v > 0:
                return u, v
    return None


# -- homotopy tables -----------------------------------------------------------
# Bott periodicity (Bott, "The stable homotopy of the classical groups", Ann.
# of Math. 70, 1959): pi_i Sp and pi_i SO in their stable ranges by i mod 8,
# as cyclic orders (0 for Z, 2 for Z/2, none for the trivial group).

SP_BOTT = ((), (), (), (0,), (2,), (2,), (), (0,))
SO_BOTT = ((2,), (2,), (), (0,), (), (), (), (0,))


def tabulated(family: str, i: int, n: int, space: str = "group"):
    """(kind, cyclic orders) the homotopy tables record for pi_i of the
    family's group of size n, or of its classifying space; the orders are
    None unless the kind is "group".  None when the query has no answer:
    sizes start at 1, and classifying-space degrees at 1."""
    if n < 1:
        return None
    if space == "classifying":
        if i < 1:
            return None
        if family == "psp" and i == 4 * n + 4:
            return "group", (2,)            # the recorded constant
        return tabulated(family, i - 1, n)
    if family == "psp" and i in (0, 1):
        return "group", (2,) if i else ()   # connected, and pi_1 PSp(n) = Z/2
    if family == "o" and i == 0:
        return "group", (2,)                # O(n) has two components
    if family in ("sp", "psp"):
        if i < 4 * n:
            return "group", SP_BOTT[i % 8]
        if i in (4 * n, 4 * n + 1):
            return "group", (2,) if n % 2 else ()
        if i == 4 * n + 2:
            return "group", (factorial(2 * n + 1) * (2 if n % 2 else 1),)
        return "out-of-range", None
    if family in ("so", "o"):
        if i == 0:
            return "group", ()
        if i < n - 1:
            return "group", SO_BOTT[i % 8]
        if (i, n) in ((7, 3), (11, 5), (15, 7)):
            return "torsion-only", None
        return "out-of-range", None
    if family in ("u", "gl"):
        if i < 2 * n:
            return "group", (0,) if i % 2 else ()
        return "out-of-range", None
    raise ValueError(f"no table for {family!r}")
