"""Arbitrary-precision integer matrices and Smith normal form.

smith_normal_form(M) returns (D, U, V) with U*M*V = D, U and V unimodular,
D diagonal with d1 | d2 | ... and every diagonal entry nonnegative.  Pivots
are always the entry of smallest nonzero absolute value in the remaining
block, scanned row-major, which keeps the reduction deterministic.
"""

from __future__ import annotations

from sympdec.errors import ShapeMismatchError


class IntMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries):
        entries = [int(x) for x in entries]
        if len(entries) != rows * cols:
            raise ShapeMismatchError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.data = entries

    @classmethod
    def from_rows(cls, grid) -> "IntMatrix":
        grid = [list(row) for row in grid]
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        if any(len(r) != cols for r in grid):
            raise ShapeMismatchError("ragged rows")
        return cls(rows, cols, [x for row in grid for x in row])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.data[i * self.cols + j]

    def row_lists(self) -> list[list[int]]:
        c = self.cols
        return [self.data[i * c:(i + 1) * c] for i in range(self.rows)]

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatchError("multiplication shape mismatch")
        a, b = self.row_lists(), other.row_lists()
        out = []
        for i in range(self.rows):
            ai = a[i]
            row = [0] * other.cols
            for t, x in enumerate(ai):
                if x:
                    bt = b[t]
                    for j in range(other.cols):
                        row[j] += x * bt[j]
            out.append(row)
        return IntMatrix.from_rows(out) if out else IntMatrix.zeros(0, other.cols)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.data)))

    def diagonal(self) -> list[int]:
        return [self.entry(i, i) for i in range(min(self.rows, self.cols))]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Diagonalize m by unimodular row/column operations: U @ m @ V = D."""
    r, c = m.rows, m.cols
    a = m.row_lists()
    u = IntMatrix.identity(r).row_lists()
    v = IntMatrix.identity(c).row_lists()

    def row_sub(i, k, q):
        # row i -= q * row k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j, k, q):
        # col j -= q * col k
        for row in a:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(r, c):
        # minimal-absolute-value pivot in the trailing block, row-major scan
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])

        while True:
            p = a[t][t]
            moved = False
            for i in range(t + 1, r):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        row_sub(i, t, q)
                    if a[i][t]:
                        # remainder is strictly smaller: promote it to the pivot
                        swap_rows(t, i)
                        moved = True
                        break
            if moved:
                continue
            for j in range(t + 1, c):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        col_sub(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        moved = True
                        break
            if moved:
                continue
            # row and column are clear; enforce divisibility of the rest
            bad = None
            for i in range(t + 1, r):
                for j in range(t + 1, c):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)

        t += 1

    for i in range(min(r, c)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    mk = lambda g, rr, cc: IntMatrix(rr, cc, [x for row in g for x in row])
    return mk(a, r, c), mk(u, r, r), mk(v, c, c)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, rr = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while rr:
        q = old_r // rr
        old_r, rr = rr, old_r - q * rr
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
