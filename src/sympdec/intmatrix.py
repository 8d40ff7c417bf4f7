"""Arbitrary-precision integer matrices and Smith normal form.

smith_normal_form(M) returns the invariant factors of M: the diagonal
d1 | d2 | ... of its Smith normal form, min(rows, cols) entries, each
nonnegative.  Pivots are always the entry of smallest nonzero absolute value
in the remaining block, scanned row-major, which keeps the reduction
deterministic.

The public constructor accepts integers only (operator.index, so a float
raises TypeError) and checks the shape.  The private IntMatrix._raw takes a
row-major list of ints of the right length unchecked, for results that are
valid whenever their inputs are: products and the identity matrix.
"""

from __future__ import annotations

from operator import index

from sympdec.errors import ShapeMismatchError


class IntMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, entries):
        rows, cols = index(rows), index(cols)
        if rows < 0 or cols < 0:
            raise ShapeMismatchError("negative dimensions")
        entries = list(map(index, entries))
        if len(entries) != rows * cols:
            raise ShapeMismatchError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.data = entries

    @classmethod
    def _raw(cls, rows: int, cols: int, data: list[int]) -> "IntMatrix":
        """The rows x cols matrix on data, a row-major list of rows * cols ints, taken unchecked."""
        self = object.__new__(cls)
        self.rows, self.cols, self.data = rows, cols, data
        return self

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        data = [0] * (n * n)
        data[::n + 1] = [1] * n
        return cls._raw(n, n, data)

    def row_lists(self) -> list[list[int]]:
        c = self.cols
        return [self.data[i * c:(i + 1) * c] for i in range(self.rows)]

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatchError("multiplication shape mismatch")
        c = other.cols
        b = other.row_lists()
        out = []
        for ai in self.row_lists():
            row = [0] * c
            for x, bt in zip(ai, b):
                if x:
                    row = [y + x * z for y, z in zip(row, bt)]
            out += row
        return IntMatrix._raw(self.rows, c, out)


def smith_normal_form(m: IntMatrix) -> list[int]:
    """The invariant factors d1 | d2 | ... of m, min(rows, cols) of them:
    the diagonal left by unimodular row and column operations, made
    nonnegative."""
    r, c = m.rows, m.cols
    a = m.row_lists()

    def row_sub(i, k, q):
        # row i -= q * row k
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]

    def col_sub(j, k, q):
        # col j -= q * col k
        for row in a:
            row[j] -= q * row[k]

    def swap_cols(j, k):
        for row in a:
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
            a[t], a[best[0]] = a[best[0]], a[t]
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
                        a[t], a[i] = a[i], a[t]
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

    return [abs(a[i][i]) for i in range(min(r, c))]

