"""Arbitrary-precision integer matrices and Smith normal form.

smith_normal_form(M) returns the invariant factors of M: the diagonal
d1 | d2 | ... of its Smith normal form, min(rows, cols) entries, each
nonnegative.  It works on M's rows as plain lists.  At each step the pivot
is the entry of smallest nonzero absolute value in the remaining block,
the first in a row-major scan, which keeps the reduction deterministic; the
scan stops at a 1, since no later entry can be smaller.  Row operations
clear the pivot's column, column operations its row, and a row holding an
entry the pivot does not divide is added to the pivot row, until the pivot
divides the whole remaining block.  A unit pivot (+1 or -1) ends its step
as soon as its column is clear: it divides every entry, and the column
operations that would clear its row leave the rest of the remaining block
as it is, so neither the row nor the divisibility scan is needed.

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
    r, c, data = m.rows, m.cols, m.data
    n = min(r, c)
    a = [data[i * c:(i + 1) * c] for i in range(r)]
    for t in range(n):
        # the pivot: the first entry of least absolute value in the trailing
        # block, row-major; no later entry is below a 1, so the scan stops there
        least = 0
        for i in range(t, r):
            row = a[i]
            for j in range(t, c):
                x = abs(row[j])
                if x and (x < least or not least):
                    least, pi, pj = x, i, j
                    if x == 1:
                        break
            if least == 1:
                break
        if not least:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        pivot_row = a[t]
        while True:
            p = pivot_row[t]
            # clear the column below the pivot; a nonzero remainder is smaller
            # than p, so its row becomes the pivot row
            for i in range(t + 1, r):
                row = a[i]
                if row[t]:
                    q = row[t] // p
                    if q:
                        for j in range(t, c):
                            row[j] -= q * pivot_row[j]
                    if row[t]:
                        a[t], a[i] = row, pivot_row
                        pivot_row = row
                        break
            else:
                if p == 1 or p == -1:
                    # a unit divides every entry, and the column operations
                    # that would clear its row leave the rows below as they are
                    break
                # clear the row right of the pivot; a nonzero remainder is
                # swapped into the pivot column
                for j in range(t + 1, c):
                    if pivot_row[j]:
                        q = pivot_row[j] // p
                        if q:
                            for row in a:
                                row[j] -= q * row[t]
                        if pivot_row[j]:
                            for row in a:
                                row[t], row[j] = row[j], row[t]
                            break
                else:
                    # row and column are clear: the first row holding an entry
                    # that p does not divide is added to the pivot row, and the
                    # reduction repeats
                    for i in range(t + 1, r):
                        row = a[i]
                        if any(x % p for x in row[t + 1:]):
                            for j in range(t, c):
                                pivot_row[j] += row[j]
                            break
                    else:
                        break
    return [abs(a[i][i]) for i in range(n)]
