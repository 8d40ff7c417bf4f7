"""Dense exact matrices over Q(z), the degree-8 cyclotomic field.

Storage is a flat list of integer numerators (four components per entry,
row-major) over a single positive denominator shared by the whole matrix,
with the joint content reduced to 1.  That form is canonical, so equality
is structural, and it feeds the multiplication kernel integer-only work.
A matrix owns its numerators: the constructor keeps a list it is handed, so
the caller must not change that list afterwards, and copies any other
iterable.  Every construction in the package hands over a list it has just
built, and none changes the numerators of a matrix it reads.
The block constructions copy rows and runs, not single entries.  kron
splits B into its rows once and writes each output row as row k of the
blocks A[i, j] B in turn.  The block of a rational integer is scaled once
per call and its rows reused wherever that entry recurs: 0 is one shared
zero row and 1 is B's own rows.  Any other scalar goes through the kernel
as a 1 x 1 by 1 x pq product.  place_blocks copies each run of consecutive
column indices with one slice per row, and gather picks each row's
components with one operator.itemgetter.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from operator import itemgetter

from sympdec import kernels
from sympdec.errors import ShapeMismatchError


class ExactMatrix:
    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, num, den: int = 1):
        """The rows x cols matrix num / den, brought to canonical form.

        A list num becomes the matrix's own storage, not a copy: the caller
        hands it over and must not change it afterwards.  Any other iterable
        is copied.
        """
        if rows < 0 or cols < 0:
            raise ShapeMismatchError("negative dimensions")
        if type(num) is not list:
            num = list(num)
        if len(num) != rows * cols * 4:
            raise ShapeMismatchError(
                f"expected {rows * cols * 4} numerator components, got {len(num)}"
            )
        self.rows = rows
        self.cols = cols
        # the content over 1 is 1 already
        if den == 1:
            self.num, self.den = num, den
        else:
            self.num, self.den = _reduce_content(num, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        num = [0] * (n * n * 4)
        for i in range(n):
            num[(i * n + i) * 4] = 1
        return cls(n, n, num, 1)

    # -- element access ----------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def gather(self, row_indices, col_indices) -> "ExactMatrix":
        """The submatrix whose entry (i, j) is entry (row_indices[i], col_indices[j]) of self.

        The inverse of place_blocks: place_blocks(rows, cols, [(m.gather(r, c), r, c)])
        agrees with m at those indices.  Indices may repeat; each must lie
        inside the matrix (no wrap-around), else ShapeMismatchError.
        """
        row_indices, col_indices = list(row_indices), list(col_indices)
        if (any(not 0 <= r < self.rows for r in row_indices)
                or any(not 0 <= c < self.cols for c in col_indices)):
            raise ShapeMismatchError(f"gather index outside {self.rows}x{self.cols}")
        num = []
        if col_indices:
            w = 4 * self.cols
            pick = itemgetter(*[4 * c + t for c in col_indices for t in range(4)])
            for r in row_indices:
                num += pick(self.num[r * w:(r + 1) * w])
        return ExactMatrix(len(row_indices), len(col_indices), num, self.den)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        # type(self): -A lies in Sp or O exactly when A does, so a membership mark stays
        return type(self)(self.rows, self.cols, [-x for x in self.num], self.den)

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        num = kernels.matmul_num(self.num, other.num, self.rows, self.cols, other.cols)
        return ExactMatrix(self.rows, other.cols, num, self.den * other.den)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product, left factor major: (A kron B)[ip+k, jq+l] = A[i,j]*B[k,l]."""
        r, c, p, q = self.rows, self.cols, other.rows, other.cols
        w = 4 * q

        def rows(flat: list[int]) -> list[list[int]]:
            return [flat[k * w:(k + 1) * w] for k in range(p)]

        # the block of each rational integer met so far, as its list of rows:
        # 0 is one shared zero row, 1 is B's rows
        scaled = {0: [[0] * w] * p, 1: rows(other.num)}
        num = []
        for i in range(r):
            # block (i, j) is A[i, j] * B; output row (i, k) is row k of each
            # block in turn
            blocks = []
            for s in range(4 * i * c, 4 * (i + 1) * c, 4):
                a = self.num[s:s + 4]
                a0, a1, a2, a3 = a
                if a1 or a2 or a3:
                    blocks.append(rows(kernels.matmul_num(a, other.num, 1, 1, p * q)))
                    continue
                block = scaled.get(a0)
                if block is None:
                    block = scaled[a0] = rows([a0 * x for x in other.num])
                blocks.append(block)
            for k in range(p):
                for b in blocks:
                    num += b[k]
        return ExactMatrix(r * p, c * q, num, self.den * other.den)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )


def transposed_num(num: list[int], rows: int, cols: int) -> list[int]:
    """The flat numerators of the transpose of the rows x cols matrix with numerators num."""
    out = [0] * len(num)
    # component t of column j is the stride-4*cols slice from 4j + t; it
    # becomes component t of row j of the transpose
    for j in range(cols):
        o = 4 * j * rows
        for t in range(4):
            out[o + t:o + 4 * rows:4] = num[4 * j + t::4 * cols]
    return out


def is_scaled_identity(num: list[int], n: int, d: int) -> bool:
    """Whether the flat numerators num of an n x n matrix are d != 0 times the identity."""
    # the n diagonal 1-components equal d and are the only nonzeros
    return all(x == d for x in num[::4 * (n + 1)]) and num.count(0) == len(num) - n


def _reduce_content(num: list[int], den: int) -> tuple[list[int], int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        den = -den
        num = [-x for x in num]
    # starting at den, the common gcd stops once it reaches 1; an all-zero
    # matrix ends with g = den and so comes out over 1
    g = den
    for x in num:
        if g == 1:
            break
        g = gcd(g, x)
    if g > 1:
        num = [x // g for x in num]
        den //= g
    return num, den


def place_blocks(rows: int, cols: int, placements) -> ExactMatrix:
    """A rows x cols matrix, zero except where blocks are placed.

    Each placement (block, row_indices, col_indices) writes entry (i, j) of
    block at (row_indices[i], col_indices[j]); all blocks are brought over
    the lcm of their denominators.
    """
    placements = list(placements)
    den = 1
    for b, _, _ in placements:
        den = den * b.den // gcd(den, b.den)
    num = [0] * (rows * cols * 4)
    for b, row_idx, col_idx in placements:
        if len(row_idx) != b.rows or len(col_idx) != b.cols:
            raise ShapeMismatchError(
                f"{b.rows}x{b.cols} block placed at {len(row_idx)}x{len(col_idx)} indices"
            )
        if any(not 0 <= r < rows for r in row_idx) or any(not 0 <= c < cols for c in col_idx):
            raise ShapeMismatchError(f"block index outside {rows}x{cols}")
        f = den // b.den
        src = b.num if f == 1 else [x * f for x in b.num]
        # each run of consecutive column indices is copied as one slice per row
        runs, j = [], 0
        for e in range(1, b.cols + 1):
            if e == b.cols or col_idx[e] != col_idx[e - 1] + 1:
                c = 4 * col_idx[j]
                runs.append((4 * j, 4 * e, c, c + 4 * (e - j)))
                j = e
        w, bw = 4 * cols, 4 * b.cols
        for i, r in enumerate(row_idx):
            s, o = i * bw, r * w
            for lo, hi, c_lo, c_hi in runs:
                num[o + c_lo:o + c_hi] = src[s + lo:s + hi]
    return ExactMatrix(rows, cols, num, den)


def _spans(sizes) -> list[range]:
    """Consecutive index ranges of the given lengths, starting at 0."""
    ends = list(accumulate(sizes, initial=0))
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def block_diag(*blocks: ExactMatrix) -> ExactMatrix:
    """Plain block-diagonal assembly diag(B1, ..., Bk)."""
    heights, widths = [b.rows for b in blocks], [b.cols for b in blocks]
    return place_blocks(sum(heights), sum(widths), zip(blocks, _spans(heights), _spans(widths)))
