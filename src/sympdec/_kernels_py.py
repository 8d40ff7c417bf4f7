"""Pure-Python fallback for the hot numerator kernels.

Matrices are flat lists of arbitrary-precision integers, four numerator
components per entry (basis 1, z, z^2, z^3 with z^4 = -1), row-major.

matmul_num pays one multiplication per pair of nonzero components.  Each row
of b is listed as the (offset, value) pairs of its nonzero components, and
multiplying by z^j only moves a pair j places up the basis, negating it when
it wraps past z^3; so the row is also listed as z^j times itself, for each
power j that some entry of a uses.  Entry (r, t) of a then adds, for each of
its nonzero components a_j, a_j times each pair of z^j times row t.

The saving is in the matrices the command line makes, which all lie over
Q(i) (i = z^2): random_sp draws integer matrices, the rotations of random_so
use +-3i/4, and the tensor_sp_sp gather gives entries that are purely real
or purely imaginary.  An entry of Z[i] has at most two nonzero components,
so a product of two such entries costs at most 4 multiplications, and a real
or imaginary entry times a real or imaginary one costs 1, against the 16 of
the schoolbook rule over Z[z].  Such a factor a lists only z^0 b and z^2 b,
and an integer a (a signed permutation, a block-diagonal matrix) only b.
A dense entry of Q(z) still costs 16 multiplications, one loop step each.
The zero components are skipped by itertools.compress, without a Python-level
test per component.
"""

from itertools import compress


def matmul_num(a, b, n, k, m):
    """(n x k) times (k x m) over Z[z]; returns a flat list of length n*m*4."""
    m4, k4 = m * 4, k * 4
    # compress over these ranges gives the offsets of a row's nonzero components
    row_b, row_a = range(m4), range(k4)
    powers = [j for j in (1, 2, 3) if any(a[j::4])]
    # shifted[4t + j]: the (offset, value) pairs of z^j times row t of b, or ()
    # for a power j no entry of a uses
    shifted = []
    for t in range(k):
        z0 = []
        lists = [z0, (), (), ()]
        for j in powers:
            lists[j] = []
        row = b[t * m4:(t + 1) * m4]
        for o in compress(row_b, row):
            v = row[o]
            z0.append((o, v))
            for j in powers:
                lists[j].append((o + j, v) if o & 3 < 4 - j else (o + j - 4, -v))
        shifted += lists
    c = []
    for i in range(n):
        out = [0] * m4
        row = a[i * k4:(i + 1) * k4]
        # component j of entry t of the row meets z^j times row t of b
        for s in compress(row_a, row):
            x = row[s]
            for o, v in shifted[s]:
                out[o] += x * v
        c += out
    return c
