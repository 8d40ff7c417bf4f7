"""Pure-Python fallback for the hot numerator kernels.

Matrices are flat lists of arbitrary-precision integers, four numerator
components per entry (basis 1, z, z^2, z^3 with z^4 = -1), row-major.
"""


def matmul_num(a, b, n, k, m):
    """(n x k) times (k x m) over Z[z]; returns a flat list of length n*m*4.

    The nonzero entries of each row of b are listed once, as (offset, b0..b3),
    so zero structure in either factor costs nothing in the inner loop, and
    an entry of a in Z (a1 = a2 = a3 = 0) scales a row of b with 4 products
    instead of 16.
    """
    c = [0] * (n * m * 4)
    m4 = m * 4
    b_rows = []
    for t in range(k):
        boff = t * m4
        row = []
        for q in range(boff, boff + m4, 4):
            b0, b1, b2, b3 = b[q:q + 4]
            if b0 or b1 or b2 or b3:
                row.append((q - boff, b0, b1, b2, b3))
        b_rows.append(row)
    for i in range(n):
        aoff = i * k * 4
        coff = i * m4
        for t, row in enumerate(b_rows):
            if not row:
                continue
            p = aoff + 4 * t
            a0, a1, a2, a3 = a[p:p + 4]
            if a1 or a2 or a3:
                for o, b0, b1, b2, b3 in row:
                    r = coff + o
                    c[r] += a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1
                    c[r + 1] += a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2
                    c[r + 2] += a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3
                    c[r + 3] += a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
            elif a0:
                for o, b0, b1, b2, b3 in row:
                    r = coff + o
                    c[r] += a0 * b0
                    c[r + 1] += a0 * b1
                    c[r + 2] += a0 * b2
                    c[r + 3] += a0 * b3
    return c
