"""Integer matrix kernels.

These are the hot inner loops of the library: multiplication and row
reduction of matrices held as flat lists of Python ints.  A rational
matrix is represented one level up as (numerators, common denominator),
so the kernels never see fractions.  Row reduction is insensitive to a
global scalar factor, which is why working on the numerators alone is
enough.

lralg.linalg calls them as attributes of this module (K.mat_mul and so
on), never through a copied binding, so a tracer that replaces the
module attributes sees every call.  No kernel calls another one.
"""

from math import gcd


def content(v):
    """gcd of the absolute values of an int sequence, 0 if all zero."""
    g = 0
    for x in v:
        if x:
            g = gcd(g, x)
            if g == 1:
                return 1
    return g


def mat_mul(a, b, n, m, p):
    """Multiply an n*m by an m*p flat int matrix, returning flat n*p.

    Zero entries are skipped; structure tensors and the operator
    matrices built from them are mostly zeros, and the skip is what
    keeps the exact arithmetic cheap.
    """
    out = [0] * (n * p)
    for i in range(n):
        ia = i * m
        ic = i * p
        for k in range(m):
            aik = a[ia + k]
            if aik:
                kb = k * p
                for j in range(p):
                    bkj = b[kb + j]
                    if bkj:
                        out[ic + j] += aik * bkj
    return out


def rref(a, rows, cols):
    """Reduced row echelon form of a flat int matrix.

    Returns (num, den, pivots): num/den is the unique RREF over the
    rationals (pivot entries equal 1), den > 0, zero rows at the
    bottom.  Elimination is fraction free; every updated row is
    divided by its content to keep the integers small.
    """
    m = [list(a[r * cols:(r + 1) * cols]) for r in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = -1
        for i in range(r, rows):
            if m[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(rows):
            if i == r:
                continue
            row = m[i]
            q = row[c]
            if not q:
                continue
            for j in range(cols):
                row[j] = row[j] * pv - prow[j] * q
            g = 0
            for x in row:
                if x:
                    g = gcd(g, x)
                    if g == 1:
                        break
            if g > 1:
                for j in range(cols):
                    row[j] //= g
        pivots.append(c)
        r += 1

    # Scale each pivot row so its pivot is +1: divide by the signed
    # content first, then record the remaining pivot value as the row
    # denominator.
    dens = []
    for i in range(r):
        row = m[i]
        g = 0
        for x in row:
            if x:
                g = gcd(g, x)
                if g == 1:
                    break
        if row[pivots[i]] < 0:
            g = -g
        if g != 0 and g != 1:
            for j in range(cols):
                row[j] //= g
        dens.append(row[pivots[i]])

    den = 1
    for d in dens:
        den = den * d // gcd(den, d)
    out = []
    for i in range(rows):
        if i < r:
            s = den // dens[i]
            if s == 1:
                out.extend(m[i])
            else:
                out.extend(x * s for x in m[i])
        else:
            out.extend([0] * cols)
    return out, den, tuple(pivots)
