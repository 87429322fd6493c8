"""Integer matrix kernels.

These are the hot inner loops of the library: multiplication of
matrices held as flat lists of Python ints, and row reduction.  There
is one Gauss-Jordan insertion step, remainders then keep, on a dict of
kept rows that canonical reads out, and one loop over it, insert, that
stops at a cap on the rank: echelon runs it for every span, kernel,
inverse and solve, rref gives its result for a flat matrix, and a
chain of images runs it per step, capped at the dimension before.  The
two-generator scan calls the step itself, and a subspace reduces a
vector (membership, quotients, restrictions) with remainders alone.  A
rational matrix is represented one level up as (numerators, common
denominator), so the kernels never see fractions; row reduction is
insensitive to a global scalar factor, so the numerators are enough.

The other modules call them as attributes of this module (K.mat_mul
and so on), never through a copied binding, so a tracer that replaces
the module attributes sees every call.  rref calls echelon, echelon
insert, and insert its step, the same way, so a tracer that wrapped
more than one would nest the inner spans in the outer one.
"""

from math import gcd, lcm


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
    """Reduced row echelon form of a flat int matrix, the dense form of
    echelon.

    Returns (num, den, pivots): num/den is the unique RREF over the
    rationals (pivot entries equal 1) as flat numerators, den > 0, zero
    rows at the bottom.
    """
    out, den, pivots = echelon(
        ([(c, x) for c, x in enumerate(a[r * cols:(r + 1) * cols]) if x] for r in range(rows)),
        cols,
    )
    num = [0] * (rows * cols)
    for t, row in enumerate(out):
        for c, x in row:
            num[t * cols + c] = x
    return num, den, pivots


def echelon(rows, cols):
    """Reduced row echelon form of sparse integer rows of length cols,
    each given by its nonzero (column, numerator) pairs in any order.

    Returns (out, den, pivots) without zero rows: out[t] is the t-th
    RREF row times den as sorted nonzero pairs, and den > 0 is the
    least common denominator, the canonical form of linalg.Matrix.
    Gauss-Jordan, one row at a time (insert), read out once at the end.
    """
    return canonical(insert({}, rows, cols))


def insert(kept, rows, cap):
    """kept, each sparse row's nonzero remainder against it kept in turn
    (remainders, keep) until it holds cap rows, the rest left unread."""
    for v in remainders(kept, rows):
        if v:
            keep(kept, v)
            if len(kept) == cap:
                break
    return kept


def remainders(kept, rows):
    """Yield each sparse row's remainder, up to a nonzero integer
    factor, against the kept rows as they stand when it is reached: a
    {column: numerator} dict, empty for a row in their span.  kept maps
    each pivot to its row, {column: numerator}, zero at the other
    pivots; nothing is changed.  One generator takes a whole stream of
    rows, so a bulk elimination pays no call per row."""
    for row in rows:
        v = dict(row)
        for p in [c for c in v if c in kept]:
            b = kept[p]
            x, y = v[p], b[p]
            g = gcd(x, y)
            if g > 1:
                x //= g
                y //= g
            if y != 1:
                for c in v:
                    v[c] *= y
            for c, a in b.items():
                w = v.get(c, 0) - x * a
                if w:
                    v[c] = w
                else:
                    del v[c]
        yield v


def keep(kept, v):
    """Add a nonzero remainder v to the kept rows: v is made primitive
    with a positive leading entry, its leading column p becomes a
    pivot, and p is cleared from the kept rows that are nonzero there,
    each made primitive again."""
    p = min(v)
    g = gcd(*v.values())
    if v[p] < 0:
        g = -g
    if g != 1:
        v = {c: a // g for c, a in v.items()}
    y = v[p]
    for q, b in kept.items():
        x = b.get(p)
        if x:
            g = gcd(x, y)
            s = y // g
            x //= g
            w = {c: a * s for c, a in b.items()} if s != 1 else b
            for c, a in v.items():
                t = w.get(c, 0) - x * a
                if t:
                    w[c] = t
                else:
                    del w[c]
            g = gcd(*w.values())
            kept[q] = {c: a // g for c, a in w.items()} if g > 1 else w
    kept[p] = v


def canonical(kept):
    """The RREF of the kept rows in echelon's (out, den, pivots) form:
    row t is the kept row at the t-th pivot over its pivot entry."""
    pivots = tuple(sorted(kept))
    den = lcm(*(kept[p][p] for p in pivots))
    out = []
    for p in pivots:
        b = kept[p]
        s = den // b[p]
        out.append(tuple(sorted(b.items() if s == 1 else ((c, a * s) for c, a in b.items()))))
    return tuple(out), den, pivots
