"""Products on a vector space and the LR identities.

A Product is a linalg.Bilinear whose constants p[i][j][k], read as
Fractions through table, mean e_i * e_j = sum_k p[i][j][k] e_k.  The
two LR identities are

    x * (y * z) = y * (x * z)        (left multiplications commute)
    (x * y) * z = (x * z) * y        (right multiplications commute)

and a product is compatible with a bracket when x*y - y*x = [x, y].
Complete means every right multiplication is nilpotent.

The certificates are tested on the structure constants, in the style
of de Graaf, Lie Algebras: Theory and Algorithms (2000), not on
operator matrices.  A sparse contraction of the integer constants _inz
with themselves gives the products of products

    T[i, j, k] = e_i (e_j e_k),        S[i, j, k] = (e_i e_j) e_k,

one k at a time: T[i, j, k] is column k of L(e_i)L(e_j) and S[k, j, i]
column k of R(e_i)R(e_j).  The left identity at (i, j, k) reads
T[i, j, k] = T[j, i, k] and the right one S[k, j, i] = S[k, i, j], so
each difference is column k of the commutator of two basis operators.

Completeness is read off the chain A, A*A, (A*A)*A, ..., whose t-th
term is spanned by the words R(e_i1)...R(e_it) applied to A.  If the
chain reaches 0, every R(e_i) is nilpotent.  Conversely, commuting
nilpotent operators generate a nilpotent associative algebra, so once
the right identity holds, the chain reaches 0 iff every right
multiplication is nilpotent.  Each step is one row reduction instead
of a matrix power per basis operator.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    DimensionMismatchError,
    NotLrProductError,
    NotTwoSidedIdealError,
    PreconditionError,
)
from .lie import LieAlgebra, Violation, series
from .linalg import (
    Bilinear,
    Matrix,
    Subspace,
    Vector,
    _int_row,
    _memoized,
    _to_vector,
    vector,
)

LR_LEFT = "x(yz) = y(xz)"
LR_RIGHT = "(xy)z = (xz)y"
COMPATIBILITY = "xy - yx = [x,y]"


class Product(Bilinear):
    __slots__ = ()
    _kind = "product"
    table = Bilinear.tensor  # the Fraction view under its product name

    def __init__(self, table):
        super().__init__(table)

    @classmethod
    def from_entries(cls, dim: int, pairs) -> "Product":
        """Build from a sparse {(i, j): {k: value}} map, 0-based, no
        symmetry assumed."""
        return cls._from_sparse(dim, pairs)

    @classmethod
    def zero(cls, dim: int) -> "Product":
        return cls.from_entries(dim, {})

    def evaluate(self, x, y) -> Vector:
        return self.apply(x, y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Product):
            return NotImplemented
        return self.dim == other.dim and self._den == other._den and self._inz == other._inz

    __hash__ = None  # type: ignore[assignment]


def left_op(p: Product, x) -> Matrix:
    """Matrix of y -> x * y."""
    return p.operator(x)


def right_op(p: Product, x) -> Matrix:
    """Matrix of y -> y * x."""
    return p.operator(x, right=True)


_ZERO: dict[int, int] = {}  # the zero vector of a sparse map; never mutated


def _times_basis(x, by, n: int) -> dict[int, dict[int, int]]:
    """{i: product of x with e_i} for x given by its nonzero (m, x_m)
    pairs; by[m] lists the nonzero (i, constants) of e_i e_m or e_m e_i,
    which decides the side.  Each product is a sparse {l: numerator}
    map with no zero entries, and zero products are left out, so == on
    two maps is equality of the vectors."""
    out: dict[int, list[int]] = {}
    for m, c in x:
        for i, w in by[m]:
            acc = out.get(i)
            if acc is None:
                acc = out[i] = [0] * n
            for l, d in w:
                acc[l] += c * d
    nonzero = ((i, {l: y for l, y in enumerate(acc) if y}) for i, acc in out.items())
    return {i: v for i, v in nonzero if v}


class _Contraction:
    """The constants of p by column and by row, and the products of
    products of basis vectors they give, on integers.

    lefts(x) and rights(x) give e_i x and x e_i for every i at once; a
    factor over den ** a comes out over den ** (a + 1), den = p._den.
    column(k) gives column k of L(e_i)L(e_j) and of R(e_i)R(e_j) for all
    i, j: {(i, j): e_i (e_j e_k)} and {(i, j): (e_k e_j) e_i}, over
    den ** 2 and without zero entries.
    """

    __slots__ = ("n", "den", "inz", "_by_col", "_by_row")

    def __init__(self, p: Product):
        n, inz = p.dim, p._inz
        self.n, self.den, self.inz = n, p._den, inz
        self._by_col: list[list] = [[] for _ in range(n)]
        self._by_row: list[list] = [[] for _ in range(n)]
        for ij, w in enumerate(inz):
            if w:
                i, j = divmod(ij, n)
                self._by_col[j].append((i, w))
                self._by_row[i].append((j, w))

    def lefts(self, x) -> dict[int, dict[int, int]]:
        return _times_basis(x, self._by_col, self.n)

    def rights(self, x) -> dict[int, dict[int, int]]:
        return _times_basis(x, self._by_row, self.n)

    def column(self, k: int) -> tuple[dict, dict]:
        left = {(i, j): v for j, w in self._by_col[k] for i, v in self.lefts(w).items()}
        right = {(i, j): v for j, w in self._by_row[k] for i, v in self.rights(w).items()}
        return left, right


def _difference(a: dict[int, int], b: dict[int, int], n: int, den: int) -> Vector | None:
    """(a - b) / den as a vector, None when a == b."""
    if a == b:
        return None
    out = _int_row(a.items(), n)
    for l, x in b.items():
        out[l] -= x
    return _to_vector(out, den)


def _lr_violations(c: _Contraction) -> tuple[list[Violation], list[Violation]]:
    """Violations of the left and of the right identity, each ordered by
    (i, j, k) with i < j: the nonzero columns k of the commutators of
    the basis operators i and j.  Only one column k of the products is
    held at a time, and only pairs present in it can differ."""
    n, den = c.n, c.den ** 2
    left: list[Violation] = []
    right: list[Violation] = []
    for k in range(n):
        for table, identity, out in zip(c.column(k), (LR_LEFT, LR_RIGHT), (left, right)):
            for i, j in {(min(a, b), max(a, b)) for a, b in table if a != b}:
                d = _difference(table.get((i, j), _ZERO), table.get((j, i), _ZERO), n, den)
                if d:
                    out.append(Violation(identity, (i, j, k), d))
    left.sort(key=lambda v: v.indices)
    right.sort(key=lambda v: v.indices)
    return left, right


def _chain_reaches_zero(n: int, step) -> bool:
    """True iff the chain V_0 = Q^n, V_t+1 = span of step(b) over the
    rows b of V_t reaches 0.  step is the lefts or the rights of a
    _Contraction, giving A, A*A, A*(A*A), ... or A, A*A, (A*A)*A, ...
    The chain decreases, and a step that keeps the dimension keeps the
    space, so once it stalls it never reaches 0."""
    space = Subspace.full(n)
    while space.dim:
        rows = [
            _int_row(v.items(), n)
            for b in space.rows._int_rows()
            for v in step([(m, x) for m, x in enumerate(b) if x]).values()
        ]
        smaller = Subspace._from_int_rows(n, rows)
        if smaller.dim == space.dim:
            return False
        space = smaller
    return True


def _compatibility_violations(g: LieAlgebra, p: Product) -> list[Violation]:
    """p[i][j] - p[j][i] - g[i][j] for i < j, on integers over the lcm
    of both denominators; pairs whose three slices are all zero are
    skipped."""
    n = g.dim
    den = lcm(p._den, g._den)
    sp, sg = den // p._den, den // g._den
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            ij, ji = p._inz[i * n + j], p._inz[j * n + i]
            br = g._inz[i * n + j]
            if not (ij or ji or br):
                continue
            defect = [0] * n
            for k, x in ij:
                defect[k] += x * sp
            for k, x in ji:
                defect[k] -= x * sp
            for k, x in br:
                defect[k] -= x * sg
            if any(defect):
                out.append(Violation(COMPATIBILITY, (i, j), _to_vector(defect, den)))
    return out


@dataclass(frozen=True)
class LrReport:
    is_lr: bool
    is_compatible: bool
    is_complete: bool
    violations: tuple[Violation, ...]


def check_lr(g: LieAlgebra, p: Product) -> LrReport:
    """Full report: the two LR identities, compatibility with the
    bracket, and completeness.

    The identities are tested on T and S, the contraction of the
    constants with themselves (module docstring); a violation at
    (i, j, k) carries column k of the commutator of the basis
    operators i and j.  Compatibility is tested on the integer
    constants of p and g over one denominator.  Completeness is the
    chain A, A*A, (A*A)*A, ... reaching 0, which equals nilpotency of
    every right multiplication once those commute; it is reported as
    False whenever they do not, since the notion only makes sense past
    that point.

    Inputs with the _content of a pair checked recently get that report
    from the memo; the validity and dimension checks run first.
    """
    g.ensure_valid()
    if g.dim != p.dim:
        raise DimensionMismatchError("algebra and product dimensions differ")
    return _memoized(("lr", g._content, p._content), _check_lr, g, p)


def _check_lr(g: LieAlgebra, p: Product) -> LrReport:
    c = _Contraction(p)
    left_violations, right_violations = _lr_violations(c)
    compatibility = _compatibility_violations(g, p)
    return LrReport(
        is_lr=not (left_violations or right_violations),
        is_compatible=not compatibility,
        is_complete=not right_violations and _chain_reaches_zero(c.n, c.rights),
        violations=tuple(left_violations + right_violations + compatibility),
    )


def check_complete(p: Product) -> bool:
    """True iff every right multiplication is nilpotent.

    Requires the right identity, tested on S as in check_lr; then the
    right multiplications commute and the chain A, A*A, (A*A)*A, ...
    reaches 0 exactly when they are all nilpotent.
    """
    c = _Contraction(p)
    if _lr_violations(c)[1]:
        raise PreconditionError("right multiplications do not commute")
    return _chain_reaches_zero(c.n, c.rights)


def opposite(p: Product) -> Product:
    """The product x . y = -(y * x); swaps the roles of left and right."""
    n, inz = p.dim, p._inz
    flipped = [[(k, -c) for k, c in inz[j * n + i]] for i in range(n) for j in range(n)]
    return Product._from_int(n, flipped, p._den)


LEMMA_IDENTITIES = (
    "L(x)R(y) = R(xy)",
    "R(x)L(y) = L(yx)",
    "L(x)R(yz) = R(x(yz))",
    "R(x)L(yz) = L((yz)x)",
    "L(x)L(yz) = L(y(xz))",
    "R(x)R(yz) = R((yx)z)",
)


def _lemma_defects(p: Product, x, y, z) -> list[tuple[str, Matrix]]:
    lx, rx = left_op(p, x), right_op(p, x)
    ly = left_op(p, y)
    ry = right_op(p, y)
    xy = p.evaluate(x, y)
    yx = p.evaluate(y, x)
    yz = p.evaluate(y, z)
    xz = p.evaluate(x, z)
    checks = [
        (LEMMA_IDENTITIES[0], lx * ry, right_op(p, xy)),
        (LEMMA_IDENTITIES[1], rx * ly, left_op(p, yx)),
        (LEMMA_IDENTITIES[2], lx * right_op(p, yz), right_op(p, p.evaluate(x, yz))),
        (LEMMA_IDENTITIES[3], rx * left_op(p, yz), left_op(p, p.evaluate(yz, x))),
        (LEMMA_IDENTITIES[4], lx * left_op(p, yz), left_op(p, p.evaluate(y, xz))),
        (LEMMA_IDENTITIES[5], rx * right_op(p, yz), right_op(p, p.evaluate(yx, z))),
    ]
    return [(name, a - b) for name, a, b in checks if a != b]


def _lemma_violations(c: _Contraction) -> list[Violation]:
    """The six identities on all basis pairs and triples, as identities
    among products of products; the defect Matrix is built only for a
    failing one.  Every column of the products is held at once.

    Column l of each side, with w = e_j e_k:

        0  L(e_i)R(e_j) = R(e_i e_j)      e_i (e_l e_j) = e_l (e_i e_j)
        1  R(e_i)L(e_j) = L(e_j e_i)      (e_j e_l) e_i = (e_j e_i) e_l
        2  L(e_i)R(w) = R(e_i w)          e_i (e_l w) = e_l (e_i w)
        3  R(e_i)L(w) = L(w e_i)          (w e_l) e_i = (w e_i) e_l
        4  L(e_i)L(w) = L(e_j(e_i e_k))   e_i (w e_l) = (e_j (e_i e_k)) e_l
        5  R(e_i)R(w) = R((e_j e_i) e_k)  (e_l w) e_i = e_l ((e_j e_i) e_k)
    """
    n = c.n
    lcol, rcol = zip(*map(c.column, range(n)))  # lcol[k][i, j] = e_i (e_j e_k)
    violations: list[Violation] = []

    def check(which: int, where: tuple[int, ...], cols, den: int) -> None:
        if all(a == b for a, b in cols):
            return
        num = [0] * (n * n)
        for l, (a, b) in enumerate(cols):
            for r, x in a.items():
                num[r * n + l] += x
            for r, x in b.items():
                num[r * n + l] -= x
        violations.append(Violation(LEMMA_IDENTITIES[which], where, Matrix._raw(n, n, num, den)))

    den2, den3 = c.den ** 2, c.den ** 3
    for i in range(n):
        for j in range(n):
            lj, rj = lcol[j], rcol[j]
            cols = [(lj.get((i, l), _ZERO), lj.get((l, i), _ZERO)) for l in range(n)]
            check(0, (i, j), cols, den2)
            cols = [(rj.get((i, l), _ZERO), rj.get((l, i), _ZERO)) for l in range(n)]
            check(1, (i, j), cols, den2)

    # Triple identities; e_j e_k is usually zero, and then every one of
    # them is trivially 0 = 0.
    for j in range(n):
        for k in range(n):
            if not c.inz[j * n + k]:
                continue
            lk, rj = lcol[k], rcol[j]
            u = [lk.get((l, j), _ZERO).items() for l in range(n)]  # e_l w
            r = [rj.get((l, k), _ZERO).items() for l in range(n)]  # w e_l
            e_u = [c.lefts(x) for x in u]  # e_u[l][i] = e_i (e_l w)
            u_e = [c.rights(x) for x in u]
            e_r = [c.lefts(x) for x in r]
            r_e = [c.rights(x) for x in r]
            for i in range(n):
                where = (i, j, k)
                t_e = c.rights(lk.get((j, i), _ZERO).items())  # (e_j (e_i e_k)) e_l
                e_s = c.lefts(rj.get((k, i), _ZERO).items())  # e_l ((e_j e_i) e_k)
                cols = [(e_u[l].get(i, _ZERO), e_u[i].get(l, _ZERO)) for l in range(n)]
                check(2, where, cols, den3)
                cols = [(r_e[l].get(i, _ZERO), r_e[i].get(l, _ZERO)) for l in range(n)]
                check(3, where, cols, den3)
                cols = [(e_r[l].get(i, _ZERO), t_e.get(l, _ZERO)) for l in range(n)]
                check(4, where, cols, den3)
                cols = [(u_e[l].get(i, _ZERO), e_s.get(l, _ZERO)) for l in range(n)]
                check(5, where, cols, den3)
    return violations


def check_lemma14(p: Product, samples=()) -> list[Violation]:
    """Verify the six derived operator identities of LR products.

    Checked on all basis triples and on every supplied sample triple
    (x, y, z).  If the product fails the LR axioms themselves, those
    violations are returned and nothing else is attempted.

    The gate and the basis identities are identities among products of
    products of basis vectors, read from the contraction of the
    constants with themselves (module docstring); column l of
    L(e_i)R(w) = R(e_i w), say, reads e_i (e_l w) = e_l (e_i w).  A
    defect Matrix is formed only for a violation.  The sampled triples
    multiply the operators of the sample vectors.
    """
    c = _Contraction(p)
    left, right = _lr_violations(c)
    if left or right:
        return left + right
    violations = _lemma_violations(c)
    for s, (x, y, z) in enumerate(samples):
        for name, d in _lemma_defects(p, vector(x), vector(y), vector(z)):
            violations.append(Violation(name + " (sampled)", (s,), d))
    return violations


def _random_triples(dim: int, count: int, seed: int) -> Iterator[tuple[Vector, Vector, Vector]]:
    """sample_triples one at a time, so a consumer holds one triple."""
    rng = random.Random(seed)

    def rand_vec() -> Vector:
        return tuple(
            Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(dim)
        )

    for _ in range(count):
        yield rand_vec(), rand_vec(), rand_vec()


def sample_triples(dim: int, count: int, seed: int) -> list[tuple[Vector, Vector, Vector]]:
    """Deterministic pseudorandom triples of rational vectors."""
    return list(_random_triples(dim, count, seed))


@dataclass(frozen=True)
class TwoOfThree:
    """The three nilpotency statements and their mutual consistency.

    Any two of {all left multiplications nilpotent, all right
    multiplications nilpotent, the algebra nilpotent} force the third,
    so observing exactly one failure among the three is inconsistent.
    """

    left_nilpotent: bool
    right_nilpotent: bool
    algebra_nilpotent: bool
    consistent: bool


def two_of_three(g: LieAlgebra, p: Product) -> TwoOfThree:
    """The three nilpotency flags of an LR product compatible with g.

    With both identities certified, the left multiplications commute as
    well, so they are all nilpotent iff the chain A, A*A, A*(A*A), ...
    reaches 0; the right flag is check_lr's completeness.
    """
    report = check_lr(g, p)
    if not (report.is_lr and report.is_compatible):
        raise NotLrProductError("two-of-three requires an LR product compatible with g")
    a = _chain_reaches_zero(p.dim, _Contraction(p).lefts)
    b = report.is_complete
    c = series(g).nilpotent
    consistent = (a, b, c).count(False) != 1
    return TwoOfThree(a, b, c, consistent)


def product_span(p: Product) -> Subspace:
    """Span of all products of basis vectors: one integer row per
    nonzero product, read from _inz."""
    return Subspace._from_int_rows(p.dim, [_int_row(w, p.dim) for w in p._inz if w])


def quotient_product(g: LieAlgebra, p: Product, ideal: Subspace) -> Product:
    """Product induced on the canonical quotient basis.

    The ideal must absorb the product from both sides; that is checked
    directly, entry by entry.
    """
    if g.dim != p.dim or ideal.ambient_dim != p.dim:
        raise DimensionMismatchError("algebra, product and ideal dimensions differ")
    bad = p.escape(ideal, both_sides=True)
    if bad is not None:
        raise NotTwoSidedIdealError(f"subspace is not stable under {bad[0]} products")
    return Product._from_int(*p._quotient(ideal))
