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
with themselves, read through the product's own index of them by row
and by column (Bilinear._by), gives the products of products

    T[i, j, k] = e_i (e_j e_k),        S[i, j, k] = (e_i e_j) e_k.

T[i, j, k] is column k of L(e_i)L(e_j) and S[k, j, i] column k of
R(e_i)R(e_j).  The left identity at (i, j, k) reads T[i, j, k] =
T[j, i, k] and the right one S[k, j, i] = S[k, i, j], so each
difference is column k of the commutator of two basis operators.  The
identity check adds each term of T[i, j, k] and subtracts each term of
T[j, i, k] into one integer accumulator per pair i < j, and the same
for S, so a pair fails exactly when its accumulator is nonzero.  The
Lemma 14 identities on basis vectors are read from tables of the same
columns, built per nonzero slot of the index: {i: T[i, j, k]} for
each slot e_j e_k and {i: S[k, j, i]} for each slot e_k e_j, and
their transposes by the other index.  Each identity is then a
comparison of maps {l: column l} that hold only the nonzero columns;
the tables are built only for a product that passes the identity
check.
The sampled identities run on the integer numerators of the sample
vectors and compare the same kind of maps: each operator is held by
its nonzero columns, and an operator product pushes the columns of
one factor through those of the other.  A defect becomes a Matrix
only when an identity fails.

Completeness is read off the chain A, A*A, (A*A)*A, ..., whose t-th
term is spanned by the words R(e_i1)...R(e_it) applied to A.  If the
chain reaches 0, every R(e_i) is nilpotent.  Conversely, commuting
nilpotent operators generate a nilpotent associative algebra, so once
the right identity holds, the chain reaches 0 iff every right
multiplication is nilpotent.  Each step feeds the images of the kept
rows of the term before to one Gauss-Jordan insertion step
(linalg._chain_end), instead of a matrix power per basis operator.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterator
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
    _chain_end,
    _columns_matrix,
    _compose,
    _memoized,
    _nonzero,
    _push,
    _ratios,
    _scaled,
    _to_vector,
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
        return cls._from_sparse(dim, {ij: _ratios(comps) for ij, comps in pairs.items()})

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


def _lr_violations(p: Product) -> tuple[list[Violation], list[Violation]]:
    """Violations of the left and of the right identity, each ordered by
    (i, j, k) with i < j: the nonzero columns k of the commutators of
    the basis operators i and j.  Column k of [L(e_i), L(e_j)] is
    e_i (e_j e_k) - e_j (e_i e_k).  For each k, each nonzero
    w = e_j e_k and each term x e_m of w, column m of the constants
    (Bilinear._by) gives the terms x (e_i e_m) of e_i (e_j e_k); each
    is added into the integer accumulator of the pair (i, j), or
    subtracted from that of (j, i) when i > j, and a pair whose
    accumulator is nonzero is a violation.  Column k of
    [R(e_i), R(e_j)], (e_k e_j) e_i - (e_k e_i) e_j, is read the same
    way from the constants by row."""
    n, den = p.dim, p._den ** 2
    out: tuple[list[Violation], list[Violation]] = ([], [])
    for right, identity, found in zip((True, False), (LR_LEFT, LR_RIGHT), out):
        by = p._by(right)
        for k in range(n):
            acc: dict[int, list[int]] = {}
            for j, w in by[k]:
                for m, x in w:
                    for i, c in by[m]:
                        if i == j:
                            continue
                        if i < j:
                            pair, s = i * n + j, x
                        else:
                            pair, s = j * n + i, -x
                        a = acc.get(pair)
                        if a is None:
                            a = acc[pair] = [0] * n
                        for l, y in c:
                            a[l] += s * y
            for pair, a in acc.items():
                if any(a):
                    found.append(Violation(identity, (*divmod(pair, n), k), _to_vector(a, den)))
        found.sort(key=lambda v: v.indices)
    return out


def _chain_reaches_zero(p: Product, right: bool) -> bool:
    """True iff the chain V_0 = Q^n, V_t+1 = span of the products b e_i,
    or of e_i b when right is set, over the rows b of V_t reaches 0:
    A, A*A, (A*A)*A, ... or A, A*A, A*(A*A), ...  Both chains have
    V_1 = A, the span of all products, which p keeps once computed;
    linalg._chain_end runs them."""
    return not _chain_end(p._product_span(), lambda b: p._times_basis(b, right).values()).dim


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


class LrReport(namedtuple("LrReport", "is_lr is_compatible is_complete violations")):
    """The verdict of check_lr: three bools, whether the product is LR,
    compatible with the bracket and complete, and the tuple of the
    Violations found."""

    __slots__ = ()


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
    left_violations, right_violations = _lr_violations(p)
    compatibility = _compatibility_violations(g, p)
    return LrReport(
        is_lr=not (left_violations or right_violations),
        is_compatible=not compatibility,
        is_complete=not right_violations and _chain_reaches_zero(p, False),
        violations=tuple(left_violations + right_violations + compatibility),
    )


def check_complete(p: Product) -> bool:
    """True iff every right multiplication is nilpotent.

    Requires the right identity, tested on S as in check_lr; then the
    right multiplications commute and the chain A, A*A, (A*A)*A, ...
    reaches 0 exactly when they are all nilpotent.
    """
    if _lr_violations(p)[1]:
        raise PreconditionError("right multiplications do not commute")
    return _chain_reaches_zero(p, False)


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
    """The sampled identities that fail at (x, y, z), with their defects.

    x, y and z are scaled to integers once.  Every operator is held by
    its nonzero columns, read from the product's index of the constants
    (Bilinear._times_basis): {l: v e_l} for L(v) and {l: e_l v} for
    R(v).  Every product of vectors is L(x), R(x), L(y) or the L(yx)
    that identity 1 forms applied to a vector, and an operator product
    pushes each column of its right factor through the columns of its
    left one (_compose).  Each identity is homogeneous, so both of its
    sides share one denominator, dx dy D^2 for identities 0-1 and
    dx dy dz D^3 for 2-5 (D = p._den), and they are compared as maps
    {l: column}; a defect Matrix is formed only for an identity that
    fails.  A vector drawn by _random_triples comes scaled already."""
    n, d = p.dim, p._den
    (xn, dx), (yn, dy), (zn, dz) = (
        v if type(v) is _Scaled else _scaled(v, n, p._kind) for v in (x, y, z)
    )
    xs, ys, zs = _nonzero(xn), _nonzero(yn), _nonzero(zn)

    def left(v):
        return p._times_basis(v, False)

    def right(v):
        return p._times_basis(v, True)

    lx, rx, ly = left(xs), right(xs), left(ys)
    xy, yx, yz, xz = _push(lx, ys, n), _push(rx, ys, n), _push(ly, zs, n), _push(lx, zs, n)
    lyx, lyz, ryz = left(yx), left(yz), right(yz)
    checks = [
        (_compose(lx, right(ys), n), right(xy)),
        (_compose(rx, ly, n), lyx),
        (_compose(lx, ryz, n), right(_push(lx, yz, n))),
        (_compose(rx, lyz, n), left(_push(rx, yz, n))),
        (_compose(lx, lyz, n), left(_push(ly, xz, n))),
        (_compose(rx, ryz, n), right(_push(lyx, zs, n))),
    ]
    dens = (dx * dy * d ** 2,) * 2 + (dx * dy * dz * d ** 3,) * 4
    return [
        (name, _columns_matrix(a, n, den) - _columns_matrix(b, n, den))
        for name, (a, b), den in zip(LEMMA_IDENTITIES, checks, dens)
        if a != b
    ]


def _transpose(cols: dict) -> dict:
    """{l: {i: v}} as {i: {l: v}}."""
    out: dict = {}
    for l, col in cols.items():
        for i, v in col.items():
            out.setdefault(i, {})[l] = v
    return out


def _lemma_violations(p: Product) -> list[Violation]:
    """The six identities on all basis pairs and triples, as identities
    among products of products.  Column l of each side, with
    w = e_j e_k:

        0  L(e_i)R(e_j) = R(e_i e_j)      e_i (e_l e_j) = e_l (e_i e_j)
        1  R(e_i)L(e_j) = L(e_j e_i)      (e_j e_l) e_i = (e_j e_i) e_l
        2  L(e_i)R(w) = R(e_i w)          e_i (e_l w) = e_l (e_i w)
        3  R(e_i)L(w) = L(w e_i)          (w e_l) e_i = (w e_i) e_l
        4  L(e_i)L(w) = L(e_j(e_i e_k))   e_i (w e_l) = (e_j (e_i e_k)) e_l
        5  R(e_i)R(w) = R((e_j e_i) e_k)  (e_l w) e_i = e_l ((e_j e_i) e_k)

    Only nonzero columns are held, as {l: vector} maps, so an identity
    holds iff its two sides are equal maps.  The products of products
    are read off each nonzero slot w = e_j e_k of the product's index
    (Bilinear._by), as {i: e_i w} and {i: w e_i}, and transposed once
    for the tables by their other index; per nonzero w, the products
    with e_l w and w e_l are taken once and transposed.  Identities 0-1
    are compared at the pairs (i, j) where one of l1[j], l2[j], r1[j]
    and r2[j] holds i, and 2-5 at the triples (i, j, k) with w != 0
    where one of the eight maps of (j, k) holds i: everywhere else both
    sides are empty.  The pairs and triples are visited in sorted
    order, and the defect Matrix is built only for a failing one.
    """
    n = p.dim
    # l1[k][i][j] = l2[k][j][i] = e_i (e_j e_k), r1[k][i][j] = r2[k][j][i] = (e_k e_j) e_i
    l2 = [{j: p._times_basis(w, True) for j, w in by_k} for by_k in p._by(True)]
    r2 = [{j: p._times_basis(w, False) for j, w in by_k} for by_k in p._by(False)]
    l1, r1 = [list(map(_transpose, t)) for t in (l2, r2)]
    violations: list[Violation] = []
    none: dict = {}

    def check(which: int, where: tuple[int, ...], a: dict, b: dict, den: int) -> None:
        if a != b:
            defect = _columns_matrix(a, n, den) - _columns_matrix(b, n, den)
            violations.append(Violation(LEMMA_IDENTITIES[which], where, defect))

    den2, den3 = p._den ** 2, p._den ** 3
    held = ((i, j) for j in range(n)
            for i in l1[j].keys() | l2[j].keys() | r1[j].keys() | r2[j].keys())
    for i, j in sorted(held):
        check(0, (i, j), l1[j].get(i, none), l2[j].get(i, none), den2)
        check(1, (i, j), r1[j].get(i, none), r2[j].get(i, none), den2)

    def times_basis(cols: dict, right: bool) -> dict:
        return {l: p._times_basis(v, right) for l, v in cols.items()}

    for j in range(n):
        for k in range(n):
            if not p._inz[j * n + k]:
                continue
            u = l2[k].get(j, none)  # {l: e_l w}
            r = r2[j].get(k, none)  # {l: w e_l}
            e_u, u_e = times_basis(u, True), times_basis(u, False)  # e_u[l][i] = e_i (e_l w)
            e_r, r_e = times_basis(r, True), times_basis(r, False)
            e_u_t, r_e_t, e_r_t, u_e_t = map(_transpose, (e_u, r_e, e_r, u_e))
            t = l1[k].get(j, none)  # {i: e_j (e_i e_k)}
            s = r1[j].get(k, none)  # {i: (e_j e_i) e_k}
            for i in sorted(e_u_t.keys() | e_u.keys() | r_e_t.keys() | r_e.keys()
                            | e_r_t.keys() | t.keys() | u_e_t.keys() | s.keys()):
                where = (i, j, k)
                t_e = p._times_basis(t[i], False) if i in t else none  # (e_j (e_i e_k)) e_l
                e_s = p._times_basis(s[i], True) if i in s else none  # e_l ((e_j e_i) e_k)
                check(2, where, e_u_t.get(i, none), e_u.get(i, none), den3)
                check(3, where, r_e_t.get(i, none), r_e.get(i, none), den3)
                check(4, where, e_r_t.get(i, none), t_e, den3)
                check(5, where, u_e_t.get(i, none), e_s, den3)
    return violations


def check_lemma14(p: Product, samples=()) -> list[Violation]:
    """Verify the six derived operator identities of LR products.

    Checked on all basis triples and on every supplied sample triple
    (x, y, z).  If the product fails the LR axioms themselves, those
    violations are returned and nothing else is attempted.

    The gate and the basis identities are identities among products of
    products of basis vectors, read from the contraction of the
    constants with themselves (module docstring); column l of
    L(e_i)R(w) = R(e_i w), say, reads e_i (e_l w) = e_l (e_i w).  Only
    nonzero columns are compared, and the triple identities only where
    w = e_j e_k is nonzero.  The gate sums the products of products
    into one accumulator per commutator; the tables of their columns
    that the basis identities compare, read off each nonzero slot of
    the product's index, are built only once it passes.
    The sampled triples push the nonzero columns of the operators of
    the sample vectors through each other, each identity over one
    denominator.  A defect Matrix is formed only for a violation.
    """
    left, right = _lr_violations(p)
    if left or right:
        return left + right
    violations = _lemma_violations(p)
    for s, (x, y, z) in enumerate(samples):
        for name, d in _lemma_defects(p, x, y, z):
            violations.append(Violation(name + " (sampled)", (s,), d))
    return violations


class _Scaled(tuple):
    """A sample vector in common-denominator form, (numerators, den), as
    _random_triples draws it; _lemma_defects takes it without scaling."""

    __slots__ = ()


def _random_triples(dim: int, count: int, seed: int) -> Iterator[tuple[_Scaled, ...]]:
    """sample_triples one at a time, so a consumer holds one triple, each
    vector drawn as integer (numerator, denominator) pairs and given in
    the common-denominator form _Scaled, without a Fraction."""
    rng = random.Random(seed)

    def rand_vec() -> _Scaled:
        pairs = [(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(dim)]
        den = lcm(*{d for _, d in pairs})
        return _Scaled(([a * (den // d) for a, d in pairs], den))

    for _ in range(count):
        yield rand_vec(), rand_vec(), rand_vec()


def sample_triples(dim: int, count: int, seed: int) -> list[tuple[Vector, Vector, Vector]]:
    """Deterministic pseudorandom triples of rational vectors."""
    return [
        tuple(_to_vector(num, den) for num, den in t) for t in _random_triples(dim, count, seed)
    ]


class TwoOfThree(
    namedtuple("TwoOfThree", "left_nilpotent right_nilpotent algebra_nilpotent consistent")
):
    """The three nilpotency statements and their mutual consistency, as
    four bools.

    Any two of {all left multiplications nilpotent, all right
    multiplications nilpotent, the algebra nilpotent} force the third,
    so observing exactly one failure among the three is inconsistent.
    """

    __slots__ = ()


def two_of_three(g: LieAlgebra, p: Product) -> TwoOfThree:
    """The three nilpotency flags of an LR product compatible with g.

    With both identities certified, the left multiplications commute as
    well, so they are all nilpotent iff the chain A, A*A, A*(A*A), ...
    reaches 0; the right flag is check_lr's completeness.
    """
    report = check_lr(g, p)
    if not (report.is_lr and report.is_compatible):
        raise NotLrProductError("two-of-three requires an LR product compatible with g")
    a = _chain_reaches_zero(p, True)
    b = report.is_complete
    c = series(g).nilpotent
    consistent = (a, b, c).count(False) != 1
    return TwoOfThree(a, b, c, consistent)


def product_span(p: Product) -> Subspace:
    """Span of all products of basis vectors: one integer row per
    nonzero product, read from _inz, computed once per product."""
    return p._product_span()


def quotient_product(g: LieAlgebra, p: Product, ideal: Subspace) -> Product:
    """Product induced on the canonical quotient basis.

    The ideal must absorb the product from both sides; that is checked
    directly, entry by entry.  The quotient by the zero ideal is p
    itself.
    """
    if g.dim != p.dim or ideal.ambient_dim != p.dim:
        raise DimensionMismatchError("algebra, product and ideal dimensions differ")
    if not ideal.dim:
        return p
    bad = p.escape(ideal, both_sides=True)
    if bad is not None:
        raise NotTwoSidedIdealError(f"subspace is not stable under {bad[0]} products")
    return Product._from_int(*p._quotient(ideal))
