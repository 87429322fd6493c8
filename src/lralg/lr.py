"""Products on a vector space and the LR identities.

A Product is a linalg.Bilinear whose tensor, exposed as table, means
e_i * e_j = sum_k p[i][j][k] e_k.  The two LR identities are

    x * (y * z) = y * (x * z)        (left multiplications commute)
    (x * y) * z = (x * z) * y        (right multiplications commute)

and a product is compatible with a bracket when x*y - y*x = [x, y].
Complete means every right multiplication is nilpotent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

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
    is_nilpotent_operator,
    standard_basis,
    vector,
)

LR_LEFT = "x(yz) = y(xz)"
LR_RIGHT = "(xy)z = (xz)y"
COMPATIBILITY = "xy - yx = [x,y]"


class Product(Bilinear):
    __slots__ = ()
    _kind = "product"
    table = Bilinear.tensor  # the structure tensor under its product name

    def __init__(self, table):
        super().__init__(table)

    @classmethod
    def from_entries(cls, dim: int, pairs) -> "Product":
        """Build from a sparse {(i, j): {k: value}} map, 0-based, no
        symmetry assumed."""
        return cls(cls._dense(dim, pairs))

    @classmethod
    def zero(cls, dim: int) -> "Product":
        return cls.from_entries(dim, {})

    def evaluate(self, x, y) -> Vector:
        return self.apply(x, y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Product):
            return NotImplemented
        return self.dim == other.dim and self.table == other.table

    __hash__ = None  # type: ignore[assignment]


def left_op(p: Product, x) -> Matrix:
    """Matrix of y -> x * y."""
    return p.operator(x)


def right_op(p: Product, x) -> Matrix:
    """Matrix of y -> y * x."""
    return p.operator(x, right=True)


def _basis_ops(p: Product) -> tuple[list[Matrix], list[Matrix]]:
    std = standard_basis(p.dim)
    return [left_op(p, e) for e in std], [right_op(p, e) for e in std]


def _commutator_violations(mats: list[Matrix], identity: str) -> list[Violation]:
    out = []
    n = len(mats)
    for i in range(n):
        for j in range(i + 1, n):
            if not mats[i].commutes(mats[j]):
                d = mats[i] * mats[j] - mats[j] * mats[i]
                for k in range(d.cols):
                    col = d.column(k)
                    if any(col):
                        out.append(Violation(identity, (i, j, k), col))
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

    Completeness is reported as False whenever the right
    multiplications fail to commute, since the notion only makes sense
    past that point.
    """
    g.ensure_valid()
    if g.dim != p.dim:
        raise DimensionMismatchError("algebra and product dimensions differ")
    n = g.dim
    lmats, rmats = _basis_ops(p)
    left_violations = _commutator_violations(lmats, LR_LEFT)
    right_violations = _commutator_violations(rmats, LR_RIGHT)
    violations = left_violations + right_violations
    is_lr = not violations
    compatible = True
    for i in range(n):
        for j in range(i + 1, n):
            if not (p._inz[i * n + j] or p._inz[j * n + i] or g._inz[i * n + j]):
                continue
            defect = tuple(
                p.table[i][j][k] - p.table[j][i][k] - g.brackets[i][j][k] for k in range(n)
            )
            if any(defect):
                compatible = False
                violations.append(Violation(COMPATIBILITY, (i, j), defect))
    complete = False
    if not right_violations:
        complete = all(is_nilpotent_operator(r) for r in rmats)
    return LrReport(
        is_lr=is_lr,
        is_compatible=compatible,
        is_complete=complete,
        violations=tuple(violations),
    )


def check_complete(p: Product) -> bool:
    """True iff every right multiplication is nilpotent.

    Requires the right multiplications to commute; then nilpotency of
    the basis operators already covers all linear combinations.
    """
    rmats = [right_op(p, e) for e in standard_basis(p.dim)]
    n = p.dim
    for i in range(n):
        for j in range(i + 1, n):
            if not rmats[i].commutes(rmats[j]):
                raise PreconditionError("right multiplications do not commute")
    return all(is_nilpotent_operator(r) for r in rmats)


def opposite(p: Product) -> Product:
    """The product x . y = -(y * x); swaps the roles of left and right."""
    n = p.dim
    return Product(
        tuple(
            tuple(tuple(-x for x in p.table[j][i]) for j in range(n))
            for i in range(n)
        )
    )


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


def check_lemma14(p: Product, samples=()) -> list[Violation]:
    """Verify the six derived operator identities of LR products.

    Checked on all basis triples and on every supplied sample triple
    (x, y, z).  If the product fails the LR axioms themselves, those
    violations are returned and nothing else is attempted.

    Matrices are canonical, so each identity is tested with != and the
    defect a - b is formed only for a violation.  The operator of a
    vector is built from the tensor in one pass rather than summed
    from the basis operators; the two agree by linearity.
    """
    n = p.dim
    lmats, rmats = _basis_ops(p)
    gate = _commutator_violations(lmats, LR_LEFT) + _commutator_violations(rmats, LR_RIGHT)
    if gate:
        return gate
    std = standard_basis(n)
    violations: list[Violation] = []

    def check(which: int, where: tuple[int, ...], a: Matrix, b: Matrix) -> None:
        if a != b:
            violations.append(Violation(LEMMA_IDENTITIES[which], where, a - b))

    # Pair identities once per (i, j).
    for i in range(n):
        for j in range(n):
            check(0, (i, j), lmats[i] * rmats[j], p.operator(p.table[i][j], right=True))
            check(1, (i, j), rmats[i] * lmats[j], p.operator(p.table[j][i]))

    # Triple identities; the inner product e_j * e_k is usually zero,
    # in which case every remaining check is trivially 0 = 0.
    for j in range(n):
        for k in range(n):
            yz = p.table[j][k]
            if not any(yz):
                continue
            l_yz = p.operator(yz)
            r_yz = p.operator(yz, right=True)
            for i in range(n):
                where = (i, j, k)
                x_yz = p.evaluate(std[i], yz)
                yz_x = p.evaluate(yz, std[i])
                y_xz = p.evaluate(std[j], p.table[i][k])
                yx_z = p.evaluate(p.table[j][i], std[k])
                check(2, where, lmats[i] * r_yz, p.operator(x_yz, right=True))
                check(3, where, rmats[i] * l_yz, p.operator(yz_x))
                check(4, where, lmats[i] * l_yz, p.operator(y_xz))
                check(5, where, rmats[i] * r_yz, p.operator(yx_z, right=True))

    for s, (x, y, z) in enumerate(samples):
        for name, d in _lemma_defects(p, vector(x), vector(y), vector(z)):
            violations.append(Violation(name + " (sampled)", (s,), d))
    return violations


def sample_triples(dim: int, count: int, seed: int) -> list[tuple[Vector, Vector, Vector]]:
    """Deterministic pseudorandom triples of rational vectors."""
    rng = random.Random(seed)

    def rand_vec() -> Vector:
        return tuple(
            Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(dim)
        )

    return [(rand_vec(), rand_vec(), rand_vec()) for _ in range(count)]


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
    report = check_lr(g, p)
    if not (report.is_lr and report.is_compatible):
        raise NotLrProductError("two-of-three requires an LR product compatible with g")
    lmats, rmats = _basis_ops(p)
    a = all(is_nilpotent_operator(m) for m in lmats)
    b = all(is_nilpotent_operator(m) for m in rmats)
    c = series(g).nilpotent
    consistent = (a, b, c).count(False) != 1
    return TwoOfThree(a, b, c, consistent)


def product_span(p: Product) -> Subspace:
    """Span of all products of basis vectors."""
    vecs = [p.table[i][j] for i in range(p.dim) for j in range(p.dim)]
    return Subspace.from_vectors(p.dim, vecs)


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
    return Product(p.quotient_tensor(ideal))
