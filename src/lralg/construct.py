"""Constructions of complete LR-structures.

The pipeline for a two-step solvable algebra g runs: split g over its
stabilized lower central term, push the product to the nilpotent
quotient, make it complete there by projecting onto the joint Fitting
component of the left multiplications, then lift back along the
splitting.  Every fact the construction relies on is re-checked on the
way; a failure of a step that the theory guarantees raises
InternalConsistencyError rather than producing an unverified product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    NotGeneratedError,
    NotLrProductError,
    NotNilpotentError,
    NotTwoStepNilpotentError,
    NotTwoStepSolvableError,
    PhiNotZeroError,
    PreconditionError,
)
from .lie import (
    LieAlgebra,
    SplitDecomposition,
    ad,
    bracket_of_subspaces,
    quotient,
    series,
    split_metabelian,
    subalgebra_generated,
    is_two_step_solvable,
)
from .linalg import (
    FittingSplit,
    Matrix,
    Subspace,
    Vector,
    _fitting_split_commuting,
    standard_basis,
    vector,
    zero_vector,
)
from .lr import (
    Product,
    check_complete,
    check_lr,
    left_op,
    product_span,
    quotient_product,
)


@dataclass(frozen=True)
class ContainmentWitness:
    """Spans of the new and old products; holds means new inside old."""

    new_products_span: Subspace
    old_products_span: Subspace
    holds: bool


@dataclass(frozen=True)
class CompletionCertificate:
    """Outcome of a completion, with the data needed to re-verify it."""

    original: Product
    completed: Product
    fitting: FittingSplit
    containment_witness: ContainmentWitness


def _witness(new: Product, old: Product) -> ContainmentWitness:
    new_span = product_span(new)
    old_span = product_span(old)
    return ContainmentWitness(new_span, old_span, old_span.contains_subspace(new_span))


def complete_nilpotent(g: LieAlgebra, p: Product) -> CompletionCertificate:
    """Turn an LR-structure on a nilpotent algebra into a complete one.

    The left multiplications commute; project onto the component where
    they all act nilpotently and premultiply: the completed product is
    (proj x) * y.  If p was already complete the projection is the
    identity and the product is returned unchanged.  check_lr has just
    certified the left identity, so the Fitting step takes the left
    multiplications as commuting without testing them again.
    """
    g.ensure_valid()
    if not series(g).nilpotent:
        raise NotNilpotentError("completion on the nilpotent part requires a nilpotent algebra")
    report = check_lr(g, p)
    if not (report.is_lr and report.is_compatible):
        raise NotLrProductError(
            f"input is not an LR-structure, first violation: {report.violations[0]}"
        )
    n = g.dim
    std = standard_basis(n)
    fit = _fitting_split_commuting([left_op(p, e) for e in std])
    table = []
    for i in range(n):
        x = fit.proj_n.column(i)
        table.append(tuple(p.evaluate(x, std[j]) for j in range(n)))
    completed = Product(tuple(table))

    witness = _witness(completed, p)
    if not witness.holds:
        raise InternalConsistencyError("completed products left the span of the old ones")
    post = check_lr(g, completed)
    if not (post.is_lr and post.is_compatible and post.is_complete):
        raise InternalConsistencyError("completed product fails its own certificate")
    return CompletionCertificate(p, completed, fit, witness)


def _complement_algebra(split: SplitDecomposition) -> LieAlgebra:
    """Bracket of the complement subalgebra in its own coordinates.

    Each complement vector is a standard basis vector at a free
    coordinate of g_infinity plus a correction inside it, so the
    bracket is the one induced on the quotient by g_infinity; the
    residual of each bracket against those coefficients must vanish
    exactly or the complement was not closed.
    """
    g = split.algebra
    ginf = Subspace.from_vectors(g.dim, split.g_infinity_basis)
    n_alg = LieAlgebra(g.quotient_tensor(ginf))
    comp = split.complement_basis
    for a in range(len(comp)):
        for b in range(len(comp)):
            residual = list(g.bracket(comp[a], comp[b]))
            for c, v in zip(n_alg.brackets[a][b], comp):
                if c:
                    for t in range(g.dim):
                        residual[t] -= c * v[t]
            if any(residual):
                raise InternalConsistencyError("complement is not closed under the bracket")
    return n_alg


def lift_product(split: SplitDecomposition, q: Product) -> Product:
    """Extend a product on the complement to the whole algebra.

    In the adapted basis (g_infinity first) the product is
    (a, x) . (b, y) = (phi(x) b, x . y); the result is transported back
    to the original coordinates.  Requires phi to vanish on all
    products of q; when q is complete the lift is checked to be
    complete as well.
    """
    g = split.algebra
    k = len(split.g_infinity_basis)
    m = len(split.complement_basis)
    n = k + m
    if q.dim != m:
        raise DimensionMismatchError("product dimension differs from the complement")
    if g.dim != n:
        raise InternalConsistencyError("split dimensions do not add up")

    n_alg = _complement_algebra(split)
    rep = check_lr(n_alg, q)
    if not (rep.is_lr and rep.is_compatible):
        raise NotLrProductError(
            f"product on the complement is not an LR-structure: {rep.violations[0]}"
        )
    for a in range(m):
        for b in range(m):
            prod = q.table[a][b]
            if any(prod) and not split.phi_of(prod).is_zero:
                raise PhiNotZeroError(
                    "the action does not vanish on a product of complement elements"
                )

    zero = zero_vector(n)
    adapted = [[zero for _ in range(n)] for _ in range(n)]
    for a in range(m):
        pa = split.phi[a]
        for t in range(k):
            col = pa.column(t)
            adapted[k + a][t] = tuple(col) + zero_vector(m)
        for b in range(m):
            adapted[k + a][k + b] = zero_vector(k) + tuple(q.table[a][b])
    p_ad = Product(tuple(tuple(row) for row in adapted))

    change = split.change_of_basis
    inv = change.inverse()
    std = standard_basis(n)
    cols = [inv.column(i) for i in range(n)]
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(change.apply(p_ad.evaluate(cols[i], cols[j])))
        table.append(tuple(row))
    lifted = Product(tuple(table))

    post = check_lr(g, lifted)
    if not (post.is_lr and post.is_compatible):
        raise InternalConsistencyError("lifted product fails the LR identities")
    if check_complete(q) and not post.is_complete:
        raise InternalConsistencyError("lift of a complete product is not complete")
    return lifted


def complete_any(g: LieAlgebra, p: Product) -> CompletionCertificate:
    """Completion pipeline for any LR-structure on a two-step solvable
    algebra.

    Stages: verify the input, split over the stabilized lower central
    term, push to the nilpotent quotient, complete there, lift back.
    Each stage failure carries its own exception type.
    """
    g.ensure_valid()
    report = check_lr(g, p)
    if not (report.is_lr and report.is_compatible):
        raise NotLrProductError(
            f"input is not an LR-structure, first violation: {report.violations[0]}"
        )
    if not is_two_step_solvable(g):
        raise NotTwoStepSolvableError("second derived algebra does not vanish")

    # Products of products commute with each other (their pairwise
    # brackets vanish); implied by the identities, so a failure here is
    # a bug, not bad input.
    span = product_span(p)
    if bracket_of_subspaces(g, span, span).dim != 0:
        raise InternalConsistencyError("the span of products is not abelian")

    split = split_metabelian(g)
    ginf = Subspace.from_vectors(g.dim, split.g_infinity_basis)
    q0 = quotient_product(g, p, ginf)
    n_alg, _, _ = quotient(g, ginf)
    inner = complete_nilpotent(n_alg, q0)
    lifted = lift_product(split, inner.completed)

    witness = _witness(lifted, p)
    if not witness.holds:
        raise InternalConsistencyError("completed products left the span of the old ones")
    post = check_lr(g, lifted)
    if not (post.is_lr and post.is_compatible and post.is_complete):
        raise InternalConsistencyError("completed product fails its own certificate")
    return CompletionCertificate(p, lifted, inner.fitting, witness)


def half_bracket(g: LieAlgebra) -> Product:
    """The product x * y = [x, y] / 2 on a two-step nilpotent algebra."""
    g.ensure_valid()
    full = Subspace.full(g.dim)
    g2 = bracket_of_subspaces(g, full, full)
    if bracket_of_subspaces(g, full, g2).dim != 0:
        raise NotTwoStepNilpotentError("the third lower central term does not vanish")
    half = Fraction(1, 2)
    table = tuple(
        tuple(tuple(half * x for x in v) for v in row) for row in g.brackets
    )
    p = Product(table)
    rep = check_lr(g, p)
    if not (rep.is_lr and rep.is_compatible and rep.is_complete):
        raise InternalConsistencyError("half bracket fails its certificate")
    return p


def lr_for_g3(g: LieAlgebra) -> Product:
    """Complete LR-structure when the stabilized lower central term is
    the third one.

    Splits off g_infinity, takes the half bracket on the two-step
    nilpotent quotient and lifts it back; completeness of the result is
    asserted, not assumed.
    """
    g.ensure_valid()
    if not is_two_step_solvable(g):
        raise NotTwoStepSolvableError("second derived algebra does not vanish")
    rep = series(g)
    full = Subspace.full(g.dim)
    g2 = bracket_of_subspaces(g, full, full)
    g3 = bracket_of_subspaces(g, full, g2)
    if rep.g_infinity != g3:
        raise PreconditionError(
            "the stabilized lower central term differs from the third one"
        )
    split = split_metabelian(g)
    n_alg = _complement_algebra(split)
    hb = half_bracket(n_alg)
    lifted = lift_product(split, hb)
    if not check_complete(lifted):
        raise InternalConsistencyError("lift of the half bracket is not complete")
    return lifted


def two_generator_lr(g: LieAlgebra, x, y) -> Product:
    """LR-structure on a two-step solvable algebra generated by x and y.

    Candidate basis vectors are the iterated brackets
    ad(y)^k ad(x)^l y with l >= 1, scanned in order of (k+l, l, k); a
    greedy pass keeps the ones independent of what came before, with x
    and y placed first.  Left multiplication is defined on that basis by

        L(x) = 0,    L(ad(y)^k ad(x)^l y) = ad(y)^k ad(x)^l ad(y)

    (so L(y) = ad(y)); the identities and compatibility are verified on
    the result.  Completeness is NOT asserted; chain with complete_any
    when a complete structure is required.
    """
    g.ensure_valid()
    if not is_two_step_solvable(g):
        raise NotTwoStepSolvableError("second derived algebra does not vanish")
    xv, yv = vector(x), vector(y)
    n = g.dim
    if len(xv) != n or len(yv) != n:
        raise DimensionMismatchError("generator length differs from algebra dimension")
    if subalgebra_generated(g, [xv, yv]).dim != n:
        raise NotGeneratedError("the two elements do not generate the algebra")

    ad_x = ad(g, xv)
    ad_y = ad(g, yv)

    # candidates[(k, l)] = (vector ad(y)^k ad(x)^l y, operator
    # ad(y)^k ad(x)^l ad(y)); (0, 0) is y itself.
    chain_vec = {0: yv}
    chain_op = {0: ad_y}
    for l in range(1, n + 1):
        chain_vec[l] = ad_x.apply(chain_vec[l - 1])
        chain_op[l] = ad_x * chain_op[l - 1]
    candidates: dict[tuple[int, int], tuple[Vector, Matrix]] = {}
    for l in range(0, n + 1):
        v, op = chain_vec[l], chain_op[l]
        for k in range(0, n + 1):
            candidates[(k, l)] = (v, op)
            v = ad_y.apply(v)
            op = ad_y * op

    order = [(0, 0)] + sorted(
        ((k, l) for k in range(n + 1) for l in range(1, n + 1)),
        key=lambda kl: (kl[0] + kl[1], kl[1], kl[0]),
    )

    selected: list[tuple[Vector, Matrix]] = []
    span = Subspace.zero(n)
    def try_add(vec: Vector, op: Matrix) -> None:
        nonlocal span
        if span.dim < n and not span.contains(vec):
            selected.append((vec, op))
            span = Subspace.from_vectors(n, [s[0] for s in selected])

    try_add(xv, Matrix.zeros(n, n))
    for kl in order:
        if span.dim == n:
            break
        try_add(*candidates[kl])
    if span.dim != n:
        raise InternalConsistencyError("candidate vectors do not span the algebra")

    basis_mat = Matrix.from_columns([list(v) for v, _ in selected])
    inv = basis_mat.inverse()
    std = standard_basis(n)
    table = []
    for i in range(n):
        coeffs = inv.apply(std[i])
        acc = None
        for c, (_, op) in zip(coeffs, selected):
            if c:
                term = op * c
                acc = term if acc is None else acc + term
        l_i = acc if acc is not None else Matrix.zeros(n, n)
        table.append(tuple(l_i.column(j) for j in range(n)))
    p = Product(tuple(table))

    post = check_lr(g, p)
    if not (post.is_lr and post.is_compatible):
        raise InternalConsistencyError("two-generator product fails the LR identities")
    return p
