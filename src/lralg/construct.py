"""Constructions of complete LR-structures.

The pipeline for a two-step solvable algebra g runs: split g over its
stabilized lower central term, push the product to the nilpotent
quotient, make it complete there by projecting onto the joint Fitting
component of the left multiplications, then lift back along the
splitting, reading the lifted product from g's own bracket.  Every
fact the construction relies on is re-checked on the way; a failure of
a step that the theory guarantees raises InternalConsistencyError
rather than producing an unverified product.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from . import _kernels as K
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
    bracket_of_subspaces,
    series,
    split_metabelian,
    subalgebra_generated,
    is_two_step_solvable,
)
from .linalg import (
    FittingSplit,
    Matrix,
    Subspace,
    _column_map,
    _fitting_split_commuting,
    _nonzero,
    _push,
    _scale_fractions,
    _sparse_rows,
    vector,
)
from .lr import (
    LrReport,
    Product,
    _chain_reaches_zero,
    check_lr,
    product_span,
    quotient_product,
)


class ContainmentWitness(
    namedtuple("ContainmentWitness", "new_products_span old_products_span holds")
):
    """Spans of the new and old products, as Subspaces; the bool holds
    means new inside old."""

    __slots__ = ()


class CompletionCertificate(
    namedtuple("CompletionCertificate", "original completed fitting containment_witness")
):
    """Outcome of a completion, with the data needed to re-verify it:
    the original and completed Products, the FittingSplit the
    completion came from and its ContainmentWitness."""

    __slots__ = ()


def _lr_input(g: LieAlgebra, p: Product, prefix: str) -> LrReport:
    """The check_lr report on a construction's input p.

    Raises NotLrProductError, its message the first violation after
    prefix, unless p is a compatible LR-structure on g.
    """
    rep = check_lr(g, p)
    if not (rep.is_lr and rep.is_compatible):
        raise NotLrProductError(f"{prefix}{rep.violations[0]}")
    return rep


def _certified(g: LieAlgebra, p: Product, complete: bool, what: str) -> Product:
    """The product p that construction what built, once check_lr
    certifies it a compatible LR-structure on g, and a complete one when
    complete is true.

    The theory guarantees those properties, so a failure is a fault of
    the construction and raises InternalConsistencyError naming it.
    """
    rep = check_lr(g, p)
    if not (rep.is_lr and rep.is_compatible and (rep.is_complete or not complete)):
        raise InternalConsistencyError(f"{what} fails its certificate")
    return p


def _completion(
    g: LieAlgebra, p: Product, completed: Product, fit: FittingSplit, what: str
) -> CompletionCertificate:
    """The certificate of construction what, which completed p to
    completed through the Fitting split fit.

    Checks, in this order, that the products of completed lie in the
    span of those of p and that completed is certified complete
    (_certified); either failure raises InternalConsistencyError.
    """
    new_span, old_span = product_span(completed), product_span(p)
    witness = ContainmentWitness(new_span, old_span, old_span.contains_subspace(new_span))
    if not witness.holds:
        raise InternalConsistencyError("completed products left the span of the old ones")
    _certified(g, completed, True, what)
    return CompletionCertificate(p, completed, fit, witness)


def complete_nilpotent(g: LieAlgebra, p: Product) -> CompletionCertificate:
    """Turn an LR-structure on a nilpotent algebra into a complete one.

    The left multiplications commute; project onto the component where
    they all act nilpotently and premultiply: the completed product is
    (proj x) * y.  check_lr has just certified the left identity, so
    the left multiplications are taken as commuting without testing
    them again.  The left chain A, A*A, A*(A*A), ... is read first, as
    two_of_three reads it (its first step, then the images of a
    complement of A, which reach 0 and sum to A exactly when the chain
    reaches 0): when it reaches 0, v_n is the whole space and p is
    returned unchanged.  Otherwise the split is read from the nonzero
    columns of the left multiplications, and row i of the table is the
    sparse left operator of proj_n e_i.
    """
    if not series(g).nilpotent:
        raise NotNilpotentError("completion on the nilpotent part requires a nilpotent algebra")
    _lr_input(g, p, "input is not an LR-structure, first violation: ")
    n = g.dim
    if _chain_reaches_zero(p, True):
        fit = FittingSplit(Subspace.full(n), Subspace.zero(n), Matrix.identity(n))
        completed = p
    else:
        fit = _fitting_split_commuting(n, [dict(p._by(False)[u]) for u in range(n)])
        proj = fit.proj_n
        rows = [p._times_basis(x, False) for x in _column_map(proj).values()]
        inz = [r.get(j, ()) for r in rows for j in range(n)]
        completed = Product._from_int(n, inz, p._den * proj._den)
    return _completion(g, p, completed, fit, "complete_nilpotent")


def lift_product(split: SplitDecomposition, q: Product) -> Product:
    """Extend a product on the complement to the whole algebra.

    In the adapted basis (g_infinity first) the product is
    (a, x) . (b, y) = (phi(x) b, x . y), and phi(x) b = [iota(x), b]
    for iota(x) = sum_a x_a c_a, c_a the complement rows.  The lift is
    read in the original coordinates from g's own bracket: column j of
    C^-1, C the change of basis, holds the g_infinity part rest_j and
    the complement coordinates gamma_j of e_j, and g_infinity is
    abelian, so e_i . e_j = [e_i, rest_j] + iota(q(gamma_i, gamma_j)).
    That is column j of C^-1 pushed through the columns of M_i
    (linalg._push), on integers over one denominator, where column t of
    M_i is [e_i, b_t], b_t the t-th RREF row of g_infinity, and column
    k + a is iota(q(gamma_i, e_a)); row i is empty when gamma_i = 0.
    A column of C^-1 that reaches one column of M_i, such as a column
    with one nonzero entry, gives that column scaled, with no length-n
    accumulator (_push's one-term path).  C, written by its columns, is
    inverted by one dense Matrix.inverse, the pipeline's only dense step,
    and C^-1's columns are read by stride (_column_map), not transposed.
    When g_infinity = 0, C is the identity, so q itself, certified on
    the algebra, is the lift.

    Requires phi to vanish on all products of q; phi is linear, so that
    holds iff [iota(z), b_t] = 0 for every row z of the span of q's
    products and every t.  When q is complete the lift is checked to be
    complete as well.
    """
    g, ginf, comp = split.algebra, split.g_infinity, split.complement
    k, m = ginf.dim, comp.rows
    n = k + m
    if q.dim != m:
        raise DimensionMismatchError("product dimension differs from the complement")
    if g.dim != n:
        raise InternalConsistencyError("split dimensions do not add up")

    n_alg = split.complement_algebra
    rep = _lr_input(n_alg, q, "product on the complement is not an LR-structure: ")
    if not k:  # the adapted basis is the standard one, and q is the lift
        return _certified(g, q, rep.is_complete, "lift_product")
    # right[t] = {i: [e_i, b_t]} over g._den * ginf._den; iota's columns
    # are the complement rows over comp._den.
    right = [g._times_basis(b, True) for b in ginf._rows]
    iota = dict(enumerate(_sparse_rows(comp)))
    for z in q._product_span()._rows:
        iz = _push(iota, z, n)
        if any(_push(r, iz, n) for r in right):
            raise PhiNotZeroError("the action does not vanish on a product of complement elements")

    inv = split.change_of_basis.inverse()
    cols = _column_map(inv)  # cols[j] = (alpha_j, gamma_j) over inv._den
    # Column t of M_i over g._den * ginf._den, column k + a over
    # q._den * comp._den * inv._den; both scaled to their lcm, den.
    d1, d2 = g._den * ginf._den, q._den * comp._den * inv._den
    den = lcm(d1, d2)
    s1, s2 = den // d1, den // d2
    rows = []
    for i in range(n):
        gamma = [(r - k, x) for r, x in cols[i] if r >= k]
        if not gamma:
            rows.extend([()] * n)
            continue
        mi = {t: [(c, x * s1) for c, x in rt[i]] for t, rt in enumerate(right) if i in rt}
        for a, w in q._times_basis(gamma, False).items():
            mi[k + a] = [(c, x * s2) for c, x in _push(iota, w, n)]
        rows.extend(_push(mi, cols[j], n) for j in range(n))
    lifted = Product._from_int(n, rows, den * inv._den)
    return _certified(g, lifted, rep.is_complete, "lift_product")


def complete_any(g: LieAlgebra, p: Product) -> CompletionCertificate:
    """Completion pipeline for any LR-structure on a two-step solvable
    algebra.

    Stages: verify the input, split over the stabilized lower central
    term, push to the nilpotent quotient, complete there, lift back.
    Each stage failure carries its own exception type.  The two-step
    test reads the series report that split_metabelian then gets from
    the memo.  When g_infinity = 0 the quotient and the lift return
    their input itself, and the span of p's products is reduced once.
    """
    _lr_input(g, p, "input is not an LR-structure, first violation: ")
    if not series(g).two_step_solvable:
        raise NotTwoStepSolvableError("second derived algebra does not vanish")

    # Products of products commute with each other (their pairwise
    # brackets vanish); implied by the identities, so a failure here is
    # a bug, not bad input.
    span = product_span(p)
    if bracket_of_subspaces(g, span, span).dim != 0:
        raise InternalConsistencyError("the span of products is not abelian")

    split = split_metabelian(g)
    q0 = quotient_product(g, p, split.g_infinity)
    inner = complete_nilpotent(split.complement_algebra, q0)
    lifted = lift_product(split, inner.completed)
    return _completion(g, p, lifted, inner.fitting, "complete_any")


def half_bracket(g: LieAlgebra) -> Product:
    """The product x * y = [x, y] / 2 on a two-step nilpotent algebra."""
    g.ensure_valid()
    if bracket_of_subspaces(g, Subspace.full(g.dim), g._product_span()).dim != 0:
        raise NotTwoStepNilpotentError("the third lower central term does not vanish")
    return _certified(g, Product._from_int(g.dim, g._inz, 2 * g._den), True, "half_bracket")


def lr_for_g3(g: LieAlgebra) -> Product:
    """Complete LR-structure when the stabilized lower central term is
    the third one.

    Splits off g_infinity, takes the half bracket on the two-step
    nilpotent quotient and lifts it back.  The split's series report
    lists the lower central terms down to g_infinity, so g_infinity is
    the third term exactly when at most three are listed.  half_bracket
    certifies the half bracket complete, so lift_product certifies the
    lift complete.
    """
    split = split_metabelian(g)
    if len(split.series.lower_central) > 3:
        raise PreconditionError(
            "the stabilized lower central term differs from the third one"
        )
    return lift_product(split, half_bracket(split.complement_algebra))


def _scan_order(n: int):
    """(0, 0), then the pairs (k, l) with 0 <= k <= n and 1 <= l <= n
    in order of (k + l, l, k), leaving out the pairs on chains already
    at 0.  Entry (k, l) of two_generator_lr is pushed from (k - 1, l),
    or from (0, l - 1) when k = 0, so a consumer that sends True back
    for a pair whose entry is 0 gets no later k of that l, nor, after a
    zero (0, l) or (0, 0), any later l; the live l are held in a list,
    so a skipped pair is never looked at.  Plain iteration sends None
    and gets every pair."""
    top = not (yield 0, 0)  # (0, total) can still be nonzero
    live = []  # the l whose entry (total - 1 - l, l) is nonzero, ascending
    for total in range(1, 2 * n + 1):
        after = []
        for l in live:
            if total - l <= n and not (yield total - l, l):
                after.append(l)
        if top and total <= n:
            if (yield 0, total):
                top = False
            else:
                after.append(total)
        live = after


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

    The scan is lazy and follows one chain per pair (k, l).  With b_t
    the integer RREF rows of the image of ad(y) and A = ad(y)^k ad(x)^l,
    the entry of a candidate v = A y is an integer multiple u = c v
    together with the vectors c A b_t, the same c: L(v) = A ad(y), and
    each column of ad(y) is the sum of the b_t weighted by its entries
    at their pivots, over their common denominator.  When the
    scan reaches a candidate, the entry before it in its chain is
    pushed through the sparse integer columns of ad(x) or ad(y), its
    1 + rank ad(y) vectors alike (linalg._push), and divided by the gcd
    of all their numerators; a chain that reaches u = 0 stays 0, and so
    does every chain after a zero (0, l), so the scan (_scan_order),
    told of each 0, never visits their later candidates.  The kept
    vectors u_s are held as the kept rows [u_s | c A b_0 | c A b_1 | ...]
    of the _kernels insertion step, the block of b_t at columns n + t n.
    A candidate is reduced against them once and kept when its
    remainder leads in the first n coordinates; a dependent one leaves
    the kept rows as they were.
    The scan stops at n vectors.  The one elimination that selects the
    basis thereby also solves for the table: row i of the canonical
    form of the n kept rows, read once after the scan, is D e_i
    followed by the blocks sum_s D (U^-1)[s, i] c_s A_s b_t, U the
    matrix of columns u_s.  Those n vectors are independent brackets of
    x and y, which proves that x and y generate g; only a scan that
    falls short computes the generated subalgebra, to tell a
    non-generating pair from an internal failure.  No operator matrix
    is formed and no denominator is kept per vector: e_i e_j is row i's
    blocks pushed through the pivot entries of column j of ad(y)
    (linalg._push), on integers over D times the denominators of the
    b_t and of g.
    """
    if not is_two_step_solvable(g):
        raise NotTwoStepSolvableError("second derived algebra does not vanish")
    xv, yv = vector(x), vector(y)
    n = g.dim
    if len(xv) != n or len(yv) != n:
        raise DimensionMismatchError("generator length differs from algebra dimension")

    # chains[(k, l)] = (u, vs): u = c ad(y)^k ad(x)^l y for an integer c,
    # by its nonzero (i, numerator) pairs, and vs = {t: c ad(y)^k ad(x)^l
    # b_t} where that is nonzero, b_t the t-th integer row of im, the
    # image of ad(y); None once u is 0.  chains[None] is x, with no
    # vectors, as L(x) = 0.  ad_x and ad_y are the nonzero columns of
    # integer multiples of ad(x) and ad(y): ad_y[j] is g._den times
    # ad(y) e_j for the integer multiple of y that starts its chain.
    xu, yu = (_nonzero(_scale_fractions(v)[0]) for v in (xv, yv))
    ad_x, ad_y = g._times_basis(xu, False), g._times_basis(yu, False)
    im = Subspace._from_sparse(n, ad_y.values())
    chains = {None: (xu, {}), (0, 0): (yu, dict(enumerate(im._rows)))}

    def advance(entry: tuple, ad: dict) -> tuple | None:
        """entry pushed through ad and divided by the gcd of all its
        numerators, or None when its vector goes to 0."""
        u, vs = entry
        u = _push(ad, u, n)
        if not u:
            return None
        vs = {t: w for t, v in vs.items() if (w := _push(ad, v, n))}
        h = gcd(*(a for _, a in u), *(a for v in vs.values() for _, a in v))
        if h > 1:
            u = [(i, a // h) for i, a in u]
            vs = {t: [(i, a // h) for i, a in v] for t, v in vs.items()}
        return u, vs

    # kept holds the _kernels kept rows [u_s | vs_s[0] | vs_s[1] | ...]
    # of the kept vectors u_s.  The scan is told which entries are 0, so
    # the entry before each pair it gives is nonzero.
    kept = {}
    order, entry, zero = _scan_order(n), chains[None], None
    while True:
        if entry is not None:
            u, vs = entry
            row = [*u, *((n + t * n + i, a) for t, v in vs.items() for i, a in v)]
            r = next(K.remainders(kept, [row]))
            if r and min(r) < n:
                K.keep(kept, r)
        if len(kept) == n:
            break
        try:
            kl = order.send(zero)
        except StopIteration:
            break
        if kl not in chains:
            k, l = kl
            before, ad = ((k - 1, l), ad_y) if k else ((0, l - 1), ad_x)
            chains[kl] = advance(chains[before], ad)
        entry = chains[kl]
        zero = entry is None
    if len(kept) != n:
        if subalgebra_generated(g, [xv, yv]).dim != n:
            raise NotGeneratedError("the two elements do not generate the algebra")
        raise InternalConsistencyError("candidate vectors do not span the algebra")

    # ad_y[j] = sum_t ad_y[j][p_t] b_t / im._den, p_t the pivot of b_t, so
    # g._den L(u_s) e_j = sum_t ad_y[j][p_t] vs_s[t] / im._den, and block t
    # of canonical row i is sum_s rden (U^-1)[s, i] vs_s[t].
    reduced, rden, _ = K.canonical(kept)
    at = {p: t for t, p in enumerate(im.pivots)}
    coords = {j: [(at[k], a) for k, a in col if k in at] for j, col in ad_y.items()}
    rows = []
    for row in reduced:
        blocks = {}
        for c, a in row[1:]:  # row[0] is (i, rden)
            t, i = divmod(c - n, n)
            blocks.setdefault(t, []).append((i, a))
        rows.extend(_push(blocks, coords[j], n) if j in coords else () for j in range(n))
    den = rden * im._den * g._den
    return _certified(g, Product._from_int(n, rows, den), False, "two_generator_lr")
