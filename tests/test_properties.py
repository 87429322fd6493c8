"""Properties checked against plain Fraction arithmetic.

Metamorphic: answers must not depend on the basis.  A change of basis
is applied to the raw structure constants with plain Fraction
arithmetic, so the oracle does not lean on the products it checks.
The opposite product swaps the left and right LR violations.

Oracle: operators, spans, ideal tests, subspace algebra, Matrix.rref,
inverse, solve and Jacobi defects, which the library computes on
integer numerators over a common denominator, must match a test-local
computation on Fractions.  The LR
certificates, which the library reads from products of products of
structure constants, must match the dense operator-matrix checks they replaced,
and the quotients, read from integer remainders, the Fraction table
they replaced.  The metabelian split, found from one Fitting split and
checked on integers, must match the Fraction split, also where the
complement algebra is not abelian and phi not semisimple (module
extensions n + V), and the joint Fitting split, read from the
stable images of the family and of its transpose, both the
restrict-and-embed split and the split by operator powers and a dense
inverse that it replaced, on polynomials in one matrix and on the left
multiplications of recipe products.  The completion's Fitting split,
read off the left chain when that reaches 0, must equal that power
split of the left multiplications on both branches, and its table,
on a dim-24 idempotent product, the dense contraction p(proj_n x, y);
is_nilpotent_operator, running the chain of images, must agree with
m**n == 0.  The completeness certificate, read from the chain's first
step and the images of a complement of A, must give the answer of the
chain it replaced, and [g, g], read from the slots i < j, the span of
every slot.  The series, taken
from [g, g] and, for two-step solvable g, by bracketing with a
complement of [g, g] only, must equal the loop that brackets every
term with all of g.  The memoized certificate reports must equal a
fresh computation.  The two-generator construction, which scans its
candidates lazily and pushes its table through sparse columns, must
match the eager Fraction algorithm it replaced, and, reading the inverse
of its basis off the tagged rows of its scan, the scan followed by
Matrix.inverse.  The lift, read from the bracket of g, must match the
table in the adapted basis contracted by the dense loop it replaced,
and raise where that one's phi check does.  The sample vectors, drawn as
integer pairs, must be the Fraction draws.  Every builder of
Bilinear must store the same canonical constants.  Jacobi, summed on
the triples that receive a nonzero term, must give the report of the
loop over every triple, and the sampled Lemma 14 identities, compared
as sparse operator columns, the defects of the Fraction operator
products and of the products taken pair by pair.  escape, reducing
only the nonzero operator columns, must name the place that the loop
over every dense column names.  _combine, the one loop that sums
integer multiples of operator columns, must give their Matrix sum, and
_push, which applies such columns to a vector, the Matrix product.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from conftest import reference_product, torus

from lralg import _kernels, construct, lie, linalg, lr
from lralg.catalog import (
    abelian,
    diag_solvable,
    filiform,
    free_two_step,
    heisenberg,
    known_lr,
    known_lr_names,
)
from lralg.construct import (
    _scan_order,
    complete_any,
    complete_nilpotent,
    half_bracket,
    lift_product,
    lr_for_g3,
    two_generator_lr,
)
from lralg.errors import (
    InternalConsistencyError,
    NotGeneratedError,
    PhiNotZeroError,
    PreconditionError,
)
from lralg.lie import (
    LieAlgebra,
    SeriesReport,
    ad,
    bracket_of_subspaces,
    is_two_step_solvable,
    quotient,
    series,
    split_metabelian,
    subalgebra_generated,
    validate_lie,
)
from lralg.linalg import (
    Bilinear,
    FittingSplit,
    Matrix,
    Subspace,
    _columns_matrix,
    _combine,
    _int_row,
    _nonzero,
    _push,
    _scale_fractions,
    _scaled,
    _to_vector,
    complement,
    fitting_split_family,
    fitting_split_single,
    image,
    is_nilpotent_operator,
    kernel,
    restrict_operator,
    solve,
    standard_basis,
    subspace_intersection,
    subspace_sum,
    vector,
)
from lralg.lr import (
    COMPATIBILITY,
    LEMMA_IDENTITIES,
    LR_LEFT,
    LR_RIGHT,
    Product,
    check_complete,
    check_lr,
    left_op,
    quotient_product,
    right_op,
    sample_triples,
    two_of_three,
)

FIXTURES = [f for f in map(known_lr, known_lr_names()) if f[0].dim <= 6]

# g_infinity is the span of the last coordinates and the complement has
# two vectors, so the split moves its complement inside g_infinity (no
# other kind has both a nonzero g_infinity and a bracket between
# complement vectors).
CORRECTED = [
    (3, {(0, 1): {2: 1}, (0, 2): {2: 1}}),
    (4, {(0, 1): {2: 1, 3: 1}, (0, 2): {2: 1}, (0, 3): {3: 2}}),
    (4, {(0, 1): {2: 1, 3: 1}, (0, 2): {2: 1}, (1, 3): {3: 1}}),
]

small_rational = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))


@st.composite
def algebra_and_product(draw):
    kind = draw(st.sampled_from(["fixture", "filiform", "diag", "corrected", "recipe"]))
    if kind == "fixture":
        return draw(st.sampled_from(FIXTURES))
    if kind == "recipe":
        return draw(recipe(max_dim=6))[:2]
    if kind == "corrected":
        g = LieAlgebra.from_brackets(*draw(st.sampled_from(CORRECTED)))
        e = standard_basis(g.dim)
        return g, two_generator_lr(g, e[0], e[1])
    if kind == "filiform":
        g = filiform(draw(st.integers(3, 6)))
        e = standard_basis(g.dim)
        return g, two_generator_lr(g, e[0], e[1])
    weights = draw(
        st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=5, unique=True)
    )
    g = diag_solvable(weights)
    return g, two_generator_lr(g, standard_basis(g.dim)[0], (0,) + (1,) * len(weights))


@st.composite
def invertible(draw, n):
    rows = draw(st.lists(st.lists(small_rational, min_size=n, max_size=n), min_size=n, max_size=n))
    try:
        inv = Matrix(rows).inverse()
    except PreconditionError:
        assume(False)
    return rows, inv.row_list()


def change_basis(t, m, minv):
    """Structure constants in the basis b_i = sum_a m[a][i] e_a."""
    n = len(t)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            v = [Fraction(0)] * n
            for a in range(n):
                for b in range(n):
                    s = m[a][i] * m[b][j]
                    if s:
                        for k, c in enumerate(t[a][b]):
                            v[k] += s * c
            row.append([sum(minv[k][l] * v[l] for l in range(n)) for k in range(n)])
        out.append(row)
    return out


@st.composite
def recipe(draw, max_dim=8):
    """An LR input built from a recipe, not taken from the catalog.

    g = a + V with a = <e0, e1>, e0 e0 = e0 and e1 nil, acting on V by
    phi(e0) = 0 and phi(e1) either 0 or an invertible Jordan block J;
    the product is (a + v)(b + w) = ab + phi(a) w, so [e1, v] = J v.
    When phi = 0, V may carry the componentwise idempotent product as
    well (g is then abelian and the product commutative associative).
    Returns g and p after a random rational change of basis, and the
    kind: "acting" (phi(e1) = J), "idempotent" or "zero" (on V).
    """
    m = draw(st.integers(1, max_dim - 2))
    n = m + 2
    kind = draw(st.sampled_from(["acting", "idempotent", "zero"]))
    lam = draw(st.sampled_from([Fraction(2), Fraction(3), Fraction(-1, 2)]))
    zero = [Fraction(0)] * n

    def unit(*coeffs):
        v = list(zero)
        for k, c in coeffs:
            v[k] += c
        return v

    brackets = [[list(zero) for _ in range(n)] for _ in range(n)]
    table = [[list(zero) for _ in range(n)] for _ in range(n)]
    table[0][0] = unit((0, Fraction(1)))
    for i in range(2, n):
        if kind == "acting":  # J v_i = lam v_i + v_(i-1)
            jv = unit((i, lam), *([(i - 1, Fraction(1))] if i > 2 else []))
            table[1][i] = brackets[1][i] = jv
            brackets[i][1] = [-x for x in jv]
        elif kind == "idempotent":
            table[i][i] = unit((i, Fraction(1)))
    c, cinv = draw(invertible(n))
    g = LieAlgebra(change_basis(brackets, c, cinv))
    return g, Product(change_basis(table, c, cinv)), kind


def direct_sum(s, t):
    """The constants of the direct sum of two tensors, as a block diagonal."""
    a, b = len(s), len(t)
    n = a + b
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(a):
        for j in range(a):
            out[i][j][:a] = s[i][j]
    for i in range(b):
        for j in range(b):
            out[a + i][a + j][a:] = t[i][j]
    return out


def fraction_quotient_tensor(t, s):
    """The table induced on the non-pivot coordinates of the subspace s,
    in Fractions: the remainder of each t[a][b] against the RREF basis
    of s, read at those coordinates."""
    n = len(t)
    free = [c for c in range(n) if c not in s.pivots]

    def coords(v):
        r = [v[j] - sum((v[p] * b[j] for b, p in zip(s.basis, s.pivots)), Fraction(0))
             for j in range(n)]
        return tuple(r[f] for f in free)

    return tuple(tuple(coords(t[a][b]) for b in free) for a in free)


def fraction_split(g):
    """split_metabelian as it was computed in Fractions: the complement
    starts at the unit vectors w_j at the free coordinates of g_infinity
    and is corrected inside g_infinity by one linear solve.  Returns
    g_infinity_basis, complement_basis, phi and change_of_basis."""
    ginf = series(g).g_infinity
    units = complement(ginf)
    w_basis, k, q = list(units.basis), ginf.dim, units.dim

    def phi_matrix(w):
        return restrict_operator(g.operator(w), ginf)

    phi_w = [phi_matrix(w) for w in w_basis]
    tau = [(Fraction(0),) * k for _ in range(q)]
    pairs = [(a, b) for a in range(q) for b in range(a + 1, q)]
    if k and pairs:
        rows, rhs = [], []
        for a, b in pairs:
            v = g.bracket(w_basis[a], w_basis[b])
            r = ginf.reduce(v)
            beta = [r[f] for f in units.pivots]
            for s in range(k):
                row = [Fraction(0)] * (q * k)
                for t in range(k):
                    row[b * k + t] += phi_w[a][s, t]
                    row[a * k + t] -= phi_w[b][s, t]
                for m, bm in enumerate(beta):
                    row[m * k + s] -= bm
                rows.append(row)
                rhs.append(-v[ginf.pivots[s]])
        sol = solve(Matrix(rows), rhs)
        tau = [sol[j * k:(j + 1) * k] for j in range(q)]
    comp = tuple(
        tuple(x + y for x, y in zip(w, ginf.from_coordinates(t))) for w, t in zip(w_basis, tau)
    )
    phi = tuple(phi_matrix(w) for w in comp)
    return ginf.basis, comp, phi, Matrix.from_columns(list(ginf.basis) + list(comp))


def flags(g, p):
    rep = check_lr(g, p)
    return rep.is_lr, rep.is_compatible, rep.is_complete


def series_dims(g):
    rep = series(g)
    return [s.dim for s in rep.lower_central], [s.dim for s in rep.derived]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_basis_change_invariance(data):
    g, p = data.draw(algebra_and_product())
    m, minv = data.draw(invertible(g.dim))
    g2 = LieAlgebra(change_basis(g.brackets, m, minv))
    p2 = Product(change_basis(p.table, m, minv))

    assert flags(g2, p2) == flags(g, p)
    assert series_dims(g2) == series_dims(g)
    # series stops where [g, g_infinity] = g_infinity, which the split
    # relies on without checking it again.
    for h in (g, g2):
        ginf = series(h).g_infinity
        assert bracket_of_subspaces(h, Subspace.full(h.dim), ginf) == ginf
    # The ideals are no longer coordinate subspaces; the projection must
    # vanish on each one and invert the section.
    for ideal in series(g2).lower_central:
        q, proj, section = quotient(g2, ideal)
        assert proj * section == Matrix.identity(g2.dim - ideal.dim)
        assert all(not any(proj.apply(v)) for v in ideal.basis)
        assert q.brackets == fraction_quotient_tensor(g2.brackets, ideal)

    if is_two_step_solvable(g):
        for h in (g, g2):
            split = split_metabelian(h)
            fields = (split.g_infinity_basis, split.complement_basis, split.phi,
                      split.change_of_basis)
            assert fields == fraction_split(h)
            q = quotient(h, split.g_infinity)[0]
            assert (split.complement_algebra._inz, split.complement_algebra._den) == (
                q._inz, q._den)

    lr, compatible, _ = flags(g, p)
    if lr and compatible and is_two_step_solvable(g):
        for h, r in ((g, p), (g2, p2)):
            ginf = series(h).g_infinity
            assert quotient_product(h, r, ginf).table == fraction_quotient_tensor(r.table, ginf)
        cert, cert2 = complete_any(g, p), complete_any(g2, p2)
        assert flags(g2, cert2.completed) == (True, True, True)
        fitting = (cert.fitting.v_n.dim, cert.fitting.v_0.dim)
        assert (cert2.fitting.v_n.dim, cert2.fitting.v_0.dim) == fitting


def loop_series(g):
    """The SeriesReport as it was computed: each lower central term
    bracketed with all of g, from g itself, and the derived series from
    [g, g] by the bracket of each term with itself."""
    full = Subspace.full(g.dim)
    lower = [full]
    while True:
        nxt = bracket_of_subspaces(g, full, lower[-1])
        if nxt == lower[-1]:
            break
        lower.append(nxt)
    derived = lower[:2]
    while len(derived) > 1:
        nxt = bracket_of_subspaces(g, derived[-1], derived[-1])
        if nxt == derived[-1]:
            break
        derived.append(nxt)
    solvable = derived[-1].dim == 0
    return SeriesReport(
        tuple(lower), lower[-1], tuple(derived), lower[-1].dim == 0,
        len(derived) - 1 if solvable else None,
    )


def matrix_units(size, pairs):
    """The span of the size x size matrix units E_ij for the given (i, j),
    which must be closed under [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    index = {ij: t for t, ij in enumerate(pairs)}
    brackets = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if a < b:
                out = {}
                if j == k:
                    out[index[i, l]] = out.get(index[i, l], 0) + 1
                if l == i:
                    out[index[k, j]] = out.get(index[k, j], 0) - 1
                out = {c: x for c, x in out.items() if x}
                if out:
                    brackets[a, b] = out
    return LieAlgebra.from_brackets(len(pairs), brackets)


SL2 = LieAlgebra.from_brackets(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
SO3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
# Upper triangular 3 x 3 matrices: derived series b > n > <E_13> > 0,
# and g_infinity = n, so neither nilpotent nor two-step solvable.
BOREL3 = matrix_units(3, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)])
# gl(2): [g, g] = sl(2) = g^k for every k >= 2, and the complement of
# units, at E_22, brackets sl(2) into <E_12, E_21> only.
GL2 = matrix_units(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
# Strictly upper triangular 5 x 5 matrices: nilpotent, and [E_13, E_35]
# = E_15 makes the derived series three steps long.
STRICT5 = matrix_units(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


@pytest.mark.parametrize(
    "g, nilpotent, solvable_class",
    [(SL2, False, None), (SO3, False, None), (GL2, False, None), (BOREL3, False, 3),
     (STRICT5, True, 3),
     (free_two_step(4), True, 2), (diag_solvable([1, -2, 3]), False, 2), (abelian(3), True, 1),
     (filiform(9), True, 2)],
    ids=["sl2", "so3", "gl2", "borel3", "strict5", "free-two-step-4", "diag", "abelian", "filiform9"],
)
def test_series_matches_lower_central_loop(g, nilpotent, solvable_class):
    rep = series(g)
    assert rep == loop_series(g)
    assert (rep.nilpotent, rep.solvable_class) == (nilpotent, solvable_class)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_series_matches_lower_central_loop_in_random_bases(data):
    """Catalog families, fixtures, recipe algebras and the named
    algebras above, after a random rational change of basis: [g, g] is
    then no coordinate subspace and its complement no complement of
    units."""
    g = data.draw(st.one_of(st.sampled_from([SL2, SO3, GL2, BOREL3]),
                            algebra_and_product().map(lambda gp: gp[0])))
    m, minv = data.draw(invertible(g.dim))
    h = LieAlgebra(change_basis(g.brackets, m, minv))
    assert series(h) == loop_series(h)
    assert series(g) == loop_series(g)


def power_core_fitting(mats):
    """The joint Fitting split of a commuting family by its definition,
    as the library first computed it: v_n is the common kernel of the
    powers m**n, v_0 the sum of their images, and proj_n is
    target * basis**-1, basis with the rows of v_n and v_0 as columns
    and target with v_n's rows and zeros."""
    n = mats[0].rows
    powers = [m.power(n) for m in mats]
    rows = [r for pw in powers for r in pw._int_rows() if any(r)]
    v_n = kernel(Matrix._raw(len(rows), n, [x for r in rows for x in r], 1))
    v_0 = Subspace._from_int_rows(n, [pw._num[j::n] for pw in powers for j in range(n)])
    top = v_n.rows._num
    basis = Matrix._raw(n, n, top + v_0.rows._num, 1).transpose()
    target = Matrix._raw(n, n, top + [0] * (v_0.dim * n), 1).transpose()
    return FittingSplit(v_n, v_0, target * basis.inverse())


def lefts(p):
    """The left multiplications of p, as Matrices."""
    return [left_op(p, e) for e in standard_basis(p.dim)]


def test_completion_fitting_matches_power_core_on_both_branches():
    """complete_nilpotent reads v_n = Q^n off a left chain that reaches 0
    and takes stable images otherwise; on the nilpotent fixtures, whose
    left chains reach 0 for some and not for others, its split is the
    power core's."""
    branches = set()
    for name in known_lr_names():
        g, p = known_lr(name)
        rep = check_lr(g, p)
        if not (rep.is_lr and rep.is_compatible and series(g).nilpotent):
            continue
        branches.add(lr._chain_reaches_zero(p, True))
        assert complete_nilpotent(g, p).fitting == power_core_fitting(lefts(p))
    assert branches == {True, False}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_completion_fitting_matches_power_core(data):
    """The nilpotent quotients complete_any hands complete_nilpotent, from
    LR inputs in the basis they come in or after a change of basis."""
    g, p = data.draw(algebra_and_product())
    if data.draw(st.booleans()):
        m, minv = data.draw(invertible(g.dim))
        g = LieAlgebra(change_basis(g.brackets, m, minv))
        p = Product(change_basis(p.table, m, minv))
    rep = check_lr(g, p)
    assume(rep.is_lr and rep.is_compatible and is_two_step_solvable(g))
    split = split_metabelian(g)
    q = quotient_product(g, p, split.g_infinity)
    assert complete_nilpotent(split.complement_algebra, q).fitting == power_core_fitting(lefts(q))


def idempotent_product(n, seed):
    """An LR-structure on the abelian algebra Q^n, n even, whose left
    chain stalls: the commutative associative product e_a e_a = e_a on
    the first half and the truncated polynomial product t^a t^b = t^(a+b)
    on the second, in the basis of the columns of a seeded integer
    unitriangular matrix.  Its Fitting one component is the first half,
    its null component the second."""
    h = n // 2
    rng = random.Random(seed)
    m = Matrix([[1 if i == j else rng.choice([0, 0, 0, 1, -1, 2]) if i < j else 0
                 for j in range(n)] for i in range(n)])
    basis, minv = [m.column(i) for i in range(n)], m.inverse()

    def times(x, y):
        out = [x[a] * y[a] for a in range(h)] + [Fraction(0)] * h
        for a in range(h):
            for b in range(h - a - 1):  # t^(a+1) t^(b+1) = t^(a+b+2)
                out[h + a + b + 1] += x[h + a] * y[h + b]
        return out

    return abelian(n), Product([[minv.apply(times(x, y)) for y in basis] for x in basis])


def test_completion_makes_no_dense_operator_power_or_inverse(monkeypatch):
    """complete_nilpotent calls neither Matrix.power, Matrix.inverse,
    _kernels.mat_mul nor Bilinear.operator: its split comes from
    chains of sparse images and one echelon, its table from sparse
    operators.  r2-completed runs through complete_any, whose lift
    inverts its change of basis, so only calls made inside
    complete_nilpotent count."""
    cases = [known_lr("abelian1-idempotent"), known_lr("abelian2-idempotent-line"),
             idempotent_product(24, seed=5)]
    inside, calls = [], []
    for owner, name in ((Matrix, "power"), (Matrix, "inverse"), (_kernels, "mat_mul"),
                        (Bilinear, "operator")):
        def counted(*args, _name=name, _real=getattr(owner, name), **kwargs):
            if inside:
                calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    real = construct.complete_nilpotent

    def flagged(*args):
        inside.append(True)
        try:
            return real(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(construct, "complete_nilpotent", flagged)
    for g, p in cases:
        assert not lr._chain_reaches_zero(p, True)
        construct.complete_nilpotent(g, p)
    complete_any(*known_lr("r2-completed"))
    assert calls == []


def test_completion_of_idempotent_product_matches_power_core_and_dense_transport():
    """On the dim-24 idempotent product the split equals the power core
    and the completed table the old contraction p(proj_n x, y) through
    dense_transport."""
    g, p = idempotent_product(24, seed=5)
    cert = complete_nilpotent(g, p)
    fit = power_core_fitting(lefts(p))
    ident = Matrix.identity(24)
    rows, scale = dense_transport(p, fit.proj_n, ident, ident)
    assert (fit.v_n.dim, fit.v_0.dim) == (12, 12)
    assert cert.fitting == fit
    assert cert.completed == Product._from_int(24, rows, p._den * scale)


# The Heisenberg algebra <x, y, z>, [x, y] = z, acting on the line <v>
# by [x, v] = v: g_infinity = <v> = g^3, and the complement algebra
# g / g_infinity is the Heisenberg algebra, so the split's closure and
# homomorphism checks carry its beta term.  In the basis x, y, z + v, v
# the unit complement brackets [x, y] = (z + v) - v, and the correction
# moves z + v back to z.
HEISENBERG_ON_A_LINE = (4, {(0, 1): {2: 1}, (0, 3): {3: 1}})
SHIFT_Z = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]


def test_split_correction_over_a_nonabelian_quotient():
    """split_metabelian passes its own closure and homomorphism checks
    and matches the Fraction split, lr_for_g3 is certified, and phi_of
    is the linear extension of phi, in random bases; at least one of
    them needs a nonzero correction."""
    g0 = LieAlgebra.from_brackets(*HEISENBERG_ON_A_LINE)
    coords = st.lists(small_rational, min_size=3, max_size=3)
    corrected = []

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(basis=invertible(4), c=coords, d=coords, s=small_rational)
    @example(basis=(SHIFT_Z, Matrix(SHIFT_Z).inverse().row_list()), c=[1, -2, 3], d=[0, 1, 0],
             s=Fraction(-1, 2))
    def check(basis, c, d, s):
        g = LieAlgebra(change_basis(g0.brackets, *basis))
        split = split_metabelian(g)
        assert any(split.complement_algebra._inz)
        fields = (split.g_infinity_basis, split.complement_basis, split.phi,
                  split.change_of_basis)
        assert fields == fraction_split(g)
        corrected.append(split.complement_basis != complement(split.g_infinity).basis)
        assert flags(g, lr_for_g3(g)) == (True, True, True)

        for a, e in enumerate(standard_basis(3)):
            assert split.phi_of(e) == split.phi[a]
        combined = [s * x + y for x, y in zip(c, d)]
        assert split.phi_of(combined) == s * split.phi_of(c) + split.phi_of(d)

    check()
    assert any(corrected)


def test_split_compares_phi_only_when_g_infinity_is_nonzero(monkeypatch):
    """The split computes phi once per complement row, q times, and
    compares it on pairs through the two products phi_a phi_b and
    phi_b phi_a (_compose).  With g_infinity = 0 every phi is 0 x 0 and
    no pair is compared; the Heisenberg-on-a-line algebra, whose
    g_infinity is a line, compares each of its 3 pairs once."""
    calls, composed = [], []
    real, real_compose = lie._restricted, lie._compose
    monkeypatch.setattr(lie, "_restricted", lambda *args: calls.append(1) or real(*args))
    monkeypatch.setattr(lie, "_compose", lambda *args: composed.append(1) or real_compose(*args))
    split = split_metabelian(filiform(12))
    assert split.g_infinity.dim == 0 and len(calls) == split.complement.rows == 12
    assert composed == []
    calls.clear()
    split = split_metabelian(LieAlgebra.from_brackets(*HEISENBERG_ON_A_LINE))
    assert split.g_infinity.dim == 1 and len(calls) == split.complement.rows == 3
    assert len(composed) == 2 * 3


def test_split_rejects_a_correction_that_does_not_close(monkeypatch):
    """On [e1, e3] = e3, [e1, e2] = e3 the Fitting null component of
    ad e1 is <e1, e2 - e3>; with proj_n e2 moved back to e2 the rows
    bracket to e3, outside their span, and the closure check raises.
    (Another v alone would not do: every v gives a conjugate of the
    complement, which closes.)"""
    real = lie._fitting_split_commuting

    def unmoved(n, family):
        fit = real(n, family)
        num = list(fit.proj_n._num)
        assert num[2 * n + 1] == -fit.proj_n._den  # proj_n e2 = e2 - e3
        num[2 * n + 1] = 0
        return fit._replace(proj_n=Matrix._raw(n, n, num, fit.proj_n._den))

    monkeypatch.setattr(lie, "_fitting_split_commuting", unmoved)
    g = LieAlgebra.from_brackets(3, {(0, 2): {2: 1}, (0, 1): {2: 1}})
    with pytest.raises(InternalConsistencyError, match="corrected complement is not a subalgebra"):
        split_metabelian(g)


def test_split_search_that_runs_out_raises(monkeypatch):
    """With every Fitting null component one short of the complement's
    dimension, the search tries x_t for t = 0, ..., k(q - 1) and then
    raises."""
    real, calls = lie._fitting_split_commuting, []

    def short(n, family):
        calls.append(1)
        fit = real(n, family)
        return fit._replace(v_n=Subspace._from_sparse(n, fit.v_n._rows[1:]))

    monkeypatch.setattr(lie, "_fitting_split_commuting", short)
    g = torus(3, 2, True)
    with pytest.raises(InternalConsistencyError, match="acts invertibly"):
        split_metabelian(g)
    assert len(calls) == 2 * (3 - 1) + 1


def module_extension(n, mat, coeffs, sheared):
    """g = n + V, V = Q^k with k = len(mat), for n = heisenberg() or
    free_two_step(d): the i-th generator x_i of n acts on V by p_i(M),
    M the integer matrix mat, p_1(M) = M and p_i(M) = M + c2 M^2 + c0 I
    for (c2, c0) = coeffs[i - 2], and [n, n] acts by 0.  These commute,
    so g is a Lie algebra; when c0 >= 1, V has no zero weight and
    g_infinity = V = g^3.  sheared takes e_a + v_(a mod k), a < dim n,
    as the basis of n, which gives [e_a, e_b] a component in V."""
    dn, k = n.dim, len(mat)
    sq = [[sum(mat[i][j] * mat[j][t] for j in range(k)) for t in range(k)] for i in range(k)]
    reps = [mat] + [[[mat[i][t] + c2 * sq[i][t] + c0 * (i == t) for t in range(k)]
                     for i in range(k)] for c2, c0 in coeffs]
    dim = dn + k
    t = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dn):
        for b in range(dn):
            t[a][b][:dn] = n.brackets[a][b]
    for a, rho in enumerate(reps):
        for s in range(k):
            for u in range(k):
                t[a][dn + u][dn + s] = Fraction(rho[s][u])
                t[dn + u][a][dn + s] = -Fraction(rho[s][u])
    if sheared:
        shear = [[int(i == j) for j in range(dim)] for i in range(dim)]
        unshear = [list(row) for row in shear]
        for a in range(dn):
            shear[dn + a % k][a], unshear[dn + a % k][a] = 1, -1
        t = change_basis(t, shear, unshear)
    return LieAlgebra(t)


@st.composite
def module_extensions(draw):
    """A module_extension and its k: n = heisenberg() or
    free_two_step(2 or 3), k = 2..5, M upper triangular with a Jordan
    block at (j, j + 1) and at most one eigenvalue 0 (then phi of the
    first unit is singular, so the split's search passes t = 0),
    c0 >= 1, and the shear or not."""
    n = draw(st.sampled_from([heisenberg(), free_two_step(2), free_two_step(3)]))
    gens = 3 if n.dim == 6 else 2
    k = draw(st.integers(2, 5))
    diag = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=k, max_size=k))
    zero = draw(st.none() | st.integers(0, k - 1))
    if zero is not None:
        diag[zero] = 0
    j = draw(st.integers(0, k - 2))
    diag[j + 1] = diag[j]
    mat = [[0] * k for _ in range(k)]
    for r in range(k):
        mat[r][r] = diag[r]
        for c in range(r + 1, k):
            mat[r][c] = 1 if (r, c) == (j, j + 1) else draw(st.integers(-2, 2))
    coeffs = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 3)),
                           min_size=gens - 1, max_size=gens - 1))
    return module_extension(n, mat, coeffs, draw(st.booleans())), k


def test_split_over_a_module_matches_the_fraction_split(monkeypatch):
    """On module extensions, with a non-abelian quotient and a phi that
    need not be semisimple, g is valid with g_infinity = V, every field
    of the split matches the Fraction split, and lr_for_g3 is certified;
    the split's search for an x with invertible phi_x goes past t = 0
    somewhere.  The number of examples is the profile's."""
    real, calls, searched = lie._fitting_split_commuting, [], []
    monkeypatch.setattr(lie, "_fitting_split_commuting",
                        lambda *args: calls.append(1) or real(*args))

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=module_extensions())
    @example(drawn=(module_extension(heisenberg(), [[0, 1], [0, 0]], [(0, 1)], True), 2))
    def check(drawn):
        g, k = drawn
        assert validate_lie(g)[0]
        v = [((t, 1),) for t in range(g.dim - k, g.dim)]
        assert series(g).g_infinity == Subspace._from_sparse(g.dim, v)
        before = len(calls)
        split = split_metabelian(g)
        searched.append(len(calls) - before)
        fields = (split.g_infinity_basis, split.complement_basis, split.phi,
                  split.change_of_basis)
        assert fields == fraction_split(g)
        q = quotient(g, split.g_infinity)[0]
        assert (split.complement_algebra._inz, split.complement_algebra._den) == (q._inz, q._den)
        assert flags(g, lr_for_g3(g)) == (True, True, True)

    check()
    assert max(searched) > 1


@pytest.mark.parametrize("make", [lambda: LieAlgebra.from_brackets(*HEISENBERG_ON_A_LINE),
                                  lambda: free_two_step(4)], ids=["heisenberg-line", "free4"])
@pytest.mark.parametrize("mutation", ["add", "drop"])
def test_split_closure_compares_every_pair_with_a_nonzero_side(monkeypatch, make, mutation):
    """The closure check skips a pair of complement rows only when both
    their bracket and its beta slot are 0.  With one constant added to
    the complement algebra at the first pair whose rows bracket to 0
    ("add": the bracket side is empty, beta is not), or the constants
    of the first pair with a nonzero bracket dropped ("drop": beta is
    empty, the bracket is not), the split raises."""
    g = make()
    split_metabelian(g)  # passes unmutated
    real = Bilinear._quotient

    def mutated(self, s):
        q, beta, den = real(self, s)
        pairs = [(a, b) for a in range(q) for b in range(a + 1, q)]
        a, b = next((a, b) for a, b in pairs if bool(beta[a * q + b]) == (mutation == "drop"))
        beta[a * q + b] = [] if mutation == "drop" else [(0, 1)]
        return q, beta, den

    monkeypatch.setattr(Bilinear, "_quotient", mutated)
    with pytest.raises(InternalConsistencyError, match="corrected complement is not a subalgebra"):
        split_metabelian(g)


def test_split_rejects_a_phi_that_is_not_a_homomorphism(monkeypatch):
    """On Heisenberg-on-a-line [x, y] = z, and phi of the unit z is 0;
    with phi of z, the third of the units x, y, z, made 1 where it is
    computed, [phi_x, phi_y] = 0 differs from it and the homomorphism
    check raises."""
    real, calls = lie._restricted, []

    def wrong(cols, s):
        calls.append(1)
        phi = real(cols, s)
        if len(calls) == 3:
            assert phi == {} and s.dim == 1 and s._den == 1
            return {0: ((0, 1),)}
        return phi

    monkeypatch.setattr(lie, "_restricted", wrong)
    g = LieAlgebra.from_brackets(*HEISENBERG_ON_A_LINE)
    with pytest.raises(InternalConsistencyError, match="phi is not a homomorphism"):
        split_metabelian(g)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=recipe())
def test_recipe_inputs_complete(drawn):
    """The Fitting split on recipe inputs: a nonzero invertible
    component, which no catalog input above dim 2 has.  Its dimensions
    are known from the recipe: e0 and, under the idempotent product, V
    are invertible; the rest is nilpotent."""
    g, p, kind = drawn
    rep = check_lr(g, p)
    assert rep.is_lr and rep.is_compatible
    assert not rep.is_complete  # e0 is idempotent
    full = Subspace.full(g.dim)
    if kind == "acting":
        # g_infinity = V, so the split leaves a = <e0, e1>.
        cert = complete_any(g, p)
        assert (cert.fitting.v_n.dim, cert.fitting.v_0.dim) == (1, 1)
    else:
        assert bracket_of_subspaces(g, full, full).dim == 0
        cert = complete_nilpotent(g, p)
        v_0 = g.dim - 1 if kind == "idempotent" else 1
        assert (cert.fitting.v_n.dim, cert.fitting.v_0.dim) == (g.dim - v_0, v_0)
    assert cert.fitting.v_0.dim >= 1
    assert flags(g, cert.completed) == (True, True, True)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_recipe_direct_sum_flags_and_fitting_add(data):
    """For g1 + g2 with p1 + p2, each part drawn from the recipe and
    possibly completed first, the flags are the AND of the parts' and
    complete_any's Fitting dimensions add."""
    parts = []
    for _ in range(2):
        g, p, _ = data.draw(recipe(max_dim=4))
        rep = check_lr(g, p)
        assert rep.is_lr and rep.is_compatible
        if data.draw(st.booleans()):
            p = complete_any(g, p).completed
        parts.append((g, p))
    (g1, p1), (g2, p2) = parts
    g = LieAlgebra(direct_sum(g1.brackets, g2.brackets))
    p = Product(direct_sum(p1.table, p2.table))
    assert flags(g, p) == tuple(a and b for a, b in zip(flags(g1, p1), flags(g2, p2)))
    fits = [complete_any(h, r).fitting for h, r in parts] + [complete_any(g, p).fitting]
    assert fits[2].v_n.dim == fits[0].v_n.dim + fits[1].v_n.dim
    assert fits[2].v_0.dim == fits[0].v_0.dim + fits[1].v_0.dim


mixed_rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5, 7]))
sparse_rational = st.one_of(st.just(Fraction(0)), mixed_rational)


@st.composite
def mixed_tensor(draw, n):
    """Random constants with mixed denominators; antisymmetric in (i, j)
    when drawn so, else unconstrained."""
    def vec():
        return draw(st.lists(sparse_rational, min_size=n, max_size=n))

    t = [[vec() for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            t[i][i] = [Fraction(0)] * n
            for j in range(i + 1, n):
                t[j][i] = [-c for c in t[i][j]]
    return t


def fraction_product(t, x, y):
    n = len(t)
    return tuple(
        sum((x[i] * y[j] * t[i][j][k] for i in range(n) for j in range(n)), Fraction(0))
        for k in range(n)
    )


def fraction_rref(rows, n):
    """Nonzero rows of the reduced row echelon form, and the pivots."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                q = m[i][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in m[: len(pivots)]), tuple(pivots)


def fraction_null(rows, n):
    """Null space of the given rows, in the form fraction_rref returns."""
    basis, pivots = fraction_rref(rows, n)
    vecs = []
    for j in range(n):
        if j not in pivots:
            v = [Fraction(0)] * n
            v[j] = Fraction(1)
            for r, p in zip(basis, pivots):
                v[p] = -r[j]
            vecs.append(v)
    return fraction_rref(vecs, n)


def fraction_apply(rows, v):
    return tuple(sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in rows)


def fraction_combination(coeffs, vectors, n):
    return tuple(
        sum((c * v[j] for c, v in zip(coeffs, vectors)), Fraction(0)) for j in range(n)
    )


def space(s):
    return s.basis, s.pivots


def fraction_escape(t, basis, both_sides):
    """The first (side, i) at which e_i b, or with both_sides then b e_i,
    leaves the span of basis, for b over basis and i in turn."""
    n = len(t)
    e = standard_basis(n)
    rank = len(fraction_rref(basis, n)[1])

    def outside(v):
        return len(fraction_rref(list(basis) + [v], n)[1]) > rank

    for b in basis:
        for i in range(n):
            if outside(fraction_product(t, e[i], b)):
                return "left", i
            if both_sides and outside(fraction_product(t, b, e[i])):
                return "right", i
    return None


@pytest.mark.parametrize("kind", ["zero", "unit", "scaled", "dense"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_apply_is_the_fraction_contraction(kind, data):
    """Bilinear.apply(x, y) is sum x_i y_j tensor[i][j] on arbitrary
    constants of dims 1-8, for x = 0, a single term with coefficient 1
    or with a numerator other than 1 (both paths of _times_basis for one
    term: the constants of one row as they are, or scaled) and x with
    every entry nonzero (its dense accumulators)."""
    n = data.draw(st.integers(1, 8))
    t = data.draw(mixed_tensor(n))
    x = [Fraction(0)] * n
    if kind == "unit":
        x[data.draw(st.integers(0, n - 1))] = Fraction(1)
    elif kind == "scaled":
        c = data.draw(mixed_rational.filter(lambda c: c.numerator not in (0, 1)))
        x[data.draw(st.integers(0, n - 1))] = c
    elif kind == "dense":
        x = data.draw(st.lists(mixed_rational.filter(bool), min_size=n, max_size=n))
    y = data.draw(st.lists(sparse_rational, min_size=n, max_size=n))
    expected = tuple(
        sum((x[i] * y[j] * t[i][j][k] for i in range(n) for j in range(n)), Fraction(0))
        for k in range(n)
    )
    assert Bilinear(t).apply(x, y) == expected


@st.composite
def column_map(draw, n):
    """A random integer operator on Q^n by its nonzero columns, in
    _push's form {j: sorted nonzero (k, numerator) pairs}."""
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    cols = {j: tuple(_nonzero(draw(st.lists(entry, min_size=n, max_size=n))))
            for j in range(n)}
    return {j: col for j, col in cols.items() if col}


@pytest.mark.parametrize("kind", ["none", "single", "zero", "many", "cancel"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_combine_is_the_matrix_sum(kind, data):
    """_combine(terms, n) is sum x M over the terms (x, M) as Matrix
    arithmetic on dims 1-8 computes it, for no terms, one term, terms
    with zero coefficients, several terms, and two terms whose sum
    cancels one column to 0, which is then left out; every kept
    column is nonempty, with its pairs sorted and nonzero."""
    n = data.draw(st.integers(1, 8))
    coeff = st.integers(-5, 5)
    count = {"none": 0, "single": 1}.get(kind, data.draw(st.integers(2, 4)))
    terms = [(data.draw(coeff), data.draw(column_map(n))) for _ in range(count)]
    if kind == "zero":
        terms[0] = (0, terms[0][1])
    cancelled = None
    if kind == "cancel":
        x, m = data.draw(coeff.filter(bool)), data.draw(column_map(n))
        assume(m)
        cancelled = data.draw(st.sampled_from(sorted(m)))
        other = data.draw(column_map(n))
        other[cancelled] = tuple((k, -c) for k, c in m[cancelled])
        terms = [(x, m), (x, other)]
    out = _combine([(x, m.items()) for x, m in terms], n)
    expected = Matrix.zeros(n, n)
    for x, m in terms:
        expected = expected + x * _columns_matrix(m, n, 1)
    assert _columns_matrix(out, n, 1) == expected
    assert cancelled not in out
    for col in out.values():
        assert col and list(col) == sorted(col) and all(c for _, c in col)


@pytest.mark.parametrize("kind", ["none", "one", "scaled", "many", "cancel"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_push_is_the_matrix_vector_product(kind, data):
    """_push(cols, v, n) is the Matrix of cols applied to v on dims 1-8,
    for a v that reaches no nonzero column, one column with coefficient
    1, one with another coefficient, several columns, and two columns
    whose terms cancel to (); v's other terms fall on zero columns.
    The result is a tuple of sorted nonzero pairs, and a column reached
    once comes back as it is, or scaled."""
    n = data.draw(st.integers(2 if kind == "cancel" else 1, 8))
    cols = data.draw(column_map(n))
    coeff = st.integers(-5, 5).filter(bool)
    reached = sorted(cols)
    v = {j: data.draw(coeff) for j in range(n) if j not in cols and data.draw(st.booleans())}
    if kind in ("one", "scaled"):
        assume(reached)
        j = data.draw(st.sampled_from(reached))
        v[j] = 1 if kind == "one" else data.draw(coeff.filter(lambda x: x != 1))
    elif kind == "many":
        assume(len(reached) > 1)
        hit = data.draw(st.lists(st.sampled_from(reached), min_size=2, unique=True))
        v.update((j, data.draw(coeff)) for j in hit)
    elif kind == "cancel":
        assume(reached)
        a = data.draw(st.sampled_from(reached))
        b = data.draw(st.sampled_from([j for j in range(n) if j != a]))
        cols[b] = tuple((k, -c) for k, c in cols[a])
        x = data.draw(coeff)
        v = {a: x, b: x}
    v = sorted(v.items())
    out = _push(cols, v, n)
    expected = _columns_matrix(cols, n, 1).apply(_to_vector(_int_row(v, n), 1))
    assert type(out) is tuple and _to_vector(_int_row(out, n), 1) == expected
    assert list(out) == sorted(out) and all(c for _, c in out)
    if kind == "one":
        assert out == cols[j]
    if kind in ("none", "cancel"):
        assert out == ()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_paths_match_fraction_oracle(data):
    n = data.draw(st.integers(1, 4))
    t = data.draw(mixed_tensor(n))
    g = LieAlgebra(t)
    vecs = st.lists(sparse_rational, min_size=n, max_size=n)

    x = data.draw(vecs)
    left, right = g.operator(x), g.operator(x, right=True)
    for k in range(n):
        for j in range(n):
            assert left[k, j] == sum(x[i] * t[i][j][k] for i in range(n))
            assert right[k, j] == sum(x[i] * t[j][i][k] for i in range(n))

    va = data.draw(st.lists(vecs, max_size=4))
    vb = data.draw(st.lists(vecs, max_size=4))
    a, b = Subspace.from_vectors(n, va), Subspace.from_vectors(n, vb)
    assert (a.basis, a.pivots) == fraction_rref(va, n)
    assert (b.basis, b.pivots) == fraction_rref(vb, n)
    for u_space, v_space in ((a, b), (a, a)):
        s = bracket_of_subspaces(g, u_space, v_space)
        prods = [fraction_product(t, u, v) for u in u_space.basis for v in v_space.basis]
        assert (s.basis, s.pivots) == fraction_rref(prods, n)
    for s, vs in ((a, va), (b, vb)):
        basis = fraction_rref(vs, n)[0]
        assert g.escape(s) == fraction_escape(t, basis, False)
        assert g.escape(s, both_sides=True) == fraction_escape(t, basis, True)

    e = standard_basis(n)
    assert space(subspace_sum(a, b)) == fraction_rref(va + vb, n)
    # x lies in u and v iff the null vectors of both annihilate it; a with
    # itself and with 0 are the edge cases, in canonical form too.
    for u, v, vu, vv in ((a, b, va, vb), (a, a, va, va), (a, Subspace.zero(n), va, [])):
        meet = fraction_null(fraction_null(vu, n)[0] + fraction_null(vv, n)[0], n)
        inter = subspace_intersection(u, v)
        assert space(inter) == meet and inter == Subspace.from_vectors(n, meet[0])
    assert a.contains_subspace(b) == (len(fraction_rref(va + vb, n)[1]) == a.dim)
    assert space(complement(a)) == fraction_rref([e[c] for c in range(n) if c not in a.pivots], n)

    basis, pivots = fraction_rref(va, n)
    y = data.draw(vecs)
    rem = tuple(
        y[j] - sum((y[p] * r[j] for r, p in zip(basis, pivots)), Fraction(0)) for j in range(n)
    )
    assert a.reduce(y) == rem
    assert a.contains(y) == (not any(rem))
    assert a.coordinates(y) == (None if any(rem) else tuple(y[p] for p in pivots))
    cs = data.draw(st.lists(sparse_rational, min_size=a.dim, max_size=a.dim))
    z = fraction_combination(cs, basis, n)
    assert a.from_coordinates(cs) == z
    assert a.contains(z) and a.coordinates(z) == tuple(cs)

    mrows = data.draw(st.lists(vecs, min_size=n, max_size=n))
    m = Matrix(mrows)
    assert space(kernel(m)) == fraction_null(mrows, n)
    assert space(image(m)) == fraction_rref(list(zip(*mrows)), n)
    # The Krylov span of y and 0 are invariant under m; a usually is not.
    krylov = [y]
    for _ in range(n - 1):
        krylov.append(fraction_apply(mrows, krylov[-1]))
    for rows in (krylov, [], va):
        basis, pivots = fraction_rref(rows, n)
        images = [fraction_apply(mrows, v) for v in basis]
        coords = [tuple(im[p] for p in pivots) for im in images]
        invariant = all(fraction_combination(c, basis, n) == im for c, im in zip(coords, images))
        assert invariant or rows is va
        if invariant:
            assert restrict_operator(m, Subspace.from_vectors(n, rows)) == Matrix(list(zip(*coords)))
        else:
            with pytest.raises(PreconditionError):
                restrict_operator(m, Subspace.from_vectors(n, rows))

    expected = []
    for i in range(n):
        for j in range(i, n):
            d = tuple(p + q for p, q in zip(t[i][j], t[j][i]))
            if any(d):
                expected.append(("antisymmetry", (i, j), d))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = [
                    fraction_product(t, e[a], fraction_product(t, e[b], e[c]))
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                ]
                d = tuple(map(sum, zip(*terms)))
                if any(d):
                    expected.append(("jacobi", (i, j, k), d))
    ok, violations = validate_lie(g)
    assert ok == (not expected)
    assert [(v.identity, v.indices, v.defect) for v in violations] == expected

    # Matrix.rref on a non-square matrix whose last row is a combination
    # of the others.
    cols = data.draw(st.integers(1, 5))
    wide = st.lists(sparse_rational, min_size=cols, max_size=cols)
    rrows = data.draw(st.lists(wide, min_size=1, max_size=4))
    cs = data.draw(st.lists(sparse_rational, min_size=len(rrows), max_size=len(rrows)))
    rrows.append(list(fraction_combination(cs, rrows, cols)))
    basis, pivots = fraction_rref(rrows, cols)
    reduced, rpivots, rank = Matrix(rrows).rref()
    zero = (Fraction(0),) * cols
    assert reduced.row_list() == list(basis) + [zero] * (len(rrows) - len(basis))
    assert (rpivots, rank) == (pivots, len(pivots))

    # inverse of mrows and of mrows with its last row made dependent.
    dependent = mrows[:-1] + [list(fraction_combination(cs[:n - 1], mrows[:-1], n))]
    for sq in (mrows, dependent):
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        basis, pivots = fraction_rref([list(r) + e for r, e in zip(sq, identity)], 2 * n)
        if pivots == tuple(range(n)):
            assert sq is not dependent
            assert Matrix(sq).inverse() == Matrix([r[n:] for r in basis])
        else:
            with pytest.raises(PreconditionError):
                Matrix(sq).inverse()

    # solve on rrows, underdetermined when rank < cols: a right-hand
    # side in the image and a random one, inconsistent in general.
    image_b = fraction_apply(rrows, data.draw(wide))
    random_b = tuple(data.draw(st.lists(sparse_rational, min_size=len(rrows), max_size=len(rrows))))
    for b in (image_b, random_b):
        basis, pivots = fraction_rref([list(r) + [y] for r, y in zip(rrows, b)], cols + 1)
        if pivots and pivots[-1] == cols:
            assert b is random_b and solve(Matrix(rrows), b) is None
            continue
        x = [Fraction(0)] * cols
        for r, p in zip(basis, pivots):
            x[p] = r[cols]
        assert solve(Matrix(rrows), b) == tuple(x)
        assert fraction_apply(rrows, x) == b


def restricted_fitting_split(mats):
    """The joint Fitting split as it was computed by restriction: each
    operator in turn is restricted to the running nilpotent part, split
    there by the kernel and the image of its power, and both parts are
    mapped back; proj_n is read off in Fractions."""
    n = mats[0].rows
    running = Subspace.full(n)
    v0_vectors = []
    for m in mats:
        if running.dim == 0:
            break
        r = restrict_operator(m, running)
        pw = r.power(r.rows)
        v0_vectors += (image(pw).rows * running.rows).row_list()
        running = Subspace.from_vectors(n, (kernel(pw).rows * running.rows).row_list())
    v_0 = Subspace.from_vectors(n, v0_vectors)
    zero = (Fraction(0),) * n
    basis = Matrix.from_columns(list(running.basis) + list(v_0.basis))
    target = Matrix.from_columns(list(running.basis) + [zero] * v_0.dim)
    return running, v_0, target * basis.inverse()


@st.composite
def commuting_family(draw):
    """Polynomials in one matrix A, which has a nilpotent block and an
    invertible block, after a rational change of basis."""
    a = draw(st.integers(0, 4))
    b = draw(st.integers(0 if a else 1, 3))
    n = a + b
    block = draw(invertible(b))[0] if b else []
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(a):
        for j in range(i + 1, a):
            d[i][j] = draw(small_rational)
    for i in range(b):
        d[a + i][a:] = block[i]
    s, sinv = draw(invertible(n))
    m = Matrix(s) * Matrix(d) * Matrix(sinv)
    # A constant term makes a member invertible on the nilpotent block,
    # so it is mostly left out, to keep both parts of the split nonzero.
    constants = st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-2)])
    family = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = [draw(constants)] + draw(st.lists(small_rational, min_size=1, max_size=3))
        p, power = Matrix.zeros(n, n), Matrix.identity(n)
        for c in coeffs:
            p, power = p + c * power, power * m
        family.append(p)
    return family


@st.composite
def recipe_lefts(draw):
    """The left multiplications of a recipe product: they commute, and
    an idempotent or an acting Jordan block gives them a nonzero v_0."""
    return lefts(draw(recipe())[1])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(family=st.one_of(commuting_family(), recipe_lefts()))
def test_fitting_split_matches_restricted_split(family):
    for fit, mats in ((fitting_split_family(family), family),
                      (fitting_split_single(family[0]), family[:1])):
        assert (fit.v_n, fit.v_0, fit.proj_n) == restricted_fitting_split(mats)
        assert fit == power_core_fitting(mats)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_nilpotency_chain_matches_power(data):
    """is_nilpotent_operator runs the chain of images of m to its end;
    it must say m**n == 0 on random matrices and on strictly upper
    triangular ones after a change of basis, 0 x 0 included."""
    n = data.draw(st.integers(0, 6))
    if data.draw(st.booleans()):
        m = Matrix(data.draw(st.lists(
            st.lists(small_rational, min_size=n, max_size=n), min_size=n, max_size=n)))
    else:
        upper = [[data.draw(small_rational) if i < j else 0 for j in range(n)] for i in range(n)]
        s, sinv = data.draw(invertible(n))
        m = Matrix(s) * Matrix(upper) * Matrix(sinv)
    assert is_nilpotent_operator(m) == m.power(m.rows).is_zero


def echelon_chain_end(first, images):
    """The chain loop as first written: one _kernels.echelon, read out as
    a Subspace, per step."""
    space, above = first, first.ambient_dim
    while 0 < space.dim < above:
        above, rows = space.dim, space._rows
        space = Subspace._from_sparse(first.ambient_dim, (v for b in rows for v in images(b)))
    return space


def assert_chain_end_matches_echelon_per_step(first, images):
    got, want = linalg._chain_end(first, images), echelon_chain_end(first, images)
    assert got == want and got.pivots == want.pivots
    if first.dim in (0, first.ambient_dim):
        assert got is first


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_chain_end_matches_echelon_per_step(data):
    """_chain_end, holding each term as the kept rows of the insertion
    step, must end where the loop of one echelon per step ends, from the
    span of a family's columns (a decreasing chain) and from the zero
    and the full space, on families of three kinds: products of n x r
    and r x n matrices, r < n, which need not commute; and strictly
    upper triangular or upper triangular matrices after one change of
    basis, whose chain reaches 0 or stops at a nonzero stable image.
    The stable image of the last kind must be the old loop's too."""
    n = data.draw(st.integers(1, 6))
    kind = data.draw(st.sampled_from(["low rank", "nilpotent", "triangular"]))
    s, sinv = data.draw(invertible(n))
    mats = []
    for _ in range(data.draw(st.integers(1, 3))):
        if kind == "low rank":
            r = data.draw(st.integers(0, n - 1))
            a, b = (data.draw(st.lists(st.lists(small_rational, min_size=c, max_size=c),
                                       min_size=rows, max_size=rows))
                    for rows, c in ((n, r), (r, n)))
            mats.append(Matrix(a) * Matrix(b) if r else Matrix.zeros(n, n))
        else:
            diagonal = kind == "triangular"
            upper = [[data.draw(small_rational) if i < j or (diagonal and i == j) else 0
                      for j in range(n)] for i in range(n)]
            mats.append(Matrix(s) * Matrix(upper) * Matrix(sinv))
    family = [linalg._column_map(m) for m in mats]

    def images(b):
        return (_push(cols, b, n) for cols in family)

    first = Subspace._from_sparse(n, (c for cols in family for c in cols.values()))
    for start in (first, Subspace.zero(n), Subspace.full(n)):
        assert_chain_end_matches_echelon_per_step(start, images)
    stable = linalg._stable_image(n, family)
    assert stable == echelon_chain_end(first, images)
    if kind == "nilpotent":
        assert stable.dim == 0


@pytest.mark.parametrize("right", [False, True])
def test_completeness_chains_match_echelon_per_step(right):
    """The chains A, A*A, (A*A)*A, ... and A, A*A, A*(A*A), ... of the
    catalog products and of two-generator products on filiform(n), as
    lr._chain_reaches_zero runs them."""
    products = [p for _, p in FIXTURES]
    for n in (5, 9, 16):
        e = standard_basis(n)
        products.append(two_generator_lr(filiform(n), e[0], e[1]))
    for p in products:
        assert_chain_end_matches_echelon_per_step(
            p._product_span(), lambda b: p._times_basis(b, right).values()
        )


def chain_end_reaches_zero(p, right):
    """The completeness chain as lr._chain_reaches_zero ran it before it
    read the images of a complement of A: the chain A, A*A, ... (or
    A*(A*A) when right is set) of linalg._chain_end, every term's
    images reduced, to its end."""
    return not linalg._chain_end(p._product_span(), lambda b: p._times_basis(b, right).values()).dim


@st.composite
def chain_products(draw):
    """Products whose chains take the exits of linalg._chain_vanishes:
    sparse random constants; strictly triangular ones (e_i e_j a
    combination of the e_k with k > max(i, j)), whose chains reach 0;
    h orthogonal idempotents beside a strictly triangular block, whose
    U-steps reach 0 short of A in this basis; and the shift product
    two_generator_lr(filiform(m), e_1, e_2).  The shift product always
    comes after a dense rational change of basis, the triangular and
    idempotent ones in some draws."""
    kind = draw(st.sampled_from(["random", "triangular", "idempotent", "shift"]))
    if kind == "shift":
        e = standard_basis(draw(st.integers(3, 6)))
        p = two_generator_lr(filiform(len(e)), e[0], e[1])
    else:
        n = draw(st.integers(1, 6))
        h = draw(st.integers(1, n)) if kind == "idempotent" else 0
        entries = {(a, a): {a: 1} for a in range(h)}
        for _ in range(draw(st.integers(0, 3 * n)) if h < n else 0):
            i, j = draw(st.integers(h, n - 1)), draw(st.integers(h, n - 1))
            low = 0 if kind == "random" else max(i, j) + 1
            if low < n:
                k = draw(st.integers(low, n - 1))
                entries.setdefault((i, j), {})[k] = draw(st.sampled_from([-2, -1, 1, 2]))
        p = Product.from_entries(n, entries)
    if kind == "shift" or kind != "random" and draw(st.booleans()):
        m, minv = draw(invertible(p.dim))
        p = Product(change_basis(p.table, m, minv))
    return p


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(p=chain_products())
def test_chain_reaches_zero_matches_the_chain(p):
    """lr._chain_reaches_zero, deciding from the chain's first step and
    the images of the unit vectors at A's non-pivot coordinates, must
    give the chain's answer on both sides.  The number of examples is
    the profile's: 100 by default, 2,000 under the "deep" profile of
    tests/conftest.py."""
    for right in (False, True):
        assert lr._chain_reaches_zero(p, right) == chain_end_reaches_zero(p, right)


# One product per exit of linalg._chain_vanishes on the chain A, A*A,
# (A*A)*A, ...; the chain A, A*A, A*(A*A), ... of each is checked too.
CHAIN_EXITS = {
    "A = 0": Product.zero(3),
    "A = V": known_lr("abelian1-idempotent")[1],
    "W_2 = 0": known_lr("heisenberg-half")[1],
    # e_0 e_0 = e_0: A = W_2 = <e_0>.
    "W_2 = A": Product.from_entries(2, {(0, 0): {0: 1}}),
    # A = <e_0, e_2>, W_2 = <e_0>; U_1 = <e_1 e_1> = <e_2>, U_2 = 0.
    "U reaches 0, the sum short of A": Product.from_entries(
        3, {(0, 0): {0: 1}, (1, 1): {2: 1}}),
    # U_1 = <e_0, e_2> = A, then U_2 = U_3 = <e_0>.
    "U repeats": Product.from_entries(3, {(0, 0): {0: 1}, (1, 0): {0: 1}, (1, 1): {2: 1}}),
    # W_2 = <e_1, e_2>; U_1 = <e_1, e_3>, then <e_2>, <e_1>, <e_2>, ...
    "U past dim W_2 + 1 steps": Product.from_entries(
        4, {(0, 0): {3: 1}, (0, 1): {1: 1}, (1, 0): {2: 1}, (2, 0): {1: 1}}),
    "U reaches 0, the sum A": known_lr("filiform12-shift")[1],
}


@pytest.mark.parametrize("name", list(CHAIN_EXITS))
def test_chain_reaches_zero_at_each_exit(name):
    p = CHAIN_EXITS[name]
    expected = name in ("A = 0", "W_2 = 0", "U reaches 0, the sum A")
    assert lr._chain_reaches_zero(p, False) == chain_end_reaches_zero(p, False) == expected
    assert lr._chain_reaches_zero(p, True) == chain_end_reaches_zero(p, True)


def all_slot_span(g):
    """The span of every constant slot of g, (j, i) and (i, i) included."""
    return Subspace._from_sparse(g.dim, [w for w in g._inz if w])


@pytest.mark.parametrize("g", [
    abelian(3), heisenberg(), filiform(9), free_two_step(4), diag_solvable([1, -2, "1/3"]),
    torus(3, 2, True),
])
def test_derived_algebra_from_half_the_slots_on_the_catalog(g):
    """LieAlgebra._product_span reads [g, g] off the slots i < j only."""
    g.ensure_valid()
    assert g._product_span() == all_slot_span(g)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_derived_algebra_from_half_the_slots(data):
    """The same on valid algebras after a rational change of basis."""
    g, _ = data.draw(algebra_and_product())
    m, minv = data.draw(invertible(g.dim))
    g = LieAlgebra(change_basis(g.brackets, m, minv))
    g.ensure_valid()
    assert g._product_span() == all_slot_span(g)


def dense_lr_violations(p):
    """The dense check: basis operator matrices, their pairwise
    commutators, and each nonzero column k of the commutator of i < j."""
    e = standard_basis(p.dim)
    out = []
    for identity, op in ((LR_LEFT, left_op), (LR_RIGHT, right_op)):
        mats = [op(p, x) for x in e]
        for i in range(p.dim):
            for j in range(i + 1, p.dim):
                d = mats[i] * mats[j] - mats[j] * mats[i]
                for k in range(p.dim):
                    if any(d.column(k)):
                        out.append((identity, (i, j, k), d.column(k)))
    return out


def dense_lemma_violations(p):
    """The dense basis identities of Lemma 14: operator products of
    basis vectors and of the products e_j e_k, compared as matrices."""
    n, e = p.dim, standard_basis(p.dim)
    ls = [left_op(p, x) for x in e]
    rs = [right_op(p, x) for x in e]
    out = []
    for i in range(n):
        for j in range(n):
            for which, a, b in (
                (0, ls[i] * rs[j], right_op(p, p.table[i][j])),
                (1, rs[i] * ls[j], left_op(p, p.table[j][i])),
            ):
                if a != b:
                    out.append((LEMMA_IDENTITIES[which], (i, j), a - b))
    for j in range(n):
        for k in range(n):
            w = p.table[j][k]
            if not any(w):
                continue
            for i in range(n):
                checks = (
                    (2, ls[i] * right_op(p, w), right_op(p, p.evaluate(e[i], w))),
                    (3, rs[i] * left_op(p, w), left_op(p, p.evaluate(w, e[i]))),
                    (4, ls[i] * left_op(p, w), left_op(p, p.evaluate(e[j], p.table[i][k]))),
                    (5, rs[i] * right_op(p, w), right_op(p, p.evaluate(p.table[j][i], e[k]))),
                )
                for which, a, b in checks:
                    if a != b:
                        out.append((LEMMA_IDENTITIES[which], (i, j, k), a - b))
    return out


def triples(violations):
    return [(v.identity, v.indices, v.defect) for v in violations]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_lr_certificates_match_dense_operator_checks(data):
    """Mostly failing inputs: arbitrary constants, antisymmetric or not."""
    n = data.draw(st.integers(1, 4))
    p = Product(data.draw(mixed_tensor(n)))
    dense = dense_lr_violations(p)
    compatibility = [
        (COMPATIBILITY, (i, j), tuple(a - b for a, b in zip(p.table[i][j], p.table[j][i])))
        for i in range(n)
        for j in range(i + 1, n)
        if p.table[i][j] != p.table[j][i]
    ]
    rep = check_lr(abelian(n), p)
    assert triples(rep.violations) == dense + compatibility
    assert rep.is_lr == (not dense)

    rights = [right_op(p, x) for x in standard_basis(n)]
    nilpotent = all(map(is_nilpotent_operator, rights))
    if any(v[0] == LR_RIGHT for v in dense):
        assert rep.is_complete is False
        with pytest.raises(PreconditionError):
            check_complete(p)
    else:
        assert rep.is_complete == check_complete(p) == nilpotent

    # Past the gate of check_lemma14 the basis identities hold by the
    # lemma; off it they must still be the dense operator identities.
    assert triples(lr._lemma_violations(p)) == dense_lemma_violations(p)


def fraction_compatibility(g, p):
    """The compatibility violations of p with g, on the Fraction tables."""
    n = p.dim
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            d = tuple(a - b - c for a, b, c in zip(p.table[i][j], p.table[j][i], g.brackets[i][j]))
            if any(d):
                out.append((COMPATIBILITY, (i, j), d))
    return out


def lr_pairs_of_dims_5_to_9():
    """Compatible LR pairs of dims 5-9: free2step3-half and the
    two-generator products on filiform(5), ..., filiform(9) and on two
    diag-solvable algebras."""
    pairs = [known_lr("free2step3-half")]
    for n in range(5, 10):
        e = standard_basis(n)
        pairs.append((filiform(n), two_generator_lr(filiform(n), e[0], e[1])))
    for weights in ([-3, 1, 2, 5], [2, -1, 3, 1, -2, 5, 4, -3]):
        g = diag_solvable(weights)
        pairs.append((g, two_generator_lr(g, standard_basis(g.dim)[0], (0,) + (1,) * len(weights))))
    return pairs


def changed_and_moved_lr_pair(case):
    """Pair number case of lr_pairs_of_dims_5_to_9 after a seeded
    rational change of basis: the algebra, the product's table, and
    that table with one constant moved by a seeded amount."""
    g, p = lr_pairs_of_dims_5_to_9()[case]
    n = p.dim
    rng = random.Random(case)
    m, minv = seeded_change_matrix(n, rng)
    g = LieAlgebra(change_basis(g.brackets, m, minv))
    table = change_basis(p.table, m, minv)
    moved = [[list(v) for v in row] for row in table]
    i, j, k = (rng.randrange(n) for _ in range(3))
    moved[i][j][k] += Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
    return g, table, moved


@pytest.mark.parametrize("case", range(8))
def test_lr_certificates_match_dense_operator_checks_in_dims_5_to_9(case):
    """check_lr's violations, in order and defect, must be the dense
    commutator columns and compatibility defects on LR pairs of dims 5-9
    after a seeded rational change of basis, where they hold, and on the
    same products with one constant moved by a seeded amount, where they
    mostly fail."""
    g, table, moved = changed_and_moved_lr_pair(case)
    for t in (table, moved):
        q = Product(t)
        dense = dense_lr_violations(q)
        rep = check_lr(g, q)
        assert triples(rep.violations) == dense + fraction_compatibility(g, q)
        assert rep.is_lr == (not dense)
    assert not dense_lr_violations(Product(table))


@pytest.mark.parametrize("case", range(8))
def test_lemma_violations_match_dense_operator_checks_in_dims_5_to_9(case):
    """The basis identities of Lemma 14, in order and defect, must be
    the dense operator identities on the LR products of dims 5-9 after
    a seeded rational change of basis, where they hold, and on the same
    products with one constant moved, where they mostly fail."""
    _, table, moved = changed_and_moved_lr_pair(case)
    for t in (table, moved):
        q = Product(t)
        assert triples(lr._lemma_violations(q)) == dense_lemma_violations(q)
    assert not lr._lemma_violations(Product(table))


def operator_lemma_defects(p, x, y, z):
    """The sampled identities as first computed: operator matrices of
    the Fraction vectors and their Matrix products, compared as
    matrices."""
    lx, rx = left_op(p, x), right_op(p, x)
    xy, yx, yz, xz = p.evaluate(x, y), p.evaluate(y, x), p.evaluate(y, z), p.evaluate(x, z)
    checks = [
        (lx * right_op(p, y), right_op(p, xy)),
        (rx * left_op(p, y), left_op(p, yx)),
        (lx * right_op(p, yz), right_op(p, p.evaluate(x, yz))),
        (rx * left_op(p, yz), left_op(p, p.evaluate(yz, x))),
        (lx * left_op(p, yz), left_op(p, p.evaluate(y, xz))),
        (rx * right_op(p, yz), right_op(p, p.evaluate(yx, z))),
    ]
    return [(name, a - b) for name, (a, b) in zip(LEMMA_IDENTITIES, checks) if a != b]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_sampled_lemma_identities_match_operator_products(data):
    """The sampled identities, compared on integer numerators over one
    denominator per identity, fail exactly where the Fraction operator
    products do, with the same defects: on arbitrary constants, where
    they mostly fail, and on LR products, where they hold."""
    if data.draw(st.booleans()):
        p = Product(data.draw(mixed_tensor(data.draw(st.integers(1, 4)))))
    else:
        p = data.draw(algebra_and_product())[1]
    vec = st.lists(sparse_rational, min_size=p.dim, max_size=p.dim).map(tuple)
    x, y, z = data.draw(vec), data.draw(vec), data.draw(vec)
    assert lr._lemma_defects(p, x, y, z) == operator_lemma_defects(p, x, y, z)


def fraction_sample_triples(dim, count, seed):
    """sample_triples as first computed: one Fraction per drawn entry."""
    rng = random.Random(seed)

    def rand_vec():
        return tuple(
            Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(dim)
        )

    return [(rand_vec(), rand_vec(), rand_vec()) for _ in range(count)]


@pytest.mark.parametrize("dim", [1, 3, 12])
def test_sample_draws_match_fraction_draws(dim):
    """The integer draws give the Fraction triples drawn entry by entry,
    and each drawn vector is in the common-denominator form of one."""
    for seed in range(5):
        expected = fraction_sample_triples(dim, 4, seed)
        assert sample_triples(dim, 4, seed) == expected
        for drawn, triple in zip(lr._random_triples(dim, 4, seed), expected):
            for (num, den), v in zip(drawn, triple):
                assert _to_vector(num, den) == v


def dense_operator(b, xs, right):
    """Flat numerators over b._den of b.operator(x, right), for x given by
    its nonzero (index, integer) pairs, summed from the constants b._inz:
    every column, as a dense list."""
    n, inz = b.dim, b._inz
    num = [0] * (n * n)
    for m, x in xs:
        for j in range(n):
            for k, c in inz[j * n + m] if right else inz[m * n + j]:
                num[k * n + j] += x * c
    return num


def apply_lemma_defects(p, x, y, z):
    """The sampled identities as computed before the products were read
    from the operators: each of the 8 products by the triple loop
    reference_product on the two vectors, the rest as in
    lr._lemma_defects."""
    n, d = p.dim, p._den
    (xn, dx), (yn, dy), (zn, dz) = (_scaled(v, n, p._kind) for v in (x, y, z))
    xs, ys, zs = _nonzero(xn), _nonzero(yn), _nonzero(zn)

    def times(a, b):
        return _nonzero(reference_product(p, a, b))

    def left(a):
        return dense_operator(p, a, False)

    def right(a):
        return dense_operator(p, a, True)

    def mul(a, b):
        return _kernels.mat_mul(a, b, n, n, n)

    lx, rx = left(xs), right(xs)
    xy, yx, yz, xz = times(xs, ys), times(ys, xs), times(ys, zs), times(xs, zs)
    checks = [
        (mul(lx, right(ys)), right(xy)),
        (mul(rx, left(ys)), left(yx)),
        (mul(lx, right(yz)), right(times(xs, yz))),
        (mul(rx, left(yz)), left(times(yz, xs))),
        (mul(lx, left(yz)), left(times(ys, xz))),
        (mul(rx, right(yz)), right(times(yx, zs))),
    ]
    dens = (dx * dy * d ** 2,) * 2 + (dx * dy * dz * d ** 3,) * 4
    return [
        (name, Matrix._raw(n, n, [s - t for s, t in zip(a, b)], den))
        for name, (a, b), den in zip(LEMMA_IDENTITIES, checks, dens)
        if a != b
    ]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_sampled_lemma_products_read_from_the_operators(data):
    """Products read as operator-vector products give the (name, defect)
    list, in order, of the products taken pair by pair, on arbitrary
    constants and on LR products."""
    if data.draw(st.booleans()):
        p = Product(data.draw(mixed_tensor(data.draw(st.integers(1, 4)))))
    else:
        p = data.draw(algebra_and_product())[1]
    vec = st.lists(sparse_rational, min_size=p.dim, max_size=p.dim).map(tuple)
    x, y, z = data.draw(vec), data.draw(vec), data.draw(vec)
    assert lr._lemma_defects(p, x, y, z) == apply_lemma_defects(p, x, y, z)


def loop_validate_lie(g):
    """validate_lie's report as first computed: antisymmetry on every
    pair i <= j and the Jacobi sum on every triple i < j < k, skipping
    those whose three bracket slots are all zero."""
    n, inz, den = g.dim, g._inz, g._den
    violations = []
    for i in range(n):
        for j in range(i, n):
            ij, ji = inz[i * n + j], inz[j * n + i]
            if not (ij or ji):
                continue
            out = [0] * n
            for k, c in ij + ji:
                out[k] += c
            if any(out):
                violations.append(lie.Violation("antisymmetry", (i, j), _to_vector(out, den)))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                cyclic = ((i, j, k), (j, k, i), (k, i, j))
                if not any(inz[b * n + c] for _, b, c in cyclic):
                    continue
                out = [0] * n
                for a, b, c in cyclic:
                    for m, x in inz[b * n + c]:
                        for t, y in inz[a * n + m]:
                            out[t] += x * y
                if any(out):
                    violations.append(lie.Violation("jacobi", (i, j, k), _to_vector(out, den * den)))
    return not violations, tuple(violations)


CATALOG = [filiform(5), filiform(7), free_two_step(3), diag_solvable([1, -2, 3])]


@st.composite
def jacobi_input(draw):
    """Arbitrary constants with one-sided pairs (e_i e_j != 0 = e_j e_i),
    or a catalog, fixture or recipe algebra, in its own basis or a
    random one."""
    kind = draw(st.sampled_from(["mixed", "catalog", "fixture", "recipe"]))
    if kind == "mixed":
        n = draw(st.integers(1, 5))
        t = draw(mixed_tensor(n))
        for i in range(n):
            for j in range(n):
                if i != j and draw(st.booleans()):
                    t[i][j] = [Fraction(0)] * n
        return LieAlgebra(t)
    if kind == "catalog":
        g = draw(st.sampled_from(CATALOG))
    elif kind == "fixture":
        g = draw(st.sampled_from(FIXTURES))[0]
    else:
        g = draw(recipe(max_dim=6))[0]
    if draw(st.booleans()):
        m, minv = draw(invertible(g.dim))
        g = LieAlgebra(change_basis(g.brackets, m, minv))
    return g


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(g=jacobi_input())
def test_jacobi_from_nonzero_pairs_matches_triple_loop(g):
    assert lie._validate_lie(g) == loop_validate_lie(g)


JACOBI_DIMS_6_TO_12 = [
    filiform(6),
    filiform(9),
    filiform(12),
    free_two_step(3),
    free_two_step(4),
    diag_solvable([2, -1, 3, 1, -2]),
    diag_solvable([1, -2, 3, 5, -1, 2, 4, -3, 1, 2, -4]),
]


@pytest.mark.parametrize("case", range(len(JACOBI_DIMS_6_TO_12)))
def test_validate_lie_matches_triple_loop_in_dims_6_to_12(case):
    """validate_lie's report, in order and defect, must be the loop over
    every triple on catalog algebras of dims 6-12 after a seeded
    rational change of basis, where every Jacobi sum that receives
    terms cancels, and with one constant c[i][j][k] moved by a seeded
    amount: alone, and with c[j][i][k] moved against it, so that the
    tensor stays antisymmetric and the Jacobi sums through that slot
    stop cancelling."""
    g = JACOBI_DIMS_6_TO_12[case]
    n = g.dim
    rng = random.Random(case)
    m, minv = seeded_change_matrix(n, rng)
    table = change_basis(g.brackets, m, minv)
    i, j = rng.sample(range(n), 2)
    k = rng.randrange(n)
    d = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
    one = [[list(v) for v in row] for row in table]
    one[i][j][k] += d
    both = [[list(v) for v in row] for row in one]
    both[j][i][k] -= d
    for t in (table, one, both):
        h = LieAlgebra(t)
        assert lie._validate_lie(h) == loop_validate_lie(h)
    assert lie._validate_lie(LieAlgebra(table)) == (True, ())
    assert {v.identity for v in lie._validate_lie(LieAlgebra(both))[1]} <= {"jacobi"}


def brute_force_jacobi_terms(g):
    """The triples i < j < k with a cyclic shift (a, b, c) for which
    some m has nonzero slots (b, c) at m and (a, m), by looping over
    every triple."""
    n, inz = g.dim, g._inz
    return {
        (i, j, k)
        for i, j, k in itertools.combinations(range(n), 3)
        if any(
            inz[a * n + m]
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
            for m, _ in inz[b * n + c]
        )
    }


def nonzero_slots(g):
    """The ((i, j), constants) pairs of g's nonzero slots, the form
    _validate_lie hands _jacobi_sums."""
    return [(divmod(ij, g.dim), w) for ij, w in enumerate(g._inz) if w]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(g=jacobi_input())
@example(g=filiform(9))
@example(g=LieAlgebra([[[Fraction(1)] * 5 for _ in range(5)] for _ in range(5)]))
def test_jacobi_terms_are_the_triples_with_a_nonzero_term(g):
    """validate_lie sums exactly the triples that receive a nonzero
    term: on a dense tensor that is every triple."""
    sums = lie._jacobi_sums(g.dim, nonzero_slots(g))
    assert set(sums) == brute_force_jacobi_terms(g)
    if all(g._inz):
        assert set(sums) == set(itertools.combinations(range(g.dim), 3))


@pytest.mark.parametrize("g", [filiform(128), free_two_step(15)], ids=["filiform128", "free15"])
def test_validate_lie_sums_no_triple_without_a_nonzero_term(g):
    """No [e_a, [e_b, e_c]] has a nonzero product of constants here
    (filiform: [e_1, e_i] = e_(i+1) only meets e_1 again; free two-step:
    every bracket is central), so no Jacobi sum is taken."""
    assert lie._validate_lie(g) == (True, ())
    assert lie._jacobi_sums(g.dim, nonzero_slots(g)) == {}


def operator_escape(b, s, both_sides):
    """Bilinear.escape as first computed: the dense left and right
    operators of each basis row of s, every column reduced in turn, as
    its nonzero pairs."""
    n = b.dim
    for row in s._rows:
        left = dense_operator(b, row, True)
        right = dense_operator(b, row, False) if both_sides else None
        for i in range(n):
            if s._remainder(_nonzero(left[i::n])):
                return "left", i
            if both_sides and s._remainder(_nonzero(right[i::n])):
                return "right", i
    return None


def assert_escape_matches_operator_loop(b, s):
    for both_sides in (False, True):
        assert b.escape(s, both_sides) == operator_escape(b, s, both_sides)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_escape_on_nonzero_columns_matches_operator_loop(data):
    """escape, reducing only the nonzero columns, names the first
    (side, i) that the loop over every column of the dense operators
    names, or None with it, on random subspaces of arbitrary constants,
    catalog algebras and LR products."""
    kind = data.draw(st.sampled_from(["mixed", "catalog", "product"]))
    if kind == "mixed":
        b = Product(data.draw(mixed_tensor(data.draw(st.integers(1, 5)))))
    elif kind == "catalog":
        b = data.draw(st.sampled_from(CATALOG))
    else:
        b = data.draw(algebra_and_product())[1]
    n = b.dim
    vecs = st.lists(st.lists(sparse_rational, min_size=n, max_size=n), max_size=n)
    assert_escape_matches_operator_loop(b, Subspace.from_vectors(n, data.draw(vecs)))


def catalog_ideals():
    """The terms of both series of the catalog algebras and fixtures,
    with the algebra and with the fixture's product, and each product's
    span of products."""
    for g in CATALOG + [f[0] for f in FIXTURES]:
        rep = series(g)
        for s in rep.lower_central + rep.derived:
            yield g, s
    for g, p in FIXTURES:
        for s in series(g).lower_central + (lr.product_span(p),):
            yield p, s


def test_escape_matches_operator_loop_on_catalog_ideals():
    for b, s in catalog_ideals():
        assert_escape_matches_operator_loop(b, s)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_opposite_swaps_left_and_right_violations(data):
    """x . y = -(y * x) turns the right identity at (i, j, k) into the
    left one at the same indices, with the same defect, and the other
    way round; compatibility with the abelian bracket is kept."""
    n = data.draw(st.integers(1, 4))
    p = Product(data.draw(mixed_tensor(n)))
    g = abelian(n)
    rep, rep_op = check_lr(g, p), check_lr(g, lr.opposite(p))
    swap = {LR_LEFT: LR_RIGHT, LR_RIGHT: LR_LEFT}
    swapped = {(swap[v.identity], v.indices, v.defect) for v in rep.violations if v.identity in swap}
    assert swapped == {(v.identity, v.indices, v.defect) for v in rep_op.violations if v.identity in swap}
    assert rep_op.is_compatible == rep.is_compatible


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_completeness_chain_is_nilpotency(data):
    """LR inputs, in the basis they come in or after a change of basis."""
    g, p = data.draw(algebra_and_product())
    if data.draw(st.booleans()):
        m, minv = data.draw(invertible(g.dim))
        g = LieAlgebra(change_basis(g.brackets, m, minv))
        p = Product(change_basis(p.table, m, minv))
    rep = check_lr(g, p)
    assume(rep.is_lr)
    e = standard_basis(p.dim)
    rights = all(is_nilpotent_operator(right_op(p, x)) for x in e)
    lefts = all(is_nilpotent_operator(left_op(p, x)) for x in e)
    assert rep.is_complete == check_complete(p) == rights
    if rep.is_compatible:
        t = two_of_three(g, p)
        assert (t.left_nilpotent, t.right_nilpotent) == (lefts, rights)


def eager_two_generator_table(g, x, y):
    """The two-generator table as first computed: the generation check
    up front, every candidate vector and operator formed before the
    scan, the span rebuilt from all kept vectors on every accept, and
    L(e_i) summed as Fraction matrices."""
    n = g.dim
    if subalgebra_generated(g, [x, y]).dim != n:
        raise NotGeneratedError("the two elements do not generate the algebra")
    ad_x, ad_y = ad(g, x), ad(g, y)
    chain = [(tuple(y), ad_y)]
    for _ in range(n):
        v, op = chain[-1]
        chain.append((ad_x.apply(v), ad_x * op))
    candidates = {}
    for l, (v, op) in enumerate(chain):
        for k in range(n + 1):
            candidates[(k, l)] = (v, op)
            v, op = ad_y.apply(v), ad_y * op
    order = [(0, 0)] + sorted(
        ((k, l) for k in range(n + 1) for l in range(1, n + 1)),
        key=lambda kl: (kl[0] + kl[1], kl[1], kl[0]),
    )
    selected = []
    span = Subspace.zero(n)
    for vec, op in [(tuple(x), Matrix.zeros(n, n))] + [candidates[kl] for kl in order]:
        if span.dim < n and not span.contains(vec):
            selected.append((vec, op))
            span = Subspace.from_vectors(n, [v for v, _ in selected])
    if len(selected) != n:
        raise InternalConsistencyError("candidate vectors do not span the algebra")
    inv = Matrix.from_columns([v for v, _ in selected]).inverse()
    table = []
    for i, ei in enumerate(standard_basis(n)):
        acc = Matrix.zeros(n, n)
        for c, (_, op) in zip(inv.apply(ei), selected):
            acc = acc + op * c
        table.append([acc.column(j) for j in range(n)])
    return Product(table).table


@st.composite
def two_generator_input(draw):
    """filiform 3..8 or diag-solvable of dim <= 7 after a random change of
    basis, with the catalog's generating pair carried along or a random
    pair of sparse vectors, about half of which do not generate."""
    if draw(st.booleans()):
        g = filiform(draw(st.integers(3, 8)))
        x, y = standard_basis(g.dim)[:2]
    else:
        weights = draw(
            st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=6, unique=True)
        )
        g = diag_solvable(weights)
        x, y = standard_basis(g.dim)[0], (0,) + (1,) * len(weights)
    n = g.dim
    m, minv = draw(invertible(n))
    g = LieAlgebra(change_basis(g.brackets, m, minv))
    if draw(st.booleans()):
        x, y = (tuple(sum(r[a] * v[a] for a in range(n)) for r in minv) for v in (x, y))
    else:
        x, y = (draw(st.lists(sparse_rational, min_size=n, max_size=n)) for _ in range(2))
    return g, x, y


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_two_generator_matches_eager_algorithm(data):
    g, x, y = data.draw(two_generator_input())
    try:
        expected = eager_two_generator_table(g, x, y)
    except (NotGeneratedError, InternalConsistencyError) as exc:
        with pytest.raises(type(exc)):
            two_generator_lr(g, x, y)
    else:
        assert two_generator_lr(g, x, y).table == expected


def inverse_two_generator_lr(g, x, y):
    """two_generator_lr as computed before its scan also inverted the
    kept vectors, with no insertion step: a candidate is kept when a
    fresh reduction of the kept vectors and it has a larger rank, U^-1
    comes from Matrix.inverse, and the table probes every column j of
    every kept operator.  Returns the uncertified Product."""
    n = g.dim
    xv, yv = vector(x), vector(y)

    def columns(v):
        num, den = _scale_fractions(v)
        return g._times_basis(_nonzero(num), False), den * g._den

    ad_x, ad_y = columns(xv), columns(yv)

    def step(kl):
        k, l = kl
        return ((k - 1, l), ad_y) if k else ((0, l - 1), ad_x)

    vectors = {None: _scale_fractions(xv), (0, 0): _scale_fractions(yv)}
    selected = []
    for kl in itertools.chain([None], _scan_order(n)):
        if len(selected) == n:
            break
        if kl not in vectors:
            before, (cols, cden) = step(kl)
            vectors[kl] = None
            if vectors[before] is None:
                continue
            pu, pd = vectors[before]
            u = _int_row(_push(cols, _nonzero(pu), n), n)
            if not any(u):
                continue
            d = pd * cden
            h = math.gcd(*u, d)
            vectors[kl] = ([c // h for c in u], d // h) if h > 1 else (u, d)
        u, d = vectors[kl]
        if Subspace._from_int_rows(n, [v for v, _, _ in selected] + [u]).dim > len(selected):
            selected.append((u, d, kl))
    if len(selected) != n:
        if subalgebra_generated(g, [xv, yv]).dim != n:
            raise NotGeneratedError("the two elements do not generate the algebra")
        raise InternalConsistencyError("candidate vectors do not span the algebra")

    def op(kl):
        """The nonzero columns of ad(y)^k ad(x)^l ad(y), over a
        denominator, pushed from ad(y) along the chain of kl."""
        path = []
        while kl != (0, 0):
            path.append(kl)
            kl = step(kl)[0]
        cols, den = ad_y
        for kl in reversed(path):
            scols, sden = step(kl)[1]
            cols = {j: w for j, c in cols.items() if (w := _push(scols, c, n))}
            den *= sden
        return cols, den

    uinv = Matrix._raw(n, n, [u[i] for i in range(n) for u, _, _ in selected], 1).inverse()
    terms = [(s, d, op(kl)) for s, (_, d, kl) in enumerate(selected) if kl is not None]
    den = math.lcm(*(oden for _, _, (_, oden) in terms))
    rows = []
    for i in range(n):
        weighted = []
        for s, d, (cols, oden) in terms:
            c = uinv._num[s * n + i]
            if c:
                weighted.append((c * d * (den // oden), cols))
        for j in range(n):
            acc = {}
            for c, cols in weighted:
                for k, a in cols.get(j, ()):
                    acc[k] = acc.get(k, 0) + c * a
            rows.append([(k, a) for k, a in acc.items() if a])
    return Product._from_int(n, rows, uinv._den * den)


def dense_transport(p, first, second, out):
    """The constants of (x, y) -> out p(first x, second y), and the
    factor first._den * second._den * out._den by which their
    denominator exceeds p's, as the package first computed them: two
    dense accumulators of length n for every pair (i, j)."""
    n = p.dim
    firsts, seconds, outs = (
        [_nonzero(r) for r in m.transpose()._int_rows()] for m in (first, second, out)
    )
    rows = []
    for i in range(n):
        half = p._times_basis(firsts[i], False)
        for j in range(n):
            mid = [0] * n
            for b, y in seconds[j]:
                for c, v in half.get(b, ()):
                    mid[c] += y * v
            res = [0] * n
            for c, z in enumerate(mid):
                if z:
                    for k, t in outs[c]:
                        res[k] += t * z
            rows.append(_nonzero(res))
    return rows, first._den * second._den * out._den


def seeded_basis_change(g, x, y, seed):
    """g, x and y in the basis b_i = sum_a m[a][i] e_a (change_basis), for
    the m that seeded_change_matrix draws from seed."""
    n = g.dim
    m, minv = seeded_change_matrix(n, random.Random(seed))
    x, y = (tuple(sum(r[a] * v[a] for a in range(n)) for r in minv) for v in (x, y))
    return LieAlgebra(change_basis(g.brackets, m, minv)), x, y


def seeded_change_matrix(n, rng):
    """m and its inverse as Fraction rows: the identity plus about n
    off-diagonal entries k/d (|k| <= 2, d in {1, 2, 3}) drawn from rng,
    redrawn until m is invertible."""
    while True:
        m = [[Fraction(int(a == i)) for i in range(n)] for a in range(n)]
        for _ in range(n):
            a, i = rng.randrange(n), rng.randrange(n)
            if a != i:
                m[a][i] = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
        try:
            return m, Matrix(m).inverse().row_list()
        except PreconditionError:
            continue


def two_generator_cases():
    """(g, x, y): filiform(n) for n <= 24, diag-solvable algebras,
    Heisenberg, a seeded rational change of basis of some of each, and
    the generators of filiform(24), of the weights 1..16 and of the
    changed filiform(9) times -2/3 and 5/7."""
    cases = [(filiform(n), *standard_basis(n)[:2]) for n in range(3, 25)]
    for weights in [[1], [2, -1], [1, 2, 3], [-3, 1, 2, 5], list(range(1, 17))]:
        g = diag_solvable(weights)
        cases.append((g, standard_basis(g.dim)[0], (0,) + (1,) * len(weights)))
    cases.append((heisenberg(), (1, 0, 0), (0, 1, 0)))
    changed = [c for c in cases if c[0].dim in (3, 4, 5, 9, 16)]
    cases += [seeded_basis_change(*c, seed) for seed, c in enumerate(changed)]
    # The scan holds each candidate at one integer scale with its image
    # vectors; non-unit rational generators make that scale nontrivial.
    # cases[21], [26] and [31] are filiform(24), the weights 1..16 and
    # the changed filiform(9).
    for g, x, y in (cases[21], cases[26], cases[31]):
        x, y = (tuple(c * a for a in v) for c, v in ((Fraction(-2, 3), x), (Fraction(5, 7), y)))
        cases.append((g, x, y))
    return cases


def test_two_generator_matches_inverse_table():
    """The scan, whose one elimination also solves for the table, gives
    the products of the scan followed by Matrix.inverse and the dense
    column probe, in the native bases and after a seeded rational
    change of basis."""
    for g, x, y in two_generator_cases():
        assert two_generator_lr(g, x, y) == inverse_two_generator_lr(g, x, y)


def test_non_generating_pair_still_raises():
    for g, x, y in [
        (heisenberg(), (1, 0, 0), (0, 0, 1)),
        (filiform(6), standard_basis(6)[0], standard_basis(6)[2]),
        (diag_solvable([1, 1]), (1, 0, 0), (0, 1, 1)),
    ]:
        for build in (two_generator_lr, inverse_two_generator_lr):
            with pytest.raises(NotGeneratedError):
                build(g, x, y)


def adapted_lift(split, q):
    """lift_product as first computed: phi checked on the numerators of
    split.phi, the n x n table of the product in the adapted basis, and
    that table contracted to C p(C^-1 x, C^-1 y), for C the change of
    basis, by dense_transport."""
    k, m = split.g_infinity.dim, q.dim
    n = k + m
    den = math.lcm(q._den, *(pa._den for pa in split.phi))
    phis = [[x * (den // pa._den) for x in pa._num] for pa in split.phi]
    for w in q._inz:
        if any(sum(c * phis[a][t] for a, c in w) for t in range(k * k)):
            raise PhiNotZeroError("the action does not vanish on a product of complement elements")
    adapted = [()] * (n * n)
    s = den // q._den
    for a in range(m):
        for t in range(k):
            adapted[(k + a) * n + t] = _nonzero(phis[a][t::k])
        for b in range(m):
            adapted[(k + a) * n + k + b] = [(k + c, v * s) for c, v in q._inz[a * m + b]]
    change = split.change_of_basis
    inv = change.inverse()
    rows, scale = dense_transport(Bilinear._from_int(n, adapted, 1), inv, inv, change)
    return Product._from_int(n, rows, den * scale)


def test_completion_matches_adapted_table_lift(monkeypatch):
    """complete_any lifts from the bracket of g; with the adapted-table
    lift in its place it gives the same completed products on the
    two-generator products of the cases above."""
    cases = [c for c in two_generator_cases() if c[0].dim <= 17]
    products = [(g, two_generator_lr(g, x, y)) for g, x, y in cases]
    got = [complete_any(g, p).completed for g, p in products]
    monkeypatch.setattr(construct, "lift_product", adapted_lift)
    assert got == [complete_any(g, p).completed for g, p in products]


def kernel_products(split):
    """Products on the abelian complement algebra of split: for v the
    first RREF row of the kernel of phi and of a complement of that
    kernel, where nonzero, and f a functional with f(v) = 0, the
    complete product x . y = f(x) f(y) v, which phi annihilates exactly
    when v lies in its kernel; none when the complement is a line."""
    m, k = split.complement.rows, split.g_infinity.dim
    flat = Matrix([[split.phi[a][s, t] for a in range(m)] for s in range(k) for t in range(k)])
    out = []
    for space in (kernel(flat), complement(kernel(flat))):
        if not space.dim or m < 2:
            continue
        v = space.basis[0]
        a = next(i for i, x in enumerate(v) if x)
        b = (a + 1) % m
        f = {a: -v[b], b: v[a]}
        entries = {(i, j): {c: x * f[i] * f[j] for c, x in enumerate(v) if x}
                   for i in f for j in f if f[i] and f[j]}
        out.append(Product.from_entries(m, entries))
    return out


def lift_cases():
    """(split, q): diag-solvable, the torus family, r2 + Q and the
    Heisenberg algebra acting on a line, native and after seeded
    changes of basis, with q the half bracket where the complement
    algebra is not abelian (there it is the Heisenberg algebra), the
    zero product and products that phi does or does not annihilate where
    it is, and the completions of the quotients of two-generator
    products."""
    algebras = [diag_solvable(w) for w in ([1], [1, 2], [2, -1, 3], list(range(1, 9)))]
    algebras += [torus(2, 3), torus(3, 3), torus(5, 3), torus(4, 2, True), torus(5, 3, True)]
    algebras += [LieAlgebra.from_brackets(3, {(0, 1): {1: 1}}),
                 LieAlgebra.from_brackets(*HEISENBERG_ON_A_LINE)]
    for seed, g in enumerate(list(algebras)):
        basis = seeded_change_matrix(g.dim, random.Random(seed))
        algebras.append(LieAlgebra(change_basis(g.brackets, *basis)))
    cases = []
    for g in algebras:
        split = split_metabelian(g)
        n_alg = split.complement_algebra
        if any(n_alg._inz):
            qs = [half_bracket(n_alg)]
        else:
            qs = [Product.zero(n_alg.dim), *kernel_products(split)]
        cases += [(split, q) for q in qs]
    for g, x, y in two_generator_cases():
        if g.dim <= 9:
            split = split_metabelian(g)
            q0 = quotient_product(g, two_generator_lr(g, x, y), split.g_infinity)
            cases.append((split, complete_nilpotent(split.complement_algebra, q0).completed))
    return cases


def test_lift_matches_adapted_table_lift():
    """lift_product, read from the bracket of g, gives the product of the
    adapted-table lift, or raises PhiNotZeroError where it does; cases
    of both kinds occur."""
    raised = 0
    for split, q in lift_cases():
        try:
            expected = adapted_lift(split, q)
        except PhiNotZeroError:
            raised += 1
            with pytest.raises(PhiNotZeroError):
                lift_product(split, q)
            continue
        assert lift_product(split, q) == expected
    assert 0 < raised


def assert_builders_agree(n, inz, den, factor=1):
    """Every builder of the map with constants c / den, for the pairs
    (k, c) of inz[i * n + j] in any order of k, stores the same
    canonical _inz and _den, and reads back the same tensor."""
    tensor = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    sparse = {}
    for i in range(n):
        for j in range(n):
            for k, c in inz[i * n + j]:
                tensor[i][j][k] = Fraction(c, den)
                sparse.setdefault((i, j), {})[k] = Fraction(c, den)
    for cls in (Bilinear, LieAlgebra, Product):
        built, expected = cls._from_int(n, inz, den), cls(tensor)
        assert type(built) is cls
        assert built.dim == expected.dim == n
        assert built.tensor == expected.tensor
        assert built._inz == expected._inz
        assert built._den == expected._den
    names = tuple(f"b{i}" for i in range(n))
    g = LieAlgebra._from_int(n, inz, den, names)
    assert (g.basis_names, g._valid) == (names, None)
    assert g == LieAlgebra(tensor, names) != LieAlgebra(tensor)
    p = Product(tensor)
    scaled = [[(k, c * factor) for k, c in w] for w in inz]
    for q in (
        Product.from_entries(n, sparse),
        Product._from_int(n, scaled, den * factor),
        lr.opposite(lr.opposite(p)),
    ):
        assert (q._inz, q._den) == (p._inz, p._den)
        assert q == p and q.tensor == p.tensor
    return p


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_from_int_matches_fraction_constructor(data):
    """Random sparse numerators over a denominator that shares a drawn
    factor with every one of them, so that the gcd step has work, with
    k in drawn order, so that the sort has work; every builder must
    agree, and == must agree with comparing the tensors."""
    n = data.draw(st.integers(0, 3))
    factor = data.draw(st.integers(1, 6))
    den = factor * data.draw(st.integers(1, 12))
    inz = []
    for _ in range(n * n):
        ks = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        inz.append([(k, factor * data.draw(st.integers(-9, 9).filter(bool))) for k in ks])
    p = assert_builders_agree(n, inz, den, data.draw(st.integers(1, 5)))
    # Without one pair, which may be empty: equal or not.
    drop = data.draw(st.integers(0, max(n * n - 1, 0)))
    q = Product._from_int(n, [[] if ij == drop else w for ij, w in enumerate(inz)], den)
    assert (p == q) == (p.tensor == q.tensor)
    assert (p == q) == (not inz or not inz[drop])


@pytest.mark.parametrize(
    "n, inz, den",
    [
        (0, [], 1),
        (0, [], 6),
        (1, [[]], 5),
        (1, [[(0, 4)]], 6),
        (2, [[], [], [], []], 6),
        (2, [[(0, 6)], [], [(1, -9)], [(0, 3), (1, 12)]], 15),
    ],
    ids=["dim0", "dim0-den", "dim1-zero", "dim1-shared-factor", "all-zero", "shared-factor"],
)
def test_from_int_edge_cases(n, inz, den):
    assert_builders_agree(n, inz, den, factor=3)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_memoized_reports_match_fresh_computation(data):
    """check_lr, validate_lie and series on new objects with the same
    constants are answered from the memo, and each answer equals the
    report computed afresh."""
    g, p = data.draw(algebra_and_product())
    rep, valid, ser = check_lr(g, p), validate_lie(g), series(g)
    h = LieAlgebra._from_int(g.dim, g._inz, g._den)
    q = Product._from_int(p.dim, p._inz, p._den)
    assert check_lr(h, q) is rep
    assert series(h) is ser
    assert validate_lie(h) == valid
    assert rep == lr._check_lr(h, q)
    assert ser == lie._series(h)
    ok, violations = lie._validate_lie(h)
    assert valid == (ok, list(violations))
