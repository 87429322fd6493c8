"""Properties checked against plain Fraction arithmetic.

Metamorphic: answers must not depend on the basis.  A change of basis
is applied to the raw structure constants with plain Fraction
arithmetic, so the oracle does not lean on the products it checks.

Oracle: operators, spans and Jacobi defects, which the library computes
on integer numerators over a common denominator, must match a
test-local computation on Fractions.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lralg.catalog import diag_solvable, filiform, known_lr, known_lr_names
from lralg.construct import complete_any, two_generator_lr
from lralg.errors import PreconditionError
from lralg.lie import LieAlgebra, bracket_of_subspaces, is_two_step_solvable, series, validate_lie
from lralg.linalg import Matrix, Subspace, standard_basis
from lralg.lr import Product, check_lr

FIXTURES = [f for f in map(known_lr, known_lr_names()) if f[0].dim <= 6]

small_rational = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))


@st.composite
def algebra_and_product(draw):
    kind = draw(st.sampled_from(["fixture", "filiform", "diag"]))
    if kind == "fixture":
        return draw(st.sampled_from(FIXTURES))
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

    lr, compatible, _ = flags(g, p)
    if lr and compatible and is_two_step_solvable(g):
        cert, cert2 = complete_any(g, p), complete_any(g2, p2)
        assert flags(g2, cert2.completed) == (True, True, True)
        fitting = (cert.fitting.v_n.dim, cert.fitting.v_0.dim)
        assert (cert2.fitting.v_n.dim, cert2.fitting.v_0.dim) == fitting


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

    e = standard_basis(n)
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
