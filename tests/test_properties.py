"""Metamorphic properties: answers that must not depend on the basis.

A change of basis is applied to the raw structure constants with plain
Fraction arithmetic, so the oracle does not lean on the products it
checks.
"""

from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lralg.catalog import diag_solvable, filiform, known_lr, known_lr_names
from lralg.construct import complete_any, two_generator_lr
from lralg.errors import PreconditionError
from lralg.lie import LieAlgebra, is_two_step_solvable, series
from lralg.linalg import Matrix, standard_basis
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
