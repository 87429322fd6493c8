"""Lie algebras from structure constants: validation, series, quotients,
and the metabelian splitting."""

import sys
from fractions import Fraction
from math import lcm

import pytest
from conftest import reference_product, torus

from lralg.catalog import abelian, diag_solvable, filiform, free_two_step, heisenberg, r2
from lralg.errors import (
    DimensionMismatchError,
    InvalidLieAlgebraError,
    NotAnIdealError,
    NotTwoStepSolvableError,
)
from lralg.lie import (
    LieAlgebra,
    SplitDecomposition,
    ad,
    bracket_of_subspaces,
    is_two_step_solvable,
    quotient,
    series,
    split_metabelian,
    subalgebra_generated,
    validate_lie,
)
from lralg import _kernels, lie, linalg
from lralg.linalg import (
    Matrix,
    Subspace,
    _int_row,
    _nonzero,
    _scale_fractions,
    complement,
    restrict_operator,
    solve,
    standard_basis,
)

F = Fraction


def sl2() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


class TestConstruction:
    def test_from_brackets_antisymmetrizes(self):
        g = heisenberg()
        assert g.brackets[0][1][2] == 1
        assert g.brackets[1][0][2] == -1

    def test_bracket_evaluation(self):
        g = heisenberg()
        assert g.bracket((1, 0, 0), (0, 1, 0)) == (F(0), F(0), F(1))
        assert g.bracket((0, 1, 0), (1, 0, 0)) == (F(0), F(0), F(-1))
        assert g.bracket((1, 2, 3), (1, 2, 3)) == (F(0), F(0), F(0))

    def test_names(self):
        g = r2()
        assert g.name(0) == "x" and g.name(1) == "y"
        assert heisenberg().name(2) == "e3"

    def test_equality(self):
        assert heisenberg() == heisenberg()
        assert heisenberg() != abelian(3)

    def test_bad_index(self):
        with pytest.raises(DimensionMismatchError):
            LieAlgebra.from_brackets(2, {(0, 5): {0: 1}})


class TestValidation:
    def test_valid_algebras(self):
        for g in (heisenberg(), r2(), sl2(), filiform(6), free_two_step(3)):
            ok, violations = validate_lie(g)
            assert ok and not violations

    def test_antisymmetry_violation(self):
        # raw constructor does not antisymmetrize
        g = LieAlgebra([[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
        ok, violations = validate_lie(g)
        assert not ok
        assert any(v.identity == "antisymmetry" for v in violations)

    def test_jacobi_violation(self):
        # [e1,e2]=e3, [e1,e3]=e1 breaks Jacobi on (1,2,3)
        g = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
        ok, violations = validate_lie(g)
        assert not ok
        labels = {v.identity for v in violations}
        assert labels == {"jacobi"}
        assert violations[0].indices == (0, 1, 2)

    def test_ensure_valid_raises(self):
        g = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
        with pytest.raises(InvalidLieAlgebraError):
            g.ensure_valid()

    def test_str_of_violation_is_one_based(self):
        g = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
        _, violations = validate_lie(g)
        assert str(violations[0]) == "jacobi at (1, 2, 3)"


class TestAdjoint:
    def test_ad_heisenberg(self):
        g = heisenberg()
        m = ad(g, (1, 0, 0))
        assert m == Matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])

    def test_ad_is_bracket(self):
        g = sl2()
        x, y = (1, 2, 0), (0, 1, 1)
        assert ad(g, x).apply(y) == g.bracket(x, y)


class TestSeries:
    def test_heisenberg(self):
        rep = series(heisenberg())
        assert [s.dim for s in rep.lower_central] == [3, 1, 0]
        assert rep.g_infinity.dim == 0
        assert rep.nilpotent and rep.solvable
        assert rep.solvable_class == 2

    def test_r2(self):
        rep = series(r2())
        assert [s.dim for s in rep.lower_central] == [2, 1]
        assert rep.g_infinity.dim == 1
        assert not rep.nilpotent
        assert rep.solvable and rep.solvable_class == 2

    def test_sl2(self):
        rep = series(sl2())
        assert rep.g_infinity.dim == 3
        assert not rep.nilpotent and not rep.solvable
        assert rep.solvable_class is None

    def test_abelian(self):
        rep = series(abelian(4))
        assert [s.dim for s in rep.lower_central] == [4, 0]
        assert rep.nilpotent and rep.solvable_class == 1

    def test_filiform_class(self):
        rep = series(filiform(6))
        assert [s.dim for s in rep.lower_central] == [6, 4, 3, 2, 1, 0]
        assert rep.nilpotent

    def test_two_step_solvable(self):
        assert is_two_step_solvable(r2())
        assert is_two_step_solvable(heisenberg())
        assert is_two_step_solvable(filiform(8))
        assert is_two_step_solvable(abelian(2))
        assert not is_two_step_solvable(sl2())


class TestSubalgebraGenerated:
    def test_two_generators_fill_r2(self):
        g = r2()
        assert subalgebra_generated(g, [(1, 0), (0, 1)]).dim == 2

    def test_single_generator(self):
        g = heisenberg()
        assert subalgebra_generated(g, [(1, 0, 0)]).dim == 1

    def test_generators_of_filiform(self):
        g = filiform(7)
        e = standard_basis(7)
        assert subalgebra_generated(g, [e[0], e[1]]).dim == 7
        assert subalgebra_generated(g, [e[1], e[2]]).dim == 2


class TestBracketOfSubspaces:
    def test_derived_of_heisenberg(self):
        g = heisenberg()
        full = Subspace.full(3)
        d = bracket_of_subspaces(g, full, full)
        assert d.dim == 1
        assert d.contains((0, 0, 1))


class TestQuotient:
    def test_heisenberg_mod_center(self):
        g = heisenberg()
        center = Subspace.from_vectors(3, [(0, 0, 1)])
        q, proj, sect = quotient(g, center)
        assert q.dim == 2
        assert all(not any(v) for row in q.brackets for v in row)
        assert proj * sect == Matrix.identity(2)

    def test_not_an_ideal(self):
        g = heisenberg()
        line = Subspace.from_vectors(3, [(1, 0, 0)])
        with pytest.raises(NotAnIdealError):
            quotient(g, line)

    def test_projection_reads_remainders_with_no_dense_product(self, mat_mul_calls):
        """Column j of the projection is the remainder of e_j against
        the ideal at the non-pivot coordinates, read with no Matrix
        product; checked on the zero and the full ideal, coordinate
        ideals and subspaces of an abelian algebra off the coordinates."""
        cases = [(heisenberg(), Subspace.from_vectors(3, [(0, 0, 1)]))]
        cases += [(filiform(6), ideal) for ideal in series(filiform(6)).lower_central]
        cases += [(abelian(4), Subspace.from_vectors(4, vs)) for vs in (
            [], [(1, 2, 0, Fraction(1, 3))], [(1, 2, 0, Fraction(1, 3)), (0, 3, -1, 0)],
            standard_basis(4))]
        mat_mul_calls.clear()
        quotients = [quotient(g, ideal) for g, ideal in cases]
        assert mat_mul_calls == []
        for (g, ideal), (q, proj, sect) in zip(cases, quotients):
            free = complement(ideal).pivots
            assert proj.shape == (q.dim, g.dim) and sect.shape == (g.dim, q.dim)
            for j, e in enumerate(standard_basis(g.dim)):
                assert proj.column(j) == tuple(ideal.reduce(e)[f] for f in free)
            assert proj * sect == Matrix.identity(q.dim)

    def test_projection_is_homomorphism(self):
        g = filiform(5)
        rep = series(g)
        ideal = rep.lower_central[-2]  # the last nonzero term, central
        q, proj, _ = quotient(g, ideal)
        for i in range(5):
            for j in range(5):
                lhs = proj.apply(g.brackets[i][j])
                rhs = q.bracket(proj.column(i), proj.column(j))
                assert lhs == rhs


class TestSplitMetabelian:
    def test_r2_frozen(self):
        sp = split_metabelian(r2())
        assert sp.g_infinity_basis == ((F(0), F(1)),)
        assert sp.complement_basis == ((F(1), F(0)),)
        assert sp.phi[0] == Matrix([[1]])
        assert sp.change_of_basis == Matrix([[0, 1], [1, 0]])

    def test_complement_correction(self):
        # [x, z] = z and [x, y] = z force the complement through y - z
        g = LieAlgebra.from_brackets(3, {(0, 2): {2: 1}, (0, 1): {2: 1}})
        sp = split_metabelian(g)
        assert sp.g_infinity_basis == ((F(0), F(0), F(1)),)
        assert sp.complement_basis == ((F(1), F(0), F(0)), (F(0), F(1), F(-1)))

    def test_complement_is_subalgebra(self):
        g = diag_solvable([1, 2, "1/3"])
        sp = split_metabelian(g)
        comp = Subspace.from_vectors(g.dim, sp.complement_basis)
        for a in sp.complement_basis:
            for b in sp.complement_basis:
                assert comp.contains(g.bracket(a, b))

    def test_phi_is_action_by_bracket(self):
        g = diag_solvable([1, 2])
        sp = split_metabelian(g)
        ginf = Subspace.from_vectors(g.dim, sp.g_infinity_basis)
        for a, w in enumerate(sp.complement_basis):
            m = sp.phi[a]
            for t, b in enumerate(sp.g_infinity_basis):
                expect = ginf.coordinates(g.bracket(w, b))
                assert m.column(t) == expect

    def test_nilpotent_gives_trivial_split(self):
        sp = split_metabelian(filiform(5))
        assert sp.g_infinity_basis == ()
        assert len(sp.complement_basis) == 5
        assert sp.change_of_basis == Matrix.identity(5)

    def test_rejects_non_metabelian(self):
        with pytest.raises(NotTwoStepSolvableError):
            split_metabelian(sl2())

    def test_phi_of_rejects_coordinates_of_the_wrong_length(self):
        sp = split_metabelian(diag_solvable([1, 2, 3]))
        assert len(sp.phi) == 1
        assert sp.phi_of((2,)) == 2 * sp.phi[0]
        for coords in ((1, 2, 3, 4, 5), (), (1, 0)):
            with pytest.raises(DimensionMismatchError):
                sp.phi_of(coords)


def dense_complement(g: LieAlgebra) -> Matrix:
    """The complement as the split formed it with one dense row per
    equation of the correction system and linalg.solve: the oracle."""
    sp = split_metabelian(g)
    ginf, phi, n_alg = sp.g_infinity, sp.phi, sp.complement_algebra
    units = complement(ginf)
    free, n, k = units.pivots, g.dim, ginf.dim
    q = len(free)
    pairs = [(a, b) for a in range(q) for b in range(a + 1, q)]
    comp = units.rows
    if not (k and pairs):
        return comp
    eqs, rhs = [], []
    for a, b in pairs:
        pa, pb = phi[a], phi[b]
        den = lcm(pa._den, pb._den, n_alg._den, g._den)
        v = _int_row(g._inz[free[a] * n + free[b]], n)
        for s in range(k):
            row = [0] * (q * k)
            for t in range(k):
                row[b * k + t] += pa._num[s * k + t] * (den // pa._den)
                row[a * k + t] -= pb._num[s * k + t] * (den // pb._den)
            for m, x in n_alg._inz[a * q + b]:
                row[m * k + s] -= x * (den // n_alg._den)
            eqs += row
            rhs.append(-v[ginf.pivots[s]] * (den // g._den))
    sol = solve(Matrix._raw(len(rhs), q * k, eqs, 1), rhs)
    snum, sden = _scale_fractions(sol)
    return comp + Matrix._raw(q, k, snum, sden) * ginf.rows


SPLIT_CASES = [
    (torus(3, 3), False), (torus(6, 6), False), (torus(12, 12), False), (torus(5, 3), False),
    (torus(3, 3, True), True), (torus(6, 6, True), True), (torus(12, 12, True), True),
    (torus(5, 3, True), True), (torus(2, 5, True), True),
    (diag_solvable([1, 2, "1/3"]), False), (filiform(8), False),
    (LieAlgebra.from_brackets(3, {(0, 2): {2: 1}, (0, 1): {2: 1}}), True),
]


@pytest.mark.parametrize("g, forms_system", SPLIT_CASES)
def test_split_complement_matches_dense_system(g, forms_system):
    """The complement matches the dense system's, and phi, held by the
    split as integer columns, is the dense restriction of ad of each
    complement row to g_infinity."""
    split = split_metabelian(g)
    assert split.complement == dense_complement(g)
    assert split.phi == tuple(
        restrict_operator(g.operator(r), split.g_infinity) for r in split.complement_basis
    )


@pytest.mark.parametrize("g, forms_system", SPLIT_CASES)
def test_split_forms_no_dense_product(monkeypatch, g, forms_system):
    """phi is composed and compared on its integer columns, and the
    corrected complement is built on sparse rows: the split multiplies
    no Matrices, with or without a correction system, and never calls
    phi_of."""
    products, phi_of = [], []
    real, real_of = _kernels.mat_mul, SplitDecomposition.phi_of
    monkeypatch.setattr(_kernels, "mat_mul", lambda *args: products.append(1) or real(*args))
    monkeypatch.setattr(SplitDecomposition, "phi_of",
                        lambda *args: phi_of.append(1) or real_of(*args))
    split_metabelian(g)
    assert products == []
    assert phi_of == []


@pytest.mark.parametrize("g, forms_system", SPLIT_CASES)
def test_split_system_is_sparse_and_only_formed_when_needed(monkeypatch, g, forms_system):
    """The correction system is formed only when a right-hand side is
    nonzero, then as sparse rows of at most 2k + q + 1 entries, reduced
    by one echelon call of width q k + 1 on split_metabelian's list
    eqs; the dense-format adapter _kernels.rref is never called."""
    k = series(g).g_infinity.dim  # memoized: the series reduces its own spans
    q = g.dim - k
    systems, dense = [], []
    real = _kernels.echelon

    def echelon(rows, cols):
        if rows is sys._getframe(2).f_locals.get("eqs"):
            assert cols == q * k + 1
            systems.append(rows)
        return real(rows, cols)

    monkeypatch.setattr(_kernels, "echelon", echelon)
    monkeypatch.setattr(_kernels, "rref", lambda *args: dense.append(args))
    split_metabelian(g)
    assert dense == []
    assert len(systems) == int(forms_system)
    for rows in systems:
        assert len(rows) == k * q * (q - 1) // 2
        assert all(len(r) <= 2 * k + q + 1 for r in rows)


def test_bracket_of_subspaces_multiplies_only_linked_pairs(monkeypatch):
    """[g, g] of a free two-step nilpotent algebra is central: no
    constant links two of its basis rows, so no pair is multiplied (no
    row is pushed through the columns of another)."""
    g = free_two_step(6)
    g2 = series(g).lower_central[1]
    calls = []
    real = lie._push
    monkeypatch.setattr(lie, "_push", lambda *args: calls.append(1) or real(*args))
    assert bracket_of_subspaces(g, g2, g2).dim == 0
    assert calls == []


def test_bracket_of_subspaces_scans_no_accumulator_on_one_term_columns(monkeypatch):
    """[g, g] of filiform(64) pushes each basis row through the columns
    of ad e_i, and every such product reaches one column from one term:
    it is that column as it is, so no length-n accumulator is made and
    scanned (_nonzero)."""
    g = filiform(64)
    full = Subspace.full(g.dim)
    calls = []
    real = linalg._nonzero
    monkeypatch.setattr(linalg, "_nonzero", lambda *args: calls.append(1) or real(*args))
    assert bracket_of_subspaces(g, full, full).dim == 62
    assert calls == []


@pytest.mark.parametrize(
    "g", [filiform(7), free_two_step(4), diag_solvable([1, -2, "1/2"]), sl2(), torus(3, 2, True)]
)
def test_bracket_of_subspaces_matches_all_pairs(g):
    """The span of the linked pairs' brackets is the span of all of
    them, on every pair of series terms and coordinate subspaces."""
    n = g.dim
    rep = series(g) if is_two_step_solvable(g) else None
    spaces = [Subspace.full(n), complement(g._product_span()), g._product_span()]
    spaces += [Subspace.from_vectors(n, standard_basis(n)[i::2]) for i in range(2)]
    spaces += list(rep.lower_central if rep else ())
    for a in spaces:
        for b in spaces:
            rows = [reference_product(g, _nonzero(u), _nonzero(v))
                    for u in a.rows._int_rows() for v in b.rows._int_rows()]
            assert bracket_of_subspaces(g, a, b) == Subspace._from_int_rows(n, rows)
