"""Exact linear algebra: matrices, subspaces, Fitting decompositions."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lralg import _kernels
from lralg.catalog import (
    diag_solvable,
    filiform,
    free_two_step,
    heisenberg,
    known_lr,
    known_lr_names,
    r2,
)
from lralg.errors import (
    DimensionMismatchError,
    NonCommutingFamilyError,
    PreconditionError,
)
from lralg.lie import series
from lralg.linalg import (
    FittingSplit,
    Matrix,
    Subspace,
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
    to_fraction,
    vector,
    _column_map,
    _fitting_split_commuting,
    _int_row,
    _sparse_rows,
)
from lralg.lr import Product, _chain_reaches_zero, check_lr, product_span, quotient_product
from test_kernels import dense_rref_rows
from test_properties import fraction_rref

F = Fraction


class TestMatrixBasics:
    def test_construction_and_indexing(self):
        m = Matrix([[1, "1/2"], [F(3), 0]])
        assert m.shape == (2, 2)
        assert m[0, 1] == F(1, 2)
        assert m.row(1) == (F(3), F(0))
        assert m.column(0) == (F(1), F(3))

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Matrix([[1, 2], [3]])
        with pytest.raises(DimensionMismatchError):
            Matrix.from_columns([(1, 2), (3,)])

    def test_from_columns_keeps_the_column_count(self):
        assert Matrix.from_columns([(1, 2), (3, 4)]) == Matrix([[1, 3], [2, 4]])
        assert Matrix.from_columns([]).shape == (0, 0)
        assert Matrix.from_columns([(), ()]).shape == (0, 2)

    def test_arithmetic(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a + b == Matrix([[1, 3], [4, 4]])
        assert a - b == Matrix([[1, 1], [2, 4]])
        assert a * b == Matrix([[2, 1], [4, 3]])
        assert b * a == Matrix([[3, 4], [1, 2]])
        assert a * F(1, 2) == Matrix([["1/2", 1], ["3/2", 2]])
        assert F(1, 2) * a == a * F(1, 2)
        assert -a == Matrix([[-1, -2], [-3, -4]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Matrix([[1, 2]]) * Matrix([[1, 2]])
        with pytest.raises(DimensionMismatchError):
            Matrix([[1, 2]]) + Matrix([[1], [2]])

    def test_apply(self):
        m = Matrix([["1/2", 0], [1, 1]])
        assert m.apply((2, 3)) == (F(1), F(5))

    def test_transpose_power_identity(self):
        m = Matrix([[1, 1], [0, 1]])
        assert m.transpose() == Matrix([[1, 0], [1, 1]])
        assert m.power(0) == Matrix.identity(2)
        assert m.power(3) == Matrix([[1, 3], [0, 1]])
        with pytest.raises(DimensionMismatchError):
            Matrix([[1, 2]]).power(2)

    def test_is_zero(self):
        assert Matrix.zeros(2, 3).is_zero
        assert not Matrix([[0, "1/7"]]).is_zero

    def test_equality_ignores_representation(self):
        assert Matrix([["2/4", 0], [0, 1]]) == Matrix([["1/2", 0], [0, 1]])


class TestRrefSolveKernel:
    def test_rref_frozen(self):
        m, pivots, rank = Matrix([[1, 2], [2, 4]]).rref()
        assert m == Matrix([[1, 2], [0, 0]])
        assert pivots == (0,)
        assert rank == 1

    def test_rref_fractions(self):
        m, pivots, rank = Matrix([[2, 1], [4, 3]]).rref()
        assert m == Matrix.identity(2)
        assert rank == 2

    def test_kernel_frozen(self):
        ker = kernel(Matrix([[0, 1], [0, 0]]))
        assert ker.dim == 1
        assert ker.basis == ((F(1), F(0)),)

    def test_kernel_full_rank(self):
        assert kernel(Matrix.identity(3)).dim == 0

    def test_image(self):
        img = image(Matrix([[1, 2], [2, 4]]))
        assert img.dim == 1
        assert img.contains((1, 2))
        assert not img.contains((1, 0))

    def test_solve_unique(self):
        m = Matrix([[1, 1], [0, 1]])
        assert solve(m, (3, 1)) == (F(2), F(1))

    def test_solve_inconsistent(self):
        assert solve(Matrix([[1, 1], [2, 2]]), (1, 3)) is None

    def test_solve_underdetermined_free_vars_zero(self):
        # x + y = 2 with y free: representative has y = 0
        assert solve(Matrix([[1, 1]]), (2,)) == (F(2), F(0))

    def test_inverse(self):
        m = Matrix([[2, 1], [1, 1]])
        assert m.inverse() == Matrix([[1, -1], [-1, 2]])
        assert m * m.inverse() == Matrix.identity(2)
        with pytest.raises(PreconditionError):
            Matrix([[1, 2], [2, 4]]).inverse()


class TestSubspace:
    def test_canonical_basis(self):
        s = Subspace.from_vectors(3, [(2, 4, 0), (1, 2, 1)])
        assert s.dim == 2
        assert s.pivots == (0, 2)
        assert s.basis == ((F(1), F(2), F(0)), (F(0), F(0), F(1)))

    def test_same_span_same_object_data(self):
        a = Subspace.from_vectors(2, [(1, 1), (1, -1)])
        b = Subspace.from_vectors(2, [(3, 0), (0, "1/5")])
        assert a == b

    def test_value_semantics(self):
        a = Subspace.from_vectors(3, [(1, 2, 0), (0, 0, 1)])
        b = Subspace.from_vectors(3, [(2, 4, 3), ("1/2", 1, "-1/3")])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Subspace.full(3), Subspace.zero(3)}) == 3
        assert isinstance(a.basis, tuple)
        assert all(isinstance(v, tuple) and all(type(x) is F for x in v) for v in a.basis)
        assert a.basis_matrix() == Matrix(a.basis)

    def test_contains_and_coordinates(self):
        s = Subspace.from_vectors(3, [(1, 0, 1), (0, 1, 1)])
        assert s.contains((2, 3, 5))
        assert not s.contains((0, 0, 1))
        assert s.coordinates((2, 3, 5)) == (F(2), F(3))
        assert s.coordinates((0, 0, 1)) is None

    def test_reduce(self):
        s = Subspace.from_vectors(3, [(1, 0, 1)])
        r = s.reduce((2, 1, 0))
        assert r == (F(0), F(1), F(-2))
        assert s.reduce((1, 0, 1)) == (F(0), F(0), F(0))

    def test_sum_intersection(self):
        a = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        b = Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
        assert subspace_sum(a, b).dim == 3
        inter = subspace_intersection(a, b)
        assert inter.dim == 1
        assert inter.contains((0, 1, 0))

    def test_contains_subspace(self):
        big = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        small = Subspace.from_vectors(3, [(1, 1, 0)])
        assert big.contains_subspace(small)
        assert not small.contains_subspace(big)

    def test_complement(self):
        s = Subspace.from_vectors(3, [(1, 2, 0)])
        c = complement(s)
        assert c.dim == 2
        assert subspace_sum(s, c).dim == 3
        assert subspace_intersection(s, c).dim == 0
        # complement picks standard vectors at the non-pivot coordinates
        assert c.basis == ((F(0), F(1), F(0)), (F(0), F(0), F(1)))

    def test_zero_and_full(self):
        assert Subspace.zero(4).dim == 0
        assert Subspace.full(4).dim == 4
        assert Subspace.full(4).contains((1, 2, 3, 4))


class TestOperators:
    def test_restrict_operator(self):
        m = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 5]])
        s = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
        r = restrict_operator(m, s)
        assert r == Matrix([[1, 1], [0, 1]])

    def test_restrict_requires_invariance(self):
        m = Matrix([[0, 0], [1, 0]])
        s = Subspace.from_vectors(2, [(1, 0)])
        with pytest.raises(PreconditionError):
            restrict_operator(m, s)

    def test_subspace_questions_read_only_the_sparse_rows(self, mat_mul_calls):
        """Restriction, intersection and operators read the sparse rows and
        the constants' column index: no dense product and no Matrix view
        of a Subspace, on the filiform algebra's series, which ad(e1)
        leaves invariant, and a complement of one of its terms."""
        g = filiform(12)
        terms = series(g).lower_central
        spaces = terms + (complement(terms[2]),)
        ad_x = g.operator(standard_basis(12)[0])
        assert g.operator(standard_basis(12)[1], right=True) != ad_x
        for s in terms:
            assert restrict_operator(ad_x, s).rows == s.dim
        for s in spaces:
            for t in spaces:
                assert subspace_intersection(s, t).dim <= min(s.dim, t.dim)
        assert mat_mul_calls == []
        assert all(s._matrix is None for s in spaces)

    def test_nilpotent_detection(self):
        assert is_nilpotent_operator(Matrix([[0, 1], [0, 0]]))
        assert is_nilpotent_operator(Matrix.zeros(3, 3))
        assert is_nilpotent_operator(Matrix.zeros(0, 0))
        assert not is_nilpotent_operator(Matrix.identity(2))
        # rotation has no real eigenvalues but is not nilpotent
        assert not is_nilpotent_operator(Matrix([[0, 1], [-1, 0]]))


class TestFitting:
    def test_single_frozen(self):
        m = Matrix([[1, 1], [0, 0]])
        fit = fitting_split_single(m)
        assert fit.v_n.basis == ((F(1), F(-1)),)
        assert fit.v_0.basis == ((F(1), F(0)),)
        assert fit.proj_n == Matrix([[0, -1], [0, 1]])

    def test_single_matches_power_kernel_image(self):
        m = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 3]])
        fit = fitting_split_single(m)
        p = m.power(3)
        assert fit.v_n == kernel(p)
        assert fit.v_0 == image(p)

    def test_projection_invariants(self):
        m = Matrix([[1, 1], [0, 0]])
        fit = fitting_split_single(m)
        assert fit.proj_n * fit.proj_n == fit.proj_n
        for b in fit.v_n.basis:
            assert fit.proj_n.apply(b) == b
        for b in fit.v_0.basis:
            assert not any(fit.proj_n.apply(b))

    def test_family_disjoint_nilpotent_directions(self):
        a = Matrix([[0, 0], [0, 1]])
        b = Matrix([[1, 0], [0, 0]])
        fit = fitting_split_family([a, b])
        assert fit.v_n.dim == 0
        assert fit.v_0.dim == 2

    def test_family_restriction_nilpotent(self):
        mats = [Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 2]])]
        fit = fitting_split_family(mats)
        assert fit.v_n.dim == 2
        for m in mats:
            assert is_nilpotent_operator(restrict_operator(m, fit.v_n))

    def test_family_must_commute(self):
        a = Matrix([[0, 1], [0, 0]])
        b = Matrix([[0, 0], [1, 0]])
        with pytest.raises(NonCommutingFamilyError):
            fitting_split_family([a, b])

    def test_unchecked_core_rejects_a_split_that_does_not_decompose(self):
        """_fitting_split_commuting assumes the family commutes; for
        e2 -> e1 and the projection onto e1, which do not, the stable
        image <e1> and the annihilator 0 of the transposed family's do
        not decompose Q^2, and the graph of proj_n is not formed."""
        cols = [{1: [(0, 1)]}, {0: [(0, 1)]}]
        with pytest.raises(PreconditionError, match="do not decompose"):
            _fitting_split_commuting(2, cols)

    def test_empty_family_whole_space_nilpotent(self):
        fit = fitting_split_family([Matrix.zeros(2, 2)])
        assert fit.v_n.dim == 2
        assert fit.v_0.dim == 0

    def test_v_n_is_joint_power_kernel(self):
        # v_n must equal the intersection of ker(m_i^n)
        mats = [Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 1]]),
                Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 2]])]
        fit = fitting_split_family(mats)
        joint = Subspace.full(3)
        for m in mats:
            joint = subspace_intersection(joint, kernel(m.power(3)))
        assert fit.v_n == joint


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def square_matrix(draw, max_dim=4):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    rows = [
        [draw(small_fracs) for _ in range(n)] for _ in range(n)
    ]
    return Matrix(rows)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(square_matrix())
    def test_rref_idempotent(self, m):
        r1, piv1, rank1 = m.rref()
        r2, piv2, rank2 = r1.rref()
        assert r1 == r2 and piv1 == piv2 and rank1 == rank2

    @settings(max_examples=60, deadline=None)
    @given(square_matrix())
    def test_kernel_vectors_annihilated(self, m):
        ker = kernel(m)
        for b in ker.basis:
            assert not any(m.apply(b))
        assert ker.dim + image(m).dim == m.cols

    @settings(max_examples=40, deadline=None)
    @given(square_matrix())
    def test_fitting_single_direct_sum(self, m):
        fit = fitting_split_single(m)
        assert fit.v_n.dim + fit.v_0.dim == m.rows
        assert subspace_intersection(fit.v_n, fit.v_0).dim == 0
        assert fit.proj_n * fit.proj_n == fit.proj_n
        # restriction to v_n is nilpotent, to v_0 invertible
        if fit.v_n.dim:
            assert is_nilpotent_operator(restrict_operator(m, fit.v_n))
        if fit.v_0.dim:
            r = restrict_operator(m, fit.v_0)
            assert kernel(r).dim == 0


def kept_rows(rows):
    """The kernel's kept rows after inserting the sparse rows one at a
    time through its row step."""
    kept = {}
    for v in _kernels.remainders(kept, rows):
        if v:
            _kernels.keep(kept, v)
    return kept


def snapshot(kept):
    return {p: dict(b) for p, b in kept.items()}


def assert_insertion_matches_rref(rows, r, n):
    """Inserting r into the kept rows of rows leaves what one echelon of
    the stacked rows gives, which is the Fraction RREF; a row in their
    span leaves the kept rows unchanged."""
    kept = kept_rows(rows)
    before = snapshot(kept)
    v = next(_kernels.remainders(kept, [r]))
    assert snapshot(kept) == before
    if v:
        _kernels.keep(kept, v)
    stacked = rows + [r]
    assert _kernels.canonical(kept) == _kernels.echelon(stacked, n) == dense_rref_rows(stacked, n)
    return v


# Pivots at 1 and 3 with nonzero entries in the free columns 0, 2 and 4
# of the second row, over a denominator; each new row leads with a
# negative entry, before, between and after the pivots.
SPARSE_SPAN = [[(1, 2), (2, -3), (4, 5)], [(3, 3), (4, 1)]]


@pytest.mark.parametrize(
    "rows, r",
    [
        (SPARSE_SPAN, [(0, -2), (2, 7), (4, 1)]),
        (SPARSE_SPAN, [(2, -4), (4, 6)]),
        (SPARSE_SPAN, [(4, -3)]),
        ([], [(1, -6), (2, 4), (4, 2)]),
        ([[(0, 1)], [(1, 1)]], [(3, -1)]),
    ],
    ids=["before", "between", "after", "into-zero", "unit-rows"],
)
def test_insert_row_matches_rref(rows, r):
    v = assert_insertion_matches_rref(rows, r, 5)
    assert v and v[min(v)] < 0


def test_dependent_row_leaves_kept_rows():
    # 2 * first - 3 * second, given out of column order
    r = [(4, 7), (3, -9), (2, -6), (1, 4)]
    assert assert_insertion_matches_rref(SPARSE_SPAN, r, 5) == {}


def test_tagged_row_remainder_leads_in_tag_block():
    """The two-generator scan's rows [u_s | e_s]: a candidate u in the
    span of the kept u_s reduces to the relation among the tags alone,
    -e_0 - 2 e_1 + e_2 up to a factor, and is not kept."""
    n = 3
    kept = kept_rows([[(0, 1), (1, 2), (n, 1)], [(1, 3), (2, -1), (n + 1, 1)]])
    before = snapshot(kept)
    u = [(0, 1), (1, 8), (2, -2)]
    v = next(_kernels.remainders(kept, [u + [(n + 2, 1)]]))
    assert min(v) >= n and snapshot(kept) == before
    c = v[n + 2]
    assert v == {n: -c, n + 1: -2 * c, n + 2: c}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_insert_row_matches_rref_property(data):
    """Random integer spans and rows, each row given by its nonzero
    pairs, negated on a drawn coin so that negative leading entries come
    up as often as positive ones; dependent rows included."""
    n = data.draw(st.integers(1, 6))
    ints = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    rows = [[(c, x) for c, x in enumerate(r) if x] for r in data.draw(st.lists(ints, max_size=n))]
    r = [(c, x) for c, x in enumerate(data.draw(ints)) if x]
    if data.draw(st.booleans()):
        r = [(c, -x) for c, x in r]
    if rows and data.draw(st.booleans()):
        r = [(c, 2 * x) for c, x in rows[0]]
    assert_insertion_matches_rref(rows, r, n)


def test_standard_basis():
    assert standard_basis(2) == [(F(1), F(0)), (F(0), F(1))]


def test_vector_and_to_fraction():
    assert vector([1, "1/2"]) == (F(1), F(1, 2))
    assert to_fraction("−3".replace("−", "-")) == F(-3)
    with pytest.raises(TypeError):
        to_fraction(0.5)


def dense_span(n, rows):
    """The span of integer rows from a Fraction Gauss-Jordan on the dense
    rows: the nonzero RREF rows as a Matrix, and the pivots."""
    basis, pivots = fraction_rref([[Fraction(x) for x in r] for r in rows], n)
    return (Matrix(basis) if basis else Matrix.zeros(0, n)), pivots


def assert_matches_dense(s, rows):
    """s, the span of the integer rows, stores the basis of a dense
    Fraction RREF: rows, pivots and basis agree with dense_span, and
    spanning the stored rows again gives an equal subspace with an equal
    hash."""
    m, pivots = dense_span(s.ambient_dim, rows)
    assert s.rows == m and s.pivots == pivots and s.dim == len(pivots)
    assert s.basis == tuple(m.row_list())
    again = Subspace._from_int_rows(s.ambient_dim, m._int_rows())
    assert again == s and hash(again) == hash(s)


def catalog_spans():
    """[g, g], every series term and the product spans of the catalog
    families and the known LR fixtures, each with its generating rows."""
    algebras = [filiform(8), diag_solvable([1, 2, "1/3"]), free_two_step(4), heisenberg(), r2()]
    products = [known_lr(name) for name in known_lr_names()]
    algebras += [g for g, _ in products]
    for g in algebras:
        n = g.dim
        yield g._product_span(), [_int_row(w, n) for w in g._inz]
        rep = series(g)
        for s in rep.lower_central + rep.derived:
            yield s, s.rows._int_rows()
    for _, p in products:
        yield product_span(p), [_int_row(w, p.dim) for w in p._inz]


def test_catalog_spans_match_dense_form():
    spans = list(catalog_spans())
    for s, rows in spans:
        assert_matches_dense(s, rows)
    for a, _ in spans:
        for b, _ in spans:
            if a.ambient_dim == b.ambient_dim:
                assert (a == b) == (a.rows == b.rows and a.pivots == b.pivots)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_spans_match_dense_form(data):
    """Random integer spans, and a second span of a random rescaling and
    reordering of the same rows, which must be equal with equal hashes."""
    n = data.draw(st.integers(1, 6))
    ints = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    rows = data.draw(st.lists(ints, max_size=n + 2))
    s = Subspace._from_int_rows(n, rows)
    assert_matches_dense(s, rows)
    factors = data.draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
    other = data.draw(st.permutations([[c * x for x in r] for c, r in zip(factors, rows)]))
    t = Subspace._from_int_rows(n, other)
    assert t == s and hash(t) == hash(s)
    u = Subspace._from_int_rows(n, data.draw(st.lists(ints, max_size=n)))
    assert (u == s) == (u.rows == s.rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_remainder_is_den_times_reduce(data):
    """Subspace._remainder of a sparse vector, its nonzero pairs in any
    order, is _den times the remainder that reduce returns, which is
    the vector minus its pivot entries times the Fraction basis rows: a
    {index: numerator} map with no zero value and no pivot key."""
    n = data.draw(st.integers(1, 6))
    ints = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    s = Subspace._from_int_rows(n, data.draw(st.lists(ints, max_size=n + 1)))
    dense = data.draw(ints)
    pairs = data.draw(st.permutations([(k, x) for k, x in enumerate(dense) if x]))
    want = [F(x) for x in dense]
    for p, b in zip(s.pivots, s.basis):
        want = [w - want[p] * x for w, x in zip(want, b)]
    r = s._remainder(pairs)
    assert r == {k: s._den * w for k, w in enumerate(want) if w}
    assert all(r.values()) and not set(r) & set(s.pivots)
    assert s.reduce(dense) == tuple(want)
    assert s.contains(dense) == (not r)


@st.composite
def rectangular_matrix(draw):
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    num = draw(st.lists(st.integers(-9, 9), min_size=r * c, max_size=r * c))
    return Matrix._raw(r, c, num, draw(st.integers(1, 7)))


@settings(max_examples=150, deadline=None)
@given(rectangular_matrix())
@example(Matrix._raw(0, 3, [], 1))
@example(Matrix._raw(3, 0, [], 1))
def test_column_map_is_the_rows_of_the_transpose(m):
    """_column_map reads each column off the flat numerators by stride,
    with no transpose, and gets what the rows of the transpose hold, on
    rectangular matrices, with no rows or no columns too."""
    assert _column_map(m) == dict(enumerate(_sparse_rows(m.transpose())))


def test_membership_quotients_and_restrictions_reduce_with_remainders(monkeypatch):
    """contains, escape, quotient_product and restrict_operator reduce
    their vectors through _kernels.remainders, one row per vector: two
    vectors against the line through (1, 1); r2's one nonzero column
    [e_1, e_2] = e_2 against the line of e_2, and the completed product's
    one nonzero column of e_1, e_1 e_2 = e_2, which leaves the line of
    e_1 on the right; the quotient by the line of e_2 of a product whose
    only constant is e_1 e_1 = e_1 + e_2 (escape reduces nothing, the
    quotient that constant); a Jordan block's images of its invariant
    plane."""
    reduced = []
    real = _kernels.remainders

    def counted(kept, rows):
        for v in real(kept, rows):
            reduced.append(v)
            yield v

    monkeypatch.setattr(_kernels, "remainders", counted)
    line = Subspace.from_vectors(2, [(1, 1)])
    g, p = known_lr("r2-completed")
    e1, e2 = (Subspace.from_vectors(2, [v]) for v in standard_basis(2))
    q = Product.from_entries(2, {(0, 0): {0: 1, 1: 1}})
    jordan = Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    plane = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    cases = [
        (lambda: (line.contains((1, 0)), line.contains((2, 2))), (False, True), 2),
        (lambda: g.escape(e2), None, 1),
        (lambda: p.escape(e1, both_sides=True), ("right", 1), 1),
        (lambda: quotient_product(g, q, e2), Product.from_entries(1, {(0, 0): {0: 1}}), 1),
        (lambda: restrict_operator(jordan, plane), Matrix([[1, 1], [0, 1]]), 2),
    ]
    counts = []
    for call, want, _ in cases:
        reduced.clear()
        assert call() == want
        counts.append(len(reduced))
    assert counts == [c for _, _, c in cases]


def test_product_span_is_reduced_once(monkeypatch):
    """The span of the products is row reduced once per product: reading
    it twice, both completeness chains and the certificate reuse it."""
    g, p = known_lr("filiform12-shift")
    slots = [list(w) for w in p._inz if w]
    calls = []
    real = _kernels.echelon

    def counted(rows, cols):
        rows = [list(r) for r in rows]
        calls.append(rows)
        return real(rows, cols)

    monkeypatch.setattr(_kernels, "echelon", counted)
    assert product_span(p) is product_span(p)
    _chain_reaches_zero(p, True)
    _chain_reaches_zero(p, False)
    check_lr(g, p)
    assert sum(rows == slots for rows in calls) == 1


def test_dense_entry_points_reduce_with_echelon(monkeypatch):
    """Matrix.rref, inverse, kernel and solve row reduce through the one
    elimination loop, _kernels.echelon: each passes it the sparse rows
    of its matrix, augmented by den I for inverse and by b for solve."""
    calls = []
    real = _kernels.echelon

    def counted(rows, cols):
        rows = [sorted(r) for r in rows]
        calls.append((rows, cols))
        return real(rows, cols)

    monkeypatch.setattr(_kernels, "echelon", counted)
    m = Matrix([[2, 1, 0], [1, 1, 1], [3, 2, 1]])  # rank 2
    rows = [[(0, 2), (1, 1)], [(0, 1), (1, 1), (2, 1)], [(0, 3), (1, 2), (2, 1)]]
    a = Matrix([[2, 1], [1, 1]])
    cases = [
        (m.rref, (rows, 3)),
        (a.inverse, ([[(0, 2), (1, 1), (2, 1)], [(0, 1), (1, 1), (3, 1)]], 4)),
        (lambda: kernel(m), (rows, 3)),
        (lambda: solve(m, [1, 2, 3]), ([r + [(3, y)] for r, y in zip(rows, (1, 2, 3))], 4)),
    ]
    for call, first in cases:
        calls.clear()
        call()
        assert calls and calls[0] == first
