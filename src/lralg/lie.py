"""Lie algebras over the rationals, given by structure constants.

A LieAlgebra is a linalg.Bilinear whose constants c[i][j][k], read as
Fractions through brackets, mean [e_i, e_j] = sum_k c[i][j][k] e_k.
Construction does not validate the axioms; validate_lie reports
violations and operations whose contracts require a Lie algebra call
it first (the result is cached on the instance).  Validity and series
reports are also kept in linalg's memo, keyed by exact content, so an
equal algebra built anew is not checked again.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import lcm

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidLieAlgebraError,
    NotAnIdealError,
    NotTwoStepSolvableError,
)
from .linalg import (
    Bilinear,
    Matrix,
    Subspace,
    Vector,
    _columns_matrix,
    _combine,
    _compose,
    _fitting_split_commuting,
    _int_row,
    _memoized,
    _nonzero,
    _push,
    _ratios,
    _restricted,
    _solve_rows,
    _sparse_rows,
    _to_vector,
    complement,
    subspace_sum,
    vector,
)


class Violation(namedtuple("Violation", "identity indices defect")):
    """One failed identity: which identity (a str), at which basis
    indices (a tuple of ints), and the exact defect (a vector or a
    matrix, never approximate)."""

    __slots__ = ()

    def __str__(self) -> str:
        where = ", ".join(str(i + 1) for i in self.indices)
        return f"{self.identity} at ({where})"


class LieAlgebra(Bilinear):
    __slots__ = ("basis_names", "_valid")
    _kind = "algebra"
    brackets = Bilinear.tensor  # the Fraction view under its Lie name

    def __init__(self, brackets, basis_names=None):
        super().__init__(brackets, basis_names)

    def _fill(self, dim: int, inz, den: int, basis_names=None) -> None:
        """Bilinear._fill, then the basis names; the axioms are checked
        later, by ensure_valid."""
        super()._fill(dim, inz, den)
        if basis_names is not None:
            basis_names = tuple(str(s) for s in basis_names)
            if len(basis_names) != dim:
                raise DimensionMismatchError("one basis name per basis vector")
        self.basis_names = basis_names
        self._valid = None

    @classmethod
    def from_brackets(cls, dim: int, pairs, basis_names=None) -> "LieAlgebra":
        """Build from a sparse {(i, j): {k: value}} map with i < j.

        Indices are 0-based; the antisymmetric counterparts are filled
        in automatically.
        """
        return cls._from_upper(
            dim, {ij: _ratios(comps) for ij, comps in pairs.items()}, basis_names
        )

    @classmethod
    def _from_upper(cls, dim: int, pairs, basis_names=None) -> "LieAlgebra":
        """from_brackets on constants given as _from_sparse reads them,
        {(i, j): {k: (num, den)}}: the antisymmetric half is filled in by
        negating the numerators."""
        full = {}
        for (i, j), comps in pairs.items():
            if not (0 <= i < j < dim):
                raise DimensionMismatchError(f"bracket pair ({i}, {j}) needs 0 <= i < j < dim")
            full[(i, j)] = comps
            full[(j, i)] = {k: (-x, d) for k, (x, d) in comps.items()}
        return cls._from_sparse(dim, full, basis_names)

    def _product_span(self) -> Subspace:
        """[g, g], the span of the constants [e_i, e_j] with i < j, read
        off the slots of each row i from column i + 1 on; the others add
        nothing on a valid algebra, as [e_j, e_i] = -[e_i, e_j] and
        [e_i, e_i] = 0.  Every caller runs ensure_valid first.  Kept in
        _span, as Bilinear._product_span is."""
        if self._span is None:
            n, inz = self.dim, self._inz
            rows = [w for i in range(n) for w in inz[i * n + i + 1:(i + 1) * n] if w]
            self._span = Subspace._from_sparse(n, rows)
        return self._span

    def name(self, i: int) -> str:
        if self.basis_names is not None:
            return self.basis_names[i]
        return f"e{i + 1}"

    def bracket(self, x, y) -> Vector:
        return self.apply(x, y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return (
            self.dim == other.dim
            and self._den == other._den
            and self._inz == other._inz
            and self.basis_names == other.basis_names
        )

    __hash__ = None  # type: ignore[assignment]

    def ensure_valid(self) -> None:
        """Raise InvalidLieAlgebraError naming the violated identities, the same on every call."""
        if not self._valid:
            ok, violations = validate_lie(self)
            if not ok:
                raise InvalidLieAlgebraError(
                    f"{len(violations)} violated identities, first: {violations[0]}"
                )


def validate_lie(g: LieAlgebra) -> tuple[bool, list[Violation]]:
    """Check antisymmetry and the Jacobi identity on all basis tuples.

    Returns (ok, violations); each violation carries the basis indices
    and the defect vector.  The sums run on the integer constants
    g._inz; a defect becomes Fractions only when it is nonzero.  The
    Jacobi sums are accumulated in one pass over the nonzero constants
    (_jacobi_sums), each term into the triple of which it is a cyclic
    shift, so only triples that receive a nonzero term are summed; they
    are reported in (i, j, k) order (de Graaf, Lie Algebras: Theory and
    Algorithms, 2000).  An algebra with the _content of one checked
    recently gets that report from the memo.
    """
    ok, violations = _memoized(("valid", g._content), _validate_lie, g)
    g._valid = ok
    return ok, list(violations)


def _validate_lie(g: LieAlgebra) -> tuple[bool, tuple[Violation, ...]]:
    n, inz, den = g.dim, g._inz, g._den
    violations: list[Violation] = []
    # Identities whose bracket slices all vanish hold trivially, so only
    # the pairs i <= j with a nonzero slot, read in one pass, are summed.
    slots = [(divmod(ij, n), inz[ij]) for ij in compress(range(n * n), inz)]
    for i, j in sorted({(i, j) if i <= j else (j, i) for (i, j), _ in slots}):
        out = [0] * n
        for k, c in inz[i * n + j] + inz[j * n + i]:
            out[k] += c
        if any(out):
            violations.append(Violation("antisymmetry", (i, j), _to_vector(out, den)))
    for ijk, out in sorted(_jacobi_sums(n, slots).items()):
        if any(out):
            violations.append(Violation("jacobi", ijk, _to_vector(out, den * den)))
    return not violations, tuple(violations)


def _jacobi_sums(n: int, slots) -> dict[tuple[int, int, int], list[int]]:
    """The Jacobi sums, times den**2, of the triples i < j < k that
    receive a term [e_a, [e_b, e_c]] with a nonzero product of
    constants: only there can a sum be nonzero.  For each term x e_m
    of a nonzero slot (b, c) and each nonzero slot (a, m), x [e_a, e_m]
    is added into the sum of the triple of which (a, b, c) is a cyclic
    shift, if any.  slots, the ((i, j), constants) pairs of the nonzero
    slots that _validate_lie reads in one pass, serves both the column
    lookup of the slots (a, m), built here, and the loop over (b, c).
    """
    by_column: list[list] = [[] for _ in range(n)]
    for (a, m), u in slots:
        by_column[m].append((a, u))
    sums: dict[tuple[int, int, int], list[int]] = {}
    for (b, c), w in slots:
        for m, x in w:
            for a, u in by_column[m]:
                if a < b < c:
                    ijk = (a, b, c)
                elif b < c < a:
                    ijk = (b, c, a)
                elif c < a < b:
                    ijk = (c, a, b)
                else:
                    continue
                out = sums.get(ijk)
                if out is None:
                    out = sums[ijk] = [0] * n
                for t, y in u:
                    out[t] += x * y
    return sums


def ad(g: LieAlgebra, x) -> Matrix:
    """Adjoint operator of x: the matrix of y -> [x, y]."""
    return g.operator(x)


def bracket_of_subspaces(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of all [u, v] with u in a, v in b.

    The nonzero columns {j: [u, e_j]} of ad u are read once per integer
    row u of a (Bilinear._times_basis) and each integer row v of b is
    pushed through them (_push): a positive multiple of [u, v], which
    leaves the span unchanged.  Only a v whose support meets those
    columns is pushed; [u, v] is exactly 0 for every other one.
    """
    if a.ambient_dim != g.dim or b.ambient_dim != g.dim:
        raise DimensionMismatchError("subspace ambient dimension differs from algebra")
    n = g.dim
    supports = [{j for j, _ in v} for v in b._rows]
    products = []
    for u in a._rows:
        cols = g._times_basis(u, False)
        if cols:
            reach = cols.keys()
            products += [
                _push(cols, v, n)
                for v, support in zip(b._rows, supports)
                if not reach.isdisjoint(support)
            ]
    return Subspace._from_sparse(n, products)


class SeriesReport(
    namedtuple("SeriesReport", "lower_central g_infinity derived nilpotent solvable_class")
):
    """Lower central and derived series, with the standard flags.

    Both series are tuples of Subspaces, listed from the whole algebra
    down to their first stabilized term; g_infinity is the stabilized
    lower central term and nilpotent a bool.  solvable_class, an int, is
    the number of steps the derived series takes to reach zero, or None
    when it does not reach zero.
    """

    __slots__ = ()

    @property
    def solvable(self) -> bool:
        return self.solvable_class is not None

    @property
    def two_step_solvable(self) -> bool:
        """True iff the second derived algebra [[g,g],[g,g]] vanishes."""
        return self.solvable_class is not None and self.solvable_class <= 2


def series(g: LieAlgebra) -> SeriesReport:
    """The SeriesReport of g; an algebra with the _content of one seen
    recently gets that report from the memo."""
    g.ensure_valid()
    return _memoized(("series", g._content), _series, g)


def _series(g: LieAlgebra) -> SeriesReport:
    """Both series from [g, g], read off the constants, and
    [[g, g], [g, g]], computed once.

    When [[g, g], [g, g]] vanishes, [g, g] is abelian and holds every
    g^k with k >= 2, so g^{k+1} = [g, g^k] = [X, g^k] for X spanning a
    complement of [g, g]; any other algebra brackets g^k with all of g.
    When g = [g, g] both series stop at g.
    """
    full = Subspace.full(g.dim)
    g2 = g._product_span()
    g3 = g2 if g2 == full else bracket_of_subspaces(g, g2, g2)
    gens = complement(g2) if g3.dim == 0 else full

    lower = [full]
    nxt = g2
    while nxt != lower[-1]:
        lower.append(nxt)
        nxt = bracket_of_subspaces(g, gens, nxt)

    # Both series have [g, g] as their second term.
    derived = lower[:2]
    nxt = g3
    while len(derived) > 1 and nxt != derived[-1]:
        derived.append(nxt)
        nxt = bracket_of_subspaces(g, nxt, nxt)

    g_infinity = lower[-1]
    solvable = derived[-1].dim == 0
    return SeriesReport(
        lower_central=tuple(lower),
        g_infinity=g_infinity,
        derived=tuple(derived),
        nilpotent=g_infinity.dim == 0,
        solvable_class=len(derived) - 1 if solvable else None,
    )


def is_two_step_solvable(g: LieAlgebra) -> bool:
    """True iff the second derived algebra [[g,g],[g,g]] vanishes."""
    g.ensure_valid()
    g2 = g._product_span()
    return bracket_of_subspaces(g, g2, g2).dim == 0


def subalgebra_generated(g: LieAlgebra, vectors_) -> Subspace:
    """Smallest bracket-closed subspace containing the given vectors."""
    g.ensure_valid()
    s = Subspace.from_vectors(g.dim, [vector(v) for v in vectors_])
    while True:
        grown = subspace_sum(s, bracket_of_subspaces(g, s, s))
        if grown == s:
            return s
        s = grown


def quotient(g: LieAlgebra, ideal: Subspace) -> tuple[LieAlgebra, Matrix, Matrix]:
    """Quotient algebra by an ideal, with projection and section.

    The quotient basis is the image of the standard basis vectors at
    the non-pivot coordinates of the ideal; the section maps them back,
    so projection * section is the identity on the quotient.  Column j
    of the projection is ideal.reduce(e_j) read at those coordinates.
    """
    g.ensure_valid()
    if ideal.ambient_dim != g.dim:
        raise DimensionMismatchError("ideal ambient dimension differs from algebra")
    bad = g.escape(ideal)
    if bad is not None:
        raise NotAnIdealError(f"[{g.name(bad[1])}, ideal basis vector] leaves the subspace")
    n, comp = g.dim, complement(ideal)
    rems = [ideal._remainder(((j, 1),)) for j in range(n)]
    num = [r.get(f, 0) for f in comp.pivots for r in rems]
    projection = Matrix._raw(comp.dim, n, num, ideal._den)
    names = None
    if g.basis_names is not None:
        names = tuple(g.basis_names[f] for f in comp.pivots)
    return LieAlgebra._from_int(*g._quotient(ideal), names), projection, comp.rows.transpose()


class SplitDecomposition(
    namedtuple("SplitDecomposition", "algebra series complement phi complement_algebra")
):
    """Splitting g = g_infinity + complement of a two-step solvable
    algebra over its stabilized lower central term.

    algebra is the LieAlgebra g, series the SeriesReport of g the split was
    taken from, and g_infinity its stabilized lower central term.  Row j of
    the q x n Matrix complement is the unit vector at the j-th non-pivot
    coordinate of g_infinity plus a correction inside it; the rows span a
    subalgebra (a Fitting null component moved by an exp(ad v), v in
    g_infinity) whose bracket in their coordinates is complement_algebra
    (g/g_infinity on its basis).  phi is a tuple of Matrices: phi[j] is the
    matrix of x -> [row j, x] on g_infinity in its RREF coordinates, read
    from the brackets of the unit vector with g_infinity's basis rows (the
    correction brackets to zero there), written once from the integer
    columns on which the split checks that phi is a homomorphism;
    lift_product reads the bracket of g instead.  change_of_basis has the
    adapted basis (g_infinity first, then the complement) as columns.
    """

    __slots__ = ()

    @property
    def g_infinity(self) -> Subspace:
        return self.series.g_infinity

    @property
    def g_infinity_basis(self) -> tuple[Vector, ...]:
        return self.g_infinity.basis

    @property
    def complement_basis(self) -> tuple[Vector, ...]:
        return tuple(self.complement.row_list())

    @property
    def change_of_basis(self) -> Matrix:
        top, bottom = self.g_infinity, self.complement
        den = lcm(top._den, bottom._den)
        cols = [[(c, x * (den // top._den)) for c, x in r] for r in top._rows]
        cols += [[(c, x * (den // bottom._den)) for c, x in r] for r in _sparse_rows(bottom)]
        return _columns_matrix(dict(enumerate(cols)), self.ambient_dim, den)

    @property
    def ambient_dim(self) -> int:
        return self.algebra.dim

    def phi_of(self, coords) -> Matrix:
        """phi of a complement-coordinate vector (linear combination)."""
        cs = vector(coords)
        if len(cs) != len(self.phi):
            raise DimensionMismatchError("coordinate length differs from complement dimension")
        k = self.g_infinity.dim
        acc = Matrix.zeros(k, k)
        for c, m in zip(cs, self.phi):
            if c:
                acc = acc + c * m
        return acc


def split_metabelian(g: LieAlgebra) -> SplitDecomposition:
    """Split g as a semidirect sum of g_infinity and a complement
    subalgebra.

    Works for two-step solvable algebras; one series(g) call gives both that
    test and g_infinity, and the report is kept on the result.  All of it
    runs on sparse integer rows.  The complement starts from the unit
    vectors w_j at the non-pivot coordinates of g_infinity, whose brackets
    reduced against g_infinity are complement_algebra's constants, and is
    moved only when a [w_a, w_b] has a component in g_infinity.  Then the
    Fitting null component of ad x, for the first x = sum_a t^a w_a with
    t = 0, 1, ... and phi_x invertible, is a complement subalgebra with
    rows w_j + tau0_j (de Graaf, Lie Algebras: Theory and Algorithms, 2000).
    g_infinity has no zero weight, so det phi_x is a nonzero polynomial of
    degree <= k(q - 1) in t (running out of t raises
    InternalConsistencyError), and the complements are the rows
    w_j + tau0_j - phi_j v, v in g_infinity (Dixmier, 1957).  The one
    returned is 0 at F, the last nonzero places of the k tuples of the phi_j
    e_t, read by one echelon over reversed columns; v is one k x k solve
    (linalg._solve_rows).  Row j of the complement, over
    sden * g_infinity._den, is w_j plus tau_j, its coefficients pushed
    through g_infinity's rows (linalg._push).  Closure is checked on those
    rows against the constants, each later row pushed through the columns of
    ad(row a), skipping a pair where both sides are empty; the Matrix
    complement is only written.  As tau_j lies in the abelian g_infinity,
    phi of w_j, the integer columns over pden = g._den * g_infinity._den
    (linalg._restricted), is phi of row j.  Closure gives [row a, row b] =
    sum_c beta[a][b][c] row c, so phi is a homomorphism iff bden phi_a phi_b
    = bden phi_b phi_a + pden sum_c beta[a][b][c] phi_c, compared as sums of
    columns (linalg._combine) of products (linalg._compose); with beta = 0
    each side has one term per column, and no accumulator is made.
    """
    rep = series(g)
    if not rep.two_step_solvable:
        raise NotTwoStepSolvableError("second derived algebra does not vanish")
    ginf = rep.g_infinity
    n, inz, gden = g.dim, g._inz, g._den
    # series stopped where [g, ginf] = ginf, so stability needs no test.
    if bracket_of_subspaces(g, ginf, ginf).dim != 0:
        raise InternalConsistencyError("stabilized lower central term is not abelian")

    units = complement(ginf)
    free = units.pivots
    q, k, pden = len(free), ginf.dim, gden * ginf._den
    pcols = [_restricted(g._times_basis(u, False), ginf) for u in units._rows]
    if None in pcols:
        raise InternalConsistencyError("bracket left the stabilized term")
    n_alg = LieAlgebra._from_int(*g._quotient(ginf))
    beta, bden = n_alg._inz, n_alg._den

    rows, cden = dict(enumerate(units._rows)), 1
    pairs = [(a, b) for a in range(q) for b in range(a + 1, q)]
    pivots = set(ginf.pivots)
    if any(c in pivots for a, b in pairs for c, _ in inz[free[a] * n + free[b]]):
        for t in range(k * (q - 1) + 1):
            x = [(f, t**a) for a, f in enumerate(free) if t**a]
            fit = _fitting_split_commuting(n, [g._times_basis(x, False)])
            if fit.v_n.dim == q:
                break
        else:
            raise InternalConsistencyError("no complement element acts invertibly")
        # At j * k + s: tau0 over hden * pden, phi e_t over pden (orbit[t]).
        top, hden = q * k - 1, fit.proj_n._den
        tau = [fit.proj_n._num[p * n + f] * pden for f in free for p in ginf.pivots]
        orbit = [{m * k + s: y for m in range(q) for s, y in pcols[m].get(t, ())} for t in range(k)]
        rev = Subspace._from_sparse(top + 1, ([(top - c, y) for c, y in o.items()] for o in orbit))
        eqs = [[(t, o[f] * hden) for t, o in enumerate(orbit) if f in o]
               + ([(k, tau[f])] if tau[f] else []) for f in (top - c for c in rev.pivots)]
        v, vden = _solve_rows(eqs, k)
        tau, sden = [y * vden for y in tau], hden * pden * vden
        for t, o in enumerate(orbit):
            for c, y in o.items():
                tau[c] -= hden * y * v[t]
        cden, basis = sden * ginf._den, dict(enumerate(ginf._rows + units._rows))
        rows = {j: _push(basis, _nonzero(tau[j * k:j * k + k]) + [(k + j, cden)], n)
                for j in range(q)}

    # [row a, row b] over cden**2 * gden against sum_c beta[a][b][c] row c
    # over bden * cden, the constants pushed through the rows as columns;
    # a pair where both are empty is exactly 0 = 0.
    if Subspace._from_sparse(n, rows.values()).dim != q:
        raise InternalConsistencyError("corrected complement lost dimension")
    for a in range(q):
        cols = g._times_basis(rows[a], False)
        for b in range(a + 1, q):
            br, terms = _push(cols, rows[b], n), beta[a * q + b]
            if not (br or terms):
                continue
            want = _push(rows, terms, n)
            if [(i, x * bden) for i, x in br] != [(i, y * cden * gden) for i, y in want]:
                raise InternalConsistencyError("corrected complement is not a subalgebra")

    for a, b in pairs if k else ():  # with g_infinity = 0 every phi is 0 x 0
        pa, pb = pcols[a], pcols[b]
        rhs = [(bden, _compose(pb, pa, k).items())]
        rhs += [(pden * x, pcols[c].items()) for c, x in beta[a * q + b]]
        if _combine([(bden, _compose(pa, pb, k).items())], k) != _combine(rhs, k):
            raise InternalConsistencyError("phi is not a homomorphism")
    phi = tuple(_columns_matrix(cols, k, pden) for cols in pcols)
    comp = Matrix._raw(q, n, [x for r in rows.values() for x in _int_row(r, n)], cden)
    return SplitDecomposition(g, rep, comp, phi, n_alg)
