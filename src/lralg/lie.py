"""Lie algebras over the rationals, given by structure constants.

A LieAlgebra is a linalg.Bilinear whose constants c[i][j][k], read as
Fractions through brackets, mean [e_i, e_j] = sum_k c[i][j][k] e_k.
Construction does not validate the axioms; validate_lie reports
violations and operations whose contracts require a Lie algebra call
it first (the result is cached on the instance).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidLieAlgebraError,
    NotAnIdealError,
    NotTwoStepSolvableError,
    PreconditionError,
)
from .linalg import (
    Bilinear,
    Matrix,
    Subspace,
    Vector,
    _to_vector,
    complement,
    restrict_operator,
    solve,
    subspace_sum,
    to_fraction,
    vector,
    zero_vector,
)


@dataclass(frozen=True)
class Violation:
    """One failed identity: which identity, at which basis indices, and
    the exact defect (a vector or a matrix, never approximate)."""

    identity: str
    indices: tuple[int, ...]
    defect: object

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
        full = {}
        for (i, j), comps in pairs.items():
            if not (0 <= i < j < dim):
                raise DimensionMismatchError(f"bracket pair ({i}, {j}) needs 0 <= i < j < dim")
            full[(i, j)] = comps
            full[(j, i)] = {k: -to_fraction(v) for k, v in comps.items()}
        return cls._from_sparse(dim, full, basis_names)

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
        if self._valid is None:
            ok, violations = validate_lie(self)
            if not ok:
                raise InvalidLieAlgebraError(
                    f"{len(violations)} violated identities, first: {violations[0]}"
                )
        elif self._valid is False:
            raise InvalidLieAlgebraError("structure constants fail the Lie axioms")


def validate_lie(g: LieAlgebra) -> tuple[bool, list[Violation]]:
    """Check antisymmetry and the Jacobi identity on all basis tuples.

    Returns (ok, violations); each violation carries the basis indices
    and the defect vector.  The sums run on the integer constants
    g._inz; a defect becomes Fractions only when it is nonzero.
    """
    n, inz, den = g.dim, g._inz, g._den
    violations: list[Violation] = []
    # Identities whose bracket slices all vanish hold trivially.
    for i in range(n):
        for j in range(i, n):
            ij, ji = inz[i * n + j], inz[j * n + i]
            if not (ij or ji):
                continue
            out = [0] * n
            for k, c in ij + ji:
                out[k] += c
            if any(out):
                violations.append(Violation("antisymmetry", (i, j), _to_vector(out, den)))
    # [e_a, [e_b, e_c]] summed over the cyclic shifts of (i, j, k), times den**2.
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                cyclic = ((i, j, k), (j, k, i), (k, i, j))
                if not any(inz[b * n + c] for _, b, c in cyclic):
                    continue
                out = [0] * n
                for a, b, c in cyclic:
                    base = a * n
                    for m, x in inz[b * n + c]:
                        for t, y in inz[base + m]:
                            out[t] += x * y
                if any(out):
                    violations.append(Violation("jacobi", (i, j, k), _to_vector(out, den * den)))
    ok = not violations
    g._valid = ok
    return ok, violations


def ad(g: LieAlgebra, x) -> Matrix:
    """Adjoint operator of x: the matrix of y -> [x, y]."""
    return g.operator(x)


def bracket_of_subspaces(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of all [u, v] with u in a, v in b.

    The integer rows of both bases are multiplied through the integer
    constants g._inz; each product is a positive multiple of [u, v],
    which leaves the span unchanged.
    """
    if a.ambient_dim != g.dim or b.ambient_dim != g.dim:
        raise DimensionMismatchError("subspace ambient dimension differs from algebra")
    n, inz = g.dim, g._inz

    def sparse(s: Subspace) -> list[list[tuple[int, int]]]:
        return [[(i, x) for i, x in enumerate(u) if x] for u in s.rows._int_rows()]

    us = sparse(a)
    vs = us if b is a else sparse(b)
    rows = []
    for u in us:
        for v in vs:
            out = [0] * n
            for i, x in u:
                base = i * n
                for j, y in v:
                    s = x * y
                    for k, c in inz[base + j]:
                        out[k] += s * c
            rows.append(out)
    return Subspace._from_int_rows(n, rows)


@dataclass(frozen=True)
class SeriesReport:
    """Lower central and derived series, with the standard flags.

    Both series are listed from the whole algebra down to their first
    stabilized term; g_infinity is the stabilized lower central term.
    solvable_class is None when the derived series does not reach zero.
    """

    lower_central: tuple[Subspace, ...]
    g_infinity: Subspace
    derived: tuple[Subspace, ...]
    nilpotent: bool
    solvable_class: int | None

    @property
    def solvable(self) -> bool:
        return self.solvable_class is not None


def series(g: LieAlgebra) -> SeriesReport:
    g.ensure_valid()
    full = Subspace.full(g.dim)

    lower = [full]
    while True:
        nxt = bracket_of_subspaces(g, full, lower[-1])
        if nxt == lower[-1]:
            break
        lower.append(nxt)

    derived = [full]
    while True:
        nxt = bracket_of_subspaces(g, derived[-1], derived[-1])
        if nxt == derived[-1]:
            break
        derived.append(nxt)

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
    full = Subspace.full(g.dim)
    d1 = bracket_of_subspaces(g, full, full)
    return bracket_of_subspaces(g, d1, d1).dim == 0


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
    comp = complement(ideal)
    u = comp.rows  # unit rows at the free coordinates; complement(comp) at the pivots
    projection = u - u * ideal.rows.transpose() * complement(comp).rows
    names = None
    if g.basis_names is not None:
        names = tuple(g.basis_names[f] for f in comp.pivots)
    return LieAlgebra._from_int(*g._quotient(ideal), names), projection, u.transpose()


@dataclass(frozen=True)
class SplitDecomposition:
    """Splitting of a two-step solvable algebra over its stabilized
    lower central term.

    complement_basis spans a subalgebra; phi[j] is the matrix of
    x -> [complement_basis[j], x] on the span of g_infinity_basis, in
    the coordinates of that basis.  change_of_basis has the adapted
    basis (g_infinity vectors first, then the complement) as columns.
    algebra is the algebra that was split.
    """

    algebra: "LieAlgebra"
    g_infinity_basis: tuple[Vector, ...]
    complement_basis: tuple[Vector, ...]
    phi: tuple[Matrix, ...]
    change_of_basis: Matrix

    @property
    def ambient_dim(self) -> int:
        return self.change_of_basis.rows

    def phi_of(self, coords) -> Matrix:
        """phi of a complement-coordinate vector (linear combination)."""
        k = len(self.g_infinity_basis)
        acc = Matrix.zeros(k, k)
        for c, m in zip(vector(coords), self.phi):
            if c:
                acc = acc + c * m
        return acc


def _phi_matrix(g: LieAlgebra, w, ginf: Subspace) -> Matrix:
    """Matrix of x -> [w, x] restricted to ginf, in ginf coordinates."""
    try:
        return restrict_operator(g.operator(w), ginf)
    except PreconditionError:
        raise InternalConsistencyError("bracket left the stabilized term") from None


def split_metabelian(g: LieAlgebra) -> SplitDecomposition:
    """Split g as a semidirect sum of g_infinity and a complement
    subalgebra.

    Works for two-step solvable algebras.  The complement starts from
    the standard basis vectors at the non-pivot coordinates of
    g_infinity and is corrected by a linear solve so that it closes
    under the bracket; solvability of that system is guaranteed in this
    setting, so failure raises InternalConsistencyError.
    """
    g.ensure_valid()
    if not is_two_step_solvable(g):
        raise NotTwoStepSolvableError("second derived algebra does not vanish")
    rep = series(g)
    ginf = rep.g_infinity
    n = g.dim
    if bracket_of_subspaces(g, ginf, ginf).dim != 0:
        raise InternalConsistencyError("stabilized lower central term is not abelian")
    if bracket_of_subspaces(g, Subspace.full(n), ginf) != ginf:
        raise InternalConsistencyError("stabilized lower central term is not stable")

    comp = complement(ginf)
    free = list(comp.pivots)
    q = len(free)
    k = ginf.dim
    w_basis = list(comp.basis)
    phi_w = [_phi_matrix(g, w, ginf) for w in w_basis]

    # Correction tau: W -> g_infinity making {w + tau(w)} bracket-closed.
    # Unknown T[j][t] = coefficient of the t-th g_infinity basis vector
    # in tau(w_j); one block of k equations per unordered pair.
    tau = [zero_vector(k) for _ in range(q)]
    pairs = [(a, b) for a in range(q) for b in range(a + 1, q)]
    if k and pairs:
        nvars = q * k
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        for a, b in pairs:
            v = g.bracket(w_basis[a], w_basis[b])
            r = ginf.reduce(v)            # component in W
            c_ab = tuple(v[p] for p in ginf.pivots)  # g_infinity coordinates
            beta = [r[f] for f in free]   # W coordinates of the bracket
            for s in range(k):
                row = [Fraction(0)] * nvars
                for t in range(k):
                    row[b * k + t] += phi_w[a][s, t]
                    row[a * k + t] -= phi_w[b][s, t]
                for mth, bm in enumerate(beta):
                    if bm:
                        row[mth * k + s] -= bm
                rows.append(row)
                rhs.append(-c_ab[s])
        sol = solve(Matrix(rows), rhs)
        if sol is None:
            raise InternalConsistencyError("complement correction system is unsolvable")
        tau = [tuple(sol[j * k + t] for t in range(k)) for j in range(q)]

    comp_basis = []
    for j in range(q):
        corr = ginf.from_coordinates(tau[j])
        comp_basis.append(tuple(a + b for a, b in zip(w_basis[j], corr)))

    comp_space = Subspace.from_vectors(n, comp_basis)
    if comp_space.dim != q:
        raise InternalConsistencyError("corrected complement lost dimension")
    for a in range(q):
        for b in range(a + 1, q):
            if not comp_space.contains(g.bracket(comp_basis[a], comp_basis[b])):
                raise InternalConsistencyError("corrected complement is not a subalgebra")

    phi = tuple(_phi_matrix(g, w, ginf) for w in comp_basis)
    for a in range(q):
        for b in range(a + 1, q):
            br = g.bracket(comp_basis[a], comp_basis[b])
            lhs = phi[a] * phi[b] - phi[b] * phi[a]
            if lhs != _phi_matrix(g, br, ginf):
                raise InternalConsistencyError("phi is not a homomorphism")

    cols = [list(b) for b in ginf.basis] + [list(b) for b in comp_basis]
    change = Matrix.from_columns(cols)
    return SplitDecomposition(
        algebra=g,
        g_infinity_basis=ginf.basis,
        complement_basis=tuple(comp_basis),
        phi=phi,
        change_of_basis=change,
    )
