"""Exact linear algebra over the rationals.

Matrices are stored as flat integer arrays with one positive common
denominator; gcd(content, denominator) = 1, so the representation of a
rational matrix is canonical and equality is structural.  All heavy
loops (multiplication, row reduction) run in the integer kernels of
lralg._kernels.

A Subspace holds its reduced row echelon basis as sparse integer rows
over one denominator, the canonical form of that Matrix, which again
makes equality structural: two subspaces are equal iff their bases are
identical.  Every row reduction runs in the one sparse Gauss-Jordan
insertion step of _kernels, nearly all of it through the kernel's one
loop over that step, insert.  Spans pass echelon, that loop from no
rows, their rows as they come (nonzero constants, products, brackets)
with no dense round trip; Matrix.rref and inverse reach it through
_kernels.rref, its dense format; kernel, solve and the metabelian split
pass it sparse rows, the last two those of [A | b] through one reader.
Membership, coordinates, quotients and restrictions reduce a sparse
vector with the step's first half, remainders, against the basis rows
as kept rows; an intersection and a Fitting split's projection are
read from one echelon of the rows [b | b] and [b | 0], the projection
written by its columns.  A span grown one vector at a time, where the
next vector depends on which earlier ones were independent (the
two-generator construction), holds the kernel's kept rows and calls
the step itself, reading the canonical basis once at the end.  Every
nilpotency test and Fitting split runs one chain of spans, each the
images of the one before, to its end (_chain_end), with no operator
power: each term is the loop's kept rows, capped at the dimension of
the term before, and only the last one is read out.

Structure tensors (Bilinear) store only their nonzero constants, as
integer numerators over one common denominator; products, operators,
quotients, spans of products and identity checks run on those integers,
and the Fraction tensor is a view built on first read; the span of all
products is reduced on first use and kept.  Inside the package an
operator is its nonzero columns {j: column}: every product x . y and
"x times each basis vector" loop reads them off one index of the
constants by row and by column, built on first use, through one
reader, _times_basis, and pushes y through them with one helper,
_push; _compose multiplies two, _combine sums integer multiples of
them, _restricted reads one on an invariant subspace (the split's phi
is held so and checked with these two), and one writer,
_columns_matrix, makes them a Matrix where one is returned.  Files
are read into and written from those integers (lralg.io) without
Fractions; they appear only at the edge of the library API: vectors
passed in and returned, Subspace.basis, the tensor views and the
defects of failed identities are tuples of fractions.Fraction.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from . import _kernels as K
from .errors import (
    DimensionMismatchError,
    NonCommutingFamilyError,
    PreconditionError,
)

Vector = tuple[Fraction, ...]


def to_fraction(x) -> Fraction:
    """Coerce an int, string or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _ratios(comps) -> dict[int, tuple[int, int]]:
    """A sparse {k: value} map of ints, strings or Fractions as
    {k: (numerator, denominator)}, the form _from_sparse reads."""
    out = {}
    for k, v in comps.items():
        f = to_fraction(v)
        out[k] = f.numerator, f.denominator
    return out


def vector(xs) -> Vector:
    v = tuple(xs)
    if set(map(type, v)) <= {Fraction}:
        return v
    return tuple(map(to_fraction, v))


def standard_basis(n: int) -> list[Vector]:
    return [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)]


_ZERO = Fraction(0)


def _to_vector(nums, den: int) -> Vector:
    """The Fractions x / den for integer numerators x (the edge where
    integer results leave the layer); zeros share one instance."""
    return tuple(Fraction(x, den) if x else _ZERO for x in nums)


def _int_row(pairs, n: int) -> list[int]:
    """The integer row of length n with the given nonzero (k, x) pairs."""
    row = [0] * n
    for k, x in pairs:
        row[k] = x
    return row


def _nonzero(row) -> list[tuple[int, int]]:
    """The nonzero (index, entry) pairs of an integer row."""
    return [(i, x) for i, x in enumerate(row) if x]


def _sparse_rows(m: Matrix) -> list[list[tuple[int, int]]]:
    """The nonzero (column, numerator) pairs of each row of m."""
    return [_nonzero(r) for r in m._int_rows()]


def _scale_fractions(entries) -> tuple[list[int], int]:
    """Common-denominator form of a flat Fraction sequence."""
    den = lcm(*{e.denominator for e in entries})
    if den == 1:
        return [e.numerator for e in entries], 1
    return [e.numerator * (den // e.denominator) for e in entries], den


def _scaled(vec, n: int, what: str) -> tuple[list[int], int]:
    """Common-denominator form of an input vector that must have length n."""
    v = vector(vec)
    if len(v) != n:
        raise DimensionMismatchError(f"vector length differs from {what} dimension")
    return _scale_fractions(v)


class Matrix:
    """Immutable exact rational matrix.

    Do not mutate the internal arrays; every operation returns a new
    instance.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows_of_entries):
        rows = [[to_fraction(x) for x in row] for row in rows_of_entries]
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatchError("ragged rows")
        flat = [x for row in rows for x in row]
        num, den = _scale_fractions(flat)
        self.rows = nrows
        self.cols = ncols
        self._num = num
        self._den = den

    @classmethod
    def _raw(cls, rows: int, cols: int, num: list[int], den: int) -> "Matrix":
        """Normalized construction from kernel-level data, with den > 0."""
        g = gcd(K.content(num), den)
        if g > 1:
            num = [x // g for x in num]
            den //= g
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._num = num
        m._den = den
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._raw(rows, cols, [0] * (rows * cols), 1)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        num = [0] * (n * n)
        for i in range(n):
            num[i * n + i] = 1
        return cls._raw(n, n, num, 1)

    @classmethod
    def from_rows(cls, rows_of_vectors) -> "Matrix":
        return cls(rows_of_vectors)

    @classmethod
    def from_columns(cls, columns) -> "Matrix":
        cols = [list(c) for c in columns]
        n = len(cols[0]) if cols else 0
        for c in cols:
            if len(c) != n:
                raise DimensionMismatchError("ragged columns")
        if not n:
            return cls.zeros(0, len(cols))
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return Fraction(self._num[i * self.cols + j], self._den)

    def row(self, i: int) -> Vector:
        base = i * self.cols
        return _to_vector(self._num[base:base + self.cols], self._den)

    def column(self, j: int) -> Vector:
        return _to_vector(self._num[j::self.cols], self._den)

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def _int_rows(self) -> list[list[int]]:
        """The rows as lists of integer numerators over _den."""
        c = self.cols
        return [self._num[i * c:(i + 1) * c] for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(self[i, j]) for j in range(self.cols)) for i in range(self.rows)
        )
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def __neg__(self) -> "Matrix":
        return Matrix._raw(self.rows, self.cols, [-x for x in self._num], self._den)

    def _same_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise DimensionMismatchError(f"{self.shape} vs {other.shape}")

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        da, db = self._den, other._den
        sa, sb = db // gcd(da, db), da // gcd(da, db)
        num = [x * sa + y * sb for x, y in zip(self._num, other._num)]
        return Matrix._raw(self.rows, self.cols, num, da * sa)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatchError(f"{self.shape} * {other.shape}")
            num = K.mat_mul(self._num, other._num, self.rows, self.cols, other.cols)
            return Matrix._raw(self.rows, other.cols, num, self._den * other._den)
        s = to_fraction(other)
        return Matrix._raw(
            self.rows, self.cols, [x * s.numerator for x in self._num], self._den * s.denominator
        )

    def __rmul__(self, other):
        return self * to_fraction(other)

    def apply(self, vec) -> Vector:
        """Matrix times column vector."""
        v = vector(vec)
        if len(v) != self.cols:
            raise DimensionMismatchError(f"{self.shape} applied to length {len(v)}")
        vnum, vden = _scale_fractions(v)
        out = [0] * self.rows
        num, cols = self._num, self.cols
        for j, x in enumerate(vnum):
            if x:
                for i in range(self.rows):
                    a = num[i * cols + j]
                    if a:
                        out[i] += a * x
        return _to_vector(out, self._den * vden)

    def transpose(self) -> "Matrix":
        num = [0] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                num[j * self.rows + i] = self._num[i * self.cols + j]
        return Matrix._raw(self.cols, self.rows, num, self._den)

    def power(self, k: int) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatchError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def rref(self) -> tuple["Matrix", tuple[int, ...], int]:
        """Reduced row echelon form, pivot columns, rank."""
        num, den, pivots = K.rref(self._num, self.rows, self.cols)
        return Matrix._raw(self.rows, self.cols, num, den), pivots, len(pivots)

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise DimensionMismatchError("inverse of a non-square matrix")
        n = self.rows
        aug = [0] * (n * 2 * n)
        for i in range(n):
            aug[i * 2 * n: i * 2 * n + n] = self._num[i * n:(i + 1) * n]
            aug[i * 2 * n + n + i] = self._den
        rnum, rden, pivots = K.rref(aug, n, 2 * n)
        if tuple(pivots) != tuple(range(n)):
            raise PreconditionError("matrix is singular")
        inv = [0] * (n * n)
        for i in range(n):
            inv[i * n:(i + 1) * n] = rnum[i * 2 * n + n:(i + 1) * 2 * n]
        return Matrix._raw(n, n, inv, rden)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...], int]:
    return m.rref()


class Subspace:
    """Linear subspace given by its reduced row echelon basis.

    The basis is stored sparse, as the echelon kernel gives it: _rows[t]
    lists the nonzero (column, numerator) pairs of the t-th basis row,
    in column order, its pivot column is pivots[t], and every row is
    over the one denominator _den, the least common denominator of the
    RREF.  That form is canonical, so == compares subspaces, not just
    bases, and __hash__ reads the same data.  rows is the basis as a
    dim x ambient_dim Matrix, a view built on first read, as
    Bilinear.tensor is; basis gives the rows as Fraction tuples.
    """

    __slots__ = ("ambient_dim", "pivots", "_rows", "_den", "_matrix", "_kept")

    def __init__(self, ambient_dim: int, rows: tuple, den: int, pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.pivots = pivots
        self._rows = rows
        self._den = den
        self._matrix = None
        self._kept = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors_) -> "Subspace":
        rows = [_scaled(v, ambient_dim, "ambient")[0] for v in vectors_]
        return cls._from_int_rows(ambient_dim, rows)

    @classmethod
    def _from_int_rows(cls, ambient_dim: int, rows: list[list[int]]) -> "Subspace":
        """Span of dense integer rows of length ambient_dim, zero rows
        allowed."""
        return cls._from_sparse(ambient_dim, map(_nonzero, rows))

    @classmethod
    def _from_sparse(cls, ambient_dim: int, rows) -> "Subspace":
        """Span of integer rows given by their nonzero (column,
        numerator) pairs, empty rows allowed.  Row reduction ignores the
        scale of each row, so one echelon of the rows gives the basis."""
        return cls(ambient_dim, *K.echelon(rows, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), 1, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        units = tuple(((i, 1),) for i in range(ambient_dim))
        return cls(ambient_dim, units, 1, tuple(range(ambient_dim)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        # The pivots are the leading columns of the rows.
        return (self.ambient_dim, self._den, self._rows) == (
            other.ambient_dim, other._den, other._rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._den, self._rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} in {self.ambient_dim})"

    @property
    def rows(self) -> Matrix:
        """The basis as a dim x ambient_dim Matrix, built on first read."""
        if self._matrix is None:
            n = self.ambient_dim
            num = [x for r in self._rows for x in _int_row(r, n)]
            self._matrix = Matrix._raw(self.dim, n, num, self._den)
        return self._matrix

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> tuple[Vector, ...]:
        return tuple(self.rows.row_list())

    def basis_matrix(self) -> Matrix:
        return self.rows

    def _remainder(self, v) -> dict[int, int]:
        """_den times the remainder of the integer vector with nonzero
        (index, numerator) pairs v, as its nonzero {index: numerator} map:
        _kernels.remainders of _den v against the basis rows, kept as
        dicts on first use; each holds _den at its pivot, so none rescales."""
        if self._kept is None:
            self._kept = {p: dict(r) for p, r in zip(self.pivots, self._rows)}
        if self._den != 1:
            v = [(k, x * self._den) for k, x in v]
        return next(K.remainders(self._kept, (v,)))

    def reduce(self, vec) -> Vector:
        """Remainder of vec after eliminating all pivot coordinates.

        vec minus the remainder lies in the subspace; the remainder has
        zeros at every pivot position.
        """
        vnum, vden = _scaled(vec, self.ambient_dim, "ambient")
        r = self._remainder(_nonzero(vnum)).items()
        return _to_vector(_int_row(r, self.ambient_dim), vden * self._den)

    def contains(self, vec) -> bool:
        return not self._remainder(_nonzero(_scaled(vec, self.ambient_dim, "ambient")[0]))

    def coordinates(self, vec) -> Vector | None:
        """Coefficients of vec in the RREF basis, or None if outside."""
        v = vector(vec)
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("ambient dimensions differ")
        return not any(self._remainder(r) for r in other._rows)

    def from_coordinates(self, coords) -> Vector:
        """Ambient vector with the given coefficients in the RREF basis."""
        cs = vector(coords)
        if len(cs) != self.dim:
            raise DimensionMismatchError("coordinate length differs from subspace dimension")
        return self.rows.transpose().apply(cs)


def kernel(m: Matrix) -> Subspace:
    """Null space of m, a subspace of the domain: its rows' annihilator."""
    return _annihilator(Subspace._from_sparse(m.cols, _sparse_rows(m)))


def _annihilator(s: Subspace) -> Subspace:
    """The x with b . x = 0 for all b in s: per non-pivot column j of its
    echelon rows, _den e_j minus their entries at j placed at their pivots."""
    n, at = s.ambient_dim, [dict(r) for r in s._rows]
    free = sorted(set(range(n)) - set(s.pivots))
    vecs = ([(j, s._den)] + [(p, -r[j]) for p, r in zip(s.pivots, at) if j in r] for j in free)
    return Subspace._from_sparse(n, vecs)


def image(m: Matrix) -> Subspace:
    """Column space of m, a subspace of the codomain."""
    return Subspace._from_int_rows(m.rows, [m._num[j::m.cols] for j in range(m.cols)])


def solve(m: Matrix, b) -> Vector | None:
    """One exact solution of m x = b, or None if there is none.

    Free variables are set to zero, so the answer is deterministic.
    """
    bv = vector(b)
    if len(bv) != m.rows:
        raise DimensionMismatchError("right-hand side length differs from row count")
    bnum, bden = _scale_fractions(bv)
    n = m.cols
    eqs = []
    for row, y in zip(_sparse_rows(m), bnum):
        eq = [(j, x * bden) for j, x in row]
        if y:
            eq.append((n, y * m._den))
        eqs.append(eq)
    sol = _solve_rows(eqs, n)
    return None if sol is None else _to_vector(*sol)


def _solve_rows(eqs, nvars: int) -> tuple[list[int], int] | None:
    """One solution of the system whose sparse integer rows eqs, (column,
    numerator) pairs, are [A | b] with b in column nvars: the integer
    numerators of x and their denominator, or None if there is none.

    The echelon form of the rows is unique; the system is inconsistent
    iff its last pivot is b's column, and otherwise x, with every free
    variable 0, is b's column read at the pivots.
    """
    rows, den, pivots = K.echelon(eqs, nvars + 1)
    if pivots and pivots[-1] == nvars:
        return None
    x = [0] * nvars
    for p, row in zip(pivots, rows):
        if row[-1][0] == nvars:
            x[p] = row[-1][1]
    return x, den


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    return Subspace._from_sparse(a.ambient_dim, a._rows + b._rows)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection by Zassenhaus's algorithm: the echelon rows of
    [u | u], u in a, and [v | 0], v in b, with a pivot past the left
    half are 0 there and hold the RREF basis of the intersection on the
    right, once their common factor with the denominator is divided out."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    n = a.ambient_dim
    rows, den, pivots = _graph_echelon(n, a._rows, b._rows)
    meet = [r for r, p in zip(rows, pivots) if p >= n]
    g = gcd(den, *(x for r in meet for _, x in r))
    basis = tuple(tuple((c - n, x // g) for c, x in r) for r in meet)
    return Subspace(n, basis, den // g, tuple(p - n for p in pivots if p >= n))


def _graph_echelon(n: int, tagged, plain) -> tuple[tuple, int, tuple[int, ...]]:
    """echelon's (rows, den, pivots) of the rows [b | b], b in tagged, and
    [b | 0], b in plain, for sparse rows b of length n."""
    graph = [b + tuple((n + k, x) for k, x in b) for b in tagged]
    return K.echelon(graph + list(plain), 2 * n)


def complement(s: Subspace) -> Subspace:
    """Standard-basis complement: coordinate vectors at non-pivot positions."""
    n = s.ambient_dim
    pivot_set = set(s.pivots)
    free = tuple(c for c in range(n) if c not in pivot_set)
    return Subspace(n, tuple(((c, 1),) for c in free), 1, free)


def restrict_operator(m: Matrix, s: Subspace) -> Matrix:
    """Matrix of m on an invariant subspace, in the RREF basis of s:
    column t holds the coordinates of m times the t-th basis row.
    Raises PreconditionError if s is not invariant under m, that is if
    one of those images leaves s.
    """
    if not m.is_square or m.rows != s.ambient_dim:
        raise DimensionMismatchError("operator does not act on the ambient space")
    coords = _restricted(_column_map(m), s)
    if coords is None:
        raise PreconditionError("subspace is not invariant under the operator")
    return _columns_matrix(coords, s.dim, m._den * s._den)


def _restricted(cols: dict, s: Subspace) -> dict | None:
    """The nonzero columns, in _push's form over s._den times the
    denominator of cols, of the operator with columns cols on s in its
    RREF basis: column t is the image of the t-th basis row read at the
    pivots; None if one of those images leaves s."""
    images = [dict(_push(cols, b, s.ambient_dim)) for b in s._rows]
    if any(s._remainder(v.items()) for v in images):
        return None
    return {t: tuple([(r, v[p]) for r, p in enumerate(s.pivots) if p in v])
            for t, v in enumerate(images) if v}


def _chain_end(first: Subspace, images) -> Subspace:
    """Where the chain W_1 = first, W_t+1 = span of the sparse vectors
    images(b) over the rows b of W_t, stops: at 0 or at the first step
    that keeps the dimension, the stable image, as the chain decreases.

    Each term past the first is held as the kept rows of the insertion
    loop of _kernels, each a multiple of an RREF row, so a step reduces
    the images of the rows of the RREF basis up to a scale per row; only
    the term returned is read out canonically.  A step stops at the
    dimension of the term before, the loop's cap, which holds it.  No
    step runs when first is 0 or the whole space: first is returned."""
    n, above, rows = first.ambient_dim, first.dim, first._rows
    if not 0 < above < n:
        return first
    while True:
        kept = K.insert({}, (w for b in rows for w in images(b)), above)
        if not kept:
            return Subspace.zero(n)
        if len(kept) == above:
            return Subspace(n, *K.canonical(kept))
        above, rows = len(kept), [kept[q].items() for q in sorted(kept)]


def _stable_image(n: int, family: list[dict]) -> Subspace:
    """The stable image of the operators on Q^n with nonzero columns
    {j: column} (_push's form): _chain_end from the span of the columns."""
    first = Subspace._from_sparse(n, (c for cols in family for c in cols.values()))
    return _chain_end(first, lambda b: (_push(cols, b, n) for cols in family))


def _column_map(m: Matrix) -> dict[int, list]:
    """The columns of m's numerators as {j: nonzero (k, x) pairs}, read
    off the flat numerators by stride, with no transpose."""
    return {j: _nonzero(m._num[j::m.cols]) for j in range(m.cols)}


def _transposed(cols: dict) -> dict[int, list]:
    """The rows {k: nonzero (j, x) pairs} of the operator with columns cols."""
    out: dict[int, list] = {}
    for j, col in cols.items():
        for k, x in col:
            out.setdefault(k, []).append((j, x))
    return out


def is_nilpotent_operator(m: Matrix) -> bool:
    """True iff a power of m is zero: the chain of images of m reaches 0."""
    if not m.is_square:
        raise DimensionMismatchError("nilpotency of a non-square matrix")
    return not _stable_image(m.rows, [_column_map(m)]).dim


class FittingSplit(namedtuple("FittingSplit", "v_n v_0 proj_n")):
    """Decomposition into the invariant parts v_n, the Fitting null
    component, where the operators act nilpotently, and v_0, the one
    component (both Subspaces); proj_n, a Matrix, is the projection onto
    v_n along v_0."""

    __slots__ = ()


def fitting_split_single(m: Matrix) -> FittingSplit:
    """Fitting decomposition of one operator: _fitting_split_commuting
    of the family [m].  v_n is the kernel and v_0 the image of m**dim;
    m is nilpotent on v_n and invertible on v_0.
    """
    if not m.is_square:
        raise DimensionMismatchError("Fitting split of a non-square matrix")
    return _fitting_split_commuting(m.rows, [_column_map(m)])


def fitting_split_family(ms) -> FittingSplit:
    """Joint Fitting decomposition of a pairwise commuting family.

    Checks that the operators are square of one size and that the two
    products of each pair, composed on the integer columns (_compose),
    are equal (NonCommutingFamilyError names the first pair where they
    differ), then runs _fitting_split_commuting on those columns, the
    unchecked core for callers that know the family commutes.
    """
    mats = list(ms)
    n = mats[0].rows if mats else 0
    for m in mats:
        if not m.is_square or m.rows != n:
            raise DimensionMismatchError("family members must be square of equal size")
    family = [_column_map(m) for m in mats]
    for i, a in enumerate(family):
        for j in range(i + 1, len(family)):
            if _compose(a, family[j], n) != _compose(family[j], a, n):
                raise NonCommutingFamilyError(f"operators {i} and {j} do not commute")
    return _fitting_split_commuting(n, family)


def _fitting_split_commuting(n: int, family: list[dict]) -> FittingSplit:
    """Joint Fitting decomposition of operators on Q^n, given by their
    integer columns {j: column}, that are assumed, not checked, to commute.

    v_0, the sum of the images of the powers m**n, is the family's
    stable image, and v_n, their common kernel, the annihilator of the
    transposed family's (de Graaf, Lie Algebras: Theory and Algorithms,
    2000).  The rows [b | b], b in v_n, and [b | 0], b in v_0, span the
    graph of proj_n: row i of their echelon form is [e_i | proj_n e_i],
    whose right half is written as column i (_columns_matrix).
    """
    if not family:
        raise DimensionMismatchError("empty operator family")
    v_0 = _stable_image(n, family)
    v_n = _annihilator(_stable_image(n, [_transposed(cols) for cols in family]))
    rows, den, pivots = _graph_echelon(n, v_n._rows, v_0._rows)
    if pivots != tuple(range(n)):
        raise PreconditionError("subspaces do not decompose the ambient space")
    cols = {i: [(c - n, x) for c, x in row[1:]] for i, row in enumerate(rows)}
    return FittingSplit(v_n, v_0, _columns_matrix(cols, n, den))


class Bilinear:
    """Bilinear map on Q^dim given by structure constants.

    The constants are stored once, as integers over one common
    denominator: _inz[i * dim + j] lists the pairs (k, c) for which
    c / _den is the nonzero coefficient of e_k in e_i . e_j, with k
    ascending, and gcd(_den, every c) = 1.  That form is canonical, so
    == compares it directly.  The loops below visit only those
    constants, the form of GAP's structure-constant tables (de Graaf,
    Lie Algebras: Theory and Algorithms, 2000), and turn results into
    Fractions only when they leave: a vector, a Matrix or the defect of
    a violation.  LieAlgebra and Product are the subclasses; _kind
    names the one at hand in error messages.

    Every builder ends in _fill, which puts the constants in that form:
    __init__ from a dense tensor, _from_sparse from a sparse map of
    integer ratios (the file parser's and, through _ratios, the library
    builders' route), and _from_int from constants computed on
    integers.  tensor is a read-only view of nested Fraction tuples,
    built on first read and cached in _tensor, for the API and for
    hashing.

    The operator of x, y -> x . y or y -> y . x, is read from _index,
    the nonzero constants by row and by column (_by), built on first
    use, by one reader: _times_basis returns its nonzero columns, sparse
    (the constants of one row or column for a single-term x, summed by
    _combine for more terms, which makes an accumulator only for a
    column that two terms reach), which operator writes into its Matrix
    (_columns_matrix), apply, the brackets of subspaces, phi, the
    split's closure and the lift push vectors through (_push), and the
    Lemma 14 identities, the completeness chains, escape and the
    completion's table read as they are; the LR identity check sums
    the constants of _by itself.
    The span of all products (_product_span) is kept in _span the same way.
    """

    __slots__ = ("dim", "_inz", "_den", "_tensor", "_index", "_span")
    _kind = "bilinear map"

    def __init__(self, tensor, *rest):
        t = [list(map(vector, row)) for row in tensor]
        n = len(t)
        if any(len(row) != n or any(len(v) != n for v in row) for row in t):
            raise DimensionMismatchError(f"{self._kind} tensor must be dim x dim x dim")
        nums, den = _scale_fractions([c for row in t for v in row for c in v])
        inz = [_nonzero(nums[ij * n:ij * n + n]) for ij in range(n * n)]
        self._fill(n, inz, den, *rest)

    @classmethod
    def _from_int(cls, dim: int, inz, den: int, *rest) -> "Bilinear":
        """The map whose constants tensor[i][j][k] are c / den for the
        pairs (k, c) of inz[i * dim + j]; every c is a nonzero integer,
        den > 0, and k may come in any order.  rest goes to _fill (a
        LieAlgebra's basis names)."""
        b = object.__new__(cls)
        b._fill(dim, inz, den, *rest)
        return b

    @classmethod
    def _from_sparse(cls, dim: int, pairs, *rest) -> "Bilinear":
        """The map given by a sparse {(i, j): {k: (num, den)}} map,
        0-based, each constant the integer ratio num / den with den > 0
        (in lowest terms or not); absent constants are zero.  The
        constants are lifted to the lcm of the given denominators, a
        common multiple of the reduced ones, from which _fill reaches
        the same canonical form.  The builder behind from_brackets,
        from_entries and the file parser."""
        den = lcm(*{d for comps in pairs.values() for _, d in comps.values()})
        inz = [()] * (dim * dim)
        for (i, j), comps in pairs.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise DimensionMismatchError(f"{cls._kind} pair ({i}, {j}) out of range")
            w = []
            for k, (x, d) in comps.items():
                if not 0 <= k < dim:
                    raise DimensionMismatchError(f"component index {k} out of range")
                if x:
                    w.append((k, x if d == den else x * (den // d)))
            inz[i * dim + j] = w
        return cls._from_int(dim, inz, den, *rest)

    def _fill(self, dim: int, inz, den: int) -> None:
        """Store constants given as for _from_int in canonical form: k
        ascending in each pair and gcd(den, every c) divided out, which
        leaves _den the lcm of the reduced denominators."""
        g = den
        for w in inz:
            for _, c in w:
                g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            inz = [[(k, c // g) for k, c in w] for w in inz]
            den //= g
        self.dim = dim
        self._inz = tuple([tuple(sorted(w)) if w else () for w in inz])
        self._den = den
        self._tensor = None
        self._index = None
        self._span = None

    @property
    def tensor(self) -> tuple[tuple[Vector, ...], ...]:
        """tensor[i][j][k], the coefficient of e_k in e_i . e_j, as
        nested Fraction tuples; built from _inz on first read."""
        if self._tensor is None:
            n, inz, den = self.dim, self._inz, self._den
            self._tensor = tuple(
                tuple(_to_vector(_int_row(w, n), den) for w in inz[i * n:(i + 1) * n])
                for i in range(n)
            )
        return self._tensor

    @property
    def _content(self) -> tuple:
        """(dim, _den, _inz): equal for two maps exactly when their
        constants are, since that form is canonical."""
        return self.dim, self._den, self._inz

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"

    def apply(self, x, y) -> Vector:
        """x . y: y pushed through the nonzero columns of operator(x)."""
        n = self.dim
        xnum, xden = _scaled(x, n, self._kind)
        ynum, yden = _scaled(y, n, self._kind)
        xy = _push(self._times_basis(_nonzero(xnum), False), _nonzero(ynum), n)
        return _to_vector(_int_row(xy, n), xden * yden * self._den)

    def operator(self, x, right: bool = False) -> Matrix:
        """Matrix of y -> x . y, or of y -> y . x when right is set."""
        n = self.dim
        xnum, xden = _scaled(x, n, self._kind)
        return _columns_matrix(self._times_basis(_nonzero(xnum), right), n, xden * self._den)

    def _by(self, right: bool) -> list[list]:
        """The nonzero constants by row, or by column when right is set:
        entry m lists the pairs (j, _inz[m * dim + j]), or
        (j, _inz[j * dim + m]), whose constants are nonzero.  Built on
        first use and kept in _index."""
        if self._index is None:
            n = self.dim
            rows, cols = self._index = [[] for _ in range(n)], [[] for _ in range(n)]
            for ij, w in enumerate(self._inz):
                if w:
                    i, j = divmod(ij, n)
                    rows[i].append((j, w))
                    cols[j].append((i, w))
        return self._index[right]

    def _product_span(self) -> Subspace:
        """The span of all products e_i . e_j, one row per nonzero
        constant slot; built on first use and kept in _span."""
        if self._span is None:
            self._span = Subspace._from_sparse(self.dim, [w for w in self._inz if w])
        return self._span

    def _times_basis(self, xs, right: bool) -> dict[int, tuple]:
        """The nonzero columns of operator(x) over _den, for x given by
        its nonzero (index, integer) pairs: {j: x . e_j}, or {j: e_j . x}
        when right is set, each a vector in _inz's form, sorted nonzero
        (k, numerator) pairs, so == on two columns is equality of the
        vectors.  For a single term x_m e_m these are the constants of
        row or column m, scaled by x_m, read here: _combine would give
        the same columns, one term per column, but on the pipebench
        workloads that route costs more than this loop.  _combine sums
        more terms."""
        by = self._by(right)
        if len(xs) == 1:
            (m, x), = xs
            if x == 1:
                return dict(by[m])
            return {j: tuple([(k, x * c) for k, c in w]) for j, w in by[m]}
        return _combine([(x, by[m]) for m, x in xs], self.dim)

    def escape(self, s: Subspace, both_sides: bool = False) -> tuple[str, int] | None:
        """First place where s fails to absorb the map, or None.

        For each basis vector b of s and each i in turn, e_i . b must lie
        in s (else ("left", i)) and, with both_sides, so must b . e_i
        (else ("right", i)).  Those products are column i of the right
        and of the left operator of b, read from the integer rows of s;
        only the nonzero columns are reduced, in increasing i.
        """
        for b in s._rows:
            left = self._times_basis(b, True)
            right = self._times_basis(b, False) if both_sides else {}
            for i in sorted(left.keys() | right.keys()):
                if i in left and s._remainder(left[i]):
                    return "left", i
                if i in right and s._remainder(right[i]):
                    return "right", i
        return None

    def _quotient(self, s: Subspace) -> tuple[int, list, int]:
        """The map induced on the non-pivot coordinates of s, as the
        dim, constants and denominator that _from_int takes.

        The basis of the quotient by s is the image of the standard
        basis vectors at those coordinates; the constants of e_a . e_b
        are its integer remainder against s, read there.  Meaningful
        when escape(s) is None.
        """
        n, inz = self.dim, self._inz
        pivots = set(s.pivots)
        free = [c for c in range(n) if c not in pivots]
        at = {f: t for t, f in enumerate(free)}
        out = []
        for a in free:
            for b in free:
                w = inz[a * n + b]
                if w:
                    w = [(at[f], x) for f, x in s._remainder(w).items()]
                out.append(w)
        return len(free), out, self._den * s._den


def _columns_matrix(cols: dict, n: int, den: int) -> Matrix:
    """The n x n Matrix over den with nonzero columns cols, {j: column}
    in _push's form."""
    num = [0] * (n * n)
    for j, col in cols.items():
        for k, c in col:
            num[k * n + j] = c
    return Matrix._raw(n, n, num, den)


def _combine(terms, n: int) -> dict[int, tuple]:
    """The sum of x M over the terms (x, M), x an integer and M an
    operator on Q^n given by its nonzero (j, column) pairs, in _push's
    form: {j: column}, each column sorted nonzero (k, numerator) pairs;
    columns that cancel are left out, and so are terms with x = 0.

    The first term that reaches column j is held as its (x, column)
    pair; a length-n accumulator is made only when a second one does,
    and only such a column is scanned for its nonzero entries.  A
    column reached once is that column times x, or the column itself
    when x = 1."""
    out: dict = {}
    for x, cols in terms:
        if not x:
            continue
        for j, w in cols:
            acc = out.get(j)
            if acc is None:
                out[j] = x, w
                continue
            if type(acc) is tuple:
                y, u = acc
                acc = out[j] = [0] * n
                for k, c in u:
                    acc[k] = y * c
            for k, c in w:
                acc[k] += x * c
    sums = {}
    for j, acc in out.items():
        if type(acc) is tuple:
            x, w = acc
            sums[j] = tuple(w) if x == 1 else tuple([(k, x * c) for k, c in w])
        elif v := _nonzero(acc):
            sums[j] = tuple(v)
    return sums


def _compose(a: dict, b: dict, n: int) -> dict:
    """The product a b of the operators on Q^n with nonzero columns a
    and b (_push's form), in that form: each column of b pushed through
    a, the columns that vanish left out."""
    return {j: w for j, col in b.items() if (w := _push(a, col, n))}


def _push(cols: dict, v, n: int) -> tuple:
    """The operator with nonzero columns cols, {j: column} as
    Bilinear._times_basis gives them, applied to v, a vector given by its
    nonzero (index, integer) pairs, in the columns' form: sorted nonzero
    (k, numerator) pairs.

    As in _combine, the first term of v with a nonzero column is held
    as its (coefficient, column) pair, and a length-n accumulator is
    made and scanned only when a second such term comes; a result that
    one term makes is its column times the coefficient, or the column
    itself when the coefficient is 1.  The loop is kept apart from
    _combine's, which could take v as one term per entry: a merge of the
    two through one shared core raised the pipebench verify workload's
    job_tail_s from 3.34 to 3.63 ms over 3 alternating pairs of runs on
    a 2-core Xeon host."""
    first = acc = None
    for j, c in v:
        col = cols.get(j)
        if not col:
            continue
        if acc is not None:
            for k, a in col:
                acc[k] += a * c
        elif first is None:
            first = c, col
        else:
            x, w = first
            acc = [0] * n
            for k, a in w:
                acc[k] = a * x
            for k, a in col:
                acc[k] += a * c
    if acc is not None:
        return tuple(_nonzero(acc))
    if first is None:
        return ()
    x, w = first
    return tuple(w) if x == 1 else tuple([(k, x * a) for k, a in w])


# The reports of check_lr, validate_lie and series on the last _MEMO_SIZE
# distinct inputs, keyed by the name of the check and the _content of
# its inputs.  A dict compares keys with ==, so a hash is never trusted
# alone, and the stored constants are immutable, so an equal key means
# an equal input and the same report.
_MEMO_SIZE = 8
_memo: dict = {}


def _memoized(key: tuple, compute, *args):
    """compute(*args), or the report already stored under an equal key;
    past _MEMO_SIZE entries the oldest one is dropped."""
    report = _memo.get(key)
    if report is None:
        report = _memo[key] = compute(*args)
        if len(_memo) > _MEMO_SIZE:
            del _memo[next(iter(_memo))]
    return report
