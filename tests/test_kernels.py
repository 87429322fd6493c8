"""Integer kernel routines: frozen values on small and large inputs, and
echelon against a Fraction Gauss-Jordan."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lralg import _kernels as K
from test_properties import fraction_rref


class TestContent:
    def test_simple(self):
        assert K.content([6, 9, 15]) == 3

    def test_mixed_signs(self):
        assert K.content([-4, 6]) == 2

    def test_all_zero(self):
        assert K.content([0, 0, 0]) == 0

    def test_empty(self):
        assert K.content([]) == 0

    def test_coprime_short_circuits(self):
        assert K.content([3, 5, 10**50]) == 1


class TestMatMul:
    def test_2x2(self):
        a = [1, 2, 3, 4]
        b = [5, 6, 7, 8]
        assert K.mat_mul(a, b, 2, 2, 2) == [19, 22, 43, 50]

    def test_rectangular(self):
        a = [1, 0, 2, 0, 1, 3]  # 2x3
        b = [1, 1, 0, 2, 5, 0]  # 3x2
        assert K.mat_mul(a, b, 2, 3, 2) == [11, 1, 15, 2]

    def test_zero_rows_skipped(self):
        a = [0, 0, 1, 1]
        b = [7, 8, 9, 10]
        assert K.mat_mul(a, b, 2, 2, 2) == [0, 0, 16, 18]

    def test_big_integers(self):
        n = 10**40
        assert K.mat_mul([n, n], [n, n], 1, 2, 1) == [2 * n * n]


class TestRref:
    def test_identity_fixed(self):
        num, den, pivots = K.rref([1, 0, 0, 1], 2, 2)
        assert (num, den, pivots) == ([1, 0, 0, 1], 1, (0, 1))

    def test_rank_one(self):
        num, den, pivots = K.rref([1, 2, 2, 4], 2, 2)
        assert (num, den, pivots) == ([1, 2, 0, 0], 1, (0,))

    def test_fraction_result(self):
        # [[2, 1], [1, 1]] reduces with a nontrivial denominator nowhere:
        # invertible, so identity.
        num, den, pivots = K.rref([2, 1, 1, 1], 2, 2)
        assert (num, den, pivots) == ([1, 0, 0, 1], 1, (0, 1))

    def test_noninteger_rref(self):
        # [[2, 1]] -> [[1, 1/2]]
        num, den, pivots = K.rref([2, 1], 1, 2)
        assert (num, den, pivots) == ([2, 1], 2, (0,))

    def test_zero_matrix(self):
        num, den, pivots = K.rref([0, 0, 0, 0], 2, 2)
        assert (num, den, pivots) == ([0, 0, 0, 0], 1, ())

    def test_pivot_skips_zero_column(self):
        num, den, pivots = K.rref([0, 3, 0, 0], 2, 2)
        assert (num, den, pivots) == ([0, 1, 0, 0], 1, (1,))

    def test_elimination_above_and_below(self):
        # [[1, 1, 2], [0, 1, 1], [1, 0, 1]]: rank 2, third col = e1 + e2
        num, den, pivots = K.rref([1, 1, 2, 0, 1, 1, 1, 0, 1], 3, 3)
        assert (num, den, pivots) == ([1, 0, 1, 0, 1, 1, 0, 0, 0], 1, (0, 1))

    def test_does_not_mutate_input(self):
        a = [1, 2, 3, 4]
        K.rref(a, 2, 2)
        assert a == [1, 2, 3, 4]


def test_rref_scale_invariance_of_pivots():
    # scaling a row must not change the reduced form
    base = [2, 4, 6, 1, 1, 1]
    scaled = [4, 8, 12, 1, 1, 1]
    assert K.rref(base, 2, 3) == K.rref(scaled, 2, 3)


def test_content_gcd_matches_math():
    v = [math.prod(range(2, 9)), 2**6 * 3, -(2**4) * 5]
    assert K.content(v) == math.gcd(*[abs(x) for x in v])


def dense_rref_rows(rows, cols):
    """The canonical (rows, den, pivots) of the span of sparse rows, from
    a Fraction Gauss-Jordan on the dense rows: the nonzero RREF rows
    over the least common denominator of their entries, made sparse."""
    dense = []
    for r in rows:
        row = [Fraction(0)] * cols
        for c, x in r:
            row[c] = Fraction(x)
        dense.append(row)
    basis, pivots = fraction_rref(dense, cols)
    den = math.lcm(1, *(x.denominator for r in basis for x in r))
    out = tuple(tuple((c, int(x * den)) for c, x in enumerate(r) if x) for r in basis)
    return out, den, pivots


def sparse_rows(data, cols):
    """Integer rows of length cols as hypothesis draws them: zero rows,
    repeated rows, negative leading entries and entries of up to 70 bits,
    given by their nonzero (column, entry) pairs in a shuffled order."""
    entry = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70))
    drawn = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=8))
    if drawn and data.draw(st.booleans()):
        drawn.append(list(drawn[0]))
    if drawn and data.draw(st.booleans()):
        drawn.append([-3 * x for x in drawn[-1]])
    rows = [[(c, x) for c, x in enumerate(r) if x] for r in drawn]
    return [data.draw(st.permutations(r)) for r in rows]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_echelon_matches_dense_rref(data):
    cols = data.draw(st.integers(1, 7))
    rows = sparse_rows(data, cols)
    assert K.echelon(rows, cols) == dense_rref_rows(rows, cols)


class TestEchelon:
    def test_no_rows(self):
        assert K.echelon([], 3) == ((), 1, ())
        assert K.echelon([[], []], 3) == ((), 1, ())

    def test_fraction_result(self):
        # [[2, 1]] -> [[1, 1/2]], over 2
        assert K.echelon([[(1, 1), (0, 2)]], 2) == ((((0, 2), (1, 1)),), 2, (0,))

    def test_negative_leading_entry_and_elimination_above(self):
        # [[0, -2, 4], [1, 1, 0]] -> [[1, 0, 2], [0, 1, -2]]
        rows = [[(1, -2), (2, 4)], [(0, 1), (1, 1)]]
        assert K.echelon(rows, 3) == ((((0, 1), (2, 2)), ((1, 1), (2, -2))), 1, (0, 1))

    def test_stops_at_full_rank(self):
        seen = []

        def rows():
            for r in ([(0, 1)], [(1, 1)], [(0, 5), (1, 7)]):
                seen.append(r)
                yield r

        assert K.echelon(rows(), 2) == ((((0, 1),), ((1, 1),)), 1, (0, 1))
        assert len(seen) == 2

    def test_does_not_mutate_input(self):
        rows = [[(0, 2), (1, 4)], [(0, 1), (1, 3)]]
        K.echelon(rows, 2)
        assert rows == [[(0, 2), (1, 4)], [(0, 1), (1, 3)]]
