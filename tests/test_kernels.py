"""Integer kernel routines: frozen values and backend parity.

The compiled backend must agree with the pure Python one bit for bit;
parity tests are skipped when only one backend is importable.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lralg._kernels import BACKEND, pykernels

try:
    from lralg._kernels import _ckernels
except ImportError:
    _ckernels = None


class TestContent:
    def test_simple(self):
        assert pykernels.content([6, 9, 15]) == 3

    def test_mixed_signs(self):
        assert pykernels.content([-4, 6]) == 2

    def test_all_zero(self):
        assert pykernels.content([0, 0, 0]) == 0

    def test_empty(self):
        assert pykernels.content([]) == 0

    def test_coprime_short_circuits(self):
        assert pykernels.content([3, 5, 10**50]) == 1


class TestMatMul:
    def test_2x2(self):
        a = [1, 2, 3, 4]
        b = [5, 6, 7, 8]
        assert pykernels.mat_mul(a, b, 2, 2, 2) == [19, 22, 43, 50]

    def test_rectangular(self):
        a = [1, 0, 2, 0, 1, 3]  # 2x3
        b = [1, 1, 0, 2, 5, 0]  # 3x2
        assert pykernels.mat_mul(a, b, 2, 3, 2) == [11, 1, 15, 2]

    def test_zero_rows_skipped(self):
        a = [0, 0, 1, 1]
        b = [7, 8, 9, 10]
        assert pykernels.mat_mul(a, b, 2, 2, 2) == [0, 0, 16, 18]

    def test_big_integers(self):
        n = 10**40
        assert pykernels.mat_mul([n, n], [n, n], 1, 2, 1) == [2 * n * n]


class TestRref:
    def test_identity_fixed(self):
        num, den, pivots = pykernels.rref([1, 0, 0, 1], 2, 2)
        assert (num, den, pivots) == ([1, 0, 0, 1], 1, (0, 1))

    def test_rank_one(self):
        num, den, pivots = pykernels.rref([1, 2, 2, 4], 2, 2)
        assert (num, den, pivots) == ([1, 2, 0, 0], 1, (0,))

    def test_fraction_result(self):
        # [[2, 1], [1, 1]] reduces with a nontrivial denominator nowhere:
        # invertible, so identity.
        num, den, pivots = pykernels.rref([2, 1, 1, 1], 2, 2)
        assert (num, den, pivots) == ([1, 0, 0, 1], 1, (0, 1))

    def test_noninteger_rref(self):
        # [[2, 1]] -> [[1, 1/2]]
        num, den, pivots = pykernels.rref([2, 1], 1, 2)
        assert (num, den, pivots) == ([2, 1], 2, (0,))

    def test_zero_matrix(self):
        num, den, pivots = pykernels.rref([0, 0, 0, 0], 2, 2)
        assert (num, den, pivots) == ([0, 0, 0, 0], 1, ())

    def test_pivot_skips_zero_column(self):
        num, den, pivots = pykernels.rref([0, 3, 0, 0], 2, 2)
        assert (num, den, pivots) == ([0, 1, 0, 0], 1, (1,))

    def test_elimination_above_and_below(self):
        # [[1, 1, 2], [0, 1, 1], [1, 0, 1]]: rank 2, third col = e1 + e2
        num, den, pivots = pykernels.rref([1, 1, 2, 0, 1, 1, 1, 0, 1], 3, 3)
        assert (num, den, pivots) == ([1, 0, 1, 0, 1, 1, 0, 0, 0], 1, (0, 1))

    def test_does_not_mutate_input(self):
        a = [1, 2, 3, 4]
        pykernels.rref(a, 2, 2)
        assert a == [1, 2, 3, 4]


vector_ints = st.integers(min_value=-10**6, max_value=10**6)


@st.composite
def matrix_flat(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(
        st.lists(vector_ints, min_size=rows * cols, max_size=rows * cols)
    )
    return rows, cols, data


@pytest.mark.skipif(_ckernels is None, reason="compiled backend unavailable")
class TestBackendParity:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(vector_ints, max_size=8))
    def test_content(self, v):
        assert _ckernels.content(v) == pykernels.content(v)

    @settings(max_examples=100, deadline=None)
    @given(matrix_flat(), matrix_flat())
    def test_mat_mul(self, left, right):
        n, m, a = left
        _, p, b = right
        b = (b * ((m * p) // len(b) + 1))[: m * p]
        assert _ckernels.mat_mul(a, b, n, m, p) == pykernels.mat_mul(a, b, n, m, p)

    @settings(max_examples=150, deadline=None)
    @given(matrix_flat())
    def test_rref(self, mat):
        rows, cols, data = mat
        assert _ckernels.rref(data, rows, cols) == pykernels.rref(data, rows, cols)

    def test_rref_huge_entries(self):
        data = [10**30 + 7, -(10**28), 3, 10**25, 1, -1]
        assert _ckernels.rref(data, 2, 3) == pykernels.rref(data, 2, 3)


def test_backend_selected():
    assert BACKEND in ("cython", "python")


def test_env_override_forces_python(tmp_path, monkeypatch):
    import os
    import subprocess
    import sys

    import lralg

    root = os.path.dirname(os.path.dirname(lralg.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "from lralg._kernels import BACKEND; print(BACKEND)"],
        env={"LRALG_KERNELS": "py", "PATH": "/usr/bin:/bin", "PYTHONPATH": root},
        capture_output=True,
        text=True,
    )
    assert out.stdout.strip() == "python"


def test_rref_scale_invariance_of_pivots():
    # scaling a row must not change the reduced form
    base = [2, 4, 6, 1, 1, 1]
    scaled = [4, 8, 12, 1, 1, 1]
    assert pykernels.rref(base, 2, 3) == pykernels.rref(scaled, 2, 3)


def test_content_gcd_matches_math():
    v = [math.prod(range(2, 9)), 2**6 * 3, -(2**4) * 5]
    assert pykernels.content(v) == math.gcd(*[abs(x) for x in v])
