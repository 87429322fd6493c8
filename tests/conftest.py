"""Prints a one-line verdict per acceptance criterion at the end of any
run that touched tests/test_acceptance.py, empties the report memo
before every test, counts dense matrix products for the tests that
ask for mat_mul_calls, and holds what test modules import from here:
reference_product, the oracle product, and torus, the abelian-by-abelian
family.

The suite writes no bytecode: pytest loads this file before any test
module imports lralg, and the subprocess tests copy os.environ.  Caches
left in src/ would change the start-up time the pipeline benchmark
measures on the checkout.
"""

import os
import random
import re
import sys
from collections import Counter

import pytest

sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")


@pytest.fixture(autouse=True)
def _empty_report_memo():
    """Start every test with an empty report memo, so a test that counts
    or forbids work inside check_lr, validate_lie or series runs that
    work whatever ran before it."""
    from lralg import linalg

    linalg._memo.clear()


@pytest.fixture
def mat_mul_calls(monkeypatch):
    """The shapes (n, m, p) of every _kernels.mat_mul call the test makes:
    a dense matrix product shows up here, whatever the timing."""
    from lralg import _kernels

    calls = []
    real = _kernels.mat_mul

    def counted(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(_kernels, "mat_mul", counted)
    return calls


def reference_product(b, xs, ys) -> list[int]:
    """Numerators over b._den of x . y for the structure tensor b, with x
    and y given by their nonzero (index, integer) pairs: the triple loop
    over every slot b._inz[i * dim + j] of the two supports, read
    without the package's index of the constants."""
    n = b.dim
    out = [0] * n
    for i, x in xs:
        for j, y in ys:
            for k, c in b._inz[i * n + j]:
                out[k] += x * y * c
    return out


def torus(q: int, k: int, sheared: bool = False) -> "LieAlgebra":
    """a = Q^q acting on V = Q^k by [a_i, v_t] = w_it v_t, with fixed
    weights in 1..5; g_infinity = V.  sheared takes a_i + v_(i mod k) as
    the complement basis, which makes [a_i, a_j] a nonzero element of V,
    so the split's correction system gets nonzero right-hand sides."""
    from lralg.lie import LieAlgebra

    rng = random.Random(f"torus:{q}:{k}")
    w = [[rng.randint(1, 5) for _ in range(k)] for _ in range(q)]
    brackets = {(i, q + t): {q + t: w[i][t]} for i in range(q) for t in range(k)}
    if sheared:
        for i in range(q):
            for j in range(i + 1, q):
                v = Counter({q + j % k: w[i][j % k]})
                v[q + i % k] -= w[j][i % k]
                brackets[i, j] = {c: x for c, x in v.items() if x}
    return LieAlgebra.from_brackets(q + k, brackets)


_results: dict[int, tuple[str, str]] = {}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    m = _PATTERN.search(report.nodeid)
    if not m:
        return
    num, label = int(m.group(1)), m.group(2).replace("_", " ")
    if report.when == "setup" and report.skipped:
        _results[num] = (label, "SKIP")
        return
    if report.when != "call":
        return
    outcome = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    _results[num] = (label, outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_results):
        label, outcome = _results[num]
        terminalreporter.write_line(f"criterion {num} ({label}): {outcome}")
