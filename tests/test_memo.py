"""The report memo: check_lr, validate_lie and series are answered from
the reports of inputs with equal content, never from a hash alone, and
every answer equals a fresh computation.  Computations are counted as
calls of the uncached functions lr._check_lr, lie._validate_lie and
lie._series, the memo's misses."""

import sys

import pytest

from lralg import lie, linalg, lr
from lralg.catalog import abelian, diag_solvable, filiform, known_lr
from lralg.construct import complete_any, two_generator_lr
from lralg.errors import DimensionMismatchError, InvalidLieAlgebraError
from lralg.lie import LieAlgebra, series, validate_lie
from lralg.linalg import standard_basis
from lralg.lr import COMPATIBILITY, Product, check_lr


def twin(b):
    """A new object with the constants of b."""
    if isinstance(b, LieAlgebra):
        return LieAlgebra._from_int(b.dim, b._inz, b._den, b.basis_names)
    return Product._from_int(b.dim, b._inz, b._den)


@pytest.fixture
def counts(monkeypatch):
    """Calls of check_lr, wherever a module binds it, and computations
    of each memoized report."""
    seen = {"check_lr": 0, "_check_lr": 0, "_validate_lie": 0, "_series": 0}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args):
            seen[name] += 1
            return original(*args)

        return original, counted

    original, counted = count(lr, "check_lr")
    for module in list(sys.modules.values()):
        if module.__name__.split(".")[0] == "lralg" and vars(module).get("check_lr") is original:
            monkeypatch.setattr(module, "check_lr", counted)
    for module, name in ((lr, "_check_lr"), (lie, "_validate_lie"), (lie, "_series")):
        monkeypatch.setattr(module, name, count(module, name)[1])
    return seen


@pytest.mark.parametrize(
    "g, x, y, computed",
    [
        # g_infinity = 0: the complement algebra equals g and the
        # projection is the identity, so every certificate has one input.
        (filiform(12), standard_basis(12)[0], standard_basis(12)[1], 1),
        (diag_solvable([1, 2, 3]), (1, 0, 0, 0), (0, 1, 1, 1), 3),
    ],
    ids=["filiform12", "diag123"],
)
def test_equal_inputs_are_checked_once(counts, g, x, y, computed):
    """two_generator_lr then complete_any: every certificate call site
    still calls check_lr, and equal inputs are computed once."""
    cert = complete_any(g, two_generator_lr(g, x, y))
    assert counts["check_lr"] == 7
    assert counts["_check_lr"] == computed
    rep = lr._check_lr(g, cert.completed)
    assert rep.is_lr and rep.is_compatible and rep.is_complete


def test_equal_algebra_is_validated_once(counts):
    g = filiform(8)
    assert validate_lie(g) == (True, [])
    h = twin(g)
    assert h is not g and h._valid is None
    assert validate_lie(h) == (True, [])
    assert h._valid is True
    assert series(h) is series(g)
    assert counts["_validate_lie"] == 1
    assert counts["_series"] == 1


def test_changed_constant_gets_its_own_report(counts):
    g, p = known_lr("r2-completed")
    assert not check_lr(g, p).violations
    table = [[list(v) for v in row] for row in p.table]
    table[0][1][1] += 1
    changed = Product(table)
    assert changed != p
    rep = check_lr(g, changed)
    assert rep == lr._check_lr(g, changed)
    assert (COMPATIBILITY, (0, 1)) in [(v.identity, v.indices) for v in rep.violations]
    assert not rep.is_compatible
    assert not check_lr(g, p).violations
    assert counts["_check_lr"] == 3  # p, changed, and the fresh computation above


def test_invalid_twin_raises_the_same_detailed_message(counts):
    def broken():
        # Jacobi fails at (1, 2, 3).
        return LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})

    messages = []
    for _ in range(2):
        with pytest.raises(InvalidLieAlgebraError) as exc:
            check_lr(broken(), Product.zero(3))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0] == "1 violated identities, first: jacobi at (1, 2, 3)"
    assert counts["_validate_lie"] == 1
    assert counts["_check_lr"] == 0
    ok, violations = validate_lie(broken())
    assert not ok and violations == list(lie._validate_lie(broken())[1])


def test_repeated_ensure_valid_raises_the_same_detailed_message(counts):
    g = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    messages = []
    for _ in range(2):
        with pytest.raises(InvalidLieAlgebraError) as exc:
            g.ensure_valid()
        messages.append(str(exc.value))
    assert messages == ["1 violated identities, first: jacobi at (1, 2, 3)"] * 2
    assert counts["_validate_lie"] == 1


def test_dimension_check_runs_before_the_lookup(counts):
    g = abelian(2)
    with pytest.raises(DimensionMismatchError):
        check_lr(g, Product.zero(3))
    assert counts["_check_lr"] == 0
    assert not linalg._memo.get(("lr", g._content, Product.zero(3)._content))


def test_memo_holds_at_most_its_bound(counts):
    bound = linalg._MEMO_SIZE
    algebras = [abelian(n) for n in range(1, 2 * bound + 2)]
    for g in algebras:
        assert series(g).nilpotent
        assert len(linalg._memo) <= bound
    assert len(linalg._memo) == bound
    # The oldest report was dropped: a repeat of the first algebra
    # computes again, and gets the same answer.
    before = counts["_series"]
    first = twin(algebras[0])
    assert series(first) == lie._series(algebras[0])
    assert counts["_series"] == before + 2
    assert len(linalg._memo) == bound


def test_memo_key_is_content_not_names():
    """Basis names take no part in any memoized report."""
    g = filiform(5)
    named = LieAlgebra._from_int(g.dim, g._inz, g._den, [f"x{i}" for i in range(5)])
    assert named != g
    assert series(named) is series(g)
    assert validate_lie(named) == validate_lie(g)
    p = Product.zero(5)
    assert check_lr(named, p) is check_lr(g, p)
