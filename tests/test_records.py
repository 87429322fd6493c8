"""The result records of the package are immutable named tuples.

Each of the nine records (reports, certificates, splits, fixtures) is a
tuple subclass with empty __slots__: its fields keep the order they have
always had, instances hold no __dict__ and refuse every assignment,
equality and hashing go by the fields, and repr reads
Name(field=value, ...).  The properties and __str__ defined on them give
the values they gave before.
"""

from fractions import Fraction

import pytest

from lralg import catalog, construct, lie, linalg, lr
from lralg.catalog import diag_solvable, fixture_expectations, heisenberg, known_lr
from lralg.construct import complete_any
from lralg.lie import LieAlgebra, series, split_metabelian
from lralg.linalg import Matrix
from lralg.lr import check_lemma14, check_lr, two_of_three

# The field order of each record, as it was when they were dataclasses.
FIELDS = {
    linalg.FittingSplit: ("v_n", "v_0", "proj_n"),
    lie.Violation: ("identity", "indices", "defect"),
    lie.SeriesReport: ("lower_central", "g_infinity", "derived", "nilpotent", "solvable_class"),
    lie.SplitDecomposition: ("algebra", "series", "complement", "phi", "complement_algebra"),
    lr.LrReport: ("is_lr", "is_compatible", "is_complete", "violations"),
    lr.TwoOfThree: ("left_nilpotent", "right_nilpotent", "algebra_nilpotent", "consistent"),
    construct.ContainmentWitness: ("new_products_span", "old_products_span", "holds"),
    construct.CompletionCertificate: ("original", "completed", "fitting", "containment_witness"),
    catalog.Fixture: ("name", "is_lr", "is_compatible", "is_complete", "failing", "description"),
}

# Records whose fields are all hashable; the others hold a Matrix, a
# LieAlgebra or a Product, which define equality but no hash.
HASHABLE = {
    lie.Violation, lie.SeriesReport, lr.LrReport, lr.TwoOfThree,
    construct.ContainmentWitness, catalog.Fixture,
}


def records():
    """One instance of each record, from catalog fixtures."""
    cert = complete_any(*known_lr("diag11-twogen"))
    rep = check_lr(*known_lr("heisenberg-fullbracket"))
    return [
        cert.fitting,
        rep.violations[0],
        series(heisenberg()),
        split_metabelian(diag_solvable([1, 2])),
        rep,
        two_of_three(*known_lr("heisenberg-half")),
        cert.containment_witness,
        cert,
        fixture_expectations("heisenberg-half"),
    ]


@pytest.fixture(scope="module")
def built():
    return {type(r): r for r in records()}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
class TestContract:
    def test_fields_keep_their_order(self, cls, built):
        assert cls._fields == FIELDS[cls]
        assert isinstance(built[cls], tuple)

    def test_no_instance_dict(self, cls, built):
        assert cls.__slots__ == ()
        assert not hasattr(built[cls], "__dict__")

    def test_every_assignment_raises(self, cls, built):
        rec = built[cls]
        for name in cls._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                delattr(rec, name)

    def test_equality_and_hash_go_by_fields(self, cls, built):
        rec = built[cls]
        values = tuple(getattr(rec, f) for f in cls._fields)
        copy = cls(*values)
        assert copy == rec and copy is not rec
        assert cls(**dict(zip(cls._fields, values))) == rec
        for name in cls._fields:
            assert rec._replace(**{name: object()}) != rec
        if cls in HASHABLE:
            assert hash(copy) == hash(rec) == hash(values)
        else:
            with pytest.raises(TypeError):
                hash(rec)

    def test_repr_names_every_field(self, cls, built):
        rec = built[cls]
        shown = ", ".join(f"{f}={getattr(rec, f)!r}" for f in cls._fields)
        assert repr(rec) == f"{cls.__name__}({shown})"


def test_reprs_read_as_before():
    rep = check_lr(*known_lr("heisenberg-fullbracket"))
    assert repr(rep) == (
        "LrReport(is_lr=True, is_compatible=False, is_complete=True, violations=("
        "Violation(identity='xy - yx = [x,y]', indices=(0, 1), "
        "defect=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1))),))"
    )
    assert repr(fixture_expectations("heisenberg-half")) == (
        "Fixture(name='heisenberg-half', is_lr=True, is_compatible=True, is_complete=True, "
        "failing=(), description='half the bracket on the Heisenberg algebra')"
    )


def test_violation_str():
    rep = check_lr(*known_lr("heisenberg-fullbracket"))
    assert [str(v) for v in rep.violations] == ["xy - yx = [x,y] at (1, 2)"]
    rep = check_lr(*known_lr("r2-right-broken"))
    assert [str(v) for v in rep.violations] == ["(xy)z = (xz)y at (1, 2, 2)"]
    rep = check_lemma14(known_lr("r2-left-broken")[1])
    assert [str(v) for v in rep] == ["x(yz) = y(xz) at (1, 2, 2)"]
    assert str(lie.Violation("jacobi", (0, 2, 4), (1,))) == "jacobi at (1, 3, 5)"


def sl2() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})


def upper_triangular3() -> LieAlgebra:
    """The 3 x 3 upper triangular matrices, on E11, E22, E33, E12, E13,
    E23: solvable of class 3."""
    return LieAlgebra.from_brackets(6, {
        (0, 3): {3: 1}, (0, 4): {4: 1}, (1, 3): {3: -1}, (1, 5): {5: 1},
        (2, 4): {4: -1}, (2, 5): {5: -1}, (3, 5): {4: 1},
    })


@pytest.mark.parametrize("build, nilpotent, solvable_class", [
    (heisenberg, True, 2),
    (lambda: diag_solvable([1, 2]), False, 2),
    (upper_triangular3, False, 3),
    (sl2, False, None),
])
def test_series_flags(build, nilpotent, solvable_class):
    rep = series(build())
    assert rep.nilpotent is nilpotent
    assert rep.solvable_class == solvable_class
    assert rep.solvable is (solvable_class is not None)
    assert rep.two_step_solvable is (solvable_class is not None and solvable_class <= 2)


def test_split_properties():
    split = split_metabelian(diag_solvable([1, 2]))
    assert split.g_infinity is split.series.g_infinity
    assert split.g_infinity.basis == ((0, 1, 0), (0, 0, 1))
    assert split.phi == (Matrix.from_rows([[1, 0], [0, 2]]),)
    assert split.phi_of((3,)) == Matrix.from_rows([[3, 0], [0, 6]])
    assert split.phi_of((Fraction(-1, 2),)) == Matrix.from_rows([["-1/2", 0], [0, -1]])
    assert split.phi_of((0,)) == Matrix.zeros(2, 2)

