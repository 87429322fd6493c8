"""Catalog builders and fixtures."""

from fractions import Fraction

import pytest

from lralg.catalog import (
    abelian,
    diag_solvable,
    filiform,
    fixture_expectations,
    free_two_step,
    heisenberg,
    known_lr,
    known_lr_names,
    named_algebra,
    r2,
)
from lralg.errors import PreconditionError, UnknownFixtureError
from lralg.lie import series, validate_lie
from lralg.lr import check_lr

F = Fraction


class TestBuilders:
    def test_abelian(self):
        g = abelian(4)
        assert g.dim == 4
        assert all(not any(v) for row in g.brackets for v in row)
        with pytest.raises(PreconditionError):
            abelian(0)

    def test_heisenberg(self):
        g = heisenberg()
        assert g.dim == 3
        assert g.bracket((1, 0, 0), (0, 1, 0)) == (F(0), F(0), F(1))

    def test_filiform(self):
        g = filiform(5)
        assert g.dim == 5
        rep = series(g)
        assert rep.nilpotent
        assert len(rep.lower_central) == 5  # maximal class
        with pytest.raises(PreconditionError):
            filiform(2)

    def test_r2_names(self):
        g = r2()
        assert g.basis_names == ("x", "y")
        assert not series(g).nilpotent

    def test_diag_solvable(self):
        g = diag_solvable([1, "1/2"])
        assert g.dim == 3
        assert g.bracket((1, 0, 0), (0, 0, 1)) == (F(0), F(0), F(1, 2))
        assert g.basis_names == ("x", "y1", "y2")
        with pytest.raises(PreconditionError):
            diag_solvable([])

    def test_free_two_step(self):
        g = free_two_step(3)
        assert g.dim == 6
        assert g.basis_names == ("x1", "x2", "x3", "z12", "z13", "z23")
        rep = series(g)
        assert rep.nilpotent and len(rep.lower_central) == 3
        # single generator degenerates to a line
        assert free_two_step(1).dim == 1
        with pytest.raises(PreconditionError):
            free_two_step(0)

    def test_all_builders_valid(self):
        for g in (
            abelian(3),
            heisenberg(),
            filiform(7),
            r2(),
            diag_solvable([2, 3, 5]),
            free_two_step(4),
        ):
            ok, _ = validate_lie(g)
            assert ok


class TestFixtures:
    def test_names_stable(self):
        assert set(known_lr_names()) == {
            "heisenberg-half",
            "heisenberg-onesided",
            "heisenberg-fullbracket",
            "abelian1-idempotent",
            "abelian2-idempotent-line",
            "r2-twogen",
            "r2-completed",
            "diag11-twogen",
            "free2step3-half",
            "filiform12-shift",
            "r2-right-broken",
            "r2-left-broken",
        }

    @pytest.mark.parametrize("name", known_lr_names())
    def test_documented_flags_hold(self, name):
        g, p = known_lr(name)
        fx = fixture_expectations(name)
        rep = check_lr(g, p)
        assert rep.is_lr == fx.is_lr
        assert rep.is_compatible == fx.is_compatible
        assert rep.is_complete == fx.is_complete
        assert {v.identity for v in rep.violations} == set(fx.failing)

    @pytest.mark.parametrize("name", known_lr_names())
    def test_algebras_valid(self, name):
        g, _ = known_lr(name)
        ok, _ = validate_lie(g)
        assert ok

    def test_each_call_fresh(self):
        a1, p1 = known_lr("r2-twogen")
        a2, p2 = known_lr("r2-twogen")
        assert a1 == a2 and p1 == p2
        assert a1 is not a2

    def test_unknown_name(self):
        with pytest.raises(UnknownFixtureError):
            known_lr("no-such-fixture")
        with pytest.raises(UnknownFixtureError):
            fixture_expectations("no-such-fixture")

    def test_filiform12_shift_matches_closed_form(self):
        g, p = known_lr("filiform12-shift")
        assert g.dim == 12
        for i in range(1, 11):
            assert p.table[i][0][i + 1] == F(-1)

    def test_description_present(self):
        for name in known_lr_names():
            assert fixture_expectations(name).description


class TestNamedAlgebra:
    def test_families(self):
        assert named_algebra("abelian", "3").dim == 3
        assert named_algebra("heisenberg").dim == 3
        assert named_algebra("filiform", "6").dim == 6
        assert named_algebra("r2").dim == 2
        assert named_algebra("diag-solvable", "1,1/2,-3").dim == 4
        assert named_algebra("free-two-step", "2").dim == 3

    def test_bad_parameters(self):
        with pytest.raises(PreconditionError):
            named_algebra("abelian")
        with pytest.raises(PreconditionError):
            named_algebra("abelian", "x")
        with pytest.raises(PreconditionError):
            named_algebra("r2", "2")
        with pytest.raises(PreconditionError):
            named_algebra("diag-solvable", "1,oops")
        with pytest.raises(PreconditionError):
            named_algebra("diag-solvable")
        # Digit strings below a family's range get the family's message.
        with pytest.raises(PreconditionError, match="start at dimension 3"):
            named_algebra("filiform", "2")
        with pytest.raises(PreconditionError, match="at least 1"):
            named_algebra("abelian", "0")

    def test_unknown_family(self):
        with pytest.raises(UnknownFixtureError):
            named_algebra("simple", "2")
