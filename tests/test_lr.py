"""Products, LR identities, the operator identity suite, completeness
bookkeeping and quotient products."""

from fractions import Fraction

import pytest

from lralg import _kernels, cli, io, linalg, lr
from lralg.catalog import (
    abelian,
    filiform,
    fixture_expectations,
    heisenberg,
    known_lr,
    known_lr_names,
    r2,
)
from lralg.construct import two_generator_lr
from lralg.errors import (
    DimensionMismatchError,
    NotLrProductError,
    NotTwoSidedIdealError,
    PreconditionError,
)
from lralg.linalg import Bilinear, Matrix, Subspace, standard_basis
from lralg.lr import (
    COMPATIBILITY,
    LEMMA_IDENTITIES,
    LR_LEFT,
    LR_RIGHT,
    Product,
    check_complete,
    check_lemma14,
    check_lr,
    left_op,
    opposite,
    product_span,
    quotient_product,
    right_op,
    sample_triples,
    two_of_three,
)

F = Fraction


def brute_force_lr_defects(g, p):
    """Oracle: evaluate both identities and compatibility on every basis
    triple, straight from the definitions."""
    n = p.dim
    std = standard_basis(n)
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = p.evaluate(std[i], p.evaluate(std[j], std[k]))
                right = p.evaluate(std[j], p.evaluate(std[i], std[k]))
                if left != right:
                    bad.append((LR_LEFT, i, j, k))
                a = p.evaluate(p.evaluate(std[i], std[j]), std[k])
                b = p.evaluate(p.evaluate(std[i], std[k]), std[j])
                if a != b:
                    bad.append((LR_RIGHT, i, j, k))
    for i in range(n):
        for j in range(n):
            lhs = tuple(
                x - y for x, y in zip(p.table[i][j], p.table[j][i])
            )
            if lhs != g.brackets[i][j]:
                bad.append((COMPATIBILITY, i, j))
    return bad


class TestProduct:
    def test_from_entries_no_symmetry(self):
        p = Product.from_entries(2, {(0, 1): {1: 1}})
        assert p.table[0][1][1] == 1
        assert p.table[1][0][1] == 0

    def test_evaluate_bilinear(self):
        p = Product.from_entries(2, {(0, 1): {1: 1}})
        assert p.evaluate((2, 0), (0, 3)) == (F(0), F(6))
        assert p.evaluate((0, 1), (1, 0)) == (F(0), F(0))

    def test_zero(self):
        p = Product.zero(3)
        assert p.evaluate((1, 2, 3), (4, 5, 6)) == (F(0),) * 3

    def test_dimension_checks(self):
        p = Product.zero(2)
        with pytest.raises(DimensionMismatchError):
            p.evaluate((1,), (1, 0))
        with pytest.raises(DimensionMismatchError):
            Product.from_entries(2, {(0, 3): {0: 1}})


class TestOps:
    def test_left_op_columns(self):
        g, p = known_lr("heisenberg-half")
        l1 = left_op(p, (1, 0, 0))
        # e1 * e2 = e3/2, e1 * anything else = 0
        assert l1.column(1) == (F(0), F(0), F(1, 2))
        assert l1.column(0) == (F(0), F(0), F(0))

    def test_right_op_columns(self):
        g, p = known_lr("heisenberg-half")
        r1 = right_op(p, (1, 0, 0))
        # e2 * e1 = -e3/2
        assert r1.column(1) == (F(0), F(0), F(-1, 2))

    def test_linearity_in_operator_argument(self):
        _, p = known_lr("r2-completed")
        a = left_op(p, (1, 2))
        b = left_op(p, (1, 0)) + left_op(p, (0, 1)) * F(2)
        assert a == b

    def test_ops_reproduce_product(self):
        _, p = known_lr("free2step3-half")
        std = standard_basis(p.dim)
        for i in range(p.dim):
            li = left_op(p, std[i])
            ri = right_op(p, std[i])
            for j in range(p.dim):
                assert li.column(j) == p.table[i][j]
                assert ri.column(j) == p.table[j][i]


class TestCheckLr:
    @pytest.mark.parametrize("name", known_lr_names())
    def test_fixture_flags(self, name):
        g, p = known_lr(name)
        fx = fixture_expectations(name)
        rep = check_lr(g, p)
        assert (rep.is_lr, rep.is_compatible, rep.is_complete) == (
            fx.is_lr,
            fx.is_compatible,
            fx.is_complete,
        )

    @pytest.mark.parametrize("name", known_lr_names())
    def test_fixture_flags_match_brute_force(self, name):
        g, p = known_lr(name)
        rep = check_lr(g, p)
        bad = brute_force_lr_defects(g, p)
        bad_ids = {b[0] for b in bad}
        assert rep.is_lr == (LR_LEFT not in bad_ids and LR_RIGHT not in bad_ids)
        assert rep.is_compatible == (COMPATIBILITY not in bad_ids)

    @pytest.mark.parametrize("name", known_lr_names())
    def test_failures_at_documented_identity(self, name):
        g, p = known_lr(name)
        fx = fixture_expectations(name)
        rep = check_lr(g, p)
        assert {v.identity for v in rep.violations} == set(fx.failing)

    def test_violation_defect_is_exact(self):
        g, p = known_lr("heisenberg-fullbracket")
        rep = check_lr(g, p)
        v = rep.violations[0]
        assert v.identity == COMPATIBILITY
        assert v.indices == (0, 1)
        # products give double the bracket, defect is one extra bracket
        assert v.defect == (F(0), F(0), F(1))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            check_lr(heisenberg(), Product.zero(2))


class TestCompleteness:
    def test_check_complete_positive(self):
        _, p = known_lr("r2-completed")
        assert check_complete(p)

    def test_check_complete_negative(self):
        _, p = known_lr("abelian1-idempotent")
        assert not check_complete(p)

    def test_check_complete_needs_commuting_rights(self):
        _, p = known_lr("r2-right-broken")
        with pytest.raises(PreconditionError):
            check_complete(p)

    def test_complete_flag_false_when_rights_do_not_commute(self):
        g, p = known_lr("r2-right-broken")
        assert check_lr(g, p).is_complete is False

    def test_completeness_chain_reductions_per_fixture(self, monkeypatch):
        """check_lr runs the chain A, A*A, (A*A)*A, ... through the shared
        loop linalg._chain_end, which feeds each term's images to the
        insertion step of _kernels itself: it reduces and keeps the rows
        that the loop of one _kernels.echelon per step did, on every
        fixture (rows reduced, rows kept), and makes one echelon, for
        the span of the products, or none when the right identity
        fails."""
        counts = {"reduced": 0, "kept": 0, "echelon": 0}
        echelon, remainders, keep = _kernels.echelon, _kernels.remainders, _kernels.keep

        def counted_echelon(*a):
            counts["echelon"] += 1
            return echelon(*a)

        def counted_remainders(kept, rows):
            for v in remainders(kept, rows):
                counts["reduced"] += 1
                yield v

        def counted_keep(*a):
            counts["kept"] += 1
            return keep(*a)

        monkeypatch.setattr(_kernels, "echelon", counted_echelon)
        monkeypatch.setattr(_kernels, "remainders", counted_remainders)
        monkeypatch.setattr(_kernels, "keep", counted_keep)
        seen = {}
        for name in known_lr_names():
            g, p = known_lr(name)
            g.ensure_valid()
            linalg._memo.clear()
            counts.update(reduced=0, kept=0, echelon=0)
            check_lr(g, p)
            seen[name] = (counts["reduced"], counts["kept"], counts["echelon"])
        # (rows reduced, rows kept, echelon calls)
        assert seen == {
            "heisenberg-half": (2, 1, 1), "heisenberg-onesided": (1, 1, 1),
            "heisenberg-fullbracket": (2, 1, 1), "abelian1-idempotent": (1, 1, 1),
            "abelian2-idempotent-line": (2, 2, 1), "r2-twogen": (2, 2, 1),
            "r2-completed": (1, 1, 1), "diag11-twogen": (4, 4, 1),
            "free2step3-half": (6, 3, 1), "filiform12-shift": (55, 55, 1),
            "r2-right-broken": (0, 0, 0), "r2-left-broken": (2, 2, 1),
        }


    def test_chain_step_ends_at_the_rank_of_the_term_before(self, monkeypatch):
        """On Q e_0 + Q e_1, orthogonal idempotents, plus t Q[t]/(t^3),
        t = e_2 and t^2 = e_3, after a unitriangular change of basis C,
        both chains run A = <e_0, e_1, t^2>, then <e_0, e_1>, and stop
        there.  The last step keeps 2 rows from the first images of its
        first row and reduces no more: 18 rows reduced in all, where
        reducing the step's 2 dependent images to the end made 20."""
        counts = {"reduced": 0, "kept": 0}
        remainders, keep = _kernels.remainders, _kernels.keep

        def counted_remainders(kept, rows):
            for v in remainders(kept, rows):
                counts["reduced"] += 1
                yield v

        def counted_keep(*a):
            counts["kept"] += 1
            return keep(*a)

        base = Product.from_entries(4, {(0, 0): {0: 1}, (1, 1): {1: 1}, (2, 2): {3: 1}})
        c = Matrix([[1, 1, 2, 1], [0, 1, -1, 3], [0, 0, 1, 1], [0, 0, 0, 1]])
        cinv, cols = c.inverse(), [c.column(j) for j in range(4)]
        p = Product([[cinv.apply(base.evaluate(x, y)) for y in cols] for x in cols])
        idempotents = Subspace.from_vectors(4, [cinv.column(0), cinv.column(1)])
        span = p._product_span()
        assert span.dim == 3
        monkeypatch.setattr(_kernels, "remainders", counted_remainders)
        monkeypatch.setattr(_kernels, "keep", counted_keep)
        for right in (False, True):
            counts.update(reduced=0, kept=0)
            end = linalg._chain_end(span, lambda b: p._times_basis(b, right).values())
            assert end == idempotents
            assert (counts["reduced"], counts["kept"]) == (18, 4)


class TestOpposite:
    def test_involution(self):
        _, p = known_lr("r2-twogen")
        assert opposite(opposite(p)) == p

    def test_swaps_twogen_and_completed(self):
        _, p = known_lr("r2-twogen")
        _, q = known_lr("r2-completed")
        assert opposite(p) == q

    def test_swaps_left_and_right_nilpotency(self):
        g, p = known_lr("r2-twogen")
        t = two_of_three(g, p)
        q = opposite(p)
        tq = two_of_three(g, q)
        assert (t.left_nilpotent, t.right_nilpotent) == (
            tq.right_nilpotent,
            tq.left_nilpotent,
        )

    def test_opposite_of_broken_fixture(self):
        _, p = known_lr("r2-right-broken")
        _, q = known_lr("r2-left-broken")
        assert opposite(p) == q


class TestLemma14:
    @pytest.mark.parametrize(
        "name",
        [n for n in known_lr_names() if fixture_expectations(n).is_lr],
    )
    def test_holds_on_lr_fixtures(self, name):
        _, p = known_lr(name)
        triples = sample_triples(p.dim, 10, seed=20260816)
        assert check_lemma14(p, triples) == []

    def test_gate_on_non_lr_product(self):
        _, p = known_lr("r2-right-broken")
        violations = check_lemma14(p)
        assert violations
        assert {v.identity for v in violations} == {LR_RIGHT}

    def test_corrupted_table_gated(self):
        # flip one entry of a good table; the axiom gate must fire and
        # only axiom identities may be reported
        _, p = known_lr("heisenberg-half")
        rows = [list(map(list, row)) for row in p.table]
        rows[2][0][0] = F(1)
        violations = check_lemma14(Product(rows))
        assert violations
        assert {v.identity for v in violations} <= {LR_LEFT, LR_RIGHT}

    def test_gate_failure_builds_no_column_tables(self, monkeypatch):
        """The gate sums its commutators without the tables of columns
        that the basis identities compare: a product that fails it never
        reaches lr._lemma_violations, and one that passes reaches it
        once."""
        calls = []
        real = lr._lemma_violations
        monkeypatch.setattr(lr, "_lemma_violations", lambda p: calls.append(p) or real(p))
        _, good = known_lr("heisenberg-half")
        rows = [list(map(list, row)) for row in good.table]
        rows[2][0][0] = F(1)
        for p in (known_lr("r2-right-broken")[1], known_lr("r2-left-broken")[1], Product(rows)):
            assert check_lemma14(p)
        assert calls == []
        assert check_lemma14(good) == []
        assert calls == [good]

    def test_dimension_zero(self):
        assert check_lemma14(Product.zero(0)) == []

    def test_identity_names_stable(self):
        assert len(LEMMA_IDENTITIES) == 6
        assert LEMMA_IDENTITIES[0] == "L(x)R(y) = R(xy)"

    def test_sample_triples_deterministic(self):
        a = sample_triples(3, 4, seed=5)
        b = sample_triples(3, 4, seed=5)
        c = sample_triples(3, 4, seed=6)
        assert a == b
        assert a != c


class TestTwoOfThree:
    def test_requires_lr_structure(self):
        g, p = known_lr("heisenberg-fullbracket")
        with pytest.raises(NotLrProductError):
            two_of_three(g, p)

    def test_abelian_idempotent(self):
        g, p = known_lr("abelian1-idempotent")
        t = two_of_three(g, p)
        assert (t.left_nilpotent, t.right_nilpotent, t.algebra_nilpotent) == (
            False,
            False,
            True,
        )
        assert t.consistent

    def test_r2_completed(self):
        g, p = known_lr("r2-completed")
        t = two_of_three(g, p)
        assert (t.left_nilpotent, t.right_nilpotent, t.algebra_nilpotent) == (
            False,
            True,
            False,
        )
        assert t.consistent

    def test_all_three_on_nilpotent_complete(self):
        g, p = known_lr("heisenberg-half")
        t = two_of_three(g, p)
        assert t.left_nilpotent and t.right_nilpotent and t.algebra_nilpotent
        assert t.consistent

    @pytest.mark.parametrize(
        "name",
        [
            n
            for n in known_lr_names()
            if fixture_expectations(n).is_lr and fixture_expectations(n).is_compatible
        ],
    )
    def test_consistency_across_fixtures(self, name):
        g, p = known_lr(name)
        assert two_of_three(g, p).consistent


class TestProductSpan:
    def test_span_of_completed_r2(self):
        _, p = known_lr("r2-completed")
        s = product_span(p)
        assert s.dim == 1
        assert s.contains((0, 1))

    def test_span_of_zero(self):
        assert product_span(Product.zero(3)).dim == 0


class TestQuotientProduct:
    def test_r2_completed_mod_line(self):
        g, p = known_lr("r2-completed")
        ideal = Subspace.from_vectors(2, [(0, 1)])
        q = quotient_product(g, p, ideal)
        assert q.dim == 1
        assert q.table[0][0] == (F(0),)

    def test_rejects_non_ideal(self):
        g, p = known_lr("r2-completed")
        line = Subspace.from_vectors(2, [(1, 0)])
        with pytest.raises(NotTwoSidedIdealError):
            quotient_product(g, p, line)

    def test_quotient_is_homomorphism(self):
        g, p = known_lr("heisenberg-half")
        center = Subspace.from_vectors(3, [(0, 0, 1)])
        q = quotient_product(g, p, center)
        free = [0, 1]
        for a in range(2):
            for b in range(2):
                w = p.table[free[a]][free[b]]
                reduced = center.reduce(w)
                assert q.table[a][b] == tuple(reduced[f] for f in free)


class TestNoOperatorProducts:
    """The certificates read products of products of the structure
    constants; a dense operator product coming back into them shows up
    as a kernel call (mat_mul_calls), whatever the timing."""

    def test_check_lr_and_check_complete(self, mat_mul_calls):
        g = filiform(24)
        e = standard_basis(24)
        p = two_generator_lr(g, e[0], e[1])
        mat_mul_calls.clear()
        rep = check_lr(g, p)
        assert rep.is_lr and rep.is_compatible and rep.is_complete
        assert check_complete(p)
        assert mat_mul_calls == []

    def test_identity_check_reads_no_operator_columns(self, monkeypatch):
        """The LR identities are summed straight from the index of the
        constants (Bilinear._by): Bilinear._times_basis, the reader of
        operator columns, is never called, neither by the check itself
        nor by check_lr or check_lemma14 on products that fail the right
        identity, where no completeness chain runs."""
        e = standard_basis(12)
        products = [known_lr(name)[1] for name in known_lr_names()]
        products.append(two_generator_lr(filiform(12), e[0], e[1]))
        calls = []
        real = Bilinear._times_basis
        monkeypatch.setattr(
            Bilinear, "_times_basis", lambda *a: calls.append(a[1:]) or real(*a)
        )
        for p in products:
            lr._lr_violations(p)
        g, p = known_lr("r2-right-broken")
        assert not check_lr(g, p).is_lr and check_lemma14(p)
        assert calls == []

    def test_lemma14_outside_the_samples(self, mat_mul_calls, monkeypatch):
        """Neither the basis identities nor the sampled triples multiply
        operators, and a passing check forms no Matrix, with or without
        samples: defects are built only for a failing identity."""
        e = standard_basis(12)
        p = two_generator_lr(filiform(12), e[0], e[1])
        mat_mul_calls.clear()
        made = []
        raw = Matrix._raw.__func__
        monkeypatch.setattr(Matrix, "_raw", classmethod(lambda *a: made.append(a) or raw(*a)))
        assert check_lemma14(p) == []
        assert mat_mul_calls == [] and made == []
        assert check_lemma14(p, sample_triples(12, 1, seed=1)) == []
        assert mat_mul_calls == [] and made == []

    def test_sampled_identities_build_no_dense_operator(self, mat_mul_calls, monkeypatch):
        """The sampled identities read operator columns from the index of
        the constants: no dense operator, no operator product, also
        when identities fail and defects are built."""
        built = []
        real = Bilinear.operator
        monkeypatch.setattr(Bilinear, "operator", lambda *a, **k: built.append(a) or real(*a, **k))
        e = standard_basis(12)
        for p in (
            two_generator_lr(filiform(12), e[0], e[1]),
            Product.from_entries(3, {(0, 0): {1: 1}, (0, 1): {2: F(1, 2)}, (1, 2): {0: 3}}),
        ):
            for x, y, z in sample_triples(p.dim, 3, seed=2):
                lr._lemma_defects(p, x, y, z)
        assert lr._lemma_defects(p, x, y, z)
        assert mat_mul_calls == [] and built == []


class TestConstantIndex:
    """Bilinear indexes its nonzero constants by row and by column on
    first use: the certificates and the quotient of one product share
    one index, and validating and emitting a file builds none."""

    def test_certificates_share_one_index(self, monkeypatch):
        monkeypatch.setattr(linalg, "_memo", {})  # check_lr computes its report
        g, p = known_lr("heisenberg-half")
        assert p._index is None
        assert check_lr(g, p).is_complete
        index = p._index
        assert index is not None
        assert check_lemma14(p) == []
        assert quotient_product(g, p, Subspace.from_vectors(3, [(0, 0, 1)])).dim == 2
        assert p._index is index

    def test_validate_and_emit_build_none(self, monkeypatch, tmp_path, capsys):
        path = str(tmp_path / "in.json")
        assert cli.main(["catalog", "heisenberg-half", "-o", path]) == 0
        built = []
        fill = Bilinear._fill

        def recorded(self, *args):
            built.append(self)
            fill(self, *args)

        monkeypatch.setattr(Bilinear, "_fill", recorded)
        parsed = []
        parse = cli.parse_file
        monkeypatch.setattr(cli, "parse_file", lambda f: parsed.append(parse(f)) or parsed[-1])
        assert cli.main(["validate", path]) == 0
        capsys.readouterr()
        assert '"product"' in io.format_algebra(*parsed[0])
        assert len(built) >= 2
        assert all(b._index is None for b in built)


def test_constants_are_distinct():
    assert len({LR_LEFT, LR_RIGHT, COMPATIBILITY}) == 3
