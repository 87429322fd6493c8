"""Constructions: completion on nilpotent algebras, the splitting
pipeline, the half bracket, and the two-generator structure."""

import random
import sys
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from conftest import torus
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lralg import _kernels, cli, construct, io, lie, linalg, lr
from lralg.catalog import (
    abelian,
    diag_solvable,
    filiform,
    free_two_step,
    heisenberg,
    known_lr,
    r2,
)
from lralg.construct import (
    complete_any,
    complete_nilpotent,
    half_bracket,
    lift_product,
    lr_for_g3,
    two_generator_lr,
)
from lralg.errors import (
    InternalConsistencyError,
    NotGeneratedError,
    NotLrProductError,
    NotNilpotentError,
    NotTwoStepNilpotentError,
    NotTwoStepSolvableError,
    PhiNotZeroError,
    PreconditionError,
)
from lralg.lie import LieAlgebra, ad, is_two_step_solvable, split_metabelian, subalgebra_generated
from lralg.linalg import (
    Bilinear,
    Matrix,
    Subspace,
    _combine,
    _nonzero,
    _push,
    _scale_fractions,
    image,
    standard_basis,
    vector,
)
from lralg.lr import Product, check_complete, check_lr, two_of_three

F = Fraction


def sl2() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})


def assert_complete_lr(g, p):
    rep = check_lr(g, p)
    assert rep.is_lr and rep.is_compatible and rep.is_complete


class TestCompleteNilpotent:
    def test_dim1_idempotent_becomes_zero(self):
        g, p = known_lr("abelian1-idempotent")
        cert = complete_nilpotent(g, p)
        assert cert.completed == Product.zero(1)
        assert cert.containment_witness.holds

    def test_dim2_idempotent_line_becomes_zero(self):
        g, p = known_lr("abelian2-idempotent-line")
        cert = complete_nilpotent(g, p)
        assert cert.completed == Product.zero(2)
        assert cert.fitting.v_n.dim == 1

    def test_idempotent_on_complete_input(self):
        g, p = known_lr("heisenberg-half")
        cert = complete_nilpotent(g, p)
        assert cert.completed == p
        assert cert.fitting.v_n.dim == 3

    def test_result_is_complete(self):
        for name in ("abelian1-idempotent", "abelian2-idempotent-line", "heisenberg-half"):
            g, p = known_lr(name)
            cert = complete_nilpotent(g, p)
            assert_complete_lr(g, cert.completed)

    def test_containment_witness_structure(self):
        g, p = known_lr("abelian2-idempotent-line")
        w = complete_nilpotent(g, p).containment_witness
        assert w.holds
        assert w.old_products_span.contains_subspace(w.new_products_span)

    def test_rejects_non_nilpotent(self):
        g, p = known_lr("r2-twogen")
        with pytest.raises(NotNilpotentError):
            complete_nilpotent(g, p)

    def test_rejects_non_lr(self):
        g, p = known_lr("heisenberg-fullbracket")
        with pytest.raises(NotLrProductError):
            complete_nilpotent(g, p)


class TestCompleteAny:
    def test_r2_frozen_result(self):
        g, p = known_lr("r2-twogen")
        cert = complete_any(g, p)
        assert cert.completed == Product.from_entries(2, {(0, 1): {1: 1}})
        assert cert.containment_witness.holds

    def test_diag11_frozen_result(self):
        g, p = known_lr("diag11-twogen")
        cert = complete_any(g, p)
        expected = Product.from_entries(3, {(0, 1): {1: 1}, (0, 2): {2: 1}})
        assert cert.completed == expected

    def test_certificates_validate(self):
        for name in ("r2-twogen", "diag11-twogen"):
            g, p = known_lr(name)
            cert = complete_any(g, p)
            assert_complete_lr(g, cert.completed)
            assert cert.original == p
            assert cert.containment_witness.holds

    def test_two_of_three_after_completion(self):
        g, p = known_lr("r2-twogen")
        cert = complete_any(g, p)
        t = two_of_three(g, cert.completed)
        assert t.right_nilpotent and not t.algebra_nilpotent
        assert t.consistent

    def test_idempotent_on_complete_input(self):
        g, p = known_lr("r2-completed")
        cert = complete_any(g, p)
        assert cert.completed == p

    def test_works_on_nilpotent_algebra_with_trivial_split(self):
        g = filiform(5)
        e = standard_basis(5)
        p = two_generator_lr(g, e[0], e[1])
        cert = complete_any(g, p)
        assert cert.completed == p

    def test_rejects_non_metabelian(self):
        g = sl2()
        with pytest.raises((NotLrProductError, NotTwoStepSolvableError)):
            complete_any(g, Product.zero(3))

    def test_rejects_non_lr(self):
        g, p = known_lr("r2-right-broken")
        with pytest.raises(NotLrProductError):
            complete_any(g, p)


class TestHalfBracket:
    def test_heisenberg_table(self):
        g = heisenberg()
        p = half_bracket(g)
        assert p.table[0][1][2] == F(1, 2)
        assert p.table[1][0][2] == F(-1, 2)
        assert_complete_lr(g, p)

    def test_free_two_step(self):
        g = free_two_step(3)
        assert_complete_lr(g, half_bracket(g))

    def test_abelian_gives_zero(self):
        g = abelian(3)
        assert half_bracket(g) == Product.zero(3)

    def test_rejects_higher_class(self):
        with pytest.raises(NotTwoStepNilpotentError):
            half_bracket(filiform(4))


class TestLrForG3:
    def test_r2_frozen(self):
        p = lr_for_g3(r2())
        assert p == Product.from_entries(2, {(0, 1): {1: 1}})

    def test_heisenberg_reduces_to_half_bracket(self):
        g = heisenberg()
        assert lr_for_g3(g) == half_bracket(g)

    def test_result_complete(self):
        for g in (r2(), heisenberg(), diag_solvable([1, 2])):
            p = lr_for_g3(g)
            assert_complete_lr(g, p)

    def test_rejects_when_g3_differs_from_ginf(self):
        # filiform(5) has lower central terms 5,3,2,1,0: g3 has dim 2
        # but g-infinity is 0
        with pytest.raises(PreconditionError):
            lr_for_g3(filiform(5))

    def test_rejects_non_metabelian(self):
        with pytest.raises(NotTwoStepSolvableError):
            lr_for_g3(sl2())

    def test_no_second_completeness_check(self, monkeypatch):
        # half_bracket certifies the half bracket complete, so
        # lift_product's own certificate covers the lift.
        calls = []
        original = lr.check_complete

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(lr, "check_complete", counted)
        monkeypatch.setattr(construct, "check_complete", counted, raising=False)
        for g in (r2(), heisenberg(), diag_solvable([1, 2])):
            assert check_lr(g, lr_for_g3(g)).is_complete
        assert calls == []


class TestLiftProduct:
    def test_lift_preserves_completeness(self):
        g = diag_solvable([1, 1])
        sp = split_metabelian(g)
        # complement is abelian of dim 1; zero product is complete there
        q = Product.zero(1)
        lifted = lift_product(sp, q)
        assert_complete_lr(g, lifted)

    def test_lifted_restricts_to_input(self):
        g = r2()
        sp = split_metabelian(g)
        q = Product.zero(1)
        lifted = lift_product(sp, q)
        # on complement vectors the lift reproduces q through the
        # splitting coordinates
        w = sp.complement_basis[0]
        prod = lifted.evaluate(w, w)
        ginf = Subspace.from_vectors(2, sp.g_infinity_basis)
        assert ginf.contains(prod)

    def test_rejects_action_on_products(self):
        # phi(x) = [1] on g_infinity = <y>, and x * x = x is LR and
        # compatible on the one-dimensional abelian complement.
        q = Product.from_entries(1, {(0, 0): {0: 1}})
        with pytest.raises(PhiNotZeroError):
            lift_product(split_metabelian(r2()), q)

    # r2 + Q: [x, y] = y with z central, so g_infinity = <y>, the
    # complement is <x, z> (coordinates 0 and 1) and phi_z = 0.
    R2_PLUS_Q = (3, {(0, 1): {1: 1}})

    def test_lifts_a_product_that_phi_annihilates(self):
        g = LieAlgebra.from_brackets(*self.R2_PLUS_Q)
        q = Product.from_entries(2, {(1, 1): {1: 1}})  # z . z = z
        lifted = lift_product(split_metabelian(g), q)
        rep = check_lr(g, lifted)
        assert rep.is_lr and rep.is_compatible and not rep.is_complete
        assert lifted.evaluate((0, 0, 1), (0, 0, 1)) == (0, 0, 1)

    @pytest.mark.parametrize(
        "g",
        [LieAlgebra.from_brackets(*R2_PLUS_Q), diag_solvable([1, 2])],
        ids=["r2-plus-Q", "diag-1-2"],
    )
    def test_rejects_a_product_that_phi_moves(self, g):
        # x . x = x, and phi_x is invertible on g_infinity.
        q = Product.from_entries(g.dim - split_metabelian(g).g_infinity.dim, {(0, 0): {0: 1}})
        with pytest.raises(PhiNotZeroError):
            lift_product(split_metabelian(g), q)


class TestTwoGenerator:
    def test_r2_frozen(self):
        g = r2()
        p = two_generator_lr(g, (1, 0), (0, 1))
        assert p == Product.from_entries(2, {(1, 0): {1: -1}})

    def test_heisenberg_frozen(self):
        g = heisenberg()
        e = standard_basis(3)
        p = two_generator_lr(g, e[0], e[1])
        assert p == Product.from_entries(3, {(1, 0): {2: -1}})

    @pytest.mark.parametrize("n", range(4, 9))
    def test_filiform_closed_form(self, n):
        g = filiform(n)
        e = standard_basis(n)
        p = two_generator_lr(g, e[0], e[1])
        expected = Product.from_entries(
            n, {(i, 0): {i + 1: -1} for i in range(1, n - 1)}
        )
        assert p == expected
        assert check_complete(p)

    def test_is_lr_and_compatible(self):
        g = diag_solvable([1, 2])
        p = two_generator_lr(g, (1, 0, 0), (0, 1, 1))
        rep = check_lr(g, p)
        assert rep.is_lr and rep.is_compatible

    def test_completeness_not_guaranteed(self):
        # on r2 the raw two-generator product is left-nilpotent but not
        # right-nilpotent
        g = r2()
        p = two_generator_lr(g, (1, 0), (0, 1))
        assert not check_complete(p)

    def test_chains_with_completion(self):
        g = diag_solvable([1, 2])
        p = two_generator_lr(g, (1, 0, 0), (0, 1, 1))
        cert = complete_any(g, p)
        assert_complete_lr(g, cert.completed)

    def test_equal_weights_not_two_generated(self):
        # ad(x) is the identity on the abelian part, so any pair spans
        # at most two dimensions
        g = diag_solvable([1, 1])
        with pytest.raises(NotGeneratedError):
            two_generator_lr(g, (1, 0, 0), (0, 1, 1))

    def test_rejects_non_generating_pair(self):
        g = heisenberg()
        with pytest.raises(NotGeneratedError):
            two_generator_lr(g, (1, 0, 0), (0, 0, 1))

    def test_rejects_non_metabelian(self):
        with pytest.raises(NotTwoStepSolvableError):
            two_generator_lr(sl2(), (1, 0, 0), (0, 1, 0))

    def test_left_ops_follow_defining_relations(self):
        # brute force: L(x) = 0 and L(y) = ad(y) in the constructed basis
        from lralg.lie import ad
        from lralg.lr import left_op

        g = filiform(4)
        e = standard_basis(4)
        x, y = e[0], e[1]
        p = two_generator_lr(g, x, y)
        assert left_op(p, x).is_zero
        assert left_op(p, y) == ad(g, y)

    def test_scan_order_is_total_then_l_then_k(self):
        # The table does not depend on which candidates the scan keeps
        # (L is well defined on their span), so only this pins the order.
        for n in range(5):
            pairs = [(k, l) for k in range(n + 1) for l in range(1, n + 1)]
            expected = [(0, 0)] + sorted(pairs, key=lambda kl: (kl[0] + kl[1], kl[1], kl[0]))
            assert list(construct._scan_order(n)) == expected


class TestTwoGeneratorWork:
    """Counts of work, not times: the candidate scan is lazy and the
    generated subalgebra is computed only when the scan falls short."""

    def count(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_filiform24_forms_few_operator_products(self, monkeypatch):
        # the eager candidate table took 649 products here; pushing the
        # table through sparse columns takes none
        g = filiform(24)
        e = standard_basis(24)
        calls = self.count(monkeypatch, _kernels, "mat_mul")
        two_generator_lr(g, e[0], e[1])
        assert len(calls) == 0

    def test_generating_pair_skips_subalgebra(self, monkeypatch):
        calls = self.count(monkeypatch, construct, "subalgebra_generated")
        for g, x, y in (
            (filiform(6), standard_basis(6)[0], standard_basis(6)[1]),
            (diag_solvable([1, 2]), (1, 0, 0), (0, 1, 1)),
            (heisenberg(), (1, 0, 0), (0, 1, 0)),
        ):
            two_generator_lr(g, x, y)
        assert calls == []

    def test_short_scan_checks_generation_once(self, monkeypatch):
        calls = self.count(monkeypatch, construct, "subalgebra_generated")
        with pytest.raises(NotGeneratedError):
            two_generator_lr(heisenberg(), (1, 0, 0), (0, 0, 1))
        assert len(calls) == 1

    def test_no_inverse_or_dense_rref(self, monkeypatch):
        # the scan's tagged rows give U^-1; Matrix.inverse of the kept
        # vectors ran _kernels.rref once per call here
        calls = self.count(monkeypatch, Matrix, "inverse")
        calls += self.count(monkeypatch, _kernels, "rref")
        for g, x, y in (
            (filiform(24), standard_basis(24)[0], standard_basis(24)[1]),
            (diag_solvable(list(range(1, 17))), standard_basis(17)[0], (0,) + (1,) * 16),
            (heisenberg(), (1, 0, 0), (0, 1, 0)),
        ):
            two_generator_lr(g, x, y)
        assert calls == []

    def test_filiform24_reduces_no_zero_candidate(self, monkeypatch):
        # once a chain reaches 0 the rest of it is recorded as 0; pushing
        # and reducing every candidate took 255 reductions here.  Only
        # the scan's own reductions count: echelon calls the same step.
        e = standard_basis(24)
        calls = []
        real = _kernels.remainders

        def counted(kept, rows):
            if sys._getframe(1).f_code.co_name == "two_generator_lr":
                calls.append(rows)
            return real(kept, rows)

        monkeypatch.setattr(_kernels, "remainders", counted)
        two_generator_lr(filiform(24), e[0], e[1])
        assert 0 < len(calls) <= 24

    def test_filiform128_scan_visits_no_pair_after_a_zero(self, monkeypatch):
        # (k, l) is ad(e2)^k ad(e1)^l e2: (0, l) = e_(l+2) is nonzero up
        # to l = 126, and every (1, l) is 0.  The scan gives (0, 0), the
        # 126 pairs (0, l) and the 125 pairs (1, l) met before the 128th
        # kept vector, each after a nonzero entry; visiting every pair
        # of the order up to there took 8,003 visits.
        visits, real = [], construct._scan_order

        def counted(n):
            order, zero = real(n), None
            while True:
                try:
                    kl = order.send(zero)
                except StopIteration:
                    return
                visits.append(kl)
                zero = yield kl

        monkeypatch.setattr(construct, "_scan_order", counted)
        e = standard_basis(128)
        two_generator_lr(filiform(128), e[0], e[1])
        assert len(visits) == 252
        assert visits[0] == (0, 0)
        assert sorted(visits[1:]) == sorted([(0, l) for l in range(1, 127)]
                                            + [(1, l) for l in range(1, 126)])

    def test_scan_order_leaves_out_the_pairs_after_a_zero(self):
        # n = 4, entry 0 at (1, 1) and at (0, 3): no (k, 1) with k > 1 and
        # no (k, l) with l >= 3 follows; the chain of l = 2 runs to k = 4.
        order = construct._scan_order(4)
        seen, zero = [], None
        while True:
            try:
                kl = order.send(zero)
            except StopIteration:
                break
            seen.append(kl)
            zero = kl in ((1, 1), (0, 3))
        assert seen == [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (2, 2), (3, 2), (4, 2)]

    def test_changed_filiform_pushes_the_image_of_ad_y(self, monkeypatch):
        # In this basis every basis vector has an e1 part, so ad(e2) has
        # rank 1 and no zero column: a chain that carried the columns of
        # L(u) pushed 1 + 10 vectors per step and summed the table with
        # linalg._combine.  Pushes are counted per call of the chain's
        # step, advance, whose comprehensions have frames of their own
        # before Python 3.12.
        g, x, y = seeded_filiform10()
        ad_y = ad(g, y)
        rank = image(ad_y).dim
        assert rank == 1
        assert all(any(ad_y.column(j)) for j in range(10))

        combined = []
        real_combine = linalg._combine

        def counted_combine(*args):
            if sys._getframe(1).f_code.co_name == "two_generator_lr":
                combined.append(args)
            return real_combine(*args)

        monkeypatch.setattr(linalg, "_combine", counted_combine)
        monkeypatch.setattr(construct, "_combine", counted_combine, raising=False)
        frames, pushes = [], []
        real_push = construct._push

        def counted_push(cols, v, n):
            f = sys._getframe(1)
            while f.f_code.co_name.startswith("<"):  # a comprehension's frame
                f = f.f_back
            if f.f_code.co_name == "advance":
                if not frames or frames[-1] is not f:
                    frames.append(f)
                    pushes.append(0)
                pushes[-1] += 1
            return real_push(cols, v, n)

        monkeypatch.setattr(construct, "_push", counted_push)
        assert two_generator_lr(g, x, y) == tagged_two_generator_lr(g, x, y)
        assert combined == []
        # the 8 vectors kept after x and y take at least 8 steps
        assert len(pushes) >= 8 and max(pushes) == 1 + rank


def seeded_filiform10():
    """filiform(10) and its generators e1, e2 in the basis b_i = sum_a
    m[a][i] e_a, m the identity plus seeded rationals k/d (|k| <= 2,
    d in {1, 2, 3}) in the whole first row and at ten places above the
    diagonal, so every b_i with i > 0 has an e1 part."""
    n = 10
    rng = random.Random(10)
    m = [[F(int(a == i)) for i in range(n)] for a in range(n)]
    places = [(0, i) for i in range(1, n)] + [
        tuple(sorted(rng.sample(range(1, n), 2))) for _ in range(10)
    ]
    for a, i in places:
        m[a][i] = F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
    e = standard_basis(n)
    return in_basis(filiform(n), m, e[0], e[1])


def in_basis(g, m, *vectors):
    """g in the basis b_i = sum_a m[a][i] e_a, m an invertible matrix
    given by its rows, and the coordinates of the vectors in it."""
    n = g.dim
    mat = Matrix(m)
    inv = mat.inverse()
    b = [mat.column(i) for i in range(n)]
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = inv.apply(g.apply(b[i], b[j]))
            if any(w):
                pairs[(i, j)] = {k: c for k, c in enumerate(w) if c}
    return (LieAlgebra.from_brackets(n, pairs), *(inv.apply(v) for v in vectors))


def tagged_two_generator_lr(g, x, y):
    """two_generator_lr as computed when each chain entry held u and the
    nonzero columns of g._den L(u): each candidate's row [u | e_s] is
    tagged by its place s, row i of the canonical form then holds
    D (U^-1)[s, i] at column n + s, and row i of the table sums the
    kept columns weighted by those tags (linalg._combine).  Returns the
    uncertified Product, or raises as two_generator_lr does."""
    if not is_two_step_solvable(g):
        raise NotTwoStepSolvableError("second derived algebra does not vanish")
    xv, yv = vector(x), vector(y)
    n = g.dim
    xu, yu = (_nonzero(_scale_fractions(v)[0]) for v in (xv, yv))
    ad_x, ad_y = g._times_basis(xu, False), g._times_basis(yu, False)
    chains = {None: (xu, {}), (0, 0): (yu, ad_y)}

    def advance(entry, ad):
        u, cols = entry
        u = _push(ad, u, n)
        if not u:
            return None
        cols = {j: w for j, c in cols.items() if (w := _push(ad, c, n))}
        h = gcd(*(a for _, a in u), *(a for c in cols.values() for _, a in c))
        if h > 1:
            u = [(i, a // h) for i, a in u]
            cols = {j: [(i, a // h) for i, a in c] for j, c in cols.items()}
        return u, cols

    tagged = []
    kept = {}
    for kl in chain([None], construct._scan_order(n)):
        if len(kept) == n:
            break
        if kl not in chains:
            k, l = kl
            before, step = ((k - 1, l), ad_y) if k else ((0, l - 1), ad_x)
            chains[kl] = chains[before] and advance(chains[before], step)
        if chains[kl] is None:
            continue
        u, cols = chains[kl]
        r = next(_kernels.remainders(kept, [[*u, (n + len(tagged), 1)]]))
        if min(r) < n:
            _kernels.keep(kept, r)
            tagged.append(cols.items())
    if len(kept) != n:
        if subalgebra_generated(g, [xv, yv]).dim != n:
            raise NotGeneratedError("the two elements do not generate the algebra")
        raise InternalConsistencyError("candidate vectors do not span the algebra")
    reduced, rden, _ = _kernels.canonical(kept)
    rows = []
    for row in reduced:
        left = _combine([(a, tagged[c - n]) for c, a in row if c >= n], n)
        rows.extend(left.get(j, ()) for j in range(n))
    return Product._from_int(n, rows, rden * g._den)


def two_generator_outcome(build, g, x, y):
    """build(g, x, y), or the type and message of the NotGeneratedError
    or InternalConsistencyError it raises."""
    try:
        return build(g, x, y)
    except (NotGeneratedError, InternalConsistencyError) as exc:
        return type(exc), str(exc)


def catalog_generator_pairs():
    """pytest params (g, x, y) with ids: filiform(n) with (e1, e2) and (e2, e1), where ad(y)
    has rank n - 2, diag-solvable algebras with (x, sum of the y_i) either
    way round, Heisenberg, r2, and abelian(1) with a zero generator; the
    equal weights, Heisenberg's (e1, e3) and free_two_step(3)'s (x1, x2)
    do not generate."""
    out = []
    for n in range(3, 13):
        e = standard_basis(n)
        out += [(f"filiform{n}", filiform(n), e[0], e[1]),
                (f"filiform{n}-swapped", filiform(n), e[1], e[0])]
    for weights in ([1], [1, 2], [2, -1, 3], [1, 1], list(range(1, 17))):
        g = diag_solvable(weights)
        x, y = standard_basis(g.dim)[0], (0,) + (1,) * len(weights)
        name = "diag" + ",".join(map(str, weights))
        out += [(name, g, x, y), (name + "-swapped", g, y, x)]
    out += [
        ("heisenberg", heisenberg(), (1, 0, 0), (0, 1, 0)),
        ("heisenberg-e1e3", heisenberg(), (1, 0, 0), (0, 0, 1)),
        ("r2", r2(), (1, 0), (0, 1)),
        ("abelian1-x0", abelian(1), (0,), (1,)),
        ("abelian1-y0", abelian(1), (1,), (0,)),
        ("free3", free_two_step(3), *standard_basis(6)[:2]),
    ]
    return [pytest.param(*case, id=name) for name, *case in out]


@pytest.mark.parametrize("g, x, y", catalog_generator_pairs())
def test_two_generator_matches_tagged_scan_on_catalog(g, x, y):
    """The scan whose rows carry the image of ad(y) gives the Product, or
    the error, of the place-tagged scan and its _combine table."""
    expected = two_generator_outcome(tagged_two_generator_lr, g, x, y)
    assert two_generator_outcome(two_generator_lr, g, x, y) == expected


GENERATOR_ALGEBRAS = [filiform(n) for n in range(3, 9)] + [
    diag_solvable(w) for w in ([1, 2], [1, -2, 3], [2, -1, 3, 1], [1, 1])
] + [heisenberg(), r2(), abelian(1), abelian(2), free_two_step(3)]


@st.composite
def integer_generator_pair(draw):
    """A catalog algebra and two integer vectors: two distinct basis
    vectors in either order, or entries in -2..2, many of which do not
    generate."""
    g = draw(st.sampled_from(GENERATOR_ALGEBRAS))
    n = g.dim
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        e = standard_basis(n)
        return g, e[i], e[j]
    entries = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
    return g, draw(entries), draw(entries)


@settings(max_examples=80, deadline=None)
@given(case=integer_generator_pair())
@example(case=(filiform(6), standard_basis(6)[1], standard_basis(6)[0]))
@example(case=(abelian(1), (0,), (1,)))
@example(case=(abelian(1), (1,), (0,)))
@example(case=(heisenberg(), (1, 0, 0), (0, 0, 1)))
def test_two_generator_matches_tagged_scan_on_integer_pairs(case):
    g, x, y = case
    expected = two_generator_outcome(tagged_two_generator_lr, g, x, y)
    assert two_generator_outcome(two_generator_lr, g, x, y) == expected


class TestCertificateGate:
    """A product a construction built that fails its certificate raises
    InternalConsistencyError naming the construction.  check_lr is
    replaced by one that fails every product certified on behalf of
    the construction under test, the nearest one on the call stack; no
    correct input reaches these statements otherwise."""

    CONSTRUCTIONS = {
        "half_bracket", "two_generator_lr", "lift_product", "complete_nilpotent", "complete_any",
    }

    def fail_certificates_of(self, monkeypatch, target):
        real = construct.check_lr

        def check(g, p):
            rep = real(g, p)
            frame = sys._getframe(1)
            certifying = frame.f_code.co_name == "_certified"
            while frame.f_code.co_name not in self.CONSTRUCTIONS:
                frame = frame.f_back
            if certifying and frame.f_code.co_name == target:
                return rep._replace(is_lr=False, is_compatible=False, is_complete=False)
            return rep

        monkeypatch.setattr(construct, "check_lr", check)

    @pytest.mark.parametrize(
        "target, build",
        [
            ("half_bracket", lambda: half_bracket(heisenberg())),
            ("two_generator_lr", lambda: two_generator_lr(filiform(6), *standard_basis(6)[:2])),
            ("lift_product", lambda: lr_for_g3(r2())),
            ("complete_nilpotent", lambda: complete_nilpotent(*known_lr("abelian1-idempotent"))),
            ("complete_any", lambda: complete_any(*known_lr("r2-twogen"))),
        ],
    )
    def test_failed_certificate_names_the_construction(self, monkeypatch, target, build):
        build()  # passes its certificate with the real check_lr
        self.fail_certificates_of(monkeypatch, target)
        with pytest.raises(InternalConsistencyError, match=rf"^{target} fails its certificate$"):
            build()


def test_cli_path_builds_no_tensor_view(monkeypatch):
    """two-gen --complete and its emission on filiform(12): every map
    built on the way keeps only its integer constants.  Those are the
    algebra, the two-generator product and the complement algebra;
    g_infinity = 0 and the left chain reaches 0, so the quotient, the
    completion and the lift are that product itself."""
    built = []
    fill = Bilinear._fill

    def recorded(self, *args):
        built.append(self)
        fill(self, *args)

    monkeypatch.setattr(Bilinear, "_fill", recorded)
    g = filiform(12)
    e = standard_basis(12)
    completed = complete_any(g, two_generator_lr(g, e[0], e[1])).completed
    assert '"product"' in io.format_algebra(g, completed)
    assert len(built) == 3
    assert all(b._tensor is None for b in built)


def test_construction_path_scales_no_fraction_vector(monkeypatch):
    """Split, completion and lift run on integer numerators: with the
    Fraction-vector scaling of linalg disabled, they still succeed.
    The two-generator products take Fraction coordinates, so they are
    built first."""
    diag, fil = diag_solvable([1, 2, 3]), filiform(12)
    e = standard_basis(12)
    cases = [
        (diag, two_generator_lr(diag, (1, 0, 0, 0), (0, 1, 1, 1))),
        (fil, two_generator_lr(fil, e[0], e[1])),
    ]

    def refuse(*args):
        raise AssertionError("a Fraction vector was scaled on the construction path")

    monkeypatch.setattr(linalg, "_scaled", refuse)
    for g, p in cases:
        assert_complete_lr(g, complete_any(g, p).completed)
    assert_complete_lr(r2(), lr_for_g3(r2()))


def test_completion_pipeline_restricts_no_operator(monkeypatch):
    """The Fitting split is read from chains of images and phi from
    brackets, on the whole space: with restrict_operator refusing in
    every module that binds it, splits, completions and lifts still
    succeed."""
    diag, fil = diag_solvable([1, 2, 3]), filiform(12)
    e = standard_basis(12)
    cases = [
        (diag, two_generator_lr(diag, (1, 0, 0, 0), (0, 1, 1, 1))),
        (fil, two_generator_lr(fil, e[0], e[1])),
    ]

    def refuse(*args):
        raise AssertionError("an operator was restricted to a subspace")

    for module in list(sys.modules.values()):
        if module.__name__.split(".")[0] == "lralg" and hasattr(module, "restrict_operator"):
            monkeypatch.setattr(module, "restrict_operator", refuse)
    for g, p in cases:
        assert_complete_lr(g, complete_any(g, p).completed)
    assert_complete_lr(r2(), lr_for_g3(r2()))
    assert split_metabelian(free_two_step(4)).g_infinity.dim == 0


def test_series_facts_are_computed_once(monkeypatch, tmp_path, capsys):
    """The split hands its series report on and the memo answers repeats:
    `lralg complete` on the filiform(12) shift fixture computes series
    once, on the input algebra (complete_any's two-step test and the
    split read it, and the complement algebra, equal to g since
    g_infinity = 0, gets it from the memo), and lr_for_g3 reads its
    precondition from the split's report.  Computations are counted as
    calls of lie._series, the memo's misses."""
    calls = []
    for name in ("_series", "is_two_step_solvable", "bracket_of_subspaces"):
        original = getattr(lie, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, args[0]))
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.split(".")[0] == "lralg" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)

    def counts(name, on=None):
        return sum(1 for n, g in calls if n == name and (on is None or g is on))

    parsed = []
    parse = cli.parse_file
    monkeypatch.setattr(cli, "parse_file", lambda path: parsed.append(parse(path)) or parsed[-1])
    fixture, out = str(tmp_path / "in.json"), str(tmp_path / "out.json")
    assert cli.main(["catalog", "filiform12-shift", "-o", fixture]) == 0
    calls.clear()
    assert cli.main(["complete", fixture, "-o", out]) == 0
    capsys.readouterr()
    assert counts("_series") == 1
    assert counts("_series", parsed[-1][0]) == 1
    assert counts("is_two_step_solvable") == 0
    assert counts("bracket_of_subspaces") <= 15

    calls.clear()
    split_metabelian(diag_solvable([1, 2]))
    assert counts("is_two_step_solvable") == 0

    calls.clear()
    lr_for_g3(r2())
    assert counts("_series") == 1


def count_dense_calls(monkeypatch, inside=None):
    """Calls of Matrix.power, Matrix.inverse and _kernels.mat_mul, by
    name; with inside, only those made while inside is nonempty."""
    calls = []
    for owner, name in ((Matrix, "power"), (Matrix, "inverse"), (_kernels, "mat_mul")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            if inside is None or inside:
                calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_complete_on_nilpotent_input_takes_no_power_inverse_or_mat_mul(
    monkeypatch, tmp_path, capsys
):
    """`lralg complete` on the filiform(12) shift fixture: g_infinity = 0,
    so the lift is the completed product itself, with no change of
    basis, and the left chain reaches 0, so the completion is the input,
    with no operator power."""
    fixture, out = str(tmp_path / "in.json"), str(tmp_path / "out.json")
    assert cli.main(["catalog", "filiform12-shift", "-o", fixture]) == 0
    calls = count_dense_calls(monkeypatch)
    assert cli.main(["complete", fixture, "-o", out]) == 0
    capsys.readouterr()
    assert calls == []


def test_complete_on_zero_g_infinity_reduces_one_product_span(monkeypatch):
    """filiform(12) and its two-generator product: g_infinity = 0, so the
    quotient and the lift are the product itself, and the completion is
    too, since its left chain reaches 0; the span of its products is
    reduced once, when two_generator_lr certifies it, not once per
    rebuilt copy."""
    reduced = []
    span = Bilinear._product_span

    def counted(self):
        if self._span is None:
            reduced.append(self)
        return span(self)

    monkeypatch.setattr(Bilinear, "_product_span", counted)
    g = filiform(12)
    e = standard_basis(12)
    p = two_generator_lr(g, e[0], e[1])
    assert complete_any(g, p).completed is p
    assert [b for b in reduced if isinstance(b, Product)] == [p]


def test_lift_with_nonzero_g_infinity_inverts_once(monkeypatch):
    """Where g_infinity is not 0 the lift inverts its change of basis
    once, its only source of coordinates, and forms no dense product:
    on the completion of a diag-solvable product and on lr_for_g3 of r2,
    diag-solvable [1, 2] and the Heisenberg algebra acting on a line."""
    inside, lifts = [], []
    real = construct.lift_product

    def flagged(*args):
        inside.append(True)
        lifts.append(True)
        try:
            return real(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(construct, "lift_product", flagged)
    calls = count_dense_calls(monkeypatch, inside)
    g = diag_solvable([1, 2, 3])
    p = two_generator_lr(g, (1, 0, 0, 0), (0, 1, 1, 1))
    assert_complete_lr(g, complete_any(g, p).completed)
    heisenberg_on_a_line = LieAlgebra.from_brackets(4, {(0, 1): {2: 1}, (0, 3): {3: 1}})
    for g in (r2(), diag_solvable([1, 2]), heisenberg_on_a_line):
        assert_complete_lr(g, lr_for_g3(g))
    assert len(lifts) == 4
    assert calls == ["inverse"] * 4


def test_pipeline_hands_on_sparse_data(monkeypatch):
    """complete_any after two_generator_lr, complete_any on a fixture and
    lr_for_g3 on the sheared torus, whose split moves its complement by
    one Fitting split and a k x k solve, do no Matrix arithmetic: no
    _kernels.mat_mul, Matrix +, -, * or transpose.  The one dense step
    left is the lift's inverse of its change of basis: one
    Matrix.inverse and one _kernels.rref in each lift_product with
    g_infinity != 0, none with g_infinity = 0 and none outside the
    lift."""
    calls, per_lift, solved = [], [], []
    for owner, name in (
        (_kernels, "mat_mul"), (_kernels, "rref"), (Matrix, "__add__"), (Matrix, "__sub__"),
        (Matrix, "__mul__"), (Matrix, "transpose"), (Matrix, "inverse"),
    ):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    lift, solve_rows = construct.lift_product, lie._solve_rows

    def lift_counted(split, q):
        before = len(calls)
        out = lift(split, q)
        per_lift.append((split.g_infinity.dim > 0, calls[before:]))
        del calls[before:]
        return out

    monkeypatch.setattr(construct, "lift_product", lift_counted)
    monkeypatch.setattr(lie, "_solve_rows", lambda *a: solved.append(1) or solve_rows(*a))
    e = standard_basis(12)
    fil, diag = filiform(12), diag_solvable([1, 2, 3, 5])
    cases = [
        (fil, two_generator_lr(fil, e[0], e[1])),
        (diag, two_generator_lr(diag, (1, 0, 0, 0, 0), (0, 1, 1, 1, 1))),
        known_lr("free2step3-half"),
    ]
    for g, p in cases:
        assert_complete_lr(g, complete_any(g, p).completed)
    assert solved == []
    sheared = torus(4, 3, True)
    assert_complete_lr(sheared, lr_for_g3(sheared))
    assert solved == [1]
    assert calls == []
    assert [ginf for ginf, _ in per_lift] == [False, True, False, True]
    for ginf, inside in per_lift:
        assert sorted(inside) == (["inverse", "rref"] if ginf else [])
