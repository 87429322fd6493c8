"""Acceptance gate: one test per criterion, each verified against
oracles implemented locally in this file (plain Fraction arithmetic on
the raw tables, no reuse of the library's linear algebra).

Run with `pytest tests/test_acceptance.py -v`; a summary line per
criterion is printed at the end of the session.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import lralg
from lralg.catalog import (
    diag_solvable,
    filiform,
    fixture_expectations,
    known_lr,
    known_lr_names,
    r2,
)
from lralg.construct import complete_any, complete_nilpotent, lift_product, two_generator_lr
from lralg.lie import quotient, split_metabelian
from lralg.linalg import Matrix, Subspace, fitting_split_family
from lralg.lr import (
    COMPATIBILITY,
    LR_LEFT,
    LR_RIGHT,
    Product,
    quotient_product,
    two_of_three,
)

F = Fraction

# ---------------------------------------------------------------------------
# local exact-arithmetic helpers; these only read raw tables and basis
# tuples, never the library's operators


def ev(table, x, y):
    """Bilinear product of coefficient vectors from a raw table."""
    n = len(table)
    out = [F(0)] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            cell = table[i][j]
            s = xi * yj
            for k in range(n):
                if cell[k]:
                    out[k] += s * cell[k]
    return tuple(out)


def unit(n, i):
    return tuple(F(1) if j == i else F(0) for j in range(n))


def left_mat(table, x):
    """Rows of the operator y -> x*y."""
    n = len(table)
    rows = [[F(0)] * n for _ in range(n)]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j in range(n):
            cell = table[i][j]
            for k in range(n):
                if cell[k]:
                    rows[k][j] += xi * cell[k]
    return rows


def right_mat(table, x):
    """Rows of the operator y -> y*x."""
    n = len(table)
    rows = [[F(0)] * n for _ in range(n)]
    for j in range(n):
        for m, xm in enumerate(x):
            if not xm:
                continue
            cell = table[j][m]
            for k in range(n):
                if cell[k]:
                    rows[k][j] += xm * cell[k]
    return rows


def mmul(a, b):
    n, m = len(a), len(b[0])
    inner = len(b)
    out = [[F(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            for j in range(m):
                if bk[j]:
                    oi[j] += aik * bk[j]
    return out


def mpow(a, k):
    n = len(a)
    out = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = mmul(out, a)
    return out


def mat_eq(a, b):
    return all(ra == rb for ra, rb in zip(a, b))


def mat_is_zero(a):
    return all(not any(row) for row in a)


def rref_rows(vectors):
    """Canonical reduced rows of the span; local Gauss-Jordan."""
    rows = [list(map(F, v)) for v in vectors]
    if not rows:
        return ()
    cols = len(rows[0])
    pivot_row = 0
    for c in range(cols):
        sel = None
        for r in range(pivot_row, len(rows)):
            if rows[r][c]:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pv = rows[pivot_row][c]
        rows[pivot_row] = [x / pv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return tuple(tuple(row) for row in rows[:pivot_row] if any(row))


def rank_of(vectors):
    return len(rref_rows(vectors))


def span_contains(span_vectors, vec):
    base = rank_of(span_vectors)
    return rank_of(list(span_vectors) + [vec]) == base


def span_eq(a, b):
    return rref_rows(a) == rref_rows(b)


def kernel_rows(mat):
    """Basis of the kernel of a square matrix given as rows."""
    n = len(mat)
    reduced = rref_rows(mat)
    pivots = []
    for row in reduced:
        for c, x in enumerate(row):
            if x:
                pivots.append(c)
                break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fcol in free:
        v = [F(0)] * n
        v[fcol] = F(1)
        for row, pcol in zip(reduced, pivots):
            v[pcol] = -row[fcol]
        basis.append(tuple(v))
    return basis


def columns_of(mat):
    n = len(mat)
    return [tuple(mat[i][j] for i in range(n)) for j in range(len(mat[0]))]


def lr_defect_labels(g, p):
    """Brute force over all dim^3 basis triples plus compatibility."""
    n = p.dim
    t = p.table
    labels = set()
    es = [unit(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            tij = t[i][j]
            tji = t[j][i]
            for k in range(n):
                if ev(t, es[i], ev(t, es[j], es[k])) != ev(t, es[j], ev(t, es[i], es[k])):
                    labels.add(LR_LEFT)
                if ev(t, tij, es[k]) != ev(t, ev(t, es[i], es[k]), es[j]):
                    labels.add(LR_RIGHT)
            if tuple(a - b for a, b in zip(tij, tji)) != g.brackets[i][j]:
                labels.add(COMPATIBILITY)
    return labels


def all_rights_nilpotent(p):
    n = p.dim
    for i in range(n):
        if not mat_is_zero(mpow(right_mat(p.table, unit(n, i)), n)):
            return False
    return True


def product_vectors(p):
    return [p.table[i][j] for i in range(p.dim) for j in range(p.dim)]


# ---------------------------------------------------------------------------
# constructions shared by several criteria

PIPELINE_SEEDS = "pipeline instances: algebra paired with its seed product"


def pipeline_instances():
    """The splitting-pipeline inputs: r2 and the filiform family seeded
    by the two-generator construction, the equal-weight diagonal
    algebra by its catalog product (it is not two-generated, since
    ad(x) has a repeated eigenvalue on the abelian part)."""
    out = []
    g = r2()
    out.append((g, "r2", two_generator_lr(g, unit(2, 0), unit(2, 1))))
    g, p = known_lr("diag11-twogen")
    out.append((g, "diag11", p))
    for n in range(4, 9):
        g = filiform(n)
        out.append((g, f"filiform{n}", two_generator_lr(g, unit(n, 0), unit(n, 1))))
    return out


def nilpotent_completion_inputs():
    names = (
        "abelian1-idempotent",
        "abelian2-idempotent-line",
        "heisenberg-half",
        "free2step3-half",
    )
    return [(name, *known_lr(name)) for name in names]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_lr_axiom_oracle():
    for name in known_lr_names():
        g, p = known_lr(name)
        assert g.dim <= 12
        start = time.monotonic()
        labels = lr_defect_labels(g, p)
        elapsed = time.monotonic() - start
        fx = fixture_expectations(name)
        if fx.is_lr and fx.is_compatible:
            assert labels == set(), f"{name}: unexpected defects {labels}"
        else:
            assert labels == set(fx.failing), (
                f"{name}: failed at {labels}, documented {set(fx.failing)}"
            )
        assert elapsed < 1.0, f"{name}: oracle took {elapsed:.2f}s"


def test_criterion_2_completion_on_nilpotent():
    for name, g, p in nilpotent_completion_inputs():
        cert = complete_nilpotent(g, p)
        done = cert.completed
        # (a) completed product passes the brute-force oracle
        assert lr_defect_labels(g, done) == set(), name
        # (b) every basis right multiplication is nilpotent
        assert all_rights_nilpotent(done), name
        # (c) new products lie in the span of the old ones
        old = product_vectors(p)
        for vec in product_vectors(done):
            if any(vec):
                assert span_contains(old, vec), name
        # (d) already-complete inputs come back unchanged
        if all_rights_nilpotent(p):
            assert done == p, name
    # the one-dimensional idempotent completes to exactly zero
    _, g1, p1 = nilpotent_completion_inputs()[0]
    assert complete_nilpotent(g1, p1).completed == Product.zero(1)


def test_criterion_3_completion_pipeline():
    for g, name, seed in pipeline_instances():
        start = time.monotonic()
        cert = complete_any(g, seed)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"{name}: took {elapsed:.2f}s"
        done = cert.completed
        assert cert.original == seed
        assert lr_defect_labels(g, done) == set(), name
        assert all_rights_nilpotent(done), name
        old = product_vectors(seed)
        for vec in product_vectors(done):
            if any(vec):
                assert span_contains(old, vec), name
        assert cert.containment_witness.holds
        if name == "r2":
            expected = Product.from_entries(2, {(0, 1): {1: 1}})
            assert done == expected


def test_criterion_4_two_generator_filiform():
    for n in range(4, 11):
        g = filiform(n)
        p = two_generator_lr(g, unit(n, 0), unit(n, 1))
        assert lr_defect_labels(g, p) == set(), n
        # closed form: e_i * e_1 = -e_{i+1} for 2 <= i <= n-1, rest zero
        expected = Product.from_entries(n, {(i, 0): {i + 1: -1} for i in range(1, n - 1)})
        assert p == expected, n
        # brute-force check of the defining left-multiplication
        # relations: the basis is x = e1 and ad(x)^l y = e_{l+2} with
        # L(x) = 0 and L(ad(x)^l y) = ad(x)^l ad(y)
        ad_x = [[F(0)] * n for _ in range(n)]
        ad_y = [[F(0)] * n for _ in range(n)]
        for j in range(n):
            col_x = g.bracket(unit(n, 0), unit(n, j))
            col_y = g.bracket(unit(n, 1), unit(n, j))
            for k in range(n):
                ad_x[k][j] = col_x[k]
                ad_y[k][j] = col_y[k]
        assert mat_is_zero(left_mat(p.table, unit(n, 0)))
        for l in range(0, n - 1):
            lhs = left_mat(p.table, unit(n, l + 1))
            rhs = mmul(mpow(ad_x, l), ad_y)
            assert mat_eq(lhs, rhs), (n, l)


def test_criterion_5_operator_identity_suite():
    products = []
    for _, g, p in nilpotent_completion_inputs():
        products.append(complete_nilpotent(g, p).completed)
    for g, _, seed in pipeline_instances():
        products.append(complete_any(g, seed).completed)
    for n in range(4, 11):
        products.append(two_generator_lr(filiform(n), unit(n, 0), unit(n, 1)))

    def check_six(t, x, y, z):
        lx, rx = left_mat(t, x), right_mat(t, x)
        ly, ry = left_mat(t, y), right_mat(t, y)
        xy, yx = ev(t, x, y), ev(t, y, x)
        yz, xz = ev(t, y, z), ev(t, x, z)
        assert mat_eq(mmul(lx, ry), right_mat(t, xy))
        assert mat_eq(mmul(rx, ly), left_mat(t, yx))
        if any(yz):
            assert mat_eq(mmul(lx, right_mat(t, yz)), right_mat(t, ev(t, x, yz)))
            assert mat_eq(mmul(rx, left_mat(t, yz)), left_mat(t, ev(t, yz, x)))
            assert mat_eq(mmul(lx, left_mat(t, yz)), left_mat(t, ev(t, y, xz)))
            assert mat_eq(mmul(rx, right_mat(t, yz)), right_mat(t, ev(t, yx, z)))

    rng = random.Random(20260816)
    for p in products:
        n = p.dim
        es = [unit(n, i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    check_six(p.table, es[i], es[j], es[k])
        for _ in range(100):
            x, y, z = (
                tuple(
                    F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(n)
                )
                for _ in range(3)
            )
            check_six(p.table, x, y, z)


def test_criterion_6_two_of_three_consistency():
    def algebra_nilpotent_local(g):
        n = g.dim
        term = [unit(n, i) for i in range(n)]
        while True:
            nxt_vecs = [
                g.bracket(unit(n, i), list(v)) for i in range(n) for v in term
            ]
            nxt = [v for v in rref_rows(nxt_vecs)]
            if len(nxt) == len(term) and span_eq(nxt, term):
                return len(term) == 0
            term = nxt
            if not term:
                return True

    seen = 0
    for name in known_lr_names():
        fx = fixture_expectations(name)
        if not (fx.is_lr and fx.is_compatible):
            continue
        g, p = known_lr(name)
        t = two_of_three(g, p)
        seen += 1
        # oracle recomputation of all three statements
        n = p.dim
        left_nil = all(
            mat_is_zero(mpow(left_mat(p.table, unit(n, i)), n)) for i in range(n)
        )
        right_nil = all_rights_nilpotent(p)
        alg_nil = algebra_nilpotent_local(g)
        assert (t.left_nilpotent, t.right_nilpotent, t.algebra_nilpotent) == (
            left_nil,
            right_nil,
            alg_nil,
        ), name
        assert t.consistent, name
        assert (left_nil, right_nil, alg_nil).count(False) != 1, name
    assert seen == 9  # every fixture carrying an LR-structure was covered

    g, p = known_lr("abelian1-idempotent")
    t = two_of_three(g, p)
    assert (t.left_nilpotent, t.right_nilpotent, t.algebra_nilpotent) == (
        False,
        False,
        True,
    )
    g, p = known_lr("r2-completed")
    t = two_of_three(g, p)
    assert (t.left_nilpotent, t.right_nilpotent, t.algebra_nilpotent) == (
        False,
        True,
        False,
    )


def test_criterion_7_fitting_decomposition():
    rng = random.Random(97)
    for trial in range(200):
        n = rng.randint(1, 8)
        base = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        count = rng.randint(1, 3)
        family_rows = []
        for _ in range(count):
            deg = rng.randint(0, 2)
            coeffs = [F(rng.randint(-2, 2)) for _ in range(deg + 1)]
            acc = [[F(0)] * n for _ in range(n)]
            power = mpow(base, 0)
            for c in coeffs:
                if c:
                    for i in range(n):
                        for j in range(n):
                            acc[i][j] += c * power[i][j]
                power = mmul(power, base)
            family_rows.append(acc)
        family = [Matrix(rows) for rows in family_rows]
        fit = fitting_split_family(family)
        vn = [list(v) for v in fit.v_n.basis]
        v0 = [list(v) for v in fit.v_0.basis]

        # direct sum of the two components
        assert len(vn) + len(v0) == n, trial
        assert rank_of(vn + v0) == n, trial

        # v_n is the joint kernel of the n-th powers
        joint = [list(v) for v in [unit(n, i) for i in range(n)]]
        for rows in family_rows:
            joint = intersect_spans(joint, kernel_rows(mpow(rows, n)))
        assert span_eq(vn, joint), trial

        # both components are invariant under every family member, the
        # restrictions to v_n are nilpotent, and v_0 carries no common
        # nilpotent sub-action (its overlap with the joint generalized
        # kernel is trivial)
        for rows in family_rows:
            for v in vn:
                image_v = [sum(rows[i][j] * v[j] for j in range(n)) for i in range(n)]
                assert span_contains(vn, image_v) if vn else not any(image_v), trial
            for v in v0:
                image_v = [sum(rows[i][j] * v[j] for j in range(n)) for i in range(n)]
                assert span_contains(v0, image_v) if v0 else not any(image_v), trial
        if v0:
            assert not intersect_spans(v0, joint), trial

        # the projection is idempotent with image v_n and kernel v_0
        proj = [list(r) for r in fit.proj_n.row_list()]
        assert mat_eq(mmul(proj, proj), proj), trial
        for v in vn:
            assert [sum(proj[i][j] * v[j] for j in range(n)) for i in range(n)] == v
        for v in v0:
            assert not any(
                sum(proj[i][j] * v[j] for j in range(n)) for i in range(n)
            )
        assert span_eq(vn, [list(c) for c in columns_of(proj) if any(c)] or []), trial
        assert span_eq(v0, [list(k) for k in kernel_rows(proj)]), trial

        # single operator: agree with kernel/image of the n-th power
        if count == 1:
            pn = mpow(family_rows[0], n)
            assert span_eq(vn, kernel_rows(pn)), trial
            assert span_eq(v0, columns_of(pn)), trial


def intersect_spans(a_rows, b_rows):
    """Intersection of two spans, by solving for common coefficients."""
    a = [list(v) for v in a_rows]
    b = [list(v) for v in b_rows]
    if not a or not b:
        return []
    n = len(a[0])
    # rows of the combined system: columns are coefficients on a and b
    system = []
    for coord in range(n):
        system.append([v[coord] for v in a] + [-w[coord] for w in b])
    combos = kernel_rows_rect(system, len(a) + len(b))
    out = []
    for combo in combos:
        vec = [F(0)] * n
        for c, v in zip(combo[: len(a)], a):
            if c:
                for t in range(n):
                    vec[t] += c * v[t]
        out.append(tuple(vec))
    return [list(v) for v in rref_rows(out)] if out else []


def kernel_rows_rect(mat, cols):
    """Kernel basis for a rectangular system given as rows."""
    reduced = rref_rows(mat)
    pivots = []
    for row in reduced:
        for c, x in enumerate(row):
            if x:
                pivots.append(c)
                break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [F(0)] * cols
        v[fcol] = F(1)
        for row, pcol in zip(reduced, pivots):
            v[pcol] = -row[fcol]
        basis.append(tuple(v))
    return basis


def test_criterion_8_lift_quotient_round_trip():
    for g, name, seed in pipeline_instances():
        split = split_metabelian(g)
        ginf = Subspace.from_vectors(g.dim, split.g_infinity_basis)
        q0 = quotient_product(g, seed, ginf)
        n_alg, _, _ = quotient(g, ginf)
        q = complete_nilpotent(n_alg, q0).completed
        lifted = lift_product(split, q)
        back = quotient_product(g, lifted, ginf)
        assert back == q, name


def test_criterion_9_cli_contract(tmp_path):
    # the child runs in tmp_path, so a relative PYTHONPATH would not resolve
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lralg.__file__)))

    def cli(*argv, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "lralg", *argv],
            capture_output=True,
            text=True,
            cwd=cwd or str(tmp_path),
            env=env,
        )

    # byte-identical reruns, on files and on reports
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli("catalog", "heisenberg-half", "-o", str(a)).returncode == 0
    assert cli("catalog", "heisenberg-half", "-o", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    r1 = cli("check-lr", str(a), "--json")
    r2_ = cli("check-lr", str(a), "--json")
    assert (r1.stdout, r1.stderr, r1.returncode) == (r2_.stdout, r2_.stderr, r2_.returncode)
    rep1 = cli("analyze", str(a))
    rep2 = cli("analyze", str(a))
    assert rep1.stdout == rep2.stdout

    ca, cb = tmp_path / "ca.json", tmp_path / "cb.json"
    src = tmp_path / "tg.json"
    assert cli("catalog", "r2-twogen", "-o", str(src)).returncode == 0
    out1 = cli("complete", str(src), "-o", str(ca))
    out2 = cli("complete", str(src), "-o", str(cb))
    assert out1.returncode == 0 and out2.returncode == 0
    assert ca.read_bytes() == cb.read_bytes()

    # exit-code matrix: 0 holds, 1 mathematical no, 2 unusable input
    good = tmp_path / "good.json"
    cli("catalog", "heisenberg-half", "-o", str(good))
    broken = tmp_path / "broken.json"
    cli("catalog", "r2-right-broken", "-o", str(broken))
    incompat = tmp_path / "incompat.json"
    cli("catalog", "heisenberg-fullbracket", "-o", str(incompat))
    invalid_lie = tmp_path / "invalid-lie.json"
    invalid_lie.write_text(
        json.dumps(
            {
                "dim": 3,
                "brackets": [
                    {"i": 1, "j": 2, "v": {"3": "1"}},
                    {"i": 1, "j": 3, "v": {"1": "1"}},
                ],
            }
        )
    )
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    no_product = tmp_path / "no-product.json"
    cli("catalog", "r2", "-o", str(no_product))

    matrix = [
        (("check-lr", str(good), "--require-complete"), 0),
        (("validate", str(good)), 0),
        (("lemma14", str(good)), 0),
        (("check-lr", str(broken)), 1),
        (("validate", str(invalid_lie)), 1),
        (("complete", str(incompat), "-o", str(tmp_path / "x.json")), 1),
        (("lemma14", str(broken)), 1),
        (("validate", str(tmp_path / "missing.json")), 2),
        (("validate", str(malformed)), 2),
        (("check-lr", str(no_product)), 2),
        (("catalog", "unknown-name", "-o", str(tmp_path / "y.json")), 2),
    ]
    for argv, expected in matrix:
        got = cli(*argv).returncode
        assert got == expected, f"{argv}: exit {got}, expected {expected}"

    # parse/emit round-trip identity on every fixture file
    from lralg.io import emit_file, parse_file

    for name in known_lr_names():
        path = tmp_path / f"{name}.json"
        assert cli("catalog", name, "-o", str(path)).returncode == 0
        g, p = parse_file(str(path))
        again = tmp_path / f"{name}-again.json"
        emit_file(str(again), g, p)
        assert path.read_bytes() == again.read_bytes(), name
