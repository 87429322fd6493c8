"""Seeded input generator for the pipeline benchmark.

Uses fractions and json only and never imports lralg, so the same seed
gives byte-identical inputs on every commit of the program.

Tensors are sparse: ``{(i, j): {k: Fraction}}`` with 0-based indices,
meaning e_i . e_j = sum_k t[(i, j)][k] e_k.  Bracket tensors hold both
orders (i, j) and (j, i); files list brackets for i < j only, as the
program's file format asks.

A workload is a list of rounds.  Every round holds the same job
templates, in a seeded order, each instantiated with an algebra that no
earlier job of the run has: the basis vectors get seeded signs (and,
for diag-solvable algebras, seeded weight signs and order), which keeps
the cost of a template steady while the content changes.  Whole rounds
keep the job mix of a run fixed however many rounds fit in the time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

from oracle import verdict

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------- families

def filiform(n):
    """[e1, e_i] = e_{i+1} for 2 <= i <= n-1."""
    return _antisym({(0, j): {j + 1: ONE} for j in range(1, n - 1)})


def diag_solvable(weights):
    """[x, y_i] = w_i y_i."""
    return _antisym({(0, i + 1): {i + 1: Fraction(w)} for i, w in enumerate(weights)})


def free_two_step(gens):
    """[x_i, x_j] = z_ij with z central; dim = gens + gens(gens-1)/2."""
    pairs = [(i, j) for i in range(gens) for j in range(i + 1, gens)]
    return _antisym({(i, j): {gens + t: ONE} for t, (i, j) in enumerate(pairs)})


def free_two_step_dim(gens):
    return gens + gens * (gens - 1) // 2


def _antisym(upper):
    t = {}
    for (i, j), v in upper.items():
        t[(i, j)] = dict(v)
        t[(j, i)] = {k: -c for k, c in v.items()}
    return t


def shift_product(n):
    """e_i . e1 = -e_{i+1}: the two-generator product on filiform(n)."""
    return {(i, 0): {i + 1: -ONE} for i in range(1, n - 1)}


def diag_twogen_product(weights):
    """y_i . x = -w_i y_i: the two-generator product on diag-solvable."""
    return {(i + 1, 0): {i + 1: -Fraction(w)} for i, w in enumerate(weights)}


def half_product(brackets):
    return {ij: {k: c / 2 for k, c in v.items()} for ij, v in brackets.items()}


# ------------------------------------------------------------ linear algebra

def inverse(t, n):
    """Exact inverse of a dense n x n Fraction matrix, None if singular."""
    a = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(t)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        inv_p = 1 / a[c][c]
        a[c] = [x * inv_p for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def transform(tensor, t, t_inv, n):
    """Bilinear map in the basis f_a = sum_i t[i][a] e_i."""
    cols = [{i: t[i][a] for i in range(n) if t[i][a]} for a in range(n)]
    acc = {}
    for a in range(n):
        for b in range(n):
            u = {}
            for i, tia in cols[a].items():
                for j, tjb in cols[b].items():
                    v = tensor.get((i, j))
                    if v:
                        s = tia * tjb
                        for k, c in v.items():
                            u[k] = u.get(k, ZERO) + s * c
            if any(u.values()):
                acc[(a, b)] = u
    out = {}
    for ab, u in acc.items():
        w = {}
        for r in range(n):
            row = t_inv[r]
            s = sum((row[k] * c for k, c in u.items() if row[k]), ZERO)
            if s:
                w[r] = s
        if w:
            out[ab] = w
    return out


def apply_inv(t_inv, x):
    return [sum((a * b for a, b in zip(row, x)), ZERO) for row in t_inv]


def rescale(tensor, s):
    """Tensor in the basis f_a = s_a e_a."""
    if all(abs(x) == 1 for x in s):
        return {
            (i, j): {k: c if s[i] * s[j] * s[k] > 0 else -c for k, c in v.items()}
            for (i, j), v in tensor.items()
        }
    return {
        (i, j): {k: c * s[i] * s[j] / s[k] for k, c in v.items()}
        for (i, j), v in tensor.items()
    }


def random_basis_change(rng, n, fill, pattern):
    """Invertible matrix: +-1 on the diagonal and round(fill * n(n-1))
    off-diagonal entries k/d with |k| <= 2, d in {1, 2, 3}.

    ``pattern`` (a Random) picks which entries are nonzero and ``rng``
    their values, so a fixed pattern stream gives every seed the same
    sparsity structure, and so nearly the same cost, with new numbers.
    """
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    while True:
        where = pattern.sample(off, round(fill * len(off)))
        for _ in range(20):
            t = [[Fraction(rng.choice((1, -1))) if i == j else ZERO for j in range(n)]
                 for i in range(n)]
            for i, j in where:
                t[i][j] = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
            t_inv = inverse(t, n)
            if t_inv is not None:
                return t, t_inv


# ------------------------------------------------------------------- files

def _entries(tensor, ordered_only):
    out = []
    for (i, j) in sorted(tensor):
        if ordered_only and not i < j:
            continue
        v = {str(k + 1): str(c) for k, c in sorted(tensor[(i, j)].items()) if c}
        if v:
            out.append({"i": i + 1, "j": j + 1, "v": v})
    return out


def algebra_text(n, brackets, product=None):
    obj = {"dim": n, "brackets": _entries(brackets, True)}
    if product is not None:
        obj["product"] = _entries(product, False)
    return json.dumps(obj, indent=2) + "\n"


def coords(v):
    return ",".join(str(Fraction(x)) for x in v)


# --------------------------------------------------------------- workloads
#
# A template is (kind, family, size, copies): kind picks the command, size
# the dimension parameter, copies how many instances one round holds.
# Templates are listed by cost.  Each mix puts templates of nearly equal
# cost where the median and the tail (the eleventh slowest job) fall, so
# those metrics do not jump from one template's cost to another's.

CONSTRUCT_SPARSE = [
    ("complete", "diag", 5, 1),
    ("two-gen", "diag", 5, 1),
    ("two-gen", "filiform", 8, 1),
    ("complete", "filiform", 6, 1),
    ("complete", "diag", 9, 1),
    ("two-gen", "filiform", 12, 1),
    ("two-gen", "diag", 9, 1),
    ("two-gen", "filiform", 14, 1),
    ("complete", "filiform", 10, 1),
    ("complete", "diag", 13, 1),
    ("two-gen", "filiform", 16, 1),
    ("two-gen", "diag", 13, 1),
    ("complete", "filiform", 12, 1),
    ("complete", "diag", 17, 1),
    ("complete", "filiform", 14, 1),
    ("two-gen", "filiform", 20, 1),
    ("two-gen", "diag", 17, 1),
    ("two-gen", "filiform", 24, 1),
]

# (kind, family, size, copies, fill): fill of the basis change, lower for
# the larger algebras so that one job stays under a second.
CONSTRUCT_DENSE = [
    ("two-gen", "filiform", 6, 2, 0.3),
    ("complete", "diag", 5, 2, 0.3),
    ("two-gen", "diag", 5, 2, 0.3),
    ("complete", "diag", 7, 2, 0.2),
    ("two-gen", "filiform", 8, 2, 0.2),
    ("two-gen", "diag", 7, 2, 0.2),
    ("complete", "diag", 9, 1, 0.15),
    ("complete", "filiform", 6, 2, 0.3),
    ("two-gen", "filiform", 10, 2, 0.15),
    ("two-gen", "diag", 9, 2, 0.15),
    ("complete", "filiform", 8, 2, 0.2),
    ("complete", "filiform", 10, 1, 0.15),
    ("two-gen", "filiform", 12, 1, 0.15),
    ("complete", "filiform", 12, 1, 0.1),
    ("two-gen", "diag", 13, 1, 0.1),
]

# (kind, source, size, copies): source names the stored product.
VERIFY = [
    ("check-lr", "half", 4, 2),
    ("check-lr", "half", 5, 2),
    ("check-lr", "half", 6, 2),
    ("lemma14", "half", 4, 1),
    ("lemma14", "half", 5, 1),
    ("check-lr", "shift", 12, 2),
    ("check-lr", "shift", 20, 2),
    ("lemma14", "shift", 12, 2),
    ("lemma14", "shift", 20, 1),
    ("check-lr", "twogen", 9, 2),
    ("check-lr", "twogen", 17, 2),
    ("lemma14", "twogen", 9, 2),
    ("check-lr", "perturbed-half", 5, 2),
    ("check-lr", "perturbed-shift", 16, 2),
    ("lemma14", "perturbed-shift", 16, 2),
    ("lemma14", "perturbed-twogen", 13, 2),
]

# A tiny mix of every job kind, for the benchmark's self-test.
SELFTEST = [
    ("two-gen", "filiform", 5, 1),
    ("complete", "diag", 4, 1),
    ("check-lr", "half", 3, 1),
    ("lemma14", "perturbed-shift", 5, 1),
    ("check-lr", "twogen", 4, 1),
]

WORKLOADS = {
    "construct-sparse": CONSTRUCT_SPARSE,
    "construct-dense": CONSTRUCT_DENSE,
    "verify": VERIFY,
    "selftest": SELFTEST,
}

# Dense basis changes per template: more of them average out how much one
# random matrix happens to cost.  Their sparsity patterns are the same for
# every seed; the seed draws the values.
DENSE_BASES = 16


def _weights(rng, k):
    """Distinct nonzero weights: magnitudes 1..k, seeded signs and order."""
    ws = [m * rng.choice((1, -1)) for m in range(1, k + 1)]
    rng.shuffle(ws)
    return ws


def _base(family, size, rng):
    """(dim, brackets, product, x, y) for a family member in its own basis."""
    if family == "filiform":
        n = size
        x = [1 if i == 0 else 0 for i in range(n)]
        y = [1 if i == 1 else 0 for i in range(n)]
        return n, filiform(n), shift_product(n), x, y
    if family == "diag":
        ws = _weights(rng, size - 1)
        n = size
        return n, diag_solvable(ws), diag_twogen_product(ws), [1] + [0] * (n - 1), [0] + [1] * (n - 1)
    if family == "free":
        n = free_two_step_dim(size)
        g = free_two_step(size)
        return n, g, half_product(g), None, None
    raise ValueError(family)


def _dense_base(family, size, fill, rng, pattern):
    """A family member after a random rational change of basis."""
    n, g, p, x, y = _base(family, size, rng)
    t, t_inv = random_basis_change(rng, n, fill, pattern)
    return n, transform(g, t, t_inv, n), transform(p, t, t_inv, n), apply_inv(t_inv, x), apply_inv(t_inv, y)


def _rescaled(base, rng, factors):
    """The base in a basis f_a = s_a e_a with seeded s_a from factors."""
    n, g, p, x, y = base
    s = [Fraction(rng.choice(factors)) for _ in range(n)]
    x = None if x is None else [a / b for a, b in zip(x, s)]
    y = None if y is None else [a / b for a, b in zip(y, s)]
    return n, rescale(g, s), rescale(p, s), x, y


def _fresh(base, rng, seen):
    """A rescaling of base whose algebra no earlier job of the run has.

    Seeded signs change the content but not the cost.  Small algebras
    have few sign patterns, so after many repeats the factors +-2 join
    in; they enlarge a few coefficients to 2 or 3 bits.
    """
    for attempt in range(10_000):
        inst = _rescaled(base, rng, (1, -1) if attempt < 64 else (1, -1, 2, -2))
        key = algebra_text(inst[0], inst[1])
        if key not in seen:
            seen.add(key)
            return inst
    raise RuntimeError("no fresh instance left; lower the number of rounds")


def _perturb(rng, n, brackets, product):
    """One entry of the product moved by a small rational, until the LR
    identities break."""
    keys = sorted(product)
    while True:
        if rng.random() < 0.5:
            i, j = keys[rng.randrange(len(keys))]
        else:
            i, j = rng.randrange(n), rng.randrange(n)
        k = rng.randrange(n)
        d = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
        p = {ij: dict(v) for ij, v in product.items()}
        v = p.setdefault((i, j), {})
        v[k] = v.get(k, ZERO) + d
        if not v[k]:
            del v[k]
        if not verdict(brackets, p, n)["lr"]:
            return p


def _job_construct(kind, family, instance):
    n, g, p, x, y = instance
    diag = family == "diag"
    if kind == "two-gen":
        text = algebra_text(n, g)
        argv = ["two-gen", None, "--x=" + coords(x), "--y=" + coords(y), "--complete"]
        expect = {"rc": 0, "json": {"dim": n, "complete": not diag,
                                    "completion_applied": diag}}
    else:
        text = algebra_text(n, g, p)
        argv = ["complete", None]
        expect = {"rc": 0, "json": {
            "dim": n, "g_infinity_dim": n - 1 if diag else 0,
            "nilpotent_component_dim": 1 if diag else n,
            "invertible_component_dim": 0, "containment": True, "changed": diag}}
    expect["emits"] = True
    return text, argv, expect


def _job_verify(kind, source, instance, rng):
    n, g, p, _, _ = instance
    if source.startswith("perturbed-"):
        p = _perturb(rng, n, g, p)
        v = verdict(g, p, n)
    else:
        v = {"lr": True, "compatible": True, "complete": source != "twogen"}
    text = algebra_text(n, g, p)
    if kind == "check-lr":
        holds = v["lr"] and v["compatible"] and v["complete"]
        argv = ["check-lr", None, "--require-complete"]
        expect = {"rc": 0 if holds else 1, "json": dict(v, dim=n, holds=holds),
                  "violations": not (v["lr"] and v["compatible"])}
    else:
        holds = v["lr"]
        samples, seed = 6, rng.randrange(1 << 16)
        argv = ["lemma14", None, "--samples", str(samples), "--seed", str(seed)]
        expect = {"rc": 0 if holds else 1,
                  "json": {"dim": n, "samples": samples, "seed": seed, "holds": holds},
                  "violations": not holds}
    expect["emits"] = False
    return text, argv, expect


_VERIFY_FAMILY = {"half": "free", "shift": "filiform", "twogen": "diag"}

# Tiny jobs run once before timing, so first-call costs stay out of it.
WARMUP = [("two-gen", "diag", 3, 1), ("complete", "diag", 3, 1),
          ("check-lr", "half", 2, 1), ("lemma14", "half", 2, 1)]


def _is_verify(tpl):
    return tpl[0] in ("check-lr", "lemma14")


def _family(tpl):
    if _is_verify(tpl):
        return _VERIFY_FAMILY[tpl[1].removeprefix("perturbed-")]
    return tpl[1]


def _make_job(tpl, instance, rng):
    if _is_verify(tpl):
        return _job_verify(tpl[0], tpl[1], instance, rng)
    return _job_construct(tpl[0], tpl[1], instance)


def _write_job(out_dir, idx, text, argv, expect, label, r):
    name = f"in-{idx:05d}.json" if r >= 0 else f"warm-{idx}.json"
    data = text.encode()
    with open(os.path.join(out_dir, name), "wb") as fh:
        fh.write(data)
    argv[1] = name
    if expect["emits"]:
        out = f"out-{idx:05d}.json" if r >= 0 else f"warm-out-{idx}.json"
        argv += ["-o", out]
        expect["json"]["output"] = out
    argv.append("--json")
    return {"argv": argv, "template": label, "round": r, "expect": expect,
            "input_sha256": hashlib.sha256(data).hexdigest()}


def generate(workload, seed, rounds, out_dir):
    """Write the inputs of ``rounds`` rounds into out_dir.

    Returns (jobs, warmup): one entry per job in run order, each with its
    argv (input and output paths relative to out_dir), its expectations
    and the sha256 of its input file.
    """
    templates = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    bases = {}
    if workload == "construct-dense":
        for ti, (_, family, size, _, fill) in enumerate(templates):
            pattern = random.Random(f"{workload}:pattern:{ti}")
            bases[ti] = [_dense_base(family, size, fill, rng, pattern)
                         for _ in range(DENSE_BASES)]
    os.makedirs(out_dir, exist_ok=True)
    warmup = []
    for wi, tpl in enumerate(WARMUP):
        wrng = random.Random(f"warmup:{wi}")
        inst = _base(_family(tpl), tpl[2], wrng)
        text, argv, expect = _make_job(tpl, inst, wrng)
        warmup.append(_write_job(out_dir, wi, text, argv, expect, "warmup", -1))
    jobs = []
    seen = set()
    for r in range(rounds):
        order = [(ti, c) for ti, tpl in enumerate(templates) for c in range(tpl[3])]
        rng.shuffle(order)
        for ti, c in order:
            tpl = templates[ti]
            inst_rng = random.Random(f"{workload}:{seed}:{r}:{ti}:{c}")
            if bases:
                base = bases[ti][(r * tpl[3] + c) % DENSE_BASES]
            else:
                base = _base(_family(tpl), tpl[2], inst_rng)
            inst = _fresh(base, inst_rng, seen)
            text, argv, expect = _make_job(tpl, inst, inst_rng)
            label = "/".join(str(x) for x in tpl[:3])
            jobs.append(_write_job(out_dir, len(jobs), text, argv, expect, label, r))
    return jobs, warmup
