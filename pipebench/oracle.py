"""Brute-force checks of products over basis triples, without lralg.

A product tensor is ``{(i, j): {k: Fraction}}`` with 0-based indices.
The LR identities are homogeneous of degree two in the product and
nilpotency does not change under scaling, so both are checked on the
integer tensor D * p, D the common denominator; compatibility is linear
in the product and the bracket and is checked on the fractions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)


def _integer_tensor(product):
    den = 1
    for v in product.values():
        for c in v.values():
            den = lcm(den, c.denominator)
    return {ij: {k: int(c * den) for k, c in v.items() if c} for ij, v in product.items()}


def _op(tensor, x, left):
    """Sparse rows {row: {col: value}} of y -> x.y (left) or y -> y.x."""
    rows = {}
    for (i, j), v in tensor.items():
        if (i if left else j) != x:
            continue
        col = j if left else i
        for k, c in v.items():
            if c:
                rows.setdefault(k, {})[col] = c
    return rows


def _mul(a, b):
    out = {}
    for i, ra in a.items():
        acc = {}
        for k, x in ra.items():
            rb = b.get(k)
            if rb:
                for j, y in rb.items():
                    acc[j] = acc.get(j, 0) + x * y
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def _reduced(m):
    g = 0
    for row in m.values():
        for v in row.values():
            g = gcd(g, v)
    if g > 1:
        return {i: {j: v // g for j, v in row.items()} for i, row in m.items()}
    return m


def _nilpotent(m, n):
    """m**n == 0, by repeated squaring with the content divided out."""
    steps = 1
    while m and steps < n:
        m = _reduced(_mul(m, m))
        steps *= 2
    return not m


def _all_commute(ops):
    n = len(ops)
    for i in range(n):
        if not ops[i]:
            continue
        for j in range(i + 1, n):
            if ops[j] and _mul(ops[i], ops[j]) != _mul(ops[j], ops[i]):
                return False
    return True


def verdict(brackets, product, n):
    """{"lr", "compatible", "complete"} for a product on an algebra.

    complete follows the program's convention: it is False whenever the
    right multiplications fail to commute.
    """
    p = _integer_tensor(product)
    lops = [_op(p, x, True) for x in range(n)]
    rops = [_op(p, x, False) for x in range(n)]
    left_ok = _all_commute(lops)
    right_ok = _all_commute(rops)
    compatible = True
    for i in range(n):
        for j in range(i + 1, n):
            a = product.get((i, j), {})
            b = product.get((j, i), {})
            c = brackets.get((i, j), {})
            for k in set(a) | set(b) | set(c):
                if a.get(k, ZERO) - b.get(k, ZERO) != c.get(k, ZERO):
                    compatible = False
                    break
    complete = right_ok and all(_nilpotent(r, n) for r in rops)
    return {"lr": left_ok and right_ok, "compatible": compatible, "complete": complete}


def nonzero(tensor):
    """The tensor without zero entries, for comparing two tensors."""
    out = {}
    for ij, v in tensor.items():
        v = {k: c for k, c in v.items() if c}
        if v:
            out[ij] = v
    return out


def _read_entries(entries):
    out = {}
    for e in entries:
        out[(e["i"] - 1, e["j"] - 1)] = {int(k) - 1: Fraction(v) for k, v in e["v"].items()}
    return out


def read_algebra(data):
    """(dim, antisymmetric brackets, product or None) from file bytes."""
    obj = json.loads(data)
    upper = _read_entries(obj.get("brackets", []))
    brackets = {}
    for (i, j), v in upper.items():
        brackets[(i, j)] = v
        brackets[(j, i)] = {k: -c for k, c in v.items()}
    product = _read_entries(obj["product"]) if "product" in obj else None
    return obj["dim"], brackets, product
