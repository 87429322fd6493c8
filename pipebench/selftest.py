"""Self-test of the benchmark on a tiny job list.

Run from the root of a checkout:  python3 pipebench/run.py --self-test

Checks that the generator is deterministic in its seed, that the timed
and the traced paths run and report every metric BENCHMARK.json names
with its unit, that the self times of each traced job add up, and that
the oracle and the output checks catch a wrong product, a wrong exit
code and a wrong verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil

import gen
import oracle
import run


def _generated(seed, work):
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs, _ = gen.generate("selftest", seed, 2, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return [j["input_sha256"] for j in jobs]


def _report(summary, trace):
    args = argparse.Namespace(workload="selftest", seed=7, seconds=0.01, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        ok = run.report(args, summary, 0, 0)
    return ok, json.loads(buf.getvalue().strip().splitlines()[-1])


def _check_metrics(errors, result, spec, label):
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    if set(got) != set(want):
        errors.append(f"{label}: metrics {sorted(set(got) ^ set(want))} missing or extra")
    for name, unit in want.items():
        m = got.get(name)
        if m is not None and (m.get("unit") != unit or not isinstance(m.get("value"), (int, float))):
            errors.append(f"{label}: {name} has {m}, expected unit {unit}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")


def _check_oracle(errors):
    n = 3
    g = gen.free_two_step(2)
    good = gen.half_product(g)
    if oracle.verdict(g, good, n) != {"lr": True, "compatible": True, "complete": True}:
        errors.append("oracle rejects the half bracket on the Heisenberg algebra")
    bad = {ij: dict(v) for ij, v in good.items()}
    bad[(2, 2)] = {2: gen.ONE}
    if oracle.verdict(g, bad, n)["complete"]:
        errors.append("oracle calls a product with e3*e3 = e3 complete")
    r2 = gen.diag_solvable([1])
    broken = {(1, 0): {1: -gen.ONE}, (1, 1): {0: gen.ONE}}
    if oracle.verdict(r2, broken, 2)["lr"]:
        errors.append("oracle accepts a product whose right multiplications do not commute")


def _check_gate(errors, work):
    """A wrong product, exit code and verdict must each be caught."""
    os.makedirs(work, exist_ok=True)
    try:
        n = 3
        g = gen.free_two_step(2)
        with open(os.path.join(work, "in.json"), "w", encoding="utf-8") as fh:
            fh.write(gen.algebra_text(n, g))
        wrong = {ij: dict(v) for ij, v in gen.half_product(g).items()}
        wrong[(0, 1)] = {2: gen.ONE}
        with open(os.path.join(work, "out.json"), "w", encoding="utf-8") as fh:
            fh.write(gen.algebra_text(n, g, wrong))
        job = {"argv": ["two-gen", "in.json"], "expect": {
            "rc": 0, "emits": True, "json": {"dim": n, "output": "out.json"}}}
        res = {"rc": 0, "stdout": json.dumps({"dim": n, "output": "out.json"}),
               "stderr": "", "exc": None}
        problems, _ = run.check_job(job, res, work)
        if not any("oracle" in p for p in problems):
            errors.append("a product that is not compatible passed the output check")
        with open(os.path.join(work, "out.json"), "w", encoding="utf-8") as fh:
            fh.write(gen.algebra_text(n, g, gen.half_product(g)))
        if run.check_job(job, res, work)[0]:
            errors.append("a correct product failed the output check")
        if not run.check_job(job, dict(res, rc=1), work)[0]:
            errors.append("a wrong exit code passed")
        if not run.check_job(job, dict(res, stdout=json.dumps({"dim": 4})), work)[0]:
            errors.append("a wrong verdict field passed")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    errors = []
    work = os.path.join(run.WORK, f"selftest-p{os.getpid()}")
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    a, b, c = _generated(5, work), _generated(5, work), _generated(6, work)
    if a != b:
        errors.append("the same seed gave different inputs")
    if a == c:
        errors.append("different seeds gave the same inputs")
    if len(set(a)) != len(a):
        errors.append("an input repeats within a run")
    if run.tail(list(range(1, 101))) != (90, 90.0, 100):
        errors.append("tail() does not leave ten jobs above the reported value")

    _check_oracle(errors)
    _check_gate(errors, work)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        summary = run.run_workload("selftest", 7, 0.01, trace)
        if summary["failures"]:
            errors.append(f"trace={trace}: jobs failed: {summary['failures']}")
        ok, result = _report(summary, trace)
        if not ok or not result["correct"]:
            errors.append(f"trace={trace}: report says not correct")
        _check_metrics(errors, result, spec[key], f"trace={trace}")
        if trace and summary["out"]["trace"]["self_sum_err"] > 1e-9:
            errors.append("self times of a traced job do not add up to its root span")

    for e in errors:
        print(f"self-test: {e}")
    print("self-test: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0
