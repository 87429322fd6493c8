"""One benchmark worker: a fresh single-threaded process per run.

Set-up imports lralg from the checkout's ``src`` and loads the run's job
list, then prints ``ready``; the parent times that line.  In ``probe``
mode the worker exits there.  In ``run`` mode it runs a warm-up set,
then the rounds of the job list as a closed loop with one client: each
job is an in-process call to ``lralg.cli.main(argv)`` with stdout and
stderr captured, and the next job starts when the previous one returns.
Whole rounds run until ``--seconds`` of job time at reference speed
(see REF_CALIB_MS) have been spent.  Job times are CPU times of this
single-threaded process: the jobs do no I/O beyond small files in the
page cache, and on a shared virtual host the wall clock also counts
time the hypervisor gave to other guests.

With ``--trace 1`` every second round runs with the span recorder
installed, so traced and untraced throughput come from the same job
mix; the per-layer metrics come from the traced rounds.

Each job's stdout goes to ``stdout-<index>.txt``; exit codes, times and
per-layer aggregates go to the JSON file named by ``--result``.  The
parent checks them after the worker has exited.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

import layers


# About what calibrate() takes on the reference host (Intel Xeon, 2 vCPUs,
# Python 3.11).  A job's time is reported as its CPU time scaled by
# REF_CALIB_MS / (mean of the calibrations just before and just after
# it): CPU seconds at reference speed.
REF_CALIB_MS = 10.0


def ref_seconds(res):
    """A job's CPU time at reference speed."""
    before, after = res["calib_ms"]
    return res["s"] * REF_CALIB_MS * 2 / (before + after)


def calibrate():
    """Fixed pure-Python work (Fraction, gcd, list arithmetic), in CPU ms."""
    from fractions import Fraction
    from math import gcd

    t0 = time.process_time()
    acc = Fraction(0)
    for i in range(1, 800):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    g = 0
    xs = [(i * 7919) % 10007 for i in range(12000)]
    for x in xs:
        g = gcd(g, x * 12)
    ys = [a * b - a for a, b in zip(xs, reversed(xs))]
    sum(ys)
    return (time.process_time() - t0) * 1000.0


def reference():
    """ROADMAP baseline cases as library calls, with a fitted exponent.

    Informational: the exponent can grow when small cases get faster
    than large ones, so no gate reads it.
    """
    import math

    from lralg import catalog
    from lralg.construct import complete_any, half_bracket, two_generator_lr
    from lralg.lr import check_lr

    def timed(fn, *a):
        t0 = time.perf_counter()
        res = fn(*a)
        return res, time.perf_counter() - t0

    def unit(n, i):
        return tuple(1 if j == i else 0 for j in range(n))

    cases = []
    for n in (12, 24):
        g, t_cat = timed(catalog.filiform, n)
        p, t_tg = timed(two_generator_lr, g, unit(n, 0), unit(n, 1))
        _, t_ca = timed(complete_any, g, p)
        cases.append(("filiform", n, {"catalog_s": t_cat, "two_generator_lr_s": t_tg,
                                      "complete_any_s": t_ca}))
    for k in (8, 16):
        g, t_cat = timed(catalog.diag_solvable, list(range(1, k + 1)))
        y = (0,) + (1,) * k
        p, t_tg = timed(two_generator_lr, g, unit(k + 1, 0), y)
        _, t_ca = timed(complete_any, g, p)
        cases.append(("diag-solvable", k + 1, {"catalog_s": t_cat, "two_generator_lr_s": t_tg,
                                               "complete_any_s": t_ca}))
    for m in (4, 6):
        g, t_cat = timed(catalog.free_two_step, m)
        p, t_hb = timed(half_bracket, g)
        _, t_cl = timed(check_lr, g, p)
        cases.append(("free-two-step", g.dim, {"catalog_s": t_cat, "half_bracket_s": t_hb,
                                               "check_lr_s": t_cl}))
    exponents = {}
    for fam in ("filiform", "diag-solvable", "free-two-step"):
        pts = [(d, sum(v for k, v in t.items() if k != "catalog_s"))
               for f, d, t in cases if f == fam]
        (d1, t1), (d2, t2) = pts
        exponents[fam] = math.log(t2 / t1) / math.log(d2 / d1)
    return {"cases": [{"family": f, "dim": d, **t} for f, d, t in cases],
            "exponents": exponents}


def normalized_rate(results):
    """Jobs per CPU second at reference speed."""
    return len(results) / sum(map(ref_seconds, results))


def run_job(main, argv):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:
            rc = None
            exc = traceback.format_exc()
        c1, w1 = time.process_time(), time.perf_counter()
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "exc": exc, "s": c1 - c0, "wall": w1 - w0}


def _keep(res, idx):
    """Move the job's stdout to a file, so the results held in memory
    stay small and peak_rss_mb measures the program."""
    with open(f"stdout-{idx:05d}.txt", "w", encoding="utf-8") as fh:
        fh.write(res.pop("stdout"))
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--mode", choices=("probe", "run", "reference"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import lralg
    from lralg import cli

    if not os.path.abspath(lralg.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.exit(f"lralg imported from {lralg.__file__}, not from {args.src}")
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    print("ready", time.process_time(), flush=True)
    if args.mode == "probe":
        # The host's speed right after set-up, to scale the set-up time.
        print("calib", calibrate(), flush=True)
        return
    if args.mode == "reference":
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(reference(), fh)
        return

    os.chdir(os.path.dirname(os.path.abspath(args.manifest)))
    rounds = {}
    for idx, (r, _) in enumerate(manifest["jobs"]):
        rounds.setdefault(r, []).append(idx)
    for argv in manifest["warmup"]:
        run_job(cli.main, argv)

    recorder = layers.Recorder() if args.trace else None
    stats = layers.Stats() if args.trace else None
    results = {}
    calib = calibrate()
    spent = 0.0
    done = {False: 0, True: 0}
    wall_cap = time.perf_counter() + 3 * args.seconds + 30
    for r in sorted(rounds):
        traced = bool(args.trace) and r % 2 == 1
        enough = not args.trace or min(done.values()) > 0
        if enough and (spent >= args.seconds or time.perf_counter() > wall_cap):
            break
        if traced:
            recorder.install()
        for idx in rounds[r]:
            gc.collect()
            res = _keep(run_job(cli.main, manifest["jobs"][idx][1]), idx)
            if traced:
                stats.add_job(recorder.names, recorder.take(), res["wall"])
            after = calibrate()
            res["calib_ms"] = [calib, after]
            res["traced"] = traced
            results[idx] = res
            calib = after
            # The deadline counts CPU time at reference speed, so how
            # many rounds run does not depend on how busy the host is.
            spent += ref_seconds(res)
        if traced:
            recorder.uninstall()
        done[traced] += 1

    out = {
        "results": {str(k): v for k, v in results.items()},
        "rounds": done[False] + done[True],
        "rounds_available": len(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel_backend": lralg.KERNEL_BACKEND,
        "python": sys.version.split()[0],
    }
    if args.trace:
        rate = {t: normalized_rate([v for v in results.values() if v["traced"] is t])
                for t in (False, True)}
        out["layers"] = stats.metrics(1.0 - rate[True] / rate[False])
        out["trace"] = {"spans": stats.spans, "self_sum_err": stats.self_sum_err,
                        "root_gap": stats.root_gap, "traced_jobs": stats.jobs}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
