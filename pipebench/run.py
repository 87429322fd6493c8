"""Pipeline benchmark: time to a certified answer from the lralg CLI.

Usage (from the root of a checkout):

    python3 pipebench/run.py --workload construct-sparse --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --self-test

Each run generates its inputs from the seed (pipebench/gen.py, which does
not use lralg), then starts fresh single-threaded worker processes
(pipebench/worker.py): a few that only set up, for ``setup_s``, and one
that runs the workload as a closed loop with one client, each job an
in-process call to ``lralg.cli.main(argv)``.  Outside the timed region
every job's exit code, JSON verdict and stderr are checked, every
emitted product is re-parsed and checked by a brute-force oracle
(pipebench/oracle.py), and for the default seed every job's output is
compared with the sha256 recorded in pipebench/digests.json.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
from the traced rounds (pipebench/layers.py).  The lines before it are
a human-readable report: environment, metrics with units, the tail
percentile and job count, and with ``--trace 1`` the reference block.
The exit code is 0 only when every check passed.

``--record-digests`` runs the first recorded rounds of every workload
on the default seed and rewrites pipebench/digests.json; only a change
that is meant to change the program's output bytes should do that.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen
import layers
import oracle
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".pipebench_work")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 1
# Rounds generated per run: several times what a run uses today, so a
# faster program still finds fresh inputs for the whole run.
ROUNDS = {"construct-sparse": 40, "construct-dense": 40, "verify": 40, "selftest": 4}
# Rounds whose output digests are recorded for the default seed.
DIGEST_ROUNDS = 10
SETUP_SAMPLES = 7
WORKER_TIMEOUT = 140


def _worker_cmd(manifest, mode, seconds=0.0, trace=0, result=None):
    cmd = [sys.executable, "-S", os.path.join(HERE, "worker.py"), "--src", SRC,
           "--manifest", manifest, "--mode", mode, "--seconds", str(seconds),
           "--trace", str(trace)]
    if result:
        cmd += ["--result", result]
    return cmd


def _env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _start(cmd):
    """Start a worker and wait for its ``ready`` line.

    Returns (process, (set-up CPU s, set-up wall s)).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), text=True)
    line = proc.stdout.readline()
    wall = time.perf_counter() - t0
    word, _, cpu = line.partition(" ")
    if word != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start: {line!r}")
    return proc, (float(cpu), wall)


def _finish(proc, timeout):
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")


def _job_digest(res, out_bytes):
    h = hashlib.sha256(f"{res['rc']}\n".encode())
    h.update(res["stdout"].encode())
    h.update(b"\0")
    h.update(out_bytes or b"")
    return h.hexdigest()


def check_job(job, res, work):
    """(problems, digest) for one job's recorded result."""
    exp = job["expect"]
    problems = []
    if res["exc"]:
        problems.append("traceback: " + res["exc"].strip().splitlines()[-1])
    if res["rc"] != exp["rc"]:
        problems.append(f"exit code {res['rc']}, expected {exp['rc']}")
    if res["stderr"]:
        problems.append(f"stderr: {res['stderr'].strip()[:200]}")
    try:
        got = json.loads(res["stdout"])
    except ValueError:
        got = None
        problems.append("stdout is not JSON")
    if isinstance(got, dict):
        for key, want in exp["json"].items():
            if got.get(key) != want:
                problems.append(f"{key} = {got.get(key)!r}, expected {want!r}")
        if "violations" in exp and bool(got.get("violations")) != exp["violations"]:
            problems.append("violations present" if got.get("violations") else "violations missing")
    out_bytes = None
    if exp["emits"] and not res["exc"]:
        path = os.path.join(work, exp["json"]["output"])
        try:
            with open(path, "rb") as fh:
                out_bytes = fh.read()
        except OSError:
            problems.append("output file missing")
        if out_bytes is not None:
            problems += _check_product(job, out_bytes, work)
    return problems, _job_digest(res, out_bytes)


def _check_product(job, out_bytes, work):
    with open(os.path.join(work, job["argv"][1]), "rb") as fh:
        n_in, g_in, _ = oracle.read_algebra(fh.read())
    try:
        n, g, p = oracle.read_algebra(out_bytes)
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        return ["output file does not parse"]
    if p is None:
        return ["output file has no product"]
    if n != n_in or oracle.nonzero(g) != oracle.nonzero(g_in):
        return ["output algebra differs from the input algebra"]
    v = oracle.verdict(g, p, n)
    return [f"oracle: emitted product is not {k}" for k in ("lr", "compatible", "complete")
            if not v[k]]


def tail(times):
    """(value, percentile, count): the highest percentile with at least
    ten jobs above it; the maximum when there are ten jobs or fewer."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_digests():
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {"seed": DEFAULT_SEED, "workloads": {}}


def run_workload(workload, seed, seconds, trace, rounds=None):
    """Generate, set up, run and check one workload; returns a summary."""
    work = os.path.join(WORK, f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs, warmup = gen.generate(workload, seed, rounds or ROUNDS[workload], work)
        manifest = os.path.join(work, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump({"jobs": [[j["round"], j["argv"]] for j in jobs],
                       "warmup": [j["argv"] for j in warmup]}, fh)

        setups = []
        for _ in range(SETUP_SAMPLES):
            proc, (cpu, wall) = _start(_worker_cmd(manifest, "probe"))
            calib = float(proc.stdout.readline().split()[1])
            _finish(proc, 60)
            setups.append((cpu, wall, calib))
        result = os.path.join(work, "result.json")
        proc, _ = _start(_worker_cmd(manifest, "run", seconds, trace, result))
        _finish(proc, WORKER_TIMEOUT)
        with open(result, encoding="utf-8") as fh:
            out = json.load(fh)
        reference = None
        if trace:
            ref_path = os.path.join(work, "reference.json")
            proc, _ = _start(_worker_cmd(manifest, "reference", result=ref_path))
            _finish(proc, WORKER_TIMEOUT)
            with open(ref_path, encoding="utf-8") as fh:
                reference = json.load(fh)

        failures = []
        digests = {}
        for key, res in sorted(out["results"].items(), key=lambda kv: int(kv[0])):
            idx = int(key)
            with open(os.path.join(work, f"stdout-{idx:05d}.txt"), encoding="utf-8") as fh:
                res["stdout"] = fh.read()
            problems, digests[idx] = check_job(jobs[idx], res, work)
            del res["stdout"]
            if problems:
                failures.append((idx, jobs[idx]["template"], problems))
        inputs = hashlib.sha256("".join(j["input_sha256"] for j in jobs).encode()).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"jobs": jobs, "out": out, "setups": setups, "failures": failures,
            "digests": digests, "inputs_sha256": inputs, "reference": reference}


def compare_digests(workload, seed, digests, failures, jobs):
    """Mark jobs whose output differs from the recorded digest as failed."""
    rec = load_digests()
    if seed != rec.get("seed") or workload not in rec["workloads"]:
        return 0, 0
    want = rec["workloads"][workload]
    checked = mismatched = 0
    for idx, d in digests.items():
        if idx < len(want):
            checked += 1
            if d != want[idx]:
                mismatched += 1
                failures.append((idx, jobs[idx]["template"], ["output differs from recorded digest"]))
    return checked, mismatched


def end_to_end(summary):
    """(metrics at reference speed, unscaled CPU values, wall values,
    tail percentile, job count, median calibration ms)."""
    res = [v for v in summary["out"]["results"].values() if not v["traced"]]
    calib = statistics.median(c for v in res for c in v["calib_ms"])

    def times(t):
        return {"jobs_per_s": len(t) / sum(t), "job_p50_s": statistics.median(t),
                "job_tail_s": tail(t)[0]}

    scaled = times([worker.ref_seconds(v) for v in res])
    cpu, wall = times([v["s"] for v in res]), times([v["wall"] for v in res])
    setups = summary["setups"]
    cpu["setup_s"] = statistics.median(c for c, _, _ in setups)
    wall["setup_s"] = statistics.median(w for _, w, _ in setups)
    metrics = {
        "setup_s": (statistics.median(c * worker.REF_CALIB_MS / k for c, _, k in setups), "s"),
        "jobs_per_s": (scaled["jobs_per_s"], "1/s"),
        "job_p50_s": (scaled["job_p50_s"], "s"),
        "job_tail_s": (scaled["job_tail_s"], "s"),
        "peak_rss_mb": (summary["out"]["peak_rss_mb"], "MB"),
    }
    _, pct, count = tail([v["s"] for v in res])
    return metrics, cpu, wall, pct, count, calib


def report(args, summary, checked, mismatched):
    out = summary["out"]
    attempted = len(out["results"])
    failed = len({f[0] for f in summary["failures"]})
    lines = [
        f"pipebench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"env: python={out['python']} lralg.KERNEL_BACKEND={out['kernel_backend']} "
        f"nproc={os.cpu_count()} cpu={cpu_model()!r} commit={git_commit()} seed={args.seed}",
        f"inputs: {len(summary['jobs'])} generated, sha256 {summary['inputs_sha256']}",
        f"rounds: {out['rounds']} run of {out['rounds_available']} generated",
        f"digests: {checked} checked against {os.path.basename(DIGESTS)}, "
        f"{mismatched} mismatched",
    ]
    if out["rounds"] >= out["rounds_available"]:
        lines.append("note: every generated round ran; raise ROUNDS for this workload")
    for idx, tpl, problems in summary["failures"][:20]:
        lines.append(f"FAILED job {idx} ({tpl}, input sha256 "
                     f"{summary['jobs'][idx]['input_sha256'][:16]}): {'; '.join(problems)}")
    metrics = {}
    if args.trace:
        layer = out["layers"]
        for name, unit in layers.UNITS.items():
            metrics[name] = {"value": layer[name], "unit": unit}
        tr = out["trace"]
        lines.append(f"trace: {tr['traced_jobs']} traced jobs, {tr['spans']} spans; per job, "
                     f"sum of self times vs root span: max relative gap {tr['self_sum_err']:.1e}; "
                     f"root span vs job wall time: max relative gap {tr['root_gap']:.1e}")
        lines.append("kernels.mat_mul.madds is computed as m*n*p per call, not measured")
        ref = summary["reference"]
        lines.append("reference (informational, library calls, one run each):")
        for case in ref["cases"]:
            body = " ".join(f"{k}={v:.4f}" for k, v in case.items() if k.endswith("_s"))
            lines.append(f"  {case['family']} dim {case['dim']}: {body}")
        for fam, e in ref["exponents"].items():
            lines.append(f"  fitted exponent {fam}: {e:.2f}")
    else:
        e2e, cpu, wall, pct, count, calib = end_to_end(summary)
        for name, (value, unit) in e2e.items():
            metrics[name] = {"value": value, "unit": unit}
        lines.append(f"host.calib_ms = {calib:.4f} ms (median of the loops between jobs; "
                     f"reference {worker.REF_CALIB_MS} ms)")
        lines.append("times below are CPU seconds at reference speed, each scaled by the "
                     "loops next to it; unscaled:")
        for name in cpu:
            lines.append(f"  {name}: CPU {cpu[name]:.6g}, wall clock {wall[name]:.6g}")
        lines.append(f"job_tail_s is p{pct:.1f} of {count} jobs")
        lines.append(f"failed_frac = {failed / attempted:.4f} ratio ({failed} of {attempted})")
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    if args.trace and summary["out"]["trace"]["self_sum_err"] > 1e-9:
        failed = max(failed, 1)
        print("FAILED: self times do not add up to the job wall time")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return failed == 0


def record_digests():
    rec = {"seed": DEFAULT_SEED, "rounds": DIGEST_ROUNDS, "workloads": {}}
    for workload in ("construct-sparse", "construct-dense", "verify"):
        summary = run_workload(workload, DEFAULT_SEED, 1e9, 0, rounds=DIGEST_ROUNDS)
        if summary["failures"]:
            raise SystemExit(f"{workload}: checks failed, digests not recorded")
        d = summary["digests"]
        rec["workloads"][workload] = [d[i] for i in range(len(d))]
        print(f"{workload}: {len(d)} digests", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=0)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w for w in gen.WORKLOADS if w != "selftest"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lralg", "__init__.py")):
        print(f"error: no lralg package under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.main()
    if args.record_digests:
        record_digests()
        return 0
    if not args.workload:
        ap.error("--workload is required")
    try:
        summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    checked, mismatched = compare_digests(args.workload, args.seed, summary["digests"],
                                          summary["failures"], summary["jobs"])
    return 0 if report(args, summary, checked, mismatched) else 1


if __name__ == "__main__":
    sys.exit(main())
