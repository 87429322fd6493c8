"""The pipeline benchmark runs from a checkout and passes its own checks.

A short run of each workload checks every job's exit code, verdict,
output oracle and recorded digest, as a full benchmark run does, so a
change that breaks a benchmark run fails here first.  A traced run
wraps the library's functions by name and reads the flat result of
_kernels.rref for kernels.rref.max_bits, so it is run once as well.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join("pipebench", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()[-1]


def test_self_test_passes():
    assert run("--self-test") == "self-test: ok"


@pytest.mark.parametrize("workload", ["construct-sparse", "construct-dense", "verify"])
def test_short_run_is_correct(workload):
    last = json.loads(run("--workload", workload, "--seconds", "1", "--trace", "0"))
    assert last["correct"] is True and last["failed"] == 0


def test_short_traced_construct_sparse_run_is_correct():
    """The tracer wraps _kernels.rref but not _kernels.echelon, which
    reduces every span, the two-generator basis and the Fitting split
    without going through rref.  On construct-sparse the one traced rref
    call left is the change-of-basis inverse in lift_product on the
    diag jobs, whose g_infinity is not 0, so both rref assertions rest
    on that call until the tracer wraps echelon as well."""
    last = json.loads(run("--workload", "construct-sparse", "--seconds", "1", "--trace", "1"))
    assert last["correct"] is True and last["failed"] == 0
    metrics = last["metrics"]
    assert metrics["kernels.rref.calls"]["value"] > 0
    assert metrics["kernels.rref.max_bits"]["value"] > 0
