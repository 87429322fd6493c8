"""Every subcommand's exit code, stdout and stderr, in text and --json
mode, against a recorded transcript.

The inputs are every catalog fixture (ones that pass, ones that fail by
design with violations, incomplete products), the catalog families,
so(3) and an algebra that fails the Jacobi identity; the catalog's
exit-2 parameter errors come last.  Each run's temporary directory
prints as <tmp>, and a file a run writes is recorded by its SHA-256.

After a deliberate change of output, rewrite the transcript with

    PYTHONPATH=src python -B tests/test_cli_transcript.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from lralg.catalog import known_lr, known_lr_names, named_algebra
from lralg.cli import main
from lralg.io import emit_file

TRANSCRIPT = os.path.join(os.path.dirname(__file__), "cli_transcript.json")

FAMILIES = [
    ("abelian", "3"),
    ("heisenberg", None),
    ("filiform", "6"),
    ("r2", None),
    ("diag-solvable", "1,2"),
    ("free-two-step", "3"),
]

CATALOG_ERRORS = [
    ("r2-twogen", "7"),
    ("heisenberg", "3"),
    ("filiform", None),
    ("filiform", "x"),
    ("abelian", "+5"),
    ("diag-solvable", None),
    ("diag-solvable", "1e5,1"),
    ("nonsense", None),
]

# so(3): [e1, e2] = e3, [e1, e3] = -e2, [e2, e3] = e1.
SO3 = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "v": {"3": "1"}},
        {"i": 1, "j": 3, "v": {"2": "-1"}},
        {"i": 2, "j": 3, "v": {"1": "1"}},
    ],
}

# [e1, e2] = e3, [e1, e3] = e1: the Jacobi sum on (1, 2, 3) is not 0.
NOT_JACOBI = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 2, "v": {"3": "1"}},
        {"i": 1, "j": 3, "v": {"1": "1"}},
    ],
}


def unit(i: int, dim: int) -> str:
    return ",".join("1" if j == i else "0" for j in range(dim))


def commands(path: str, dim: int, out: str):
    """The argv of every subcommand on one input file, without --json."""
    x, y = unit(0, dim), unit(min(1, dim - 1), dim)
    yield "validate", path
    yield "analyze", path
    yield "check-lr", path
    yield "check-lr", path, "--require-complete"
    yield "complete", path, "-o", out
    yield "two-gen", path, "--x", x, "--y", y, "-o", out
    yield "two-gen", path, "--x", x, "--y", y, "-o", out, "--complete"
    yield "two-gen", path, "--x", x + ",0", "--y", y, "-o", out
    yield "lemma14", path
    yield "lemma14", path, "--samples", "4", "--seed", "3"


def run(argv: list[str], tmp: str) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = None
    target = argv[argv.index("-o") + 1] if "-o" in argv else None
    if target and os.path.isfile(target):
        with open(target, "rb") as fh:
            written = hashlib.sha256(fh.read()).hexdigest()
        os.remove(target)
    return {
        "argv": [a.replace(tmp, "<tmp>") for a in argv],
        "code": code,
        "stdout": stdout.getvalue().replace(tmp, "<tmp>"),
        "stderr": stderr.getvalue().replace(tmp, "<tmp>"),
        "written": written,
    }


def transcript(tmp: str) -> list[dict]:
    out = os.path.join(tmp, "out.json")
    records = []

    def every_mode(argv) -> None:
        for extra in ([], ["--json"]):
            records.append(run([*argv, *extra], tmp))

    inputs = []
    for name, param in [(n, None) for n in known_lr_names()] + FAMILIES:
        every_mode(["catalog", name, *([param] if param else []), "-o", out])
        g, p = known_lr(name) if name in known_lr_names() else (named_algebra(name, param), None)
        path = os.path.join(tmp, f"{name}.json")
        emit_file(path, g, p)
        inputs.append((path, g.dim))
    for name, data in (("so3", SO3), ("not-jacobi", NOT_JACOBI)):
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        inputs.append((path, data["dim"]))

    for path, dim in inputs:
        for argv in commands(path, dim, out):
            every_mode(list(argv))
    for name, param in CATALOG_ERRORS:
        every_mode(["catalog", name, *([param] if param else []), "-o", out])
    return records


def test_transcript_is_unchanged(tmp_path):
    with open(TRANSCRIPT, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = transcript(str(tmp_path))
    assert len(got) == len(expected)
    for want, have in zip(expected, got):
        assert have == want, " ".join(want["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = transcript(os.path.realpath(tmp))
    with open(TRANSCRIPT, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(records)} runs to {TRANSCRIPT}")
