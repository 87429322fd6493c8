"""Command line interface.

Exit codes: 0 when the requested property holds or the construction
succeeds, 1 when the mathematics says no (invalid algebra, failed
identity, unmet structural requirement), 2 for unusable input (parse
errors, bad parameters, missing data).  All indices in output are
1-based; output is deterministic for a given input.

Each command builds one ordered dict of its result and hands it to
_report, the one renderer: under --json it prints the dict as JSON,
otherwise one `label: value` line per key.  The label is the key with
spaces in place of underscores, except for the four keys in _LABELS
(g_infinity_dim, two_step_solvable, has_product and output, which print
as "g-infinity dim", "two-step solvable", "product" and "wrote").  The
text form differs from the JSON only where a command passes an
override: validate hides an empty violation list, analyze prints
"solvable: yes (class N)", and check-lr leaves out holds, which its
exit code gives.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .catalog import known_lr, known_lr_names, named_algebra
from .construct import complete_any, two_generator_lr
from .errors import (
    FileFormatError,
    InternalConsistencyError,
    LrAlgError,
    PreconditionError,
    UnknownFixtureError,
)
from .io import _parse_rational, emit_file, parse_file
from .lie import series, validate_lie
from .linalg import Matrix
from .lr import _random_triples, check_lr, check_lemma14


def _defect_json(defect):
    if isinstance(defect, Matrix):
        return [[str(x) for x in row] for row in defect.row_list()]
    return [str(x) for x in defect]


def _defect_text(defect) -> str:
    if isinstance(defect, Matrix):
        rows = defect.row_list()
        return "[" + "; ".join("(" + ", ".join(map(str, r)) + ")" for r in rows) + "]"
    return "(" + ", ".join(map(str, defect)) + ")"


def _violation_json(v) -> dict:
    return {
        "identity": v.identity,
        "indices": [i + 1 for i in v.indices],
        "defect": _defect_json(v.defect),
    }


def _violation_text(v) -> str:
    if v.identity.endswith(" (sampled)"):
        where = f"sample {v.indices[0] + 1}"
    else:
        where = "(" + ", ".join(str(i + 1) for i in v.indices) + ")"
    return f"{v.identity} at {where}: defect {_defect_text(v.defect)}"


# Text labels other than the key with spaces in place of underscores.
_LABELS = {
    "g_infinity_dim": "g-infinity dim",
    "two_step_solvable": "two-step solvable",
    "has_product": "product",
    "output": "wrote",
}


def _report(args, fields: dict, text: dict | None = None) -> None:
    """Print a command's result: fields as JSON under --json, with each
    violation as an object (_violation_json), otherwise one
    `label: value` line per field in the same order.

    text replaces the values of some fields in the text form only; a
    field it maps to None prints no line.  Bools print as yes/no, lists
    comma-joined, and violations as a count line followed by one
    indented line each.
    """
    if args.json:
        if "violations" in fields:
            fields = {**fields, "violations": [_violation_json(v) for v in fields["violations"]]}
        print(json.dumps(fields, indent=2))
        return
    for key, value in {**fields, **(text or {})}.items():
        if value is None:
            continue
        label = _LABELS.get(key, key.replace("_", " "))
        if key == "violations":
            print(f"violations: {len(value)}")
            for v in value:
                print(f"  {_violation_text(v)}")
        elif isinstance(value, bool):
            print(f"{label}: {'yes' if value else 'no'}")
        elif isinstance(value, list):
            print(f"{label}: " + ", ".join(map(str, value)))
        else:
            print(f"{label}: {value}")


def _load_with_product(path: str):
    g, p = parse_file(path)
    if p is None:
        raise FileFormatError(f"{path}: missing 'product'")
    return g, p


def _parse_coords(text: str, dim: int, flag: str):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != dim:
        raise FileFormatError(f"{flag}: expected {dim} comma-separated rationals")
    return tuple(_parse_rational(s, flag) for s in parts)


def cmd_validate(args) -> int:
    g, _ = parse_file(args.file)
    ok, violations = validate_lie(g)
    _report(args, {"dim": g.dim, "valid": ok, "violations": violations},
            {"violations": violations or None})
    return 0 if ok else 1


def cmd_analyze(args) -> int:
    g, _ = parse_file(args.file)
    rep = series(g)
    solvable = f"yes (class {rep.solvable_class})" if rep.solvable else False
    _report(args, {
        "dim": g.dim,
        "lower_central_dims": [s.dim for s in rep.lower_central],
        "g_infinity_dim": rep.g_infinity.dim,
        "derived_dims": [s.dim for s in rep.derived],
        "nilpotent": rep.nilpotent,
        "solvable": rep.solvable,
        "solvable_class": rep.solvable_class,
        "two_step_solvable": rep.two_step_solvable,
    }, {"solvable": solvable, "solvable_class": None})
    return 0


def cmd_check_lr(args) -> int:
    g, p = _load_with_product(args.file)
    rep = check_lr(g, p)
    holds = rep.is_lr and rep.is_compatible
    if args.require_complete:
        holds = holds and rep.is_complete
    _report(args, {
        "dim": g.dim,
        "lr": rep.is_lr,
        "compatible": rep.is_compatible,
        "complete": rep.is_complete,
        "holds": holds,
        "violations": rep.violations,
    }, {"holds": None})
    return 0 if holds else 1


def cmd_complete(args) -> int:
    g, p = _load_with_product(args.file)
    cert = complete_any(g, p)
    emit_file(args.output, g, cert.completed)
    _report(args, {
        "dim": g.dim,
        # The Fitting split is taken on g / g_infinity.
        "g_infinity_dim": g.dim - cert.fitting.v_n.ambient_dim,
        "nilpotent_component_dim": cert.fitting.v_n.dim,
        "invertible_component_dim": cert.fitting.v_0.dim,
        "containment": cert.containment_witness.holds,
        "changed": cert.completed != cert.original,
        "output": args.output,
    })
    return 0


def cmd_two_gen(args) -> int:
    g, _ = parse_file(args.file)
    x = _parse_coords(args.x, g.dim, "--x")
    y = _parse_coords(args.y, g.dim, "--y")
    p = two_generator_lr(g, x, y)
    rep = check_lr(g, p)
    out_product = p
    if args.complete and not rep.is_complete:
        out_product = complete_any(g, p).completed
    emit_file(args.output, g, out_product)
    _report(args, {
        "dim": g.dim,
        "complete": rep.is_complete,
        "completion_applied": out_product is not p,
        "output": args.output,
    })
    return 0


def cmd_catalog(args) -> int:
    name = args.name
    product = None
    if name in known_lr_names():
        if args.param is not None:
            raise FileFormatError(f"fixture {name} takes no parameter")
        g, product = known_lr(name)
    else:
        try:
            g = named_algebra(name, args.param)
        except PreconditionError as exc:
            raise FileFormatError(str(exc)) from None
    emit_file(args.output, g, product)
    has_product = product is not None
    _report(args, {"name": name, "dim": g.dim, "has_product": has_product, "output": args.output})
    return 0


def cmd_lemma14(args) -> int:
    g, p = _load_with_product(args.file)
    if args.samples < 0:
        raise FileFormatError("--samples: must be non-negative")
    g.ensure_valid()
    violations = check_lemma14(p, _random_triples(p.dim, args.samples, args.seed))
    _report(args, {
        "dim": p.dim,
        "samples": args.samples,
        "seed": args.seed,
        "holds": not violations,
        "violations": violations,
    })
    return 1 if violations else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to main and reused
    by every later call in the process."""
    parser = argparse.ArgumentParser(
        prog="lralg",
        description="Decide, verify and construct LR-structures on Lie algebras "
        "given by rational structure constants.",
    )
    parser.add_argument("--version", action="version", version=f"lralg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    sp = add("validate", "check antisymmetry and the Jacobi identity")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate)

    sp = add("analyze", "series dimensions and structural flags")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_analyze)

    sp = add("check-lr", "verify the LR identities, compatibility and completeness")
    sp.add_argument("file")
    sp.add_argument(
        "--require-complete",
        action="store_true",
        help="also require every right multiplication to be nilpotent",
    )
    sp.set_defaults(func=cmd_check_lr)

    sp = add("complete", "turn an LR-structure into a complete one")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", required=True, help="where to write the result")
    sp.set_defaults(func=cmd_complete)

    sp = add("two-gen", "build an LR-structure from two generators")
    sp.add_argument("file")
    sp.add_argument("--x", required=True, help="first generator, comma-separated rationals")
    sp.add_argument("--y", required=True, help="second generator, comma-separated rationals")
    sp.add_argument("-o", "--output", required=True, help="where to write the result")
    sp.add_argument(
        "--complete",
        action="store_true",
        help="complete the product before writing it out",
    )
    sp.set_defaults(func=cmd_two_gen)

    sp = add("catalog", "write a named algebra or fixture to a file")
    sp.add_argument("name", help="fixture or family name; see the documentation")
    sp.add_argument("param", nargs="?", help="family parameter, when one is needed")
    sp.add_argument("-o", "--output", required=True, help="where to write the result")
    sp.set_defaults(func=cmd_catalog)

    sp = add("lemma14", "verify the six derived operator identities")
    sp.add_argument("file")
    sp.add_argument("--samples", type=int, default=25, help="number of random triples")
    sp.add_argument("--seed", type=int, default=0, help="seed for the random triples")
    sp.set_defaults(func=cmd_lemma14)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnknownFixtureError as exc:
        print(f"error: unknown name {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except LrAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
