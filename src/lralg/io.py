"""Reading and writing algebra files.

The on-disk format is JSON with 1-based indices and rationals as
strings. Bracket entries are given only for i < j; product entries
carry no symmetry and may use any index pair. Emission is canonical:
entries sorted, rationals reduced, two-space indent, trailing newline,
so emitting what was parsed reproduces the bytes.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from typing import Any

from .errors import FileFormatError
from .lie import LieAlgebra
from .linalg import Bilinear
from .lr import Product

# Both are used with fullmatch: "$" would also match before a trailing
# newline and let "1\n" through.
_RATIONAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")
_INDEX_KEY = re.compile(r"[1-9][0-9]*")

# Only nonzero constants are stored, so memory is not what limits dim:
# the checks that every command runs grow as dim**3 to dim**4 in time.
# A larger dim is rejected before anything is built.
MAX_DIM = 128

_TOP_KEYS = {"dim", "basis", "brackets", "product"}
_ENTRY_KEYS = {"i", "j", "v"}


def _fail(path: str, message: str) -> None:
    raise FileFormatError(f"{path}: {message}")


def _clip(text: str) -> str:
    """Input text for a diagnostic: text over 20 characters is cut to
    its first 10 and its length, so a huge key or value cannot flood
    stderr."""
    return text if len(text) <= 20 else f"{text[:10]}...({len(text)} chars)"


def _show(value: Any) -> str:
    """repr of an input value for a diagnostic, clipped.

    Python refuses to print an int of more than 4300 digits, which a
    decoded object (not a parsed file) can hold.
    """
    try:
        return _clip(repr(value))
    except ValueError:
        return "a value too long to print"


def _parse_rational(text: Any, path: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        _fail(path, f"expected a rational string like '3' or '-1/2', got {_show(text)}")
    try:
        return Fraction(text)
    except ValueError:
        _fail(path, f"rational with {len(text)} characters has too many digits")


def _parse_index(value: Any, dim: int, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {_show(value)}")
    if not 1 <= value <= dim:
        _fail(path, f"index {_show(value)} out of range 1..{dim}")
    return value - 1


def _parse_values(obj: Any, dim: int, path: str) -> dict[int, Fraction]:
    if not isinstance(obj, dict):
        _fail(path, "expected an object mapping indices to rationals")
    out: dict[int, Fraction] = {}
    for key, raw in obj.items():
        here = f"{path}.{_clip(key)}"
        if not _INDEX_KEY.fullmatch(key):
            _fail(here, "keys must be positive integers written as strings")
        # Compare lengths first: int() refuses very long digit strings.
        if len(key) > len(str(dim)) or int(key) > dim:
            _fail(here, f"index {_clip(key)} out of range 1..{dim}")
        k = int(key)
        out[k - 1] = _parse_rational(raw, here)
    return out


def _parse_entries(
    obj: Any, dim: int, path: str, require_ordered: bool
) -> dict[tuple[int, int], dict[int, Fraction]]:
    if not isinstance(obj, list):
        _fail(path, "expected a list of entries")
    seen: set[tuple[int, int]] = set()
    out: dict[tuple[int, int], dict[int, Fraction]] = {}
    for pos, entry in enumerate(obj):
        here = f"{path}[{pos}]"
        if not isinstance(entry, dict):
            _fail(here, "expected an object with keys i, j, v")
        extra = set(entry) - _ENTRY_KEYS
        if extra:
            _fail(here, f"unknown keys {[_clip(k) for k in sorted(extra)]}")
        missing = _ENTRY_KEYS - set(entry)
        if missing:
            _fail(here, f"missing keys {sorted(missing)}")
        i = _parse_index(entry["i"], dim, f"{here}.i")
        j = _parse_index(entry["j"], dim, f"{here}.j")
        if require_ordered and not i < j:
            _fail(here, f"bracket entries need i < j, got i={i + 1}, j={j + 1}")
        if (i, j) in seen:
            _fail(here, f"duplicate entry for i={i + 1}, j={j + 1}")
        seen.add((i, j))
        out[(i, j)] = _parse_values(entry["v"], dim, f"{here}.v")
    return out


def parse_data(obj: Any, source: str = "input") -> tuple[LieAlgebra, Product | None]:
    """Build an algebra (and product, when present) from decoded JSON."""
    if not isinstance(obj, dict):
        _fail(source, "top level must be an object")
    extra = set(obj) - _TOP_KEYS
    if extra:
        _fail(source, f"unknown keys {[_clip(k) for k in sorted(extra)]}")
    if "dim" not in obj:
        _fail(source, "missing key 'dim'")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        _fail(f"{source}.dim", f"expected a positive integer, got {_show(dim)}")
    if dim > MAX_DIM:
        _fail(f"{source}.dim", f"dimension {_show(dim)} exceeds the supported maximum {MAX_DIM}")

    names = None
    if "basis" in obj:
        basis = obj["basis"]
        if (
            not isinstance(basis, list)
            or len(basis) != dim
            or not all(isinstance(s, str) and s for s in basis)
        ):
            _fail(f"{source}.basis", f"expected {dim} non-empty strings")
        names = tuple(basis)

    raw_brackets = obj.get("brackets", [])
    brackets = _parse_entries(raw_brackets, dim, f"{source}.brackets", require_ordered=True)
    algebra = LieAlgebra.from_brackets(dim, brackets, basis_names=names)

    product = None
    if "product" in obj:
        entries = _parse_entries(obj["product"], dim, f"{source}.product", require_ordered=False)
        product = Product.from_entries(dim, entries)
    return algebra, product


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {_clip(repr(key))}")
        obj[key] = value
    return obj


def parse_file(path: str) -> tuple[LieAlgebra, Product | None]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise FileFormatError(f"{path}: invalid JSON: nested too deeply") from None
    return parse_data(obj, source=path)


def _entry_list(b: Bilinear, ordered_only: bool) -> list[dict[str, Any]]:
    """The nonzero constants of b as file entries, by (i, j) and then k."""
    n, den = b.dim, b._den
    out = []
    for ij, w in enumerate(b._inz):
        i, j = divmod(ij, n)
        if w and not (ordered_only and i >= j):
            values = {str(k + 1): str(Fraction(c, den)) for k, c in w}
            out.append({"i": i + 1, "j": j + 1, "v": values})
    return out


def format_algebra(algebra: LieAlgebra, product: Product | None = None) -> str:
    obj: dict[str, Any] = {"dim": algebra.dim}
    if algebra.basis_names is not None:
        obj["basis"] = list(algebra.basis_names)
    obj["brackets"] = _entry_list(algebra, ordered_only=True)
    if product is not None:
        obj["product"] = _entry_list(product, ordered_only=False)
    return json.dumps(obj, indent=2) + "\n"


def emit_file(path: str, algebra: LieAlgebra, product: Product | None = None) -> None:
    """Write the canonical text to path atomically.

    The text goes to a new file next to path, which then replaces it; a
    failed write leaves path as it was and raises an OSError naming it.
    """
    text = format_algebra(algebra, product)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename is None:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None
