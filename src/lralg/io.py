"""Reading and writing algebra files.

The on-disk format is JSON with 1-based indices and rationals as
strings. Bracket entries are given only for i < j; product entries
carry no symmetry and may use any index pair. Emission is canonical:
entries sorted, rationals reduced, two-space indent, trailing newline,
so emitting what was parsed reproduces the bytes.

Files are read into and written from the integer store of
linalg.Bilinear (_inz over _den) with no Fraction in between: each
rational string becomes an integer (numerator, denominator) pair, and
Bilinear._from_sparse lifts the pairs to one common denominator.  The
text is written from the integers directly and equals what
json.dumps(obj, indent=2) gives for the file's object, plus a newline;
basis names are escaped by json.dumps itself.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from math import gcd

from .errors import FileFormatError
from .lie import LieAlgebra
from .linalg import Bilinear
from .lr import Product

# Both are used with fullmatch: "$" would also match before a trailing
# newline and let "1\n" through.
_RATIONAL = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")
_INDEX_KEY = re.compile(r"[1-9][0-9]*")

# Only nonzero constants are stored, so memory is not what limits dim:
# the checks that every command runs grow as dim**3 to dim**4 in time.
# A larger dim is rejected before anything is built.
MAX_DIM = 128

_TOP_KEYS = {"dim", "basis", "brackets", "product"}
_ENTRY_KEYS = {"i", "j", "v"}
_KEY_FORM = "keys must be positive integers written as strings"


def _fail(path: str, message: str) -> None:
    raise FileFormatError(f"{path}: {message}")


def _clip(text: str) -> str:
    """Input text for a diagnostic: text over 20 characters is cut to
    its first 10 and its length, so a huge key or value cannot flood
    stderr."""
    return text if len(text) <= 20 else f"{text[:10]}...({len(text)} chars)"


def _show(value: object) -> str:
    """repr of an input value for a diagnostic, clipped.

    Python refuses to print an int of more than 4300 digits, which a
    decoded object (not a parsed file) can hold.
    """
    try:
        return _clip(repr(value))
    except ValueError:
        return "a value too long to print"


def _parse_ratio(text: object, path: str, key: str | None = None, pos: int = 0) -> tuple[int, int]:
    """(numerator, denominator) of a rational string, as written: "2/4"
    gives (2, 4).  A diagnostic names path or, for the member key of the
    v object of entry pos of the list at path, path[pos].v.key, a name
    formed only for a diagnostic."""
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is not None:
        num, den = match.groups()
        try:
            return int(num), int(den) if den else 1
        except ValueError:
            message = f"rational with {len(text)} characters has too many digits"
    else:
        message = f"expected a rational string like '3' or '-1/2', got {_show(text)}"
    _fail(path if key is None else f"{path}[{pos}].v.{_clip(key)}", message)


def _parse_rational(text: object, path: str) -> Fraction:
    return Fraction(*_parse_ratio(text, path))


def _parse_index(value: object, dim: int, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {_show(value)}")
    if not 1 <= value <= dim:
        _fail(path, f"index {_show(value)} out of range 1..{dim}")
    return value - 1


def _parse_values(obj: object, dim: int, path: str, pos: int) -> dict[int, tuple[int, int]]:
    """The v object of entry pos of the list at path, whose path,
    path[pos].v, is formed only for a diagnostic."""
    if not isinstance(obj, dict):
        _fail(f"{path}[{pos}].v", "expected an object mapping indices to rationals")
    width = len(str(dim))
    out: dict[int, tuple[int, int]] = {}
    for key, raw in obj.items():
        if not isinstance(key, str):
            _fail(f"{path}[{pos}].v.{_show(key)}", _KEY_FORM)
        if not _INDEX_KEY.fullmatch(key):
            _fail(f"{path}[{pos}].v.{_clip(key)}", _KEY_FORM)
        # Compare lengths first: int() refuses very long digit strings.
        k = int(key) if len(key) <= width else 0
        if not 0 < k <= dim:
            _fail(f"{path}[{pos}].v.{_clip(key)}", f"index {_clip(key)} out of range 1..{dim}")
        out[k - 1] = _parse_ratio(raw, path, key, pos)
    return out


def _parse_entries(
    obj: object, dim: int, path: str, require_ordered: bool
) -> dict[tuple[int, int], dict[int, tuple[int, int]]]:
    """The entries of the list at path.  A well-formed entry costs no
    path string or key set; those are formed only for a diagnostic,
    which names the first failing check in the order below."""
    if not isinstance(obj, list):
        _fail(path, "expected a list of entries")
    out: dict[tuple[int, int], dict[int, tuple[int, int]]] = {}
    for pos, entry in enumerate(obj):
        if not isinstance(entry, dict) or entry.keys() != _ENTRY_KEYS:
            here = f"{path}[{pos}]"
            if not isinstance(entry, dict):
                _fail(here, "expected an object with keys i, j, v")
            extra = set(entry) - _ENTRY_KEYS
            if extra:
                _fail(here, f"unknown keys {[_clip(k) for k in sorted(extra)]}")
            _fail(here, f"missing keys {sorted(_ENTRY_KEYS - set(entry))}")
        i, j = entry["i"], entry["j"]
        if type(i) is int and type(j) is int and 0 < i <= dim and 0 < j <= dim:
            i, j = i - 1, j - 1
        else:
            i = _parse_index(i, dim, f"{path}[{pos}].i")
            j = _parse_index(j, dim, f"{path}[{pos}].j")
        if require_ordered and not i < j:
            _fail(f"{path}[{pos}]", f"bracket entries need i < j, got i={i + 1}, j={j + 1}")
        if (i, j) in out:
            _fail(f"{path}[{pos}]", f"duplicate entry for i={i + 1}, j={j + 1}")
        out[(i, j)] = _parse_values(entry["v"], dim, path, pos)
    return out


def parse_data(obj: object, source: str = "input") -> tuple[LieAlgebra, Product | None]:
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
    algebra = LieAlgebra._from_upper(dim, brackets, names)

    product = None
    if "product" in obj:
        entries = _parse_entries(obj["product"], dim, f"{source}.product", require_ordered=False)
        product = Product._from_sparse(dim, entries)
    return algebra, product


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    obj: dict[str, object] = {}
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


def _ratio_text(c: int, den: int) -> str:
    """c / den in lowest terms, as str(Fraction(c, den)) writes it."""
    g = gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


def _entries_text(b: Bilinear, ordered_only: bool) -> str:
    """The nonzero constants of b as the JSON list of file entries, by
    (i, j) and then k, laid out as json.dumps(..., indent=2) lays out
    the value of a top-level key."""
    n, den, inz = b.dim, b._den, b._inz
    entries = []
    for i in range(n):
        for j in range(i + 1 if ordered_only else 0, n):
            w = inz[i * n + j]
            if w:
                values = ",\n".join(f'        "{k + 1}": "{_ratio_text(c, den)}"' for k, c in w)
                entries.append(
                    f'    {{\n      "i": {i + 1},\n      "j": {j + 1},\n'
                    f'      "v": {{\n{values}\n      }}\n    }}'
                )
    return _list_text(entries)


def _list_text(items: list[str]) -> str:
    """A JSON list of items already laid out at depth 2, as indent=2
    writes it: "[]" when empty."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def format_algebra(algebra: LieAlgebra, product: Product | None = None) -> str:
    """The canonical text of a file, written from the integer constants:
    the bytes json.dumps(obj, indent=2) + "\n" gives for the file's
    object, with names escaped by json.dumps itself."""
    parts = [f'  "dim": {algebra.dim}']
    if algebra.basis_names is not None:
        names = [f"    {json.dumps(name)}" for name in algebra.basis_names]
        parts.append(f'  "basis": {_list_text(names)}')
    parts.append(f'  "brackets": {_entries_text(algebra, ordered_only=True)}')
    if product is not None:
        parts.append(f'  "product": {_entries_text(product, ordered_only=False)}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


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
