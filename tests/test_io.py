"""The JSON exchange format: parsing, emission, canonical round-trips,
and diagnostics that name the offending field.

The parser and the emitter run on the integer constants; the Fraction
routes they replaced are kept here as oracles: the dict-building
formatter under json.dumps(indent=2) for the text, and Fraction(text)
fed to the library builders for the parsed constants.
"""

import fractions
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lralg.catalog import (
    abelian,
    diag_solvable,
    filiform,
    free_two_step,
    heisenberg,
    known_lr,
    known_lr_names,
    r2,
)
from lralg.construct import two_generator_lr
from lralg.errors import FileFormatError
from lralg.io import (
    MAX_DIM,
    _parse_entries,
    _parse_rational,
    emit_file,
    format_algebra,
    parse_data,
    parse_file,
)
from lralg.lie import LieAlgebra
from lralg.linalg import Matrix, standard_basis
from lralg.lr import Product


class TestParse:
    def test_minimal(self):
        g, p = parse_data({"dim": 2})
        assert g.dim == 2
        assert p is None
        assert g.basis_names is None

    def test_brackets_one_based(self):
        g, _ = parse_data(
            {"dim": 3, "brackets": [{"i": 1, "j": 2, "v": {"3": "1"}}]}
        )
        assert g.brackets[0][1][2] == 1
        assert g.brackets[1][0][2] == -1

    def test_basis_names(self):
        g, _ = parse_data({"dim": 2, "basis": ["a", "b"]})
        assert g.basis_names == ("a", "b")

    def test_product_any_pair(self):
        _, p = parse_data(
            {
                "dim": 2,
                "product": [
                    {"i": 2, "j": 1, "v": {"2": "-1"}},
                    {"i": 1, "j": 1, "v": {"1": "1/3"}},
                ],
            }
        )
        assert p.table[1][0][1] == -1
        assert p.table[0][0][0] == Fraction(1, 3)

    def test_unreduced_rationals_accepted(self):
        g, _ = parse_data({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": "2/4"}}]})
        assert g.brackets[0][1][1] == Fraction(1, 2)


class TestParseErrors:
    @pytest.mark.parametrize(
        "obj,fragment",
        [
            ({}, "missing key 'dim'"),
            ({"dim": 0}, "positive integer"),
            ({"dim": True}, "positive integer"),
            ({"dim": 2, "extra": 1}, "unknown keys"),
            ({"dim": 2, "basis": ["a"]}, "non-empty strings"),
            ({"dim": 2, "basis": ["a", ""]}, "non-empty strings"),
            ({"dim": 2, "brackets": {"a": 1}}, "list of entries"),
            ({"dim": 2, "brackets": [[]]}, "object with keys"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2}]}, "missing keys"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {}, "w": 1}]}, "unknown keys"),
            ({"dim": 2, "brackets": [{"i": 2, "j": 1, "v": {}}]}, "i < j"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 1, "v": {}}]}, "i < j"),
            ({"dim": 2, "brackets": [{"i": 0, "j": 2, "v": {}}]}, "out of range"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 3, "v": {}}]}, "out of range"),
            ({"dim": 2, "brackets": [{"i": 1, "j": "2", "v": {}}]}, "expected an integer"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": []}]}, "object mapping"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"0": "1"}}]}, "positive integers"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"3": "1"}}]}, "out of range"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": "1.5"}}]}, "rational"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": 1}}]}, "rational"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": "1/0"}}]}, "rational"),
            (
                {
                    "dim": 2,
                    "brackets": [
                        {"i": 1, "j": 2, "v": {"2": "1"}},
                        {"i": 1, "j": 2, "v": {"2": "2"}},
                    ],
                },
                "duplicate",
            ),
            (
                {"dim": 2, "product": [{"i": 1, "j": 1, "v": {}}, {"i": 1, "j": 1, "v": {}}]},
                "duplicate",
            ),
            (17, "top level"),
            ({"dim": MAX_DIM + 1}, "supported maximum"),
            ({"dim": 10**5000}, "supported maximum"),
            ({"dim": [-(10**5000)]}, "positive integer"),
            ({"dim": 2, "brackets": [{"i": 10**5000, "j": 2, "v": {}}]}, "out of range"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": [10**5000]}}]}, "rational"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"1\n": "1"}}]}, "positive integers"),
            (
                {"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"1": "1", "1\n": "5"}}]},
                "positive integers",
            ),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": "3\n"}}]}, "rational"),
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"1" * 5000: "1"}}]}, "out of range"),
            (
                {"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": "1" * 5000}}]},
                "too many digits",
            ),
            (
                {"dim": 2, "product": [{"i": 1, "j": 2, "v": {"2": "1/" + "1" * 5000}}]},
                "too many digits",
            ),
        ],
    )
    def test_diagnostics(self, obj, fragment):
        with pytest.raises(FileFormatError) as err:
            parse_data(obj, "src")
        assert fragment in str(err.value)
        assert "src" in str(err.value)

    @pytest.mark.parametrize(
        "key,shown", [(1, "1"), (None, "None"), (10**30, "1000000000...(31 chars)")]
    )
    def test_non_string_value_key(self, key, shown):
        with pytest.raises(FileFormatError) as err:
            parse_data({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {key: "1"}}]}, "src")
        assert str(err.value) == (
            f"src.brackets[0].v.{shown}: keys must be positive integers written as strings"
        )

    def test_error_names_the_path(self):
        with pytest.raises(FileFormatError) as err:
            parse_data(
                {"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"1": "x"}}]},
                "input.json",
            )
        assert "input.json.brackets[0].v.1" in str(err.value)


# Objects shaped almost like a valid file, with arbitrary JSON-like
# values in some fields.  Dims, keys and rationals are drawn from lists
# where valid values outnumber invalid ones, so that parsing often gets
# as far as the components.  Ints past Python's 4300-digit limit are in
# test_diagnostics only: hypothesis cannot print them.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_near_values = st.dictionaries(
    st.sampled_from(["1", "2", "3", "1", "2", "3", "0", "01", "1\n", "1" * 5000])
    | st.integers()
    | st.none()
    | st.tuples(st.integers()),
    st.sampled_from(["1", "-1/2", "2/4", "1/0", "3\n", "1.5", "1" * 5000, "1/" + "1" * 5000])
    | _json,
    max_size=3,
)


def _near_entries(pairs):
    entry = st.builds(lambda ij, v: {"i": ij[0], "j": ij[1], "v": v}, pairs, _near_values)
    return st.lists(entry, max_size=3)


_near_file = st.fixed_dictionaries(
    {"dim": st.sampled_from([0, MAX_DIM + 1, True, "3", 1, 2, 3, 3, 3, 3, 3, 3])},
    optional={
        "brackets": _near_entries(st.sampled_from([(1, 2), (1, 3), (2, 3), (2, 1)])),
        "product": _near_entries(st.tuples(st.integers(1, 3), st.integers(1, 3))) | _json,
    },
)


@settings(max_examples=300, deadline=None)
@given(_near_file)
def test_parse_data_raises_only_file_format_errors(obj):
    try:
        parse_data(obj, "fuzz")
    except FileFormatError:
        pass


class TestEmit:
    def test_canonical_shape(self):
        g = LieAlgebra.from_brackets(2, {(0, 1): {1: 1}}, basis_names=("x", "y"))
        text = format_algebra(g)
        obj = json.loads(text)
        assert list(obj) == ["dim", "basis", "brackets"]
        assert obj["brackets"] == [{"i": 1, "j": 2, "v": {"2": "1"}}]
        assert text.endswith("\n")

    def test_zero_entries_dropped(self):
        p = Product.from_entries(2, {(0, 1): {0: 0, 1: 1}})
        g = LieAlgebra.from_brackets(2, {})
        obj = json.loads(format_algebra(g, p))
        assert obj["product"] == [{"i": 1, "j": 2, "v": {"2": "1"}}]

    def test_no_basis_key_without_names(self):
        g = LieAlgebra.from_brackets(2, {})
        assert "basis" not in json.loads(format_algebra(g))

    def test_rationals_reduced_on_emit(self):
        g, _ = parse_data({"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": "2/4"}}]})
        assert '"1/2"' in format_algebra(g)


class TestRoundTrip:
    @pytest.mark.parametrize("name", known_lr_names())
    def test_fixture_bytes(self, name):
        g, p = known_lr(name)
        text = format_algebra(g, p)
        g2, p2 = parse_data(json.loads(text))
        assert (g2, p2) == (g, p)
        assert format_algebra(g2, p2) == text

    def test_through_files(self, tmp_path):
        g, p = known_lr("free2step3-half")
        path = tmp_path / "a.json"
        emit_file(str(path), g, p)
        g2, p2 = parse_file(str(path))
        assert (g2, p2) == (g, p)
        emit_file(str(tmp_path / "b.json"), g2, p2)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_algebra_only(self, tmp_path):
        g, _ = known_lr("r2-completed")
        path = tmp_path / "g.json"
        emit_file(str(path), g)
        g2, p2 = parse_file(str(path))
        assert g2 == g and p2 is None


class TestEmitFile:
    def test_replaces_existing_file(self, tmp_path):
        g, p = known_lr("r2-completed")
        path = tmp_path / "out.json"
        path.write_bytes(b"old")
        emit_file(str(path), g, p)
        assert path.read_text(encoding="utf-8") == format_algebra(g, p)
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_write_keeps_target(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        g, p = known_lr("r2-completed")
        path = tmp_path / "out.json"
        path.write_bytes(b"old")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            emit_file(str(path), g, p)
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_open_keeps_the_error_type(self, tmp_path):
        g, p = known_lr("r2-completed")
        path = str(tmp_path / "missing" / "out.json")
        with pytest.raises(FileNotFoundError) as err:
            emit_file(path, g, p)
        assert (err.value.filename, err.value.filename2) == (path, None)
        assert os.listdir(tmp_path) == []


class TestParseFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError) as err:
            parse_file(str(tmp_path / "absent.json"))
        assert "absent.json" in str(err.value)

    def test_invalid_json_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2,\n  "oops"\n}')
        with pytest.raises(FileFormatError) as err:
            parse_file(str(path))
        assert "line" in str(err.value) and "column" in str(err.value)

    @pytest.mark.parametrize(
        "raw,fragment",
        [
            (b'{"dim": 2, "dim": 3}', "duplicate key 'dim'"),
            (b'{"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": "1", "2": "3"}}]}',
             "duplicate key '2'"),
            (b'{"dim": 2, "brackets": [{"i": 1, "i": 1, "j": 2, "v": {}}]}', "duplicate key 'i'"),
            (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
            (b'{"a": ' * 100_000 + b"1" + b"}" * 100_000, "nested too deeply"),
            (b'{"dim": 2, "basis": ["\xff", "b"]}', "not UTF-8"),
            (b'{"dim": ' + b"1" * 5000 + b"}", "invalid JSON"),
        ],
    )
    def test_rejected_bytes(self, tmp_path, raw, fragment):
        path = tmp_path / "in.json"
        path.write_bytes(raw)
        with pytest.raises(FileFormatError) as err:
            parse_file(str(path))
        assert fragment in str(err.value)
        assert str(path) in str(err.value)

    def test_happy_path(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"dim": 1}')
        g, p = parse_file(str(path))
        assert g.dim == 1 and p is None


def oracle_format(algebra, product=None):
    """format_algebra as first written: the file object built as dicts
    of str(Fraction) values and laid out by json.dumps(indent=2)."""

    def entry_list(b, ordered_only):
        n, den = b.dim, b._den
        out = []
        for ij, w in enumerate(b._inz):
            i, j = divmod(ij, n)
            if w and not (ordered_only and i >= j):
                values = {str(k + 1): str(Fraction(c, den)) for k, c in w}
                out.append({"i": i + 1, "j": j + 1, "v": values})
        return out

    obj = {"dim": algebra.dim}
    if algebra.basis_names is not None:
        obj["basis"] = list(algebra.basis_names)
    obj["brackets"] = entry_list(algebra, True)
    if product is not None:
        obj["product"] = entry_list(product, False)
    return json.dumps(obj, indent=2) + "\n"


def in_random_basis(b, rng):
    """The constants of b in the basis b_i = sum_a m[a][i] e_a, for a
    random unit upper triangular rational m, as a dense Fraction tensor."""
    n = b.dim
    m = [
        [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))) if a < i else Fraction(a == i)
         for i in range(n)]
        for a in range(n)
    ]
    minv = Matrix(m).inverse().row_list()
    t = b.tensor
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for c in range(n):
            v = t[a][c]
            if not any(v):
                continue
            w = [sum(minv[k][l] * v[l] for l in range(n)) for k in range(n)]
            for i in range(a, n):
                for j in range(c, n):
                    s = m[a][i] * m[c][j]
                    if s:
                        out[i][j] = [x + s * y for x, y in zip(out[i][j], w)]
    return out


def _recipe(n, lam):
    """g = <e0, e1> + V with [e1, v] = J v for the Jordan block J of lam
    on V, and the product (a + v)(b + w) = ab + phi(a) w with e0 e0 = e0."""
    brackets = {(1, i): {i: lam, **({i - 1: 1} if i > 2 else {})} for i in range(2, n)}
    table = {(0, 0): {0: 1}, **brackets}
    return LieAlgebra.from_brackets(n, brackets), Product.from_entries(n, table)


def _emit_cases():
    rng = random.Random(20)
    families = [
        LieAlgebra.from_brackets(0, {}),
        abelian(1),
        abelian(3),
        heisenberg(),
        r2(),
        filiform(3),
        filiform(9),
        diag_solvable([1, Fraction(-2, 3), 5]),
        free_two_step(3),
    ]
    cases = []
    for g in families:
        cases += [(g, None), (g, Product.zero(g.dim))]
        if g.dim:
            cases.append((g, Product._from_int(g.dim, g._inz, 6 * g._den)))
    cases += [known_lr(name) for name in known_lr_names()]
    for n, lam in [(3, 2), (5, Fraction(-1, 2)), (6, 3)]:
        g, p = _recipe(n, lam)
        g, p = LieAlgebra(in_random_basis(g, rng)), Product(in_random_basis(p, rng))
        cases += [(g, None), (g, p)]
    g, p = known_lr("free2step3-half")
    cases.append((LieAlgebra(in_random_basis(g, rng)), Product(in_random_basis(p, rng))))
    names = ['a"b', "back\\slash", "ctl\x01", "caf\u00e9", "\u2603", "tab\there", "\ud800"]
    named = LieAlgebra._from_int(7, filiform(7)._inz, 1, names)
    cases += [(named, None), (named, Product.zero(7))]
    return cases


@pytest.mark.parametrize("g,p", _emit_cases())
def test_emit_matches_json_dumps_oracle(g, p):
    text = format_algebra(g, p)
    assert text == oracle_format(g, p)
    if g.dim:  # files need dim >= 1
        assert parse_data(json.loads(text)) == (g, p)


RATIONALS = [
    "0", "-0", "0/7", "1", "-1", "2/4", "-3/6", "5/1", "7/12", "-11/35",
    str(2**64 + 1), f"-{3**40}/{2**70}", f"1/{2**61 - 1}", f"{10**30}/{7**20}",
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_matches_fraction_oracle(data):
    """The parsed constants equal those of Fraction(text) given to
    from_brackets and from_entries, and to the dense constructors:
    "2/4" stores as 1/2, "-0" and "0/7" as no constant, and mixed large
    denominators are lifted to the same canonical form."""
    dim = data.draw(st.integers(1, 4))
    values = st.dictionaries(st.integers(1, dim).map(str), st.sampled_from(RATIONALS), max_size=3)
    upper = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    brackets = data.draw(st.dictionaries(st.sampled_from(upper), values)) if upper else {}
    anywhere = st.tuples(st.integers(1, dim), st.integers(1, dim))
    table = data.draw(st.dictionaries(anywhere, values))
    obj = {
        "dim": dim,
        "brackets": [{"i": i, "j": j, "v": v} for (i, j), v in brackets.items()],
        "product": [{"i": i, "j": j, "v": v} for (i, j), v in table.items()],
    }

    def fractions_of(entries):
        return {
            (i - 1, j - 1): {int(k) - 1: Fraction(x) for k, x in v.items()}
            for (i, j), v in entries.items()
        }

    def dense(sparse):
        t = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), v in sparse.items():
            for k, x in v.items():
                t[i][j][k] = x
        return t

    fb, fp = fractions_of(brackets), fractions_of(table)
    full = {**fb, **{(j, i): {k: -x for k, x in v.items()} for (i, j), v in fb.items()}}
    g, p = parse_data(obj)
    for expected_g, expected_p in [
        (LieAlgebra.from_brackets(dim, fb), Product.from_entries(dim, fp)),
        (LieAlgebra(dense(full)), Product(dense(fp))),
    ]:
        assert (g, p) == (expected_g, expected_p)
        assert (g._content, p._content) == (expected_g._content, expected_p._content)


@pytest.mark.parametrize("text", ["-" + "1" * 5000, "3/" + "1" * 5000, "1" * 4301 + "/2"])
def test_too_many_digits_names_the_length(text):
    with pytest.raises(ValueError):
        Fraction(text)
    obj = {"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": text}}]}
    with pytest.raises(FileFormatError) as err:
        parse_data(obj, "src")
    assert str(err.value) == (
        f"src.brackets[0].v.2: rational with {len(text)} characters has too many digits"
    )


def test_parse_rational_gives_fractions():
    assert _parse_rational("2/4", "x") == Fraction(1, 2)
    assert type(_parse_rational("-0", "x")) is Fraction
    with pytest.raises(FileFormatError, match="flag: expected a rational string"):
        _parse_rational("1.5", "flag")


def test_file_round_trip_builds_no_fraction(tmp_path, monkeypatch):
    """parse_file and emit_file run on the integer constants alone: a
    round trip of filiform(12) and its two-generator product after a
    rational change of basis constructs no Fraction."""
    rng = random.Random(12)
    g = filiform(12)
    e = standard_basis(12)
    p = two_generator_lr(g, e[0], e[1])
    g, p = LieAlgebra(in_random_basis(g, rng)), Product(in_random_basis(p, rng))
    assert g._den > 1 and p._den > 1
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(oracle_format(g, p), encoding="utf-8")
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    Fraction(1)
    assert len(made) == 1
    made.clear()
    g2, p2 = parse_file(str(src))
    emit_file(str(out), g2, p2)
    assert made == []
    monkeypatch.undo()
    assert (g2, p2) == (g, p)
    assert out.read_bytes() == src.read_bytes()


class CountedPath(str):
    """A path whose every formatting into a diagnostic path is counted."""

    formatted = 0

    def __format__(self, spec):
        CountedPath.formatted += 1
        return super().__format__(spec)


def test_entries_form_paths_only_for_a_diagnostic():
    """Parsing well-formed entries formats no path; the first failing
    check of a bad entry names its path as before."""
    g, p = known_lr("filiform12-shift")
    entries = json.loads(format_algebra(g, p))["product"]
    CountedPath.formatted = 0
    assert len(_parse_entries(entries, g.dim, CountedPath("input.product"), False)) == len(entries)
    assert CountedPath.formatted == 0
    bad = entries[:3] + [dict(entries[3], i=True)]
    with pytest.raises(FileFormatError, match=r"^input\.product\[3\]\.i: expected an integer"):
        _parse_entries(bad, g.dim, CountedPath("input.product"), False)
    assert CountedPath.formatted == 1
