"""The JSON exchange format: parsing, emission, canonical round-trips,
and diagnostics that name the offending field."""

import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lralg.catalog import known_lr, known_lr_names
from lralg.errors import FileFormatError
from lralg.io import MAX_DIM, emit_file, format_algebra, parse_data, parse_file
from lralg.lie import LieAlgebra
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
    st.sampled_from(["1", "2", "3", "1", "2", "3", "0", "01", "1\n", "1" * 5000]),
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
