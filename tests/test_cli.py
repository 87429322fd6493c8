"""Command line behavior: outputs, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
import types

import pytest

import lralg
from lralg import cli, lr
from lralg.cli import main
from lralg.io import MAX_DIM, parse_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fixture_file(tmp_path, capsys):
    def write(name: str) -> str:
        out = tmp_path / f"{name}.json"
        assert main(["catalog", name, "-o", str(out)]) == 0
        capsys.readouterr()
        return str(out)

    return write


class TestValidate:
    def test_valid(self, capsys, fixture_file):
        path = fixture_file("heisenberg-half")
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert "valid: yes" in out

    def test_invalid(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 3,
                    "brackets": [
                        {"i": 1, "j": 2, "v": {"3": "1"}},
                        {"i": 1, "j": 3, "v": {"1": "1"}},
                    ],
                }
            )
        )
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "valid: no" in out
        assert "jacobi at (1, 2, 3)" in out

    def test_json_mirror(self, capsys, fixture_file):
        path = fixture_file("r2")
        code, out, _ = run(capsys, "validate", path, "--json")
        assert code == 0
        data = json.loads(out)
        assert data == {"dim": 2, "valid": True, "violations": []}


class TestAnalyze:
    def test_text(self, capsys, fixture_file):
        path = fixture_file("heisenberg")
        code, out, _ = run(capsys, "analyze", path)
        assert code == 0
        assert "lower central dims: 3, 1, 0" in out
        assert "nilpotent: yes" in out
        assert "solvable: yes (class 2)" in out

    def test_text_not_solvable(self, capsys, tmp_path):
        # so(3): [e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e2.
        path = tmp_path / "so3.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 3,
                    "brackets": [
                        {"i": 1, "j": 2, "v": {"3": "1"}},
                        {"i": 1, "j": 3, "v": {"2": "-1"}},
                        {"i": 2, "j": 3, "v": {"1": "1"}},
                    ],
                }
            )
        )
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert "derived dims: 3\n" in out
        assert "solvable: no\n" in out
        assert "two-step solvable: no" in out

    def test_json(self, capsys, fixture_file):
        path = fixture_file("r2")
        code, out, _ = run(capsys, "analyze", path, "--json")
        data = json.loads(out)
        assert data["g_infinity_dim"] == 1
        assert data["nilpotent"] is False
        assert data["two_step_solvable"] is True


class TestCheckLr:
    def test_positive(self, capsys, fixture_file):
        path = fixture_file("heisenberg-half")
        code, out, _ = run(capsys, "check-lr", path, "--require-complete")
        assert code == 0
        assert "complete: yes" in out

    def test_incomplete_fails_requirement(self, capsys, fixture_file):
        path = fixture_file("r2-twogen")
        code, out, _ = run(capsys, "check-lr", path)
        assert code == 0
        code, out, _ = run(capsys, "check-lr", path, "--require-complete")
        assert code == 1

    def test_violations_reported(self, capsys, fixture_file):
        path = fixture_file("r2-right-broken")
        code, out, _ = run(capsys, "check-lr", path)
        assert code == 1
        assert "lr: no" in out
        assert "(xy)z = (xz)y at (1, 2, 2)" in out

    def test_missing_product(self, capsys, fixture_file):
        path = fixture_file("r2")
        code, _, err = run(capsys, "check-lr", path)
        assert code == 2
        assert "missing 'product'" in err

    def test_json(self, capsys, fixture_file):
        path = fixture_file("heisenberg-fullbracket")
        code, out, _ = run(capsys, "check-lr", path, "--json")
        assert code == 1
        data = json.loads(out)
        assert data["lr"] is True and data["compatible"] is False
        assert data["violations"][0]["identity"] == "xy - yx = [x,y]"
        assert data["violations"][0]["indices"] == [1, 2]


class TestComplete:
    def test_r2(self, capsys, fixture_file, tmp_path):
        path = fixture_file("r2-twogen")
        out_path = tmp_path / "done.json"
        code, out, _ = run(capsys, "complete", path, "-o", str(out_path))
        assert code == 0
        assert "g-infinity dim: 1" in out
        assert "containment: yes" in out
        _, p = parse_file(str(out_path))
        assert p.table[0][1][1] == 1

    def test_nilpotent_degenerate_split(self, capsys, fixture_file, tmp_path):
        path = fixture_file("abelian2-idempotent-line")
        out_path = tmp_path / "done.json"
        code, out, _ = run(capsys, "complete", path, "-o", str(out_path))
        assert code == 0
        assert "g-infinity dim: 0" in out
        assert "changed: yes" in out

    def test_already_complete_unchanged(self, capsys, fixture_file, tmp_path):
        path = fixture_file("heisenberg-half")
        out_path = tmp_path / "same.json"
        code, out, _ = run(capsys, "complete", path, "-o", str(out_path))
        assert code == 0
        assert "changed: no" in out

    def test_non_lr_input(self, capsys, fixture_file, tmp_path):
        path = fixture_file("heisenberg-fullbracket")
        code, _, err = run(capsys, "complete", path, "-o", str(tmp_path / "x.json"))
        assert code == 1
        assert "not an LR-structure" in err

    def test_json(self, capsys, fixture_file, tmp_path):
        path = fixture_file("diag11-twogen")
        out_path = tmp_path / "d.json"
        code, out, _ = run(capsys, "complete", path, "-o", str(out_path), "--json")
        data = json.loads(out)
        assert data["g_infinity_dim"] == 2
        assert data["containment"] is True
        assert data["output"] == str(out_path)


class TestTwoGen:
    def test_r2(self, capsys, fixture_file, tmp_path):
        path = fixture_file("r2")
        out_path = tmp_path / "tg.json"
        code, out, _ = run(
            capsys, "two-gen", path, "--x", "1,0", "--y", "0,1", "-o", str(out_path)
        )
        assert code == 0
        assert "complete: no" in out
        _, p = parse_file(str(out_path))
        assert p.table[1][0][1] == -1

    def test_complete_flag(self, capsys, fixture_file, tmp_path):
        path = fixture_file("r2")
        out_path = tmp_path / "tgc.json"
        code, out, _ = run(
            capsys,
            "two-gen", path, "--x", "1,0", "--y", "0,1",
            "-o", str(out_path), "--complete",
        )
        assert code == 0
        assert "completion applied: yes" in out
        _, p = parse_file(str(out_path))
        assert p.table[0][1][1] == 1

    def test_json(self, capsys, fixture_file, tmp_path):
        path = fixture_file("r2")
        out_path = str(tmp_path / "tgj.json")
        code, out, _ = run(
            capsys,
            "two-gen", path, "--x", "1,0", "--y", "0,1",
            "-o", out_path, "--complete", "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "dim": 2, "complete": False, "completion_applied": True, "output": out_path,
        }

    def test_fractional_generators(self, capsys, fixture_file, tmp_path):
        path = fixture_file("r2")
        code, out, _ = run(
            capsys,
            "two-gen", path, "--x", "1/2,0", "--y", "0,-2/3",
            "-o", str(tmp_path / "f.json"),
        )
        assert code == 0

    def test_not_generating(self, capsys, fixture_file, tmp_path):
        path = fixture_file("heisenberg")
        code, _, err = run(
            capsys,
            "two-gen", path, "--x", "1,0,0", "--y", "0,0,1",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "generate" in err

    def test_bad_vector_length(self, capsys, fixture_file, tmp_path):
        path = fixture_file("r2")
        code, _, err = run(
            capsys,
            "two-gen", path, "--x", "1", "--y", "0,1",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "--x" in err

    # Coordinates follow the file grammar: no exponents, decimals or
    # underscores, and no numerator past Python's digit limit.
    @pytest.mark.parametrize(
        "coord", ["oops", "1e5", "0.5", "1_0", "7" * 5000],
        ids=["word", "exponent", "decimal", "underscore", "5000-digits"],
    )
    def test_bad_rational(self, capsys, fixture_file, tmp_path, coord):
        path = fixture_file("r2")
        code, _, err = run(
            capsys,
            "two-gen", path, "--x", f"1,{coord}", "--y", "0,1",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "--x" in err
        assert len(err.encode()) < 300


class TestCatalog:
    def test_fixture_with_product(self, capsys, tmp_path):
        out_path = tmp_path / "hh.json"
        code, out, _ = run(capsys, "catalog", "heisenberg-half", "-o", str(out_path))
        assert code == 0
        assert "product: yes" in out
        g, p = parse_file(str(out_path))
        assert g.dim == 3 and p is not None

    def test_family_with_param(self, capsys, tmp_path):
        out_path = tmp_path / "f6.json"
        code, out, _ = run(capsys, "catalog", "filiform", "6", "-o", str(out_path))
        assert code == 0
        assert "product: no" in out
        g, p = parse_file(str(out_path))
        assert g.dim == 6 and p is None

    def test_diag_weights(self, capsys, tmp_path):
        out_path = tmp_path / "d.json"
        code, _, _ = run(capsys, "catalog", "diag-solvable", "1,1/2", "-o", str(out_path))
        assert code == 0
        g, _ = parse_file(str(out_path))
        assert g.basis_names == ("x", "y1", "y2")

    def test_json(self, capsys, tmp_path):
        out_path = str(tmp_path / "hj.json")
        code, out, _ = run(capsys, "catalog", "heisenberg", "--json", "-o", out_path)
        assert code == 0
        assert json.loads(out) == {
            "name": "heisenberg", "dim": 3, "has_product": False, "output": out_path,
        }

    def test_unknown_name(self, capsys, tmp_path):
        code, _, err = run(capsys, "catalog", "nonsense", "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert "unknown name" in err

    def test_param_on_fixture(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "catalog", "r2-twogen", "7", "-o", str(tmp_path / "x.json")
        )
        assert code == 2

    def test_bad_param(self, capsys, tmp_path):
        code, _, err = run(capsys, "catalog", "filiform", "x", "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert "integer" in err

    @pytest.mark.parametrize(
        "name, param",
        [
            ("abelian", str(MAX_DIM + 1)),
            ("filiform", str(MAX_DIM + 1)),
            ("free-two-step", "16"),  # dimension 16 + 120
            ("diag-solvable", ",".join(["1"] * MAX_DIM)),
            ("diag-solvable", "1e5,1"),
            ("diag-solvable", "0.5,1"),
            ("diag-solvable", "1_0,1"),
            ("abelian", "1_0"),
            ("abelian", "+5"),
            ("abelian", " 5"),
            ("abelian", "\u0663"),  # ARABIC-INDIC DIGIT THREE
        ],
        ids=["abelian", "filiform", "free-two-step", "diag-dim", "exponent", "decimal", "underscore",
             "int-underscore", "int-plus", "int-space", "int-non-ascii-digit"],
    )
    def test_param_outside_file_format(self, capsys, tmp_path, name, param):
        # Every file catalog writes must be one the other commands read:
        # dim at most MAX_DIM, integers in ASCII digits, weights in the
        # rational grammar.
        out_path = tmp_path / "x.json"
        code, _, err = run(capsys, "catalog", name, param, "-o", str(out_path))
        assert code == 2
        assert len(err.encode()) < 300
        assert not out_path.exists()

    def test_largest_dimension_is_written(self, capsys, tmp_path):
        out_path = tmp_path / "a.json"
        code, _, _ = run(capsys, "catalog", "abelian", str(MAX_DIM), "-o", str(out_path))
        assert code == 0
        assert parse_file(str(out_path))[0].dim == MAX_DIM


class TestLemma14:
    def test_holds(self, capsys, fixture_file):
        path = fixture_file("free2step3-half")
        code, out, _ = run(capsys, "lemma14", path, "--samples", "10", "--seed", "3")
        assert code == 0
        assert "holds: yes" in out

    def test_fails_on_non_lr(self, capsys, fixture_file):
        path = fixture_file("r2-left-broken")
        code, out, _ = run(capsys, "lemma14", path)
        assert code == 1
        assert "holds: no" in out

    def test_json(self, capsys, fixture_file):
        path = fixture_file("heisenberg-half")
        code, out, _ = run(capsys, "lemma14", path, "--json", "--samples", "5")
        data = json.loads(out)
        assert data["holds"] is True
        assert data["samples"] == 5

    @pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
    def test_negative_samples_exit_2(self, capsys, tmp_path, valid):
        # A bad parameter is reported before the algebra is validated.
        brackets = [{"i": 1, "j": 2, "v": {"3": "1"}}]
        if not valid:
            brackets.append({"i": 1, "j": 3, "v": {"1": "1"}})  # breaks Jacobi
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"dim": 3, "brackets": brackets, "product": []}))
        code, out, err = run(capsys, "lemma14", str(path), "--samples", "-1")
        assert (code, out, err) == (2, "", "error: --samples: must be non-negative\n")

    def test_samples_are_drawn_as_they_are_checked(self, capsys, monkeypatch, fixture_file):
        """The triples reach check_lemma14 one at a time: when it takes
        the first one, only that triple's 3 * dim draws have been made,
        whatever --samples asks for."""
        path = fixture_file("heisenberg-half")
        draws = []

        class Counted(random.Random):
            def randint(self, a, b):
                draws.append(None)
                return super().randint(a, b)

        monkeypatch.setattr(lr, "random", types.SimpleNamespace(Random=Counted))
        seen = []

        def first_only(p, samples):
            next(iter(samples))
            seen.append(len(draws))
            return []

        monkeypatch.setattr(cli, "check_lemma14", first_only)
        code, _, _ = run(capsys, "lemma14", path, "--samples", "1000")
        assert code == 0
        assert seen and seen[0] <= 3 * parse_file(path)[0].dim


class TestContract:
    def test_file_errors_are_code_2(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.json")
        assert code == 2
        assert "no-such-file.json" in err

    def test_malformed_json_is_code_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"dim": 2, "dim": 3}',
            b"[" * 100_000 + b"]" * 100_000,
            b'{"dim": 1, "basis": ["\xff"]}',
            b'{"dim": %d}' % (MAX_DIM + 1),
            b'{"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"1\\n": "1"}}]}',
            b'{"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": "3\\n"}}]}',
            pytest.param(
                b'{"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"' + b"1" * 5000 + b'": "1"}}]}',
                id="5000-digit-key",
            ),
            pytest.param(
                b'{"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": "' + b"1" * 5000 + b'"}}]}',
                id="5000-digit-rational",
            ),
        ],
    )
    def test_unusable_bytes_are_code_2(self, capsys, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(
                b'{"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"' + b"1" * 5000 + b'": "1"}}]}',
                id="5000-digit-key",
            ),
            pytest.param(
                b'{"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"' + b"x" * 5000 + b'": "1"}}]}',
                id="5000-letter-key",
            ),
            pytest.param(b'{"dim": 2, "' + b"x" * 5000 + b'": 1}', id="5000-letter-unknown-key"),
            pytest.param(
                b'{"dim": 2, "' + b"x" * 5000 + b'": 1, "' + b"x" * 5000 + b'": 1}',
                id="5000-letter-duplicate-key",
            ),
            pytest.param(
                b'{"dim": 2, "brackets": [{"i": 1, "j": 2, "v": {"2": "' + b"1" * 5000 + b'x"}}]}',
                id="5000-character-value",
            ),
        ],
    )
    def test_long_input_gives_short_diagnostic(self, capsys, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert len(err.encode()) < 300

    def test_write_errors_name_the_output(self, capsys, fixture_file, tmp_path):
        """A failed write names the output path, not the randomly named
        file written first, so a rerun prints the same bytes, and it
        leaves no file behind."""
        path = fixture_file("r2-twogen")
        missing = str(tmp_path / "missing" / "out.json")
        first, second = (run(capsys, "complete", path, "-o", missing) for _ in range(2))
        assert first == second
        code, out, err = first
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno ") and err.endswith(f": {missing!r}\n")

        target = tmp_path / "d"
        target.mkdir()
        code, _, err = run(capsys, "catalog", "r2", "-o", str(target))
        assert code == 2
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(target)!r}\n")
        assert os.listdir(target) == []
        assert sorted(os.listdir(tmp_path)) == ["d", "r2-twogen.json"]

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("validate",),
            ("complete", "x.json"),
            ("two-gen", "x.json", "--x", "1,0"),
        ],
    )
    def test_missing_required_args_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, capsys, fixture_file):
        path = fixture_file("filiform12-shift")
        first = run(capsys, "check-lr", path, "--json")
        second = run(capsys, "check-lr", path, "--json")
        assert first == second

    def test_reused_parser_matches_fresh_processes(self, capsys, fixture_file):
        """main builds its parser once per process; calls with other
        subcommands and flags after the first print what a fresh process
        prints."""
        path = fixture_file("filiform12-shift")
        root = os.path.dirname(os.path.dirname(lralg.__file__))
        runs = [
            ("check-lr", path, "--require-complete", "--json"),
            ("analyze", path),
            ("lemma14", path, "--samples", "2", "--seed", "3"),
            ("check-lr", path),
        ]
        for argv in runs:
            code, out, err = run(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "lralg", *argv],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=root),
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert cli._build_parser() is cli._build_parser()

    def test_entry_point_subprocess(self, tmp_path):
        root = os.path.dirname(os.path.dirname(lralg.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "lralg", "--version"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=root),
        )
        assert out.returncode == 0
        assert out.stdout.startswith("lralg ")

    def test_round_trip_every_fixture_through_cli(self, capsys, tmp_path):
        from lralg.catalog import known_lr_names

        for name in known_lr_names():
            a = tmp_path / f"{name}-a.json"
            b = tmp_path / f"{name}-b.json"
            assert main(["catalog", name, "-o", str(a)]) == 0
            g, p = parse_file(str(a))
            from lralg.io import emit_file

            emit_file(str(b), g, p)
            assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()
