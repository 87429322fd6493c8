"""Named algebras and product fixtures used by tests and the CLI.

Fixture tables are written out literally so they stay independent of
the constructors they exercise; expected flags are recorded next to
each fixture and say exactly which checks should pass or fail.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import FileFormatError, PreconditionError, UnknownFixtureError
from .io import MAX_DIM, _parse_rational, _show
from .lie import LieAlgebra
from .lr import COMPATIBILITY, LR_LEFT, LR_RIGHT, Product
from .linalg import to_fraction


def abelian(n: int) -> LieAlgebra:
    if n < 1:
        raise PreconditionError("dimension must be at least 1")
    return LieAlgebra.from_brackets(n, {})


def heisenberg() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})


def filiform(n: int) -> LieAlgebra:
    """[e1, e_i] = e_{i+1} for 2 <= i <= n-1, everything else zero."""
    if n < 3:
        raise PreconditionError("filiform algebras here start at dimension 3")
    return LieAlgebra.from_brackets(n, {(0, j): {j + 1: 1} for j in range(1, n - 1)})


def r2() -> LieAlgebra:
    """The two-dimensional algebra [x, y] = y."""
    return LieAlgebra.from_brackets(2, {(0, 1): {1: 1}}, basis_names=("x", "y"))


def diag_solvable(weights) -> LieAlgebra:
    """[x, y_i] = w_i y_i with one y per weight."""
    ws = [to_fraction(w) for w in weights]
    if not ws:
        raise PreconditionError("at least one weight required")
    names = ("x",) + tuple(f"y{i + 1}" for i in range(len(ws)))
    return LieAlgebra.from_brackets(
        len(ws) + 1, {(0, i + 1): {i + 1: w} for i, w in enumerate(ws)}, basis_names=names
    )


def free_two_step(gens: int) -> LieAlgebra:
    """Free nilpotent algebra of class two: [x_i, x_j] = z_ij, z central."""
    if gens < 1:
        raise PreconditionError("at least one generator required")
    pairs = [(i, j) for i in range(gens) for j in range(i + 1, gens)]
    dim = gens + len(pairs)
    brackets = {(i, j): {gens + t: 1} for t, (i, j) in enumerate(pairs)}
    names = tuple(f"x{i + 1}" for i in range(gens)) + tuple(
        f"z{i + 1}{j + 1}" for i, j in pairs
    )
    return LieAlgebra.from_brackets(dim, brackets, basis_names=names)


def _half_table(g: LieAlgebra) -> Product:
    return Product._from_int(g.dim, g._inz, 2 * g._den)


def _filiform_shift(n: int) -> tuple[LieAlgebra, Product]:
    g = filiform(n)
    p = Product.from_entries(n, {(i, 0): {i + 1: -1} for i in range(1, n - 1)})
    return g, p


class Fixture(
    namedtuple("Fixture", "name is_lr is_compatible is_complete failing description")
):
    """A named (algebra, product) pair with its documented expectations.

    name and description are strs and is_lr, is_compatible and
    is_complete bools.  failing is the tuple of the identities expected
    to be violated; empty for the positive fixtures.
    """

    __slots__ = ()


def _fx_heisenberg_half():
    return heisenberg(), Product.from_entries(
        3, {(0, 1): {2: "1/2"}, (1, 0): {2: "-1/2"}}
    )


def _fx_heisenberg_onesided():
    return heisenberg(), Product.from_entries(3, {(0, 1): {2: 1}})


def _fx_heisenberg_fullbracket():
    return heisenberg(), Product.from_entries(3, {(0, 1): {2: 1}, (1, 0): {2: -1}})


def _fx_abelian1_idempotent():
    return abelian(1), Product.from_entries(1, {(0, 0): {0: 1}})


def _fx_abelian2_idempotent_line():
    return abelian(2), Product.from_entries(2, {(0, 0): {0: 1}})


def _fx_r2_twogen():
    return r2(), Product.from_entries(2, {(1, 0): {1: -1}})


def _fx_r2_completed():
    return r2(), Product.from_entries(2, {(0, 1): {1: 1}})


def _fx_diag11_twogen():
    return diag_solvable([1, 1]), Product.from_entries(
        3, {(1, 0): {1: -1}, (2, 0): {2: -1}}
    )


def _fx_free2step3_half():
    g = free_two_step(3)
    return g, _half_table(g)


def _fx_filiform12_shift():
    return _filiform_shift(12)


def _fx_r2_right_broken():
    return r2(), Product.from_entries(2, {(1, 0): {1: -1}, (1, 1): {0: 1}})


def _fx_r2_left_broken():
    return r2(), Product.from_entries(2, {(0, 1): {1: 1}, (1, 1): {0: -1}})


_FIXTURES: dict[str, tuple] = {
    "heisenberg-half": (
        _fx_heisenberg_half,
        Fixture(
            "heisenberg-half", True, True, True, (),
            "half the bracket on the Heisenberg algebra",
        ),
    ),
    "heisenberg-onesided": (
        _fx_heisenberg_onesided,
        Fixture(
            "heisenberg-onesided", True, True, True, (),
            "e1*e2 = e3 and nothing else",
        ),
    ),
    "heisenberg-fullbracket": (
        _fx_heisenberg_fullbracket,
        Fixture(
            "heisenberg-fullbracket", True, False, True, (COMPATIBILITY,),
            "the full bracket as a product; commutators come out doubled",
        ),
    ),
    "abelian1-idempotent": (
        _fx_abelian1_idempotent,
        Fixture(
            "abelian1-idempotent", True, True, False, (),
            "one idempotent on a line",
        ),
    ),
    "abelian2-idempotent-line": (
        _fx_abelian2_idempotent_line,
        Fixture(
            "abelian2-idempotent-line", True, True, False, (),
            "an idempotent direction inside the plane",
        ),
    ),
    "r2-twogen": (
        _fx_r2_twogen,
        Fixture(
            "r2-twogen", True, True, False, (),
            "y*x = -y, the two-generator product on r2",
        ),
    ),
    "r2-completed": (
        _fx_r2_completed,
        Fixture(
            "r2-completed", True, True, True, (),
            "x*y = y, the completed product on r2",
        ),
    ),
    "diag11-twogen": (
        _fx_diag11_twogen,
        Fixture(
            "diag11-twogen", True, True, False, (),
            "y_i*x = -y_i on the diagonal solvable algebra with weights 1, 1",
        ),
    ),
    "free2step3-half": (
        _fx_free2step3_half,
        Fixture(
            "free2step3-half", True, True, True, (),
            "half the bracket on the free two-step algebra on three generators",
        ),
    ),
    "filiform12-shift": (
        _fx_filiform12_shift,
        Fixture(
            "filiform12-shift", True, True, True, (),
            "e_i*e1 = -e_{i+1} on the dimension-12 filiform algebra",
        ),
    ),
    "r2-right-broken": (
        _fx_r2_right_broken,
        Fixture(
            "r2-right-broken", False, True, False, (LR_RIGHT,),
            "y*x = -y plus y*y = x; right multiplications stop commuting",
        ),
    ),
    "r2-left-broken": (
        _fx_r2_left_broken,
        Fixture(
            "r2-left-broken", False, True, False, (LR_LEFT,),
            "opposite of r2-right-broken; left multiplications stop commuting",
        ),
    ),
}


def known_lr_names() -> tuple[str, ...]:
    return tuple(_FIXTURES)


def known_lr(name: str) -> tuple[LieAlgebra, Product]:
    try:
        build = _FIXTURES[name][0]
    except KeyError:
        raise UnknownFixtureError(name) from None
    return build()


def fixture_expectations(name: str) -> Fixture:
    try:
        return _FIXTURES[name][1]
    except KeyError:
        raise UnknownFixtureError(name) from None


def named_algebra(name: str, arg: str | None = None) -> LieAlgebra:
    """Parametrized catalog lookup used by the command line.

    abelian, filiform and free-two-step take an integer in ASCII digits
    (no sign, space or underscore), and the family checks its range;
    diag-solvable takes comma-separated rational weights in the file
    format's grammar; heisenberg and r2 take nothing.  A family member whose dimension
    would exceed io.MAX_DIM, which no command could read back, is
    rejected before it is built.
    """
    def bounded(dim: int) -> None:
        if dim > MAX_DIM:
            raise PreconditionError(
                f"{name} {_show(arg)} exceeds the supported maximum dimension {MAX_DIM}"
            )

    def as_int(dim_of=lambda n: n) -> int:
        """The integer parameter; dim_of gives the family's dimension."""
        if arg is None:
            raise PreconditionError(f"{name} needs an integer parameter")
        # ASCII digits only: int() also takes signs, spaces, underscores
        # and other scripts' digits, and refuses very long digit strings.
        try:
            if not (arg.isascii() and arg.isdigit()):
                raise ValueError(arg)
            n = int(arg)
        except ValueError:
            raise PreconditionError(
                f"{name} needs an integer parameter, got {_show(arg)}"
            ) from None
        bounded(dim_of(n))
        return n

    def no_arg() -> None:
        if arg is not None:
            raise PreconditionError(f"{name} takes no parameter")

    if name == "abelian":
        return abelian(as_int())
    if name == "heisenberg":
        no_arg()
        return heisenberg()
    if name == "filiform":
        return filiform(as_int())
    if name == "r2":
        no_arg()
        return r2()
    if name == "diag-solvable":
        if arg is None:
            raise PreconditionError("diag-solvable needs comma-separated weights")
        parts = arg.split(",")
        bounded(len(parts) + 1)
        try:
            weights = [_parse_rational(w, f"weight {i + 1}") for i, w in enumerate(parts)]
        except FileFormatError as exc:
            raise PreconditionError(f"bad weight list: {exc}") from None
        return diag_solvable(weights)
    if name == "free-two-step":
        return free_two_step(as_int(lambda n: n + max(n, 0) * (n - 1) // 2))
    raise UnknownFixtureError(name)
