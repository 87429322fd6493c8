"""Every name a module of the package imports is used in it, every
function, class, method or property it defines is used somewhere, and
every private name its docstrings, comments and README cite exists.

Deleting a code path tends to leave its imports and helpers behind; no
linter is part of the test run, so these checks read syntax trees with
the standard library.  __init__.py is skipped: its imports are the
package's re-exports.  One more check imports the package in a fresh
interpreter and looks for standard modules it should not load.
"""

import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter, namedtuple

import pytest

ROOT = os.path.dirname(os.path.dirname(__file__))
PACKAGE = os.path.join(ROOT, "src", "lralg")
MODULES = sorted(
    f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py"
)


def parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def string_annotations(tree: ast.AST) -> list[ast.AST]:
    """The annotations written as strings in the tree, parsed."""
    trees = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        else:
            continue
        for c in ast.walk(note) if note else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                trees.append(ast.parse(c.value, mode="eval"))
    return trees


def used_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, including inside string annotations."""
    trees = [tree] + string_annotations(tree)
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = parse(os.path.join(PACKAGE, module))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def read_names(tree: ast.AST) -> Counter:
    """How often the tree reads each name, as a bare name, an attribute
    or an imported name; string annotations included."""
    names = Counter()
    for t in [tree] + string_annotations(tree):
        for node in ast.walk(t):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def definitions(tree: ast.Module):
    """The module-level functions and classes, and the methods and
    properties of each class; dunder methods are left out, since the
    interpreter calls them by protocol rather than by name."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, defs)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_no_dead_definitions():
    """A module-level function or class, or a method or property of a
    class, must be read outside its own body somewhere in the package;
    a public one may instead be re-exported by __init__.py, named in
    the pipeline benchmark's TARGETS, or used by a test.  A private
    (_name) definition that only a test or TARGETS reads is dead code
    kept alive as an oracle."""
    trees = {m: parse(os.path.join(PACKAGE, m)) for m in MODULES}
    in_src = sum(map(read_names, trees.values()), Counter())
    exported = read_names(parse(os.path.join(PACKAGE, "__init__.py")))
    layers = parse(os.path.join(ROOT, "pipebench", "layers.py"))
    assign = next(n for n in layers.body if isinstance(n, ast.Assign)
                  and getattr(n.targets[0], "id", None) == "TARGETS")
    targets = {c.value for c in ast.walk(assign.value) if isinstance(c, ast.Constant)}
    tests = os.path.join(ROOT, "tests")
    in_tests = sum(
        (read_names(parse(os.path.join(tests, f))) for f in os.listdir(tests) if f.endswith(".py")),
        Counter(),
    )
    dead = [
        f"{module}:{node.lineno} {node.name}"
        for module, tree in trees.items()
        for node in definitions(tree)
        if in_src[node.name] <= read_names(node)[node.name]
        and (node.name.startswith("_")
             or not (node.name in exported or node.name in targets or in_tests[node.name]))
    ]
    assert not dead, f"definitions nothing uses: {', '.join(dead)}"


def kernel_bindings(tree: ast.Module) -> list[str]:
    """Places where a module binds a function of lralg._kernels by name:
    an import of the function itself, or a read of K.<name> that is not
    the callee of a call (an assignment, a default argument, an argument
    passed on)."""
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_kernels"):
            found += [f"{a.name} (line {node.lineno})" for a in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases.update(a.asname or a.name for a in node.names
                           if a.name.split(".")[-1] == "_kernels")
    callees = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and id(node) not in callees):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "_kernels.py"])
def test_kernels_are_called_through_the_module(module):
    """The pipeline benchmark's tracer replaces the attributes of
    lralg._kernels; a kernel bound to a second name escapes it."""
    bound = kernel_bindings(parse(os.path.join(PACKAGE, module)))
    assert not bound, f"{module} binds kernels by name: {', '.join(bound)}"


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_operator_powers(module):
    """Nilpotency tests and Fitting splits run chains of images, so no
    module calls .power(, the n - 1 dense products of Matrix.power,
    which serves the public Matrix API alone."""
    tree = parse(os.path.join(PACKAGE, module))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Attribute) and n.func.attr == "power"]
    assert not lines, f"{module} calls .power( on lines {lines}"


def accumulations(tree: ast.Module) -> list[int]:
    """The lines that add into an entry of a container: an augmented
    assignment to a subscript, or d[k] = d.get(k, ...) + ..."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
              and any(isinstance(t, ast.Subscript) for t in node.targets)
              and any(isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                      and c.func.attr == "get" for c in ast.walk(node.value))):
            lines.append(node.lineno)
    return lines


def test_import_graph_holds_no_dataclasses_or_typing():
    """import lralg and lralg.cli load neither dataclasses nor typing,
    nor the inspect and ast that dataclasses pulls in: every lralg
    process would pay for them before its first answer.  The fresh
    interpreter runs with -S and without PYTHONPATH, so site start-up
    imports nothing on the package's behalf."""
    heavy = ("dataclasses", "typing", "inspect", "ast")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import lralg, lralg.cli; "
        f"print(*[m for m in {heavy!r} if m in sys.modules])"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, os.path.join(ROOT, "src")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == [], f"import lralg loads {out.stdout.strip()}"


def test_construct_holds_no_accumulator():
    """The constructions sum operator columns through linalg's one
    column-sum loop (_combine, _push), so construct adds into no
    container entry of its own."""
    lines = accumulations(parse(os.path.join(PACKAGE, "construct.py")))
    assert not lines, f"construct.py accumulates on lines {lines}"


def callee(node: ast.Call) -> str | None:
    """The name a call calls: f of f(...) or of obj.f(...)."""
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_remainders_take_sparse_vectors(module):
    """Subspace._remainder reduces a vector's nonzero pairs through
    _kernels.remainders, so no call expands one with _int_row to pass it,
    and the one reader of images at the pivots is linalg._restricted: no
    _image_coordinates is defined beside it."""
    bad = []
    for node in ast.walk(parse(os.path.join(PACKAGE, module))):
        if isinstance(node, ast.Call) and callee(node) == "_remainder":
            if any(isinstance(c, ast.Call) and callee(c) == "_int_row"
                   for a in node.args + [k.value for k in node.keywords] for c in ast.walk(a)):
                bad.append(f"line {node.lineno} passes _int_row( to _remainder(")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "_image_coordinates":
                bad.append(f"line {node.lineno} defines _image_coordinates")
    assert not bad, f"{module}: {'; '.join(bad)}"


def cited_private_names(text: str) -> set[str]:
    """The private names (_name, not dunders) a text cites, bare or
    after a dot."""
    return set(re.findall(r"\b_[A-Za-z]\w*", text))


def docstrings_and_comments(path: str) -> str:
    """The docstrings and comments of a module, one after another."""
    texts = []
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            texts.append(ast.get_docstring(node) or "")
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    texts += [t.string for t in tokens if t.type == tokenize.COMMENT]
    return "\n".join(texts)


def defined_names(tree: ast.Module) -> set[str]:
    """Every name the module binds: functions, classes, arguments,
    assigned names and attributes, the entries of __slots__, and the
    _name API (_replace, _fields, ...) of the named tuples it makes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__slots__" for t in node.targets
        ):
            names.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "namedtuple":
            names.update(cited_private_names(" ".join(dir(namedtuple("Record", "")))))
    return names


def test_cited_private_names_are_defined():
    """Every _name that a docstring or comment of the package, or the
    README, cites is a name the package defines or one of its modules:
    a helper deleted by a change leaves no stale reference behind."""
    files = sorted(os.listdir(PACKAGE))
    modules = [f for f in files if f.endswith(".py")]
    defined = {m[:-3] for m in modules}
    cited = {}
    for m in modules:
        path = os.path.join(PACKAGE, m)
        defined |= defined_names(parse(path))
        for name in cited_private_names(docstrings_and_comments(path)):
            cited.setdefault(name, m)
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        for name in cited_private_names(fh.read()):
            cited.setdefault(name, "README.md")
    stale = sorted(f"{name} ({where})" for name, where in cited.items() if name not in defined)
    assert not stale, f"cited private names the package does not define: {', '.join(stale)}"


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_lines_fit_in_100_columns(module):
    """No line of the package is longer than 100 characters, the width
    its code and docstrings are wrapped to."""
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        long = [i for i, line in enumerate(fh, 1) if len(line.rstrip("\n")) > 100]
    assert not long, f"{module}: lines longer than 100 characters: {long}"
