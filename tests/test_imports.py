"""Every name a module of the package imports is used in it.

Deleting a code path tends to leave its imports behind; no linter is
part of the test run, so this check reads each module's syntax tree
with the standard library.  __init__.py is skipped: its imports are
the package's re-exports.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "lralg")
MODULES = sorted(
    f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py"
)


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


def used_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, including inside string annotations."""
    trees = [tree]
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
    return {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"
