"""The names the pipeline benchmark's tracer patches must exist.

pipebench/layers.py wraps module-level functions by name and methods
through their class's own __dict__; a refactor that drops, renames or
inherits one of them breaks only traced benchmark runs, so it is
checked here.  The module is loaded from its file, which leaves
sys.path as it was.
"""

import importlib
import importlib.util
import os

import pytest

LAYERS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pipebench", "layers.py")


def _targets():
    spec = importlib.util.spec_from_file_location("pipebench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("layer", sorted(TARGETS))
def test_tracer_targets_resolve(layer):
    modname, funcs, classes = TARGETS[layer]
    mod = importlib.import_module(modname)
    for f in funcs:
        assert callable(vars(mod).get(f)), f"{modname}.{f} is not a module function"
    for cname, methods in classes.items():
        cls = vars(mod)[cname]
        for m in methods:
            assert m in cls.__dict__, f"{modname}.{cname}.{m} is not in the class's own __dict__"
