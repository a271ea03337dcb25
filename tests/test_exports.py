"""Every public name the package advertises must resolve.

A stale ``__all__`` entry only fails on ``from module import *``, and a
stale re-export only on importing the package, so both are checked here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gossipgap

MODULES = sorted(m.name for m in pkgutil.iter_modules(gossipgap.__path__)
                 if m.name != "__main__")     # importing __main__ runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"gossipgap.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"gossipgap.{name}.__all__ names undefined {missing}"


def test_package_reexports_are_public():
    tree = ast.parse(Path(gossipgap.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"gossipgap.{node.module}")
        for alias in node.names:
            assert hasattr(gossipgap, alias.name)
            assert alias.name in mod.__all__, (
                f"gossipgap re-exports {alias.name}, which is not in "
                f"gossipgap.{node.module}.__all__")


@pytest.mark.parametrize("name", ["consensus", "primitivity", "spectrum"])
def test_push_sum_format_stays_behind_generators(name):
    # these modules see processes only through member indices and the
    # member table, never through the push-sum edge and loss encoding
    path = Path(gossipgap.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    leaked = imported & {"PushSumProcess", "push_sum_matrix"}
    assert not leaked, f"gossipgap.{name} imports {sorted(leaked)}"
