"""Every public name the package advertises must resolve and be used.

A stale ``__all__`` entry only fails on ``from module import *``, and a
stale re-export only on importing the package, so both are checked here.
A public name that no program calls is dead code, so each one must be
referenced by the package itself, a script or the benchmark harness.
"""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import gossipgap

MODULES = sorted(m.name for m in pkgutil.iter_modules(gossipgap.__path__)
                 if m.name != "__main__")     # importing __main__ runs the CLI
ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def _referenced_names() -> set[str]:
    """Names the package modules (not its ``__init__``), ``scripts/`` and
    ``perfbench/`` use: as a name, an attribute, an import, or a string
    (the benchmark tracer patches functions by name).  The ``__all__``
    lists themselves do not count."""
    pkg = Path(gossipgap.__file__).parent
    paths = [f for f in pkg.glob("*.py") if f.name != "__init__.py"]
    paths += [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        listed = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                  for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in listed):
                names.add(node.value)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"gossipgap.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"gossipgap.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_is_used(name):
    mod = importlib.import_module(f"gossipgap.{name}")
    unused = sorted(set(getattr(mod, "__all__", ())) - _referenced_names())
    assert not unused, (f"gossipgap.{name}.__all__ names {unused}, which no "
                        "module, script or benchmark file uses")


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
