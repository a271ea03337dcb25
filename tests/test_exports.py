"""Every public name the package advertises must resolve and be used.

A stale ``__all__`` entry only fails on ``from module import *``, so it is
checked here.  A public name that no program calls is dead code, so each one
must be referenced by the package itself, a script or the benchmark harness;
an import that its file never uses is checked the same way.  The package
itself re-exports nothing, so a fresh ``import gossipgap`` stays cheap.
"""

import ast
import functools
import importlib
import os
import pkgutil
import subprocess
import sys
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


COLD_START = """\
import sys
import gossipgap
from gossipgap.config import load_config
load_config(sys.argv[1]).build_process(1).next_matrix()
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "gossipgap")))
"""


CLI_COLD_START = """\
import sys
from gossipgap import cli
assert cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "gossipgap")))
"""

TINY_RING5 = ROOT / "perfbench" / "configs" / "tiny" / "ring5-lossy" / "simulate.json"


def _loaded_modules(script, *args):
    """The ``gossipgap`` modules a fresh interpreter has loaded after
    running ``script`` with ``args``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cold_start_loads_only_what_a_process_needs():
    # a fresh interpreter that builds one emission from a config compiles
    # no estimator module: the package's __init__ imports nothing
    assert _loaded_modules(COLD_START, TINY_RING5) == [
        "gossipgap", "gossipgap.config", "gossipgap.core", "gossipgap.generators"]


def test_cli_simulate_loads_no_estimator_module(tmp_path):
    # each subcommand imports the estimator modules it uses when it runs
    assert _loaded_modules(CLI_COLD_START, TINY_RING5, tmp_path) == [
        "gossipgap", "gossipgap.cli", "gossipgap.config", "gossipgap.consensus",
        "gossipgap.core", "gossipgap.generators", "gossipgap.report"]


@pytest.mark.parametrize("path", sorted(
    [f for f in Path(gossipgap.__file__).parent.glob("*.py") if f.name != "__init__.py"]
    + list((ROOT / "scripts").glob("*.py"))), ids=lambda f: f"{f.parent.name}/{f.name}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{path.name} never uses {sorted(imported - used)}"


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
