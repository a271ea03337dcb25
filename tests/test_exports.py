"""Every public name the package advertises must resolve and be used.

A stale ``__all__`` entry only fails on ``from module import *``, so it is
checked here.  A public name that no program calls is dead code, so each one
must be referenced by the package itself, a script or the benchmark harness,
and each public method, property and dataclass field of a public class must
be used there as an attribute or a keyword argument, unless it is kept for a
stated reason; an import that its file never uses is checked the same way.  An option no
program sets is dead code too, so every defaulted parameter must be passed
by some call in the same files, unless it is kept for a stated reason.  The
package itself re-exports nothing, so a fresh ``import gossipgap`` stays
cheap.
"""

import ast
import dataclasses
import functools
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gossipgap

MODULES = sorted(m.name for m in pkgutil.iter_modules(gossipgap.__path__)
                 if m.name != "__main__")     # importing __main__ runs the CLI
ROOT = Path(__file__).resolve().parents[1]


def _program_files() -> list[Path]:
    """The package modules (not its ``__init__``), ``scripts/`` and
    ``perfbench/``: the code whose calls and names count as uses."""
    pkg = Path(gossipgap.__file__).parent
    paths = [f for f in pkg.glob("*.py") if f.name != "__init__.py"]
    return paths + [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]


@functools.cache
def _referenced_names() -> set[str]:
    """Names the package modules (not its ``__init__``), ``scripts/`` and
    ``perfbench/`` use: as a name, an attribute, an import, or a string
    (the benchmark tracer patches functions by name).  The ``__all__``
    lists and the field declarations of class bodies do not count."""
    names = set()
    for path in _program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        listed = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                  for n in ast.walk(node.value)}
        listed |= {id(stmt.target) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for stmt in node.body
                   if isinstance(stmt, ast.AnnAssign)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in listed:
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


def _public_members(cls) -> list[str]:
    """The public methods, properties and dataclass fields ``cls`` defines."""
    names = [n for n, v in vars(cls).items() if not n.startswith("_") and isinstance(
        v, (types.FunctionType, property, classmethod, staticmethod))]
    if dataclasses.is_dataclass(cls):
        names += [f.name for f in dataclasses.fields(cls)]
    return names


@functools.cache
def _member_uses() -> set[str]:
    """Names the package modules, ``scripts/`` and ``perfbench/`` use as a
    member: an attribute access or a keyword argument.  A bare name or a
    string that happens to spell a member does not count."""
    names = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
    return names


# Public class members that no program uses but that stay, with the reason.
KEPT_MEMBERS = {
    "spectrum.SpectrumEstimate.samples":
        "tests/test_spectrum.py pairs the wedge and qr estimates replicate by replicate",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_is_used(name):
    mod = importlib.import_module(f"gossipgap.{name}")
    public = getattr(mod, "__all__", ())
    members = {f"{name}.{n}.{m}" for n in public if isinstance(getattr(mod, n), type)
               for m in _public_members(getattr(mod, n)) if m not in _member_uses()}
    unused = sorted(set(public) - _referenced_names()) + sorted(members - set(KEPT_MEMBERS))
    assert not unused, (f"gossipgap.{name}.__all__ names {unused}, which no "
                        "module, script or benchmark file uses")
    kept = {k for k in KEPT_MEMBERS if k.startswith(f"{name}.")}
    assert sorted(kept - members) == [], "a program now uses these kept members"


# Defaulted parameters that no program sets but that stay, with the reason.
KEPT_OPTIONS = {
    "spectrum.check_det_identity.qr_n":
        "the benchmark tracer reads it by name to count the nested qr run",
    "spectrum._run_frames.record":
        "the running-exponent snapshots the run bundles' metrics are to report",
    "primitivity.sample_backward_indices.spacing":
        "the Markov walk-back spacing a bursty-loss sweep is to vary",
    **{f"primitivity.{name}.cap":
       "a safety bound on one sample's length, which the error tests set small"
       for name in ("sample_backward_index", "sample_forward_indices",
                    "sample_backward_indices")},
}


def _options(tree: ast.Module, module: str):
    """``(key, callee, name, position, default)`` for each defaulted
    parameter of the functions, methods and dataclass fields that ``tree``
    defines at module or class level.  ``callee`` is the name a call uses
    (a class's for its constructor) and ``position`` the parameter's index
    among the positional arguments of such a call (None if keyword-only)."""
    def params(qual, callee, fn, bound):
        a = fn.args
        pos = [x.arg for x in a.posonlyargs + a.args]
        named = [*zip(pos[len(pos) - len(a.defaults):], a.defaults),
                 *((x.arg, d) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d)]
        order = pos[1:] if bound else pos
        for name, default in named:
            yield (f"{module}.{qual}.{name}", callee, name,
                   order.index(name) if name in order else None, default)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from params(node.name, node.name, node, False)
        if not isinstance(node, ast.ClassDef):
            continue
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list)
                callee = node.name if fn.name == "__init__" else fn.name
                yield from params(f"{node.name}.{fn.name}", callee, fn, not static)
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None and "init=False" not in ast.unparse(f.value):
                    yield (f"{module}.{node.name}.{f.target.id}", node.name,
                           f.target.id, i, f.value)


def _calls(tree: ast.Module):
    """``(callee, call)`` for each call in ``tree``: the called name, and
    for ``super().__init__`` the first base of the class it is written in."""
    bases = {id(fn): cls.bases[0] for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) and cls.bases
             for fn in ast.walk(cls)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if (isinstance(f, ast.Attribute) and f.attr == "__init__"
                and isinstance(f.value, ast.Call)
                and getattr(f.value.func, "id", None) == "super"):
            yield getattr(bases.get(id(node)), "id", None), node
        else:
            yield getattr(f, "id", None) or getattr(f, "attr", None), node


def _sets(call: ast.Call, name: str, position, default) -> bool:
    """True when ``call`` may pass the parameter a value, by position, by
    keyword or through ``*args`` or ``**kwargs``, other than the literal
    that is its default."""
    value = None
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return position is not None and i <= position
        if i == position:
            value = arg
    for kw in call.keywords:
        if kw.arg is None:
            return True
        if kw.arg == name:
            value = kw.value
    if value is None:
        return False
    try:
        given, fixed = ast.literal_eval(value), ast.literal_eval(default)
    except ValueError:
        return True
    return type(given) is not type(fixed) or given != fixed


def _unset_options() -> list[str]:
    """Keys (``module.function.parameter``) of the package's defaulted
    parameters that no call in the package, ``scripts/`` or ``perfbench/``
    sets."""
    calls = {}
    for path in _program_files():
        for callee, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            calls.setdefault(callee, []).append(call)
    pkg = Path(gossipgap.__file__).parent
    return [key for path in sorted(pkg.glob("*.py"))
            for key, callee, name, position, default in _options(
                ast.parse(path.read_text(encoding="utf-8")), path.stem)
            if not any(_sets(c, name, position, default) for c in calls.get(callee, ()))]


def test_every_option_has_a_caller():
    unset = set(_unset_options())
    assert sorted(unset - set(KEPT_OPTIONS)) == [], (
        "no module, script or benchmark file sets these defaulted parameters; "
        "make each a constant or a required argument")
    assert sorted(set(KEPT_OPTIONS) - unset) == [], "a caller now sets these kept options"


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


@pytest.mark.parametrize("name", ["primitivity", "spectrum"])
def test_member_table_stays_behind_generators_and_consensus(name):
    # only generators and consensus.run decode the updates tuple layout
    path = Path(gossipgap.__file__).with_name(f"{name}.py")
    reads = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "updates"]
    assert not reads, f"gossipgap.{name} reads the member table on lines {reads}"
