"""Smoke test of the experiment scripts at small sizes, and of the README's
library example."""

import ast
import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, out, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args,
                           "--out", str(out)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def test_gap_vs_loss_script(tmp_path):
    rows = _run_script("gap_vs_loss.py", tmp_path / "gap.csv",
                       "--n", "2000", "--replicates", "2")
    assert [float(r["loss_prob"]) for r in rows] == pytest.approx(
        [0.1 * k for k in range(9)])
    for r in rows:
        assert all(math.isfinite(float(v)) for v in r.values())
        assert float(r["gap"]) > 0 and float(r["birkhoff_gap"]) > 0
    lambda1 = [float(r["lambda1"]) for r in rows]
    assert lambda1[0] == max(lambda1)      # coupled seeds: more loss, lower lambda_1


def test_rate_vs_gap_script(tmp_path):
    rows = _run_script("rate_vs_gap.py", tmp_path / "rate.csv",
                       "--pairs", "2", "--n", "2000")
    assert [r["topology"] for r in rows] == [
        "ring4", "ring5_chords", "ring5_chords_heavy_loss", "complete4", "two_node"]
    for r in rows:
        assert float(r["gap"]) > 0
        assert math.isfinite(float(r["minus_fitted_rate"]))


def test_readme_quick_start_imports_resolve():
    # only the example's imports run: a moved or renamed name fails here
    # without paying for its 100k-step estimate
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    tree = ast.parse(block.split("```", 1)[0])
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert any(getattr(node, "module", "").startswith("gossipgap.") for node in imports)
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
