"""Smoke test of the experiment scripts at small sizes, and of the README's
library example."""

import ast
import csv
import importlib.util
import json
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


def _ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "scripts" / "ab_bench.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _contract(correct=True, **values):
    return "# table line\n" + json.dumps({
        "correct": correct, "attempted": 10, "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}) + "\n"


def test_ab_bench_alternates_and_summarizes(tmp_path, capsys):
    ab = _ab_bench()
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    (base / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "secs", "unit": "s", "better": "lower", "bound": 0.25}]}))
    # change: rate +10 on seeds 0-2 and a tie on seed 3; secs lower only on seed 1
    table = {("base", s): (100.0 + s, 2.0) for s in range(4)}
    table.update({("change", s): (110.0 + s if s < 3 else 103.0, 1.0 if s == 1 else 2.5)
                  for s in range(4)})
    calls = []

    def fake_run(checkout, args, workload, seed):
        side = checkout.name
        calls.append((side, seed))
        assert (workload, args.seconds, args.size) == ("markov-family", 20.0, "tiny")
        rate, secs = table[side, seed]
        return _contract(rate=rate, secs=secs)

    rc = ab.main([str(base), str(change), "--workload", "markov-family", "--pairs", "4",
                  "--seconds", "20", "--seed", "0", "--size", "tiny"], run=fake_run)
    assert rc == 0
    assert calls == [("base", 0), ("change", 0), ("change", 1), ("base", 1),
                     ("base", 2), ("change", 2), ("change", 3), ("base", 3)]
    summary = capsys.readouterr().out.splitlines()[-2:]
    # base rate 100..103: median 101.5, inclusive quartiles 100.75 and 102.25
    assert summary[0].split() == [
        "rate", "1/s", "base", "101.5", "[100.75,", "102.25]", "change", "110.5",
        "[108.25,", "111.25]", "ratio", f"{110.5 / 101.5:.4f}", "wins", "3/4", "same"]
    assert summary[1].split()[-5:] == ["ratio", "1.2500", "wins", "1/4", "same"]


def test_ab_bench_without_workload_runs_every_workload(tmp_path, capsys):
    ab = _ab_bench()
    base, change = tmp_path / "base", tmp_path / "change"
    base.mkdir()
    (base / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "ring"}, {"name": "markov"}],
        "end_to_end": [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}]}))
    calls = []

    def fake_run(checkout, args, workload, seed):
        calls.append((workload, seed, checkout.name))
        # the change is slower on markov only
        return _contract(rate=1.0 if (workload, checkout.name) == ("markov", "change")
                         else 2.0)

    assert ab.main([str(base), str(change), "--pairs", "2", "--seed", "3"],
                   run=fake_run) == 0
    assert calls == [(w, s, side) for w in ("ring", "markov")
                     for s, order in ((3, ("base", "change")), (4, ("change", "base")))
                     for side in order]
    out = capsys.readouterr().out.splitlines()
    tables = [i for i, line in enumerate(out) if line.startswith("# ")]
    assert [out[i].split()[1] for i in tables] == ["ring", "markov"]
    assert [out[i + 1].split()[-3:] for i in tables] == [["wins", "0/2", "same"],
                                                         ["wins", "0/2", "worse"]]


def test_ab_bench_byte_compiles_both_sources_first(tmp_path, monkeypatch):
    # both sides import gossipgap from bytecode, whatever state they were in,
    # even where the interpreter writes none of its own
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    ab = _ab_bench()
    base, change = tmp_path / "base", tmp_path / "change"
    for side in (base, change):
        (side / "src" / "pkg").mkdir(parents=True)
        (side / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    (base / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}]}))
    seen = []

    def fake_run(checkout, args, workload, seed):
        if not seen:
            seen.extend(sorted(p.relative_to(tmp_path).parts[0] for p in
                               tmp_path.glob("*/src/pkg/__pycache__/mod.*.pyc")))
        return _contract(rate=1.0)

    assert ab.main([str(base), str(change), "--workload", "w", "--pairs", "1"],
                   run=fake_run) == 0
    assert seen == ["base", "change"]


_BASE = [100.0, 101.0, 102.0] * 3 + [101.0]     # quartiles 100.25 and 101.75
_WIDE = [70.0] * 5 + [130.0] * 5                # quartiles 70 and 130: wider than 25%


@pytest.mark.parametrize("better,base,change,verdict", [
    # nine of ten pairs won, median 10 better against a quartile spread of 1.5
    ("higher", _BASE, [x + 10 for x in _BASE[:9]] + [100.0], "gain"),
    ("lower", _BASE, [x - 10 for x in _BASE], "gain"),
    # eight of ten pairs won is not enough
    ("higher", _BASE, [x + 10 for x in _BASE[:8]] + [100.0, 100.0], "same"),
    # nine wins, but the medians differ by less than the spread
    ("higher", _BASE, [x + 1 for x in _BASE[:9]] + [100.0], "same"),
    # median more than 25% worse
    ("higher", _BASE, [x * 0.7 for x in _BASE], "worse"),
    ("lower", _BASE, [x * 1.3 for x in _BASE], "worse"),
    ("lower", _BASE, [x * 1.2 for x in _BASE], "same"),
    # spread wider than the bound: a change inside it is not "same"
    ("higher", _WIDE, _WIDE[::-1], "unresolved"),
    ("higher", _WIDE, [x - 20 for x in _WIDE], "unresolved"),
    # unless every change run beats every base run
    ("higher", _WIDE, [131.0] * 10, "same"),
    ("lower", _WIDE, [69.0] * 10, "same"),
], ids=["gain", "gain-lower", "eight-wins", "within-spread", "worse", "worse-lower",
        "within-bound", "unresolved", "unresolved-lower-median", "beats-every-run",
        "beats-every-run-lower"])
def test_ab_bench_verdict(better, base, change, verdict):
    spec = {"name": "m", "unit": "-", "better": better, "bound": 0.25}
    runs = [[{"metrics": {"m": {"value": v}}} for v in side] for side in (base, change)]
    (line,) = _ab_bench().summarize([spec], *runs)
    assert line.split()[-1] == verdict


@pytest.mark.parametrize("output", [_contract(False, rate=1.0, secs=1.0), "crashed\n", ""])
def test_ab_bench_fails_on_a_run_that_is_not_correct(tmp_path, capsys, output):
    ab = _ab_bench()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}]}))

    def fake_run(checkout, args, workload, seed):
        return output if seed == 8 else _contract(rate=1.0, secs=1.0)

    rc = ab.main([str(tmp_path), str(tmp_path), "--workload", "w", "--pairs", "2",
                  "--seed", "7"], run=fake_run)
    assert rc == 1
    assert "base seed 8" in capsys.readouterr().err


def _same_tables():
    spec = importlib.util.spec_from_file_location("same_tables",
                                                  ROOT / "scripts" / "same_tables.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_same_tables_compares_manifest_digests(tmp_path, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    for workload in ("ring", "markov"):
        (base / "perfbench" / "configs" / "tiny" / workload).mkdir(parents=True)
    calls = []

    def fake_run(checkout, argv):
        cmd, _, config, _, seed, _, out = argv
        config = Path(config)
        calls.append((checkout.name, config.parent.name, seed, cmd, config.name))
        if (checkout.name, config.parent.name, seed, cmd) == ("change", "ring", "5",
                                                              "primitivity"):
            return 2
        digest = "b" if (checkout.name, seed, cmd) == ("change", "17", "gap") else "a"
        Path(out).mkdir(parents=True)
        Path(out, "x_manifest.json").write_text(json.dumps({"outputs": [
            {"path": f"x_{cmd}.csv", "sha256": digest},
            {"path": "x_summary.csv", "sha256": "s"}]}))
        return 0

    rc = _same_tables().main([str(base), str(change), "--size", "tiny"], run=fake_run)
    assert rc == 1
    assert calls[:8] == [(side, "markov", "5", cmd, f"{stem}.json")
                         for cmd, stem in (("simulate", "simulate"),
                                           ("spectrum", "estimate"), ("gap", "estimate"),
                                           ("primitivity", "primitivity"))
                         for side in ("base", "change")]
    assert len(calls) == 2 * 2 * 2 * 4
    out = capsys.readouterr().out.splitlines()
    assert out == ["differs: tiny/markov/seed 17/gap/x_gap.csv",
                   "failed: tiny/ring/seed 5/primitivity on change (exit 2)",
                   "differs: tiny/ring/seed 17/gap/x_gap.csv",
                   "30 tables compared, 2 differ, 1 runs failed"]
