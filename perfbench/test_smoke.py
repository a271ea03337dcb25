"""Smoke test of the benchmark at tiny size.

Runs ``perfbench/run.py --size tiny`` once per workload and trace mode and
checks the contract line: every metric named in ``BENCHMARK.json`` is
emitted with its unit and every output check passes.  Also checks that the
pinned configs rebuild the acceptance suite's processes and that the exact
operation counts match the linear-algebra calls the CLI really makes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import opcounts  # noqa: E402
from gossipgap import acceptance, cli  # noqa: E402
from gossipgap.config import load_config  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = BENCH / "configs" / "tiny"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    named = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("path", sorted((BENCH / "configs").glob("*/*/*.json")),
                         ids=lambda p: "/".join(p.parts[-3:]))
def test_configs_rebuild_acceptance_processes(path):
    cfg = load_config(path)
    if path.parent.name == "ring5-lossy":
        proc = acceptance.ring5_process(True)
    else:
        proc, x0, w0 = acceptance._envelope_configs()[7]
        np.testing.assert_array_equal(cfg.build_initial(3), (x0, w0))
    np.testing.assert_array_equal(cfg.build_process().dense_block(64),
                                  proc.dense_block(64))


def test_opcounts_match_linalg_calls(tmp_path, monkeypatch):
    calls = {"qr": 0, "svd": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    path = TINY / "ring5-lossy" / "estimate.json"
    cfg = load_config(path)
    p = cfg.build_process().p
    for cmd, want in (("spectrum", opcounts.spectrum_counts(cfg, p)),
                      ("gap", opcounts.gap_counts(cfg, p))):
        calls.update(qr=0, svd=0)
        assert cli.main([cmd, "--config", str(path), "--seed", "5",
                         "--out", str(tmp_path / cmd), "--threads", "1"]) == 0
        assert calls["qr"] == want["qr_calls"]
        assert calls["svd"] == want.get("svd_calls", 0)
