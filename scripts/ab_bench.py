#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

Each checkout runs its own ``perfbench/run.py --trace 0``.  Pair ``i`` runs
both sides on seed ``seed + i``, the base first when ``i`` is even and the
change first when it is odd, so a drift in host speed falls on both sides.
Without ``--workload``, every workload of the base checkout's
``BENCHMARK.json`` runs in turn, with its own pairs and its own table, since
a change that is worse on any one workload is worse.  For every end-to-end
metric that ``BENCHMARK.json`` lists, the script prints each side's median
with its quartiles, the ratio of the medians (change over base), how many
pairs the change won by the metric's ``better`` direction (a tie counts for
neither side) and a verdict:

* ``gain``: the change wins at least nine tenths of the pairs, and its
  median is better than the base median by more than the base quartile
  spread;
* ``worse``: the change median is worse than the base median by more than
  the metric's ``bound`` (a fraction of the base median);
* ``unresolved``: the base quartile spread is wider than the bound, and
  not every change run beats every base run;
* ``same``: any other case.

Before the first pair, both checkouts' ``src/`` are byte-compiled, so
that neither side's runs pay for compiling ``gossipgap`` on import (with
``PYTHONDONTWRITEBYTECODE`` set, a checkout without ``__pycache__`` would
compile it again in every fresh interpreter).

It exits 1, and runs no later workload, if any run failed or was not
``correct``.

Usage: python scripts/ab_bench.py BASE CHANGE [--workload markov-family]
                                  [--pairs 10] [--seconds 50] [--seed 901]
                                  [--size full]

``BASE`` and ``CHANGE`` are checkout roots, for example made with
``git worktree add``.
"""

import argparse
import compileall
import json
import statistics
import subprocess
import sys
from pathlib import Path


def pair_schedule(pairs: int, seed: int) -> list[tuple[int, tuple[str, str]]]:
    """The runs in order: per pair its seed and which side runs first."""
    return [(seed + i, ("base", "change") if i % 2 == 0 else ("change", "base"))
            for i in range(pairs)]


def parse_contract(stdout: str) -> dict | None:
    """The JSON object on the last line of a benchmark run's output, or
    None when there is none."""
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return out if isinstance(out, dict) else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(Q1, median, Q3)`` of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(metrics: list[dict], base: list[dict], change: list[dict]) -> list[str]:
    """One line per metric over paired contract objects ``base[i]`` and
    ``change[i]``."""
    lines = []
    for spec in metrics:
        name = spec["name"]
        a = [run["metrics"][name]["value"] for run in base]
        b = [run["metrics"][name]["value"] for run in change]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        ratio = bm / am if am else float("nan")
        gain, spread, bound = sign * (bm - am), a3 - a1, spec["bound"] * abs(am)
        if wins >= 0.9 * len(a) and gain > spread:
            verdict = "gain"
        elif gain < -bound:
            verdict = "worse"
        elif spread > bound and not min(sign * y for y in b) > max(sign * x for x in a):
            verdict = "unresolved"
        else:
            verdict = "same"
        lines.append(f"{name:<28} {spec['unit']:>4}  base {am:.6g} [{a1:.6g}, {a3:.6g}]"
                     f"  change {bm:.6g} [{b1:.6g}, {b3:.6g}]"
                     f"  ratio {ratio:.4f}  wins {wins}/{len(a)}  {verdict}")
    return lines


def run_perfbench(checkout: Path, args, workload: str, seed: int) -> str:
    """Stdout of one untraced benchmark run of ``workload`` in
    ``checkout``; stderr goes to this process's stderr."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
         "--size", args.size],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    return proc.stdout


def main(argv=None, run=run_perfbench) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", help="one workload (default: all of them)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--seed", type=int, default=901)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    spec = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    for checkout in (args.base, args.change):
        compileall.compile_dir(checkout / "src", quiet=1)
    for workload in workloads:
        runs = {"base": [], "change": []}
        failed = []
        for seed, order in pair_schedule(args.pairs, args.seed):
            for side in order:
                out = parse_contract(run(getattr(args, side), args, workload, seed))
                print(f"{workload} seed {seed} {side}: "
                      + (json.dumps({k: v["value"] for k, v in out.get("metrics", {}).items()})
                         if out else "no result"), flush=True)
                if out is None or not out.get("correct"):
                    failed.append(f"{side} seed {seed}")
                runs[side].append(out)
        if failed:
            print(f"ab_bench: {workload} runs not correct: {', '.join(failed)}",
                  file=sys.stderr)
            return 1
        print(f"# {workload} ({args.size}), {args.pairs} pairs, --seconds {args.seconds:g}, "
              f"seeds {args.seed}-{args.seed + args.pairs - 1}")
        for line in summarize(spec["end_to_end"], runs["base"], runs["change"]):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
