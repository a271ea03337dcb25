#!/usr/bin/env python3
"""Check that two checkouts write the same tables on the benchmark configs.

Each checkout runs the four table-writing subcommands (``simulate``,
``spectrum``, ``gap`` and ``primitivity``) with its own ``src`` on every
workload's config of BASE's ``perfbench/configs/<size>/``, read only, at
every seed of ``--seeds``.  Every manifest lists the SHA-256 digest of each
table the run wrote; the script compares those digests table by table,
prints each table that differs or that only one side wrote, and ends with
one count line.  It exits 1 on a differing table or on a run that failed
(nonzero exit or no manifest), and 0 otherwise.

Usage: python scripts/same_tables.py BASE CHANGE [--seeds 5 17]
                                     [--size tiny full]

``BASE`` and ``CHANGE`` are checkout roots, for example made with
``git clone`` of the parent commit.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = {"simulate": "simulate", "spectrum": "estimate", "gap": "estimate",
            "primitivity": "primitivity"}      # subcommand -> config file stem


def run_cli(checkout: Path, argv: list[str]) -> int:
    """Exit code of ``python -m gossipgap ARGV`` on ``checkout``'s ``src``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, "-m", "gossipgap", *argv],
                          cwd=checkout, env=env).returncode


def digests(out: Path) -> dict | None:
    """Table name -> SHA-256 from the one manifest in ``out``, or None when
    there is no readable manifest."""
    try:
        (manifest,) = out.glob("*_manifest.json")
        return {e["path"]: e["sha256"]
                for e in json.loads(manifest.read_text(encoding="utf-8"))["outputs"]}
    except (ValueError, OSError, KeyError, TypeError):
        return None


def main(argv=None, run=run_cli) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 17])
    ap.add_argument("--size", choices=("tiny", "full"), nargs="+", default=["tiny", "full"])
    args = ap.parse_args(argv)
    args.base, args.change = args.base.resolve(), args.change.resolve()     # runs change cwd
    configs = args.base / "perfbench" / "configs"
    runs = [(size, workload.name, seed, cmd) for size in args.size
            for workload in sorted(configs.joinpath(size).iterdir()) if workload.is_dir()
            for seed in args.seeds for cmd in COMMANDS]
    compared, differ, failed = 0, 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        for size, workload, seed, cmd in runs:
            where = f"{size}/{workload}/seed {seed}/{cmd}"
            config = configs / size / workload / f"{COMMANDS[cmd]}.json"
            tables = {}
            for side in ("base", "change"):
                out = Path(tmp, side, where.replace(" ", ""))
                rc = run(getattr(args, side), [cmd, "--config", str(config),
                                               "--seed", str(seed), "--out", str(out)])
                tables[side] = digests(out) if rc == 0 else None
                if tables[side] is None:
                    print(f"failed: {where} on {side} (exit {rc})")
                    failed += 1
            if None in tables.values():
                continue
            for name in sorted(tables["base"].keys() | tables["change"].keys()):
                compared += 1
                if tables["base"].get(name) != tables["change"].get(name):
                    print(f"differs: {where}/{name}")
                    differ += 1
    print(f"{compared} tables compared, {differ} differ, {failed} runs failed")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
