#!/usr/bin/env python3
"""gossipgap benchmark: pinned workloads driven through ``gossipgap.cli.main``.

Run from the repository root::

    python3 perfbench/run.py --workload ring5-lossy --seed 1 --seconds 50 --trace 0

One run, all in this process except the set-up probes:

1. ``setup_s``: a few fresh interpreters each import ``gossipgap``, load
   the workload config and build the process up to its first emission;
   the median is reported.
2. Timed pipelines until ``--seconds`` is used up: each pipeline calls the
   four CLI subcommands (``simulate``, ``spectrum``, ``gap --threads 1``,
   ``primitivity``) on the pinned configs in ``configs/<size>/<workload>/``,
   with seeds derived from ``--seed``.  Every call must exit 0 and pass
   ``report.verify_manifest``; every pipeline must pass the cross-estimator
   checks.  ``verify_s`` is the median pipeline wall time; the ``*_per_s``
   metrics are work completed per second over all pipelines.  These times
   and ``setup_s`` are scaled to a fixed host speed by a calibration kernel
   timed around each stage (see ``calibrate.py``); the table also shows
   them raw.  With ``--trace 1`` each pipeline runs twice on one seed,
   untraced and then traced (see ``tracing.py``); per-layer metrics come
   from the traced runs, and the tracing overhead is traced minus untraced
   wall time.
3. A reference replay: the tiny pipeline on the config's own seed, whose
   reported numbers must match ``reference.json`` (``gap_ref_err``).

Every workload runs all four subcommands so that every metric exists on
each.  A wide push-sum network (p = 64) is not a workload: there the
primitivity BFS explores about 1000 states/s up to its 10^6-state cap,
forward indices average ~2000 steps, and Birkhoff trials keep ``tau = 1``
for any affordable block length.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` (checked operations) and the ``end_to_end`` (``--trace 0``) or
``per_layer`` (``--trace 1``) metrics named in ``BENCHMARK.json``.  The
lines above it are a readable table that also shows ``gap_ref_err`` and
the failed share of operations.  Bundles, ``report.json`` and
``trace.json`` go to ``.perfbench/<workload>/`` under the repository root.
``--size tiny`` runs the small configs of the smoke test;
``--record-reference`` rewrites ``reference.json`` from the current code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import opcounts
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"
SIZES = ("full", "tiny")
REPLAY_SIZE = "tiny"
BLAS_THREADS = "1"
SETUP_SAMPLES = {"full": 7, "tiny": 2}
BLOCK_EVENTS = 100_000
COMMANDS = ("simulate", "spectrum", "gap", "primitivity")
# Cross-estimator bands of acceptance criteria 6 and 4: the qr gap against
# the Birkhoff estimate at the largest block length, and against the median
# fitted decay rate of the simulate calls.
BIRKHOFF_BAND = 0.10
RATE_BAND = 0.15


@dataclass(frozen=True)
class Workload:
    simulate_calls: dict          # per size
    rate_check: bool              # single-trajectory rates vary by ~14%, so
                                  # the check needs many simulate calls


WORKLOADS = {
    "ring5-lossy": Workload({"full": 32, "tiny": 16}, True),
    "markov-family": Workload({"full": 1, "tiny": 1}, False),
}

# name -> unit; the contract line carries exactly these.
END_TO_END = {
    "setup_s": "s", "verify_s": "s", "simulate_steps_per_s": "1/s",
    "spectrum_steps_per_s": "1/s", "gap_steps_per_s": "1/s",
    "primitivity_samples_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "generators.next_matrix.calls": "count",
    "generators.next_matrix.us_per_call": "us",
    "generators.dense_block.emissions_per_s": "1/s",
    "generators.dense_block.bytes_computed": "B",
    "generators.block_events.events_per_s": "1/s",
    "consensus.run.steps_per_s": "1/s",
    "consensus.run.self_s": "s",
    "consensus.run.envelope_violations": "count",
    "spectrum.estimate_spectrum_qr.replicate_steps_per_s": "1/s",
    "spectrum.estimate_spectrum_qr.self_s": "s",
    "spectrum.estimate_spectrum_qr.qr_calls": "count",
    "spectrum.estimate_spectrum_qr.flops_computed": "flop",
    "spectrum.check_det_identity.steps_per_s": "1/s",
    "spectrum.estimate_sum_top2_wedge.steps_per_s": "1/s",
    "spectrum.estimate_gap_birkhoff.trial_steps_per_s": "1/s",
    "spectrum.estimate_gap_birkhoff.svd_calls": "count",
    "spectrum.estimate_gap_birkhoff.useful_trial_ratio": "ratio",
    "primitivity.is_family_primitive.s": "s",
    "primitivity.is_family_primitive.states_explored": "count",
    "primitivity.sample_forward_indices.samples_per_s": "1/s",
    "primitivity.sample_forward_indices.pattern_products": "count",
    "primitivity.sample_backward_indices.samples_per_s": "1/s",
    "primitivity.sample_backward_indices.pattern_products": "count",
    "config.load_config.s": "s",
    "config.build_process.s": "s",
    "report.bundle.write_s": "s",
    "report.bundle.bytes_written": "B",
    "trace.overhead_s": "s",
}
COUNTS = {k for k, u in PER_LAYER.items() if u in ("count", "B", "flop")}

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gossipgap
from gossipgap.config import load_config
load_config(sys.argv[2]).build_process(int(sys.argv[3])).next_matrix()
setup_s = time.perf_counter() - t0
sys.path.insert(0, sys.argv[4])
import calibrate
print(repr(setup_s), repr(calibrate.kernel_seconds()))
"""


# -- outputs of one pipeline ---------------------------------------------------


@dataclass
class Pipeline:
    seed: int
    wall_s: float = 0.0
    cmd_s: dict = field(default_factory=dict)       # subcommand -> seconds
    cmd_work: dict = field(default_factory=dict)    # subcommand -> steps/samples
    numbers: dict = field(default_factory=dict)     # reported numbers
    ops: list = field(default_factory=list)         # (name, ok, detail)
    kernel_s: list = field(default_factory=list)    # calibration around stages

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append((name, bool(ok), detail))
        return ok


def derive(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from ``seed`` and ``keys``."""
    import numpy as np      # only after load_package has pinned BLAS threads
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def parse_number(text: str) -> float:
    return math.nan if text == "" else float(text)


def read_table(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def read_summary(outdir: Path, prefix: str) -> dict:
    return {r["key"]: r["value"]
            for r in read_table(outdir / f"{prefix}_summary.csv")}


class Bench:
    """One workload at one size: configs, exact counts and the CLI calls."""

    def __init__(self, gg, name: str, size: str, outdir: Path):
        self.gg, self.outdir = gg, outdir
        self.wl = WORKLOADS[name]
        cfg_dir = BENCH / "configs" / size / name
        self.paths = {c: cfg_dir / f"{c}.json"
                      for c in ("simulate", "estimate", "primitivity")}
        self.cfgs = {c: gg.config.load_config(p) for c, p in self.paths.items()}
        self.pinned_seed = self.cfgs["simulate"].process.seed
        est = self.cfgs["estimate"]
        p = est.build_process().p
        self.counts = {"spectrum": opcounts.spectrum_counts(est, p),
                       "gap": opcounts.gap_counts(est, p)}
        self.simulate_calls = self.wl.simulate_calls[size]

    def call(self, pl: Pipeline, cmd: str, cfg: str, seed: int,
             extra=()) -> tuple[Path, str] | None:
        """Run one subcommand; None when it fails (the failure is recorded)."""
        out = self.outdir / cmd
        argv = [cmd, "--config", str(self.paths[cfg]), "--seed", str(seed),
                "--out", str(out), *extra]
        t0 = time.perf_counter()
        try:
            rc = self.gg.cli.main(argv)
        except Exception:          # a crash is a failed operation, not the end
            traceback.print_exc()
            rc = "exception"
        pl.cmd_s[cmd] = pl.cmd_s.get(cmd, 0.0) + time.perf_counter() - t0
        prefix = self.cfgs[cfg].output.prefix
        manifest = out / f"{prefix}_manifest.json"
        ok = (rc == 0 and manifest.exists()
              and self.gg.report.verify_manifest(manifest))
        if not pl.op(f"{cmd}:{seed}", ok, f"exit={rc}"):
            return None
        return out, prefix

    def run(self, seed: int) -> Pipeline:
        pl = Pipeline(seed, kernel_s=[calibrate.kernel_seconds()])
        t0 = time.perf_counter()
        for cmd in COMMANDS:
            getattr(self, f"_{cmd}")(pl)
            pl.kernel_s.append(calibrate.kernel_seconds())
        self._cross_checks(pl)
        pl.wall_s = time.perf_counter() - t0 - sum(pl.kernel_s[1:])
        return pl

    def _simulate(self, pl: Pipeline) -> None:
        n = self.cfgs["simulate"].horizon.n
        for j in range(self.simulate_calls):
            res = self.call(pl, "simulate", "simulate", derive(pl.seed, 1, j))
            if res is None:
                continue
            s = read_summary(*res)
            for key in ("rate_max_ratio_error", "rate_tv"):
                pl.numbers[f"simulate.{j}.{key}"] = parse_number(s[key])
            pl.cmd_work["simulate"] = pl.cmd_work.get("simulate", 0) + n

    def _spectrum(self, pl: Pipeline) -> None:
        res = self.call(pl, "spectrum", "estimate", pl.seed)
        if res is None:
            return
        out, prefix = res
        for row in read_table(out / f"{prefix}_spectrum.csv"):
            pl.numbers[f"spectrum.lambda_{row['i']}"] = parse_number(row["lambda"])
        s = read_summary(out, prefix)
        for key in ("gap", "wedge_sum_top2"):
            pl.numbers[f"spectrum.{key}"] = parse_number(s[key])
        pl.cmd_work["spectrum"] = self.counts["spectrum"]["emissions"]

    def _gap(self, pl: Pipeline) -> None:
        res = self.call(pl, "gap", "estimate", pl.seed, ("--threads", "1"))
        if res is None:
            return
        out, prefix = res
        for row in read_table(out / f"{prefix}_gap.csv"):
            pl.numbers[f"gap.birkhoff_m{row['m']}"] = parse_number(row["birkhoff_gap"])
        s = read_summary(out, prefix)
        pl.numbers["gap.qr_gap"] = parse_number(s["qr_gap"])
        pl.numbers["gap.birkhoff_final"] = parse_number(s["birkhoff_final"])
        pl.cmd_work["gap"] = self.counts["gap"]["emissions"]

    def _primitivity(self, pl: Pipeline) -> None:
        res = self.call(pl, "primitivity", "primitivity", pl.seed)
        if res is None:
            return
        out, prefix = res
        rows = read_table(out / f"{prefix}_indices.csv")
        s = read_summary(out, prefix)
        for key in ("psi_mean", "rho_mean"):
            pl.numbers[f"primitivity.{key}"] = parse_number(s[key])
        pl.numbers["primitivity.pattern_products"] = float(
            sum(int(r["forward_psi"]) + int(r["backward_rho"]) for r in rows))
        pl.cmd_work["primitivity"] = 2 * len(rows)

    def _cross_checks(self, pl: Pipeline) -> None:
        qr = pl.numbers.get("gap.qr_gap", math.nan)
        birk = pl.numbers.get("gap.birkhoff_final", math.nan)
        rel = abs(birk - qr) / qr if qr > 0 else math.nan
        pl.op("check:birkhoff_vs_qr", rel <= BIRKHOFF_BAND,
              f"rel={rel:.4f} band={BIRKHOFF_BAND}")
        if self.wl.rate_check:
            rates = [-v for k, v in pl.numbers.items()
                     if k.endswith(".rate_max_ratio_error") and math.isfinite(v)]
            med = statistics.median(rates) if rates else math.nan
            rel = abs(med - qr) / qr if qr > 0 else math.nan
            pl.op("check:rate_vs_qr", rel <= RATE_BAND,
                  f"rel={rel:.4f} band={RATE_BAND} over {len(rates)} runs")


# -- run phases ------------------------------------------------------------------


def setup_samples(bench: Bench, seed: int, count: int) -> list[tuple]:
    """Fresh-interpreter time to import, load the config and emit once,
    each with the calibration kernel time of that interpreter."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC),
             str(bench.paths["simulate"]), str(seed), str(BENCH)],
            capture_output=True, text=True, timeout=120, check=True)
        setup_s, kernel_s = proc.stdout.strip().splitlines()[-1].split()
        out.append((float(setup_s), float(kernel_s)))
    return out


def block_events_rate(gg, seed: int) -> float:
    """Vectorised push-sum emission floor: ``block_events`` on ring5."""
    proc = gg.acceptance.ring5_process(True, seed=seed)
    rates = []
    for _ in range(9):
        t0 = time.perf_counter()
        proc.block_events(BLOCK_EVENTS)
        rates.append(BLOCK_EVENTS / (time.perf_counter() - t0))
    return statistics.median(rates)


def timed_pipelines(bench: Bench, seed: int, seconds: float, trace: bool):
    """Untraced pipelines (and traced twins with ``trace``) for ``seconds``."""
    plain, traced, tracers = [], [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        s = derive(seed, 0, i)
        plain.append(bench.run(s))
        if trace:
            tr = tracing.Tracer(i)
            tracing.install_probes(tr, bench.gg)
            try:
                traced.append(bench.run(s))
            finally:
                tr.restore()
            tracers.append(tr)
        i += 1
        per_round = statistics.median(p.wall_s for p in plain) \
            + (statistics.median(p.wall_s for p in traced) if trace else 0.0)
        if time.perf_counter() - t_start + per_round > seconds:
            return plain, traced, tracers


def reference_error(numbers: dict, ref: dict) -> tuple[float, str]:
    """Largest relative deviation from the reference (nan matches nan;
    reference ``null`` means nan)."""
    worst, where = 0.0, ""
    for key in sorted(set(numbers) | set(ref)):
        a = numbers.get(key)
        b = ref.get(key, "missing")
        if a is None or b == "missing":
            return math.inf, key
        b = math.nan if b is None else b
        if math.isnan(a) and math.isnan(b):
            continue
        err = abs(a - b) / abs(b) if b != 0 else abs(a)
        if not err <= worst:
            worst, where = (math.inf if math.isnan(err) else err), key
    return worst, where


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "workload_seed": seed}


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def end_to_end(plain: list, setup: list, scale: bool) -> dict:
    """End-to-end metrics; with ``scale`` every time is scaled by the
    calibration kernel timed around it (see ``calibrate.py``)."""
    def t(seconds, kernels):
        return (calibrate.scaled(seconds, statistics.fmean(kernels)) if scale
                else seconds)

    def rate(cmd):      # work completed per second over all pipelines
        i = COMMANDS.index(cmd)
        return (sum(p.cmd_work.get(cmd, 0) for p in plain)
                / sum(t(p.cmd_s[cmd], p.kernel_s[i:i + 2]) for p in plain))
    return {
        "setup_s": statistics.median(t(s, [k]) for s, k in setup),
        "verify_s": statistics.median(t(p.wall_s, p.kernel_s) for p in plain),
        "simulate_steps_per_s": rate("simulate"),
        "spectrum_steps_per_s": rate("spectrum"),
        "gap_steps_per_s": rate("gap"),
        "primitivity_samples_per_s": rate("primitivity"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(bench: Bench, plain, traced, tracers, seed) -> tuple[dict, list]:
    """Per-layer metrics plus the count checks of the traced pipelines."""
    per_pipeline = [tracing.layer_metrics(t) for t in tracers]
    layers = tracing.combine(per_pipeline, COUNTS)
    layers["generators.block_events.events_per_s"] = block_events_rate(
        bench.gg, derive(seed, 2))
    layers["trace.overhead_s"] = statistics.median(
        t.wall_s - p.wall_s for p, t in zip(plain, traced))
    want = {"generators.dense_block.bytes_computed":
            sum(bench.counts[c]["bytes_computed"] for c in ("spectrum", "gap")),
            "spectrum.estimate_spectrum_qr.qr_calls":
            sum(bench.counts[c]["qr_calls"] for c in ("spectrum", "gap")),
            "spectrum.estimate_spectrum_qr.flops_computed":
            sum(bench.counts[c]["flops"] for c in ("spectrum", "gap")),
            "spectrum.estimate_gap_birkhoff.svd_calls":
            bench.counts["gap"]["svd_calls"]}
    first = per_pipeline[0]
    checks = [(f"count:{k}", first[k] == v, f"traced={first[k]} config={v}")
              for k, v in want.items()]
    pp = sum(first[f"primitivity.{n}.pattern_products"]
             for n in ("sample_forward_indices", "sample_backward_indices"))
    out_pp = traced[0].numbers.get("primitivity.pattern_products")
    checks.append(("count:pattern_products", pp == out_pp,
                   f"traced={pp} tables={out_pp}"))
    return layers, checks


def replay(gg, name: str) -> Pipeline:
    """The tiny pipeline of ``name`` on its config's own seed."""
    bench = Bench(gg, name, REPLAY_SIZE, OUT / name / "replay")
    return bench.run(bench.pinned_seed)


def record_reference(gg) -> None:
    doc = {"tolerance": 1e-6, "recorded_on": git_sha(),
           "note": f"numbers of the {REPLAY_SIZE} pipeline on each config's own "
                   "seed; null marks nan", "workloads": {}}
    for name in WORKLOADS:
        pl = replay(gg, name)
        if not all(ok for _, ok, _ in pl.ops):
            raise SystemExit(f"{name}: replay failed: {pl.ops}")
        doc["workloads"][name] = {k: (None if math.isnan(v) else v)
                                  for k, v in sorted(pl.numbers.items())}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_package():
    """Import gossipgap from this checkout's ``src`` (never an installed copy)."""
    if not (SRC / "gossipgap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gossipgap sources under {SRC}")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    os.environ["MKL_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import gossipgap
    import gossipgap.acceptance
    import gossipgap.cli
    if Path(gossipgap.__file__).resolve().parent != SRC / "gossipgap":
        raise SystemExit(f"perfbench: imported {gossipgap.__file__}, not {SRC}")
    return gossipgap


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"# {title}")
    for k, v in metrics.items():
        print(f"  {k:<56} {v:>16.6g} {units[k]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    gg = load_package()
    if args.record_reference:
        record_reference(gg)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    bench = Bench(gg, args.workload, args.size, outdir)
    setup = setup_samples(bench, args.seed, SETUP_SAMPLES[args.size])
    plain, traced, tracers = timed_pipelines(bench, args.seed, args.seconds,
                                             bool(args.trace))
    e2e = end_to_end(plain, setup, scale=True)
    e2e_raw = end_to_end(plain, setup, scale=False)
    ref_run = replay(gg, args.workload)
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    ref_err, ref_key = reference_error(ref_run.numbers,
                                       ref["workloads"][args.workload])
    ops = [op for p in plain + traced + [ref_run] for op in p.ops]
    ops.append(("check:gap_ref_err", ref_err <= ref["tolerance"],
                f"{ref_err:.3g} at {ref_key or '-'} (tol {ref['tolerance']})"))
    layers = {}
    if args.trace:
        layers, count_checks = per_layer(bench, plain, traced, tracers, args.seed)
        ops += count_checks
    failed = [op for op in ops if not op[1]]

    env = environment(args.seed)
    print(f"# gossipgap benchmark: {args.workload} ({args.size}), "
          f"{len(plain)} pipelines, env {json.dumps(env)}")
    print_table("end to end (untraced, scaled to the calibration host speed)",
                e2e, END_TO_END)
    print_table("end to end (untraced, raw)", e2e_raw, END_TO_END)
    print(f"  {'gap_ref_err':<56} {ref_err:>16.6g} ratio (tol {ref['tolerance']})")
    print(f"  {'ops_failed':<56} {len(failed) / len(ops):>16.6g} share of {len(ops)}")
    if args.trace:
        print_table("per layer (traced)", layers, PER_LAYER)
    for name, _, detail in failed:
        print(f"  FAILED {name}: {detail}")

    metrics = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    (outdir / "report.json").write_text(json.dumps({
        "workload": args.workload, "size": args.size, "env": env,
        "end_to_end": e2e, "end_to_end_raw": e2e_raw, "per_layer": layers,
        "gap_ref_err": ref_err, "setup_samples": setup,
        "ops": [{"name": n, "ok": ok, "detail": d} for n, ok, d in ops],
        "pipelines": [{"seed": p.seed, "wall_s": p.wall_s, "cmd_s": p.cmd_s,
                       "cmd_work": p.cmd_work, "kernel_s": p.kernel_s}
                      for p in plain],
        "counts": bench.counts}, indent=1, default=str) + "\n", encoding="utf-8")
    if tracers:
        (outdir / "trace.json").write_text(
            json.dumps([t.to_json() for t in tracers]) + "\n", encoding="utf-8")
    if bad:
        print(f"perfbench: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed),
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
