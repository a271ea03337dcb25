"""Command-line entry points.

Subcommands: ``simulate`` (one consensus trajectory with fitted rates),
``spectrum`` (Lyapunov exponents, wedge cross-check, determinant identity),
``gap`` (Birkhoff block-length sweep against the qr gap), ``primitivity``
(family decision plus forward/backward index statistics) and ``acceptance``
(the full acceptance suite).  Each subcommand imports the estimator
modules it uses when it runs, so ``simulate`` loads none of them.

Exit codes: 0 success, 1 command-line or configuration error or unusable
output location (any ``OSError`` while creating or writing the bundle, or
a bundle of the same prefix that another subcommand wrote), 2 numerical
failure or an allocation the host refuses (``MemoryError``, such as the
``p x p`` arrays of a huge ``process.p``), 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import consensus
from .config import ConfigError, ExperimentConfig, load_config
from .report import ReportBundle

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_ACCEPTANCE = 3


class OutputError(Exception):
    """The output bundle could not be created or written."""


def _check_owner(args, prefix: str) -> None:
    """Refuse a ``--out`` whose ``<prefix>_manifest.json`` another
    subcommand wrote: its summary and manifest would be silently replaced.
    Rerunning the same subcommand overwrites its own bundle."""
    manifest = Path(args.out or Path.cwd()) / f"{prefix}_manifest.json"
    try:
        with open(manifest, encoding="utf-8") as f:
            owner = json.load(f).get("command")
    except FileNotFoundError:
        owner = args.command
    except (ValueError, AttributeError):
        owner = None
    except OSError as e:
        raise OutputError(e) from e
    if owner != args.command:
        raise OutputError(f"{manifest} belongs to another subcommand's "
                          "bundle; use another --out or output.prefix")


def _write_bundle(args, prefix: str, config_echo: dict, tables: dict,
                  summary: dict | None = None) -> None:
    """Write ``tables`` (name -> (header, rows)), the summary and the
    manifest into ``args.out`` (default: the working directory)."""
    _check_owner(args, prefix)      # again: the directory may have changed
    try:
        bundle = ReportBundle(Path(args.out or Path.cwd()), prefix, config_echo,
                              args.command)
        for name, (header, rows) in tables.items():
            bundle.add_table(name, header, rows)
        if summary is not None:
            bundle.add_summary(summary)
        bundle.write_manifest()
    except OSError as e:
        raise OutputError(e) from e


def _try_rate(ns, values) -> float:
    try:
        return consensus.fit_rate(ns, values)
    except ValueError:
        return math.nan


def cmd_simulate(args, cfg: ExperimentConfig) -> int:
    proc = cfg.build_process(args.seed)
    x0, w0 = cfg.build_initial(proc.p)
    h = cfg.horizon
    traj = consensus.run(proc, x0, w0, h.n, checkpoints=consensus.make_checkpoints(
        h.n, h.checkpoints, count=h.count))
    summary = {
        "limit_estimate": traj.limit,
        "column_stochastic": traj.column_stochastic,
        "envelope_violations": traj.envelope_violations,
        "rate_max_ratio_error": _try_rate(traj.ns, traj.max_ratio_error()),
        "rate_tv": _try_rate(traj.ns, traj.tv),
        "final_n": int(traj.ns[-1]),
    }
    _write_bundle(args, cfg.output.prefix, cfg.to_dict(),
                  {"trajectory": (traj.TABLE_HEADER, traj.rows())}, summary)
    if args.verbose:
        print(f"limit={traj.limit:.12g} rate={summary['rate_max_ratio_error']:.6g}")
    return EXIT_OK


def _check_qr_horizon(cfg: ExperimentConfig) -> None:
    """Refuse a horizon the qr estimator would reject, before estimation."""
    n, period = cfg.horizon.n, cfg.estimators.reorth_period
    if n < 10 * period:
        raise ConfigError(f"horizon.n = {n} is below 10 * "
                          f"estimators.reorth_period = {10 * period}")


def cmd_spectrum(args, cfg: ExperimentConfig) -> int:
    from . import spectrum
    proc = cfg.build_process(args.seed)
    e = cfg.estimators
    if e.k > proc.p:
        raise ConfigError(f"estimators.k = {e.k} exceeds the process dimension "
                          f"p = {proc.p}")
    _check_qr_horizon(cfg)
    x0, w0 = cfg.build_initial(proc.p)         # config errors before estimation
    est = spectrum.estimate_spectrum_qr(proc, e.k, cfg.horizon.n,
                                        e.reorth_period, e.replicates, e.burn_in)
    lhs, rhs = spectrum.check_det_identity(
        proc, cfg.horizon.n, replicates=e.replicates,
        reorth_period=e.reorth_period, burn_in=e.burn_in)
    try:
        wedge = spectrum.estimate_sum_top2_wedge(proc, x0, w0, e.wedge_n)
    except ValueError:
        wedge = math.nan
    _write_bundle(args, cfg.output.prefix, cfg.to_dict(), {"spectrum": (
        ("i", "lambda", "stderr"),
        [(i + 1, est.lambdas[i], est.stderr[i]) for i in range(e.k)])}, {
        "gap": est.gap, "gap_stderr": est.gap_stderr,
        "det_identity_lhs": lhs, "det_identity_rhs": rhs,
        "wedge_sum_top2": wedge, "n_steps": est.n_steps,
        "replicates": est.replicates,
    })
    if args.verbose:
        print(f"lambdas={est.lambdas} gap={est.gap:.6g}")
    return EXIT_OK


def cmd_gap(args, cfg: ExperimentConfig) -> int:
    from . import spectrum
    proc = cfg.build_process(args.seed)
    e = cfg.estimators
    if proc.p < 2:
        raise ConfigError(f"gap needs a process dimension p >= 2; got p = {proc.p}")
    if not e.birkhoff_m:
        raise ConfigError("gap needs at least one block length in estimators.birkhoff_m")
    _check_qr_horizon(cfg)
    est = spectrum.estimate_spectrum_qr(proc, 2, cfg.horizon.n,
                                        e.reorth_period, e.replicates, e.burn_in)
    points = []
    for m in sorted(map(int, e.birkhoff_m)):
        g = spectrum.estimate_gap_birkhoff(proc, m, e.trials)
        points.append((m, g.value, g.stderr, g.diagnostics["tau_one_fraction"],
                       g.diagnostics["tau_zero_fraction"]))
    _write_bundle(args, cfg.output.prefix, cfg.to_dict(), {"gap": (
        ("m", "birkhoff_gap", "stderr", "tau_one_fraction", "tau_zero_fraction"),
        points)}, {
        "qr_gap": est.gap, "qr_gap_stderr": est.gap_stderr,
        "birkhoff_final": points[-1][1],
    })
    if args.verbose:
        print(f"qr gap={est.gap:.6g}; birkhoff sweep={[p[1] for p in points]}")
    return EXIT_OK


def cmd_primitivity(args, cfg: ExperimentConfig) -> int:
    from . import primitivity
    proc = cfg.build_process(args.seed)
    rep = primitivity.is_family_primitive(proc.pattern_family())
    if not rep.family_primitive:
        # no emitted product is ever positive, so no index sample can end
        raise RuntimeError(f"the {proc.kind} pattern family is not primitive: "
                           "no product of its members is positive")
    count = cfg.horizon.n
    psi = primitivity.sample_forward_indices(proc.spawn((500, 0)), count)
    rho = primitivity.sample_backward_indices(proc.spawn((500, 1)), count)
    ks = primitivity.ks_distance(psi, rho)
    ks_crit = primitivity.ks_critical_distance(len(psi), len(rho))
    try:
        slope, intercept, corr = primitivity.survival_loglinear_fit(psi)
    except ValueError:
        slope = intercept = corr = math.nan
    _write_bundle(args, cfg.output.prefix, cfg.to_dict(), {"indices": (
        ("sample", "forward_psi", "backward_rho"),
        [(s + 1, int(psi[s]), int(rho[s])) for s in range(count)])}, {
        "family_primitive": rep.family_primitive,
        "witness_word": ("-".join(map(str, rep.witness_word))
                         if rep.witness_word else None),
        "states_explored": rep.states_explored,
        "ks_distance": ks, "ks_critical_1pct": ks_crit,
        "psi_mean": float(psi.mean()), "rho_mean": float(rho.mean()),
        "survival_slope": slope, "survival_corr": corr,
    })
    if args.verbose:
        print(f"primitive={rep.family_primitive} KS={ks:.4f} (crit {ks_crit:.4f})")
    return EXIT_OK


def cmd_acceptance(args, cfg) -> int:
    from . import acceptance
    results = acceptance.run_all(verbose=True)
    if args.out:
        _write_bundle(args, "acceptance", {}, {"criteria": (
            ("id", "name", "passed", "runtime_s", "details"),
            [(r.cid, r.name, r.passed, r.runtime_s, r.details) for r in results])})
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return EXIT_OK if n_fail == 0 else EXIT_ACCEPTANCE


class _Parser(argparse.ArgumentParser):
    def error(self, message):       # usage errors exit 1; 2 means numerical
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache        # one parser per process: building one costs ~1 ms
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="gossipgap",
        description="ratio-consensus simulation and spectral-gap estimation")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, needs_cfg in (
            ("simulate", cmd_simulate, True),
            ("spectrum", cmd_spectrum, True),
            ("gap", cmd_gap, True),
            ("primitivity", cmd_primitivity, True),
            ("acceptance", cmd_acceptance, False)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn, needs_cfg=needs_cfg)
        if needs_cfg:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config base seed")
        p.add_argument("--out", default=None, help="output directory")
        if name in ("gap", "spectrum"):
            p.add_argument("--threads", type=int, default=1,
                           help="ignored; kept for existing command lines")
        p.add_argument("--verbose", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.needs_cfg else None
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if cfg is not None:
            _check_owner(args, cfg.output.prefix)      # before any estimation
        return args.fn(args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as e:
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as e:
        print(f"out of memory: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
