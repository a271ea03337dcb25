#!/usr/bin/env python3
"""Empirical consensus rate against the spectral gap, per topology.

For each topology/loss combination: estimate the gap from the
re-orthonormalized frame method, then fit the almost-sure decay rate of the
worst-node ratio error over replicate trajectories with random initial
pairs.  The two columns should agree (the rate equals minus the gap for
generic initial data).

Usage: python scripts/rate_vs_gap.py [--pairs 16] [--seed 2024]
                                     [--out rate_vs_gap.csv]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from gossipgap.consensus import fit_rate, rate_window, run
from gossipgap.generators import (Digraph, PushSumConfig, PushSumProcess,
                                  complete_digraph, ring, ring_with_chords)
from gossipgap.report import write_table
from gossipgap.spectrum import estimate_spectrum_qr


def topologies():
    yield "ring4", ring(4), 0.2
    yield "ring5_chords", ring_with_chords(5), 0.2
    yield "ring5_chords_heavy_loss", ring_with_chords(5), 0.5
    yield "complete4", complete_digraph(4), 0.3
    yield "two_node", Digraph(2, ((0, 1), (1, 0))), 0.4


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=16)
    ap.add_argument("--n", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--out", default="rate_vs_gap.csv")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = []
    for name, graph, loss in topologies():
        proc = PushSumProcess(PushSumConfig.uniform(graph, 0.5, loss), args.seed)
        est = estimate_spectrum_qr(proc, 2, args.n, replicates=8)
        horizon = int(40.0 / max(est.gap, 1e-3))
        cps = np.arange(1, horizon + 1, max(1, horizon // 400))
        rates = []
        for r in range(args.pairs):
            x0 = rng.uniform(0.05, 1.0, graph.p)
            w0 = rng.uniform(0.05, 1.0, graph.p)
            traj = run(proc.spawn((800, r)), x0, w0, horizon, checkpoints=cps)
            ns, vals = rate_window(traj.ns, traj.max_ratio_error())
            rates.append(fit_rate(ns, vals, window=1.0))
        med = float(np.median(rates))
        rows.append((name, graph.p, loss, est.gap, est.gap_stderr, -med,
                     abs(-med - est.gap) / est.gap))
        print(f"{name:26s} gap={est.gap:.5f}  -rate={-med:.5f}  "
              f"rel dev={abs(-med - est.gap) / est.gap:.3f}")

    write_table(Path(args.out),
                ("topology", "p", "loss_prob", "gap", "gap_stderr",
                 "minus_fitted_rate", "rel_deviation"), rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
