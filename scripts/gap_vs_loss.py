#!/usr/bin/env python3
"""Sweep the packet-loss probability and tabulate the spectral quantities.

For a fixed strongly connected topology, estimates lambda_1, lambda_2, the
gap and the Birkhoff asymptotic gap at each loss level, using coupled seeds
so the monotonicity of lambda_1 in the loss level is visible row by row.

Usage: python scripts/gap_vs_loss.py [--p 5] [--n 50000] [--seed 2024]
                                     [--out gap_vs_loss.csv]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from gossipgap.generators import PushSumConfig, PushSumProcess, ring_with_chords
from gossipgap.report import write_table
from gossipgap.spectrum import estimate_gap_birkhoff, estimate_spectrum_qr


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--n", type=int, default=50_000)
    ap.add_argument("--replicates", type=int, default=8)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--out", default="gap_vs_loss.csv")
    args = ap.parse_args()

    graph = ring_with_chords(args.p)
    rows = []
    for loss in np.linspace(0.0, 0.8, 9):
        proc = PushSumProcess(PushSumConfig.uniform(graph, 0.5, float(loss)),
                              args.seed)
        est = estimate_spectrum_qr(proc, 2, args.n, replicates=args.replicates)
        # m = 256 keeps m*gap inside the entrywise resolution horizon here
        birkhoff = estimate_gap_birkhoff(proc, 256, 128)
        rows.append((float(loss), est.lambdas[0], est.stderr[0],
                     est.lambdas[1], est.stderr[1], est.gap, est.gap_stderr,
                     birkhoff.value, birkhoff.stderr))
        print(f"loss={loss:.2f}  l1={est.lambdas[0]:+.5f}  l2={est.lambdas[1]:+.5f}  "
              f"gap={est.gap:.5f}  birkhoff={birkhoff.value:.5f}")

    write_table(Path(args.out),
                ("loss_prob", "lambda1", "lambda1_stderr", "lambda2",
                 "lambda2_stderr", "gap", "gap_stderr", "birkhoff_gap",
                 "birkhoff_stderr"), rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
