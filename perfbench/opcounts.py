"""Exact operation counts of the CLI subcommands, derived from a config.

Each formula follows the control flow of the estimator it counts, so a
change that alters the work done shows up as a changed count:

* ``frame_run``: one ``spectrum._run_frames`` call as made by
  ``estimate_spectrum_qr``.  Every replicate consumes ``burn_in + n``
  emissions; one stacked ``np.linalg.qr`` runs every ``reorth_period``
  steps and at each phase end.  The flop model counts the ``p x p`` by
  ``p x k`` frame products and a Householder QR of each ``p x k`` frame.
* ``birkhoff``: one ``estimate_gap_birkhoff`` call; ``m * trials``
  emissions and one stacked SVD per ``SEGMENT``-step segment.
"""

from __future__ import annotations

import math

SEGMENT = 16        # segment length of spectrum.estimate_gap_birkhoff
FLOAT_BYTES = 8


def default_burn_in(n: int) -> int:
    """The burn-in ``estimate_spectrum_qr`` uses when none is given."""
    return min(max(n // 10, 100), 10_000)


def frame_run(p: int, k: int, n: int, reorth_period: int, replicates: int,
              burn_in: int | None) -> dict:
    burn = default_burn_in(n) if burn_in is None else int(burn_in)
    qr_calls = (math.ceil(burn / reorth_period) if burn > 0 else 0) \
        + math.ceil(n / reorth_period)
    steps = replicates * (burn + n)
    flops = steps * 2 * p * p * k \
        + replicates * qr_calls * (2 * p * k * k - 2 * k ** 3 / 3)
    return {"replicate_steps": steps, "qr_calls": qr_calls,
            "flops": int(round(flops))}


def birkhoff(m: int, trials: int) -> dict:
    return {"trial_steps": m * trials, "svd_calls": math.ceil(m / SEGMENT)}


def dense_bytes(p: int, emissions: int) -> int:
    """Bytes of the ``(m, p, p)`` float blocks ``dense_block`` returns."""
    return emissions * p * p * FLOAT_BYTES


def spectrum_counts(cfg, p: int) -> dict:
    """``cmd_spectrum``: qr at ``k``, the determinant walk, qr at ``k = p``
    inside ``check_det_identity``, and the wedge run.  All emissions come
    from ``dense_block``."""
    e, n = cfg.estimators, cfg.horizon.n
    qr_k = frame_run(p, e.k, n, e.reorth_period, e.replicates, e.burn_in)
    qr_p = frame_run(p, p, n, e.reorth_period, e.replicates, e.burn_in)
    emissions = qr_k["replicate_steps"] + n + qr_p["replicate_steps"] + e.wedge_n
    return {"emissions": emissions,
            "qr_replicate_steps": qr_k["replicate_steps"] + qr_p["replicate_steps"],
            "det_steps": n + qr_p["replicate_steps"],
            "wedge_steps": e.wedge_n,
            "qr_calls": qr_k["qr_calls"] + qr_p["qr_calls"],
            "flops": qr_k["flops"] + qr_p["flops"],
            "bytes_computed": dense_bytes(p, emissions)}


def gap_counts(cfg, p: int) -> dict:
    """``cmd_gap``: qr at ``k = min(2, p)`` plus the Birkhoff sweep."""
    e, n = cfg.estimators, cfg.horizon.n
    qr = frame_run(p, min(2, p), n, e.reorth_period, e.replicates, e.burn_in)
    sweep = [birkhoff(int(m), e.trials) for m in e.birkhoff_m]
    trial_steps = sum(b["trial_steps"] for b in sweep)
    emissions = qr["replicate_steps"] + trial_steps
    return {"emissions": emissions,
            "qr_replicate_steps": qr["replicate_steps"],
            "trial_steps": trial_steps,
            "qr_calls": qr["qr_calls"],
            "flops": qr["flops"],
            "svd_calls": sum(b["svd_calls"] for b in sweep),
            "bytes_computed": dense_bytes(p, emissions)}
