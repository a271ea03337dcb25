"""Numerical estimation of the Lyapunov spectrum of a matrix cocycle.

The main estimator propagates an orthonormal ``k``-frame through the
product ``A_n ... A_1``, re-orthonormalizing every ``reorth_period`` steps
via QR and accumulating the log-diagonal of the triangular factor; the
per-column averages converge to the top ``k`` Lyapunov exponents (the
asymptotic growth rates of the product's singular values).  Replicates run
on independent derived streams and are propagated by one stacked matmul per
step and re-orthonormalized by one stacked QR per QR step; the logs and
running sums of the triangular diagonals are taken once per 512-step
block, in the same addition order, so no single replicate's arithmetic
path changes.  A QR step is one raw ``np.linalg.qr`` followed by the
orgqr gufunc that ``np.linalg.qr`` itself calls to form ``Q``: the same
LAPACK calls, so the results are those of ``np.linalg.qr`` bit for bit,
without the wrapper's overhead or its error state (the gufunc clears the
floating-point status itself), and still one ``np.linalg.qr`` per step.

A burn-in window (not counted in the averages) lets the frame align with
the top Oseledec directions first; without it the alignment transient
contributes an ``O(1/n)`` bias to the exponents.

No raw product of more than ``reorth_period`` factors is ever formed in
the frame method, and all magnitudes are tracked through log-scale
accumulators, so estimates stay finite for any horizon.  The wedge
estimate of ``lambda_1 + lambda_2`` forms products of up to 512 steps,
each certified against a rounding budget before it is used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .core import birkhoff_phi, log_tau_from_phi, wedge_magnitude
from .generators import MatrixProcess

__all__ = [
    "SpectrumEstimate",
    "GapEstimate",
    "estimate_spectrum_qr",
    "estimate_sum_top2_wedge",
    "estimate_gap_birkhoff",
    "check_det_identity",
]

# Stream namespaces for replicate spawning; distinct leading components keep
# estimator draws independent of each other and of the caller's own stream.
_QR_STREAM = 1
_WEDGE_STREAM = 2
_BIRKHOFF_STREAM = 3
_DET_STREAM = 6

_BLOCK = 512
_WEDGE_BUDGET = 10.0                   # nats of log |M|_F^2 - log s per wedge product
_BIRKHOFF_SEGMENT = 16                 # steps between re-factorizations
_BIRKHOFF_BUFFER_BYTES = 2 << 20       # cap on the emission buffer and the phi spread


@dataclass
class SpectrumEstimate:
    """Replicate-averaged Lyapunov exponents (natural log per step)."""

    lambdas: np.ndarray        # (k,) replicate means, non-increasing up to noise
    stderr: np.ndarray         # (k,) of the means; nan with < 2 finite samples
    gap: float                 # mean of the replicate gaps; nan when undefined
                               # (-inf - -inf in a replicate) or k == 1
    gap_stderr: float
    n_steps: int
    replicates: int
    samples: np.ndarray        # (replicates, k) per-replicate estimates


@dataclass
class GapEstimate:
    """A spectral-gap estimate with its fit diagnostics."""

    value: float               # 0 if no trial is positive; nan if all saturated
    stderr: float              # nan with fewer than two finite trial values
    diagnostics: dict = field(default_factory=dict)


def _mean_stderr(samples: np.ndarray):
    """Standard error of the mean of ``samples`` along axis 0.  It is
    undefined, and nan, with fewer than two finite samples: one replicate,
    no trial, or a non-finite sample (whose deviation is nan)."""
    n = len(samples)
    if n < 2:
        return np.full(samples.shape[1:], math.nan)
    with np.errstate(invalid="ignore"):
        return samples.std(axis=0, ddof=1) / math.sqrt(n)


def _qr_step(Q: np.ndarray):
    """``(q, diag r)`` of the reduced QR of the ``(R, p, k)`` stack ``Q``,
    bit for bit as ``np.linalg.qr(Q)`` gives them.

    One raw ``np.linalg.qr`` (LAPACK geqrf) leaves the Householder
    reflectors, with ``r`` on and above their diagonal, in ``h``; ``q`` is
    formed from them by the orgqr gufunc that ``np.linalg.qr`` itself calls.
    This skips the wrapper's ``triu`` of ``r``, dtype casts, result wrapping
    and its ``errstate`` around the gufunc, which is not needed: the gufunc
    clears the floating-point status itself (inf and NaN only propagate),
    and its one error, an illegal argument, cannot follow geqrf's success
    on the same stack.  The returned diagonal is a view into ``h``.
    """
    h, tau = np.linalg.qr(Q, mode="raw")
    a = h.swapaxes(-1, -2)
    return (_umath_linalg.qr_reduced(a, tau, signature="dd->d"),
            a.diagonal(0, 1, 2))


def _run_frames(procs, k: int, n_count: int, reorth_period: int,
                burn_in: int, record=None):
    """Propagate stacked orthonormal frames and accumulate log growth.

    Returns ``(acc, snapshots)`` where ``acc`` is the ``(R, k)`` log-growth
    accumulated over the counted window and ``snapshots`` maps each recorded
    counted-step index in ``[1, n_count]`` to a copy of ``acc`` at that step
    (other record points are ignored).  A QR runs every ``reorth_period``
    steps since the last one and is forced at the burn-in boundary, at
    every recorded step and at the end, so accumulation windows split
    exactly.

    The step loop does only the matmul and, on a QR step, ``_qr_step``
    (``np.linalg.qr`` bit for bit, without its wrapper's overhead, and
    still one ``np.linalg.qr`` call per QR) and a copy of ``r``'s
    diagonal.  Per 512-step block the schedule is
    computed up front, and the logs of the counted diagonals are summed by one
    sequential ``cumsum`` that starts from ``acc``, so ``acc`` and the
    snapshots read from it equal a step-by-step ``acc += log|diag r|``
    bit for bit.  A zero diagonal (the frame's rank collapsed below ``k``)
    leaves ``-inf`` in ``acc``; it is reported by one warning at the end.
    """
    R = len(procs)
    p = procs[0].p
    total = burn_in + n_count
    record = sorted({r for r in map(int, () if record is None else record)
                     if 0 < r <= n_count})
    # forced QR steps, numbered over the whole run; periodic QRs restart at each
    marks = np.array(sorted({0, burn_in, total, *(burn_in + r for r in record)}))
    Q = np.ascontiguousarray(np.broadcast_to(np.eye(p)[:, :k], (R, p, k)))
    acc = np.zeros((R, k))
    snapshots: dict[int, np.ndarray] = {}
    diag = np.empty((_BLOCK, R, k))     # r's diagonal at each QR of a block
    done = 0
    while done < total:
        m = min(_BLOCK, total - done)
        stacked = np.stack([pr.dense_block(m) for pr in procs], axis=1)
        t = np.arange(done + 1, done + m + 1)
        nxt = np.searchsorted(marks, t)
        is_qr = (marks[nxt] == t) | ((t - marks[nxt - 1]) % reorth_period == 0)
        j = 0
        for A, qr_step in zip(stacked, is_qr.tolist()):
            Q = np.matmul(A, Q)
            if qr_step:
                Q, diag[j] = _qr_step(Q)
                j += 1
        counted = t[is_qr] - burn_in
        counted = counted[counted > 0]          # a suffix of the block's QRs
        if len(counted):
            run = diag[j - len(counted):j]
            with np.errstate(divide="ignore"):
                np.log(np.abs(run, out=run), out=run)
            # row i becomes acc after i + 1 steps of `acc += log`: addition
            # commutes, and cumsum adds sequentially in step order
            run[0] += acc
            np.cumsum(run, axis=0, out=run)
            acc = run[-1].copy()
            if record:
                for i in np.flatnonzero(np.isin(counted, record)):
                    snapshots[int(counted[i])] = run[i].copy()
        done += m
    if np.isneginf(acc).any():
        warnings.warn("frame rank collapsed below k; affected exponents are "
                      "reported as -inf")
    return acc, snapshots


def estimate_spectrum_qr(proc: MatrixProcess, k: int, n: int,
                         reorth_period: int = 1, replicates: int = 16,
                         burn_in: int | None = None) -> SpectrumEstimate:
    """Top ``k`` Lyapunov exponents by the re-orthonormalized frame method.

    ``n`` counted steps follow ``burn_in`` uncounted alignment steps
    (default ``min(max(n // 10, 100), 10_000)``).  The passed process acts
    as a prototype: each replicate runs on an independent stream derived
    from the process seed, so results are deterministic per seed and do not
    consume the caller's stream.
    """
    if not 1 <= k <= proc.p:
        raise ValueError(f"k must lie in [1, p]; got k={k}, p={proc.p}")
    if reorth_period < 1:
        raise ValueError("reorth_period must be >= 1")
    if n < 10 * reorth_period:
        raise ValueError(f"n too small: need n >= 10*reorth_period = {10 * reorth_period}")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if burn_in is None:
        burn_in = min(max(n // 10, 100), 10_000)

    procs = [proc.spawn((_QR_STREAM, r)) for r in range(replicates)]
    acc, _ = _run_frames(procs, k, n, reorth_period, burn_in)
    samples = acc / n
    lambdas = samples.mean(axis=0)
    stderr = _mean_stderr(samples)
    if k >= 2:
        with np.errstate(invalid="ignore"):
            gaps = samples[:, 0] - samples[:, 1]
            gap = float(gaps.mean())
        gap_stderr = float(_mean_stderr(gaps))
    else:
        gap, gap_stderr = math.nan, math.nan
    return SpectrumEstimate(lambdas, stderr, gap, gap_stderr, n, replicates, samples)


def _step_products(steps: np.ndarray, P: int) -> np.ndarray:
    """Products of the consecutive ``P``-step runs of the step-major
    ``(m, ..., p, p)`` block ``steps``, later factors on the left, as an
    ``(ceil(m / P), ..., p, p)`` stack.  ``P`` is a power of two; a short
    last run is padded with identities, which multiply exactly.  Each run
    is reduced by a pairwise tree, one batched matmul per level."""
    pad = -len(steps) % P
    if pad:
        eye = np.broadcast_to(np.eye(steps.shape[-1]), (pad, *steps.shape[1:]))
        steps = np.concatenate([steps, eye])
    c = steps.reshape(-1, P, *steps.shape[1:])
    while c.shape[1] > 1:
        c = c[:, 1::2] @ c[:, ::2]
    return c[:, 0]


def estimate_sum_top2_wedge(proc: MatrixProcess, x, w, n: int) -> float:
    """Estimate ``lambda_1 + lambda_2`` from the growth of ``M_n x ^ M_n w``.

    The wedge is carried as the antisymmetric matrix ``x w^T - w x^T``,
    renormalized after every update, and the log growth factors are summed
    exactly (``math.fsum``), so the estimate neither under- nor overflows
    and loses no digits over long runs, even when the two trajectories
    become numerically collinear.  Accuracy is ``O(1/n)``; use ``n`` of at
    least a thousand steps.

    Each 512-step ``dense_block`` draw is reduced to products ``M`` of ``P``
    consecutive steps (``_step_products``), and the wedge takes one
    ``M . M^T`` conjugation per product, keeping only its antisymmetric
    part.  Each ``M`` is first scaled by a power of two, which is exact,
    so that the conjugation can neither over- nor underflow; the exponent
    goes into the log sum as an integer.  Rounding leaves a symmetric
    residue of about ``eps |M|_F^2`` against the wedge growth ``s`` of the
    product, so a product is certified before it is accepted:
    ``log |M|_F^2 - log s`` (at least ``log(s_1/s_2)`` of ``M``) must stay
    within ``_WEDGE_BUDGET`` nats.  A product that fails, overflows or
    gives ``s = 0`` halves ``P`` and the rest of the draw is redone from
    the copy in memory; a draw whose products all stay within half the
    budget doubles ``P`` for the next one (at most 512).  At ``P = 1`` the
    update is the per-step conjugation, so a collapsed wedge is reported at
    the step where it happens.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != w.shape or x.ndim != 1 or len(x) != proc.p:
        raise ValueError("initial vectors must be p-vectors")
    if n < 1:
        raise ValueError("n must be >= 1")
    mag0 = wedge_magnitude(x, w)
    if mag0 == 0.0:
        raise ValueError("collinear trajectory: initial pair has zero wedge")
    omega = (np.outer(x, w) - np.outer(w, x)) / mag0
    logs = [math.log(mag0)]             # summed exactly by fsum at the end
    twos = 0                            # plus twos * log 2 from the scalings
    pr = proc.spawn((_WEDGE_STREAM, 0))
    sqrt8 = math.sqrt(8.0)
    P = _BLOCK
    done = 0
    while done < n:
        blk = pr.dense_block(min(_BLOCK, n - done))
        lo, worst = 0, -math.inf
        while lo < len(blk):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                Ms = _step_products(blk[lo:], P)
                # exact power-of-two scaling: largest entry of each M in [1/2, 1)
                shifts = np.frexp(np.abs(Ms).max(axis=(1, 2)))[1]
                Ms = np.ldexp(Ms, -shifts[:, None, None])
                lognorms = np.log(np.einsum("kij,kij->k", Ms, Ms)).tolist()
                for M, lognorm, shift in zip(Ms, lognorms, shifts.tolist()):
                    m = M @ omega @ M.T
                    om = m - m.T                    # twice the antisymmetric part
                    v = om.ravel()
                    s = math.sqrt(float(v @ v)) / sqrt8     # wedge magnitude of m
                    excess = (lognorm - math.log(s) if 0.0 < s < math.inf
                              else math.inf)
                    if not excess <= _WEDGE_BUDGET and P > 1:
                        P //= 2
                        break
                    if not 0.0 < s < math.inf:
                        raise ValueError("collinear trajectory: wedge collapsed to zero"
                                         if s == 0.0 else "wedge growth is not finite")
                    worst = max(worst, excess)
                    omega = om / (2.0 * s)
                    logs.append(math.log(s))
                    twos += 2 * shift
                    lo += P
        if worst <= _WEDGE_BUDGET / 2 and P < _BLOCK:
            P *= 2
        done += len(blk)
    return (math.fsum(logs) + twos * math.log(2.0)) / n


def _phis_from_factors(U: np.ndarray, lognorm: np.ndarray,
                       Vh: np.ndarray) -> np.ndarray:
    """Projective row spread ``phi`` of each positive ``M = U diag(exp(lognorm))
    Vh`` of a stack of trials' factors.

    Writing ``M_ik = s_1 u_i v_k (1 + d_ik)`` with the rank->=2 corrections
    ``d_ik``, the spread over ``k`` of ``log M_ik - log M_jk`` equals the
    spread of ``log1p(d_ik) - log1p(d_jk)`` (the Perron part is independent
    of ``k`` and cancels), so the result keeps full precision even when the
    corrections sit hundreds of nats below the leading term.  This path is
    vectorised over trials, chunked so that the ``(trials, p, p, p)``
    spread stays under ``_BIRKHOFF_BUFFER_BYTES``.  A trial whose Perron
    factors are not strictly one-signed, or with some ``1 + d_ik <= 0``,
    takes the entrywise scan of ``birkhoff_phi`` on ``M`` instead."""
    T, p = lognorm.shape
    u1, v1 = U[:, :, 0], Vh[:, 0, :]
    flip = np.all(u1 < 0, axis=1, keepdims=True)
    u1, v1 = np.where(flip, -u1, u1), np.where(flip, -v1, v1)
    fast = ~(np.any(u1 <= 0, axis=1) | np.any(v1 <= 0, axis=1))
    phi = np.empty(T)
    chunk = max(1, _BIRKHOFF_BUFFER_BYTES // (p ** 3 * 8))
    todo = np.flatnonzero(fast)
    for lo in range(0, len(todo), chunk):
        sel = todo[lo:lo + chunk]
        eps = np.exp(lognorm[sel, 1:])
        delta = (((U[sel, :, 1:] * eps[:, None, :]) @ Vh[sel, 1:, :])
                 / (u1[sel, :, None] * v1[sel, None, :]))
        ok = ~np.any(1.0 + delta <= 0.0, axis=(1, 2))
        fast[sel[~ok]] = False
        t = np.log1p(delta[ok])
        dmax = (t[:, :, None, :] - t[:, None, :, :]).max(axis=3)
        phi[sel[ok]] = (dmax + dmax.transpose(0, 2, 1)).max(axis=(1, 2))
    for i in np.flatnonzero(~fast):
        phi[i] = birkhoff_phi((U[i] * np.exp(lognorm[i])) @ Vh[i])
    return phi


def _birkhoff_draw_len(trials: int, p: int) -> int:
    """Steps drawn per trial per ``dense_block`` call: the largest multiple
    of the segment length whose ``(trials, steps, p, p)`` buffer fits in
    ``_BIRKHOFF_BUFFER_BYTES``; never below one segment."""
    fit = _BIRKHOFF_BUFFER_BYTES // (trials * p * p * 8)
    return max(_BIRKHOFF_SEGMENT, fit - fit % _BIRKHOFF_SEGMENT)


def _segment_products(steps: np.ndarray, patterns: bool):
    """Products ``C`` (later factors on the left) and 0/1 patterns ``P``
    (clipped products of the step patterns, i.e. boolean products) of the
    consecutive 16-step runs of the trial-major ``(T, n * 16, p, p)``
    ``steps``, each segment-major ``(n, T, p, p)``: one batched matmul per
    step position, on a strided view whose matrices are each contiguous.
    ``P`` is None, and no pattern is formed, unless ``patterns``."""
    T, _, p, _ = steps.shape
    runs = steps.reshape(T, -1, _BIRKHOFF_SEGMENT, p, p).swapaxes(0, 1)
    C = np.ascontiguousarray(np.broadcast_to(np.eye(p), runs[:, :, 0].shape))
    P = C.copy() if patterns else None
    for s in range(_BIRKHOFF_SEGMENT):
        A = runs[:, :, s]
        C = A @ C
        if patterns:
            P = np.minimum((A > 0).astype(float) @ P, 1.0)
    return C, P


def estimate_gap_birkhoff(proc: MatrixProcess, m: int, trials: int) -> GapEstimate:
    """Gap lower-bound estimate ``-(1/m) mean log tau(M_m)`` over trials.

    Each trial draws an independent length-``m`` product (renormalized per
    step).  Trials whose product still has zero entries contribute
    ``tau = 1`` and are excluded from the mean; their fraction is reported
    in the diagnostics (at small ``m`` the exclusion biases the mean, so
    push ``m`` up until the fraction is negligible).  As ``m`` grows the
    estimate increases toward the spectral gap.

    The product is never formed entrywise: each trial is carried in
    factored singular form ``U diag(exp(lognorm)) Vh`` (re-factored every
    16 steps, log-scale norms), and ``phi`` is evaluated from the factors
    through ``log1p`` so contractions hundreds of nats deep stay resolved.
    A trial whose second singular direction underflows entirely
    (``m * gap`` beyond ~700 nats) is censored and counted in
    ``tau_zero_fraction``; the estimate is nan if every positive trial is
    censored.

    All trials draw the member indices of up to ``p**2`` buffer lengths of
    steps in one ``proc.draw_ahead_lanes`` call (so the indices of all trials
    take no more memory than the buffer; a Markov family walks the chains
    of all trials together), then each trial builds its emissions through
    ``dense_block`` in runs of as many whole 16-step segments as fit a
    trial-major ``(trials, steps, p, p)`` buffer of about 2 MiB (at least
    one segment), so each block is one contiguous copy.  The 16-step
    products and patterns of all segments of a draw are formed together,
    one batched matmul per step position (a short last segment is padded
    with identities, which multiply exactly), and then folded into the
    factors segment by segment; ``phi`` is evaluated
    for all positive trials at once.  Once every trial's running pattern
    is all-true and every member is row-allowable, no more patterns are
    formed: an all-true pattern times a row-allowable one stays all-true.
    None of this changes a result: every trial's stream and every
    segment's arithmetic are those of one draw per segment and a
    step-by-step product.
    """
    if proc.p < 2:
        raise ValueError("gap estimation needs p >= 2")
    if m < 1:
        raise ValueError("block length m must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    T, p = int(trials), proc.p
    procs = [proc.spawn((_BIRKHOFF_STREAM, m, t)) for t in range(T)]
    U = np.ascontiguousarray(np.broadcast_to(np.eye(p), (T, p, p)))
    Vh = U.copy()
    lognorm = np.zeros((T, p))
    pat = U.copy()                      # 0/1 pattern of the running product
    # every member has a positive entry in every row
    row_allowable = bool(proc.pattern_family().any(axis=2).all())
    track = True                        # pat may still gain a true entry
    draw_len = _birkhoff_draw_len(T, p)
    run = p * p * draw_len              # steps per draw_ahead: indices <= buf bytes
    # trial-major, buf[t] is one trial's steps; whole segments, padded past m
    buf = np.empty((T, min(draw_len, m + -m % _BIRKHOFF_SEGMENT), p, p))
    for done in range(0, m, draw_len):
        drawn = min(draw_len, m - done)
        if done % run == 0:
            proc.draw_ahead_lanes(procs, min(run, m - done))
        for t, pr in enumerate(procs):
            buf[t, :drawn] = pr.dense_block(drawn)
        end = drawn + -drawn % _BIRKHOFF_SEGMENT
        buf[:, drawn:end] = np.eye(p)
        Cs, Ps = _segment_products(buf[:, :end], track)
        for s, C in enumerate(Cs):
            if track:
                pat = np.minimum(Ps[s] @ pat, 1.0)
                track = not (row_allowable and pat.all())
            B = (C @ U) * np.exp(lognorm)[:, None, :]
            U, sv, wh = np.linalg.svd(B)
            with np.errstate(divide="ignore"):
                lognorm = np.log(sv) - np.log(sv[:, :1])
            Vh = wh @ Vh
    positive = np.count_nonzero(pat, axis=(1, 2)) == p * p
    phis = _phis_from_factors(U[positive], lognorm[positive], Vh[positive])
    vals = [-log_tau_from_phi(phi) / m for phi in phis.tolist() if phi != 0.0]
    n_tau_one = T - len(phis)
    n_tau_zero = len(phis) - len(vals)
    diagnostics = {"m": m, "trials": T,
                   "tau_one_fraction": n_tau_one / T,
                   "tau_zero_fraction": n_tau_zero / T}
    if n_tau_zero and not vals:
        warnings.warn(f"all positive trials saturated float resolution at m={m}; "
                      "reduce m")
        diagnostics["flag"] = "reduce m"
        return GapEstimate(math.nan, math.nan, diagnostics)
    if not vals:
        warnings.warn(f"all {T} trials had tau = 1 at m={m}; increase m")
        diagnostics["flag"] = "increase m"
        return GapEstimate(0.0, math.nan, diagnostics)
    arr = np.array(vals)
    return GapEstimate(float(arr.mean()), float(_mean_stderr(arr)), diagnostics)


def check_det_identity(proc: MatrixProcess, n: int, qr_n: int | None = None,
                       replicates: int = 16, reorth_period: int = 1,
                       burn_in: int | None = None) -> tuple[float, float]:
    """Compare ``(1/n) sum log|det A_k|`` against the summed qr exponents.

    Returns ``(lhs, rhs)``.  The two sides estimate the same quantity (the
    sum of all Lyapunov exponents equals the expected log determinant
    magnitude of one factor); ``lhs`` is ``-inf`` as soon as a singular
    emission occurs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pr = proc.spawn((_DET_STREAM, 0))
    total = 0.0
    done = 0
    singular = False
    while done < n and not singular:
        blk = pr.dense_block(min(_BLOCK, n - done))
        sign, ld = np.linalg.slogdet(blk)
        if np.any(sign == 0):
            singular = True
        else:
            total += float(ld.sum())
        done += len(blk)
    lhs = -math.inf if singular else total / n
    est = estimate_spectrum_qr(proc, proc.p, qr_n if qr_n is not None else n,
                               reorth_period, replicates, burn_in)
    return lhs, float(est.lambdas.sum())
