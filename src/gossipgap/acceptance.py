"""Acceptance suite: exact oracles, cross-estimator agreement, statistics.

Each criterion is a function returning a :class:`CriterionResult`; the
suite is deterministic (all seeds fixed) and prints one pass/fail line per
criterion when run through the CLI or the test module.  Criteria with a
stated runtime budget include the timing in the pass condition.

Aggregation conventions for the statistical criteria: empirical decay
rates are fitted per replicate trajectory on the informative window (see
``consensus.rate_window``) and summarized by the median (for relative
agreement bands) or by the replicate mean with its standard error (for
one-sided bounds).  Single-trajectory slopes fluctuate at the 10-30% level,
so the replicate aggregate is what the bands are checked against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import consensus, primitivity, spectrum
from .core import birkhoff_tau, hilbert_distance, tv_distance
from .generators import (ConstantProcess, Digraph, IIDFamilyProcess,
                         MarkovFamilyProcess, PushSumConfig, PushSumProcess,
                         push_sum_matrix, ring_with_chords)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    runtime_s: float
    details: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.cid:2d} ({self.runtime_s:6.1f}s): {self.name} -- {self.details}"


# -- pinned configurations ---------------------------------------------------

SEED = 2024


def ring5_process(loss: bool, seed: int = SEED) -> PushSumProcess:
    """5-node directed ring + chords; per-edge losses alternate 0.1/0.3."""
    g = ring_with_chords(5)
    ne = len(g.edges)
    lp = tuple((0.1 if k % 2 == 0 else 0.3) for k in range(ne)) if loss else 0.0
    return PushSumProcess(PushSumConfig.uniform(g, 0.5, lp), seed)


def p4_process(seed: int = 11) -> PushSumProcess:
    g = ring_with_chords(4, chords=((0, 2),))
    return PushSumProcess(PushSumConfig.uniform(g, 0.5, (0.0, 0.2, 0.4, 0.1, 0.3)), seed)


def p2_process(loss: float, seed: int = 77) -> PushSumProcess:
    g = Digraph(2, ((0, 1), (1, 0)))
    return PushSumProcess(PushSumConfig.uniform(g, 0.5, loss), seed)


CONSTANT_2x2 = np.array([[0.5, 0.25], [0.5, 0.75]])


class _Context:
    """Caches the expensive spectrum runs shared by several criteria."""

    def __init__(self):
        self._cache = {}

    def spectrum(self, key, proc, k, n):
        if key not in self._cache:
            self._cache[key] = spectrum.estimate_spectrum_qr(proc, k, n, replicates=16)
        return self._cache[key]


def _fitted_rates(proc, pairs, horizon: int, use_tv: bool = False,
                  stream_base: int = 400) -> np.ndarray:
    """Fit the empirical decay rate on replicate trajectories."""
    spacing = max(1, horizon // 400)
    cps = np.arange(1, horizon + 1, spacing)
    rates = []
    for r, (x0, w0) in enumerate(pairs):
        pr = proc.spawn((stream_base, r))
        traj = consensus.run(pr, x0, w0, horizon, checkpoints=cps)
        series = traj.tv if use_tv else traj.max_ratio_error()
        ns, vals = consensus.rate_window(traj.ns, series)
        rates.append(consensus.fit_rate(ns, vals))
    return np.array(rates)


def _random_pairs(count, p, rng):
    out = []
    for _ in range(count):
        x0 = rng.uniform(0.05, 1.0, p)
        w0 = rng.uniform(0.05, 1.0, p)
        out.append((x0, w0))
    return out


# -- criteria ----------------------------------------------------------------


def criterion_1(ctx: _Context) -> CriterionResult:
    """Constant-matrix spectrum against the eigenvalue oracle."""
    t0 = time.perf_counter()
    proc = ConstantProcess(CONSTANT_2x2, seed=0)
    est = ctx.spectrum("const2", proc, 2, 10_000)
    ev = np.sort(np.abs(np.linalg.eigvals(CONSTANT_2x2)))[::-1]
    oracle = np.log(ev)
    dt = time.perf_counter() - t0
    err1 = abs(est.lambdas[0] - oracle[0])
    err2 = abs(est.lambdas[1] - oracle[1])
    ok = err1 <= 1e-6 and err2 <= 1e-3 and dt < 1.0
    return CriterionResult(1, "constant-matrix spectrum oracle", ok, dt,
                           f"|l1-0|={err1:.2e} (tol 1e-6), |l2-log .25|={err2:.2e} "
                           f"(tol 1e-3), runtime<1s={dt < 1.0}")


def criterion_2(ctx: _Context) -> CriterionResult:
    """Determinant identity for the half-share protocol."""
    t0 = time.perf_counter()
    proc = p4_process()
    probe = proc.spawn((900, 0))
    # a singular emission has log|det| = -inf: an infinite deviation
    _, logdets = np.linalg.slogdet(probe.dense_block(2000))
    max_dev = float(np.max(np.abs(logdets + math.log(2.0))))
    lhs, rhs = spectrum.check_det_identity(proc, 100_000, replicates=16)
    dt = time.perf_counter() - t0
    ok = (max_dev <= 1e-13 and abs(lhs + math.log(2.0)) <= 1e-13
          and abs(rhs + math.log(2.0)) <= 0.02 and dt < 30.0)
    return CriterionResult(2, "determinant identity (sum of exponents)", ok, dt,
                           f"per-step max|logdet+log2|={max_dev:.1e}, lhs={lhs:.6f}, "
                           f"sum(lambda)={rhs:.6f} (tol 0.02), runtime<30s={dt < 30.0}")


def criterion_3(ctx: _Context) -> CriterionResult:
    """Column-stochastic case: exact limit and rate bounded by lambda_2."""
    t0 = time.perf_counter()
    proc = ring5_process(loss=False)
    est = ctx.spectrum("ring5_noloss", proc, 2, 100_000)
    rng = np.random.default_rng(31)
    x0 = rng.uniform(0.05, 1.0, 5)
    traj = consensus.run(proc.spawn((300, 0)), x0, np.ones(5), 10_000)
    limit_err = abs(traj.limit - x0.mean())
    mid_err = abs(traj.mid[-1] - x0.mean())
    pairs = [(rng.uniform(0.05, 1.0, 5), np.ones(5)) for _ in range(8)]
    horizon = int(40.0 / max(est.gap, 1e-3))
    rates = _fitted_rates(proc, pairs, horizon, stream_base=310)
    mean_rate = rates.mean()
    se = math.sqrt(rates.std(ddof=1) ** 2 / len(rates) + est.stderr[1] ** 2)
    lam2 = est.lambdas[1]
    ok = (limit_err <= 1e-8 and mid_err <= 1e-8
          and mean_rate <= lam2 + 3 * se and lam2 < 0)
    dt = time.perf_counter() - t0
    return CriterionResult(3, "column-stochastic limit and rate bound", ok, dt,
                           f"|limit-mean|={limit_err:.1e}, |midpoint-mean|={mid_err:.1e} "
                           f"(tol 1e-8), rate={mean_rate:.4f} <= l2+3se={lam2 + 3 * se:.4f}")


def criterion_4(ctx: _Context) -> CriterionResult:
    """Tightness: ratio-error decay matches the spectral gap within 15%."""
    t0 = time.perf_counter()
    proc = ring5_process(loss=True)
    est = ctx.spectrum("ring5_lossy", proc, 2, 100_000)
    rng = np.random.default_rng(5)
    pairs = _random_pairs(16, 5, rng)
    horizon = int(40.0 / max(est.gap, 1e-3))
    rates = _fitted_rates(proc, pairs, horizon, stream_base=410)
    med = float(np.median(rates))
    rel = abs(med + est.gap) / est.gap
    dt = time.perf_counter() - t0
    ok = rel <= 0.15 and dt < 120.0
    return CriterionResult(4, "ratio-error rate tightness (15%)", ok, dt,
                           f"median rate={med:.5f}, -gap={-est.gap:.5f}, "
                           f"rel err={rel:.3f} (tol 0.15), runtime<2min={dt < 120.0}")


def criterion_5(ctx: _Context) -> CriterionResult:
    """TV-distance decay matches the spectral gap within 15%."""
    t0 = time.perf_counter()
    proc = ring5_process(loss=True)
    est = ctx.spectrum("ring5_lossy", proc, 2, 100_000)
    rng = np.random.default_rng(6)
    pairs = _random_pairs(16, 5, rng)
    horizon = int(40.0 / max(est.gap, 1e-3))
    rates = _fitted_rates(proc, pairs, horizon, use_tv=True, stream_base=510)
    med = float(np.median(rates))
    rel = abs(med + est.gap) / est.gap
    dt = time.perf_counter() - t0
    ok = rel <= 0.15
    return CriterionResult(5, "TV-distance rate tightness (15%)", ok, dt,
                           f"median tv rate={med:.5f}, -gap={-est.gap:.5f}, "
                           f"rel err={rel:.3f} (tol 0.15)")


def criterion_6(ctx: _Context) -> CriterionResult:
    """Birkhoff contraction asymptotics recover the gap."""
    t0 = time.perf_counter()
    proc = ring5_process(loss=True)
    est = ctx.spectrum("ring5_lossy", proc, 2, 100_000)
    ms = [16, 32, 64, 128, 256, 512]
    gap_ests = [spectrum.estimate_gap_birkhoff(proc, m, 256) for m in ms]
    mono_ok = all(
        gap_ests[i + 1].value >= gap_ests[i].value
        - 2 * math.sqrt(gap_ests[i].stderr ** 2 + gap_ests[i + 1].stderr ** 2)
        for i in range(len(ms) - 1))
    bound_ok = all(
        g.value <= est.gap + 3 * math.sqrt(g.stderr ** 2 + est.gap_stderr ** 2)
        for g in gap_ests)
    final_rel = abs(gap_ests[-1].value - est.gap) / est.gap
    dt = time.perf_counter() - t0
    ok = mono_ok and bound_ok and final_rel <= 0.10
    vals = ", ".join(f"{g.value:.4f}" for g in gap_ests)
    return CriterionResult(6, "Birkhoff-gap identity", ok, dt,
                           f"estimates [{vals}] vs qr gap {est.gap:.4f}; monotone={mono_ok}, "
                           f"bounded={bound_ok}, final rel err={final_rel:.3f} (tol 0.10)")


def _envelope_configs():
    rng = np.random.default_rng(17)
    fam3 = [push_sum_matrix(3, (0, 1), 0.5), push_sum_matrix(3, (1, 2), 0.5),
            push_sum_matrix(3, (2, 0), 0.5), push_sum_matrix(3, (0, 2), 0.3, loss=True)]
    trans = np.array([[0.1, 0.4, 0.3, 0.2], [0.3, 0.1, 0.4, 0.2],
                      [0.25, 0.25, 0.25, 0.25], [0.4, 0.2, 0.2, 0.2]])
    configs = [
        (ring5_process(True, seed=101), rng.uniform(0.05, 1, 5), np.ones(5)),
        (ring5_process(False, seed=102), rng.uniform(-1, 1, 5), np.ones(5)),
        (p4_process(seed=103), rng.uniform(0.05, 1, 4), rng.uniform(0.1, 1, 4)),
        (p2_process(0.5, seed=104), rng.uniform(-1, 1, 2), rng.uniform(0.1, 1, 2)),
        (PushSumProcess(PushSumConfig.uniform(ring_with_chords(3, chords=()), 0.3, 0.2),
                        seed=105), rng.uniform(0.05, 1, 3), np.ones(3)),
        (ConstantProcess(CONSTANT_2x2, seed=106), rng.uniform(0.05, 1, 2), np.ones(2)),
        (IIDFamilyProcess(fam3, (0.3, 0.3, 0.2, 0.2), seed=107),
         rng.uniform(0.05, 1, 3), rng.uniform(0.1, 1, 3)),
        (MarkovFamilyProcess(fam3, trans, seed=108),
         rng.uniform(-1, 1, 3), np.ones(3)),
    ]
    return configs


def criterion_7(ctx: _Context) -> CriterionResult:
    """Envelope monotonicity across 8 configurations x 1e5 steps."""
    t0 = time.perf_counter()
    total_viol = 0
    worst = 0.0
    for proc, x0, w0 in _envelope_configs():
        traj = consensus.run(proc, x0, w0, 100_000,
                             checkpoints=consensus.make_checkpoints(100_000))
        total_viol += traj.envelope_violations
        worst = max(worst, traj.envelope_violation_max)
    dt = time.perf_counter() - t0
    ok = total_viol == 0
    return CriterionResult(7, "envelope monotonicity (8 configs x 1e5 steps)", ok, dt,
                           f"violations beyond 1e-12 relative slack: {total_viol} "
                           f"(worst excess {worst:.2e})")


def _random_positive_matrix(rng, p):
    return np.exp(rng.uniform(-3.0, 3.0, (p, p)))


def _random_allowable_matrix(rng, p):
    a = _random_positive_matrix(rng, p) * (rng.random((p, p)) < 0.7)
    for i in range(p):
        if not a[i].any():
            a[i, rng.integers(p)] = rng.uniform(0.5, 2.0)
        if not a[:, i].any():
            a[rng.integers(p), i] = rng.uniform(0.5, 2.0)
    return a


def criterion_8(ctx: _Context) -> CriterionResult:
    """Six randomized property suites, 1e4 cases each, zero failures."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(823)
    n_cases = 10_000
    fails = {}

    bad = 0
    for _ in range(n_cases):
        p = int(rng.integers(2, 7))
        a = _random_positive_matrix(rng, p)
        x = np.exp(rng.uniform(-2, 2, p))
        y = np.exp(rng.uniform(-2, 2, p))
        if hilbert_distance(a @ x, a @ y) > birkhoff_tau(a) * hilbert_distance(x, y) + 1e-10:
            bad += 1
    fails["hilbert_contraction"] = bad

    bad = 0
    for _ in range(n_cases):
        p = int(rng.integers(2, 7))
        a, b = _random_allowable_matrix(rng, p), _random_allowable_matrix(rng, p)
        if birkhoff_tau(a @ b) > birkhoff_tau(a) * birkhoff_tau(b) + 1e-12:
            bad += 1
    fails["tau_submultiplicative"] = bad

    bad = 0
    for _ in range(n_cases):
        p = int(rng.integers(2, 7))
        xi = np.exp(rng.uniform(-2, 2, p))
        eta = np.exp(rng.uniform(-2, 2, p))
        xi, eta = xi / xi.sum(), eta / eta.sum()
        if tv_distance(xi, eta) > 0.5 * (math.exp(hilbert_distance(xi, eta)) - 1.0) + 1e-12:
            bad += 1
    fails["tv_hilbert_bound"] = bad

    bad = 0
    state_proc = ring5_process(True, seed=3001)
    state = consensus.ConsensusState.from_initial(
        rng.uniform(0.05, 1, 5), np.ones(5))
    for c in range(n_cases):
        state = consensus.step(state, state_proc.next_matrix())
        q = rng.uniform(0, 1, 5)
        if not q.any():
            q[0] = 1.0
        ratio = consensus.weighted_ratio(state, q)
        mn, mx = state.envelope()
        slack = 1e-12 * max(abs(mn), abs(mx))
        if not (mn - slack <= ratio <= mx + slack):
            bad += 1
    fails["convexity_sandwich"] = bad

    bad = 0
    for _ in range(n_cases):
        p = int(rng.integers(2, 7))
        b = _random_positive_matrix(rng, p)
        x = _random_allowable_matrix(rng, p)
        m = b @ x
        ratios_b = b[:, None, :] / b[None, :, :]     # B_ir / B_jr
        ratios_m = m[:, None, :] / m[None, :, :]     # M_ik / M_jk
        lo = ratios_b.min(axis=2, keepdims=True)
        hi = ratios_b.max(axis=2, keepdims=True)
        if np.any(ratios_m < lo * (1 - 1e-10)) or np.any(ratios_m > hi * (1 + 1e-10)):
            bad += 1
    fails["bellman_sandwich"] = bad

    bad = 0
    for _ in range(n_cases):
        p = int(rng.integers(2, 7))
        a = _random_positive_matrix(rng, p) * (rng.random((p, p)) < 0.5)
        b = _random_positive_matrix(rng, p) * (rng.random((p, p)) < 0.5)
        if not np.array_equal((a @ b) > 0, (a > 0) @ (b > 0)):
            bad += 1
    fails["pattern_homomorphism"] = bad

    dt = time.perf_counter() - t0
    total = sum(fails.values())
    ok = total == 0
    return CriterionResult(8, "randomized property suites (6 x 1e4 cases)", ok, dt,
                           f"failures: {fails}")


def criterion_9(ctx: _Context) -> CriterionResult:
    """Primitivity, forward/backward index law, geometric tails."""
    t0 = time.perf_counter()
    proc = ring5_process(loss=True)
    pats = proc.pattern_family()
    rep = primitivity.is_family_primitive(pats)
    replay_ok = (rep.family_primitive and
                 bool(primitivity.replay_word(pats, rep.witness_word).all()))
    psi = primitivity.sample_forward_indices(proc.spawn((500, 0)), 10_000)
    rho = primitivity.sample_backward_indices(proc.spawn((500, 1)), 10_000)
    ks = primitivity.ks_distance(psi, rho)
    ks_crit = primitivity.ks_critical_distance(len(psi), len(rho))
    slope, _, corr = primitivity.survival_loglinear_fit(psi)
    dt = time.perf_counter() - t0
    ok = replay_ok and ks <= ks_crit and corr <= -0.99 and slope < 0
    return CriterionResult(9, "primitivity, index law, geometric tail", ok, dt,
                           f"primitive={rep.family_primitive} (witness len "
                           f"{len(rep.witness_word or ())}, replay={replay_ok}), "
                           f"KS={ks:.4f} vs crit {ks_crit:.4f}, tail corr={corr:.4f}")


def criterion_10(ctx: _Context) -> CriterionResult:
    """Packet loss can only lower the top exponent and (p=2) the gap."""
    t0 = time.perf_counter()
    est0 = ctx.spectrum("p2_r0", p2_process(0.0), 2, 100_000)
    est5 = ctx.spectrum("p2_r5", p2_process(0.5), 2, 100_000)
    se_l1 = 3 * math.sqrt(est0.stderr[0] ** 2 + est5.stderr[0] ** 2)
    se_gap = 3 * math.sqrt(est0.gap_stderr ** 2 + est5.gap_stderr ** 2)
    l1_ok = est0.lambdas[0] >= est5.lambdas[0] - se_l1
    gap_ok = est0.gap >= est5.gap - se_gap
    dt = time.perf_counter() - t0
    ok = l1_ok and gap_ok
    return CriterionResult(10, "loss monotonicity (coupled seeds, p=2)", ok, dt,
                           f"l1: {est0.lambdas[0]:.5f} >= {est5.lambdas[0]:.5f}-3se={l1_ok}; "
                           f"gap: {est0.gap:.5f} >= {est5.gap:.5f}-3se={gap_ok}")


def criterion_11(ctx: _Context) -> CriterionResult:
    """Positive spectral gap for every sequentially primitive configuration."""
    t0 = time.perf_counter()
    checks = {
        "ring5_noloss": ctx.spectrum("ring5_noloss", ring5_process(False), 2, 100_000),
        "ring5_lossy": ctx.spectrum("ring5_lossy", ring5_process(True), 2, 100_000),
        "p4_mixed": ctx.spectrum("p4_mixed", p4_process(), 2, 100_000),
        "p2_r0": ctx.spectrum("p2_r0", p2_process(0.0), 2, 100_000),
        "p2_r5": ctx.spectrum("p2_r5", p2_process(0.5), 2, 100_000),
        "const2": ctx.spectrum("const2", ConstantProcess(CONSTANT_2x2, seed=0), 2, 10_000),
    }
    bad = {name: (est.gap, est.gap_stderr) for name, est in checks.items()
           if not est.gap > 3 * est.gap_stderr}
    dt = time.perf_counter() - t0
    ok = not bad
    gaps = ", ".join(f"{k}={v.gap:.4f}" for k, v in checks.items())
    return CriterionResult(11, "positive gap for primitive configurations", ok, dt,
                           f"gaps: {gaps}" + (f"; FAILING: {bad}" if bad else ""))


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11]


def run_all(verbose: bool = False) -> list[CriterionResult]:
    ctx = _Context()
    results = []
    for fn in CRITERIA:
        res = fn(ctx)
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    return results
