import math
import warnings

import numpy as np
import pytest

from gossipgap import acceptance, spectrum
from gossipgap.core import birkhoff_phi, log_tau_from_phi, wedge_magnitude
from gossipgap.generators import (ConstantProcess, Digraph, IIDFamilyProcess,
                                  PushSumProcess, ring, ring_with_chords)
from gossipgap.spectrum import (check_det_identity, estimate_gap_birkhoff,
                                estimate_spectrum_qr, estimate_sum_top2_wedge)

A2 = np.array([[0.5, 0.25], [0.5, 0.75]])


def lossy5(seed=2024):
    g = ring_with_chords(5)
    ne = len(g.edges)
    loss = tuple(0.1 if k % 2 == 0 else 0.3 for k in range(ne))
    return PushSumProcess(g, seed, 0.5, loss)


def two_node(loss, seed=77):
    g = Digraph(2, ((0, 1), (1, 0)))
    return PushSumProcess(g, seed, 0.5, loss)


# -- qr estimator -------------------------------------------------------------


def test_constant_matrix_eigen_oracle():
    est = estimate_spectrum_qr(ConstantProcess(A2, seed=0), 2, 10_000, replicates=4)
    oracle = np.log(np.sort(np.abs(np.linalg.eigvals(A2)))[::-1])
    assert abs(est.lambdas[0] - oracle[0]) < 1e-6
    assert abs(est.lambdas[1] - oracle[1]) < 1e-3
    assert est.gap == pytest.approx(math.log(4), abs=1e-3)


def test_identity_all_zero():
    est = estimate_spectrum_qr(ConstantProcess(np.eye(3), seed=0), 3, 200, replicates=2)
    np.testing.assert_allclose(est.lambdas, 0.0, atol=1e-14)
    np.testing.assert_allclose(est.stderr, 0.0, atol=1e-14)


def test_no_loss_top_exponent_zero():
    proc = PushSumProcess(ring(4), 3)
    est = estimate_spectrum_qr(proc, 1, 20_000, replicates=4)
    # column-stochastic products are bounded, so the accumulated log growth
    # is O(1) and the estimate is 0 up to an O(1/n) remainder
    assert abs(est.lambdas[0]) < 2e-4


def test_lambda_ordering_and_samples_shape():
    est = estimate_spectrum_qr(lossy5(), 2, 5_000, replicates=6)
    assert est.samples.shape == (6, 2)
    assert est.lambdas[0] >= est.lambdas[1] - 3 * (est.stderr[0] + est.stderr[1])
    assert est.gap > 0


def test_qr_parameter_validation():
    proc = ConstantProcess(np.eye(2), seed=0)
    with pytest.raises(ValueError, match="k must"):
        estimate_spectrum_qr(proc, 3, 1000)
    with pytest.raises(ValueError, match="n too small"):
        estimate_spectrum_qr(proc, 2, 50, reorth_period=10)
    with pytest.raises(ValueError, match="reorth"):
        estimate_spectrum_qr(proc, 2, 1000, reorth_period=0)


def test_reorth_period_consistency():
    # longer re-orthonormalization periods must not change the estimates
    proc = lossy5(7)
    e1 = estimate_spectrum_qr(proc, 2, 4_000, reorth_period=1, replicates=4)
    e5 = estimate_spectrum_qr(proc, 2, 4_000, reorth_period=5, replicates=4)
    np.testing.assert_allclose(e1.lambdas, e5.lambdas, atol=1e-6)


def test_degenerate_frame_warns_and_reports_minus_inf():
    proc = ConstantProcess(np.diag([2.0, 0.0]), seed=0)
    for replicates, period in ((2, 1), (1, 1), (2, 3)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = estimate_spectrum_qr(proc, 2, 1200, reorth_period=period,
                                       replicates=replicates, burn_in=0)
        assert [str(w.message) for w in caught] == [
            "frame rank collapsed below k; affected exponents are reported as -inf"]
        assert est.lambdas[0] == pytest.approx(math.log(2), abs=1e-10)
        assert est.lambdas[1] == -math.inf


def test_qr_stderr_is_nan_with_one_replicate():
    est = estimate_spectrum_qr(lossy5(), 2, 1000, replicates=1)
    assert np.isfinite(est.lambdas).all() and math.isfinite(est.gap)
    assert np.isnan(est.stderr).all() and math.isnan(est.gap_stderr)


def _collapsed_frame():
    """qr estimate of ``diag(2, 0)``: lambda_2 is -inf in both replicates."""
    with pytest.warns(UserWarning, match="rank collapsed"):
        return estimate_spectrum_qr(ConstantProcess(np.diag([2.0, 0.0]), seed=0),
                                    2, 1200, replicates=2, burn_in=0)


def test_qr_stderr_is_nan_for_an_exponent_without_finite_samples():
    est = _collapsed_frame()
    assert est.stderr[0] == 0.0         # two equal finite samples
    assert math.isnan(est.stderr[1])


def test_qr_gap_stderr_is_nan_next_to_an_infinite_gap():
    est = _collapsed_frame()
    assert est.gap == math.inf and math.isnan(est.gap_stderr)


@pytest.mark.parametrize("matrix,gap", [
    ([[0.0, 1.0], [0.0, 0.0]], math.nan),     # nilpotent: -inf - (-inf) is undefined
    ([[1.0, 1.0], [0.0, 0.0]], math.inf),     # A^n = A: lambda_1 = 0, lambda_2 = -inf
], ids=["nilpotent", "rank_one"])
def test_qr_gap_is_the_mean_of_replicate_gaps(matrix, gap):
    with pytest.warns(UserWarning, match="rank collapsed"):
        est = estimate_spectrum_qr(ConstantProcess(np.array(matrix), seed=0), 2, 100,
                                   replicates=2, burn_in=0)
    np.testing.assert_equal(est.gap, gap)     # nan equals nan here


# -- qr step kernel: numpy's private orgqr gufunc pinned to np.linalg.qr -----

def _numpy_qr_step(Q):
    q, r = np.linalg.qr(Q)
    return q, r.diagonal(0, 1, 2)


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("R", [1, 8])
@pytest.mark.parametrize("p", [1, 2, 5])
def test_qr_step_equals_numpy_qr_bitwise(p, R):
    rng = np.random.default_rng(10 * p + R)
    for k in range(1, p + 1):
        Q = rng.standard_normal((R, p, k))
        _assert_same_bits(spectrum._qr_step(Q.copy()), _numpy_qr_step(Q))


def test_qr_step_rank_deficient_stack_gives_minus_inf_growth():
    Q = np.random.default_rng(3).standard_normal((8, 5, 2))
    Q[:, :, 1] = 0.0
    got = spectrum._qr_step(Q.copy())
    _assert_same_bits(got, _numpy_qr_step(Q))
    assert (got[1][:, 1] == 0.0).all()
    # the frame of diag(2, 0, 1, 1, 1) loses its second column at step 1
    proc = ConstantProcess(np.diag([2.0, 0.0, 1.0, 1.0, 1.0]), seed=0)
    with pytest.warns(UserWarning, match="rank collapsed"):
        acc, _ = spectrum._run_frames([proc.spawn((9, r)) for r in range(8)], 2, 700,
                                      1, 0)
    assert acc[:, 0] == pytest.approx(700 * math.log(2.0))
    assert np.isneginf(acc[:, 1]).all()


def test_qr_step_inf_gives_nan_in_the_same_places_without_warning():
    Q = np.random.default_rng(4).standard_normal((8, 5, 2))
    Q[3, 1, 0], Q[6, 4, 1] = np.inf, -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = spectrum._qr_step(Q.copy())
        want = _numpy_qr_step(Q)
    _assert_same_bits(got, want)
    nan = np.isnan(got[0]).any(axis=(1, 2))
    assert nan[[3, 6]].all() and not nan[[0, 1, 2, 4, 5, 7]].any()


def _odd_stack(case):
    rng = np.random.default_rng(5)
    Q = rng.standard_normal((8, 5, 3))
    if case == "nan":
        Q[2, 3, 1] = np.nan
    elif case == "zero":
        Q[:] = 0.0
    elif case == "collinear":
        Q[:, :, 2] = 2.0 * Q[:, :, 0]
    elif case == "huge":
        Q *= 1e307
    elif case == "subnormal":
        Q *= 1e-310
    elif case == "p1":
        Q = Q[:, :1, :1].copy()
    return Q


@pytest.mark.parametrize("case", ["nan", "zero", "collinear", "huge",
                                  "subnormal", "p1"])
def test_qr_step_odd_stacks_equal_numpy_qr_without_warning(case):
    # _qr_step enters no errstate: the orgqr gufunc clears the
    # floating-point status itself, so no stack warns or raises
    Q = _odd_stack(case)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = spectrum._qr_step(Q.copy())
    _assert_same_bits(got, _numpy_qr_step(Q))


def _run_frames_per_step(procs, k, n_count, reorth_period, burn_in, record=None):
    """The frame loop as it was written before the block-level bookkeeping:
    log, accumulation, collapse check and schedule evaluated at every step."""
    R = len(procs)
    p = procs[0].p
    Q = np.ascontiguousarray(np.broadcast_to(np.eye(p)[:, :k], (R, p, k)))
    acc = np.zeros((R, k))
    snapshots = {}
    record = [] if record is None else sorted(set(int(r) for r in record))
    rec_pos = 0

    def run_phase(steps, accumulate):
        nonlocal Q, acc, rec_pos
        since = 0
        done = 0
        while done < steps:
            m = min(512, steps - done)
            stacked = np.stack([pr.dense_block(m) for pr in procs])
            for s in range(m):
                Q = np.matmul(stacked[:, s], Q)
                since += 1
                step = done + s + 1
                hit_record = (accumulate and rec_pos < len(record)
                              and record[rec_pos] == step)
                if since >= reorth_period or step == steps or hit_record:
                    Q, r = np.linalg.qr(Q)
                    d = np.abs(np.diagonal(r, axis1=1, axis2=2))
                    if accumulate:
                        with np.errstate(divide="ignore"):
                            acc += np.log(d)
                    since = 0
                if hit_record:
                    snapshots[step] = acc.copy()
                    rec_pos += 1
            done += m

    if burn_in > 0:
        run_phase(burn_in, False)
    run_phase(n_count, True)
    return acc, snapshots


_EACH_FRAME_KIND = pytest.mark.parametrize("proc", [
    lossy5(), IIDFamilyProcess(
        [np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 3.0]]),
         np.array([[1.0, 0.0, 1.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]),
         np.eye(3) + 0.5], [0.4, 0.4, 0.2], seed=31),
    acceptance._envelope_configs()[7][0], ConstantProcess(A2),
], ids=["push_sum", "iid", "markov", "constant"])


@_EACH_FRAME_KIND
@pytest.mark.parametrize("period", [1, 3])
@pytest.mark.parametrize("replicates", [1, 8])
def test_run_frames_bitwise_equal_to_per_step_loop(proc, period, replicates):
    # burn-in ends inside the first block and the run crosses a block
    # boundary; records sit on and next to it, and on the last step
    burn_in, n = 200, 700
    record = [1, 2, 311, 312, 313, 500, n]
    for k in range(1, proc.p + 1):
        got = spectrum._run_frames(
            [proc.spawn((9, r)) for r in range(replicates)], k, n, period,
            burn_in, record)
        want = _run_frames_per_step(
            [proc.spawn((9, r)) for r in range(replicates)], k, n, period,
            burn_in, record)
        np.testing.assert_array_equal(got[0], want[0])
        assert sorted(got[1]) == sorted(want[1]) == record
        for step in record:
            np.testing.assert_array_equal(got[1][step], want[1][step])


def _expected_qr_steps(burn_in, n, period, record):
    """Whole-run step numbers of every QR: every ``period`` steps since the
    last QR, plus forced QRs at the burn-in end, each record and the end."""
    steps, since = [], 0
    for t in range(1, burn_in + n + 1):
        since += 1
        if since >= period or t in (burn_in, burn_in + n) or t - burn_in in record:
            steps.append(t)
            since = 0
    return steps


@pytest.mark.parametrize("period", [1, 3, 7])
@pytest.mark.parametrize("burn_in", [0, 100])
def test_run_frames_qr_schedule(period, burn_in, monkeypatch):
    matmul, qr = np.matmul, np.linalg.qr
    log = {"steps": 0, "qr_at": []}

    def counting_matmul(*args, **kw):
        log["steps"] += 1
        return matmul(*args, **kw)

    def counting_qr(a, *args, **kw):
        log["qr_at"].append(log["steps"])
        return qr(a, *args, **kw)

    n = 1100
    # whole-run step 512 ends the first block: counted 512 without burn-in,
    # counted 412 after a burn-in of 100
    record = [1, 411, 412, 413, 511, 512, 513, 700]
    proc = lossy5(3)
    monkeypatch.setattr(np, "matmul", counting_matmul)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    _, snaps = spectrum._run_frames(
        [proc.spawn((9, r)) for r in range(2)], 2, n, period, burn_in, record)
    assert log["qr_at"] == _expected_qr_steps(burn_in, n, period, set(record))
    assert log["steps"] == burn_in + n
    assert sorted(snaps) == record
    for step in record:
        # a run that stops at the recorded step ends with the snapshot
        short, _ = spectrum._run_frames(
            [proc.spawn((9, r)) for r in range(2)], 2, step, period, burn_in,
            record)
        np.testing.assert_array_equal(snaps[step], short)


def test_deterministic_per_seed():
    a = estimate_spectrum_qr(lossy5(5), 2, 2_000, replicates=3)
    b = estimate_spectrum_qr(lossy5(5), 2, 2_000, replicates=3)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_top_exponent_monotone_in_loss():
    # entrywise domination under coupled seeds: more loss, smaller lambda_1
    g = ring_with_chords(5)
    low = PushSumProcess(g, 2024, 0.5, 0.1)
    high = PushSumProcess(g, 2024, 0.5, 0.4)
    e_low = estimate_spectrum_qr(low, 1, 20_000, replicates=4)
    e_high = estimate_spectrum_qr(high, 1, 20_000, replicates=4)
    se = 3 * math.sqrt(e_low.stderr[0] ** 2 + e_high.stderr[0] ** 2)
    assert e_low.lambdas[0] >= e_high.lambdas[0] - se


# -- wedge --------------------------------------------------------------------


def test_wedge_diagonal_exact():
    proc = ConstantProcess(np.diag([2.0, 3.0]), seed=0)
    s = estimate_sum_top2_wedge(proc, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 2_000)
    assert s == pytest.approx(math.log(6), abs=1e-12)


def test_wedge_identity_zero():
    proc = ConstantProcess(np.eye(3), seed=0)
    s = estimate_sum_top2_wedge(proc, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), 1_000)
    assert s == pytest.approx(0.0, abs=1e-12)


def test_wedge_long_products_stay_finite():
    # on 2x2 matrices the wedge scales by det A each step, so the exact
    # answer is log|det A| + log|x ^ w| / n; over 50,000 steps the wedge
    # magnitude sits about 69k nats below (det 1/4) or above (det 4) the
    # float range, and x, w are generic so every product rounds
    x, w = np.array([1.0, 0.2]), np.array([0.3, 1.0])
    n = 50_000
    for scale, det in ((1.0, 0.25), (4.0, 4.0)):
        proc = ConstantProcess(scale * acceptance.CONSTANT_2x2, seed=0)
        s = estimate_sum_top2_wedge(proc, x, w, n)
        exact = math.log(det) + math.log(wedge_magnitude(x, w)) / n
        assert s == pytest.approx(exact, abs=1e-12)


def test_wedge_collinear_rejected():
    proc = ConstantProcess(np.eye(2), seed=0)
    with pytest.raises(ValueError, match="collinear"):
        estimate_sum_top2_wedge(proc, np.array([1.0, 2.0]), np.array([2.0, 4.0]), 100)


def test_wedge_rank_one_collapse_rejected():
    # rank-1 update matrix kills the wedge in one step
    proc = ConstantProcess(np.outer([1.0, 2.0], [1.0, 1.0]), seed=0)
    with pytest.raises(ValueError, match="collapsed"):
        estimate_sum_top2_wedge(proc, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 100)


def test_wedge_agrees_with_qr_sum():
    proc = lossy5()
    est = estimate_spectrum_qr(proc, 2, 30_000, replicates=8)
    qr_sums = est.samples[:, 0] + est.samples[:, 1]
    x = np.array([1.0, 0.4, 0.7, 0.2, 0.9])
    w = np.array([0.3, 1.0, 0.5, 0.8, 0.6])
    # one wedge replicate per seed: the wedge draws from one fixed stream
    wedge = np.array([estimate_sum_top2_wedge(lossy5(2024 + r), x, w, 30_000)
                      for r in range(8)])
    se = math.sqrt(qr_sums.std(ddof=1) ** 2 / 8 + wedge.std(ddof=1) ** 2 / 8)
    assert abs(qr_sums.mean() - wedge.mean()) <= 3 * se
    # the wedge gap 2 lambda_1 - (lambda_1 + lambda_2) is positive
    assert 2.0 * est.samples[:, 0].mean() - wedge.mean() > 0


def test_gap_wedge_method():
    proc = two_node(0.5)
    x, w = np.array([1.0, 0.2]), np.array([0.4, 1.0])
    top = estimate_spectrum_qr(proc, 1, 20_000, replicates=4)
    sums = np.array([estimate_sum_top2_wedge(two_node(0.5, 77 + r), x, w, 20_000)
                     for r in range(4)])
    assert np.all(np.isfinite(sums))
    assert (2.0 * top.samples[:, 0] - sums).mean() > 0


def _sum_top2_wedge_per_step(proc, x, w, n):
    """The wedge loop as it was written before the certified products: one
    ``a . a^T`` conjugation, antisymmetrisation and log per step."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    mag0 = wedge_magnitude(x, w)
    omega = (np.outer(x, w) - np.outer(w, x)) / mag0
    logs = [math.log(mag0)]
    pr = proc.spawn((spectrum._WEDGE_STREAM, 0))
    done = 0
    while done < n:
        blk = pr.dense_block(min(512, n - done))
        for a in blk:
            m = a @ omega @ a.T
            omega = m - m.T
            v = omega.ravel()
            s = math.sqrt(float(v @ v)) / math.sqrt(8.0)
            if s == 0.0:
                raise ValueError("collinear trajectory: wedge collapsed to zero")
            omega /= 2.0 * s
            logs.append(math.log(s))
        done += len(blk)
    return math.fsum(logs) / n


@pytest.mark.parametrize("i", range(8))
def test_wedge_matches_per_step_reference(i):
    # the eight envelope configs cover every process kind: push-sum with and
    # without loss, constant, i.i.d. and Markov-modulated families
    proc, x, w = acceptance._envelope_configs()[i]
    for n in (10_000, 1_337):
        got = estimate_sum_top2_wedge(proc, x, w, n)
        want = _sum_top2_wedge_per_step(proc, x, w, n)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("share,loss", [(0.5, 0.5), (0.5, 0.0), (0.3, 0.2)])
def test_wedge_two_node_push_sum_is_exact(share, loss):
    # every p = 2 push-sum emission, delivered or lost, has det 1 - a, and a
    # 2x2 matrix scales the wedge by its det: the sum is log(1 - a) exactly
    g = Digraph(2, ((0, 1), (1, 0)))
    proc = PushSumProcess(g, 11, share, loss)
    x, w = np.array([1.0, 0.2]), np.array([0.3, 1.0])
    n = 20_000
    s = estimate_sum_top2_wedge(proc, x, w, n)
    exact = math.log(1.0 - share) + math.log(wedge_magnitude(x, w)) / n
    assert abs(s - exact) <= 1e-12


def test_wedge_rare_rank_one_member_collapses():
    # the rank-one member kills the wedge at whichever step first emits it
    proc = IIDFamilyProcess([A2, np.outer([1.0, 2.0], [1.0, 1.0])], (0.995, 0.005),
                            seed=3)
    x, w = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for fn in (estimate_sum_top2_wedge, _sum_top2_wedge_per_step):
        with pytest.raises(ValueError, match="collapsed"):
            fn(proc, x, w, 5_000)


def test_wedge_accepts_nearly_collinear_pair():
    x, w = np.array([1.0, 1.0 + 1e-8, 0.5]), np.array([1.0, 1.0, 0.5])
    s = estimate_sum_top2_wedge(ConstantProcess(np.eye(3), seed=0), x, w, 10)
    assert s == pytest.approx(math.log((x[1] - 1.0) * math.sqrt(1.25)) / 10, rel=1e-12)


@pytest.mark.parametrize("m,P", [(512, 64), (512, 1), (37, 8), (7, 16), (12, 4)])
def test_step_products_match_sequential_products(m, P):
    steps = np.random.default_rng(m + P).uniform(0.0, 1.0, (m, 2, 3, 3))
    got = spectrum._step_products(steps, P)
    assert got.shape == (-(-m // P), 2, 3, 3)
    for j, prod in enumerate(got):
        want = np.broadcast_to(np.eye(3), (2, 3, 3))
        for a in steps[j * P:(j + 1) * P]:
            want = a @ want                 # later factors on the left
        np.testing.assert_allclose(prod, want, rtol=1e-12)


# -- birkhoff gap ---------------------------------------------------------------


def test_birkhoff_constant_tight():
    # eigenvalues 3 and 1: gap log 3; single-factor bound is already tight
    proc = ConstantProcess(np.array([[2.0, 1.0], [1.0, 2.0]]), seed=0)
    g = estimate_gap_birkhoff(proc, 1, 8)
    assert g.value == pytest.approx(math.log(3), abs=1e-12)
    assert g.stderr == 0.0
    assert g.diagnostics["tau_one_fraction"] == 0.0


def test_birkhoff_constant_bound_below_gap():
    proc = ConstantProcess(A2, seed=0)
    g = estimate_gap_birkhoff(proc, 1, 4)
    assert g.value == pytest.approx(-math.log(2.0 - math.sqrt(3.0)), abs=1e-12)
    assert g.value <= math.log(4)


def test_birkhoff_all_tau_one_flag():
    proc = lossy5()
    with pytest.warns(UserWarning, match="increase m"):
        g = estimate_gap_birkhoff(proc, 1, 16)  # single factors all have zeros
    assert g.value == 0.0
    assert math.isnan(g.stderr)         # no trial value: undefined, not 0
    assert g.diagnostics["flag"] == "increase m"
    assert g.diagnostics["tau_one_fraction"] == 1.0


def test_birkhoff_stderr_is_nan_with_one_positive_trial():
    proc = ConstantProcess(np.array([[2.0, 1.0], [1.0, 2.0]]), seed=0)
    g = estimate_gap_birkhoff(proc, 1, 1)
    assert g.value == pytest.approx(math.log(3), abs=1e-12)
    assert math.isnan(g.stderr)


def test_birkhoff_below_qr_gap():
    proc = lossy5()
    est = estimate_spectrum_qr(proc, 2, 30_000, replicates=8)
    g = estimate_gap_birkhoff(proc, 128, 64)
    assert g.value <= est.gap + 3 * math.sqrt(g.stderr ** 2 + est.gap_stderr ** 2)


def test_birkhoff_factored_matches_entrywise_phi():
    # the factored evaluation must agree with the direct entrywise scan
    # wherever the latter is well-conditioned
    rng = np.random.default_rng(0)
    for _ in range(500):
        p = int(rng.integers(2, 7))
        m = np.exp(rng.uniform(-3, 3, (p, p)))
        u, s, vh = np.linalg.svd(m)
        with np.errstate(divide="ignore"):
            ln = np.log(s) - np.log(s[0])
        (phi,) = spectrum._phis_from_factors(u[None], ln[None], vh[None])
        assert phi == pytest.approx(birkhoff_phi(m), abs=1e-10)


def test_birkhoff_resolves_deep_contraction():
    # 512 * gap ~ 42 nats: far beyond entrywise double precision, easily
    # resolved by the factored representation
    proc = PushSumProcess(ring_with_chords(5), 2024)
    g = estimate_gap_birkhoff(proc, 512, 64)
    assert g.diagnostics["tau_zero_fraction"] == 0.0
    assert 0.05 < g.value < 0.10  # near the ~0.082 gap, biased low by O(1/m)


def test_birkhoff_saturation_flag():
    # ~900 nats of contraction underflows even the factored second direction
    proc = two_node(0.5)
    with pytest.warns(UserWarning, match="reduce m"):
        g = estimate_gap_birkhoff(proc, 2400, 4)
    assert math.isnan(g.value)
    assert g.diagnostics["flag"] == "reduce m"
    assert g.diagnostics["tau_zero_fraction"] == 1.0


def _birkhoff_per_segment(proc, m, trials):
    """Reference Birkhoff estimate: one ``dense_block(16)`` per trial per
    16-step segment, stacked trial-major, then the estimator's reduction.
    Returns ``(value, stderr, tau_one_fraction, tau_zero_fraction)``."""
    T, p = trials, proc.p
    procs = [proc.spawn((spectrum._BIRKHOFF_STREAM, m, t)) for t in range(T)]
    U = np.ascontiguousarray(np.broadcast_to(np.eye(p), (T, p, p)))
    Vh, pat, lognorm = U.copy(), U.copy(), np.zeros((T, p))
    done = 0
    while done < m:
        seg = min(16, m - done)
        stacked = np.stack([pr.dense_block(seg) for pr in procs])
        C = np.ascontiguousarray(np.broadcast_to(np.eye(p), (T, p, p)))
        for s in range(seg):
            A = stacked[:, s]
            C = A @ C
            pat = np.minimum((A > 0).astype(float) @ pat, 1.0)
        U, sv, wh = np.linalg.svd((C @ U) * np.exp(lognorm)[:, None, :])
        with np.errstate(divide="ignore"):
            lognorm = np.log(sv) - np.log(sv[:, :1])
        Vh = wh @ Vh
        done += seg
    positive = pat.all(axis=(1, 2))
    phis = spectrum._phis_from_factors(U[positive], lognorm[positive], Vh[positive])
    vals = np.array([-log_tau_from_phi(phi) / m for phi in phis if phi != 0.0])
    n_zero = len(phis) - len(vals)
    value = float(vals.mean()) if len(vals) else math.nan if n_zero else 0.0
    stderr = (float(vals.std(ddof=1)) / math.sqrt(len(vals))
              if len(vals) > 1 else math.nan)
    return value, stderr, (T - len(phis)) / T, n_zero / T


_FAM3_IID = IIDFamilyProcess(
    [np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 3.0]]),
     np.array([[1.0, 0.0, 1.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]),
     np.eye(3) + 0.5], [0.4, 0.4, 0.2], seed=31)


# member 2 has a zero row: a positive running product can turn non-positive
# again, so pattern tracking never stops
_FAM3_ZERO_ROW = IIDFamilyProcess(
    [np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),
     np.eye(3) + 0.5,
     np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])],
    [0.45, 0.35, 0.2], seed=12)


@pytest.mark.parametrize("draw", [80, 64, 48, 32, 16])
@pytest.mark.parametrize("proc", [
    lossy5(), _FAM3_IID, acceptance._envelope_configs()[7][0], ConstantProcess(A2),
    _FAM3_ZERO_ROW,
    # p = 2: index runs of 4 * draw steps, so m = 500 draws ahead more than once
    two_node(0.25),
], ids=["push_sum", "iid", "markov", "constant", "zero_row", "index_runs"])
def test_birkhoff_matches_per_segment_reference(proc, draw, monkeypatch):
    # multi-segment draws into the trial-major buffer change no bit of the
    # result, whatever draw length the buffer cap allows
    monkeypatch.setattr(spectrum, "_BIRKHOFF_BUFFER_BYTES",
                        (draw + 15) * 6 * proc.p ** 2 * 8)
    assert spectrum._birkhoff_draw_len(6, proc.p) == draw
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for m in (1, 15, 16, 17, 64, 65, 150, 500):
            g = estimate_gap_birkhoff(proc, m, 6)
            got = (g.value, g.stderr, g.diagnostics["tau_one_fraction"],
                   g.diagnostics["tau_zero_fraction"])
            np.testing.assert_array_equal(got, _birkhoff_per_segment(proc, m, 6))


def test_birkhoff_draws_each_index_run_once(monkeypatch):
    # one sampler call covering every trial per p^2 * draw_len steps, the
    # last one short
    monkeypatch.setattr(spectrum, "_BIRKHOFF_BUFFER_BYTES", 16 * 3 * 2 ** 2 * 8)
    calls = []
    real = PushSumProcess._draw
    monkeypatch.setattr(PushSumProcess, "_draw", lambda self, lanes, out: (
        calls.append((len(lanes), len(out))) or real(self, lanes, out)))
    estimate_gap_birkhoff(two_node(0.25), 150, 3)
    assert calls == [(3, 64), (3, 64), (3, 22)]


def _steps_to_positive(proc, m, trials):
    """Per trial, the least number of steps whose running pattern product
    is all-true (``m + 1`` if none), one step at a time."""
    out = []
    for t in range(trials):
        pr = proc.spawn((spectrum._BIRKHOFF_STREAM, m, t))
        pat = np.eye(proc.p, dtype=bool)
        for s, a in enumerate(pr.dense_block(m), 1):
            pat = (a > 0).astype(int) @ pat > 0
            if pat.all():
                break
        out.append(s if pat.all() else m + 1)
    return out


@pytest.mark.parametrize("proc", [
    ConstantProcess(np.ones((3, 3))), lossy5(), _FAM3_IID, _FAM3_ZERO_ROW,
], ids=["positive", "push_sum", "iid", "zero_row"])
def test_birkhoff_forms_no_pattern_after_every_trial_is_positive(proc, monkeypatch):
    # one segment per draw: _segment_products forms patterns for exactly the
    # segments up to the one in which the last trial turned positive, and
    # for every segment when a member has a zero row
    m, T = 500, 6
    monkeypatch.setattr(spectrum, "_BIRKHOFF_BUFFER_BYTES", 16 * T * proc.p ** 2 * 8)
    flags = []
    real = spectrum._segment_products
    monkeypatch.setattr(spectrum, "_segment_products",
                        lambda steps, patterns:
                        flags.append(patterns) or real(steps, patterns))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        estimate_gap_birkhoff(proc, m, T)
    segments = -(-m // 16)
    if proc is _FAM3_ZERO_ROW:
        assert flags == [True] * segments
        return
    last = max(_steps_to_positive(proc, m, T))
    assert last <= m
    tracked = (last - 1) // 16 + 1
    assert flags == [True] * tracked + [False] * (segments - tracked)
    assert tracked < segments


@pytest.mark.parametrize("proc", [lossy5(), _FAM3_ZERO_ROW],
                         ids=["push_sum", "zero_row"])
def test_segment_products_of_trial_major_steps(proc):
    # three segments of 5 trials, the last one 8 steps padded with identities;
    # products and clipped patterns come back segment-major
    T, p, m = 5, proc.p, 40
    steps = np.empty((T, 48, p, p))
    for t in range(T):
        steps[t, :m] = proc.spawn((7, t)).dense_block(m)
    steps[:, m:] = np.eye(p)
    C, P = spectrum._segment_products(steps, True)
    assert C.shape == P.shape == (3, T, p, p)
    for t in range(T):
        for n in range(3):
            c, b = np.eye(p), np.eye(p, dtype=bool)
            for a in steps[t, 16 * n:16 * (n + 1)]:
                c = a @ c
                b = (a > 0).astype(int) @ b > 0
            assert C[n, t].tobytes() == c.tobytes()
            np.testing.assert_array_equal(P[n, t], b.astype(float))
    C2, P2 = spectrum._segment_products(steps, False)
    assert P2 is None and C2.tobytes() == C.tobytes()


def test_birkhoff_draw_length():
    draw_len = spectrum._birkhoff_draw_len
    assert draw_len(128, 5) == 80                 # 2.05 MB: five segments
    assert draw_len(128, 3) == 224                # 2.06 MB: fourteen segments
    assert draw_len(128, 16) == 16                # 4.2 MB at 16 steps: one
    assert draw_len(4096, 64) == 16               # never below one segment
    cap = spectrum._BIRKHOFF_BUFFER_BYTES
    for t in (1, 64, 256):
        for p in (2, 5, 12):
            n = draw_len(t, p)
            assert n >= 16 and n % 16 == 0
            if n > 16:
                assert n * t * p * p * 8 <= cap < (n + 16) * t * p * p * 8


def _phi_per_trial(U, lognorm, Vh):
    """Reference ``phi`` of one trial's factors: the ``log1p`` spread of
    ``_phis_from_factors`` evaluated on its own, falling back to the
    entrywise scan of ``M`` when the Perron factors are not strictly
    one-signed or some ``1 + delta <= 0``."""
    u1, v1 = U[:, 0].copy(), Vh[0, :].copy()
    if np.all(u1 < 0):
        u1, v1 = -u1, -v1
    if np.any(u1 <= 0) or np.any(v1 <= 0):
        return birkhoff_phi((U * np.exp(lognorm)) @ Vh)
    delta = ((U[:, 1:] * np.exp(lognorm[1:])) @ Vh[1:, :]) / np.outer(u1, v1)
    if np.any(1.0 + delta <= 0.0):
        return birkhoff_phi((U * np.exp(lognorm)) @ Vh)
    t = np.log1p(delta)
    dmax = (t[:, None, :] - t[None, :, :]).max(axis=2)
    return float((dmax + dmax.T).max())


def _phi_cases():
    """Factor stacks covering the log1p path and every fallback of
    ``_phi_per_trial``: a flipped all-negative Perron pair (log1p path),
    a sign split, a non-positive Perron component and ``1 + delta <= 0``.
    The factors need not be orthonormal; the fallback rows describe
    row-allowable matrices ``U diag(exp(lognorm)) Vh`` built by hand."""
    rng = np.random.default_rng(5)
    cases = []
    for p in (2, 3, 5):
        mats = np.exp(rng.uniform(-3, 3, (40, p, p)))
        mats[:3] *= 1e-3 ** np.arange(p)     # deep contractions: tiny lognorm
        u, s, vh = np.linalg.svd(mats)
        with np.errstate(divide="ignore"):
            ln = np.log(s) - np.log(s[:, :1])
        ln[3, 1:] = -np.inf                  # second direction underflowed
        u[4], vh[4] = -u[4], -vh[4]          # all-negative Perron pair
        ones, a = np.ones(p), 1.0 + np.arange(p)
        for t in (5, 6, 7):                  # two rank-one terms, the rest off
            u[t], vh[t], ln[t] = 0.0, 0.0, -np.inf
            ln[t, :2] = 0.0
        # sign split: u1 > 0, v1 < 0; M = a a^T - 0.5 1 1^T
        u[5, :, 0], vh[5, 0] = ones, -0.5 * ones
        u[5, :, 1], vh[5, 1] = a, a
        # zero Perron component: M = u1 1^T + a a^T with u1[0] = 0
        u[6, :, 0], vh[6, 0] = ones, ones
        u[6, 0, 0] = 0.0
        u[6, :, 1], vh[6, 1] = a, a
        # 1 + delta = -0.5 at (0, 0) only: M = 1 1^T - 1.5 e_0 e_0^T
        u[7, :, 0], vh[7, 0] = ones, ones
        u[7, 0, 1], vh[7, 1, 0] = -1.5, 1.0
        cases.append((u, ln, vh))
    return cases


@pytest.mark.parametrize("cap", [None, 1], ids=["one-chunk", "per-trial"])
def test_batched_phi_matches_per_trial(cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(spectrum, "_BIRKHOFF_BUFFER_BYTES", cap)
    calls = []
    monkeypatch.setattr(spectrum, "birkhoff_phi",
                        lambda M: calls.append(1) or birkhoff_phi(M))
    for u, ln, vh in _phi_cases():
        calls.clear()
        got = spectrum._phis_from_factors(u, ln, vh)
        want = [_phi_per_trial(u[t], ln[t], vh[t]) for t in range(len(ln))]
        np.testing.assert_array_equal(got, want)
        assert len(calls) == 3       # sign split, zero component, 1 + delta <= 0
    assert spectrum._phis_from_factors(u[:0], ln[:0], vh[:0]).shape == (0,)


# -- determinant identity ---------------------------------------------------------


def test_det_identity_push_sum_exact():
    lhs, rhs = check_det_identity(lossy5(), 2_000, qr_n=2_000, replicates=4)
    assert lhs == pytest.approx(-math.log(2), abs=1e-14)
    assert rhs == pytest.approx(-math.log(2), abs=0.02)


def test_det_identity_diagonal():
    proc = ConstantProcess(np.diag([2.0, 3.0]), seed=0)
    lhs, rhs = check_det_identity(proc, 100, qr_n=1000, replicates=2)
    assert lhs == pytest.approx(math.log(6), abs=1e-12)
    assert rhs == pytest.approx(math.log(2) + math.log(3), abs=1e-10)


def test_det_identity_singular():
    proc = ConstantProcess(np.outer([1.0, 1.0], [1.0, 2.0]), seed=0)
    lhs, rhs = check_det_identity(proc, 100, qr_n=1000, replicates=2)
    assert lhs == -math.inf
    # float QR leaves a dirty ~1e-16 residual in the dead direction, so the
    # estimator reports a large negative exponent rather than exact -inf
    assert rhs < -30.0
