import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from gossipgap import consensus
from gossipgap.acceptance import _envelope_configs, p4_process
from gossipgap.consensus import (ENVELOPE_SLACK, EVENT_BLOCK, ConsensusState,
                                 fit_rate, make_checkpoints, run, step,
                                 weighted_ratio)
from gossipgap.core import hilbert_distance, tv_distance
from gossipgap.generators import (ConstantProcess, IIDFamilyProcess,
                                  MarkovFamilyProcess, MatrixProcess, PushSumProcess,
                                  is_column_stochastic,
                                  push_sum_matrix, ring, ring_with_chords)
from gossipgap.spectrum import estimate_spectrum_qr

A2 = np.array([[0.5, 0.25], [0.5, 0.75]])


def noloss5(seed=1):
    return PushSumProcess(ring_with_chords(5), seed)


def lossy5(seed=1):
    g = ring_with_chords(5)
    loss = tuple(0.1 if k % 2 == 0 else 0.3 for k in range(len(g.edges)))
    return PushSumProcess(g, seed, 0.5, loss)


# -- step ---------------------------------------------------------------------


def test_step_identity_only_increments():
    s = ConsensusState.from_initial([1.0, 2.0], [1.0, 1.0])
    s2 = step(s, np.eye(2))
    assert s2.n == 1
    np.testing.assert_allclose(s2.ratios(), s.ratios())


def test_step_worked_example():
    s = ConsensusState.from_initial([1.0, 0.0], [1.0, 1.0])
    s2 = step(s, push_sum_matrix(2, (0, 1), 0.5))
    np.testing.assert_allclose(s2.ratios(), [1.0, 1.0 / 3.0])
    # mantissas are jointly rescaled: true vectors are (0.5, 0.5) and (0.5, 1.5)
    scale = math.exp(s2.log_scale)
    np.testing.assert_allclose(s2.x * scale, [0.5, 0.5])
    np.testing.assert_allclose(s2.w * scale, [0.5, 1.5])


def test_proportional_initial_vectors_frozen_ratios():
    w0 = np.array([0.5, 1.5, 1.0])
    s = ConsensusState.from_initial(4.0 * w0, w0)
    proc = noloss5(3)
    proc_small = PushSumProcess(ring(3), 3)
    for _ in range(50):
        s = step(s, proc_small.next_matrix())
    np.testing.assert_allclose(s.ratios(), 4.0, rtol=1e-12)


def test_step_validation():
    s = ConsensusState.from_initial([1.0, 0.0], [1.0, 1.0])
    for bad, msg in ((np.eye(3), "mismatch"),
                     ([[0.0, 0.0], [1.0, 1.0]], "row-allowable"),
                     ([[1.0, -0.5], [0.0, 1.0]], "nonnegative"),
                     ([[np.inf, 1.0], [0.0, 1.0]], "finite"),
                     ([[np.nan, 1.0], [0.0, 1.0]], "finite"),
                     (np.ones((2, 3)), "square"),
                     (np.ones(2), "square")):
        with pytest.raises(ValueError, match=msg):
            step(s, bad)
    # a zero column is allowed: only rows must be nonzero
    assert step(s, [[1.0, 0.0], [1.0, 0.0]]).n == 1


def test_initial_state_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        ConsensusState.from_initial([1.0, 1.0], [-1.0, 1.0])
    with pytest.raises(ValueError, match="not all zero"):
        ConsensusState.from_initial([1.0, 1.0], [0.0, 0.0])
    for x0, w0 in (([math.nan, 1.0], [1.0, 1.0]), ([1.0, 1.0], [math.inf, 1.0]),
                   ([-math.inf, 1.0], [1.0, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            ConsensusState.from_initial(x0, w0)


def test_zero_weight_nodes_excluded_until_positive():
    s = ConsensusState.from_initial([1.0, 5.0], [1.0, 0.0])
    r = s.ratios()
    assert r[0] == 1.0 and np.isnan(r[1])
    assert s.envelope() == (1.0, 1.0)
    s2 = step(s, push_sum_matrix(2, (0, 1), 0.5))
    assert not np.isnan(s2.ratios()[1])


# -- run ----------------------------------------------------------------------


def test_run_no_loss_limit_is_mean():
    rng = np.random.default_rng(8)
    x0 = rng.uniform(0, 1, 5)
    traj = run(noloss5(11), x0, np.ones(5), 3_000)
    assert traj.column_stochastic
    assert traj.limit == pytest.approx(x0.mean(), abs=1e-12)
    assert traj.mid[-1] == pytest.approx(x0.mean(), abs=1e-8)


def test_run_equal_vectors_zero_error():
    x0 = np.array([0.3, 0.7, 0.1, 0.9, 0.5])
    traj = run(lossy5(4), x0, x0, 500)
    np.testing.assert_allclose(traj.max_ratio_error(), 0.0, atol=1e-12)
    np.testing.assert_allclose(traj.tv, 0.0, atol=1e-12)
    np.testing.assert_allclose(traj.env_max - traj.env_min, 0.0, atol=1e-12)


def test_run_constant_left_perron_limit():
    # column-stochastic constant matrix: left Perron vector is all-ones
    traj = run(ConstantProcess(A2, seed=0), [1.0, 0.0], [1.0, 1.0], 2_000)
    assert traj.limit == pytest.approx(0.5, abs=1e-12)
    assert traj.mid[-1] == pytest.approx(0.5, abs=1e-10)


def test_run_constant_rate_matches_eigen_gap():
    traj = run(ConstantProcess(A2, seed=0), [1.0, 0.0], [1.0, 1.0], 2_000,
               checkpoints=np.arange(1, 2001))
    rate = fit_rate(traj.ns, traj.max_ratio_error())
    assert rate == pytest.approx(-math.log(4), rel=0.01)


def test_run_envelope_monotone_and_bracketing():
    rng = np.random.default_rng(2)
    traj = run(lossy5(9), rng.uniform(0, 1, 5), np.ones(5), 10_000)
    assert traj.envelope_violations == 0
    mn, mx = traj.env_min, traj.env_max
    slack = 1e-12 * np.maximum(np.abs(mn), np.abs(mx))
    assert np.all(np.diff(mn) >= -slack[:-1])
    assert np.all(np.diff(mx) <= slack[:-1])
    # final limit estimate is bracketed by every checkpoint envelope
    assert np.all(traj.limit >= mn - slack) and np.all(traj.limit <= mx + slack)


def test_run_scale_equivariance():
    x0 = np.array([0.3, 1.1, 0.2, 0.9, 0.5])
    t1 = run(lossy5(21), x0, np.ones(5), 800)
    t2 = run(lossy5(21), 3.0 * x0, np.ones(5), 800)
    np.testing.assert_allclose(t2.env_min, 3.0 * t1.env_min, rtol=1e-12)
    np.testing.assert_allclose(t2.env_max, 3.0 * t1.env_max, rtol=1e-12)


def test_run_column_stochastic_mass_conserved():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(0, 1, 5)
    proc = noloss5(6)
    state = ConsensusState.from_initial(x0, np.ones(5))
    masses = []
    grand = []
    for _ in range(300):
        state = step(state, proc.next_matrix())
        masses.append(math.log(state.x.sum()) + state.log_scale)
        grand.append(weighted_ratio(state, np.ones(5)))
    np.testing.assert_allclose(masses, math.log(x0.sum()), rtol=1e-12)
    np.testing.assert_allclose(grand, x0.sum() / 5.0, rtol=1e-12)


def test_run_checkpoint_validation():
    with pytest.raises(ValueError, match="checkpoints"):
        run(noloss5(1), np.ones(5), np.ones(5), 100, checkpoints=[0, 5])
    with pytest.raises(ValueError, match="schedule"):
        make_checkpoints(100, "cubic")
    proc = lossy5(2)
    with pytest.raises(ValueError, match="checkpoints"):
        run(proc, np.ones(5), np.ones(5), 100, checkpoints=[5, 101])
    # rejected before any event is served
    np.testing.assert_array_equal(proc.block_events(300), lossy5(2).block_events(300))


def test_run_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        run(lossy5(2), np.ones(4), np.ones(4), 10)


# -- event path against the dense recursion -------------------------------------


def dense_reference(proc, x0, w0, n):
    """Every-step checkpoints of ``step(state, proc.next_matrix())``."""
    state = ConsensusState.from_initial(x0, w0)
    x_nonneg = bool(np.all(state.x >= 0) and np.any(state.x > 0))
    col_stoch, prev, violations, violation_max = True, None, 0, 0.0
    rows = []
    for t in range(1, n + 1):
        A = proc.next_matrix()
        col_stoch = col_stoch and is_column_stochastic(A)
        state = step(state, A)
        mn, mx = state.envelope()
        if prev is not None:
            excess = max(prev[0] - mn, mx - prev[1])
            slack = ENVELOPE_SLACK * max(abs(prev[0]), abs(prev[1]))
            if excess > slack:
                violations += 1
                violation_max = max(violation_max, excess - slack)
        if np.all(state.w > 0):
            prev = (mn, mx)
        x, w = state.x, state.w
        tv = (tv_distance(x / x.sum(), w / w.sum())
              if x_nonneg and x.sum() > 0 else np.nan)
        h = (hilbert_distance(x, w) if np.all(x > 0) and np.all(w > 0)
             else np.nan)
        rows.append((t, mn, mx, tv, h, 0.5 * (mn + mx)))
    cols = dict(zip(("ns", "env_min", "env_max", "tv", "hilbert", "mid"),
                    np.array(rows).T))
    limit = (float(np.sum(x0) / np.sum(w0)) if col_stoch else cols["mid"][-1])
    return cols, limit, col_stoch, violations, violation_max, state


def check_against_dense(k, n, rtol, lead=0):
    (proc, x0, w0), (twin, _, _) = _envelope_configs()[k], _envelope_configs()[k]
    for _ in range(lead):       # leaves look-ahead pending in both
        np.testing.assert_array_equal(proc.next_matrix(), twin.next_matrix())
    compare_with_dense(proc, twin, x0, w0, n, rtol)


def compare_with_dense(proc, twin, x0, w0, n, rtol):
    """``run`` on ``proc`` against the dense recursion on its twin (same
    configuration and stream), every step a checkpoint."""
    traj = run(proc, x0, w0, n, checkpoints=np.arange(1, n + 1))
    cols, limit, col_stoch, violations, violation_max, state = \
        dense_reference(twin, x0, w0, n)
    assert traj.column_stochastic == col_stoch
    assert traj.envelope_violations == violations
    np.testing.assert_array_equal(proc.block_events(300), twin.block_events(300))
    assert traj.final_state.n == state.n
    if rtol == 0:
        for name, ref in cols.items():
            np.testing.assert_array_equal(getattr(traj, name), ref, err_msg=name)
        assert traj.limit == limit
        assert traj.envelope_violation_max == violation_max
        np.testing.assert_array_equal(traj.final_state.x, state.x)
        np.testing.assert_array_equal(traj.final_state.w, state.w)
        assert traj.final_state.log_scale == state.log_scale
        return
    for name, ref in cols.items():
        # tv and hilbert are differences of nearly equal O(1) numbers, so
        # near convergence their relative error is rounding noise
        atol = 1e-14 if name in ("tv", "hilbert") else 0.0
        np.testing.assert_allclose(getattr(traj, name), ref, rtol=rtol,
                                   atol=atol, err_msg=name)
    assert traj.limit == pytest.approx(limit, rel=rtol)
    np.testing.assert_allclose(traj.final_state.x, state.x, rtol=rtol)
    np.testing.assert_allclose(traj.final_state.w, state.w, rtol=rtol)
    assert traj.final_state.log_scale == pytest.approx(state.log_scale, rel=rtol)


# ring5 lossy and lossless, p4, p2 (share 1/2: exact products), then the
# constant, i.i.d. and Markov family configs (member-index path)
@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 6, 7])
def test_run_bitwise_equal_to_dense_recursion(k):
    check_against_dense(k, 3 * EVENT_BLOCK + 17, rtol=0)


# ring5 lossy (event path), constant and Markov family (member-index path)
@pytest.mark.parametrize("k", [0, 5, 7])
@pytest.mark.parametrize("lead", [1, 63, 65])
def test_run_after_single_steps_equal_to_dense_recursion(k, lead):
    check_against_dense(k, EVENT_BLOCK + 70, rtol=0, lead=lead)


def test_run_share_03_matches_dense_recursion():
    # ring3 at share 0.3: a*x[i] rounds, and the dense product may fuse it
    check_against_dense(4, 3 * EVENT_BLOCK + 17, rtol=1e-12)


@pytest.mark.parametrize("k", [0, 5, 7])
def test_run_counts_violations_like_dense_recursion(monkeypatch, k):
    # a negative slack flags every step whose envelope shrinks by less than
    # 1e-3 of its scale, in both paths, across block boundaries
    monkeypatch.setattr(consensus, "ENVELOPE_SLACK", -1e-3)
    monkeypatch.setitem(globals(), "ENVELOPE_SLACK", -1e-3)
    (proc, x0, w0), (twin, _, _) = _envelope_configs()[k], _envelope_configs()[k]
    n = 3 * EVENT_BLOCK + 17
    compare_with_dense(proc, twin, x0, w0, n, rtol=0)
    traj = run(_envelope_configs()[k][0], x0, w0, n)
    assert 0 < traj.envelope_violations < n and traj.envelope_violation_max > 0


def late_weight_family(seed=9):
    """Node 1 starts without weight and gets some only at the first draw of
    the rare second member: step 805 at seed 9."""
    return IIDFamilyProcess([np.eye(2), push_sum_matrix(2, (0, 1), 0.5)],
                            [0.998, 0.002], seed)


@pytest.mark.parametrize("x1", [0.7, 0.0, -0.7])
def test_run_zero_weight_phase_longer_than_a_block(x1):
    # the weightless node's ratio x1 / 0 (inf, nan or -inf) stays out of
    # the envelope
    first = int(np.argmax(late_weight_family().block_events(4 * EVENT_BLOCK) == 1)) + 1
    assert EVENT_BLOCK < first <= 2 * EVENT_BLOCK
    compare_with_dense(late_weight_family(), late_weight_family(), [0.3, x1],
                       [1.0, 0.0], 3 * EVENT_BLOCK + 17, rtol=0)


def test_run_checkpoints_at_block_edges():
    cps = [EVENT_BLOCK, EVENT_BLOCK + 1, 2 * EVENT_BLOCK]
    n = 3 * EVENT_BLOCK + 17
    (proc, x0, w0), (twin, _, _) = _envelope_configs()[0], _envelope_configs()[0]
    traj = run(proc, x0, w0, n, checkpoints=cps)
    cols = dense_reference(twin, x0, w0, n)[0]
    at = np.array(cps) - 1
    for name, ref in cols.items():
        np.testing.assert_array_equal(getattr(traj, name), ref[at], err_msg=name)
    assert not np.isnan(traj.tv).any() and not np.isnan(traj.hilbert).any()


def test_member_table_classifies_family_members():
    two_off = np.eye(3)
    two_off[:, 0] = [0.4, 0.3, 0.3]
    zero_diag = push_sum_matrix(3, (1, 2), 0.5)
    zero_diag[1, 1] = 0.0
    members = [np.eye(3),
               push_sum_matrix(3, (0, 2), 0.3, loss=True),     # lost packet
               push_sum_matrix(3, (2, 0), 0.5),
               zero_diag,                                      # raises when emitted
               push_sum_matrix(3, (0, 1), 0.5) @ push_sum_matrix(3, (2, 1), 0.5),
               two_off,
               np.diag([0.5, 1.0, 0.5])]
    proc = IIDFamilyProcess(members, [1 / 7] * 7, seed=1)
    table, stoch = proc.updates, proc.stochastic
    assert table[:3] == ((0, 1.0, None, 0.0), (0, 0.7, None, 0.0), (2, 0.5, 0, 0.5))
    assert table[3] == (None, 0.0, None, None)
    for k in (4, 5, 6):     # two columns edited, two off-diagonal entries
        assert table[k][:3] == (None, 0.0, None)
        np.testing.assert_array_equal(table[k][3], members[k])
    assert stoch.tolist() == [True, False, True, False, True, True, False]
    assert all(type(v) is float for u in table[:3] for v in (u[1], u[3]))


def test_member_table_of_push_sum_is_one_edit_per_edge_and_loss():
    proc = p4_process()
    table, stoch = proc.updates, proc.stochastic
    edges = ring_with_chords(4, chords=((0, 2),)).edges
    assert table == tuple(u for i, j in edges
                          for u in ((i, 0.5, j, 0.5), (i, 0.5, None, 0.0)))
    assert stoch.tolist() == [True, False] * len(edges)


def _edit_member(p, i, d, lost, share):
    return push_sum_matrix(p, (i, (i + d) % p), share, loss=lost)


@st.composite
def family_runs(draw, shares, edits=True, dense=True, signed=True):
    """A random i.i.d. or Markov family on 2-5 nodes, with push-sum-shaped
    members at the drawn shares and/or dense positive ones, and initial
    vectors (``x0`` of either sign when ``signed``)."""
    p = draw(st.integers(2, 5))
    kinds = []
    if edits:
        kinds.append(st.builds(_edit_member, st.just(p), st.integers(0, p - 1),
                               st.integers(1, p - 1), st.booleans(), shares))
    if dense:
        kinds.append(st.lists(st.floats(0.1, 2.0), min_size=p * p, max_size=p * p)
                     .map(lambda v: np.reshape(v, (p, p))))
    members = draw(st.lists(st.one_of(*kinds), min_size=1, max_size=4))
    f = len(members)
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        build = lambda: IIDFamilyProcess(members, [1 / f] * f, seed)
    else:
        build = lambda: MarkovFamilyProcess(members, np.full((f, f), 1 / f), seed)
    vec = lambda low: st.lists(st.floats(low, 1.0, allow_subnormal=False),
                               min_size=p, max_size=p)
    return build, draw(vec(-1.0 if signed else 0.05)), draw(vec(0.1))


HALF = st.just(0.5)


@settings(max_examples=60, deadline=None)
@given(st.one_of(family_runs(HALF, dense=False), family_runs(HALF, edits=False),
                 family_runs(HALF)))
def test_run_family_bitwise_equal_to_dense_recursion(case):
    # share-1/2 edits (a x[i] exact) and dense members (the same A @ x)
    build, x0, w0 = case
    compare_with_dense(build(), build(), x0, w0, 150, rtol=0)


@settings(max_examples=60, deadline=None)
@given(family_runs(st.floats(0.01, 0.99), dense=False, signed=False))
def test_run_family_random_shares_match_dense_recursion(case):
    build, x0, w0 = case
    compare_with_dense(build(), build(), x0, w0, 150, rtol=1e-12)


def test_run_never_builds_an_emission(monkeypatch):
    def no_matrix(self):
        raise AssertionError("run called next_matrix")
    monkeypatch.setattr(MatrixProcess, "next_matrix", no_matrix)
    for proc, x0, w0 in _envelope_configs():
        assert run(proc, x0, w0, EVENT_BLOCK + 70).final_state.n == EVENT_BLOCK + 70


@pytest.mark.parametrize("k", [5, 6, 7])
@pytest.mark.parametrize("lead", [0, 1, 63, 65])
def test_run_leaves_family_stream_like_single_steps(k, lead):
    (proc, x0, w0), (twin, _, _) = _envelope_configs()[k], _envelope_configs()[k]
    for _ in range(lead):
        proc.next_matrix()
    n = EVENT_BLOCK + 70
    run(proc, x0, w0, n)
    for _ in range(lead + n):
        twin.next_matrix()
    np.testing.assert_array_equal(proc.next_matrix(), twin.next_matrix())


def zero_row_family(prob):
    """I.i.d. family whose second member has a zero row, drawn w.p. ``prob``."""
    return IIDFamilyProcess([np.eye(2), [[0.0, 0.0], [1.0, 1.0]]],
                            [1.0 - prob, prob], seed=1)


def test_run_family_member_of_probability_zero_never_raises():
    traj = run(zero_row_family(0.0), [1.0, 0.0], [1.0, 1.0], 1000)
    assert traj.final_state.n == 1000 and traj.column_stochastic


def test_run_family_raises_on_emitted_zero_row_member():
    with pytest.raises(ValueError, match="row-allowable"):
        run(zero_row_family(0.1), [1.0, 0.0], [1.0, 1.0], 1000)
    # a run that stops just before the first step emitting it completes
    first = int(np.argmax(zero_row_family(0.1).block_events(1000) == 1)) + 1
    assert run(zero_row_family(0.1), [1.0, 0.0], [1.0, 1.0], first - 1).final_state.n \
        == first - 1
    with pytest.raises(ValueError, match="row-allowable"):
        run(zero_row_family(0.1), [1.0, 0.0], [1.0, 1.0], first)


def test_tv_column_nan_for_signed_values():
    x0 = np.array([1.0, -1.0, 0.5, 0.2, 0.1])
    traj = run(lossy5(3), x0, np.ones(5), 200)
    assert np.all(np.isnan(traj.tv))
    # envelope still tracked for signed values
    assert np.all(np.isfinite(traj.env_min))


def test_hilbert_column_present_for_positive_trajectories():
    rng = np.random.default_rng(12)
    traj = run(lossy5(13), rng.uniform(0.1, 1, 5), np.ones(5), 2_000)
    assert np.isfinite(traj.hilbert[-1])
    # TV is bounded by the Hilbert-distance envelope pointwise
    mask = np.isfinite(traj.hilbert) & np.isfinite(traj.tv)
    assert np.all(traj.tv[mask] <= 0.5 * (np.exp(traj.hilbert[mask]) - 1.0) + 1e-12)


# -- weighted ratio -----------------------------------------------------------


def test_weighted_ratio_unit_vector():
    s = ConsensusState.from_initial([1.0, 0.0], [1.0, 1.0])
    s = step(s, push_sum_matrix(2, (0, 1), 0.5))
    assert weighted_ratio(s, [1.0, 0.0]) == pytest.approx(1.0)
    assert weighted_ratio(s, [0.0, 1.0]) == pytest.approx(1.0 / 3.0)
    assert weighted_ratio(s, [1.0, 1.0]) == pytest.approx(0.5)


def test_weighted_ratio_sandwich_randomized():
    rng = np.random.default_rng(7)
    proc = lossy5(17)
    s = ConsensusState.from_initial(rng.uniform(0, 1, 5), np.ones(5))
    for _ in range(1000):
        s = step(s, proc.next_matrix())
        q = rng.uniform(0, 1, 5)
        q[q < 0.2] = 0.0
        if not q.any():
            q[0] = 1.0
        mn, mx = s.envelope()
        slack = 1e-12 * max(abs(mn), abs(mx))
        assert mn - slack <= weighted_ratio(s, q) <= mx + slack


def test_weighted_ratio_validation():
    s = ConsensusState.from_initial([1.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        weighted_ratio(s, [-1.0, 1.0])
    with pytest.raises(ValueError, match="zero weight mass"):
        weighted_ratio(s, [0.0, 1.0])


# -- rate fitting ---------------------------------------------------------------


def test_fit_rate_exact_exponential():
    ns = np.arange(1, 101, dtype=float)
    assert fit_rate(ns, np.exp(-0.7 * ns)) == pytest.approx(-0.7, abs=1e-9)
    assert fit_rate(ns, 5.0 * np.exp(-0.7 * ns)) == pytest.approx(-0.7, abs=1e-9)


def test_fit_rate_needs_points():
    ns = np.arange(1, 8, dtype=float)
    with pytest.raises(ValueError, match="at least 10"):
        fit_rate(ns, np.exp(-ns))
    ns = np.arange(1, 101, dtype=float)
    vals = np.exp(-0.1 * ns)
    vals[9:] = 0.0  # nonpositive tail gets dropped
    with pytest.raises(ValueError, match="at least 10"):
        fit_rate(ns, vals)


def test_rate_window_trims_transient_and_floor():
    # fit_rate fits exactly the points within 1e-12..1e-2 of the maximum
    ns = np.arange(1, 2001, dtype=float)
    vals = np.maximum(np.exp(-0.05 * ns), 1e-16)
    window = (vals >= 1e-12 * vals.max()) & (vals <= 1e-2 * vals.max())
    assert 0 < window.sum() < (vals > 1e-16).sum()
    rate = fit_rate(ns, vals)
    assert rate == float(np.polyfit(ns[window], np.log(vals[window]), 1)[0])
    assert rate == pytest.approx(-0.05, rel=1e-6)


def test_rate_window_all_nan_raises_without_warning():
    ns = np.arange(1, 11, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no positive values"):
            fit_rate(ns, np.full(10, np.nan))


def test_make_checkpoints():
    cps = make_checkpoints(1000, "geometric")
    assert cps[0] == 1 and cps[-1] == 1000
    assert np.all(np.diff(cps) > 0)
    lin = make_checkpoints(1000, "linear", count=50)
    assert len(lin) == 50 and lin[-1] == 1000


def test_linear_checkpoints_end_at_the_horizon():
    # one linear checkpoint is the horizon itself, not step 1; from two on
    # the schedule is the evenly spaced one, first and last step included
    assert make_checkpoints(600, "linear", count=1).tolist() == [600]
    assert make_checkpoints(1, "linear", count=1).tolist() == [1]
    for n, count in ((600, 2), (600, 3), (600, 200), (7, 200), (1000, 50)):
        want = sorted(set(np.linspace(1, n, min(count, n)).astype(np.int64).tolist()))
        assert make_checkpoints(n, "linear", count=count).tolist() == want
    traj = run(ConstantProcess(np.eye(2)), [1.0, 2.0], [1.0, 1.0], 60,
               checkpoints=make_checkpoints(60, "linear", count=1))
    assert traj.ns.tolist() == [60]


_SCHEDULES = """
import json, sys
import numpy as np
from gossipgap.consensus import make_checkpoints, run
from gossipgap.generators import ConstantProcess
traj = run(ConstantProcess(np.eye(2)), [1.0, 2.0], [1.0, 1.0], 60,
           checkpoints=[60, 7, 3, 7, 1, 60, 3])
out = [make_checkpoints(5000), make_checkpoints(300, "linear"), traj.ns]
print(json.dumps({"numpy.ma": "numpy.ma" in sys.modules,
                  "schedules": [(c.tolist(), str(c.dtype)) for c in out]}))
"""


def test_checkpoint_schedules_do_not_import_numpy_ma():
    # a fresh interpreter builds both schedules and an explicit checkpoint
    # list without loading numpy.ma (which np.unique imports), and gets
    # what np.unique gave
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _SCHEDULES], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["numpy.ma"] is False
    ks, v = [], 1.0
    while v < 5000:
        ks.append(math.ceil(v))
        v *= 1.15
    want = [np.unique(np.array(ks + [5000], dtype=np.int64)),
            np.unique(np.linspace(1, 300, 200).astype(np.int64)),
            np.unique(np.array([60, 7, 3, 7, 1, 60, 3], dtype=np.int64))]
    assert got["schedules"] == [[w.tolist(), str(w.dtype)] for w in want]


def test_run_rate_bounded_by_lambda2_no_loss():
    proc = noloss5(19)
    est = estimate_spectrum_qr(proc, 2, 30_000, replicates=8)
    rng = np.random.default_rng(4)
    horizon = int(40.0 / est.gap)
    rates = []
    for r in range(4):
        traj = run(proc.spawn((600, r)), rng.uniform(0, 1, 5), np.ones(5),
                   horizon, checkpoints=np.arange(1, horizon + 1))
        rates.append(fit_rate(traj.ns, traj.max_ratio_error()))
    se = np.std(rates, ddof=1) / 2.0
    assert np.mean(rates) <= est.lambdas[1] + 3 * math.sqrt(se ** 2 + est.stderr[1] ** 2)
