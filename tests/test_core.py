import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipgap.core import (birkhoff_phi, birkhoff_tau, hilbert_distance,
                            is_allowable, is_row_allowable, log_tau_from_phi,
                            tv_distance, wedge_magnitude)
from gossipgap.consensus import ConsensusState, step


def positive_vectors(max_dim=6):
    return st.integers(2, max_dim).flatmap(
        lambda p: st.lists(st.floats(1e-3, 1e3), min_size=p, max_size=p))


def positive_matrices(max_dim=6):
    def build(p):
        return st.lists(st.lists(st.floats(1e-3, 1e3), min_size=p, max_size=p),
                        min_size=p, max_size=p)
    return st.integers(2, max_dim).flatmap(build)


# -- allowability and extremes ------------------------------------------------


def test_identity_allowable():
    assert is_allowable(np.eye(3))


def test_zero_column_not_allowable():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert not is_allowable(a)
    assert is_row_allowable(a)


def test_loss_matrix_allowable():
    # one-edge transaction with the packet lost: diagonal stays positive
    a = np.array([[0.5, 0.0], [0.0, 1.0]])
    assert is_allowable(a)


def test_nonneg_matrix_flags():
    m = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert is_row_allowable(m) and is_allowable(m) and not (m > 0).all()
    pos = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert (pos > 0).all() and is_allowable(pos) and is_row_allowable(pos)


def test_nonneg_matrix_validation():
    # a matrix passed between layers is a plain array; step is where it is
    # checked for being square, finite and nonnegative
    s = ConsensusState.from_initial([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        step(s, [[1.0, -0.1], [0.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        step(s, np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        step(s, [[np.inf, 1.0], [0.0, 1.0]])


# -- simplex / tv -------------------------------------------------------------


def test_tv_distance_examples():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1, 0], [0, 1]) == 1.0
    assert tv_distance([0.25, 0.75], [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)


def test_tv_distance_rejects_unnormalized():
    with pytest.raises(ValueError, match="probability"):
        tv_distance([0.5, 0.6], [0.5, 0.5])


# -- Hilbert metric -----------------------------------------------------------


def test_hilbert_proportional_is_zero():
    x = np.array([0.2, 1.7, 3.0])
    assert hilbert_distance(x, 3.0 * x) == pytest.approx(0.0, abs=1e-15)


def test_hilbert_examples():
    assert hilbert_distance([1, 2], [2, 1]) == pytest.approx(math.log(4))
    assert hilbert_distance([1, 1, 1], [1, 2, 4]) == pytest.approx(math.log(4))


def test_hilbert_proportional_tiny_entries_is_zero():
    # entries near 1e-35 and 1e-300: log x - log y would cancel logs of
    # size 80 and 690 and leave ~1e-14 and ~1e-13 of rounding
    x = np.array([2.0, 2.0 * 1.6051293460306820e-35, 2.0 * 1.17e-4])
    assert hilbert_distance(x, x / 2.0) == 0.0
    assert hilbert_distance(x * 1e-265, x * 1e-265 / 3) < 1e-15


def test_hilbert_ratios_outside_normal_range():
    # x / y overflows or underflows; the distance is still finite
    assert hilbert_distance([1e300, 1.0], [1e-300, 1.0]) == pytest.approx(
        600 * math.log(10))
    assert hilbert_distance([1e-300, 1.0], [1e300, 1.0]) == pytest.approx(
        600 * math.log(10))


def test_hilbert_requires_positivity():
    with pytest.raises(ValueError, match="strict positivity"):
        hilbert_distance([1, 0], [1, 1])


@settings(max_examples=150)
@given(positive_vectors(), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_hilbert_scaling_invariance(v, c, d):
    x = np.asarray(v)
    y = x[::-1].copy()
    assert hilbert_distance(x, y) == pytest.approx(
        hilbert_distance(c * x, d * y), abs=1e-12)


# -- Birkhoff coefficient -----------------------------------------------------


def test_phi_rank_one_positive():
    u = np.array([1.0, 2.0, 0.5])
    v = np.array([3.0, 1.0, 2.0])
    assert birkhoff_phi(np.outer(u, v)) == pytest.approx(0.0, abs=1e-12)


def test_phi_cross_ratio():
    assert birkhoff_phi([[2, 1], [1, 2]]) == pytest.approx(math.log(4))


def test_phi_infinite_with_zero_entry():
    from gossipgap.generators import push_sum_matrix
    a = push_sum_matrix(3, (0, 1), 0.5)
    assert math.isinf(birkhoff_phi(a))
    assert birkhoff_tau(a) == 1.0


def test_phi_zero_row_rejected():
    with pytest.raises(ValueError, match="row-allowable"):
        birkhoff_phi([[0.0, 0.0], [1.0, 1.0]])


def test_phi_ignores_zero_columns():
    # image of the positive cone is one ray: perfectly contracting
    assert birkhoff_phi([[1.0, 0.0], [2.0, 0.0]]) == 0.0
    assert birkhoff_tau([[1.0, 0.0], [2.0, 0.0]]) == 0.0


def test_tau_exact_third():
    assert birkhoff_tau([[2, 1], [1, 2]]) == pytest.approx(1.0 / 3.0, abs=1e-15)


@settings(max_examples=200)
@given(st.floats(0.05, 20), st.floats(0.05, 20), st.floats(0.05, 20),
       st.floats(0.05, 20))
def test_tau_2x2_closed_form(a, b, c, d):
    # independent closed form |sqrt(ad) - sqrt(bc)| / (sqrt(ad) + sqrt(bc))
    sad, sbc = math.sqrt(a * d), math.sqrt(b * c)
    expected = abs(sad - sbc) / (sad + sbc)
    assert birkhoff_tau([[a, b], [c, d]]) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(positive_matrices(), st.integers(0, 2 ** 31 - 1))
def test_hilbert_contraction(m, seed):
    a = np.asarray(m)
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(-2, 2, a.shape[0]))
    y = np.exp(rng.uniform(-2, 2, a.shape[0]))
    assert (hilbert_distance(a @ x, a @ y)
            <= birkhoff_tau(a) * hilbert_distance(x, y) + 1e-10)


@settings(max_examples=150, deadline=None)
@given(positive_matrices(4), positive_matrices(4))
def test_tau_submultiplicative_positive(ma, mb):
    a, b = np.asarray(ma), np.asarray(mb)
    if a.shape != b.shape:
        return
    assert birkhoff_tau(a @ b) <= birkhoff_tau(a) * birkhoff_tau(b) + 1e-12


@settings(max_examples=150)
@given(positive_matrices(5), st.floats(1e-2, 1e2), st.floats(1e-2, 1e2))
def test_tau_scaling_invariance(m, c, d):
    a = np.asarray(m)
    scaled = a.copy()
    scaled[0, :] *= c          # row scaling
    scaled[:, -1] *= d         # column scaling
    assert birkhoff_tau(scaled) == pytest.approx(birkhoff_tau(a), abs=1e-12)
    assert birkhoff_tau(a) <= 1.0


@settings(max_examples=150)
@given(positive_vectors())
def test_tv_hilbert_bound(v):
    v = np.asarray(v)
    xi = v / v.sum()
    eta = v[::-1] / v[::-1].sum()
    assert tv_distance(xi, eta) <= 0.5 * (math.exp(hilbert_distance(xi, eta)) - 1.0) + 1e-12


def test_log_birkhoff_tau_stable_for_large_phi():
    # entries spanning ~1e30 make tanh(phi/4) round to 1, but the log must not be 0
    a = np.array([[1e30, 1e-30], [1e-30, 1e30]])
    assert birkhoff_tau(a) == 1.0 or birkhoff_tau(a) < 1.0  # float may round
    lt = log_tau_from_phi(birkhoff_phi(a))
    assert -1e-10 < lt < 0.0


@pytest.mark.parametrize("phi,rtol", [(1e-9, 1e-15), (1e-3, 1e-14), (1.0, 1e-14),
                                      (50.0, 1e-5)])
def test_log_tau_from_phi_matches_log_tanh(phi, rtol):
    # at phi = 50, 1 - tanh(12.5) ~ 3e-11 keeps only ~5 digits in tanh itself
    assert log_tau_from_phi(phi) == pytest.approx(math.log(math.tanh(phi / 4)), rel=rtol)


def test_log_tau_from_phi_ends():
    assert log_tau_from_phi(0.0) == -math.inf
    assert log_tau_from_phi(math.inf) == 0.0
    for phi in (100.0, 400.0, 1000.0, 1400.0):   # tanh(phi/4) rounds to 1 here
        assert math.tanh(phi / 4) == 1.0
        assert log_tau_from_phi(phi) < 0.0
    assert log_tau_from_phi(1000.0) == pytest.approx(-2 * math.exp(-500.0))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_bellman_sandwich(p, seed):
    rng = np.random.default_rng(seed)
    b = np.exp(rng.uniform(-3, 3, (p, p)))
    x = np.exp(rng.uniform(-3, 3, (p, p))) * (rng.random((p, p)) < 0.6)
    for i in range(p):
        if not x[i].any():
            x[i, rng.integers(p)] = 1.0
        if not x[:, i].any():
            x[rng.integers(p), i] = 1.0
    m = b @ x
    rb = b[:, None, :] / b[None, :, :]
    rm = m[:, None, :] / m[None, :, :]
    lo = rb.min(axis=2, keepdims=True)
    hi = rb.max(axis=2, keepdims=True)
    assert np.all(rm >= lo * (1 - 1e-10))
    assert np.all(rm <= hi * (1 + 1e-10))


# -- wedge and determinant ----------------------------------------------------


def test_wedge_orthonormal():
    assert wedge_magnitude([1, 0, 0], [0, 1, 0]) == 1.0


def test_wedge_collinear():
    x = np.array([1.0, 2.0, 3.0])
    assert wedge_magnitude(x, 2.5 * x) == pytest.approx(0.0, abs=1e-12)


def test_wedge_example():
    assert wedge_magnitude([1, 0], [1, 1]) == pytest.approx(1.0)


@pytest.mark.parametrize("shift", [-1000, -600, 0, 600, 960])
def test_wedge_scales_exactly_by_powers_of_two(shift):
    # entries of x y^T - y x^T near 2**1000 or 2**-1000 square out of the
    # float range; the magnitude still scales by exactly 2**shift
    x, y = np.array([1.0, 0.2, -0.7]), np.array([0.3, 1.0, 0.5])
    m = wedge_magnitude(x, y)
    assert wedge_magnitude(x * 2.0 ** shift, y) == math.ldexp(m, shift)


@pytest.mark.parametrize("sep", [1e-4, 1e-8, 1e-12])
def test_wedge_nearly_collinear_keeps_its_digits(sep):
    # x = w + d e_1, so |x ^ w| = |d| |e_1 ^ w| = |d| sqrt(|w|^2 - w_1^2);
    # the Gram form |x|^2 |w|^2 - <x, w>^2 cancels to 0.0 at sep = 1e-8
    x, w = np.array([1.0, 1.0 + sep, 0.5]), np.array([1.0, 1.0, 0.5])
    d = x[1] - 1.0                      # exact: the operands are within 2x
    assert wedge_magnitude(x, w) == pytest.approx(d * math.sqrt(1.25), rel=1e-12)


@settings(max_examples=150)
@given(positive_vectors(), st.integers(0, 2 ** 31 - 1))
def test_wedge_symmetry_and_frobenius(v, seed):
    x = np.asarray(v)
    y = np.exp(np.random.default_rng(seed).uniform(-1, 1, len(x)))
    m = wedge_magnitude(x, y)
    assert m == pytest.approx(wedge_magnitude(y, x), rel=1e-12)
    frob = np.linalg.norm(np.outer(x, y) - np.outer(y, x))
    assert m == pytest.approx(frob / math.sqrt(2), rel=1e-9, abs=1e-12)
