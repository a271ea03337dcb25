"""Primitives for nonnegative matrices and vectors.

Conventions used throughout the package:

* matrices and vectors are plain dense ``float64`` numpy arrays and
  zero/nonzero patterns are ``bool`` arrays of the same shape; structural
  properties such as allowability are computed from the entries on
  demand, never cached;
* a matrix is *row-allowable* if it has no zero row, *allowable* if it has
  neither a zero row nor a zero column;
* the Hilbert projective distance of strictly positive vectors is
  ``h(x, y) = log max_{k,l} (x_k/y_k) / (x_l/y_l)``;
* the Birkhoff contraction coefficient is ``tau(A) = tanh(phi(A)/4)`` where
  ``phi(A)`` is the largest Hilbert distance between two rows of ``A``;
* the wedge magnitude ``|x ^ y|`` is the square root of the Gram
  determinant ``|x|^2 |y|^2 - <x,y>^2``, computed as
  ``||x y^T - y x^T||_F / sqrt(2)`` so that nearly collinear pairs keep
  their digits.

``phi`` is ``+inf`` as soon as the matrix has a zero entry in a column that
is not entirely zero: such a matrix maps some pairs of positive vectors to
pairs at unbounded projective distance, so it does not contract at all
(``tau = 1``).  All-zero columns are ignored because they never contribute
to the image of the positive cone; in particular a row-allowable matrix
whose nonzero columns are proportional still gets ``phi = 0``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PROB_TOL",
    "is_allowable",
    "is_row_allowable",
    "tv_distance",
    "hilbert_distance",
    "birkhoff_phi",
    "birkhoff_tau",
    "log_tau_from_phi",
    "wedge_magnitude",
]

# Absolute tolerance on probability-vector sums and on exact projective
# identities; contraction inequalities elsewhere use looser slack.
PROB_TOL = 1e-12


def is_allowable(A) -> bool:
    """True iff every row and every column of ``A`` has a positive entry."""
    a = np.asarray(A, dtype=float)
    pos = a > 0
    return bool(pos.any(axis=1).all() and pos.any(axis=0).all())


def is_row_allowable(A) -> bool:
    """True iff every row of ``A`` has a positive entry."""
    return bool((np.asarray(A, dtype=float) > 0).any(axis=1).all())


def _per_row(d: np.ndarray):
    """A float for vector arguments, an array for stacked rows."""
    return float(d) if d.ndim == 0 else d


def tv_distance(xi, eta):
    """Total variation distance ``0.5 * sum_i |xi_i - eta_i|``.

    Both arguments must be probability vectors (sum 1 within ``PROB_TOL``).
    Stacked ``(m, p)`` arguments give the ``m`` row-wise distances.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if xi.shape != eta.shape:
        raise ValueError("dimension mismatch")
    for name, v in (("first", xi), ("second", eta)):
        if np.any(np.abs(v.sum(axis=-1) - 1.0) > PROB_TOL) or np.any(v < 0):
            raise ValueError(f"{name} argument is not a probability vector")
    return _per_row(0.5 * np.abs(xi - eta).sum(axis=-1))


def hilbert_distance(x, y):
    """Hilbert projective distance between strictly positive vectors.

    ``h(x, y) = log max_{k,l} (x_k/y_k)/(x_l/y_l)``; zero iff ``y = c x``.
    Stacked ``(m, p)`` arguments give the ``m`` row-wise distances.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("Hilbert metric requires strict positivity")
    # the log of each ratio, not log x - log y: for entries far from 1 that
    # difference cancels two large logs and is off by about eps * |log x|.
    # Where x / y leaves the normal range the ratio itself rounds, so there
    # the difference of logs is the better value.
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        d = np.log(x / y)
    bad = ~(np.abs(d) < 708.0)
    if bad.any():
        d[bad] = np.log(x[bad]) - np.log(y[bad])
    return _per_row(d.max(axis=-1) - d.min(axis=-1))


def birkhoff_phi(A) -> float:
    """Projective diameter ``phi(A) = max_{i,j} h(A[i,:], A[j,:])``.

    Requires a row-allowable matrix.  All-zero columns are dropped before
    the scan (they do not affect the image of the positive cone); any
    remaining zero entry makes the diameter infinite.
    """
    a = np.asarray(A, dtype=float)
    pos = a > 0
    if not pos.any(axis=1).all():
        raise ValueError("projective diameter requires a row-allowable matrix")
    keep = pos.any(axis=0)
    a = a[:, keep]
    pos = pos[:, keep]
    if not pos.all():
        return math.inf
    L = np.log(a)
    # dmax[i, j] = max_k (log a_ik - log a_jk); phi = max_{i,j} dmax[i,j] + dmax[j,i]
    D = L[:, None, :] - L[None, :, :]
    dmax = D.max(axis=2)
    return float((dmax + dmax.T).max())


def birkhoff_tau(A) -> float:
    """Birkhoff contraction coefficient ``tanh(phi(A)/4)`` in ``[0, 1]``."""
    phi = birkhoff_phi(A)
    if math.isinf(phi):
        return 1.0
    return math.tanh(phi / 4.0)


def log_tau_from_phi(phi: float) -> float:
    """``log tanh(phi/4)``, stable at both ends of the range.

    Tiny ``phi`` uses ``log tanh(x) = log x - x^2/3 + O(x^4)``, because
    ``exp(-phi/2)`` rounds to 1 there; otherwise
    ``log tanh(x) = log1p(-exp(-2x)) - log1p(exp(-2x))``, so large but
    finite diameters still give a strictly negative result where ``tanh``
    rounds to 1.  ``phi = 0`` gives ``-inf`` and ``phi = inf`` gives 0.
    """
    if phi == 0.0:
        return -math.inf
    x = phi / 4.0
    if x < 1e-4:
        return math.log(x) - x * x / 3.0
    q = math.exp(-2.0 * x)
    return math.log1p(-q) - math.log1p(q)


def wedge_magnitude(x, y) -> float:
    """Magnitude ``||x y^T - y x^T||_F / sqrt(2)`` of ``x ^ y``.

    It equals ``sqrt(|x|^2 |y|^2 - <x,y>^2)``, but each entry
    ``x_i y_j - y_i x_j`` cancels on its own, so a nearly collinear pair
    keeps its digits where the Gram form would cancel to zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("dimension mismatch")
    v = (np.outer(x, y) - np.outer(y, x)).ravel()
    return math.sqrt(float(v @ v) / 2.0)
