"""Ratio-consensus trajectory simulation.

Iterates ``x_n = A_n x_{n-1}``, ``w_n = A_n w_{n-1}`` for a pair of initial
vectors (values ``x``, nonnegative weights ``w``) and tracks the per-node
ratios ``x_n^i / w_n^i``.  Both vectors are stored as mantissas with one
shared log-scale shift, applied jointly each step, so the ratios are exact
while arbitrarily long products stay representable.

``run`` drives every kind through one step loop over the member indices
that ``MatrixProcess.block_events`` draws in blocks, each looked up in the
process's ``updates`` table, built once per process.  A column edit
``(i, keep, j, a)`` (a push-sum send, or a family member that is the
identity with only column ``i`` changed) is two row updates,
``x[j] += a x[i]`` (none for a lost packet or a diagonal-only member),
then ``x[i] *= keep``.  Any other member is applied as the dense product
``A @ x``, and a member that is not row-allowable raises at the first step
that emits it.  Column-stochasticity comes from the process's per-member
``stochastic`` flags.  Each step then only does what must be sequential:
the joint rescale by ``max(w)``, whose rounding feeds the next step, and
appending the mantissas to the block's buffers.  The ratios, the envelope,
the envelope check and the checkpoint snapshots are taken once per block in
one numpy pass over its ``(steps, p)`` arrays; they are elementwise IEEE
operations and exact minima and maxima, so they equal a per-step check bit
for bit.  The results are those of iterating :func:`step`: bit for bit for
dense members and for column edits whose off-diagonal entry is a power of
two (``a x[i]`` is then exact), otherwise to rounding (a dense
matrix-vector product may fuse the multiply-add).

Recorded diagnostics per checkpoint: the min/max ratio envelope (over nodes
with positive weight), the total-variation distance of the simplex
normalizations of ``x_n`` and ``w_n`` (only meaningful for ``x >= 0``), the
Hilbert distance of ``x_n`` and ``w_n`` (only when both are strictly
positive) and the running envelope midpoint.

The consensus limit of a run is ``(1^T x_0) / (1^T w_0)`` exactly when
every emitted matrix is column-stochastic; otherwise the limit is random
and is estimated by the midpoint of the final envelope, whose width shrinks
like the tracked error itself, so the induced error does not distort
fitted decay rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import hilbert_distance, is_row_allowable, tv_distance
from .generators import MatrixProcess

__all__ = [
    "ConsensusState",
    "Trajectory",
    "step",
    "run",
    "weighted_ratio",
    "fit_rate",
    "make_checkpoints",
]

ENVELOPE_SLACK = 1e-12


@dataclass
class ConsensusState:
    """Current values/weights in shared log-scaled form.

    True vectors are ``exp(log_scale) * x`` and ``exp(log_scale) * w``; the
    per-node ratios are plain quotients of the mantissas.
    """

    n: int
    x: np.ndarray
    w: np.ndarray
    log_scale: float

    @classmethod
    def from_initial(cls, x0, w0) -> "ConsensusState":
        x0 = np.asarray(x0, dtype=float).copy()
        w0 = np.asarray(w0, dtype=float).copy()
        if x0.shape != w0.shape or x0.ndim != 1:
            raise ValueError("x0 and w0 must be vectors of equal length")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(w0))):
            raise ValueError("x0 and w0 must be finite")
        if np.any(w0 < 0) or not np.any(w0 > 0):
            raise ValueError("weights must be nonnegative and not all zero")
        return cls(0, x0, w0, 0.0)

    @property
    def p(self) -> int:
        return len(self.x)

    def ratios(self) -> np.ndarray:
        """Per-node ``x/w``; nan at nodes whose weight is (still) zero."""
        out = np.full(self.p, np.nan)
        mask = self.w > 0
        out[mask] = self.x[mask] / self.w[mask]
        return out

    def envelope(self) -> tuple[float, float]:
        r = self.ratios()
        return float(np.nanmin(r)), float(np.nanmax(r))


def step(state: ConsensusState, A) -> ConsensusState:
    """One update ``(x, w) -> (A x, A w)`` with joint rescaling.

    ``A`` must be a square, finite, nonnegative, row-allowable matrix of
    the state's dimension.
    """
    a = np.asarray(A, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if np.any(a < 0):
        raise ValueError("matrix entries must be nonnegative")
    if a.shape[0] != state.p:
        raise ValueError(f"dimension mismatch: matrix p={a.shape[0]}, state p={state.p}")
    if not is_row_allowable(a):
        raise ValueError("update matrix must be row-allowable")
    y = a @ state.x
    v = a @ state.w
    c = float(v.max())
    if not c > 0:
        raise ValueError("weight vector vanished; update matrix must keep w nonzero")
    return ConsensusState(state.n + 1, y / c, v / c, state.log_scale + math.log(c))


@dataclass
class Trajectory:
    """Checkpoint rows of one consensus run plus the limit estimate."""

    ns: np.ndarray
    env_min: np.ndarray
    env_max: np.ndarray
    tv: np.ndarray
    hilbert: np.ndarray
    mid: np.ndarray                  # running envelope midpoint
    limit: float
    column_stochastic: bool
    envelope_violations: int
    envelope_violation_max: float
    final_state: ConsensusState

    def max_ratio_error(self) -> np.ndarray:
        """``max_i |ratio_i - limit|`` per checkpoint (limit inside envelope)."""
        return np.maximum(self.env_max - self.limit, self.limit - self.env_min)

    TABLE_HEADER = ("n", "max_ratio_error", "tv", "envelope_min",
                    "envelope_max", "hilbert", "limit_estimate")

    def rows(self):
        """Table rows as Python ints and floats, which format faster than
        numpy scalars."""
        return zip(*(c.tolist() for c in (
            self.ns, self.max_ratio_error(), self.tv, self.env_min,
            self.env_max, self.hilbert, self.mid)))


def _sorted_distinct(values) -> np.ndarray:
    """Sorted distinct values as an ``int64`` array, like ``np.unique`` but
    without its first-call import of ``numpy.ma``."""
    flat = np.asarray(values, dtype=np.int64).ravel().tolist()
    return np.array(sorted(set(flat)), dtype=np.int64)


def make_checkpoints(n: int, kind: str = "geometric", count: int = 200) -> np.ndarray:
    """Checkpoint schedule up to and including ``n``: geometric with ratio
    1.15, or ``count`` (at most ``n``) evenly spaced steps."""
    n = int(n)
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if kind == "geometric":
        ks = []
        v = 1.0
        while v < n:
            ks.append(int(math.ceil(v)))
            v *= 1.15
        ks.append(n)
        return _sorted_distinct(ks)
    if kind == "linear":
        if min(count, n) == 1:      # linspace(1, n, 1) would stop at 1
            return np.array([n], dtype=np.int64)
        return _sorted_distinct(np.linspace(1, n, min(count, n)).astype(np.int64))
    raise ValueError(f"unknown checkpoint schedule {kind!r}")


EVENT_BLOCK = 512      # member indices drawn per block_events call


def run(proc: MatrixProcess, x0, w0, n: int, checkpoints=None) -> Trajectory:
    """Iterate the consensus recursion for ``n`` steps of ``proc``.

    One step loop serves every kind: each step looks its ``block_events``
    member index up in ``proc.updates`` and applies the column edit
    (``x[j] += a x[i]``, then ``x[i] *= keep``, and the same for ``w``)
    or the dense product ``A @ x``, then rescales both by ``max(w)`` as
    :func:`step` does and appends them to the block's buffers.  After each
    ``EVENT_BLOCK``-step block one numpy pass takes the ratios and their
    min/max envelope per step (nodes of zero weight are left out), checks
    each step's envelope against the last one before it at which all
    weights were positive (carried across blocks), where the
    monotone-envelope argument applies, and counts violations beyond the
    floating slack.  Checkpoints keep ``(x, w)`` snapshots, from which the
    TV and Hilbert columns are computed after the loop.  The result equals
    iterating :func:`step` bit for bit for dense members and power-of-two
    ``a``, otherwise to rounding (see the module docstring).
    """
    state = ConsensusState.from_initial(x0, w0)
    n = int(n)
    if checkpoints is None:
        cps = make_checkpoints(n)
    else:
        cps = _sorted_distinct(list(checkpoints))
        if len(cps) == 0 or cps[0] < 1 or cps[-1] > n:
            raise ValueError("checkpoints must lie in [1, n]")
    if proc.p != state.p:
        raise ValueError(f"dimension mismatch: process p={proc.p}, state p={state.p}")

    p = state.p
    x, w = state.x.tolist(), state.w.tolist()
    log_scale = 0.0
    table, stoch = proc.updates, proc.stochastic
    col_stoch = True
    prev_env = None         # last envelope at which every weight was positive
    violations = 0
    violation_max = 0.0
    rows_min, rows_max, snap_x, snap_w = [], [], [], []

    for done in range(0, n, EVENT_BLOCK):
        keys = proc.block_events(min(EVENT_BLOCK, n - done))
        col_stoch = col_stoch and bool(stoch[keys].all())
        xs, ws = [], []
        for k in keys.tolist():
            i, keep, j, a = table[k]
            if i is not None:
                if j is not None:
                    x[j] += a * x[i]
                    w[j] += a * w[i]
                x[i] *= keep
                w[i] *= keep
            elif a is None:
                raise ValueError("update matrix must be row-allowable")
            else:
                x = (a @ x).tolist()
                w = (a @ w).tolist()
            c = max(w)
            if not c > 0:
                raise ValueError("weight vector vanished; update matrix must keep w nonzero")
            if c != 1.0:        # v / 1.0 == v and log(1.0) == 0.0: skip both
                x = [v / c for v in x]
                w = [v / c for v in w]
                log_scale += math.log(c)
            xs += x
            ws += w

        # the rest of the bookkeeping, once per block: row t is step done+t+1
        m = len(keys)
        X, W = np.array(xs).reshape(m, p), np.array(ws).reshape(m, p)
        pos = W > 0         # zero-weight nodes leave the envelope
        full = pos.all(axis=1)
        R = np.divide(X, W, out=np.full((m, p), np.inf), where=pos)
        mn = R.min(axis=1)
        mx = np.where(pos, R, -np.inf).max(axis=1)
        # step t is checked against the last full envelope before it: entry
        # 0 carries the previous block's, forward-filled over full steps
        lo, hi = prev_env or (np.nan, np.nan)
        env_mn, env_mx = np.concatenate(([lo], mn)), np.concatenate(([hi], mx))
        has = np.concatenate(([prev_env is not None], full))
        last = np.maximum.accumulate(np.where(has, np.arange(m + 1), -1))
        if last[-1] >= 0:
            prev_env = (env_mn[last[-1]], env_mx[last[-1]])
        ref = last[:-1]
        checked = ref >= 0
        p_mn, p_mx = env_mn[ref[checked]], env_mx[ref[checked]]
        slack = ENVELOPE_SLACK * np.maximum(np.abs(p_mn), np.abs(p_mx))
        excess = np.maximum(p_mn - mn[checked], mx[checked] - p_mx)
        over = excess > slack
        if over.any():
            violations += int(over.sum())
            violation_max = max(violation_max, float((excess - slack)[over].max()))
        at = cps[(cps > done) & (cps <= done + m)] - done - 1
        rows_min.append(mn[at])
        rows_max.append(mx[at])
        snap_x.append(X[at])
        snap_w.append(W[at])

    env_min, env_max = np.concatenate(rows_min), np.concatenate(rows_max)
    mid = 0.5 * (env_min + env_max)
    X, W = np.concatenate(snap_x), np.concatenate(snap_w)
    tv = np.full(len(cps), np.nan)
    if np.all(state.x >= 0) and np.any(state.x > 0):
        sx = X.sum(axis=1)
        ok = sx > 0
        tv[ok] = tv_distance(X[ok] / sx[ok, None],
                             W[ok] / W[ok].sum(axis=1, keepdims=True))
    hilbert = np.full(len(cps), np.nan)
    pos = np.all(X > 0, axis=1) & np.all(W > 0, axis=1)
    hilbert[pos] = hilbert_distance(X[pos], W[pos])

    if col_stoch:
        limit = float(state.x.sum() / state.w.sum())
    else:
        limit = float(mid[-1])
    final = ConsensusState(n, np.array(x), np.array(w), log_scale)
    return Trajectory(cps, env_min, env_max, tv, hilbert, mid, limit, col_stoch,
                      violations, violation_max, final)


def weighted_ratio(state: ConsensusState, q) -> float:
    """``(q^T x) / (q^T w)``; always inside the current ratio envelope."""
    q = np.asarray(q, dtype=float)
    if q.shape != state.x.shape:
        raise ValueError("dimension mismatch")
    if np.any(q < 0) or not np.any(q > 0):
        raise ValueError("probe vector must be nonnegative and nonzero")
    den = float(q @ state.w)
    if den <= 0:
        raise ValueError("probe vector has zero weight mass")
    return float(q @ state.x) / den


def fit_rate(ns, values) -> float:
    """Least-squares slope of ``log value`` vs ``n`` over the informative
    range of a decaying series.

    Only points whose value lies in ``[1e-12, 1e-2]`` relative to the
    series maximum are fitted, cutting both the initial transient and the
    floating-point noise floor that a fully converged trajectory sits on;
    at least 10 of them must remain.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.shape != values.shape:
        raise ValueError("series arrays must have equal length")
    ref = np.nanmax(values) if np.isfinite(values).any() else np.nan
    if not np.isfinite(ref) or ref <= 0:
        raise ValueError("series has no positive values")
    keep = (values >= 1e-12 * ref) & (values <= 1e-2 * ref)
    ns, values = ns[keep], values[keep]
    if len(ns) < 10:
        raise ValueError(f"need at least 10 positive points in window, have {len(ns)}")
    return float(np.polyfit(ns, np.log(values), 1)[0])
