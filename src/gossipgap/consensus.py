"""Ratio-consensus trajectory simulation.

Iterates ``x_n = A_n x_{n-1}``, ``w_n = A_n w_{n-1}`` for a pair of initial
vectors (values ``x``, nonnegative weights ``w``) and tracks the per-node
ratios ``x_n^i / w_n^i``.  Both vectors are stored as mantissas with one
shared log-scale shift, applied jointly each step, so the ratios are exact
while arbitrarily long products stay representable.

``run`` drives every kind through one step loop over the step descriptors
that ``MatrixProcess.block_events`` draws in blocks, each mapped to one
entry of an update table built once per run.  A push-sum step, and a
family member that is the identity with only column ``i`` changed
(``A[i, i] > 0``, at most one off-diagonal entry ``A[j, i] = a``), is a
column edit: ``A x`` is two row updates, ``x[j] += a x[i]`` (none for a
lost packet or a diagonal-only member), then ``x[i] *= A[i, i]``.  Any
other family member is applied as the dense product ``A @ x``.
Row-allowability and column-stochasticity are decided once per table
entry; a member that is not row-allowable raises at the first step that
emits it.  Every step then shares one bookkeeping (the joint rescale, the
envelope check and the checkpoint snapshots), and the results are those
of iterating :func:`step`: bit for bit for dense members and for column
edits whose off-diagonal entry is a power of two (``a x[i]`` is then
exact), otherwise to rounding (a dense matrix-vector product may fuse the
multiply-add).

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
from .generators import MatrixProcess, PushSumProcess, is_column_stochastic

__all__ = [
    "ConsensusState",
    "Trajectory",
    "step",
    "run",
    "weighted_ratio",
    "fit_rate",
    "rate_window",
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
    x0: np.ndarray
    w0: np.ndarray

    def max_ratio_error(self) -> np.ndarray:
        """``max_i |ratio_i - limit|`` per checkpoint (limit inside envelope)."""
        return np.maximum(self.env_max - self.limit, self.limit - self.env_min)

    def envelope_width(self) -> np.ndarray:
        return self.env_max - self.env_min

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


def make_checkpoints(n: int, kind: str = "geometric", ratio: float = 1.15,
                     count: int = 200) -> np.ndarray:
    """Checkpoint schedule up to and including ``n``."""
    n = int(n)
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if kind == "geometric":
        ks = []
        v = 1.0
        while v < n:
            ks.append(int(math.ceil(v)))
            v *= ratio
        ks.append(n)
        return _sorted_distinct(ks)
    if kind == "linear":
        return _sorted_distinct(np.linspace(1, n, min(count, n)).astype(np.int64))
    raise ValueError(f"unknown checkpoint schedule {kind!r}")


EVENT_BLOCK = 512      # step descriptors drawn per block_events call


def _column_edit(A: np.ndarray):
    """``(i, A[i, i], j, A[j, i])`` when ``A`` is the identity with only
    column ``i`` changed, ``A[i, i] > 0`` and at most one off-diagonal
    entry ``A[j, i]`` (``j`` None and ``0.0`` when there is none), else None."""
    cols = np.flatnonzero((A != np.eye(len(A))).any(axis=0)).tolist() or [0]
    i = cols[0]
    off = [j for j in np.flatnonzero(A[:, i]).tolist() if j != i]
    if len(cols) > 1 or len(off) > 1 or not A[i, i] > 0:
        return None
    j = off[0] if off else None
    return i, float(A[i, i]), j, (float(A[j, i]) if off else 0.0)


def _update_table(proc: MatrixProcess) -> tuple[list, np.ndarray]:
    """The update of each table key, and whether its matrix is
    column-stochastic: ``(i, keep, j, a)`` for a column edit (a push-sum
    key ``2 edge + lost``, or a family member index), ``(None, 0.0, None,
    A)`` for any other row-allowable member, applied as ``A @ x``, and
    ``(None, 0.0, None, None)``, which raises when emitted, for a member
    that is not row-allowable."""
    if isinstance(proc, PushSumProcess):
        cfg = proc.config
        table = [u for (i, j), a in zip(cfg.graph.edges, cfg.share)
                 for u in ((i, 1.0 - a, j, a), (i, 1.0 - a, None, 0.0))]
        return table, np.tile([True, False], len(cfg.share))
    members = list(proc.members)
    table = [_column_edit(A) or (None, 0.0, None, A if is_row_allowable(A) else None)
             for A in members]
    return table, np.array([is_column_stochastic(A) for A in members])


def _blocks(proc: MatrixProcess, n: int):
    """The :func:`_update_table` keys of the next ``n`` steps as an array,
    one ``block_events`` call of at most ``EVENT_BLOCK`` steps at a time."""
    for done in range(0, n, EVENT_BLOCK):
        desc = proc.block_events(min(EVENT_BLOCK, n - done))
        yield 2 * desc[0] + desc[1] if isinstance(proc, PushSumProcess) else desc[0]


def run(proc: MatrixProcess, x0, w0, n: int, checkpoints=None) -> Trajectory:
    """Iterate the consensus recursion for ``n`` steps of ``proc``.

    One step loop serves every kind: each step looks its ``block_events``
    key up in the table of :func:`_update_table` and applies the column
    edit (``x[j] += a x[i]``, then ``x[i] *= keep``, and the same for
    ``w``) or the dense product ``A @ x``, then does the bookkeeping of
    :func:`step`: the joint rescale by ``max(w)`` and the envelope check.
    Envelope monotonicity is monitored from the first step at which all
    weights are positive, where the monotone-envelope argument applies;
    violations beyond the floating slack are counted.  Checkpoints keep
    ``(x, w)`` snapshots, from which the TV and Hilbert columns are
    computed after the loop.  The result equals iterating :func:`step` bit
    for bit for dense members and power-of-two ``a``, otherwise to
    rounding (see the module docstring).
    """
    state = ConsensusState.from_initial(x0, w0)
    n = int(n)
    if checkpoints is None:
        cps = make_checkpoints(n)
    elif isinstance(checkpoints, str):
        cps = make_checkpoints(n, checkpoints)
    else:
        cps = _sorted_distinct(list(checkpoints))
        if len(cps) == 0 or cps[0] < 1 or cps[-1] > n:
            raise ValueError("checkpoints must lie in [1, n]")
    if proc.p != state.p:
        raise ValueError(f"dimension mismatch: process p={proc.p}, state p={state.p}")
    cp_set = set(cps.tolist())

    x, w = state.x.tolist(), state.w.tolist()
    log_scale = 0.0
    table, stoch = _update_table(proc)
    col_stoch = True
    prev_env = None
    violations = 0
    violation_max = 0.0
    rows_env, snap_x, snap_w = [], [], []

    t = 0
    for keys in _blocks(proc, n):
        col_stoch = col_stoch and bool(stoch[keys].all())
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
                x[:] = (a @ x).tolist()
                w[:] = (a @ w).tolist()
            t += 1
            c = max(w)
            if not c > 0:
                raise ValueError("weight vector vanished; update matrix must keep w nonzero")
            if c != 1.0:        # v / 1.0 == v: skip the exact-identity rescale
                x[:] = [v / c for v in x]
                w[:] = [v / c for v in w]
            log_scale += math.log(c)
            r = [xv / wv for xv, wv in zip(x, w) if wv > 0]
            mn, mx = min(r), max(r)
            if prev_env is not None:
                scale = max(abs(prev_env[0]), abs(prev_env[1]))
                slack = ENVELOPE_SLACK * scale
                excess = max(prev_env[0] - mn, mx - prev_env[1])
                if excess > slack:
                    violations += 1
                    violation_max = max(violation_max, excess - slack)
            if len(r) == len(w):
                prev_env = (mn, mx)
            if t in cp_set:
                rows_env.append((mn, mx))
                snap_x.append(x[:])
                snap_w.append(w[:])

    env_min, env_max = np.array(rows_env).T
    mid = 0.5 * (env_min + env_max)
    X, W = np.array(snap_x), np.array(snap_w)
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
                      violations, violation_max, final, state.x, state.w)


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


def fit_rate(ns, values, window: float = 0.5) -> float:
    """Least-squares slope of ``log value`` vs ``n`` on the trailing window.

    ``window`` is the trailing fraction of checkpoints used.  Nonpositive
    or non-finite values are dropped; at least 10 usable points must
    remain.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if ns.shape != values.shape:
        raise ValueError("series arrays must have equal length")
    if not 0 < window <= 1:
        raise ValueError("window must lie in (0, 1]")
    start = len(ns) - int(math.ceil(len(ns) * window))
    ns, values = ns[start:], values[start:]
    keep = np.isfinite(values) & (values > 0)
    ns, values = ns[keep], values[keep]
    if len(ns) < 10:
        raise ValueError(f"need at least 10 positive points in window, have {len(ns)}")
    return float(np.polyfit(ns, np.log(values), 1)[0])


def rate_window(ns, values, upper_rel: float = 1e-2,
                lower_rel: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Restrict a decaying series to its informative range.

    Keeps points whose value lies in ``[lower_rel, upper_rel]`` relative to
    the series maximum, cutting both the initial transient and the
    floating-point noise floor that a fully converged trajectory sits on.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    ref = np.nanmax(values) if np.isfinite(values).any() else np.nan
    if not np.isfinite(ref) or ref <= 0:
        raise ValueError("series has no positive values")
    keep = np.isfinite(values) & (values >= lower_rel * ref) & (values <= upper_rel * ref)
    return ns[keep], values[keep]
