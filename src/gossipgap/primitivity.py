"""Boolean pattern algebra and sequential-primitivity diagnostics.

A finite family of nonnegative matrices is *primitive* if some finite
product of its members (repetitions allowed) is strictly positive.  Only
the zero/nonzero pattern matters, so the decision runs over boolean
matrices: breadth-first search over the semigroup generated by the family
patterns, capped by a configurable state budget.

For a stationary matrix process the *forward index* ``psi`` at time ``t``
is the least ``k >= 1`` such that ``gamma(A_{t+k-1}) ... gamma(A_t)`` is
all-true, and the *backward index* ``rho`` at time ``t`` is the least
``k >= 1`` such that ``gamma(A_t) ... gamma(A_{t-k+1})`` is all-true.
For stationary two-sided processes the two indices share one distribution,
and for i.i.d. emissions with a primitive pattern family both tails decay
geometrically; ``ks_distance`` and ``survival_loglinear_fit`` quantify the
empirical versions of those two facts.

Forward indices multiply fresh emissions on the left.  Backward indices of
i.i.d. kinds multiply fresh patterns on the right, since the reversed
sequence has the same law: the running pattern is held as one integer
bitmask per column, and each member index from ``step_events`` applies its
member's pattern as a few column ORs, built once per member (one for a
delivered push-sum packet, none for a lost one or an identity member), so
no emission is built as a matrix.  A Markov-modulated family is walked
back instead: the sampler keeps the member indices it drew with
``block_events`` and multiplies the members' patterns from
``pattern_family`` in reverse emission order.  Both walks give the indices
of a walk over emitted patterns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import is_allowable
from .generators import MatrixProcess

__all__ = [
    "PrimitivityReport",
    "pattern_of",
    "bool_product",
    "replay_word",
    "is_family_primitive",
    "sample_forward_index",
    "sample_backward_index",
    "sample_forward_indices",
    "sample_backward_indices",
    "ks_distance",
    "ks_critical_distance",
    "survival_loglinear_fit",
]

DEFAULT_INDEX_CAP = 100_000


def pattern_of(A) -> np.ndarray:
    """``gamma(A)``: the bool array whose ``(i, j)`` entry is ``A[i, j] > 0``."""
    return np.asarray(A, dtype=float) > 0


def bool_product(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Boolean product of two bool patterns (numpy's ``@`` on bool arrays
    is the or-of-ands); equals ``gamma(AB)`` for nonnegative ``A, B``."""
    return P @ Q


def replay_word(patterns, word) -> np.ndarray:
    """Left-to-right product ``patterns[word[0]] ... patterns[word[-1]]``."""
    if len(word) == 0:
        raise ValueError("empty word")
    out = patterns[word[0]]
    for idx in word[1:]:
        out = bool_product(out, patterns[idx])
    return out


@dataclass
class PrimitivityReport:
    family_primitive: bool
    witness_word: tuple[int, ...] | None
    states_explored: int
    capped: bool


def is_family_primitive(patterns, state_cap: int = 1_000_000) -> PrimitivityReport:
    """Decide primitivity of a finite pattern family by semigroup BFS.

    ``patterns`` is the ``(f, p, p)`` bool stack of
    ``MatrixProcess.pattern_family()`` or any sequence of ``(p, p)`` bool
    arrays; every member must be allowable.

    Explores the set of distinct boolean products reachable from the
    generators (extending words on the right), so the first hit of the
    all-true pattern yields a shortest witness word.  If ``state_cap``
    distinct states are reached without a decision the report is returned
    with ``capped=True`` and ``family_primitive=False`` (inconclusive).
    """
    if len(patterns) == 0:
        raise ValueError("empty family")
    pats = [np.asarray(g, dtype=bool) for g in patterns]
    shape = pats[0].shape
    for g in pats:
        if g.ndim != 2 or g.shape != shape or shape[0] != shape[1]:
            raise ValueError("family members must be square patterns of one "
                             f"size, got shape {g.shape}")
        if not is_allowable(g):
            raise ValueError("family members must be allowable patterns")

    visited: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {}
    queue: list[bytes] = []
    # A generator that repeats an earlier pattern, or is the identity,
    # only ever maps a state to one already visited: extend by the others.
    identity = np.eye(shape[0], dtype=bool).tobytes()
    extend: list[tuple[int, np.ndarray]] = []
    for gi, g in enumerate(pats):
        k = g.tobytes()
        if k not in visited:
            visited[k] = (g, (gi,))
            queue.append(k)
            if k != identity:
                extend.append((gi, g))
        if np.count_nonzero(g) == g.size:
            return PrimitivityReport(True, visited[k][1], len(visited), False)

    head = 0
    while head < len(queue):
        bits, word = visited[queue[head]]
        head += 1
        for gi, gbits in extend:
            nb = bool_product(bits, gbits)
            k = nb.tobytes()
            if k in visited:
                continue
            nw = word + (gi,)
            if np.count_nonzero(nb) == nb.size:
                return PrimitivityReport(True, nw, len(visited) + 1, False)
            visited[k] = (nb, nw)
            queue.append(k)
            if len(visited) >= state_cap:
                return PrimitivityReport(False, None, len(visited), True)
    return PrimitivityReport(False, None, len(visited), False)


def sample_forward_index(proc: MatrixProcess, start: int | None = None,
                         cap: int = DEFAULT_INDEX_CAP) -> int:
    """Forward index at time ``start``: steps until the running pattern
    ``gamma(A_{start+k-1}) ... gamma(A_start)`` becomes all-true.

    ``start`` defaults to the process's next emission time; earlier starts
    are not reachable because the stream only moves forward.
    """
    t_next = proc.steps_emitted + 1
    if start is None:
        start = t_next
    if start < t_next:
        raise ValueError(f"process already emitted step {start}; next is {t_next}")
    proc.block_events(start - t_next)
    cur = proc.next_matrix() > 0
    k = 1
    while np.count_nonzero(cur) != cur.size:
        if k >= cap:
            raise RuntimeError(f"pattern not positive within cap={cap} steps")
        cur = bool_product(proc.next_matrix() > 0, cur)
        k += 1
    return k


def sample_backward_index(patterns, word, cap: int = DEFAULT_INDEX_CAP) -> int:
    """Backward index at the end of ``word``: the least ``k`` with
    ``patterns[word[-1]] ... patterns[word[-k]]`` all-true.

    ``word`` holds the member indices of the emissions up to the end time,
    oldest first, and ``patterns`` maps a member index to its pattern (the
    ``(f, p, p)`` stack of ``MatrixProcess.pattern_family()`` or a list of
    its rows).  Raises ``RuntimeError`` when ``k`` reaches ``cap``, or when
    the walk needs an emission older than ``word[0]`` (history exhausted).
    """
    if len(word) == 0:
        raise ValueError("empty word")
    cur = patterns[word[-1]]
    k = 1
    while np.count_nonzero(cur) != cur.size:
        if k >= cap:
            raise RuntimeError(f"pattern not positive within cap={cap} steps")
        if k >= len(word):
            raise RuntimeError("pattern history exhausted before positivity")
        cur = bool_product(cur, patterns[word[-1 - k]])
        k += 1
    return k


def _column_edits(proc: MatrixProcess) -> list:
    """For an i.i.d. kind, the column edits of ``cur @ gamma(A)`` for each
    member ``A``, indexed by member index.

    With ``cur`` held as column bitmasks (bit ``r`` of column ``c`` is
    ``cur[r, c]``), column ``c`` of ``cur @ G`` is the OR of the old
    columns ``r`` with ``G[r, c]``.  The edits are ``(targets, pairs)``:
    the columns where ``G`` differs from the identity, and one ``(c, r)``
    pair per true ``G[r, c]`` of those columns.  A lost push-sum packet
    and an identity member have no edits.
    """
    eye = np.eye(proc.p, dtype=bool)
    edits = []
    for k in range(proc.family_size):
        g = proc.member(k) > 0
        targets = np.flatnonzero((g != eye).any(axis=0)).tolist()
        edits.append((targets, [(c, r) for c in targets
                                for r in np.flatnonzero(g[:, c]).tolist()]))
    return edits


def sample_forward_indices(proc: MatrixProcess, count: int,
                           cap: int = DEFAULT_INDEX_CAP) -> np.ndarray:
    """Renewal sampling of forward indices: each sample starts where the
    previous window ended, so for i.i.d. processes the samples are i.i.d."""
    out = np.empty(int(count), dtype=np.int64)
    for s in range(int(count)):
        out[s] = sample_forward_index(proc, cap=cap)
    return out


def sample_backward_indices(proc: MatrixProcess, count: int,
                            cap: int = DEFAULT_INDEX_CAP,
                            spacing: int = 64) -> np.ndarray:
    """Sample backward indices from a process stream.

    For i.i.d. kinds the time-reversed sequence is again i.i.d. with the
    same marginal, so each sample is taken exactly (and independently) by
    multiplying fresh patterns on the right until positivity.  The walk
    holds the running pattern as column bitmasks, starting from the
    identity, and applies each step's column edits (``_column_edits``)
    from the member indices ``step_events`` serves, so it builds no emission
    and uses up exactly the steps it walks, the ``cap`` steps of a sample
    that ends in the cap error included.

    For Markov-modulated processes the true walk-back is used at end points
    spaced ``spacing`` steps apart (samples are then only approximately
    independent): each end point draws the next ``spacing`` member indices
    with one ``block_events`` call into a history of the last ``cap``
    indices, which starts empty at the call, and ``sample_backward_index``
    walks that history back on the pattern family.
    """
    count = int(count)
    out = np.empty(count, dtype=np.int64)
    if proc.kind in ("push_sum", "iid_family", "constant"):
        edits = _column_edits(proc)
        p, full = proc.p, (1 << proc.p) - 1
        steps = proc.step_events()
        for s in range(count):
            cols = [1 << c for c in range(p)]
            k = 0
            for idx in steps:
                k += 1
                targets, pairs = edits[idx]
                if targets:
                    old = cols.copy()
                    for c in targets:
                        cols[c] = 0
                    for c, r in pairs:
                        cols[c] |= old[r]
                if cols.count(full) == p:
                    break
                if k >= cap:
                    raise RuntimeError(f"pattern not positive within cap={cap} steps")
            out[s] = k
        return out
    patterns = list(proc.pattern_family())
    word = deque(maxlen=int(cap))
    for s in range(count):
        word.extend(proc.block_events(spacing).tolist())
        out[s] = sample_backward_index(patterns, word, cap=cap)
    return out


# -- statistics on sampled indices ------------------------------------------


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def ks_critical_distance(n: int, m: int, alpha: float = 0.01) -> float:
    """Large-sample two-sample KS critical distance at level ``alpha``."""
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c * np.sqrt((n + m) / (n * m)))


def survival_loglinear_fit(samples, min_count: int = 10):
    """Least-squares line through ``(x, log P(sample > x))`` on the tail.

    The fit range runs from the sample median up to the largest ``x`` still
    supported by at least ``min_count`` exceedances, which is where a
    geometric tail shows up as a straight line.  Returns
    ``(slope, intercept, corr)`` with ``corr`` the Pearson correlation of
    the fitted points (close to -1 for geometric tails).
    """
    s = np.sort(np.asarray(samples, dtype=np.int64))
    n = len(s)
    if n < 10:
        raise ValueError("need at least 10 samples")
    lo = int(np.median(s))
    hi = int(s[-min_count]) if n >= min_count else int(s[-1])
    xs = np.arange(lo, hi)
    if len(xs) < 3:
        raise ValueError("tail range too short for a line fit")
    surv = 1.0 - np.searchsorted(s, xs, side="right") / n
    keep = surv > 0
    xs, surv = xs[keep], surv[keep]
    y = np.log(surv)
    slope, intercept = np.polyfit(xs, y, 1)
    corr = float(np.corrcoef(xs, y)[0, 1])
    return float(slope), float(intercept), corr
