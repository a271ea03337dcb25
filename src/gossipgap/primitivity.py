"""Boolean pattern algebra and sequential-primitivity diagnostics.

A finite family of nonnegative matrices is *primitive* if some finite
product of its members (repetitions allowed) is strictly positive.  Only
the zero/nonzero pattern ``gamma(A) = A > 0`` matters, so the decision runs
over boolean matrices: two breadth-first searches over ordered row pairs
either build a positive witness word or prove that none exists
(``is_family_primitive``).  Patterns multiply with numpy's ``@``, which on
bool arrays is the or-of-ands, so ``gamma(AB) = gamma(A) @ gamma(B)`` for
nonnegative ``A, B``.

For a stationary matrix process the *forward index* ``psi`` at time ``t``
is the least ``k >= 1`` such that ``gamma(A_{t+k-1}) ... gamma(A_t)`` is
all-true, and the *backward index* ``rho`` at time ``t`` is the least
``k >= 1`` such that ``gamma(A_t) ... gamma(A_{t-k+1})`` is all-true.
For stationary two-sided processes the two indices share one distribution,
and for i.i.d. emissions with a primitive pattern family both tails decay
geometrically; ``ks_distance`` and ``survival_loglinear_fit`` quantify the
empirical versions of those two facts.

Forward indices multiply fresh emissions on the left.  Backward indices
multiply patterns on the right, one member index at a time: the running
pattern is held as one integer bitmask per column, and each index applies
its row of ``pattern_family`` as a few column ORs, built once per member
(one for a delivered push-sum packet, none for a lost one or an identity
member), so no emission is built as a matrix.  I.i.d. kinds walk fresh
indices from ``step_events``, since the reversed sequence has the same
law; a Markov-modulated family walks back over the indices it drew with
``block_events``, newest first.  Both walks give the indices of a walk
over emitted patterns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import is_allowable
from .generators import MatrixProcess

__all__ = [
    "PrimitivityReport",
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


def replay_word(patterns, word) -> np.ndarray:
    """Left-to-right product ``patterns[word[0]] ... patterns[word[-1]]``."""
    if len(word) == 0:
        raise ValueError("empty word")
    out = patterns[word[0]]
    for idx in word[1:]:
        out = out @ patterns[idx]
    return out


@dataclass
class PrimitivityReport:
    family_primitive: bool
    witness_word: tuple[int, ...] | None
    states_explored: int


def _merge_word(pats: np.ndarray, targets: np.ndarray):
    """``(word, product, pairs reached)``: a word over the ``(f, p, p)``
    stack ``pats`` whose product has a column every row shares, or None.

    Pair ``(a, b)`` leads to ``(x, y)`` under member ``g`` when ``g[a, x]``
    and ``g[b, y]``, so rows ``a, b`` of a product share column ``c`` when
    its word leads ``(a, b)`` to ``(c, c)``.  A breadth-first search back
    from the diagonal pairs in the mask ``targets`` gives each pair that
    reaches one its distance and first member; rows ``1 .. p-1`` are then
    merged one at a time into a column the earlier rows share.
    """
    p = pats.shape[1]
    counts = pats.astype(np.float32)    # BLAS products count paths, exactly
    dist = np.where(targets, 0, -1)
    first = np.zeros((p, p), dtype=np.intp)
    frontier = targets
    while frontier.any():
        # pred[k, a, b]: member k leads (a, b) into the frontier
        pred = (counts @ frontier.astype(np.float32) @ counts.transpose(0, 2, 1)
                > 0) & (dist < 0)
        frontier = pred.any(axis=0)
        first[frontier] = pred.argmax(axis=0)[frontier]
        dist[frontier] = dist.max() + 1

    reached = int(np.count_nonzero(dist >= 0))
    word, prod = [], np.eye(p, dtype=bool)
    for i in range(1, p):
        pairs = np.flatnonzero(np.outer(prod[:i].all(axis=0), prod[i]) & (dist >= 0))
        if len(pairs) == 0:
            return None, prod, reached
        a, b = divmod(int(pairs[np.argmin(dist.flat[pairs])]), p)
        while dist[a, b] > 0:
            word.append(int(first[a, b]))
            g = pats[word[-1]]
            prod = prod @ g
            a, b = np.argwhere(np.outer(g[a], g[b]) & (dist == dist[a, b] - 1))[0]
    return word, prod, reached


def is_family_primitive(patterns) -> PrimitivityReport:
    """Decide primitivity of a family of allowable patterns (the ``(f, p,
    p)`` stack of ``MatrixProcess.pattern_family()`` or any sequence of
    ``(p, p)`` bool arrays) by two row-pair searches (``_merge_word``).

    The first, to every diagonal pair, gives ``W`` with all-true columns
    ``J``; the second, on the transposed members to the pairs ``(j, j)``
    of ``J``, gives ``V`` with an all-true row in ``J`` when reversed.  So
    ``W + reversed(V)`` is positive: the witness, not a shortest one.  A
    positive product leads every pair to every pair, so a failed search
    proves the family is not primitive.  ``states_explored`` counts the
    pairs both searches reached.

    The searches run on the distinct non-identity patterns only, each under
    its first index in ``patterns``: an identity member leads no pair
    anywhere new, and a repeat leads where its first occurrence does, so
    the report is that of a search over every member.
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

    keep, seen = [], {np.eye(shape[0], dtype=bool).tobytes()}
    for k, g in enumerate(pats):
        if g.tobytes() not in seen:
            seen.add(g.tobytes())
            keep.append(k)
    keep = keep or [0]                  # only identity members: search on one
    stack = np.stack([pats[k] for k in keep])
    w, prod, states = _merge_word(stack, np.eye(shape[0], dtype=bool))
    if w is None:
        return PrimitivityReport(False, None, states)
    v, _, more = _merge_word(stack.transpose(0, 2, 1), np.diag(prod.all(axis=0)))
    # p = 1: both words are empty and every member is positive
    witness = None if v is None else tuple(keep[k] for k in w + v[::-1]) or (0,)
    return PrimitivityReport(witness is not None, witness, states + more)


def sample_forward_index(proc: MatrixProcess, cap: int = DEFAULT_INDEX_CAP) -> int:
    """Forward index at the process's next emission time ``t``: steps until
    the running pattern ``gamma(A_{t+k-1}) ... gamma(A_t)`` becomes
    all-true."""
    cur = proc.next_matrix() > 0
    k = 1
    while np.count_nonzero(cur) != cur.size:
        if k >= cap:
            raise RuntimeError(f"pattern not positive within cap={cap} steps")
        cur = (proc.next_matrix() > 0) @ cur
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
        cur = cur @ patterns[word[-1 - k]]
        k += 1
    return k


def _column_edits(proc: MatrixProcess) -> list:
    """The column edits of ``cur @ G`` for each row ``G`` of
    ``proc.pattern_family()``, indexed by member index.

    With ``cur`` held as column bitmasks (bit ``r`` of column ``c`` is
    ``cur[r, c]``), column ``c`` of ``cur @ G`` is the OR of the old
    columns ``r`` with ``G[r, c]``.  The edits are ``(targets, pairs)``:
    the columns where ``G`` differs from the identity, and one ``(c, r)``
    pair per true ``G[r, c]`` of those columns.  A lost push-sum packet
    and an identity member have no edits.
    """
    eye = np.eye(proc.p, dtype=bool)
    edits = []
    for g in proc.pattern_family():
        targets = np.flatnonzero((g != eye).any(axis=0)).tolist()
        edits.append((targets, [(c, r) for c in targets
                                for r in np.flatnonzero(g[:, c]).tolist()]))
    return edits


def _column_walk(edits, p: int, steps, cap: int) -> int:
    """Least ``k`` whose first ``k`` member indices from ``steps`` multiply,
    left to right and as column bitmasks edited by ``edits``, to all-true.
    Raises ``RuntimeError`` when ``k`` reaches ``cap``, or else when
    ``steps`` runs out (history exhausted)."""
    full = (1 << p) - 1
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
            return k
        if k >= cap:
            raise RuntimeError(f"pattern not positive within cap={cap} steps")
    raise RuntimeError("pattern history exhausted before positivity")


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

    Every sample is one ``_column_walk`` over member indices, so no
    emission is built.  For i.i.d. kinds the time-reversed sequence is
    again i.i.d. with the same marginal, so each sample is taken exactly
    (and independently) by walking fresh member indices from
    ``step_events``; it uses up exactly the steps it walks, the ``cap``
    steps of a sample that ends in the cap error included.

    For Markov-modulated processes the true walk-back is used at end points
    spaced ``spacing`` steps apart (samples are then only approximately
    independent): each end point draws the next ``spacing`` member indices
    with one ``block_events`` call into a history of the last ``cap``
    indices, which starts empty at the call, and the walk takes that
    history newest first, as ``sample_backward_index`` does.  The indices
    of up to 256 end points are drawn ahead in one sampler call; drawing
    ahead serves nothing, so the samples and the steps served, after a cap
    error too, are those of one draw per end point.
    """
    out = np.empty(int(count), dtype=np.int64)
    edits, word = _column_edits(proc), deque(maxlen=int(cap))
    iid = proc.kind in ("push_sum", "iid_family", "constant")
    steps = proc.step_events() if iid else None
    for s in range(len(out)):
        if not iid:
            if s % 256 == 0:
                proc.draw_ahead(spacing * min(256, len(out) - s))
            word.extend(proc.block_events(spacing).tolist())
        out[s] = _column_walk(edits, proc.p, steps if iid else reversed(word), cap)
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


def ks_critical_distance(n: int, m: int) -> float:
    """Large-sample two-sample KS critical distance at level 0.01."""
    c = np.sqrt(-0.5 * np.log(0.01 / 2.0))
    return float(c * np.sqrt((n + m) / (n * m)))


def survival_loglinear_fit(samples):
    """Least-squares line through ``(x, log P(sample > x))`` on the tail.

    The fit range runs from the sample median up to the largest ``x`` still
    supported by at least 10 exceedances, which is where a
    geometric tail shows up as a straight line.  Returns
    ``(slope, intercept, corr)`` with ``corr`` the Pearson correlation of
    the fitted points (close to -1 for geometric tails).  A survival that
    is flat over the range has no line to fit and raises ``ValueError``.
    """
    s = np.sort(np.asarray(samples, dtype=np.int64))
    n = len(s)
    if n < 10:
        raise ValueError("need at least 10 samples")
    lo = int(np.median(s))
    hi = int(s[-10])
    xs = np.arange(lo, hi)
    if len(xs) < 3:
        raise ValueError("tail range too short for a line fit")
    surv = 1.0 - np.searchsorted(s, xs, side="right") / n   # > 0 below hi
    if surv[0] == surv[-1]:             # non-increasing: a single value
        raise ValueError("survival is flat over the tail range")
    y = np.log(surv)
    slope, intercept = np.polyfit(xs, y, 1)
    corr = float(np.corrcoef(xs, y)[0, 1])
    return float(slope), float(intercept), corr
