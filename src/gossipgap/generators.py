"""Stationary matrix-process generators.

Every process emits a stationary sequence ``A_1, A_2, ...`` of nonnegative
``p x p`` matrices, deterministically reproducible from ``(kind, parameters,
seed, stream)``.  A constructed process is on stream ``(0,)``; ``spawn`` is
the one way to another stream.  Each emission is a plain ``float64`` array
of shape ``(p, p)`` owned by the caller, and ``pattern_family`` returns the
zero/nonzero patterns as an ``(f, p, p)`` ``bool`` array.  Randomness comes
from a PCG64 generator keyed by ``SeedSequence((seed, *stream))``;
estimators derive independent replicate streams by spawning with distinct
stream tuples, so replicates never share draws and results do not depend
on scheduling.

Node indices are 0-based.  A directed edge ``(i, j)`` means node ``i`` may
send to node ``j``; the corresponding one-transaction update matrix is the
identity with column ``i`` replaced by ``(1 - alpha) e_i + alpha e_j``.
When the transaction's packet is lost the ``e_j`` part is dropped but the
sender's column is still scaled, so the matrix is no longer
column-stochastic.

Packet loss on edge ``f`` is decided by comparing one uniform draw per step
against the loss probability ``r_f``.  Two processes built with the same
seed and stream therefore see coupled loss indicators: if ``r <= r'``
entrywise, every loss under ``r`` is also a loss under ``r'``, which makes
the emitted matrices entrywise comparable step by step.

Markov-modulated schedules must use an irreducible index chain; the chain
always starts from its stationary distribution, so the emitted sequence is
strictly stationary.  Whether a user-supplied chain also satisfies the
moment/mixing conditions required by the asymptotic theory is the user's
responsibility.  Every draw maps a uniform ``u < 1`` through a law's
``_cumulative`` sums, exactly 1 from its last positive probability on, so
an outcome of probability 0 is never drawn.

A step is described by its member index ``k`` in the process's finite
set of emissions: a family's member, or for push-sum ``k = 2 e + lost``,
the send along edge ``e``, delivered or lost.  Each kind has one sampler,
``_draw(lanes, out)``, that writes the indices of the next ``len(out)``
steps of each process of ``lanes`` (spawns of one process), drawn from
that lane's own generator, into its column of the step-major ``out`` (a
Markov family walks the chain through a next-state table indexed by state
and by the bin of each step's uniform among all merged row breakpoints
below 1, the start being one more row; the constant kind consumes no
draws).  A process holds its generator and a cursor into one look-ahead
buffer of drawn but not yet served indices.
``draw_ahead_lanes`` is the one call that draws: it tops up the
look-aheads of many lanes in lockstep in one sampler call without serving
any step, each lane's look-ahead becoming a column of one step-major
array; ``draw_ahead`` is its one-lane case.  ``next_matrix``,
``dense_block`` and the indices themselves (``block_events`` for a block
of steps, ``step_events`` one step at a time) serve from the buffer and
draw ahead when it runs short, so any interleaving of them consumes the
stream exactly like single steps.  ``member(k)`` builds member ``k``,
and the read-only table ``updates[k]`` says what it does to a vector:
``(i, keep, j, a)`` when it is the identity with only column ``i``
changed to ``keep = A[i, i] > 0`` and at most one off-diagonal
``a = A[j, i]`` (``j`` None when there is none), ``(None, 0.0, None, A)``
for any other row-allowable member and ``(None, 0.0, None, None)`` for one
with a zero row; ``stochastic[k]`` flags the column-stochastic members.
Push-sum fills the table from its graph and per-edge shares, and
``member(k)`` builds one emission from its entry.  A dense block is one
gather ``stack[k]`` from a read-only ``(f, p, p)`` stack of all members:
a family's own matrices, or for push-sum the stack of its ``member(k)``,
built on the first dense emission and shared by every spawn.
``next_matrix``, ``member`` and the event paths never build it, so they
stay cheap at wide ``p``, where the stack takes ``2|E| p**2`` floats.  A
process keeps no record of served emissions; a caller that needs one
keeps the indices ``block_events`` returned.  ``spawn`` makes a shallow
copy with its own stream: the configuration arrays are read-only and
shared, so replicate processes cost no re-validation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .core import PROB_TOL, is_row_allowable

__all__ = [
    "Digraph",
    "MatrixProcess",
    "PushSumProcess",
    "IIDFamilyProcess",
    "MarkovFamilyProcess",
    "ConstantProcess",
    "push_sum_matrix",
    "is_column_stochastic",
    "ring",
    "ring_with_chords",
    "complete_digraph",
]

_LOOKAHEAD = 64     # steps next_matrix and step_events draw into an empty look-ahead
# Markov chains are walked together, one numpy gather per step, from this
# many lanes on, and one by one in a Python loop below it.  Per lane-step on
# the fam3 chain, bins included (2 vCPU, numpy 2.4.6, min of 9 runs of 2016
# steps, three runs): the Python loop took 69-82 ns at 2-128 lanes; the
# numpy loop 119-127 ns at 16 lanes, 74-76 at 32, 68-70 at 40 and 44-46 at 128.
_WALK_LANES = 40


@dataclass(frozen=True)
class Digraph:
    """Directed graph on ``p`` nodes without self-loops or duplicate edges."""

    p: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("node count must be positive")
        object.__setattr__(self, "edges", tuple((int(i), int(j)) for i, j in self.edges))
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < self.p and 0 <= j < self.p):
                raise ValueError(f"edge ({i},{j}) out of range for p={self.p}")
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) not allowed")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))


def ring(p: int) -> Digraph:
    """Directed cycle 0 -> 1 -> ... -> p-1 -> 0."""
    return Digraph(p, tuple((i, (i + 1) % p) for i in range(p)))


def ring_with_chords(p: int, chords=((0, 2), (1, 3))) -> Digraph:
    """Directed ring plus extra chord edges."""
    edges = list((i, (i + 1) % p) for i in range(p))
    for c in chords:
        c = (int(c[0]), int(c[1]))
        if c not in edges:
            edges.append(c)
    return Digraph(p, tuple(edges))


def complete_digraph(p: int) -> Digraph:
    return Digraph(p, tuple((i, j) for i in range(p) for j in range(p) if i != j))


def push_sum_matrix(p: int, edge: tuple[int, int], alpha: float,
                    loss: bool = False) -> np.ndarray:
    """One-transaction update matrix for a send along ``edge = (i, j)``.

    Identity with column ``i`` replaced: ``A[i,i] = 1-alpha`` and
    ``A[j,i] = alpha`` (or 0 when the packet is lost).  Row-allowable
    always; column-stochastic iff the packet is delivered.
    """
    i, j = int(edge[0]), int(edge[1])
    if not (0 <= i < p and 0 <= j < p):
        raise ValueError(f"edge ({i},{j}) out of range for p={p}")
    if i == j:
        raise ValueError("sender and receiver must differ")
    if not 0.0 < alpha < 1.0:
        raise ValueError("share must lie strictly inside (0, 1)")
    a = np.eye(p)
    a[i, i] = 1.0 - alpha
    if not loss:
        a[j, i] = alpha
    return a


def is_column_stochastic(A) -> bool:
    sums = np.asarray(A, dtype=float).sum(axis=0)
    return bool(np.all(np.abs(sums - 1.0) <= PROB_TOL))


def _cumulative(probs) -> np.ndarray:
    """Cumulative sums of the law ``probs``, exactly 1.0 from its last
    positive probability on: ``searchsorted(cum, u, "right")`` of a uniform
    ``0 <= u < 1`` is then an outcome of positive probability."""
    cum = np.cumsum(probs, dtype=float)
    cum[np.flatnonzero(probs)[-1]:] = 1.0
    return cum


class MatrixProcess:
    """Seeded generator of a stationary sequence of nonnegative matrices.

    Each kind emits members of a finite set of ``family_size`` matrices and
    implements one sampler, ``_draw(lanes, out)``, ``member`` (one
    emission) and ``_members``, the stack ``dense_block`` gathers from.
    ``_draw`` writes the member indices of the next ``len(out) >= 1`` steps
    of every process of ``lanes`` (this process or spawns of it) into the
    step-major ``intp`` array ``out``, column ``t`` for ``lanes[t]`` and
    drawn from that lane's own generator, exactly as a one-lane call would.
    Its ``updates`` table and ``stochastic`` flags (see the module
    docstring) are built once at construction.  The stream state is
    the generator ``_rng`` and the look-ahead ``_ahead``, whose indices from
    ``_at`` on are drawn but not yet served.  ``draw_ahead_lanes(lanes, m)``
    alone calls ``_draw``: it tops every lane's look-ahead up to at least
    ``m`` pending steps in one call, so a caller that knows how many steps
    it will take pays one sampler call for all of them and all its lanes
    (the replicates of an estimator).  ``draw_ahead(m)`` is its one-lane
    case.  Drawing ahead serves nothing: the stream is drawn in the same
    order either way.  ``block_events``, ``dense_block``, ``next_matrix``
    and ``step_events`` serve pending steps first; the first two draw ahead
    what they lack, the last two draw ``_LOOKAHEAD`` steps ahead when the
    look-ahead is empty.  ``spawn`` derives an independent but reproducible
    stream for replicate work.
    """

    kind = "abstract"

    def __init__(self, p: int, seed: int):
        self.p = int(p)
        self.seed = int(seed)
        self.stream = (0,)
        # configuration arrays are shared with every spawned child
        for v in vars(self).values():
            if isinstance(v, np.ndarray):
                v.setflags(write=False)
        self.reset()

    @property
    def family_size(self) -> int:
        return len(self.updates)

    # -- stream management -------------------------------------------------

    def reset(self) -> None:
        """Restart the emission sequence from step 1."""
        key = (self.seed,) + self.stream
        self._rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        # look-ahead member indices, served from index _at on (none drawn
        # yet); rebound, never edited in place: a spawned copy starts out
        # sharing them
        self._ahead, self._at = np.zeros(0, dtype=np.intp), 0

    def spawn(self, stream) -> "MatrixProcess":
        """Same configuration, independent stream ``(seed, *stream)``.

        The child is a shallow copy: it shares the (read-only)
        configuration arrays and member table and gets its own generator
        and cursor.
        """
        child = copy.copy(self)
        child.stream = ((int(stream),) if np.ndim(stream) == 0
                        else tuple(int(s) for s in stream))
        child.reset()
        return child

    # -- emission ----------------------------------------------------------

    def _draw(self, lanes, out: np.ndarray) -> None:
        raise NotImplementedError

    def _members(self) -> np.ndarray:
        """The read-only ``(f, p, p)`` stack whose row ``k`` is ``member(k)``."""
        raise NotImplementedError

    def member(self, k) -> np.ndarray:
        """Member ``k`` as a fresh ``(p, p)`` float array."""
        raise NotImplementedError

    def draw_ahead(self, m: int) -> None:
        """Make at least ``m`` steps pending in the look-ahead without
        serving them: every later emission stays as it was."""
        if not 0 <= m <= len(self._ahead) - self._at:
            self.draw_ahead_lanes((self,), m)

    def draw_ahead_lanes(self, lanes, m: int) -> None:
        """``draw_ahead(m)`` on every process of ``lanes`` at once.

        The lanes must be spawns of this process in lockstep: the same
        number of steps pending in each look-ahead, as for replicates that
        have served the same steps.  Each lane then draws from its own
        stream exactly what its own ``draw_ahead(m)`` would draw, and is
        left as that call would leave it.  Each lane's look-ahead becomes a
        column of one step-major ``(m, lanes)`` array: the lane's pending
        steps and the new ones.  The old look-aheads are let go before that
        array is made, so the indices of all lanes never take more than it.
        """
        m = int(m)
        if m < 0:
            raise ValueError("step count must be nonnegative")
        counts = {len(pr._ahead) - pr._at for pr in lanes}
        if len(counts) > 1:
            raise ValueError("lanes must be in lockstep: their pending step counts differ")
        pending = counts.pop() if counts else m     # no lanes: nothing to draw
        if m <= pending:
            return
        head = np.empty((pending, len(lanes)), dtype=np.intp)
        for t, pr in enumerate(lanes):
            head[:, t] = pr._ahead[pr._at:]
            pr._ahead, pr._at = head[:0, t], 0      # lets the old look-ahead go
        out = np.empty((m, len(lanes)), dtype=np.intp)
        out[:pending] = head
        self._draw(lanes, out[pending:])
        for t, pr in enumerate(lanes):
            pr._ahead = out[:, t]

    def block_events(self, m: int) -> np.ndarray:
        """Member indices of the next ``m`` steps as one ``intp`` array.

        Consumes the stream exactly like ``m`` calls of ``next_matrix``.
        The array views served look-ahead steps, so writing into it
        changes no later emission.
        """
        m = int(m)
        self.draw_ahead(m)
        at = self._at
        self._at = at + m
        return self._ahead[at:at + m]

    def dense_block(self, m: int) -> np.ndarray:
        """Next ``m`` emissions stacked as an ``(m, p, p)`` array.

        Equivalent to ``m`` calls of ``next_matrix`` (same stream
        consumption).
        """
        return self._members()[self.block_events(m)]

    def next_matrix(self) -> np.ndarray:
        """Emit ``A_n`` as a fresh ``(p, p)`` float array and advance the
        internal cursor."""
        if self._at == len(self._ahead):
            self.draw_ahead(_LOOKAHEAD)
        at = self._at
        self._at = at + 1
        return self.member(self._ahead[at])

    def step_events(self):
        """Serve the coming steps one at a time: an iterator over each
        step's member index as a Python int.

        Each step is taken from the look-ahead buffer, refilled with
        ``_LOOKAHEAD`` steps when it is empty exactly as ``next_matrix``
        refills it, and counted as served before it is yielded.  So the
        stream moves on by exactly the steps taken from the iterator, and
        an emission call between two of them sees the stream a
        ``next_matrix`` caller would.
        """
        while True:
            if self._at == len(self._ahead):
                self.draw_ahead(_LOOKAHEAD)
            ahead, at = self._ahead, self._at
            for k in ahead[at:].tolist():
                at += 1
                self._at = at
                yield k
                if self._at != at or self._ahead is not ahead:
                    break       # another emission call moved the cursor

    def pattern_family(self) -> np.ndarray:
        """Zero/nonzero patterns of the members as an ``(f, p, p)`` boolean
        stack: row ``k`` is ``member(k) > 0``, read from ``updates`` (only a
        member with a zero row is built as floats)."""
        pats = np.zeros((self.family_size, self.p, self.p), dtype=bool)
        pats.reshape(len(pats), -1)[:, ::self.p + 1] = True     # identity stack
        for k, (i, _, j, a) in enumerate(self.updates):
            if i is None:
                pats[k] = (self.member(k) if a is None else a) > 0
            elif j is not None:     # the kept diagonal A[i, i] > 0 stays true
                pats[k, j, i] = a > 0
        return pats


class PushSumProcess(MatrixProcess):
    """I.i.d. one-edge-per-tick gossip emissions with packet loss.

    The protocol is the graph and, per edge ``e`` of ``graph.edges``, the
    probability ``edge_prob[e]`` that the step sends along it (None: every
    edge equally likely), the share ``share[e]`` the sender passes on and
    the loss probability ``loss_prob[e]`` of its packet; a scalar share or
    loss probability holds for every edge.  Member ``2 e + lost`` is the
    send along edge ``e``, delivered (``lost = 0``) or lost (``lost = 1``).
    Each step consumes exactly two uniforms: the first selects the edge by
    the categorical law ``edge_prob``, the second decides packet loss.
    The member stack is built on the first dense emission and shared with
    every spawn.
    """

    kind = "push_sum"

    def __init__(self, graph: Digraph, seed: int, share=0.5, loss_prob=0.0,
                 edge_prob=None):
        edges = graph.edges
        ne = len(edges)
        if ne == 0:
            raise ValueError("graph has no edges")
        edge_prob = ((1.0 / ne,) * ne if edge_prob is None
                     else tuple(float(q) for q in edge_prob))
        share, loss_prob = (tuple(float(x) for x in v) if np.ndim(v) else (float(v),) * ne
                            for v in (share, loss_prob))
        if len(edge_prob) != ne or len(share) != ne or len(loss_prob) != ne:
            raise ValueError("edge_prob, share and loss_prob must have one entry per edge")
        if any(q < 0 for q in edge_prob) or not abs(sum(edge_prob) - 1.0) <= PROB_TOL:
            raise ValueError("edge probabilities must be nonnegative and sum to 1")
        if any(not 0.0 < a < 1.0 for a in share):
            raise ValueError("shares must lie strictly inside (0, 1)")
        if any(not 0.0 <= r < 1.0 for r in loss_prob):
            raise ValueError("loss probabilities must lie in [0, 1)")
        self.updates = tuple(u for (i, j), a in zip(edges, share)
                             for u in ((i, 1.0 - a, j, a), (i, 1.0 - a, None, 0.0)))
        self.stochastic = np.tile([True, False], ne)
        self._stack = []        # the member stack once built: spawns share the list
        self._loss_p = np.array(loss_prob)
        self._cum_q = _cumulative(edge_prob)
        self._eye = np.eye(graph.p)
        super().__init__(graph.p, seed)

    def _draw(self, lanes, out: np.ndarray) -> None:
        for t, pr in enumerate(lanes):
            u = pr._rng.random((len(out), 2))
            e = np.searchsorted(self._cum_q, u[:, 0], side="right")
            out[:, t] = 2 * e + (u[:, 1] < self._loss_p[e])

    def _members(self) -> np.ndarray:
        if not self._stack:
            stack = np.stack([self.member(k) for k in range(self.family_size)])
            stack.setflags(write=False)
            self._stack.append(stack)
        return self._stack[0]

    def member(self, k) -> np.ndarray:
        a = self._eye.copy()
        i, keep, j, off = self.updates[k]
        a[i, i] = keep
        if j is not None:
            a[j, i] = off
        return a


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


class _FamilyProcess(MatrixProcess):
    """Common storage for finite-family processes: the read-only
    ``(f, p, p)`` stack ``members``, shared with spawned children, so
    ``members[k]`` is the matrix of a step whose member index is ``k``."""

    def __init__(self, matrices, seed: int):
        stack = np.stack([np.asarray(m, dtype=float) for m in matrices])
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("family members must be square matrices of equal size")
        if np.any(stack < 0) or not np.all(np.isfinite(stack)):
            raise ValueError("family members must be finite and nonnegative")
        stack.setflags(write=False)     # before the table takes views of it
        self.members = stack
        self.updates = tuple(
            _column_edit(A) or (None, 0.0, None, A if is_row_allowable(A) else None)
            for A in stack)
        self.stochastic = np.array([is_column_stochastic(A) for A in stack])
        super().__init__(stack.shape[1], seed)

    def _members(self) -> np.ndarray:
        return self.members

    def member(self, k) -> np.ndarray:
        return self.members[k].copy()


class IIDFamilyProcess(_FamilyProcess):
    """I.i.d. draws from a finite matrix family with explicit probabilities."""

    kind = "iid_family"

    def __init__(self, matrices, probs, seed: int):
        probs = np.array(probs, dtype=float)
        if probs.ndim != 1 or len(probs) != len(matrices):
            raise ValueError("one probability per family member required")
        if np.any(probs < 0) or not abs(float(probs.sum()) - 1.0) <= PROB_TOL:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        self.probs = probs
        self._cum = _cumulative(probs)
        super().__init__(matrices, seed)

    def _draw(self, lanes, out: np.ndarray) -> None:
        for t, pr in enumerate(lanes):
            u = pr._rng.random(len(out))
            out[:, t] = np.searchsorted(self._cum, u, side="right")


class MarkovFamilyProcess(_FamilyProcess):
    """Finite family modulated by an irreducible Markov index chain.

    The chain starts from its stationary distribution, so the emitted matrix
    sequence is strictly stationary: a fresh chain is in the start state
    ``f``, whose row is the stationary law, and each step, one uniform,
    moves it by its row's ``_cumulative`` law.  The bin of a step's uniform
    ``u`` among the merged breakpoints below 1 of all rows fixes how many
    of each row's breakpoints lie at or below ``u``, so one ``searchsorted``
    per draw and a ``(state, bin)`` next-state table, shared with spawned
    copies, give the states a per-row ``searchsorted`` gives.
    """

    kind = "markov_family"

    def __init__(self, matrices, transition, seed: int):
        P = np.array(transition, dtype=float)
        f = len(matrices)
        if P.shape != (f, f):
            raise ValueError("transition matrix must be square with one row per member")
        if np.any(P < 0) or not np.all(np.abs(P.sum(axis=1) - 1.0) <= PROB_TOL):
            raise ValueError("transition matrix must be row-stochastic")
        # reach[i, j]: state j is reachable from i, by squaring the one-step
        # relation until it covers paths of f - 1 steps
        reach = (P > 0) | np.eye(f, dtype=bool)
        for _ in range(f.bit_length()):
            reach = reach @ reach
        if not reach.all():
            raise ValueError("index chain must be irreducible")
        self.transition = P
        # _next[s][b]: the state after s (f: the start) when the step's
        # uniform u falls in bin b = searchsorted(_edges, u, "right") of the
        # merged breakpoints below 1 (sorted distinct values without
        # np.unique, which imports numpy.ma); _next_array is the same table
        # for the walk over many lanes
        cum_rows = [_cumulative(row) for row in (*P, self._stationary(P))]
        self._edges = np.array(sorted({c for row in cum_rows for c in row.tolist()
                                       if c < 1.0}))
        self._next = tuple(
            (0, *np.searchsorted(row, self._edges, side="right").tolist())
            for row in cum_rows)
        self._next_array = np.array(self._next, dtype=np.intp)
        self._bin_dtype = np.min_scalar_type(len(self._edges))
        super().__init__(matrices, seed)

    @staticmethod
    def _stationary(P: np.ndarray) -> np.ndarray:
        f = P.shape[0]
        a = np.vstack([P.T - np.eye(f), np.ones(f)])
        b = np.zeros(f + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()

    def reset(self):
        super().reset()
        self._state = self.family_size      # chain state after the last draw; f: the start

    def _draw(self, lanes, out: np.ndarray) -> None:
        """Walk the chain of every lane (see ``MatrixProcess``).

        Each lane takes ``len(out)`` uniforms from its own generator, whose
        bins among ``_edges`` are stored in ``_bin_dtype``; each bin moves
        the chain through ``_next``.  Below ``_WALK_LANES`` lanes each chain
        is walked on its own in a Python loop over ``_next``.  From there on
        all chains are walked together, one numpy gather per step.
        """
        bins = np.empty(out.shape, dtype=self._bin_dtype)
        for t, pr in enumerate(lanes):
            bins[:, t] = np.searchsorted(self._edges, pr._rng.random(len(out)),
                                         side="right")
        if len(lanes) < _WALK_LANES:
            table = self._next
            for t, pr in enumerate(lanes):
                s, idx = pr._state, []
                for b in bins[:, t].tolist():
                    s = table[s][b]
                    idx.append(s)
                out[:, t] = idx
                pr._state = s
            return
        s = np.array([pr._state for pr in lanes])
        for i, b in enumerate(bins):
            s = out[i] = self._next_array[s, b]
        for pr, state in zip(lanes, s.tolist()):
            pr._state = state


class ConstantProcess(_FamilyProcess):
    """Deterministic stream repeating one fixed matrix: a family of one
    member whose sampler consumes no draws."""

    kind = "constant"

    def __init__(self, matrix, seed: int = 0):
        super().__init__([matrix], seed)

    def _draw(self, lanes, out: np.ndarray) -> None:
        out[:] = 0
