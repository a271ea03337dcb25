import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipgap import acceptance, consensus, generators, spectrum
from gossipgap.config import load_config
from gossipgap.core import is_row_allowable
from gossipgap.generators import (ConstantProcess, Digraph, IIDFamilyProcess,
                                  MarkovFamilyProcess, PushSumProcess,
                                  complete_digraph, is_column_stochastic,
                                  push_sum_matrix, ring, ring_with_chords)
from gossipgap.primitivity import _column_edits


def lossy_process(seed, loss=0.2):
    return PushSumProcess(ring_with_chords(5), seed, 0.5, loss)


# seed -> (share, loss_prob, edge_prob) of the ring5-with-chords push-sum
# processes below: uniform ones, and one with every field per edge
_PUSH_SUM = {
    9: (0.5, 0.2, None),
    11: ((0.5, 0.25, 0.3, 0.6, 0.75, 0.5, 0.4), (0.2, 0.0, 0.5, 0.1, 0.3, 0.0, 0.25),
         (0.1, 0.2, 0.05, 0.15, 0.2, 0.1, 0.2)),
}


def _push_sum(seed):
    return PushSumProcess(ring_with_chords(5), seed, *_PUSH_SUM[seed])


# -- push_sum_matrix ----------------------------------------------------------


def test_push_sum_matrix_delivered():
    a = push_sum_matrix(3, (0, 1), 0.5)
    np.testing.assert_allclose(a[:, 0], [0.5, 0.5, 0.0])
    np.testing.assert_allclose(a[:, 1], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(a[:, 2], [0.0, 0.0, 1.0])


def test_push_sum_matrix_lost():
    a = push_sum_matrix(3, (0, 1), 0.5, loss=True)
    np.testing.assert_allclose(a[:, 0], [0.5, 0.0, 0.0])


def test_push_sum_matrix_quarter_share():
    a = push_sum_matrix(2, (1, 0), 0.25)
    np.testing.assert_allclose(a, [[1.0, 0.25], [0.0, 0.75]])


def test_push_sum_matrix_errors():
    with pytest.raises(ValueError, match="differ"):
        push_sum_matrix(3, (1, 1), 0.5)
    with pytest.raises(ValueError, match="share"):
        push_sum_matrix(3, (0, 1), 1.0)
    with pytest.raises(ValueError, match="range"):
        push_sum_matrix(3, (0, 3), 0.5)


# -- graphs -------------------------------------------------------------------


def test_digraph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Digraph(3, ((0, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        Digraph(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="out of range"):
        Digraph(3, ((0, 3),))


def test_push_sum_config_validation():
    g = ring(3)
    with pytest.raises(ValueError, match="sum to 1"):
        PushSumProcess(g, 0, edge_prob=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="strictly inside"):
        PushSumProcess(g, 0, (1.0, 0.5, 0.5))
    with pytest.raises(ValueError, match="loss"):
        PushSumProcess(g, 0, loss_prob=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="one entry per edge"):
        PushSumProcess(g, 0, (0.5, 0.5))
    with pytest.raises(ValueError, match="no edges"):
        PushSumProcess(Digraph(3, ()), 0)


def test_nan_probabilities_rejected():
    nan, fam = float("nan"), [np.eye(2), np.full((2, 2), 0.5)]
    with pytest.raises(ValueError, match="sum to 1"):
        PushSumProcess(ring(3), 0, edge_prob=(nan, 0.5, 0.5))
    with pytest.raises(ValueError, match="sum to 1"):
        IIDFamilyProcess(fam, [nan, 1.0], seed=0)
    with pytest.raises(ValueError, match="row-stochastic"):
        MarkovFamilyProcess(fam, [[nan, 0.5], [0.5, 0.5]], seed=0)


# -- emission semantics ---------------------------------------------------------


def test_constant_process_emits_matrix():
    a = np.array([[0.5, 0.25], [0.5, 0.75]])
    proc = ConstantProcess(a, seed=1)
    for _ in range(5):
        np.testing.assert_array_equal(proc.next_matrix(), a)


def test_iid_singleton_emits_member():
    b = np.array([[1.0, 1.0], [0.0, 1.0]])
    proc = IIDFamilyProcess([b], [1.0], seed=3)
    for _ in range(5):
        np.testing.assert_array_equal(proc.next_matrix(), b)


def test_no_loss_emissions_column_stochastic():
    proc = PushSumProcess(ring(4), 9)
    for _ in range(200):
        assert is_column_stochastic(proc.next_matrix())


def test_every_emission_row_allowable():
    proc = lossy_process(10, loss=0.5)
    for _ in range(200):
        m = proc.next_matrix()
        assert m.dtype == np.float64 and m.shape == (5, 5)
        assert is_row_allowable(m)


# -- reproducibility ------------------------------------------------------------


def test_reproducibility_events_one_million_steps():
    p1 = lossy_process(123)
    p2 = lossy_process(123)
    k1, k2 = p1.block_events(1_000_000), p2.block_events(1_000_000)
    assert k1.dtype == np.intp
    assert np.array_equal(k1 // 2, k2 // 2) and np.array_equal(k1 % 2, k2 % 2)


def test_reproducibility_full_matrices():
    for build in (lossy_process,
                  lambda s: IIDFamilyProcess(
                      [np.eye(2), np.array([[1.0, 1.0], [1.0, 0.0]])],
                      [0.4, 0.6], seed=s),
                  lambda s: MarkovFamilyProcess(
                      [np.eye(2), np.array([[1.0, 1.0], [1.0, 0.0]])],
                      np.array([[0.3, 0.7], [0.6, 0.4]]), seed=s)):
        a = np.stack([build(7).next_matrix() for _ in range(500)])
        b = np.stack([build(7).next_matrix() for _ in range(500)])
        assert np.array_equal(a, b)
        assert not np.array_equal(
            a, np.stack([build(8).next_matrix() for _ in range(500)]))


def test_dense_block_matches_sequential():
    for build in (lambda: lossy_process(5),
                  lambda: IIDFamilyProcess(
                      [np.eye(3), np.ones((3, 3))], [0.7, 0.3], seed=5),
                  lambda: MarkovFamilyProcess(
                      [np.eye(3), np.ones((3, 3))],
                      np.array([[0.5, 0.5], [0.2, 0.8]]), seed=5),
                  lambda: ConstantProcess(np.eye(3), seed=5)):
        p_seq, p_blk = build(), build()
        seq = np.stack([p_seq.next_matrix() for _ in range(137)])
        blk = p_blk.dense_block(137)
        assert np.array_equal(seq, blk)
        np.testing.assert_array_equal(p_blk.block_events(300), p_seq.block_events(300))


def test_pattern_family_per_kind():
    # one row per member, including the lost member of a lossless edge
    g = ring_with_chords(5)
    loss = tuple(0.3 if k % 2 else 0.0 for k in range(len(g.edges)))
    fam = [np.eye(2), np.array([[1.0, 1.0], [1.0, 0.0]])]
    for proc in (PushSumProcess(g, 1, 0.4, loss),
                 IIDFamilyProcess(fam, [0.5, 0.5], seed=1),
                 MarkovFamilyProcess(fam, [[0.5, 0.5], [0.2, 0.8]], seed=1),
                 ConstantProcess(fam[1])):
        pats = proc.pattern_family()
        assert pats.dtype == bool
        assert pats.shape == (proc.family_size, proc.p, proc.p)
        for k in range(proc.family_size):
            np.testing.assert_array_equal(pats[k], proc.member(k) > 0)


def test_pattern_family_of_every_table_entry_form():
    # a column edit with and without its off-diagonal entry, a dense
    # row-allowable member and one with a zero row
    fam = [np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.25, 1.0]]),
           np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.3]]),
           np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
           np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])]
    proc = IIDFamilyProcess(fam, [0.25] * 4, seed=1)
    assert [u[:3] for u in proc.updates[:2]] == [(1, 0.5, 2), (2, 0.3, None)]
    assert proc.updates[2][0] is None and proc.updates[2][3] is not None
    assert proc.updates[3] == (None, 0.0, None, None)
    pats = proc.pattern_family()
    assert pats.dtype == bool and pats.shape == (4, 3, 3)
    for k, a in enumerate(fam):
        np.testing.assert_array_equal(pats[k], a > 0)


def test_spawn_streams_differ_and_reproduce():
    base = lossy_process(42)
    a = base.spawn(1).dense_block(100)
    b = base.spawn(2).dense_block(100)
    a2 = base.spawn(1).dense_block(100)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_push_sum_spawns_share_one_member_stack(monkeypatch):
    # the stack is built once, by the first dense emission of any spawn, and
    # a Birkhoff sweep over several block lengths builds it no more
    built = []
    member = PushSumProcess.member
    monkeypatch.setattr(PushSumProcess, "member",
                        lambda self, k: built.append(k) or member(self, k))
    proc = lossy_process(3)
    a, b = proc.spawn(1), proc.spawn(2)
    assert not built
    a.dense_block(5)
    assert len(built) == proc.family_size == 14
    assert b._members() is a._members() is proc._members()
    assert not proc._members().flags.writeable
    built.clear()
    for m in (64, 128):
        spectrum.estimate_gap_birkhoff(proc, m, 8)
    assert not built


def test_push_sum_event_paths_build_no_member_stack():
    # at complete_digraph(48) the stack would take 4512 * 48**2 * 8 B = 83 MB:
    # construction, consensus.run, next_matrix and member stay far below it
    tracemalloc.start()
    try:
        proc = PushSumProcess(complete_digraph(48), 1, loss_prob=0.1)
        x0 = np.random.default_rng(0).uniform(0.1, 1.0, proc.p)
        traj = consensus.run(proc, x0, np.ones(proc.p), 3000)
        for _ in range(100):
            proc.next_matrix()
        proc.member(proc.family_size - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.ns[-1] == 3000
    assert proc._stack == []
    assert peak < 8e6


def _markov_fam3():
    return acceptance._envelope_configs()[7][0]


def _markov_one_state():
    return MarkovFamilyProcess([np.array([[1.0, 2.0], [3.0, 4.0]])],
                               np.array([[1.0]]), seed=3)


@pytest.mark.parametrize("build", [_markov_fam3, _markov_one_state],
                         ids=["fam3", "one-state"])
@pytest.mark.parametrize("schedule", [
    (0, 16, "next", 1, 511, "next", "next", 16, 0, 1),
    ("next", 511, 0, 1, "next", 16, 16, 1),
    (1, 1, 16, "next", 511),
], ids=["unset-16", "next-first", "unset-1"])
def test_markov_dense_block_splits_match_next_matrix(build, schedule):
    # any split of the stream into blocks and single emissions reproduces
    # the single-step stream bit for bit and leaves it where single steps do
    mixed, ref = build(), build()
    for op in schedule:
        n = 1 if op == "next" else op
        got = mixed.next_matrix()[None] if op == "next" else mixed.dense_block(n)
        want = [ref.next_matrix() for _ in range(n)]
        assert got.shape == (n, ref.p, ref.p)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    np.testing.assert_array_equal(mixed.block_events(300), ref.block_events(300))


def _outcomes(probs, u):
    """The outcome of each uniform of ``u`` under the law ``probs``: located
    by a ``searchsorted`` in the plain cumulative sums, and the last outcome
    of positive probability where the sums end at or below ``u``."""
    last = np.flatnonzero(probs)[-1]
    return np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), last)


def _per_row_walk(proc, u):
    """Reference Markov walk over the uniforms ``u``, from ``proc.transition``
    alone: the first places the chain by the stationary law, each later one
    moves it by the current state's transition row (``_outcomes``)."""
    P = proc.transition
    s = int(_outcomes(MarkovFamilyProcess._stationary(P), u[:1])[0])
    idx = [s]
    nxt = np.stack([_outcomes(row, u[1:]) for row in P], axis=1)
    for row in nxt:
        s = int(row[s])
        idx.append(s)
    return idx


class _Uniforms:
    """Stand-in generator serving a fixed sequence of uniforms in order."""

    def __init__(self, u):
        self.u, self.at = u, 0

    def random(self, m):
        self.at += m
        return self.u[self.at - m:self.at].copy()


_TAKES = st.lists(st.sampled_from([0, 1, 63, 64, 65, 1000, "next"]), max_size=6)


@settings(max_examples=60, deadline=None)
@given(f=st.integers(1, 5),
       weights=st.lists(st.integers(0, 3), min_size=25, max_size=25),
       short_rows=st.booleans(),
       pool=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12),
       takes=_TAKES)
def test_markov_table_walk_matches_per_row_walk(f, weights, short_rows, pool, takes):
    # zero weights repeat breakpoints and put 0.0 among them; the ring
    # weight keeps the chain irreducible
    W = np.array(weights[:f * f], dtype=float).reshape(f, f)
    W[np.arange(f), (np.arange(f) + 1) % f] += 1.0
    P = W / W.sum(axis=1, keepdims=True)
    if short_rows:                      # cumulative rows ending below 1.0
        P[::2] *= 1.0 - 4e-13
    proc = MarkovFamilyProcess([np.eye(2) * (k + 1) for k in range(f)], P, seed=3)
    # uniforms on every breakpoint, at 0.0 and just below 1.0, then the
    # drawn ones
    edges = proc._edges[proc._edges < 1.0]
    total = sum(64 if t == "next" else t for t in takes) + 64
    u = np.resize(np.concatenate((edges, [0.0, 1 - 2**-53], pool)), total)
    proc._rng = _Uniforms(u)
    got = []
    for t in takes:
        if t == "next":     # member k is (k + 1) * I
            got.append(int(proc.next_matrix()[0, 0]) - 1)
        else:
            idx = proc.block_events(t)
            assert len(idx) == t
            got.extend(idx.tolist())
    assert got == _per_row_walk(proc, u)[:len(got)]

    child = proc.spawn((7,))
    assert child._edges is proc._edges and child._next is proc._next
    assert not child._edges.flags.writeable
    assert all(isinstance(row, tuple) for row in child._next)
    idx = child.block_events(1000)
    fresh = np.random.Generator(np.random.PCG64(np.random.SeedSequence((3, 7))))
    assert idx.tolist() == _per_row_walk(child, fresh.random(1000))


class _Serves:
    """Stand-in generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


_SHORT = [0.5, 0.5 - 4e-13, 0.0]    # sums to 1 within PROB_TOL, and below 1 in floats


@pytest.mark.parametrize("u", [1 - 2**-53, 1 - 1e-13])
def test_no_kind_draws_an_outcome_of_probability_zero(u):
    # the largest uniforms fall past cumulative sums that round below 1;
    # the outcome drawn must still be one of positive probability
    probs = np.array([0.1] * 10 + [0.0])
    iid = IIDFamilyProcess([np.eye(2)] * 11, probs, 1)
    iid._rng = _Serves(u)
    assert np.all(probs[iid.block_events(100)] > 0)

    push = PushSumProcess(ring(3), 1, edge_prob=_SHORT)
    push._rng = _Serves(u)
    assert np.all(np.array(_SHORT)[push.block_events(100) // 2] > 0)

    P = np.array([_SHORT, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    pi = MarkovFamilyProcess._stationary(P)
    markov = MarkovFamilyProcess([np.eye(2)] * 3, P, 1)
    for n in (1, generators._WALK_LANES):       # each walk mode
        lanes = [markov.spawn((t,)) for t in range(n)]
        for pr in lanes:
            pr._rng = _Serves(u)
        markov.draw_ahead_lanes(lanes, 100)
        for pr in lanes:
            idx = pr.block_events(100)
            assert pi[idx[0]] > 0       # the start row
            assert np.all(P[idx[:-1], idx[1:]] > 0)


_FAM2 = [np.eye(2), np.array([[1.0, 1.0], [1.0, 0.0]])]

_MARKOV20 = ([np.eye(2) * (k + 1) for k in range(20)],
             np.random.default_rng(20).dirichlet(np.ones(20), size=20))

_EACH_KIND = pytest.mark.parametrize("build", [
    lambda stream: _push_sum(9).spawn(stream),
    lambda stream: _push_sum(11).spawn(stream),
    lambda stream: IIDFamilyProcess(_FAM2, [0.4, 0.6], 9).spawn(stream),
    lambda stream: MarkovFamilyProcess(_FAM2, [[0.3, 0.7], [0.6, 0.4]], 9).spawn(stream),
    lambda stream: ConstantProcess(np.ones((2, 2)), 9).spawn(stream),
    # 20 states with 400 distinct row breakpoints: bins need more than a byte
    lambda stream: MarkovFamilyProcess(*_MARKOV20, 9).spawn(stream),
], ids=["push_sum", "push_sum_per_edge", "iid", "markov", "constant", "markov20"])


@_EACH_KIND
def test_spawn_is_a_fresh_stream_without_history(build):
    parent = build((0,))
    for _ in range(3):
        parent.next_matrix()
    rng_state = parent._rng.bit_generator.state
    child = parent.spawn((4, 2))
    assert np.array_equal(child.dense_block(40), build((4, 2)).dense_block(40))
    assert parent._rng.bit_generator.state == rng_state
    assert parent.stream == (0,)
    np.testing.assert_array_equal(parent.dense_block(300),
                                  build((0,)).dense_block(303)[3:])


@_EACH_KIND
def test_spawn_takes_numpy_integer_streams_and_shares_the_configuration(build):
    parent = build((0,))
    np.testing.assert_array_equal(parent.spawn(np.int64(3)).block_events(200),
                                  parent.spawn(3).block_events(200))
    np.testing.assert_array_equal(parent.spawn((np.int64(1), 2)).block_events(200),
                                  parent.spawn((1, 2)).block_events(200))
    parent.next_matrix()        # draws ahead: the parent holds pending steps
    child, sibling = parent.spawn(4), parent.spawn(5)
    assert child.stream == (4,) and type(child) is type(parent)
    # every configuration attribute is the parent's own object: the read-only
    # arrays, the member table and push-sum's member stack list
    own = {"stream", "_rng", "_ahead", "_at", "_state"}
    for name, value in vars(parent).items():
        if name not in own:
            assert getattr(child, name) is value, name
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, name
    assert child._rng is not parent._rng and child._at == 0
    assert len(child._ahead) == 0 and len(parent._ahead) - parent._at > 0
    if isinstance(parent, PushSumProcess):
        assert child._stack is parent._stack
    # writing into a fresh child's empty block is allowed and reaches no
    # other spawn
    child.block_events(0)[:] = 7
    sibling.block_events(0)[:] = 7
    np.testing.assert_array_equal(child.block_events(100), build((4,)).block_events(100))
    np.testing.assert_array_equal(sibling.block_events(100), build((5,)).block_events(100))
    np.testing.assert_array_equal(parent.block_events(100),
                                  build((0,)).block_events(101)[1:])


def _event_matrices(proc, ks):
    """The emissions of member indices ``ks`` of a ``_push_sum`` process,
    one ``push_sum_matrix`` each."""
    edges = ring_with_chords(proc.p).edges
    shares = np.broadcast_to(_PUSH_SUM[proc.seed][0], len(edges))
    return np.array([push_sum_matrix(proc.p, edges[k // 2], shares[k // 2],
                                     loss=k % 2 == 1)
                     for k in ks]).reshape(-1, proc.p, proc.p)


def _step_matrices(proc, steps):
    """The emissions of a list of member indices."""
    if proc.kind == "push_sum":
        return _event_matrices(proc, steps)
    return proc.members[steps]


def _served(proc, m):
    """The next ``m`` emissions of ``proc``, one ``next_matrix`` each."""
    return np.array([proc.next_matrix() for _ in range(m)]).reshape(-1, proc.p, proc.p)


@_EACH_KIND
def test_block_events_consumes_like_next_matrix(build):
    # m steps of block_events advance the stream like m next_matrix calls,
    # and the indices are those of one block_events call over all steps,
    # whose members are the emissions next_matrix and dense_block serve
    proc, ref = build((0,)), build((0,))
    whole = build((0,)).block_events(1 + 493).tolist()
    np.testing.assert_array_equal(build((0,)).dense_block(1 + 493),
                                  _step_matrices(proc, whole))
    ref.next_matrix()
    proc.next_matrix()
    at = 1
    for m in (0, 1, 63, 64, 65, 300):
        idx = proc.block_events(m)
        assert len(idx) == m and idx.dtype == np.intp
        assert idx.tolist() == whole[at:at + m]
        np.testing.assert_array_equal(_step_matrices(proc, idx.tolist()), _served(ref, m))
        at += m
    np.testing.assert_array_equal(proc.block_events(300), ref.block_events(300))


@_EACH_KIND
@pytest.mark.parametrize("seed", range(4))
def test_emission_paths_interleave_like_single_steps(build, seed):
    # random schedules of next_matrix runs, dense_block and block_events,
    # with sizes straddling the look-ahead length, reproduce one
    # next_matrix stream and one dense_block of the total length
    rng = np.random.default_rng(seed)
    mixed, ref = build((0,)), build((0,))
    paths = ["next", "block"] + (["events"] if mixed.kind == "push_sum" else [])
    got, total = [], 0
    for op in range(10):
        path, m = rng.choice(paths), int(rng.choice([0, 1, 63, 64, 65, 511]))
        if path == "next":
            out = np.array([mixed.next_matrix() for _ in range(m)])
            out = out.reshape(-1, ref.p, ref.p)
        elif path == "block":
            out = mixed.dense_block(m)
        else:
            out = _event_matrices(mixed, mixed.block_events(m).tolist())
        want = [ref.next_matrix() for _ in range(m)]
        assert out.shape == (m, ref.p, ref.p)
        assert all(np.array_equal(g, w) for g, w in zip(out, want))
        total += m
        got.append(out)
        if op == 4:     # a spawn with look-ahead pending is a fresh stream
            child = mixed.spawn((4, 2))
            np.testing.assert_array_equal(
                np.array([child.next_matrix() for _ in range(70)]),
                build((4, 2)).dense_block(70))
    np.testing.assert_array_equal(np.concatenate(got), build((0,)).dense_block(total))
    np.testing.assert_array_equal(mixed.block_events(300), ref.block_events(300))


@_EACH_KIND
@pytest.mark.parametrize("served", [0, 1, 63, 64, 65])
def test_draw_ahead_serves_nothing(build, served):
    # drawing ahead, before or after steps were served, moves no later
    # emission; topping up to at most the pending steps draws nothing
    proc, fresh = build((0,)), build((0,))
    blocks = [proc.dense_block(served)]
    for m, take in ((100, 30), (70, 0), (40, 1), (0, 0), (700, 512), (5, 300)):
        pending = len(proc._ahead) - proc._at
        ahead, rng = proc._ahead, proc._rng.bit_generator.state
        proc.draw_ahead(m)
        assert len(proc._ahead) - proc._at == max(m, pending)
        if m <= pending:
            assert proc._ahead is ahead and proc._rng.bit_generator.state == rng
        blocks.append(proc.dense_block(take))
    total = sum(len(b) for b in blocks)
    np.testing.assert_array_equal(np.concatenate(blocks), fresh.dense_block(total))
    np.testing.assert_array_equal(proc.block_events(300), fresh.block_events(300))


@_EACH_KIND
def test_draw_ahead_refuses_a_negative_count(build):
    proc = build((0,))
    proc.next_matrix()
    ahead = proc._ahead
    with pytest.raises(ValueError, match="nonnegative"):
        proc.draw_ahead(-1)
    assert proc._ahead is ahead
    np.testing.assert_array_equal(proc.dense_block(2), build((0,)).dense_block(3)[1:])


def _lanes_in_state(build, lanes, state):
    """A process and ``lanes`` spawns of it, fresh or part-way through
    their streams with a served step and a pending look-ahead."""
    parent = build((0,))
    out = [parent.spawn((5, t)) for t in range(lanes)]
    if state == "part_way":
        for pr in out:
            pr.dense_block(70)
            pr.draw_ahead(100)
            pr.dense_block(1)
    return parent, out


@_EACH_KIND
@pytest.mark.parametrize("lanes", [1, 2, 6, generators._WALK_LANES + 1])
@pytest.mark.parametrize("state", ["fresh", "part_way"])
def test_draw_ahead_lanes_is_each_lanes_own_draw_ahead(build, lanes, state):
    # one multi-stream draw leaves every lane as its own draw_ahead(m)
    # would: same pending count and later emissions, whether the lanes
    # are walked one by one or, past _WALK_LANES, together
    for m in (1, 2, 63, 64, 65, 300):
        parent, got = _lanes_in_state(build, lanes, state)
        _, want = _lanes_in_state(build, lanes, state)
        parent.draw_ahead_lanes(got, m)
        for g, w in zip(got, want):
            w.draw_ahead(m)
            assert len(g._ahead) - g._at == len(w._ahead) - w._at
            np.testing.assert_array_equal(g.dense_block(m + 5), w.dense_block(m + 5))
            np.testing.assert_array_equal(g.block_events(300), w.block_events(300))


def test_markov20_bins_take_two_bytes():
    proc = MarkovFamilyProcess(*_MARKOV20, 9)
    assert len(proc._edges) > 255 and proc._bin_dtype == np.uint16


@_EACH_KIND
def test_draw_ahead_lanes_refuses_lanes_out_of_lockstep(build):
    parent, lanes = _lanes_in_state(build, 3, "fresh")
    lanes[1].draw_ahead(5)      # five steps pending, against none
    rngs, aheads = [pr._rng.bit_generator.state for pr in lanes], [pr._ahead for pr in lanes]
    with pytest.raises(ValueError, match="lockstep"):
        parent.draw_ahead_lanes(lanes, 100)
    with pytest.raises(ValueError, match="nonnegative"):
        parent.draw_ahead_lanes(lanes[:1], -1)
    assert [pr._rng.bit_generator.state for pr in lanes] == rngs
    assert all(pr._ahead is a for pr, a in zip(lanes, aheads))


@_EACH_KIND
def test_draw_ahead_lanes_without_lanes_is_a_no_op(build):
    parent = build((0,))
    rng = parent._rng.bit_generator.state
    parent.draw_ahead_lanes((), 100)
    parent.draw_ahead_lanes([], 0)
    assert parent._rng.bit_generator.state == rng
    np.testing.assert_array_equal(parent.block_events(300), build((0,)).block_events(300))


@pytest.mark.parametrize("run", [1, 2])
def test_draw_ahead_lanes_peak_memory_is_the_index_array(run):
    # 128 trials of the fam3, ring5 push-sum and i.i.d. kinds drawing 1024
    # steps together hold the step-major intp indices (and, for fam3, one
    # byte of bins per step), not a float staging array of all lanes; on a
    # second run, after the first run's steps were served, the first run's
    # indices (traced too) are let go before the new ones are drawn
    cfg = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "full"
    T, m = 128, 1024
    for parent in (load_config(cfg / "markov-family" / "estimate.json").build_process(5),
                   load_config(cfg / "ring5-lossy" / "estimate.json").build_process(5),
                   IIDFamilyProcess(_FAM2, [0.4, 0.6], 5)):
        lanes = [parent.spawn((3, m, t)) for t in range(T)]
        tracemalloc.start()
        try:
            for _ in range(run - 1):
                parent.draw_ahead_lanes(lanes, m)
                for pr in lanes:
                    pr.block_events(m)
            tracemalloc.reset_peak()
            parent.draw_ahead_lanes(lanes, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * T * m * 8, parent.kind


@_EACH_KIND
def test_writing_into_emissions_changes_no_later_emission(build):
    proc, ref = build((0,)), build((0,))
    for _ in range(3):
        proc.next_matrix()[:] = -1.0
        proc.dense_block(70)[:] = -1.0
        proc.block_events(70)[:] = 70       # no member has index 70
        ref.dense_block(141)
        np.testing.assert_array_equal(proc.next_matrix(), ref.next_matrix())
    np.testing.assert_array_equal(proc.block_events(300), ref.block_events(300))


@_EACH_KIND
def test_negative_step_count_is_refused(build):
    proc = build((0,))
    proc.next_matrix()
    with pytest.raises(ValueError, match="nonnegative"):
        proc.dense_block(-1)
    np.testing.assert_array_equal(proc.dense_block(2), build((0,)).dense_block(3)[1:])


# -- the member table ------------------------------------------------------------


@st.composite
def member_processes(draw):
    """A small push-sum process (share 0.5 or 0.3, with or without loss), or
    an i.i.d. or Markov family of push-sum-shaped, diagonal, dense and
    zero-row members, with the list of matrices its members are."""
    p = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    share = draw(st.sampled_from([0.5, 0.3]))
    if draw(st.booleans()):
        edges = draw(st.lists(st.sampled_from(complete_digraph(p).edges),
                              min_size=1, max_size=6, unique=True))
        loss = draw(st.sampled_from([0.0, 0.3]))
        members = [push_sum_matrix(p, e, share, loss=lost)
                   for e in edges for lost in (False, True)]
        return PushSumProcess(Digraph(p, tuple(edges)), seed, share, loss), members
    edits = st.builds(lambda e, lost: push_sum_matrix(p, e, share, loss=lost),
                      st.sampled_from(complete_digraph(p).edges), st.booleans())
    dense = st.lists(st.sampled_from([0.0, 0.25, 0.3, 1.0, 1.7]),
                     min_size=p * p, max_size=p * p).map(lambda v: np.reshape(v, (p, p)))
    diag = st.lists(st.sampled_from([0.25, 0.3, 1.0]), min_size=p, max_size=p).map(np.diag)
    members = draw(st.lists(st.one_of(edits, dense, diag), min_size=1, max_size=4))
    f = len(members)
    if draw(st.booleans()):
        return IIDFamilyProcess(members, [1 / f] * f, seed), members
    return MarkovFamilyProcess(members, np.full((f, f), 1 / f), seed), members


def _power_of_two(a: float) -> bool:
    return a == 0.0 or math.frexp(a)[0] == 0.5


@settings(max_examples=80, deadline=None)
@given(drawn=member_processes(), seed=st.integers(0, 2**32 - 1))
def test_member_table_agrees_with_every_member(drawn, seed):
    # the update table, the column-stochastic flags, primitivity's column
    # edits and the member stack all describe the matrix member(k) returns,
    # which is the member the process was built with
    proc, members = drawn
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, proc.p)
    edits = _column_edits(proc)
    block = proc._members()
    assert len(edits) == len(proc.updates) == len(proc.stochastic) == proc.family_size
    for k in range(proc.family_size):
        A = proc.member(k)
        np.testing.assert_array_equal(A, members[k])
        np.testing.assert_array_equal(block[k], A)
        assert proc.stochastic[k] == is_column_stochastic(A)
        i, keep, j, a = proc.updates[k]
        if i is None and a is None:
            assert not is_row_allowable(A)
        elif i is None:
            np.testing.assert_array_equal(a, A)
        else:
            y = x.copy()
            if j is not None:
                y[j] += a * y[i]
            y[i] *= keep
            if _power_of_two(a):
                np.testing.assert_array_equal(y, A @ x)
            else:
                np.testing.assert_allclose(y, A @ x, rtol=1e-15, atol=1e-15)
        cols = [1 << c for c in range(proc.p)]
        targets, pairs = edits[k]
        old = cols.copy()
        for c in targets:
            cols[c] = 0
        for c, r in pairs:
            cols[c] |= old[r]
        pattern = [[bool(cols[c] >> r & 1) for c in range(proc.p)] for r in range(proc.p)]
        np.testing.assert_array_equal(pattern, A > 0)
    assert proc.entry_range == (block[block > 0].min(initial=math.inf), block.max())
    child = proc.spawn((5,))
    assert child.updates is proc.updates and child.stochastic is proc.stochastic
    assert child.entry_range is proc.entry_range
    assert not proc.stochastic.flags.writeable


@pytest.mark.parametrize("proc,want", [
    (PushSumProcess(ring(3), 1, share=(0.6, 0.9, 0.7)), (1.0 - 0.9, 1.0)),
    (PushSumProcess(ring(3), 1, share=0.2, loss_prob=0.5), (0.2, 1.0)),
    (IIDFamilyProcess([np.eye(2) * 1e-30, np.array([[0.0, 3.0], [1e300, 0.0]])],
                      [0.5, 0.5], 1), (1e-30, 1e300)),
    (ConstantProcess(np.zeros((2, 2))), (math.inf, 0.0)),
], ids=["push_sum_keep", "push_sum_share", "family", "all_zero"])
def test_entry_range_is_the_least_positive_and_the_largest_member_entry(proc, want):
    block = np.stack([proc.member(k) for k in range(proc.family_size)])
    assert proc.entry_range == want
    assert want == (block[block > 0].min(initial=math.inf), block.max())


# -- statistics of the sampler ---------------------------------------------------


def test_edge_and_loss_frequencies():
    edge_prob, loss_prob = (0.5, 0.3, 0.2), (0.0, 0.25, 0.6)
    proc = PushSumProcess(ring(3), 1234, loss_prob=loss_prob, edge_prob=edge_prob)
    n = 1_000_000
    k = proc.block_events(n)
    e, lost = k // 2, k % 2 == 1
    counts = np.bincount(e, minlength=3)
    for k, q in enumerate(edge_prob):
        se = np.sqrt(q * (1 - q) * n)
        assert abs(counts[k] - q * n) <= 3 * se
    for k, r in enumerate(loss_prob):
        nk = counts[k]
        lk = int(lost[e == k].sum())
        se = np.sqrt(max(r * (1 - r) * nk, 1.0))
        assert abs(lk - r * nk) <= 3 * se


def test_loss_coupling_entrywise_domination():
    # same seed, loss 0 vs 0.5: the lossless emissions dominate entrywise
    g = Digraph(2, ((0, 1), (1, 0)))
    p0 = PushSumProcess(g, 7)
    p5 = PushSumProcess(g, 7, 0.5, 0.5)
    a0 = p0.dense_block(5000)
    a5 = p5.dense_block(5000)
    assert np.all(a0 >= a5)


def test_markov_stationary_distribution():
    P = np.array([[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.5, 0.3, 0.2]])
    pi = MarkovFamilyProcess._stationary(P)
    np.testing.assert_allclose(pi @ P, pi, atol=1e-12)
    assert pi.sum() == pytest.approx(1.0)


def test_markov_requires_irreducible():
    fam = [np.eye(2), np.ones((2, 2))]
    reducible = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="irreducible"):
        MarkovFamilyProcess(fam, reducible, seed=0)
    # every state reaches the absorbing state 2, which reaches no other
    fam3 = [np.eye(2), np.ones((2, 2)), np.diag([1.0, 0.5])]
    absorbing = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="irreducible"):
        MarkovFamilyProcess(fam3, absorbing, seed=0)
    # a cycle through all states is irreducible though no row is positive
    MarkovFamilyProcess(fam3, np.roll(np.eye(3), 1, axis=1), seed=0)


def test_markov_marginal_stationary_over_time():
    # index frequencies at two widely separated times agree within 3 SE
    fam = [np.eye(3), np.ones((3, 3)), np.diag([1.0, 2.0, 3.0])]
    P = np.array([[0.1, 0.6, 0.3], [0.5, 0.2, 0.3], [0.3, 0.3, 0.4]])
    pi = MarkovFamilyProcess._stationary(P)
    reps = 4000
    counts = {1: np.zeros(3), 200: np.zeros(3)}
    for r in range(reps):
        idx = MarkovFamilyProcess(fam, P, seed=1000).spawn((r,)).block_events(200)
        for t in counts:
            counts[t][idx[t - 1]] += 1
    for t, cnt in counts.items():
        for s in range(3):
            se = np.sqrt(pi[s] * (1 - pi[s]) * reps)
            assert abs(cnt[s] - pi[s] * reps) <= 3 * se, (t, s, cnt)
