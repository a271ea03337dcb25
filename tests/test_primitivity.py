import re
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipgap import acceptance, primitivity
from gossipgap.acceptance import ring5_process
from gossipgap.generators import (ConstantProcess, Digraph, IIDFamilyProcess,
                                  MarkovFamilyProcess, MatrixProcess,
                                  PushSumProcess,
                                  complete_digraph, push_sum_matrix, ring,
                                  ring_with_chords)
from gossipgap.primitivity import (DEFAULT_INDEX_CAP, is_family_primitive,
                                   ks_critical_distance, ks_distance,
                                   replay_word,
                                   sample_backward_index,
                                   sample_backward_indices,
                                   sample_forward_index,
                                   sample_forward_indices,
                                   survival_loglinear_fit)

FIB = np.array([[True, True], [True, False]])
SWAP = np.array([[False, True], [True, False]])


def test_fibonacci_square_all_true():
    assert (FIB @ FIB).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_pattern_homomorphism(p, seed):
    rng = np.random.default_rng(seed)
    a = rng.random((p, p)) * (rng.random((p, p)) < 0.5)
    b = rng.random((p, p)) * (rng.random((p, p)) < 0.5)
    np.testing.assert_array_equal((a @ b) > 0, (a > 0) @ (b > 0))


def test_family_primitive_fibonacci():
    rep = is_family_primitive([FIB])
    assert rep.family_primitive
    assert len(rep.witness_word) == 2
    assert replay_word([FIB], rep.witness_word).all()


def test_family_swap_not_primitive():
    rep = is_family_primitive([SWAP])
    assert not rep.family_primitive
    assert rep.states_explored == 2
    assert rep.witness_word is None


def test_family_push_sum_strongly_connected():
    g = ring_with_chords(5)
    pats = [push_sum_matrix(5, e, 0.5) > 0 for e in g.edges]
    rep = is_family_primitive(pats)
    assert rep.family_primitive
    assert replay_word(pats, rep.witness_word).all()


def test_family_push_sum_ring5_lossy_report():
    # 14 generators, 7 of them identity patterns from lost packets; each
    # search reaches all 25 row pairs of a primitive family
    pats = ring5_process(True).pattern_family()
    assert len(pats) == 14
    rep = is_family_primitive(pats)
    assert rep.family_primitive
    assert rep.witness_word == (0, 10, 4, 10, 8, 6, 4, 6, 12, 0)
    assert rep.states_explored == 50
    assert replay_word(pats, rep.witness_word).all()


def test_family_duplicate_generators_do_not_change_report():
    base = is_family_primitive([SWAP, FIB])
    dup = is_family_primitive([SWAP, SWAP, np.eye(2, dtype=bool), FIB])
    assert dup.family_primitive and base.family_primitive
    # same word, with each generator under its first index in the longer list
    assert tuple((0, 3)[i] for i in base.witness_word) == dup.witness_word


def test_family_primitivity_magnitude_invariant():
    # decision depends only on patterns, not on the positive magnitudes
    g = ring(4)
    rng = np.random.default_rng(3)
    base = [push_sum_matrix(4, e, 0.5) for e in g.edges]
    ref = is_family_primitive([a > 0 for a in base])
    jittered = [a * np.exp(rng.uniform(-2, 2, a.shape)) for a in base]
    rep = is_family_primitive([a > 0 for a in jittered])
    assert rep.family_primitive == ref.family_primitive
    assert rep.witness_word == ref.witness_word


def test_family_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        is_family_primitive([])


def test_family_stack_matches_member_list():
    stack = ring5_process(True).pattern_family()
    assert stack.shape == (14, 5, 5) and stack.dtype == bool
    assert is_family_primitive(stack) == is_family_primitive(list(stack))
    swap_stack = np.stack([SWAP, SWAP])
    assert is_family_primitive(swap_stack) == is_family_primitive([SWAP, SWAP])


def test_family_rejects_bad_members():
    for bad in ([np.ones((2, 3), dtype=bool)],
                [np.ones(2, dtype=bool)],
                [FIB, np.ones((3, 3), dtype=bool)]):
        with pytest.raises(ValueError, match="square"):
            is_family_primitive(bad)
    for bad in ([np.array([[True, False], [False, False]])],   # zero row
                [FIB, np.array([[True, False], [True, False]])]):  # zero column
        with pytest.raises(ValueError, match="allowable"):
            is_family_primitive(bad)


def _semigroup_bfs(pats):
    """Reference decision: breadth-first search over the distinct products
    of the family, extending words on the right, until the all-true
    pattern is found or no new product appears."""
    seen = {g.tobytes() for g in pats}
    queue = deque(pats)
    while queue:
        cur = queue.popleft()
        if cur.all():
            return True
        for g in pats:
            nb = cur @ g
            if nb.tobytes() not in seen:
                seen.add(nb.tobytes())
                queue.append(nb)
    return False


def _random_allowable(rng, p, density):
    """A random pattern holding a random permutation, so it is allowable and
    its diagonal may be zero."""
    pat = rng.random((p, p)) < density
    pat[np.arange(p), rng.permutation(p)] = True
    return pat


def _block_permuting(rng, p, f):
    """Members that all map the blocks of one partition of the rows onto
    blocks by a permutation of equal-size blocks: no product is positive."""
    q = int(rng.choice([d for d in range(2, p + 1) if p % d == 0]))
    block = rng.permutation(np.arange(p) % q)
    fam = []
    for _ in range(f):
        sigma = rng.permutation(q)
        pat = _random_allowable(rng, p, 0.5) & (sigma[block][:, None] == block)
        # keep the member allowable: a bijection from each block's rows onto
        # the columns of its image block
        for s in range(q):
            cols = np.flatnonzero(block == sigma[s])
            pat[np.flatnonzero(block == s), rng.permutation(cols)] = True
        fam.append(pat)
    return fam


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 2 ** 31 - 1),
       st.sampled_from(["sparse", "dense", "blocks"]))
def test_family_decision_matches_semigroup_bfs(p, f, seed, shape):
    rng = np.random.default_rng(seed)
    if shape == "blocks" and p > 1:
        pats = _block_permuting(rng, p, f)
    else:
        pats = [_random_allowable(rng, p, 0.2 if shape == "sparse" else 0.5)
                for _ in range(f)]
    rep = is_family_primitive(pats)
    assert rep.family_primitive == _semigroup_bfs(pats)
    assert 0 < rep.states_explored <= 2 * p * p
    if rep.family_primitive:
        assert all(0 <= k < f for k in rep.witness_word)
        assert replay_word(pats, rep.witness_word).all()
    else:
        assert rep.witness_word is None
    if shape == "blocks" and p > 1:
        assert not rep.family_primitive


def test_family_wide_ring_decides_fast():
    # p = 64 ring with 32 chords and loss 0.2: 192 members
    g = ring_with_chords(64, chords=tuple((i, (i + 32) % 64) for i in range(0, 64, 2)))
    pats = PushSumProcess(g, 1, 0.5, 0.2).pattern_family()
    assert pats.shape == (192, 64, 64)
    t0 = time.perf_counter()
    rep = is_family_primitive(pats)
    assert time.perf_counter() - t0 < 10.0
    assert rep.family_primitive
    assert replay_word(pats, rep.witness_word).all()


def test_family_witness_indexes_members():
    # p4 has a lossless edge, so member indices and pattern rows must agree
    proc = acceptance.p4_process()
    rep = is_family_primitive(proc.pattern_family())
    assert rep.family_primitive
    prod = np.eye(proc.p)
    for k in rep.witness_word:
        prod = prod @ proc.member(k)
    assert (prod > 0).all()


def _report_over_every_member(patterns):
    """``is_family_primitive`` as it searched before dropping identity and
    repeated members: both row-pair searches over the whole stack."""
    stack = np.stack([np.asarray(g, dtype=bool) for g in patterns])
    w, prod, states = primitivity._merge_word(stack, np.eye(stack.shape[1], dtype=bool))
    if w is None:
        return primitivity.PrimitivityReport(False, None, states)
    v, _, more = primitivity._merge_word(stack.transpose(0, 2, 1),
                                         np.diag(prod.all(axis=0)))
    witness = None if v is None else tuple(w + v[::-1]) or (0,)
    return primitivity.PrimitivityReport(witness is not None, witness, states + more)


@pytest.mark.parametrize("build", [
    lambda: ring5_process(True),
    lambda: acceptance.p4_process(),
    lambda: acceptance.p2_process(0.5),
    lambda: PushSumProcess(complete_digraph(6), 1, 0.5, 0.2),
    lambda: acceptance._envelope_configs()[7][0],
    lambda: ConstantProcess(np.eye(3), seed=0),
    lambda: ConstantProcess(np.ones((1, 1)), seed=0),
], ids=["ring5", "p4", "p2", "complete6", "fam3", "identity", "p1"])
def test_family_report_same_as_search_over_every_member(build):
    pats = build().pattern_family()
    assert is_family_primitive(pats) == _report_over_every_member(pats)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_family_report_with_repeats_and_identities(p, f, seed):
    rng = np.random.default_rng(seed)
    base = [_random_allowable(rng, p, 0.3) for _ in range(f)] + [np.eye(p, dtype=bool)]
    pats = [base[k] for k in rng.integers(0, len(base), 2 * f + 1)]
    assert is_family_primitive(pats) == _report_over_every_member(pats)


# -- index sampling -----------------------------------------------------------


def test_forward_index_constant_positive():
    proc = ConstantProcess(np.ones((3, 3)), seed=0)
    assert sample_forward_index(proc) == 1


def test_forward_index_fibonacci():
    proc = ConstantProcess(FIB.astype(float), seed=0)
    assert sample_forward_index(proc) == 2


def test_forward_index_cap_error():
    proc = ConstantProcess(SWAP.astype(float), seed=0)
    with pytest.raises(RuntimeError, match="cap"):
        sample_forward_index(proc, cap=50)


def test_backward_index_constant():
    patterns = ConstantProcess(np.ones((3, 3)), seed=0).pattern_family()
    assert sample_backward_index(patterns, [0] * 5) == 1


def test_backward_index_fibonacci():
    assert sample_backward_index([FIB], [0] * 10) == 2


def test_backward_index_walks_the_word_backwards():
    # the index is the shortest suffix whose product, latest member first,
    # is all-true
    patterns = ring5_process(True, seed=0).pattern_family()
    rng = np.random.default_rng(4)
    for _ in range(20):
        word = rng.integers(len(patterns), size=400).tolist()
        k = sample_backward_index(patterns, word)
        assert replay_word(patterns, word[::-1][:k]).all()
        assert k == 1 or not replay_word(patterns, word[::-1][:k - 1]).all()


def test_backward_index_history_exhausted():
    with pytest.raises(RuntimeError, match="history exhausted"):
        sample_backward_index([SWAP], [0] * 8, cap=30)


def test_backward_index_cap_error():
    with pytest.raises(RuntimeError, match="cap=8"):
        sample_backward_index([SWAP], [0] * 30, cap=8)


def test_backward_index_requires_history():
    with pytest.raises(ValueError, match="empty word"):
        sample_backward_index([FIB], [])


def lossy_proc(seed):
    g = ring_with_chords(5)
    ne = len(g.edges)
    loss = tuple(0.1 if k % 2 == 0 else 0.3 for k in range(ne))
    return PushSumProcess(g, seed, 0.5, loss)


def test_forward_backward_same_distribution_small():
    psi = sample_forward_indices(lossy_proc(11).spawn((50, 0)), 2000)
    rho = sample_backward_indices(lossy_proc(11).spawn((50, 1)), 2000)
    d = ks_distance(psi, rho)
    assert d <= ks_critical_distance(2000, 2000)


def test_backward_ring_buffer_markov():
    fam = [push_sum_matrix(3, (0, 1), 0.5),
           push_sum_matrix(3, (1, 2), 0.5),
           push_sum_matrix(3, (2, 0), 0.5)]
    P = np.array([[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.5, 0.3, 0.2]])
    proc = MarkovFamilyProcess(fam, P, seed=3)
    samples = sample_backward_indices(proc, 50, spacing=40)
    assert np.all(samples >= 1)


def _iid_walk(proc, count, cap):
    """The i.i.d. branch of ``sample_backward_indices`` that the column-mask
    walk replaced: fresh emissions from ``next_matrix`` multiplied on the
    right of the running bool pattern until it is all-true.  Returns the
    samples taken and the error message that stopped the walk (or None)."""
    out = []
    for _ in range(count):
        cur = proc.next_matrix() > 0
        k = 1
        while np.count_nonzero(cur) != cur.size:
            if k >= cap:
                return out, f"pattern not positive within cap={cap} steps"
            cur = cur @ (proc.next_matrix() > 0)
            k += 1
        out.append(k)
    return out, None


_IID_KINDS = {
    "ring5_lossy": lambda: ring5_process(True, seed=5),
    "ring5_lossless": lambda: ring5_process(False, seed=31),
    "ring3_share": lambda: PushSumProcess(ring(3), 7, (0.3, 0.7, 0.45), (0.0, 0.2, 0.0),
                                          (0.2, 0.5, 0.3)),
    "swap_fib": lambda: IIDFamilyProcess([SWAP.astype(float), FIB.astype(float)],
                                         [0.5, 0.5], seed=3),
    "constant": lambda: ConstantProcess(FIB.astype(float), seed=0),
}


def _same_stream(proc, twin):
    np.testing.assert_array_equal(proc.next_matrix(), twin.next_matrix())
    np.testing.assert_array_equal(proc.block_events(300), twin.block_events(300))


@pytest.mark.parametrize("cap", [DEFAULT_INDEX_CAP, 6, 12])
@pytest.mark.parametrize("kind", sorted(_IID_KINDS))
def test_backward_column_walk_matches_pattern_walk(kind, cap):
    # same samples as the next_matrix walk, the same cap error at the same
    # sample, and the same steps used up either way
    build = _IID_KINDS[kind]
    twin = build()
    want, err = _iid_walk(twin, 300, cap)
    proc = build()
    if err is None:
        got = sample_backward_indices(proc, 300, cap=cap)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_array_equal(
            sample_backward_indices(build(), len(want), cap=cap), want)
        with pytest.raises(RuntimeError, match=re.escape(err)):
            sample_backward_indices(proc, len(want) + 1, cap=cap)
    _same_stream(proc, twin)


def test_backward_column_walk_grid_reaches_the_cap_error():
    # the grid above is not vacuous: it completes, and it stops on the cap
    # error both at the first sample and after samples were taken
    outcomes = [_iid_walk(_IID_KINDS[k](), 300, c) for k, c in
                [("ring5_lossy", DEFAULT_INDEX_CAP), ("ring5_lossy", 6),
                 ("swap_fib", 6)]]
    (n0, e0), (n1, e1), (n2, e2) = outcomes
    assert len(n0) == 300 and e0 is None
    assert not n1 and "cap=6" in e1
    assert len(n2) > 0 and "cap=6" in e2


@pytest.mark.parametrize("lead", [0, 1, 63, 64, 65])
@pytest.mark.parametrize("kind", sorted(_IID_KINDS))
def test_backward_column_walk_leaves_stream_like_single_steps(kind, lead):
    # with the look-ahead buffer part used before the call, the sampler
    # uses up exactly the steps a next_matrix walk uses
    proc, twin = _IID_KINDS[kind](), _IID_KINDS[kind]()
    for _ in range(lead):
        proc.next_matrix()
        twin.next_matrix()
    want, err = _iid_walk(twin, 40, DEFAULT_INDEX_CAP)
    assert err is None
    np.testing.assert_array_equal(sample_backward_indices(proc, 40), want)
    _same_stream(proc, twin)


def test_backward_column_walk_never_builds_an_emission(monkeypatch):
    want = {k: _iid_walk(_IID_KINDS[k](), 100, DEFAULT_INDEX_CAP)[0]
            for k in ("ring5_lossy", "swap_fib", "constant")}

    def no_emission(self, *args):
        raise AssertionError("the i.i.d. backward walk built an emission")
    monkeypatch.setattr(MatrixProcess, "next_matrix", no_emission)
    monkeypatch.setattr(MatrixProcess, "dense_block", no_emission)
    for kind, samples in want.items():
        proc = _IID_KINDS[kind]()
        np.testing.assert_array_equal(sample_backward_indices(proc, 100), samples)


def _random_iid_process(p, seed, family):
    """A strongly connected push-sum digraph with per-edge loss in {0, 0.3},
    or an i.i.d. family of random allowable patterns (each member holds a
    random permutation, so its diagonal may be zero)."""
    rng = np.random.default_rng(seed)
    if family:
        mats = []
        for _ in range(int(rng.integers(1, 5))):
            pat = rng.random((p, p)) < 0.3
            pat[np.arange(p), rng.permutation(p)] = True
            mats.append(pat * rng.uniform(0.5, 2.0, (p, p)))
        return IIDFamilyProcess(mats, rng.dirichlet(np.ones(len(mats))), seed)
    order = rng.permutation(p)
    edges = {(int(order[k]), int(order[(k + 1) % p])) for k in range(p)}
    edges |= {(i, j) for i in range(p) for j in range(p)
              if i != j and rng.random() < 0.3}
    edges = sorted(edges)
    return PushSumProcess(Digraph(p, tuple(edges)), seed, rng.uniform(0.1, 0.9),
                          rng.choice([0.0, 0.3], len(edges)).tolist())


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1), st.booleans())
def test_backward_column_walk_matches_bool_walk(p, seed, family):
    want, err = _iid_walk(_random_iid_process(p, seed, family), 30, 60)
    proc = _random_iid_process(p, seed, family)
    np.testing.assert_array_equal(sample_backward_indices(proc, len(want), cap=60),
                                  want)
    if err is not None:
        with pytest.raises(RuntimeError, match=re.escape(err)):
            sample_backward_indices(proc, 1, cap=60)


def _history_walk(proc, count, cap, spacing):
    """The walk-back over a buffer of emitted patterns that the Markov
    branch of ``sample_backward_indices`` replaced: ``next_matrix`` up to
    each end point, then products of the buffered patterns.  Returns the
    samples taken and the error message that stopped the walk (or None)."""
    hist = deque(maxlen=cap)
    out, end = [], 0
    for _ in range(count):
        end += spacing
        hist.extend(proc.next_matrix() > 0 for _ in range(spacing))
        cur, k = hist[-1], 1
        while not cur.all():
            if k >= cap:
                return out, f"pattern not positive within cap={cap} steps"
            if k >= len(hist) or end - k < 1:
                return out, "pattern history exhausted before positivity"
            cur = cur @ hist[-1 - k]
            k += 1
        out.append(k)
    return out, None


_WALK_FAMILIES = {
    "fam3": lambda: acceptance._envelope_configs()[7][0],
    "ring3": lambda: MarkovFamilyProcess(
        [push_sum_matrix(3, (0, 1), 0.5), push_sum_matrix(3, (1, 2), 0.5),
         push_sum_matrix(3, (2, 0), 0.5)],
        np.array([[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.5, 0.3, 0.2]]), seed=3),
    "two": lambda: MarkovFamilyProcess([FIB.astype(float), SWAP.astype(float)],
                                       [[0.6, 0.4], [0.5, 0.5]], seed=11),
}


@pytest.mark.parametrize("cap", [DEFAULT_INDEX_CAP, 6, 12])
@pytest.mark.parametrize("spacing", [1, 40, 64])
@pytest.mark.parametrize("family", sorted(_WALK_FAMILIES))
def test_backward_walk_matches_pattern_history(family, spacing, cap):
    # same samples as the pattern-buffer walk, and the same error (cap or
    # history exhausted) at the same sample
    build = _WALK_FAMILIES[family]
    want, err = _history_walk(build(), 300, cap, spacing)
    got = sample_backward_indices(build(), len(want), cap=cap, spacing=spacing)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    if err is None:
        assert len(want) == 300
    else:
        with pytest.raises(RuntimeError, match=re.escape(err)):
            sample_backward_indices(build(), len(want) + 1, cap=cap,
                                    spacing=spacing)


def test_backward_walk_grid_reaches_both_errors():
    # the grid above is not vacuous: it stops on each error, the cap error
    # after samples were taken, and also completes
    outcomes = {(f, s, c): _history_walk(_WALK_FAMILIES[f](), 300, c, s)
                for f, s, c in [("fam3", 1, DEFAULT_INDEX_CAP),
                                ("ring3", 40, 12), ("two", 64, DEFAULT_INDEX_CAP)]}
    (n0, e0), (n1, e1), (n2, e2) = outcomes.values()
    assert not n0 and "exhausted" in e0
    assert len(n1) > 0 and "cap=12" in e1
    assert len(n2) == 300 and e2 is None


def _one_draw_per_end_point(proc, count, cap, spacing):
    """The Markov branch of ``sample_backward_indices`` with one
    ``block_events`` per end point and no draw ahead."""
    edits, word, out = primitivity._column_edits(proc), deque(maxlen=cap), []
    for _ in range(count):
        word.extend(proc.block_events(spacing).tolist())
        out.append(primitivity._column_walk(edits, proc.p, reversed(word), cap))
    return out


@pytest.mark.parametrize("count", [1, 255, 256, 257, 1000])
def test_backward_draw_ahead_matches_one_draw_per_end_point(count):
    proc, ref = _WALK_FAMILIES["fam3"](), _WALK_FAMILIES["fam3"]()
    got = sample_backward_indices(proc, count)
    assert got.tolist() == _one_draw_per_end_point(ref, count, DEFAULT_INDEX_CAP, 64)
    np.testing.assert_array_equal(proc.block_events(300), ref.block_events(300))


def test_backward_draw_ahead_after_cap_error_serves_the_reference_steps():
    proc, ref = _WALK_FAMILIES["ring3"](), _WALK_FAMILIES["ring3"]()
    with pytest.raises(RuntimeError, match="cap=12"):
        sample_backward_indices(proc, 300, cap=12, spacing=40)
    with pytest.raises(RuntimeError, match="cap=12"):
        _one_draw_per_end_point(ref, 300, 12, 40)
    np.testing.assert_array_equal(proc.block_events(500), ref.block_events(500))


def test_backward_walk_consumes_only_its_end_points():
    proc, ref = _WALK_FAMILIES["fam3"](), _WALK_FAMILIES["fam3"]()
    sample_backward_indices(proc, 7, spacing=40)
    ref.dense_block(280)
    np.testing.assert_array_equal(proc.next_matrix(), ref.next_matrix())
    np.testing.assert_array_equal(proc.block_events(300), ref.block_events(300))


# -- statistics ---------------------------------------------------------------


def test_ks_distance_basics():
    a = np.array([1, 2, 3, 4])
    assert ks_distance(a, a) == 0.0
    assert ks_distance([1, 1, 1], [10, 10, 10]) == 1.0
    # F_a jumps to 1 at 2, F_b is 0 until 3: distance 1/2 at x=2
    assert ks_distance([1, 2], [3, 4]) == 1.0


def test_ks_critical_value():
    assert ks_critical_distance(10_000, 10_000) == pytest.approx(0.02302, abs=2e-4)


def test_survival_fit_geometric():
    rng = np.random.default_rng(0)
    q = 0.88
    samples = rng.geometric(1 - q, size=20_000)
    slope, _, corr = survival_loglinear_fit(samples)
    assert corr <= -0.99
    assert slope == pytest.approx(np.log(q), rel=0.05)


def test_survival_fit_needs_samples():
    with pytest.raises(ValueError):
        survival_loglinear_fit([1, 2, 3])


@pytest.mark.filterwarnings("error")
def test_survival_fit_flat_tail_raises_without_warning():
    # survival is 0.4 at every x in the fit range 5..29: no line to fit
    with pytest.raises(ValueError, match="flat"):
        survival_loglinear_fit([5] * 60 + [30] * 40)
    # two distinct values in the range still fit a line
    slope, _, corr = survival_loglinear_fit([5] * 50 + [6] * 10 + [30] * 40)
    assert slope < 0 and -1 <= corr < 0
