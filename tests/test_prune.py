"""Pruning tests: definition traces on hand-marked trees, mark-law
marginals against the family formulas, and the Markov two-step check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levytree import prune
from levytree.family import LinearDriftFamily, ShiftFamily
from levytree.mechanism import DomainError, GammaDensity, Mechanism, NumericError, PointMass
from levytree.prune import MarkedTree, generate_marks, two_step_consistency
from levytree.sampler import GwScheme, RngStream, gw_forest, gw_tree, spine_forest
from levytree.tree import FiniteTree

LD = LinearDriftFamily(1.0, 1.0)
SHIFT = ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),)), (-0.5, 3.0))
# heavy jumps and little Brownian branching: many-child nodes, so node marks
JUMPY = ShiftFamily(Mechanism(0.0, 0.2, (PointMass(1.0, 4.0),)), (-0.5, 3.0))


def build(parents, lengths, deltas=None, mus=None):
    n = len(parents)
    return FiniteTree(
        np.array(parents, dtype=np.int64),
        np.array(lengths, dtype=float),
        np.zeros(n) if deltas is None else np.array(deltas, dtype=float),
        np.zeros(n) if mus is None else np.array(mus, dtype=float),
    )


def single_edge(length=2.0, mu=1.0):
    return build([-1, 0], [0.0, length], mus=[0.0, mu])


def pruned(mt, q):
    """mt pruned at q, read as one replicate."""
    return mt.pruned(q, np.zeros(len(mt.base), dtype=np.int64))[0]


def assert_same_tree(got, want):
    for name in ("parent", "length", "delta", "mu"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def has_child(tree):
    return np.bincount(tree.parent[1:], minlength=len(tree)) > 0


def marked(tree, window, edges=(), nodes=()):
    edges = list(edges)
    nodes = list(nodes)
    return MarkedTree(
        tree,
        window,
        np.array([e for e, _, _ in edges], dtype=np.int64),
        np.array([o for _, o, _ in edges], dtype=float),
        np.array([tm for _, _, tm in edges], dtype=float),
        np.array([i for i, _ in nodes], dtype=np.int64),
        np.array([tm for _, tm in nodes], dtype=float),
    )


# -- definition traces ---------------------------------------------------------


def test_single_midedge_mark_trace():
    mt = marked(single_edge(2.0), (0.0, 2.0), edges=[(1, 1.0, 1.0)])
    assert_same_tree(pruned(mt, 0.5), mt.base)
    late = pruned(mt, 2.0)
    assert len(late) == 2
    assert late.depth.max() == 1.0
    assert late.delta[1] == 0.0 and not has_child(late)[1]
    assert late.mu.sum() == 0.0  # the atom sat above the cut


def test_prune_at_window_start_is_identity():
    mt = marked(single_edge(), (0.0, 2.0), edges=[(1, 1.0, 1.0)])
    assert_same_tree(pruned(mt, 0.0), mt.base)


def test_node_mark_keeps_node_childless():
    t = build(
        [-1, 0, 1, 1, 1],
        [0.0, 1.0, 0.5, 0.5, 0.5],
        deltas=[0.0, 2.0, 0.0, 0.0, 0.0],
        mus=[0.0, 0.0, 0.1, 0.2, 0.3],
    )
    mt = marked(t, (0.0, 1.0), nodes=[(1, 0.7)])
    before = pruned(mt, 0.5)
    assert len(before) == 5
    after = pruned(mt, 1.0)
    assert len(after) == 2
    # the closed node keeps its size and has no child
    assert after.delta[1] == 2.0 and not has_child(after)[1]
    assert after.mu.sum() == 0.0
    assert after.depth.max() == 1.0


def test_lowest_mark_wins_on_an_edge():
    mt = marked(
        single_edge(2.0), (0.0, 3.0),
        edges=[(1, 1.5, 0.5), (1, 0.25, 2.5), (1, 1.0, 1.0)])
    assert pruned(mt, 0.75).depth.max() == 1.5
    assert pruned(mt, 1.5).depth.max() == 1.0
    assert pruned(mt, 3.0).depth.max() == 0.25


def test_mark_below_node_removes_whole_subtree():
    # cherry: mark on the trunk ends everything above it
    t = build(
        [-1, 0, 1, 1],
        [0.0, 1.0, 1.0, 2.0],
        mus=[0.0, 0.0, 0.5, 0.25],
    )
    mt = marked(t, (0.0, 1.0), edges=[(1, 0.5, 0.8)])
    out = pruned(mt, 0.9)
    assert len(out) == 2
    assert out.depth.max() == 0.5


def test_root_is_immune():
    mt = marked(single_edge(), (0.0, 1.0), edges=[(1, 0.5, 0.1), (1, 0.9, 0.2)])
    out = pruned(mt, 1.0)
    assert out.parent[0] == -1
    assert len(out) == 2


def test_sigma_path_monotone_and_exit_time():
    t = build(
        [-1, 0, 1, 1],
        [0.0, 1.0, 1.0, 2.0],
        mus=[0.0, 0.0, 0.5, 0.25],
    )
    mt = marked(
        t, (0.0, 2.0),
        edges=[(3, 1.5, 0.5), (2, 0.5, 1.2), (1, 0.25, 1.8)])
    qs = np.array([0.0, 0.4, 1.0, 1.5, 2.0])
    reads = [mt.read(q) for q in qs]
    sigma = np.array([r.mass[0] for r in reads])
    height = np.array([r.height[0] for r in reads])
    np.testing.assert_allclose(sigma, [0.75, 0.75, 0.5, 0.0, 0.0])
    np.testing.assert_allclose(height, [3.0, 3.0, 2.5, 2.5, 0.25])
    assert sigma[0] == t.mu.sum()
    # exit time at h: the last grid time whose pruned tree still exceeds h
    for h, exit_q in ((2.1, 1.5), (0.5, 1.5), (0.2, 2.0), (5.0, None)):
        above = qs[height > h]
        assert (above[-1] if len(above) else None) == exit_q


def test_pruned_trees_nest_along_the_grid():
    sch = GwScheme.build(Mechanism(0.0, 1.0, (PointMass(0.8, 1.0),)), 25)
    stream = RngStream(7)
    for k in range(10):
        tree = gw_tree(sch, stream.replicate(k), height_cap=1.0)
        mt = generate_marks(tree, SHIFT, (0.0, 2.0), stream.child(1).replicate(k))
        qs = np.linspace(0.0, 2.0, 9)
        reads = [mt.read(q) for q in qs]
        assert np.all(np.diff([r.mass[0] for r in reads]) <= 1e-15)
        assert np.all(np.diff([r.height[0] for r in reads]) <= 1e-15)
        sizes = [len(pruned(mt, q)) for q in qs]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


# -- kill times against the node-by-node sweep ------------------------------------


def cut_reference(mt, q):
    """Nodes pruning at q removes, by one top-down sweep over the nodes."""
    par = mt.base.parent
    hit = np.zeros(len(par), dtype=bool)
    hit[mt.edge_ids[mt.times <= q]] = True
    marked_node = np.zeros(len(par), dtype=bool)
    marked_node[mt.node_ids[mt.node_times <= q]] = True
    cut = np.zeros(len(par), dtype=bool)
    for i in range(1, len(par)):
        p = par[i]
        cut[i] = cut[p] or marked_node[p] or hit[i]
    return cut, hit, marked_node


def pruned_at_reference(mt, q):
    """Pruning at q from the sweep's cut mask, stubs at the lowest live mark."""
    base = mt.base
    par = base.parent
    cut, hit, marked_node = cut_reference(mt, q)
    live = mt.times <= q
    edge_first = np.full(len(par), np.inf)
    np.minimum.at(edge_first, mt.edge_ids[live], mt.offsets[live])
    keep = ~cut
    remap = np.cumsum(keep) - 1
    kept = np.flatnonzero(keep)
    stub = np.zeros(len(par), dtype=bool)
    stub[1:] = hit[1:] & keep[par[1:]] & ~marked_node[par[1:]]
    stubs = np.flatnonzero(stub)
    return FiniteTree(
        np.concatenate([np.where(kept == 0, -1, remap[np.maximum(par[kept], 0)]),
                        remap[par[stubs]]]),
        np.concatenate([base.length[kept], edge_first[stubs]]),
        np.concatenate([base.delta[kept], np.zeros(len(stubs))]),
        np.concatenate([base.mu[kept], np.zeros(len(stubs))]),
    )


def random_marked_tree(fam, seed, q_max=2.0, min_nodes=30):
    """A marked GW tree of psi_0 with at least min_nodes nodes (first of
    50 draws that has them); node marks appear for jump families."""
    sch = GwScheme.build(fam.psi_at(0.0), 40)
    rng = RngStream(seed).replicate(0)
    for _ in range(50):
        tree = gw_tree(sch, rng, height_cap=1.0)
        if len(tree) >= min_nodes:
            break
    return generate_marks(tree, fam, (0.0, q_max), rng)


def probe_times(mt, rng):
    """Window ends, points inside, and the mark times themselves (ties)."""
    t, t_max = mt.window
    inside = rng.uniform(t, t_max, 3)
    own = np.concatenate([mt.times, mt.node_times])
    return np.concatenate([[t, t_max], inside, own[:6]])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), fam=st.sampled_from([LD, SHIFT, JUMPY]))
def test_pruned_at_matches_the_node_sweep(seed, fam):
    mt = random_marked_tree(fam, seed)
    label = np.arange(len(mt.base))
    for q in probe_times(mt, np.random.default_rng(seed)):
        got, got_label = mt.pruned(q, label)
        want = pruned_at_reference(mt, q)
        assert_same_tree(got, want)
        # a kept node keeps its label, a stub takes that of the edge it cuts
        keep = ~cut_reference(mt, q)[0]
        n_kept = int(keep.sum())
        np.testing.assert_array_equal(got_label[:n_kept], label[keep])
        cut_edges = got_label[n_kept:]
        assert not keep[cut_edges].any()
        np.testing.assert_array_equal(got_label[got.parent[n_kept:]], mt.base.parent[cut_edges])
        # a closed node keeps its delta > 0 and loses every child
        shut = mt.cuts_at(q)[3]
        at = (np.cumsum(keep) - 1)[shut]
        np.testing.assert_array_equal(got.delta[at], mt.base.delta[shut])
        assert np.all(got.delta[at] > 0) and not has_child(got)[at].any()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), fam=st.sampled_from([LD, SHIFT, JUMPY]))
def test_kill_times_are_the_first_pruning_time(seed, fam):
    mt = random_marked_tree(fam, seed)
    assert mt.kill_times[0] == math.inf
    for q in probe_times(mt, np.random.default_rng(seed)):
        np.testing.assert_array_equal(mt.kill_times <= q, cut_reference(mt, q)[0])


def test_kill_times_on_a_hand_marked_tree():
    # root - 1 (infinite) - {2, 3, 4}; node 3 carries an edge mark
    t = build(
        [-1, 0, 1, 1, 1],
        [0.0, 1.0, 0.5, 0.5, 0.5],
        deltas=[0.0, 2.0, 0.0, 0.0, 0.0],
    )
    mt = marked(t, (0.0, 1.0), edges=[(3, 0.25, 0.3), (1, 0.5, 0.9)], nodes=[(1, 0.6)])
    np.testing.assert_array_equal(mt.kill_times, [math.inf, 0.9, 0.6, 0.3, 0.6])


def kill_times_reference(mt):
    """Kill times by pointer jumping over every node: each round takes the
    minimum with the node 2^k generations up."""
    par = mt.base.parent
    kill = np.full(len(par), np.inf)
    node = np.full(len(par), np.inf)
    np.minimum.at(kill, mt.edge_ids, mt.times)
    np.minimum.at(node, mt.node_ids, mt.node_times)
    kill[1:] = np.minimum(kill[1:], node[par[1:]])
    kill[0] = np.inf
    anc = np.maximum(par, 0)
    while anc.any():
        kill = np.minimum(kill, kill[anc])
        anc = anc[anc]
    return kill


# name -> (scheme whose trees are grown, family that marks them)
KILL_SCHEMES = {
    "quadratic": (lambda: GwScheme.build(LD.psi_at(0.0), 40), LD),
    "shift": (lambda: GwScheme.build(SHIFT.psi_at(0.0), 40), SHIFT),
    "gamma": (lambda: GwScheme.build(Mechanism(0.0, 0.5, (GammaDensity(1.5, 2.0, 0.6),)), 40),
              JUMPY),
}


def kill_times_twins(tree, fam, seed):
    """The kill times of tree marked over (0, 1.5), and the reference's."""
    mt = generate_marks(tree, fam, (0.0, 1.5), RngStream(seed).replicate(1))
    return mt.kill_times, kill_times_reference(mt)


@pytest.mark.parametrize("width", [0, prune.SWEEP_WIDTH, math.inf], ids=["sweep", "default", "jump"])
@pytest.mark.parametrize("name", sorted(KILL_SCHEMES))
@pytest.mark.parametrize("cap", [0.5, "aligned"])
def test_kill_times_of_grown_forests_match_pointer_jumping(monkeypatch, width, name, cap):
    monkeypatch.setattr(prune, "SWEEP_WIDTH", width)
    make, fam = KILL_SCHEMES[name]
    scheme = make()
    if cap == "aligned":
        cap = math.floor(0.4 * scheme.gamma) / scheme.gamma  # a generation boundary
    swept = 0
    for k in range(6):
        tree = gw_forest(scheme, RngStream(70 + k).replicate(0), 30 * (k + 1), cap)[0]
        got, want = kill_times_twins(tree, fam, 70 + k)
        assert np.array_equal(got, want) and not got.flags.writeable
        swept += prune._sweeps_generations(tree)
    if width == 0:
        assert swept == 6
    elif width == math.inf:
        assert swept == 0
    else:  # the default sweeps the wider forests only
        assert 0 < swept < 6


@pytest.mark.parametrize("width", [0, prune.SWEEP_WIDTH, math.inf], ids=["sweep", "default", "jump"])
def test_kill_times_of_deep_excursions_match_pointer_jumping(monkeypatch, width):
    # the deepest of 300 critical one-excursion trees: 7 of them run 100 to
    # 320 generations, 4 of those fewer than 64 nodes wide on average
    monkeypatch.setattr(prune, "SWEEP_WIDTH", width)
    scheme = GwScheme.build(LD.psi_at(0.0), 20)
    deep = narrow = 0
    for k in range(300):
        tree = gw_tree(scheme, RngStream(80).replicate(k), height_cap=8.0)
        generations = len(tree.generations) - 1
        if generations < 100:
            continue
        deep += 1
        narrow += len(tree) - 1 < 64 * generations
        got, want = kill_times_twins(tree, LD, k)
        assert np.array_equal(got, want)
    assert deep == 7 and narrow == 4


def test_kill_times_of_spine_tiled_and_cut_trees_match_pointer_jumping():
    # trees with no generations keep pointer jumping
    for k in range(4):
        rng = RngStream(90).replicate(k)
        spine = spine_forest(JUMPY.psi_at(0.0), 1.0, rng, 30)[0]
        grown = gw_forest(GwScheme.build(JUMPY.psi_at(0.0), 30), rng, 40, 0.5)[0]
        cut = pruned(generate_marks(grown, JUMPY, (0.0, 0.5), rng), 0.5)
        for tree in (spine, grown.tiled(3)[0], cut, spine.tiled(2)[0]):
            assert tree.generations is None
            got, want = kill_times_twins(tree, JUMPY, k)
            assert np.array_equal(got, want)
            assert (got < np.inf).any()


@pytest.mark.parametrize("edges, nodes, first", [
    ([(3, 0.25, 0.3)], [(1, 0.6)], 3),
    ([(3, 0.25, 0.6)], [(1, 0.3)], 2),
])
def test_cuts_before_the_first_active_mark_keep_the_tree(edges, nodes, first):
    # before any mark is active, cuts_at keeps everything without kill times
    t = build(
        [-1, 0, 1, 1, 1],
        [0.0, 1.0, 0.5, 0.5, 0.5],
        deltas=[0.0, 2.0, 0.0, 0.0, 0.0],
    )
    mt = marked(t, (0.0, 1.0), edges=edges, nodes=nodes)
    for q in (0.0, 0.1, np.nextafter(0.3, 0.0)):
        keep, stubs, stub_lengths, closed = mt.cuts_at(q)
        np.testing.assert_array_equal(keep, np.ones(5, dtype=bool))
        assert stubs.dtype == closed.dtype == np.int64
        assert len(stubs) == len(stub_lengths) == len(closed) == 0
        assert_same_tree(pruned(mt, q), mt.base)
        assert "kill_times" not in mt.__dict__
    # the first active mark, on an edge or a node, switches to the full rule
    assert not mt.cuts_at(0.3)[0][first]
    for q in (-0.1, 1.5):
        with pytest.raises(DomainError):
            mt.cuts_at(q)
        with pytest.raises(DomainError):
            pruned(mt, q)
    bare = marked(single_edge(), (0.0, 2.0))
    assert_same_tree(pruned(bare, 2.0), bare.base)
    with pytest.raises(DomainError):
        pruned(bare, 2.5)


# -- mark-law marginals -----------------------------------------------------------


def test_skeleton_mark_count_mean():
    # rate alpha(0,3) = 3 on an edge of length 2
    rng = RngStream(11).replicate(0)
    t = single_edge(2.0)
    counts = np.array(
        [len(generate_marks(t, LD, (0.0, 3.0), rng)) for _ in range(3000)])
    assert LD.alpha(0.0, 3.0) == pytest.approx(3.0)
    se = counts.std() / math.sqrt(len(counts))
    assert abs(counts.mean() - 6.0) < 4 * se


def test_empty_window_has_no_marks():
    rng = RngStream(12).replicate(0)
    mt = generate_marks(single_edge(), LD, (1.0, 1.0), rng)
    assert len(mt) == 0
    assert len(mt.node_ids) == 0
    assert_same_tree(pruned(mt, 1.0), mt.base)


def test_mark_times_lie_in_window_and_positions_on_edges():
    rng = RngStream(13).replicate(0)
    t = build([-1, 0, 1], [0.0, 2.0, 3.0])
    mt = generate_marks(t, LD, (0.5, 2.5), rng)
    assert np.all((mt.times >= 0.5) & (mt.times <= 2.5))
    assert np.all(mt.offsets > 0.0)
    assert np.all(mt.offsets <= t.length[mt.edge_ids])


def test_node_unmark_frequency_matches_survival():
    # shift family: survival of a size-delta node over [0, q] is e^{-delta q}
    delta, q, reps = 1.0, 0.8, 4000
    t = build(
        [-1, 0, 1, 1, 1],
        [0.0, 1.0, 1.0, 1.0, 1.0],
        deltas=[0.0, delta, 0.0, 0.0, 0.0],
    )
    rng = RngStream(14).replicate(0)
    unmarked = 0
    for _ in range(reps):
        mt = generate_marks(t, SHIFT, (0.0, q), rng)
        unmarked += len(mt.node_ids) == 0
    p = unmarked / reps
    target = math.exp(-delta * q)
    assert SHIFT.node_survival(0.0, q, delta) == pytest.approx(target)
    se = math.sqrt(target * (1 - target) / reps)
    assert abs(p - target) < 4 * se


def test_binary_nodes_are_never_marked():
    sch = GwScheme.build(Mechanism(0.0, 1.0), 30)
    stream = RngStream(15)
    for k in range(20):
        tree = gw_tree(sch, stream.replicate(k), height_cap=1.0)
        mt = generate_marks(tree, SHIFT, (0.0, 3.0), stream.child(1).replicate(k))
        assert len(mt.node_ids) == 0  # quadratic tree has no many-child nodes


def test_marks_deterministic_per_replicate():
    t = single_edge(2.0)
    a = generate_marks(t, LD, (0.0, 2.0), RngStream(16).replicate(3))
    b = generate_marks(t, LD, (0.0, 2.0), RngStream(16).replicate(3))
    np.testing.assert_array_equal(a.offsets, b.offsets)
    np.testing.assert_array_equal(a.times, b.times)


def edge_count_moments(tree, fam, window, rng, draws):
    """Mean and variance over draws of each edge's skeleton mark count,
    and every offset over its edge's length."""
    total = np.zeros(len(tree))
    square = np.zeros(len(tree))
    share = []
    for _ in range(draws):
        mt = generate_marks(tree, fam, window, rng)
        counts = np.bincount(mt.edge_ids, minlength=len(tree))
        total += counts
        square += counts * counts
        share.append(mt.offsets / tree.length[mt.edge_ids])
    mean = total[1:] / draws
    var = (square[1:] - draws * mean * mean) / (draws - 1)
    return mean, var, np.concatenate(share)


@pytest.mark.parametrize("forest", [
    lambda rng: gw_forest(GwScheme.build(JUMPY.psi_at(0.0), 20), rng, 6, 0.5)[0],
    lambda rng: spine_forest(JUMPY.psi_at(0.0), 2.0, rng, 10)[0],
], ids=["grown", "spine"])
def test_skeleton_marks_are_poisson_on_every_edge(forest):
    # one Poisson total along the edges laid end to end, split by length:
    # each edge's count is Poisson(alpha * length), so its mean is that and
    # its variance-to-mean ratio 1 (var of the sample variance ~ lam + 2 lam^2)
    tree = forest(RngStream(61).replicate(0))
    window, draws = (0.0, 1.5), 20_000
    lam = JUMPY.alpha(*window) * tree.length[1:]
    mean, var, share = edge_count_moments(tree, JUMPY, window, RngStream(62).replicate(0), draws)
    assert np.all(np.abs(mean - lam) < 4.0 * np.sqrt(lam / draws))
    assert np.all(np.abs(var / lam - 1.0) < 4.0 * np.sqrt((1.0 / lam + 2.0) / draws))
    # offsets lie in (0, length], uniform on the edge
    assert np.all((share > 0.0) & (share <= 1.0))
    assert abs(share.mean() - 0.5) < 4.0 * math.sqrt(1.0 / 12.0 / len(share))


def test_skeleton_marks_past_the_node_budget_raise(monkeypatch):
    # a long spine of one edge: no draw at all once the expected count
    # passes the budget, numpy's own Poisson limit (about 9.2e18) included
    for h in (1e8, 1e20):
        spine = spine_forest(LD.psi_at(0.0), h, RngStream(63).replicate(0), 1)[0]
        assert len(spine) == 2 and LD.alpha(0.0, 3.0) * h > prune.NODE_BUDGET
        rng = RngStream(63).replicate(1)
        with pytest.raises(NumericError, match="node budget"):
            generate_marks(spine, LD, (0.0, 3.0), rng)
        assert rng.random() == RngStream(63).replicate(1).random()
    # a total past the budget raises after its one Poisson draw, before any position
    monkeypatch.setattr(prune, "NODE_BUDGET", 100)
    edge = single_edge(33.0)
    raised = 0
    for k in range(60):
        rng, twin = RngStream(64).replicate(k), RngStream(64).replicate(k)
        total = twin.poisson(3.0 * 33.0)
        if total > 100:
            with pytest.raises(NumericError, match="node budget"):
                generate_marks(edge, LD, (0.0, 3.0), rng)
            assert rng.random() == twin.random()
            raised += 1
        else:
            assert len(generate_marks(edge, LD, (0.0, 3.0), rng)) == total
    assert 0 < raised < 60


def test_window_outside_family_domain_rejected():
    with pytest.raises(DomainError):
        generate_marks(single_edge(), SHIFT, (-1.0, 0.5), RngStream(1).replicate(0))


def test_bad_mark_windows_raise_the_family_messages():
    # generate_marks checks nothing itself: fam.alpha rejects the window
    cases = [((0.5, 0.2), r"need t <= q, got t=0.5 > q=0.2"),
             ((-1.0, 0.5), r"t=-1.0 outside window \[-0.5, 3.0\]"),
             ((0.0, 4.0), r"q=4.0 outside window \[-0.5, 3.0\]"),
             ((math.nan, 1.0), r"t=nan outside window \[-0.5, 3.0\]"),
             ((0.0, math.nan), r"q=nan outside window \[-0.5, 3.0\]")]
    for window, message in cases:
        with pytest.raises(DomainError, match=f"^{message}$"):
            generate_marks(single_edge(), SHIFT, window, RngStream(1).replicate(0))


# -- markov two-step ---------------------------------------------------------------


def test_survival_cocycle_exact():
    for delta in (0.5, 1.0, 2.5):
        full = SHIFT.node_survival(0.0, 1.0, delta)
        split = (SHIFT.node_survival(0.0, 0.4, delta)
                 * SHIFT.node_survival(0.4, 1.0, delta))
        assert full == pytest.approx(split, rel=1e-15)
    assert LD.alpha(0.0, 0.5) + LD.alpha(0.5, 1.0) == pytest.approx(
        LD.alpha(0.0, 1.0))


def worst_z(stats):
    """Largest |one-pass mean - two-pass mean| / se over the statistics."""
    return max(abs(one - two) / se if se > 0 else 0.0 if one == two else math.inf
               for one, two, se in stats.values())


def test_two_step_consistency_quadratic():
    sch = GwScheme.build(Mechanism(0.0, 1.0), 40)
    tree = gw_tree(sch, RngStream(17).replicate(0), height_cap=1.5)
    stats = two_step_consistency(
        tree, LD, 0.0, 0.5, 1.0, RngStream(18).replicate(0), 800)
    assert worst_z(stats) < 4.0, stats


def test_two_step_consistency_with_node_marks(monkeypatch):
    # SHIFT marks the many-child node (delta = 1) in the window (0, 1) with
    # probability about 0.63, cutting a binary subtree and two leaves
    tree = build([-1, 0, 1, 1, 1, 2, 2], [0.0, 0.4, 0.3, 0.5, 0.6, 0.2, 0.3],
                 deltas=[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                 mus=[0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4])
    assert (tree.delta > 0).any()
    node_marks = []

    def counted(*args):
        marked = generate_marks(*args)
        node_marks.append(len(marked.node_ids))
        return marked

    monkeypatch.setattr(prune, "generate_marks", counted)
    stats = two_step_consistency(
        tree, SHIFT, 0.0, 0.5, 1.0, RngStream(20).replicate(0), 800)
    assert sum(node_marks) > 0
    assert set(stats) == {"sigma", "height", "nodes"}
    assert worst_z(stats) < 4.0, stats


def test_two_step_rejects_unordered_times():
    with pytest.raises(DomainError):
        two_step_consistency(
            single_edge(), LD, 0.0, 2.0, 1.0, RngStream(1).replicate(0), 10)
