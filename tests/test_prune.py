"""Pruning tests: definition traces on hand-marked trees, mark-law
marginals against the family formulas, and the Markov two-step check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levytree import prune
from levytree.family import LinearDriftFamily, ShiftFamily
from levytree.mechanism import DomainError, Mechanism, PointMass
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


class PerEdgeRates:
    """A generator whose poisson takes one rate per draw, as an array, and
    records whether it was handed a scalar rate."""

    def __init__(self, rng):
        self.rng, self.scalar_rates = rng, []

    def poisson(self, lam, size=None):
        self.scalar_rates.append(np.ndim(lam) == 0)
        return self.rng.poisson(np.broadcast_to(lam, size if size is not None else np.shape(lam)))

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("forest, scalar", [
    (lambda rng: gw_forest(GwScheme.build(JUMPY.psi_at(0.0), 50), rng, 200, 0.5)[0], True),
    (lambda rng: spine_forest(JUMPY.psi_at(0.0), 2.0, rng, 200)[0], False),
])
def test_equal_edges_draw_the_marks_of_one_rate_per_edge(forest, scalar):
    # a grown forest's edges are all 1/gamma long and take one scalar rate;
    # spine edges differ and keep one rate each
    tree = forest(RngStream(61).replicate(0))
    fast, slow = RngStream(62).replicate(0), PerEdgeRates(RngStream(62).replicate(0))
    got = generate_marks(tree, JUMPY, (0.0, 1.5), fast)
    want = generate_marks(tree, JUMPY, (0.0, 1.5), slow)
    assert slow.scalar_rates == [scalar] and len(got) > 0
    for name in ("edge_ids", "offsets", "times", "node_ids", "node_times"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    np.testing.assert_array_equal(fast.random(7), slow.rng.random(7))


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
