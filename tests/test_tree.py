"""Structural tests for finite measured trees.

The four-array format is checked against tiny hand-built trees whose
heights and masses are read by eye, grown trees against their edge-length
mass, tiling against the tree it copies, and validation against one input
per rule.
"""

import math

import numpy as np
import pytest

from levytree import tree as trees
from levytree.mechanism import DomainError, Mechanism, PointMass
from levytree.sampler import GwScheme, RngStream, gw_forest, gw_tree, spine_forest
from levytree.tree import FiniteTree, path_min


def build(parents, lengths, deltas=None, mus=None):
    n = len(parents)
    return FiniteTree(
        np.array(parents, dtype=np.int64),
        np.array(lengths, dtype=float),
        np.zeros(n) if deltas is None else np.array(deltas, dtype=float),
        np.zeros(n) if mus is None else np.array(mus, dtype=float),
    )


def single_edge(length=2.0, mu=0.0):
    return build([-1, 0], [0.0, length], mus=[0.0, mu])


def cherry():
    # root -1- binary -1- leaf(mu=.5) / -2- leaf(mu=.25)
    return build(
        [-1, 0, 1, 1],
        [0.0, 1.0, 1.0, 2.0],
        mus=[0.0, 0.0, 0.5, 0.25],
    )


def random_tree(rng, n_nodes=40):
    """Random topology: a positive delta on nodes of one or three or more
    children, mass on most leaves."""
    parents = [-1]
    for i in range(1, n_nodes):
        parents.append(int(rng.integers(0, i)))
    counts = np.zeros(n_nodes, dtype=int)
    for p in parents[1:]:
        counts[p] += 1
    deltas, mus = [0.0], [0.0]
    for i in range(1, n_nodes):
        if counts[i] == 0:
            deltas.append(0.0)
            mus.append(float(rng.random() < 0.8) * float(rng.exponential(0.3)))
        elif counts[i] == 2:
            deltas.append(0.0)
            mus.append(0.0)
        else:
            deltas.append(float(rng.exponential(1.0)) + 0.05)
            mus.append(0.0)
    lengths = [0.0] + list(rng.exponential(0.7, n_nodes - 1) + 1e-3)
    return build(parents, lengths, deltas, mus)


# -- basic statistics ------------------------------------------------------


def test_height_and_mass_of_cherry():
    t = cherry()
    assert t.depth.max() == 3.0
    assert t.mu.sum() == 0.75
    assert len(t) == 4


def test_integral_of_level_mass_is_edge_length_mass():
    # an individual is an edge of length 1/gamma and mass 1/(n gamma), so the
    # level mass Z_a = (edges crossing a) / n integrates to the leaf atoms
    sch = GwScheme.build(Mechanism(1.0, 1.0), 20)
    for k in range(20):
        t = gw_tree(sch, RngStream(4).replicate(k), height_cap=1.0)
        assert t.mu.sum() == pytest.approx(t.length.sum() / sch.n, rel=1e-12)


# -- tiling -------------------------------------------------------------------


def test_tiled_copies_keep_each_copy_whole():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = random_tree(rng)
        forest, label = t.tiled(3)
        m = len(t) - 1
        assert len(forest) == 1 + 3 * m
        np.testing.assert_array_equal(label, np.concatenate([[-1], np.arange(3).repeat(m)]))
        for k in range(3):
            nodes = 1 + k * m + np.arange(m)
            np.testing.assert_array_equal(forest.parent[nodes], np.where(
                t.parent[1:] == 0, 0, t.parent[1:] + k * m))
            for col in ("length", "delta", "mu", "depth"):
                np.testing.assert_array_equal(getattr(forest, col)[nodes], getattr(t, col)[1:])
        assert forest.mu.sum() == pytest.approx(3 * t.mu.sum(), rel=1e-12)
    forest, label = single_edge().tiled(0)
    assert len(forest) == 1 and label.tolist() == [-1]


# -- root-path minima ----------------------------------------------------------------


def path_min_reference(tree, values):
    """The least value on each root path, one node at a time in node order."""
    out = np.array(values)
    for i in range(1, len(out)):
        out[i] = min(out[i], out[tree.parent[i]])
    return out


def path_min_trees():
    """Hand-built, tiled, spine, cut and grown trees, the grown ones being
    three wide forests and three critical excursions 320, 144 and 103
    generations deep, 198, 33 and 26 nodes wide on average."""
    rng = np.random.default_rng(5)
    hand = [cherry(), single_edge(), build([-1], [0.0])] + [random_tree(rng) for _ in range(3)]
    tiled = [t.tiled(3)[0] for t in hand[3:]]
    spines = [spine_forest(Mechanism(0.0, 1.0, (PointMass(1.0, 2.0),)), 2.0,
                           RngStream(6).replicate(k), 5)[0] for k in range(3)]
    quad = GwScheme.build(Mechanism(0.0, 1.0), 20)
    wide = [gw_forest(quad, RngStream(7).replicate(k), 200, height_cap=1.0)[0] for k in range(3)]
    deep = [gw_tree(quad, RngStream(80).replicate(k), height_cap=8.0) for k in (65, 234, 299)]
    cut = []
    for t in wide + spines:
        keep = t.depth <= 0.5 * t.depth.max()
        stubs = np.flatnonzero(~keep & keep[np.maximum(t.parent, 0)])
        cut.append(t.cut(keep, stubs, 0.5 * t.length[stubs]))
    assert [len(t.generations) - 1 for t in deep] == [320, 144, 103]
    return hand + tiled + spines + cut + wide + deep


@pytest.mark.parametrize("width", [0, trees.SWEEP_WIDTH, math.inf], ids=["sweep", "default", "jump"])
def test_path_min_matches_the_node_sweep(monkeypatch, width):
    monkeypatch.setattr(trees, "SWEEP_WIDTH", width)
    rng = np.random.default_rng(8)
    swept = grown = 0
    for t in path_min_trees():
        n = len(t)
        # ties, infinities and integers, as kill times and labels have
        floats = np.where(rng.random(n) < 0.3, np.inf, rng.integers(0, 20, n).astype(float))
        for values in (floats, rng.permutation(n), rng.random(n)):
            want = path_min_reference(t, values)
            assert path_min(t, values) is values
            np.testing.assert_array_equal(values, want)
        grown += t.generations is not None
        swept += trees._sweeps_generations(t)
    assert grown == 6
    if width == 0:
        assert swept == 6
    elif width == math.inf:
        assert swept == 0
    else:  # the default sweeps the forests and the widest excursion
        assert swept == 4


# -- validation ----------------------------------------------------------------------


def test_constructor_rejects_bad_shapes():
    with pytest.raises(DomainError):
        build([-1, 0], [0.0, 0.0])  # zero edge length
    with pytest.raises(DomainError):
        build([-1, 1], [0.0, 1.0])  # parent not below child
    with pytest.raises(DomainError):
        build([-1, 0, 1], [0.0, 1.0, 1.0], mus=[0.0, 1.0, 0.0])  # mass off-leaf
    with pytest.raises(DomainError):
        build([-1, 0], [0.0, 1.0], deltas=[0.0, -1.0])  # negative node size


def test_delta_only_on_infinite_nodes():
    # delta > 0 is what makes a node of infinite degree, which the root never is
    with pytest.raises(DomainError):
        build([-1, 0], [0.0, 1.0], deltas=[1.0, 0.0])
    t = build([-1, 0, 1], [0.0, 1.0, 1.0], deltas=[0.0, 2.5, 0.0])
    assert t.delta[1] == 2.5
    np.testing.assert_array_equal(np.flatnonzero(t.delta > 0), [1])


@pytest.mark.parametrize("args, message", [
    (([-1, 0], [0.0]), "nonempty and of equal length"),
    (([], []), "nonempty and of equal length"),
    (([0, 0], [0.0, 1.0]), "node 0 must be the root"),
    (([-1, 0], [0.0, 1.0], [0.5, 0.0]), "node 0 must be the root"),
    (([-1, 0], [0.5, 1.0]), "node 0 must be the root"),
    (([-1, 1], [0.0, 1.0]), "topologically ordered"),
    (([-1, -1], [0.0, 1.0]), "topologically ordered"),
    (([-1, 0], [0.0, 0.0]), "edge lengths must be positive"),
    (([-1, 0], [0.0, 1.0], [0.0, -1.0]), "node sizes delta must be nonnegative"),
    (([-1, 0], [0.0, 1.0], [0.0, math.nan]), "node sizes delta must be nonnegative"),
    (([-1, 0], [0.0, 1.0], None, [1.0, 0.0]), "mass atoms live on leaves"),
    (([-1, 0, 1], [0.0, 1.0, 1.0], None, [0.0, 1.0, 0.0]), "mass atoms live on leaves"),
    (([-1, 0], [0.0, 1.0], None, [0.0, -1.0]), "mass atoms live on leaves"),
])
def test_every_validation_message_has_an_input(args, message):
    with pytest.raises(DomainError, match=message):
        build(*args)
