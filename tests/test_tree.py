"""Structural tests for finite measured trees.

Statistics are checked against tiny hand-built trees whose heights, masses
and crossing counts are computed by eye, and tiling against the tree it
copies.
"""

import math

import numpy as np
import pytest

from levytree.mechanism import DomainError
from levytree.tree import BINARY, INFINITE, LEAF, ROOT, FiniteTree


def build(parents, lengths, kinds, deltas=None, mus=None, scale=1.0):
    n = len(parents)
    return FiniteTree(
        np.array(parents, dtype=np.int64),
        np.array(lengths, dtype=float),
        np.array(kinds, dtype=np.int8),
        np.zeros(n) if deltas is None else np.array(deltas, dtype=float),
        np.zeros(n) if mus is None else np.array(mus, dtype=float),
        scale,
    )


def single_edge(length=2.0, mu=0.0, scale=1.0):
    return build([-1, 0], [0.0, length], [ROOT, LEAF], mus=[0.0, mu], scale=scale)


def cherry():
    # root -1- binary -1- leaf(mu=.5) / -2- leaf(mu=.25)
    return build(
        [-1, 0, 1, 1],
        [0.0, 1.0, 1.0, 2.0],
        [ROOT, BINARY, LEAF, LEAF],
        mus=[0.0, 0.0, 0.5, 0.25],
    )


def random_tree(rng, n_nodes=40, scale=0.5):
    """Random topology with kinds consistent with child counts."""
    parents = [-1]
    for i in range(1, n_nodes):
        parents.append(int(rng.integers(0, i)))
    counts = np.zeros(n_nodes, dtype=int)
    for p in parents[1:]:
        counts[p] += 1
    kinds, deltas, mus = [ROOT], [0.0], [0.0]
    for i in range(1, n_nodes):
        if counts[i] == 0:
            kinds.append(LEAF)
            deltas.append(0.0)
            mus.append(float(rng.random() < 0.8) * float(rng.exponential(0.3)))
        elif counts[i] == 2:
            kinds.append(BINARY)
            deltas.append(0.0)
            mus.append(0.0)
        else:
            kinds.append(INFINITE)
            deltas.append(float(rng.exponential(1.0)) + 0.05)
            mus.append(0.0)
    lengths = [0.0] + list(rng.exponential(0.7, n_nodes - 1) + 1e-3)
    return build(parents, lengths, kinds, deltas, mus, scale)


# -- basic statistics ------------------------------------------------------


def test_height_and_mass_of_cherry():
    t = cherry()
    assert t.height() == 3.0
    assert t.total_mass() == 0.75
    assert len(t) == 4


def test_level_mass_single_edge():
    t = single_edge(length=2.0, scale=0.3)
    assert t.level_mass(1.0) == pytest.approx(0.3)
    assert t.level_mass(2.0) == pytest.approx(0.3)
    assert t.level_mass(2.0000001) == 0.0
    assert t.level_mass(0.0) == 0.0


def test_level_mass_root_only():
    t = build([-1], [0.0], [ROOT])
    assert t.level_mass(0.5) == 0.0
    assert t.height() == 0.0
    assert t.total_mass() == 0.0


def test_level_mass_counts_crossings():
    t = cherry()
    assert t.level_mass(0.5) == 1.0
    assert t.level_mass(1.5) == 2.0
    assert t.level_mass(2.5) == 1.0


def test_integral_of_level_mass_is_edge_length_mass():
    # leaves carry scale * (chain length) so total mass equals the integral
    t = build(
        [-1, 0, 1, 1],
        [0.0, 1.0, 1.0, 2.0],
        [ROOT, BINARY, LEAF, LEAF],
        mus=[0.0, 0.0, 2.0 * 0.5, 2.0 * 0.5],
        scale=0.5,
    )
    delta = 1e-3
    grid = np.arange(delta, t.height() + delta, delta)
    approx = sum(t.level_mass(a) for a in grid) * delta
    crossings_bound = 2.0
    assert abs(approx - t.total_mass()) <= 2.0 * delta * crossings_bound


def test_negative_level_rejected():
    with pytest.raises(DomainError):
        cherry().level_mass(-0.1)


# -- tiling -------------------------------------------------------------------


def test_tiled_copies_keep_each_copy_whole():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = random_tree(rng)
        forest, label = t.tiled(3)
        m = len(t) - 1
        assert len(forest) == 1 + 3 * m and forest.scale == t.scale
        np.testing.assert_array_equal(label, np.concatenate([[-1], np.arange(3).repeat(m)]))
        for k in range(3):
            nodes = 1 + k * m + np.arange(m)
            np.testing.assert_array_equal(forest.parent[nodes], np.where(
                t.parent[1:] == 0, 0, t.parent[1:] + k * m))
            for col in ("length", "kind", "delta", "mu", "depth"):
                np.testing.assert_array_equal(getattr(forest, col)[nodes], getattr(t, col)[1:])
        assert forest.total_mass() == pytest.approx(3 * t.total_mass(), rel=1e-12)
    forest, label = single_edge().tiled(0)
    assert len(forest) == 1 and label.tolist() == [-1]


# -- validation ----------------------------------------------------------------------


def test_constructor_rejects_bad_shapes():
    with pytest.raises(DomainError):
        build([-1, 0], [0.0, 0.0], [ROOT, LEAF])  # zero edge length
    with pytest.raises(DomainError):
        build([-1, 1], [0.0, 1.0], [ROOT, LEAF])  # parent not below child
    with pytest.raises(DomainError):
        build([-1, 0], [0.0, 1.0], [ROOT, ROOT])  # two roots
    with pytest.raises(DomainError):
        build([-1, 0], [0.0, 1.0], [ROOT, BINARY], mus=[0.0, 1.0])  # mass off-leaf
    with pytest.raises(DomainError):
        build([-1, 0], [0.0, 1.0], [ROOT, INFINITE])  # infinite node needs delta
    with pytest.raises(DomainError):
        build([-1, 0], [0.0, 1.0], [ROOT, LEAF], scale=0.0)


def test_delta_only_on_infinite_nodes():
    with pytest.raises(DomainError):
        build([-1, 0], [0.0, 1.0], [ROOT, LEAF], deltas=[0.0, 1.0])
    t = build([-1, 0, 1], [0.0, 1.0, 1.0], [ROOT, INFINITE, LEAF], deltas=[0.0, 2.5, 0.0])
    assert t.delta[1] == 2.5


@pytest.mark.parametrize("args, message", [
    (([-1, 0], [0.0], [ROOT, LEAF]), "nonempty and of equal length"),
    (([], [], []), "nonempty and of equal length"),
    (([0, 0], [0.0, 1.0], [ROOT, LEAF]), "node 0 must be the root"),
    (([-1, 0], [0.0, 1.0], [LEAF, LEAF]), "node 0 must be the root"),
    (([-1, 0], [0.5, 1.0], [ROOT, LEAF]), "node 0 must be the root"),
    (([-1, 1], [0.0, 1.0], [ROOT, LEAF]), "topologically ordered"),
    (([-1, -1], [0.0, 1.0], [ROOT, LEAF]), "topologically ordered"),
    (([-1, 0], [0.0, 0.0], [ROOT, LEAF]), "edge lengths must be positive"),
    (([-1, 0], [0.0, 1.0], [ROOT, ROOT]), "more than one root"),
    (([-1, 0], [0.0, 1.0], [ROOT, INFINITE]), "infinite nodes need a positive delta"),
    (([-1, 0], [0.0, 1.0], [ROOT, LEAF], [0.0, 1.0]), "delta lives on infinite nodes"),
    (([-1, 0], [0.0, 1.0], [ROOT, BINARY], None, [0.0, 1.0]), "mass atoms live on leaves"),
    (([-1, 0], [0.0, 1.0], [ROOT, LEAF], None, [0.0, -1.0]), "mass atoms live on leaves"),
    (([-1, 0], [0.0, 1.0], [ROOT, LEAF], None, None, 0.0), "need scale > 0"),
])
def test_every_validation_message_has_an_input(args, message):
    with pytest.raises(DomainError, match=message):
        build(*args)
