"""Structural tests for finite measured trees.

Restriction is checked against the tree it came from (level masses below
the cut and the atoms at or below it survive exactly) and, like grafting,
against tiny hand-built trees whose heights, masses and crossing counts are
computed by eye.
"""

import math

import numpy as np
import pytest

from levytree.mechanism import DomainError
from levytree.tree import BINARY, INFINITE, LEAF, ROOT, FiniteTree, single_root


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
    t = single_root()
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


# -- restriction --------------------------------------------------------------


def test_restrict_above_height_is_identity():
    t = cherry()
    assert t.restrict_below(10.0) is t


def test_restrict_to_zero_keeps_root_only():
    t = cherry().restrict_below(0.0)
    assert len(t) == 1
    assert t.height() == 0.0


def test_restrict_truncates_single_edge():
    t = single_edge(length=2.0).restrict_below(1.0)
    assert len(t) == 2
    assert t.height() == 1.0
    assert t.kind[1] == LEAF
    assert t.mu[1] == 0.0
    assert t.total_mass() == 0.0


def test_restrict_height_clips():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = random_tree(rng)
        a = float(rng.uniform(0.0, t.height() * 1.2))
        below = t.restrict_below(a)
        assert below.height() == pytest.approx(min(a, t.height()), abs=1e-12)
        for b in rng.uniform(0.0, a, 10):
            assert below.level_mass(b) == t.level_mass(b)
        assert below.total_mass() == pytest.approx(t.mu[t.depth <= a].sum(), rel=1e-12)


def test_restrict_keeps_node_exactly_at_level():
    t = cherry().restrict_below(2.0)
    # leaf at depth 2 survives with its atom; the deeper leaf becomes a stub
    assert t.total_mass() == 0.5
    assert t.height() == 2.0
    kinds = sorted(int(k) for k in t.kind)
    assert kinds.count(LEAF) == 2
    # a branch point exactly at the level stays as a massless leaf, and
    # nothing above it does
    t = cherry().restrict_below(1.0)
    assert len(t) == 2 and t.kind[1] == LEAF
    assert t.delta[1] == 0.0 and t.mu[1] == 0.0


def test_restrict_ends_a_many_child_node_at_the_level():
    t = build([-1, 0, 1, 1, 1], [0.0, 1.0, 1.0, 1.0, 2.0],
              [ROOT, INFINITE, LEAF, LEAF, LEAF], deltas=[0.0, 1.5, 0.0, 0.0, 0.0],
              mus=[0.0, 0.0, 0.5, 0.25, 0.25])
    out = t.restrict_below(1.0)
    assert len(out) == 2 and out.kind[1] == LEAF
    assert out.delta[1] == 0.0 and out.total_mass() == 0.0
    # one level up the node keeps its children and its size
    out = t.restrict_below(1.5)
    assert out.kind[1] == INFINITE and out.delta[1] == 1.5


# -- grafting -----------------------------------------------------------------


def test_graft_nothing_is_identity():
    t = cherry()
    out = t.graft([])
    assert len(out) == len(t)
    assert out.height() == t.height()
    assert out.total_mass() == t.total_mass()
    np.testing.assert_allclose(sorted(out.depth), sorted(t.depth))


def test_graft_masses_add():
    t = cherry()
    sub = cherry()
    out = t.graft([(1, sub), (0, single_edge(length=1.0, mu=2.0))])
    assert out.total_mass() == 0.75 + 0.75 + 2.0
    assert len(out) == len(t) + 3 + 1
    assert out.height() == 4.0
    # appended in order, each sub's root fused with its attach node
    np.testing.assert_array_equal(out.depth[4:7], t.depth[1] + sub.depth[1:])
    assert out.depth[7] == 1.0


def test_graft_rejects_bad_points():
    t = cherry()
    sub = single_edge(1.0)
    with pytest.raises(DomainError):
        t.graft([(17, sub)])
    with pytest.raises(DomainError):
        t.graft([(-1, sub)])
    with pytest.raises(DomainError):
        single_edge().graft([(1, sub)])  # a massless leaf is still a leaf
    with pytest.raises(DomainError):
        # the branch point at level 1 has lost its children: no attach point
        t.restrict_below(1.0).graft([(1, sub)])


def test_graft_onto_massive_leaf_rejected():
    t = cherry()
    with pytest.raises(DomainError):
        t.graft([(2, single_edge(1.0))])


def test_graft_empty_sub_is_noop():
    t = cherry()
    out = t.graft([(1, single_root())])
    assert len(out) == len(t)
    assert out.height() == t.height()


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
