"""Depths and leaf atoms that tree builders hand down, checked bit for bit.

Galton-Watson growth (`_tree_from_growth`), `FiniteTree.cut` (so also
`MarkedTree.pruned`) and `FiniteTree.tiled` give a tree its depth and its
leaf atoms directly instead of running the loops kept here as the
reference.  Growth also hands down its generations and skips the checks of
`FiniteTree.__post_init__`, so its columns are compared with a tree built
through them; its leaf atoms wait for the first read of mu.  Equality is
`np.array_equal`, never closeness: depths sit on the 1/gamma level
lattice, where one ulp moves `height > a` and level-crossing readings, and
so the CSV bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levytree.family import LinearDriftFamily, ShiftFamily
from levytree.mechanism import Mechanism, PointMass
from levytree.prune import generate_marks
from levytree.sampler import (
    GwScheme,
    RngStream,
    _grow,
    _tree_from_growth,
    gw_forest,
    gw_tree,
    spine_forest,
)
from levytree.tree import FiniteTree

LD = LinearDriftFamily(1.0, 1.0)
# heavy atoms, so many-child nodes (and node marks) are common
JUMPY = ShiftFamily(Mechanism(0.0, 0.2, (PointMass(1.0, 4.0),)), (-0.5, 3.0))

# name -> (family whose marks prune the trees, scheme at resolution n)
SCHEMES = {
    "quadratic": (LD, lambda n: GwScheme.build(LD.psi_at(0.0), n)),
    "subcritical": (LD, lambda n: GwScheme.build(LD.psi_at(1.0), n)),
    "jump": (JUMPY, lambda n: GwScheme.build(JUMPY.psi_at(0.0), n)),
    # above the minimal rate, so one-child individuals occur
    "one-child": (LD, lambda n: GwScheme.build(LD.psi_at(0.0), n, gamma=3.0 * n)),
}


def loop_depth(tree):
    """The sequential reference: d[i] = length[i] + d[parent[i]] in node order."""
    d = tree.length.copy()
    for i in range(1, len(d)):
        d[i] += d[tree.parent[i]]
    return d


def loop_tree_from_growth(scheme, par, ks, offsets):
    """The reference growth builder: leaf atoms by a per-generation running
    count along first-child chains, arrays built first and the root slot
    concatenated on afterwards."""
    total = len(par)
    n, gamma = scheme.n, scheme.gamma
    delta = np.where(ks >= 3, ks / n, 0.0)
    is_first = np.zeros(total, dtype=bool)
    n0 = offsets[1]
    if total > n0:
        is_first[n0] = True
        is_first[n0 + 1:] = par[n0 + 1:] != par[n0:-1]
    contrib = np.ones(total)
    for lo, hi in zip(offsets[1:-1], offsets[2:]):
        block = slice(lo, hi)
        contrib[block] += np.where(is_first[block], contrib[par[block]], 0.0)
    mu = np.where(ks == 0, contrib * scheme.mass_unit, 0.0)
    return FiniteTree(np.concatenate([[-1], par + 1]),
                      np.concatenate([[0.0], np.full(total, 1.0 / gamma)]),
                      np.concatenate([[0.0], delta]),
                      np.concatenate([[0.0], mu]))


def pruned(marked, q):
    return marked.pruned(q, np.zeros(len(marked.base), dtype=np.int64))[0]


def assert_depth_handed_down(tree):
    """The tree arrived with a depth it did not compute, equal to the loop's."""
    assert "depth" in vars(tree)
    assert not tree.depth.flags.writeable
    assert np.array_equal(tree.depth, loop_depth(tree))


def grown_trees(name, n, cap, seed, count=8):
    """count single-ancestor trees and one forest of 1.5 n roots."""
    _, make = SCHEMES[name]
    scheme = make(n)
    if cap == "aligned":
        cap = math.floor(0.4 * scheme.gamma) / scheme.gamma  # a generation boundary
    stream = RngStream(seed, (n,))
    trees = [gw_tree(scheme, stream.replicate(k), height_cap=cap) for k in range(count)]
    trees.append(gw_forest(scheme, stream.replicate(count), int(1.5 * n), height_cap=cap)[0])
    return scheme, trees


# 0.5 and 1.0 sit on the 1/gamma level lattice of the quadratic (gamma = 2n)
# and one-child (gamma = 3n, n even) schemes, where a level crossing read at
# the cap itself is off by one ulp; "aligned" puts a cap on a generation boundary of any scheme
CAPS = st.sampled_from([0.5, 1.0, "aligned"])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), name=st.sampled_from(sorted(SCHEMES)),
       n=st.sampled_from([20, 50, 100]), cap=CAPS)
def test_grown_trees_hand_down_the_loop_depth(seed, name, n, cap):
    for tree in grown_trees(name, n, cap, seed)[1]:
        assert_depth_handed_down(tree)


def test_uncapped_subcritical_trees_hand_down_the_loop_depth():
    for tree in grown_trees("subcritical", 50, None, 11, count=40)[1]:
        assert_depth_handed_down(tree)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), name=st.sampled_from(sorted(SCHEMES)),
       n=st.sampled_from([20, 50]), cap=CAPS)
def test_cut_trees_hand_down_the_loop_depth(seed, name, n, cap):
    fam, _ = SCHEMES[name]
    trees = grown_trees(name, n, cap, seed, count=4)[1]
    rng = np.random.default_rng(seed)
    for tree in trees:
        marked = generate_marks(tree, fam, (0.0, 1.0), rng)
        qs = np.sort(rng.uniform(0.0, 1.0, 3))
        for q in qs:
            cut = pruned(marked, q)
            assert_depth_handed_down(cut)
            assert marked.read(q).height[0] == loop_depth(cut).max()
        tiled = tree.tiled(3)[0]
        assert_depth_handed_down(tiled)
        assert_depth_handed_down(pruned(generate_marks(tiled, fam, (0.0, 1.0), rng), 1.0))


def test_cuts_with_node_marks_hand_down_the_loop_depth():
    fam, make = SCHEMES["jump"]
    scheme = make(20)
    node_marked = closed = 0
    for k in range(30):
        rng = RngStream(5).replicate(k)
        forest = gw_forest(scheme, rng, 40, height_cap=1.0)[0]
        marked = generate_marks(forest, fam, (0.0, 2.0), rng)
        node_marked += len(marked.node_ids)
        for q in (0.5, 1.0, 2.0):
            closed += len(marked.cuts_at(q)[3])
            assert_depth_handed_down(pruned(marked, q))
    assert node_marked >= 10 and closed >= 10


def test_cuts_of_lazy_trees_hand_down_the_loop_depth():
    # a spine forest runs the loop itself; its cuts and copies inherit the result
    for k in range(5):
        rng = RngStream(8).replicate(k)
        tree = spine_forest(JUMPY.psi_at(0.0), 0.5, rng, 20)[0]
        assert "depth" not in vars(tree)
        assert_depth_handed_down(tree.tiled(2)[0])
        assert_depth_handed_down(pruned(generate_marks(tree, JUMPY, (0.0, 1.0), rng), 1.0))


# -- chain masses and the other growth arrays ----------------------------------


@pytest.mark.parametrize("name, n_roots, cap", [
    ("quadratic", 1, 1.0),
    ("quadratic", 40, 0.5),
    ("jump", 1, 1.0),
    ("jump", 40, 0.5),
    ("one-child", 1, 1.0),
    ("one-child", 40, 0.5),
    ("subcritical", 25, None),
])
def test_growth_arrays_match_the_generation_loop(name, n_roots, cap):
    _, make = SCHEMES[name]
    scheme = make(20)
    one_child = many_child = 0
    for k in range(60):
        par, ks, offsets, csum = _grow(scheme, RngStream(21, (n_roots,)).replicate(k), n_roots, cap)
        tree = _tree_from_growth(scheme, par, ks, offsets, csum)
        ref = loop_tree_from_growth(scheme, par, ks, offsets)
        # growth skips FiniteTree's checks; ref went through them
        for col in ("parent", "length", "delta", "mu"):
            got, want = getattr(tree, col), getattr(ref, col)
            assert got.dtype == want.dtype and np.array_equal(got, want), col
        # generation g's parents lie in generation g - 1, the root's children in 0
        gens = tree.generations
        assert np.array_equal(gens, np.add(offsets, 1)) and gens[-1] == len(tree)
        assert not gens.flags.writeable and ref.generations is None
        for g, (lo, hi) in enumerate(zip(gens[:-1], gens[1:])):
            above = tree.parent[lo:hi]
            assert np.all(above == 0) if g == 0 else np.all((above >= gens[g - 1]) & (above < lo))
        one_child += int(np.count_nonzero(ks == 1))
        many_child += int(np.count_nonzero(ks >= 3))
    assert (one_child > 0) == (name == "one-child")
    assert (many_child > 0) == (name == "jump")


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_grown_trees_rank_leaf_atoms_on_the_first_read_of_mu(name):
    # twin forests and marks; the eager twin ranks its atoms before reading
    fam, make = SCHEMES[name]
    scheme = make(20)
    size = 30
    for k in range(6):
        lazy, label = gw_forest(scheme, RngStream(31).replicate(k), size, height_cap=1.0)
        eager, _ = gw_forest(scheme, RngStream(31).replicate(k), size, height_cap=1.0)
        assert "mu" not in vars(lazy) and eager.mu is eager.mu
        marks = [generate_marks(tree, fam, (0.0, 1.0), RngStream(32).replicate(k))
                 for tree in (lazy, eager)]
        for q in (0.0, 0.5, 1.0):
            got, want = (m.read(q, label, size, 0.1, 0.5) for m in marks)
            assert np.array_equal(got.height, want.height)
            assert np.array_equal(got.tall, want.tall)
            # heights and removed components read the shape only
            assert "mu" not in vars(lazy)
        assert np.array_equal(got.mass, want.mass) and "mu" in vars(lazy)
        assert np.array_equal(got.low_mass, want.low_mass)
        assert np.array_equal(lazy.mu, eager.mu)
