"""Finite rooted measured real trees.

A tree is four parallel arrays in topological order: node 0 is the root
and every other node has parent index strictly below its own.  `parent`
and `length` give the shape (the root has parent -1 and no edge), `delta`
the size of a branch point of infinite degree, and `mu` the mass atoms.
A node is a many-child node exactly when delta > 0, which never holds at
the root; mass sits only on leaves, the nodes no other node names as
parent.

Depth is defined by the sequential loop d[i] = length[i] + d[parent[i]]
in node order.  Builders that already know the geometry hand it down
through `_with_depth` instead: Galton-Watson growth (one running sum per
generation), `cut` (kept depths, plus stub lengths over the stub's parent
depth) and tiled copies of a tree (each copy's depths).  Each node then
gets the loop's float addition on the loop's operands, so the bits match.
Every other tree (spines, hand-built trees) runs the loop on first use.

A grown tree also hands down its generations: `generations[g]` is the
first node of generation g, the root's children being generation 0, and
each generation's parents lie in the one before it, so a pass down the
generations visits every parent before its children.  Other trees have
`generations` None.  Growth builds its trees by rule, so `_grown` sets
their fields without the checks of `__post_init__`; the tests compare
every column of grown trees with trees built through the checks.  Every
other builder validates.  A grown tree ranks its leaf atoms when `mu` is
first read, so a reading that uses only the shape (heights, cut levels)
never pays for them.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mechanism import DomainError


@dataclass(frozen=True)
class FiniteTree:
    parent: np.ndarray
    length: np.ndarray
    delta: np.ndarray
    mu: np.ndarray

    # generation start nodes of a grown tree (see the module docstring)
    generations = None

    def __post_init__(self):
        parent = np.asarray(self.parent, dtype=np.int64)
        length = np.asarray(self.length, dtype=np.float64)
        delta = np.asarray(self.delta, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        n = len(parent)
        if not (len(length) == len(delta) == len(mu) == n) or n == 0:
            raise DomainError("node arrays must be nonempty and of equal length")
        if parent[0] != -1 or length[0] != 0.0 or delta[0] != 0.0:
            raise DomainError("node 0 must be the root, with no parent edge and no delta")
        if n > 1:
            idx = np.arange(1, n)
            if (parent[1:] < 0).any() or (parent[1:] >= idx).any():
                raise DomainError("nodes must be topologically ordered (parent < child)")
            if not (length[1:] > 0.0).all():
                raise DomainError("edge lengths must be positive")
        if not (delta >= 0.0).all():
            raise DomainError("node sizes delta must be nonnegative")
        if not (mu >= 0.0).all() or (mu[parent[1:]] != 0.0).any():
            raise DomainError("mass atoms live on leaves and are nonnegative")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "mu", mu)

    def __len__(self):
        return len(self.parent)

    @cached_property
    def depth(self):
        """Distance from the root, read-only.  Grown and cut trees arrive
        with it set (see the module docstring); others run this loop."""
        d = self.length.copy()
        par = self.parent
        for i in range(1, len(d)):
            d[i] += d[par[i]]
        d.flags.writeable = False
        return d

    # -- cutting and tiling -------------------------------------------------

    def cut(self, keep, stubs, stub_lengths):
        """The kept nodes (a set closed under parent) plus one massless
        leaf per stub edge, hanging stub_lengths above the stub's parent.
        The cut tree inherits its depth: kept nodes keep theirs, and a stub
        sits at its parent's depth plus its length, as the loop adds."""
        remap = np.cumsum(keep) - 1
        par = self.parent
        d = self.depth
        kept = np.flatnonzero(keep)
        stub_zeros = np.zeros(len(stubs))
        return _with_depth(FiniteTree(
            np.concatenate([np.where(kept == 0, -1, remap[np.maximum(par[kept], 0)]),
                            remap[par[stubs]]]),
            np.concatenate([self.length[kept], stub_lengths]),
            np.concatenate([self.delta[kept], stub_zeros]),
            np.concatenate([self.mu[kept], stub_zeros]),
        ), np.concatenate([d[kept], d[par[stubs]] + stub_lengths]))

    def tiled(self, copies):
        """copies of the tree under one root, and each node's copy (-1 for
        the root).  Copy k holds nodes 1 + k * (len - 1) onwards in this
        tree's order, and inherits this tree's depths."""
        m = len(self) - 1
        copy = np.arange(copies).repeat(m)
        par = np.tile(self.parent[1:], copies)
        column = lambda a: np.concatenate([a[:1], np.tile(a[1:], copies)])
        return _with_depth(FiniteTree(
            np.concatenate([[-1], np.where(par > 0, par + copy * m, 0)]), column(self.length),
            column(self.delta), column(self.mu),
        ), column(self.depth)), np.concatenate([[-1], copy])


class _GrownTree(FiniteTree):
    """A tree of `_grown`, whose leaf atoms are ranked on the first read of mu."""

    @cached_property
    def mu(self):
        return self.__dict__.pop("_leaf_atoms")()


def _grown(parent, length, delta, depth, generations, leaf_atoms):
    """A tree of the growth builder, which guarantees what `__post_init__`
    checks: int64 and float64 columns of one length, the root first, parents
    before children, positive edges, nonnegative sizes and atoms on leaves
    only.  depth and generations are handed down as they are; mu is
    leaf_atoms(), called on its first read."""
    generations.flags.writeable = False
    tree = object.__new__(_GrownTree)
    vars(tree).update(parent=parent, length=length, delta=delta, generations=generations,
                      _leaf_atoms=leaf_atoms)
    return _with_depth(tree, depth)


def _with_depth(tree, depth):
    """Set tree's depth cache to depth, which must equal the loop's result
    bit for bit; `cut` and the sampler's growth builder guarantee it."""
    depth.flags.writeable = False
    tree.__dict__["depth"] = depth
    return tree
