"""Finite rooted measured real trees.

A tree is stored as parallel arrays in topological order: node 0 is the
root and every other node has parent index strictly below its own.  Mass
lives only in leaf atoms mu; branch points are massless and are either
binary or carry a size delta.  The mass unit per atom is `scale`, which
samplers set to 1/n.

Level operations use the crossing convention: an edge (parent at depth
dp, node at depth dx) covers the half-open band (dp, dx], so level_mass(a)
counts edges with dp < a <= dx and the root itself never counts.

Depth is defined by the sequential loop d[i] = length[i] + d[parent[i]]
in node order.  Builders that already know the geometry hand it down
through `_with_depth` instead: Galton-Watson growth (one running sum per
generation), `cut` (kept depths, plus stub lengths over the stub's parent
depth) and tiled copies of a tree (each copy's depths).  Each node then
gets the loop's float addition on the loop's operands, so the bits match.
Every other tree (spines, hand-built trees) runs the loop on first use.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mechanism import DomainError

ROOT = 0
BINARY = 1
INFINITE = 2
LEAF = 3


@dataclass(frozen=True)
class FiniteTree:
    parent: np.ndarray
    length: np.ndarray
    kind: np.ndarray
    delta: np.ndarray
    mu: np.ndarray
    scale: float

    def __post_init__(self):
        parent = np.asarray(self.parent, dtype=np.int64)
        length = np.asarray(self.length, dtype=np.float64)
        kind = np.asarray(self.kind, dtype=np.int8)
        delta = np.asarray(self.delta, dtype=np.float64)
        mu = np.asarray(self.mu, dtype=np.float64)
        n = len(parent)
        if not (len(length) == len(kind) == len(delta) == len(mu) == n) or n == 0:
            raise DomainError("node arrays must be nonempty and of equal length")
        if parent[0] != -1 or kind[0] != ROOT or length[0] != 0.0:
            raise DomainError("node 0 must be the root with no parent edge")
        if n > 1:
            idx = np.arange(1, n)
            if (parent[1:] < 0).any() or (parent[1:] >= idx).any():
                raise DomainError("nodes must be topologically ordered (parent < child)")
            if not (length[1:] > 0.0).all():
                raise DomainError("edge lengths must be positive")
        if (kind[1:] == ROOT).any():
            raise DomainError("more than one root")
        # the root may carry a delta annotation (initial mass of a forest)
        if ((kind == INFINITE) & (delta <= 0.0)).any():
            raise DomainError("infinite nodes need a positive delta")
        if ((delta != 0.0) & (kind != INFINITE) & (kind != ROOT)).any():
            raise DomainError("delta lives on infinite nodes (or the root)")
        if (mu < 0.0).any() or (mu[kind != LEAF] != 0.0).any():
            raise DomainError("mass atoms live on leaves and are nonnegative")
        if not self.scale > 0.0:
            raise DomainError(f"need scale > 0, got {self.scale}")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "kind", kind)
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

    # -- statistics ---------------------------------------------------------

    def height(self):
        return float(np.max(self.depth))

    def total_mass(self):
        return float(np.sum(self.mu))

    def level_mass(self, a):
        """scale * number of edges crossing level a."""
        if a < 0:
            raise DomainError(f"need a >= 0, got {a}")
        if a == 0 or len(self.parent) == 1:
            return 0.0
        d = self.depth
        pd = d[self.parent[1:]]
        return self.scale * int(np.count_nonzero((pd < a) & (a <= d[1:])))

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
        n_stubs = len(stubs)
        return _with_depth(FiniteTree(
            np.concatenate([np.where(kept == 0, -1, remap[np.maximum(par[kept], 0)]),
                            remap[par[stubs]]]),
            np.concatenate([self.length[kept], stub_lengths]),
            np.concatenate([self.kind[kept], np.full(n_stubs, LEAF, dtype=np.int8)]),
            np.concatenate([self.delta[kept], np.zeros(n_stubs)]),
            np.concatenate([self.mu[kept], np.zeros(n_stubs)]),
            self.scale,
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
            column(self.kind), column(self.delta), column(self.mu), self.scale,
        ), column(self.depth)), np.concatenate([[-1], copy])


def _with_depth(tree, depth):
    """Set tree's depth cache to depth, which must equal the loop's result
    bit for bit; `cut` and the sampler's growth builder guarantee it."""
    depth.flags.writeable = False
    tree.__dict__["depth"] = depth
    return tree

