"""Finite rooted measured real trees.

A tree is stored as parallel arrays in topological order: node 0 is the
root and every other node has parent index strictly below its own.  Mass
lives only in leaf atoms mu; branch points are massless and are either
binary or carry a size delta.  The mass unit per atom is `scale`, which
samplers set to 1/n.

Level operations use the crossing convention: an edge (parent at depth
dp, node at depth dx) covers the half-open band (dp, dx], so level_mass(a)
counts edges with dp < a <= dx and the root itself never counts.
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
            if np.any(parent[1:] < 0) or np.any(parent[1:] >= idx):
                raise DomainError("nodes must be topologically ordered (parent < child)")
            if not np.all(length[1:] > 0.0):
                raise DomainError("edge lengths must be positive")
        if np.any(kind[1:] == ROOT):
            raise DomainError("more than one root")
        # the root may carry a delta annotation (initial mass of a forest)
        if np.any((kind == INFINITE) & (delta <= 0.0)):
            raise DomainError("infinite nodes need a positive delta")
        if np.any((delta != 0.0) & (kind != INFINITE) & (kind != ROOT)):
            raise DomainError("delta lives on infinite nodes (or the root)")
        if np.any(mu < 0.0) or np.any(mu[kind != LEAF] != 0.0):
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
        d = self.length.copy()
        par = self.parent
        for i in range(1, len(d)):
            d[i] += d[par[i]]
        d.flags.writeable = False
        return d

    # -- statistics ---------------------------------------------------------

    def subtree_tips(self):
        """Highest point at or above each node, by pointer doubling: pass k
        hands each running maximum 2^k generations down; the root takes all."""
        tip = self.depth.copy()
        anc = self.parent.copy()
        anc[0] = 0
        while anc.any():
            np.maximum.at(tip, anc, tip.copy())
            anc = anc[anc]
        tip[0] = tip.max()
        return tip

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

    # -- level surgery ------------------------------------------------------

    def restrict_below(self, a):
        """Everything above level a removed; cut points become massless leaves."""
        if a < 0:
            raise DomainError(f"need a >= 0, got {a}")
        d = self.depth
        keep = d <= a
        if np.all(keep):
            return self
        par = self.parent
        cross = np.flatnonzero(~keep & (d[np.maximum(par, 0)] < a) & (par >= 0))
        return self.cut(keep, cross, a - d[par[cross]])

    def cut(self, keep, stubs, stub_lengths):
        """The kept nodes (a set closed under parent) plus one massless
        leaf per stub edge, hanging stub_lengths above the stub's parent."""
        remap = np.cumsum(keep) - 1
        par = self.parent
        kept = np.flatnonzero(keep)
        n_stubs = len(stubs)
        return FiniteTree(
            np.concatenate([np.where(kept == 0, -1, remap[np.maximum(par[kept], 0)]),
                            remap[par[stubs]]]),
            np.concatenate([self.length[kept], stub_lengths]),
            np.concatenate([self.kind[kept], np.full(n_stubs, LEAF, dtype=np.int8)]),
            np.concatenate([self.delta[kept], np.zeros(n_stubs)]),
            np.concatenate([self.mu[kept], np.zeros(n_stubs)]),
            self.scale,
        )

    # -- grafting -----------------------------------------------------------

    def graft(self, grafts):
        """Attach subtrees at non-leaf nodes.

        Each entry is (node, sub): the sub's root fuses with that node and
        its other nodes are appended after everything before them, so the
        result stays topologically ordered.
        """
        parts = [(self.parent, self.length, self.kind, self.delta, self.mu)]
        size = len(self.parent)
        for point, sub in grafts:
            point = int(point)
            if not 0 <= point < len(self.parent):
                raise DomainError(f"no node {point}")
            if self.kind[point] == LEAF:
                raise DomainError(f"node {point} is a leaf; graft at branch points only")
            par = sub.parent[1:]
            parts.append((np.where(par == 0, point, par + size - 1),
                          sub.length[1:], sub.kind[1:], sub.delta[1:], sub.mu[1:]))
            size += len(par)
        return FiniteTree(*(np.concatenate(col) for col in zip(*parts)), self.scale)


def single_root(scale=1.0):
    """The trivial tree: a root and nothing else."""
    return FiniteTree(
        np.array([-1]), np.zeros(1), np.array([ROOT], dtype=np.int8), np.zeros(1), np.zeros(1), scale
    )
