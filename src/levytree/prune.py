"""Mark processes on finite trees and the pruned trees they induce.

A marked tree carries two independent mark families over a time window
[t, t_max]: skeleton marks, Poisson on each edge with rate alpha per
unit length and times distributed like beta, and one first-mark time
per many-child node, drawn by inverting its survival factor.  Pruning
at a time q keeps exactly the points with no mark of time <= q strictly
below them on the root path, so the root always survives, a marked node
stays (childless) while everything above it goes, and a marked edge is
cut at its lowest mark.

The whole rule lives in one array, `MarkedTree.kill_times`: node i is
removed at the earliest time of a mark on an edge of its root path or a
node mark on one of its strict ancestors, and survives pruning at q iff
kill_times[i] > q.  The array is a minimum along root paths, taken by
pointer jumping over `parent`, so it matches a node-by-node sweep exactly.
`MarkedTree.read` reduces one pruning per replicate of a forest (see
`sampler.gw_forest`) over a node -> replicate label.

Binary nodes never receive node marks: their mass is 2/n under the
discretization and the mark probability vanishes in the limit, so only
nodes of three or more children participate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .mechanism import DomainError
from .tree import INFINITE, FiniteTree


@dataclass(frozen=True)
class PrunePath:
    """Pruning statistics along a nondecreasing q grid."""

    q_grid: np.ndarray
    sigma: np.ndarray
    height: np.ndarray


class PruneReading(NamedTuple):
    """Per-replicate statistics of one pruning; tall and low_mass are None
    unless an attachment level was given."""

    mass: np.ndarray
    height: np.ndarray
    tall: np.ndarray | None
    low_mass: np.ndarray | None


@dataclass(frozen=True)
class MarkedTree:
    base: FiniteTree
    window: tuple
    edge_ids: np.ndarray
    offsets: np.ndarray
    times: np.ndarray
    node_ids: np.ndarray
    node_times: np.ndarray

    def __len__(self):
        return len(self.edge_ids)

    @cached_property
    def kill_times(self):
        """Earliest q at which pruning removes each node; inf for the root."""
        par = self.base.parent
        kill = np.full(len(par), np.inf)
        node = np.full(len(par), np.inf)
        np.minimum.at(kill, self.edge_ids, self.times)
        np.minimum.at(node, self.node_ids, self.node_times)
        kill[1:] = np.minimum(kill[1:], node[par[1:]])
        kill[0] = np.inf
        if kill.min() < np.inf:
            anc = par.copy()
            anc[0] = 0
            while anc.any():
                kill = np.minimum(kill, kill[anc])
                anc = anc[anc]
        kill.flags.writeable = False
        return kill

    def cuts_at(self, q):
        """Pruning at q as (keep, stubs, stub_lengths, closed): the surviving
        nodes, the edges cut stub_lengths above a surviving, unclosed parent,
        and the surviving nodes whose active node mark drops all children."""
        t, t_max = self.window
        if not t <= q <= t_max:
            raise DomainError(f"q = {q} outside the mark window [{t}, {t_max}]")
        par = self.base.parent
        live = self.times <= q
        if not (live.any() or (self.node_times <= q).any()):
            none = np.zeros(0, dtype=np.int64)
            return np.ones(len(par), dtype=bool), none, np.zeros(0), none
        keep = self.kill_times > q
        first = np.full(len(par), np.inf)
        np.minimum.at(first, self.edge_ids[live], self.offsets[live])
        unclosed = keep.copy()
        unclosed[self.node_ids[self.node_times <= q]] = False
        stubs = np.flatnonzero(first[1:] < np.inf) + 1
        stubs = stubs[unclosed[par[stubs]]]
        return keep, stubs, first[stubs], np.flatnonzero(keep & ~unclosed)

    def pruned_at(self, q):
        keep, stubs, stub_lengths, _ = self.cuts_at(q)
        if keep.all():
            return self.base
        return self.base.cut(keep, stubs, stub_lengths)

    def first_cut(self, q):
        """Lowest level at which pruning at q cuts: the lowest stub top or
        closed node of `cuts_at`; inf when nothing is cut."""
        _, stubs, stub_lengths, closed = self.cuts_at(q)
        depth = self.base.depth
        tops = np.concatenate([depth[self.base.parent[stubs]] + stub_lengths, depth[closed]])
        return float(tops.min(initial=math.inf))

    def read(self, q, label=None, size=1, eps=0.0, attach_max=None):
        """Pruning at q by replicate: mass and height (over kept depths
        and stub tops) and, given attach_max, the removed components taller
        than eps attached at level <= attach_max (a closed node sheds its
        children as one, tip - depth tall) and the kept mass at depth <=
        attach_max.  label[i] is node i's replicate, the root's is never
        read; without labels the tree is replicate 0."""
        base = self.base
        depth, par, mu = base.depth, base.parent, base.mu
        if label is None:
            label = np.zeros(len(par), dtype=np.int64)
        keep, stubs, stub_lengths, closed = self.cuts_at(q)
        kept = np.flatnonzero(keep)[1:]
        levels = depth[par[stubs]] + stub_lengths
        height = np.zeros(size)
        np.maximum.at(height, label[kept], depth[kept])
        np.maximum.at(height, label[stubs], levels)
        mass = np.bincount(label[kept], weights=mu[kept], minlength=size)
        if attach_max is None:
            return PruneReading(mass, height, None, None)

        low = kept[depth[kept] <= attach_max]
        low_mass = np.bincount(label[low], weights=mu[low], minlength=size)
        tops = np.concatenate([stubs, closed])
        levels = np.concatenate([levels, depth[closed]])
        attached = levels <= attach_max
        tall = np.zeros(size, dtype=np.int64)
        if attached.any():
            tops, levels = tops[attached], levels[attached]
            tops = tops[base.subtree_tips()[tops] - levels > eps]
            tall = np.bincount(label[tops], minlength=size)
        return PruneReading(mass, height, tall, low_mass)

    def sigma_path(self, q_grid, label=None, size=1):
        """`read`'s mass and height along a nondecreasing q grid, by q (and
        replicate, given labels)."""
        qs = np.asarray(q_grid, dtype=float)
        if len(qs) == 0 or np.any(np.diff(qs) < 0):
            raise DomainError("q grid must be nonempty and nondecreasing")
        reads = [self.read(q, label, size) for q in qs]
        sig = np.array([r.mass for r in reads])
        hgt = np.array([r.height for r in reads])
        if label is None:
            sig, hgt = sig[:, 0], hgt[:, 0]
        return PrunePath(qs, sig, hgt)

    @classmethod
    def unmarked(cls, tree):
        """tree with no marks over the window [0, 0]: pruning keeps it whole."""
        none = np.zeros(0, dtype=np.int64)
        return cls(tree, (0.0, 0.0), none, np.zeros(0), np.zeros(0), none, np.zeros(0))


def generate_marks(tree, fam, window, rng):
    """Draw the skeleton and node mark families over the window."""
    t, t_max = float(window[0]), float(window[1])
    if not t <= t_max:
        raise DomainError(f"mark window is reversed: [{t}, {t_max}]")
    lo, hi = fam.window
    if not (lo <= t and t_max <= hi):
        raise DomainError(
            f"window [{t}, {t_max}] outside the family domain [{lo}, {hi}]")

    alpha = fam.alpha(t, t_max)
    if alpha > 0.0:
        counts = rng.poisson(alpha * tree.length[1:])
        total = int(counts.sum())
        edge_ids = np.repeat(np.arange(1, len(tree)), counts)
        # (0, len]: a zero offset would make a zero-length stub
        offsets = (1.0 - rng.random(total)) * tree.length[edge_ids]
        times = fam.mark_times(t, t_max, rng, total)
    else:
        edge_ids = np.zeros(0, dtype=np.int64)
        offsets = np.zeros(0)
        times = np.zeros(0)

    # one uniform per many-child node, in node order
    inf_nodes = np.flatnonzero(tree.kind == INFINITE)
    node_times = fam.node_mark_times(t, tree.delta[inf_nodes], rng.random(len(inf_nodes)))
    hit = node_times <= t_max
    return MarkedTree(tree, (t, t_max), edge_ids, offsets, times,
                      inf_nodes[hit].astype(np.int64), node_times[hit])


def two_step_consistency(tree, fam, t, theta, q, rng, n_rep):
    """Markov check: prune t->q in one pass vs t->theta then theta->q.

    Both arms start from the same base tree; the second arm re-marks the
    theta-pruned tree with fresh randomness.  Returns, for the mass, height
    and node count of the final tree, name -> (one-pass mean, two-pass mean,
    se of their difference, z).
    """
    if not t <= theta <= q:
        raise DomainError(f"need t <= theta <= q, got {t}, {theta}, {q}")
    one = np.empty((n_rep, 3))
    two = np.empty((n_rep, 3))
    for k in range(n_rep):
        direct = generate_marks(tree, fam, (t, q), rng).pruned_at(q)
        one[k] = direct.total_mass(), direct.height(), len(direct)
        mid = generate_marks(tree, fam, (t, theta), rng).pruned_at(theta)
        final = generate_marks(mid, fam, (theta, q), rng).pruned_at(q)
        two[k] = final.total_mass(), final.height(), len(final)
    stats = {}
    for j, name in enumerate(("sigma", "height", "nodes")):
        a, b = one[:, j], two[:, j]
        se = math.sqrt(a.var() / n_rep + b.var() / n_rep)
        if se > 0:
            z = (a.mean() - b.mean()) / se
        else:
            z = 0.0 if a.mean() == b.mean() else math.inf
        stats[name] = (float(a.mean()), float(b.mean()), float(se), float(z))
    return stats
