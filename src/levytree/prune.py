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
kill_times[i] > q.  The array is a minimum along root paths, which
`tree.path_min` takes.
`MarkedTree.pruned` builds the pruned tree and carries a node -> replicate
label through the cut; `MarkedTree.read` reduces one pruning per replicate
of a forest (see `sampler.gw_forest`) over such a label without building
it, `first_cut` included, and `_component_tips` heads removed components
by another `path_min`.

`generate_marks` draws the skeleton marks as one Poisson process along
the edges laid end to end: a Poisson(alpha * total length) count, then
each mark's edge in proportion to its length (by a search over the
cumulative lengths), its offset uniform in (0, length] and its time from
the family.  By Poisson splitting this is the law of independent
Poisson(alpha * length) counts per edge, and past one cumulative sum its
cost follows the marks, which are few beside the edges.  A count past
`NODE_BUDGET` raises NumericError before any position is drawn.

Binary nodes never receive node marks: their mass is 2/n under the
discretization and the mark probability vanishes in the limit, so only
the many-child nodes, those with delta > 0, participate.
`generate_marks` maps one uniform per such node, in node order, through
the family's scalar `node_mark_time`, the one node-mark path: these nodes
are few beside the edges, so a per-node call costs little.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mechanism import DomainError, NumericError
from .sampler import NODE_BUDGET, NODE_TARGET
from .tree import FiniteTree, path_min


@dataclass(frozen=True)
class PruneReading:
    """Per-replicate statistics of one pruning, from `MarkedTree.read`; each
    column is computed when first read, so a caller pays only for the
    columns it uses.  tall and low_mass are None unless an attachment level
    was given."""

    base: FiniteTree
    cuts: tuple  # `MarkedTree.cuts_at`
    label: np.ndarray
    size: int
    eps: float
    attach_max: float | None

    @cached_property
    def _kept(self):
        return np.flatnonzero(self.cuts[0])[1:]

    @cached_property
    def _stub_tops(self):
        _, stubs, stub_lengths, _ = self.cuts
        return self.base.depth[self.base.parent[stubs]] + stub_lengths

    @cached_property
    def mass(self):
        kept = self._kept
        return np.bincount(self.label[kept], weights=self.base.mu[kept], minlength=self.size)

    @cached_property
    def height(self):
        kept, stubs = self._kept, self.cuts[1]
        height = np.zeros(self.size)
        np.maximum.at(height, self.label[kept], self.base.depth[kept])
        np.maximum.at(height, self.label[stubs], self._stub_tops)
        return height

    @cached_property
    def first_cut(self):
        """Lowest level at which the pruning cuts, by replicate: the lowest
        stub top or closed node, inf where nothing is cut."""
        _, stubs, _, closed = self.cuts
        cut = np.full(self.size, np.inf)
        np.minimum.at(cut, self.label[stubs], self._stub_tops)
        np.minimum.at(cut, self.label[closed], self.base.depth[closed])
        return cut

    @cached_property
    def low_mass(self):
        if self.attach_max is None:
            return None
        kept, base = self._kept, self.base
        low = kept[base.depth[kept] <= self.attach_max]
        return np.bincount(self.label[low], weights=base.mu[low], minlength=self.size)

    @cached_property
    def tall(self):
        if self.attach_max is None:
            return None
        keep, stubs, _, closed = self.cuts
        depth = self.base.depth
        tops = np.concatenate([stubs, closed])
        levels = np.concatenate([self._stub_tops, depth[closed]])
        attached = levels <= self.attach_max
        if not attached.any():
            return np.zeros(self.size, dtype=np.int64)
        tops, levels = tops[attached], levels[attached]
        tops = tops[_component_tips(self.base, keep, closed)[tops] - levels > self.eps]
        return np.bincount(self.label[tops], minlength=self.size)


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
            path_min(self.base, kill)
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

    def pruned(self, q, label):
        """The tree pruned at q, and each node's label: a kept node keeps
        its own, a stub takes that of the edge it cuts."""
        keep, stubs, stub_lengths, _ = self.cuts_at(q)
        return self.base.cut(keep, stubs, stub_lengths), np.concatenate([label[keep], label[stubs]])

    def read(self, q, label=None, size=1, eps=0.0, attach_max=None):
        """Pruning at q by replicate, as a `PruneReading`: mass, height (over
        kept depths and stub tops), first cut level and, given attach_max,
        the removed components taller than eps attached at level <= attach_max
        (a closed node sheds its children as one, tip - depth tall) and the
        kept mass at depth <= attach_max.  label[i] is node i's replicate,
        the root's is never read; without labels the tree is replicate 0."""
        if label is None:
            label = np.zeros(len(self.base), dtype=np.int64)
        return PruneReading(self.base, self.cuts_at(q), label, size, eps, attach_max)


def _component_tips(tree, keep, closed):
    """Highest depth of each removed component at its top, other depths as
    they are.  A component's top is its stub, or the closed node whose
    children it gathers; its head, the removed node whose parent is kept,
    is the least removed index on the root path of each of its nodes."""
    gone = np.flatnonzero(~keep)
    up = path_min(tree, np.where(keep, len(keep), np.arange(len(keep))))[gone]
    hang = tree.parent[up]
    tip = tree.depth.copy()
    np.maximum.at(tip, np.where(np.isin(hang, closed), hang, up), tree.depth[gone])
    return tip


def generate_marks(tree, fam, window, rng):
    """Draw both mark families over the window; fam.alpha checks the window."""
    t, t_max = float(window[0]), float(window[1])
    alpha = fam.alpha(t, t_max)
    if alpha > 0.0:
        # one Poisson process along the edges laid end to end (Poisson
        # splitting): the total, then each mark's edge in proportion to its
        # length; node i's edge spans [ends[i - 1], ends[i])
        ends = np.cumsum(tree.length)
        mean = alpha * ends[-1]
        total = int(rng.poisson(mean)) if mean < NODE_BUDGET else None
        if total is None or total > NODE_BUDGET:
            raise NumericError(f"skeleton marks passed the node budget of {NODE_BUDGET}")
        along = rng.random(total) * ends[-1]
        edge_ids = np.minimum(ends.searchsorted(along, "right"), len(ends) - 1)
        # (0, len]: a zero offset would make a zero-length stub
        offsets = (1.0 - rng.random(total)) * tree.length[edge_ids]
        times = fam.mark_times(t, t_max, rng, total)
    else:
        edge_ids = np.zeros(0, dtype=np.int64)
        offsets = np.zeros(0)
        times = np.zeros(0)

    # one uniform per many-child node, in node order
    inf_nodes = np.flatnonzero(tree.delta > 0.0)
    u = rng.random(len(inf_nodes))
    node_times = np.array([fam.node_mark_time(t, d, x)
                           for d, x in zip(tree.delta[inf_nodes].tolist(), u.tolist())])
    hit = node_times <= t_max
    return MarkedTree(tree, (t, t_max), edge_ids, offsets, times,
                      inf_nodes[hit].astype(np.int64), node_times[hit])


def _by_copy(forest, label, size):
    """Columns mass, height and node count (root included) of each labeled
    tree of a forest."""
    lab = label[1:]
    height = np.zeros(size)
    np.maximum.at(height, lab, forest.depth[1:])
    return np.column_stack([np.bincount(lab, forest.mu[1:], size), height,
                            1 + np.bincount(lab, minlength=size)])


def two_step_consistency(tree, fam, t, theta, q, rng, n_rep):
    """Markov check: prune t->q in one pass vs t->theta then theta->q.

    Both arms prune copies of the same base tree, tiled under one root in
    forests of at most max(1, NODE_TARGET // len(tree)) copies; the second
    arm re-marks the theta-pruned forest with fresh randomness.  Returns, for
    the mass, height and node count of the final tree, name -> (one-pass
    mean, two-pass mean, sample standard error of their difference).
    """
    if not t <= theta <= q:
        raise DomainError(f"need t <= theta <= q, got {t}, {theta}, {q}")

    def pruned(forest, label, window):
        return generate_marks(forest, fam, window, rng).pruned(window[1], label)

    per = max(1, NODE_TARGET // len(tree))
    one, two = [], []
    for start in range(0, n_rep, per):
        size = min(per, n_rep - start)
        forest, label = tree.tiled(size)
        one.append(_by_copy(*pruned(forest, label, (t, q)), size))
        two.append(_by_copy(*pruned(*pruned(forest, label, (t, theta)), (theta, q)), size))
    one, two = np.concatenate(one), np.concatenate(two)
    se = np.sqrt((one.var(axis=0, ddof=1) + two.var(axis=0, ddof=1)) / n_rep)
    return {name: (float(one[:, j].mean()), float(two[:, j].mean()), float(se[j]))
            for j, name in enumerate(("sigma", "height", "nodes"))}
