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

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mechanism import DomainError

ROOT = 0
BINARY = 1
INFINITE = 2
LEAF = 3

_KIND_NAMES = {ROOT: "root", BINARY: "binary", INFINITE: "infinite", LEAF: "leaf"}
_KIND_CODES = {v: k for k, v in _KIND_NAMES.items()}


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

    def children(self):
        """List of child-index arrays, by node."""
        order = np.argsort(self.parent[1:], kind="stable") + 1
        out = [[] for _ in range(len(self.parent))]
        for i in order:
            out[self.parent[i]].append(int(i))
        return out

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

    def subtrees_above(self, a):
        """Components strictly above level a, with their attach points below.

        Attach ids refer to nodes of restrict_below(a): components cut out
        of a crossing edge attach at the corresponding stub leaf, and
        subtrees hanging off a node sitting exactly at level a attach at
        that node.
        """
        if a < 0:
            raise DomainError(f"need a >= 0, got {a}")
        d = self.depth
        par = self.parent
        keep = d <= a
        remap = np.cumsum(keep) - 1
        n_kept = int(remap[-1]) + 1
        entries = []
        kids = self.children()
        stub_rank = 0
        for x in range(1, len(par)):
            p = par[x]
            if d[x] > a and d[p] < a:
                comp = self._component(x, d[x] - a, kids)
                entries.append(GraftEntry(a, n_kept + stub_rank, comp))
                stub_rank += 1
            elif d[x] > a and d[p] == a:
                comp = self._component(x, self.length[x], kids)
                entries.append(GraftEntry(a, int(remap[p]), comp))
        return SubtreeDecomposition(a, tuple(entries))

    def _component(self, top, top_length, kids):
        order = [int(top)]
        stack = list(kids[top])
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(kids[v])
        order_arr = np.array(order)
        remap = {v: i + 1 for i, v in enumerate(order)}
        parent = np.array([0] + [remap[int(self.parent[v])] for v in order[1:]])
        parent = np.concatenate([[-1], parent])
        length = np.concatenate([[0.0], self.length[order_arr]])
        length[1] = top_length
        kind = np.concatenate([[ROOT], self.kind[order_arr]])
        delta = np.concatenate([[0.0], self.delta[order_arr]])
        mu = np.concatenate([[0.0], self.mu[order_arr]])
        return FiniteTree(parent, length, kind, delta, mu, self.scale)

    # -- grafting -----------------------------------------------------------

    def graft(self, grafts):
        """Attach subtrees at nodes or at interior edge points.

        Each entry is (point, sub) where point is a node id or a pair
        (child_id, offset) with the offset measured from the parent along
        that edge.  A sub's root fuses with its attach point; pass-through
        binary nodes left over from edge splits or stub reattachment are
        spliced away, so grafting nothing returns an identical tree.
        """
        parent = list(self.parent)
        length = list(self.length)
        kind = list(self.kind)
        delta = list(self.delta)
        mu = list(self.mu)

        node_grafts = []
        edge_grafts = {}
        for point, sub in grafts:
            if isinstance(point, tuple):
                child, offset = point
                child = int(child)
                if not 0 < child < len(self.parent):
                    raise DomainError(f"no edge into node {child}")
                if not 0.0 < offset < self.length[child]:
                    raise DomainError(
                        f"offset {offset} outside edge into node {child} "
                        f"(length {self.length[child]})"
                    )
                edge_grafts.setdefault(child, []).append((float(offset), sub))
            else:
                point = int(point)
                if not 0 <= point < len(self.parent):
                    raise DomainError(f"no node {point}")
                node_grafts.append((point, sub))

        # split edges bottom-up so earlier offsets keep their meaning
        for child, items in edge_grafts.items():
            items.sort(key=lambda t: t[0])
            top = parent[child]
            prev = 0.0
            for offset, sub in items:
                split = len(parent)
                parent.append(top)
                length.append(offset - prev)
                kind.append(BINARY)
                delta.append(0.0)
                mu.append(0.0)
                top, prev = split, offset
                node_grafts.append((split, sub))
            parent[child] = top
            length[child] = float(self.length[child]) - prev

        for point, sub in node_grafts:
            if kind[point] == LEAF:
                if mu[point] > 0.0:
                    raise DomainError(f"node {point} carries a mass atom; cannot graft there")
                kind[point] = BINARY
            base = len(parent)
            sub_parent = sub.parent
            for i in range(1, len(sub_parent)):
                p = sub_parent[i]
                parent.append(point if p == 0 else base + int(p) - 1)
                length.append(float(sub.length[i]))
                kind.append(int(sub.kind[i]))
                delta.append(float(sub.delta[i]))
                mu.append(float(sub.mu[i]))

        return _rebuild(parent, length, kind, delta, mu, self.scale)

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        nodes = []
        for i in range(len(self.parent)):
            node = {
                "id": i,
                "parent": int(self.parent[i]),
                "len": float(self.length[i]),
                "kind": _KIND_NAMES[int(self.kind[i])],
            }
            if self.kind[i] == INFINITE:
                node["delta"] = float(self.delta[i])
            if self.kind[i] == LEAF:
                node["mu"] = float(self.mu[i])
            nodes.append(node)
        return {"scale": self.scale, "nodes": nodes}

    @classmethod
    def from_dict(cls, blob):
        nodes = blob["nodes"]
        n = len(nodes)
        parent = np.empty(n, dtype=np.int64)
        length = np.empty(n)
        kind = np.empty(n, dtype=np.int8)
        delta = np.zeros(n)
        mu = np.zeros(n)
        for node in nodes:
            i = int(node["id"])
            parent[i] = int(node["parent"])
            length[i] = float(node["len"])
            kind[i] = _KIND_CODES[node["kind"]]
            delta[i] = float(node.get("delta", 0.0))
            mu[i] = float(node.get("mu", 0.0))
        return cls(parent, length, kind, delta, mu, float(blob["scale"]))

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class GraftEntry:
    height: float
    attach: int
    component: FiniteTree


@dataclass(frozen=True)
class SubtreeDecomposition:
    level: float
    entries: tuple

    def __len__(self):
        return len(self.entries)

    def graft_list(self):
        return [(e.attach, e.component) for e in self.entries]


def _rebuild(parent, length, kind, delta, mu, scale):
    """Splice pass-through binary nodes and renumber topologically."""
    n = len(parent)
    counts = [0] * n
    for i in range(1, n):
        counts[parent[i]] += 1

    # a binary node with a single child is an artifact of splitting: fuse it
    skip = [False] * n
    top = list(parent)
    add = list(length)
    for i in range(1, n):
        if kind[i] == BINARY and counts[i] == 1:
            skip[i] = True
    for i in range(1, n):
        p = top[i]
        gain = 0.0
        while p > 0 and skip[p]:
            gain += add[p]
            p = top[p]
        if gain:
            top[i] = p
            add[i] = length[i] + gain
        else:
            top[i] = p

    kids = [[] for _ in range(n)]
    for i in range(1, n):
        if not skip[i]:
            kids[top[i]].append(i)

    order = [0]
    stack = list(reversed(kids[0]))
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(kids[v]))
    remap = {v: i for i, v in enumerate(order)}
    m = len(order)
    parent_out = np.empty(m, dtype=np.int64)
    length_out = np.empty(m)
    kind_out = np.empty(m, dtype=np.int8)
    delta_out = np.empty(m)
    mu_out = np.empty(m)
    parent_out[0] = -1
    length_out[0] = 0.0
    kind_out[0] = ROOT
    delta_out[0] = 0.0
    mu_out[0] = 0.0
    for new_i, v in enumerate(order[1:], start=1):
        parent_out[new_i] = remap[top[v]]
        length_out[new_i] = add[v]
        kind_out[new_i] = kind[v]
        delta_out[new_i] = delta[v]
        mu_out[new_i] = mu[v]
    return FiniteTree(parent_out, length_out, kind_out, delta_out, mu_out, scale)


def single_root(scale=1.0):
    """The trivial tree: a root and nothing else."""
    return FiniteTree(
        np.array([-1]), np.zeros(1), np.array([ROOT], dtype=np.int8), np.zeros(1), np.zeros(1), scale
    )
