"""Random tree generation by rescaled branching processes.

The continuum objects are approximated by Galton-Watson trees in which
one individual is an edge of length 1/gamma carrying mass 1/(n*gamma).
The offspring law comes from the generating function

    g(s) = s + psi(n*(1 - s)) / (n * gamma),

whose coefficients are nonnegative once gamma is at least the minimal
branching rate computed in `GwScheme.build`.  With the minimal rate the
one-child probability vanishes, so every node is a leaf, a binary node,
or a many-child node of mass k/n.

Normalization conventions, used consistently by the verification
experiments:

* excursion estimates: N[F] is approximated by n * mean(F(tree)) over
  single-ancestor trees, for F vanishing on the trivial tree;
* level masses: FiniteTree.scale = 1/n, so level_mass(a) estimates Z_a;
* total mass: sigma is (number of individuals) / (n * gamma), stored as
  leaf atoms (each individual's mass rides down first-child edges to
  the leaf that ends the chain).

A `GwScheme` is the offspring law at resolution n and nothing more.  The
height cap, below which a tree is grown, is an argument of each grower
(`gw_tree`, `gw_forest`, `forest_under_Pr`, `population_run`), None for
no cap, and `_level_generation` is where it is checked.

`population_run` is the counts-only mode of the same scheme, for every
offspring law: it evolves the generation sizes of many replicates at once
and builds no tree, so mass and the count at the cap (heights, Z_a,
sigma) come from it.  Experiments that mark and prune grow many
replicates as one tree with `gw_forest`, whose node -> replicate label
lets `MarkedTree.read` reduce every replicate at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mechanism import DomainError, Mechanism, NumericError
from .tree import BINARY, INFINITE, LEAF, ROOT, FiniteTree, _with_depth, single_root


@dataclass(frozen=True)
class RngStream:
    """Deterministic per-replicate random generators.

    Replicate k draws from Philox keyed by (seed, path, k), so the same
    triple gives the same stream no matter in what order replicates run.
    """

    seed: int
    path: tuple = ()

    def child(self, *idx):
        return RngStream(self.seed, self.path + tuple(int(i) for i in idx))

    def generator(self):
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def replicate(self, k):
        return self.child(k).generator()


@dataclass(frozen=True)
class GwScheme:
    """Offspring law and rates for one (mechanism, resolution) pair."""

    mech: Mechanism
    n: int
    gamma: float
    probs: np.ndarray

    @classmethod
    def build(cls, mech, n, gamma=None):
        if mech.criticality() == "supercritical":
            raise DomainError("scheme needs a (sub)critical mechanism; "
                              "sample supercritical windows through the conjugate")
        if not mech.is_grey:
            raise DomainError("scheme needs c > 0")
        n = int(n)
        if n < 1:
            raise DomainError(f"resolution n must be a positive integer, got {n}")

        b, c = mech.b, mech.c
        jump_mean = sum(p.w * p.unit_first_moment for p in mech.m)
        ks1 = np.array([1])
        jump_at_1 = float(sum(p.gw_pmf(n, ks1)[0] for p in mech.m))
        gamma_min = b + 2.0 * c * n + jump_mean - jump_at_1 / n
        if gamma is None:
            gamma = gamma_min
        elif gamma < gamma_min * (1.0 - 1e-12):
            raise DomainError(
                f"gamma = {gamma} below the minimal rate {gamma_min}")

        kmax = 2
        for p in mech.m:
            kmax = max(kmax, p.gw_quantile(n, 1.0 - 1e-14) + 2)
        ks = np.arange(kmax + 1)
        probs = np.zeros(kmax + 1)
        probs[0] = mech.psi(n) / (n * gamma)
        probs[2] += c * n / gamma
        if mech.m:
            jump = np.zeros(kmax + 1)
            for p in mech.m:
                jump += p.gw_pmf(n, ks)
            probs[2:] += jump[2:] / (n * gamma)
            a1 = -b * n - 2.0 * c * n * n + jump[1] - n * jump_mean
        else:
            a1 = -b * n - 2.0 * c * n * n
        probs[1] = 1.0 + a1 / (n * gamma)

        if np.any(probs < -1e-12):
            raise NumericError(f"negative offspring coefficient: min {probs.min()}")
        probs = np.maximum(probs, 0.0)
        tail = 1.0 - probs.sum()
        if tail > 1e-12:
            raise NumericError(f"offspring tail {tail} above truncation budget")
        probs = probs / probs.sum()
        mean = float(np.arange(kmax + 1) @ probs)
        if abs(mean - (1.0 - b / gamma)) > 1e-8:
            raise NumericError(f"offspring mean {mean} != 1 - b/gamma")

        return cls(mech, n, float(gamma), probs)

    @cached_property
    def _cum(self):
        return np.cumsum(self.probs)

    @property
    def mass_unit(self):
        return 1.0 / (self.n * self.gamma)

    def sample_offspring(self, rng, size):
        u = rng.random(size)
        return np.minimum(self._cum.searchsorted(u, "right"), len(self.probs) - 1)

    @cached_property
    def _binary_p2(self):
        """The s^2 coefficient c*n/gamma of g(s) when the law lives on
        {0, 2} (quadratic at the minimal rate), else None."""
        b, c, n = self.mech.b, self.mech.c, self.n
        if self.mech.m or self.gamma != b + 2.0 * c * n:
            return None
        return c * n / self.gamma

    def offspring_totals(self, rng, counts):
        """Total offspring of groups of counts[i] > 0 individuals each.

        A law on {0, 2} takes one binomial per group; any other law draws
        every individual, in group order, as `_grow` does.
        """
        p2 = self._binary_p2
        if p2 is not None:
            return 2 * rng.binomial(counts, p2)
        ks = self.sample_offspring(rng, int(counts.sum()))
        return np.add.reduceat(ks, np.cumsum(counts) - counts)


# individuals one growth may hold: over 20x the largest tree (about 1.1
# million individuals) that the acceptance configs grow
NODE_BUDGET = 25_000_000


def _grow(scheme, rng, n_roots, height_cap):
    """Generation-major growth of n_roots >= 0 ancestors below height_cap
    (None for no cap).  Returns (parents, offspring counts, generation
    start offsets); parents of generation 0 are -1.  Raises NumericError
    once the individuals grown pass NODE_BUDGET."""
    # generation g is born at depth g/gamma; only gens born strictly below
    # the cap exist
    max_children_gen = _level_generation(scheme.gamma, height_cap)
    ks_blocks = []
    offsets = [0]
    g = 0
    cur = n_roots
    while True:
        if g + 1 > max_children_gen:
            ks = np.zeros(cur, dtype=np.int64)
        else:
            ks = scheme.sample_offspring(rng, cur).astype(np.int64, copy=False)
        ks_blocks.append(ks)
        offsets.append(offsets[-1] + cur)
        kids = int(ks.sum())
        if kids == 0:
            break
        if offsets[-1] + kids > NODE_BUDGET:
            raise NumericError(
                f"tree growth passed the node budget of {NODE_BUDGET} individuals")
        cur = kids
        g += 1
    ks = np.concatenate(ks_blocks)
    # children follow their parents' order, generation after generation
    par = np.concatenate([np.full(n_roots, -1, dtype=np.int64),
                          np.arange(len(ks), dtype=np.int64).repeat(ks)])
    return par, ks, offsets


def _tree_from_growth(scheme, par, ks, offsets, root_delta=0.0):
    """The tree of a `_grow` result, node i + 1 for individual i, with its
    depth handed down: generation g sits at the running sum of g + 1 steps
    of 1/gamma, the same additions the depth loop makes."""
    total = len(par)
    n, step = scheme.n, 1.0 / scheme.gamma
    size = total + 1

    parent = np.empty(size, dtype=np.int64)
    parent[0] = -1
    np.add(par, 1, out=parent[1:])
    length = np.full(size, step)
    length[0] = 0.0
    kind = np.full(size, BINARY, dtype=np.int8)
    kind[0] = ROOT
    leaves = (ks == 0).nonzero()[0]
    many = (ks >= 3).nonzero()[0]
    kind[leaves + 1] = LEAF
    kind[many + 1] = INFINITE
    delta = np.zeros(size)
    delta[0] = root_delta
    delta[many + 1] = ks[many] / n

    # Each individual's mass rides down its first-child chain to the leaf
    # that ends it, so a leaf's atom counts the individuals on its chain.
    # Children sit in parent order from offsets[1] on, so p's first child
    # is offsets[1] + (children of individuals before p).  The counts come
    # from Wyllie list ranking over the links from each first child up to
    # its parent: every round adds the count at the link's far end and
    # doubles the link, so a chain of length L is done in log2(L) rounds.
    # The counts are exact integers, so the atoms match a per-generation
    # running sum bit for bit.
    count = np.ones(total, dtype=np.int64)
    up = np.full(total, -1, dtype=np.int64)
    parents = ks.nonzero()[0]
    firsts = offsets[1] + (np.cumsum(ks) - ks)[parents]
    up[firsts] = parents
    live = firsts
    while len(live):
        far = up[live]
        count[live] += count[far]
        up[live] = up[far]
        live = live[up[live] >= 0]
    mu = np.zeros(size)
    mu[leaves + 1] = count[leaves] * scheme.mass_unit

    levels = np.add.accumulate(np.full(len(offsets) - 1, step))
    depth = np.empty(size)
    depth[0] = 0.0
    depth[1:] = levels.repeat(np.diff(offsets))
    return _with_depth(FiniteTree(parent, length, kind, delta, mu, 1.0 / n), depth)


def gw_tree(scheme, rng, height_cap=None):
    """One excursion: the tree of a single ancestor.

    N[F] is estimated by scheme.n * mean(F) over independent calls, for
    functionals vanishing on the trivial tree.
    """
    par, ks, offsets = _grow(scheme, rng, 1, height_cap)
    return _tree_from_growth(scheme, par, ks, offsets)


def gw_forest(scheme, rng, size, height_cap=None):
    """size excursions under one massless root, and each node's replicate
    (-1 for the root).  Excursion k is the tree of node k + 1.  The root
    has no edge and one child per excursion, so it takes no marks: pruning
    the forest prunes each excursion as it would `gw_tree`'s tree, only
    the order of the draws differs."""
    par, ks, offsets = _grow(scheme, rng, size, height_cap)
    # root individual of each individual by pointer doubling: the roots
    # point at themselves, and pass k reaches 2^k generations up
    anc = par.copy()
    anc[:size] = np.arange(size)
    for _ in range((len(offsets) - 2).bit_length()):
        anc = anc[anc]
    return _tree_from_growth(scheme, par, ks, offsets), np.concatenate([[-1], anc])


def forest_under_Pr(scheme, r, rng, height_cap=None):
    """Forest of Poisson(r*n) excursions hanging at a root of mass r."""
    if not r > 0:
        raise DomainError(f"initial mass r must be positive, got {r}")
    par, ks, offsets = _grow(scheme, rng, int(rng.poisson(r * scheme.n)), height_cap)
    return _tree_from_growth(scheme, par, ks, offsets, root_delta=float(r))


def cap_crossings(tree, cap):
    """Level mass of a cap-aligned tree, read a hair below the cap.

    Edge depths are running sums of 1/gamma steps, so a tree grown to an
    exactly aligned cap (cap * gamma integral) can land an ulp under it
    and a straight level_mass(cap) would miss every crossing edge.
    """
    return tree.level_mass(cap * (1.0 - 1e-9))


def exact_sigma_quadratic(b, c, r, rng, size=None):
    """Total-mass sample for psi = b*lam + c*lam^2 under initial mass r.

    Inverse Gaussian for b > 0 and its b = 0 stable-1/2 limit; both have
    Laplace transform exp(-r * psi_inverse(lam)).
    """
    if b < 0:
        raise DomainError("exact total-mass sampling needs b >= 0")
    if not (c > 0 and r > 0):
        raise DomainError(f"need c > 0 and r > 0, got c={c}, r={r}")
    shape = r * r / (2.0 * c)
    if b == 0:
        z = rng.standard_normal(size)
        return shape / (z * z)
    return rng.wald(r / b, shape, size)


def _spine_jumps(mech0, h, rng):
    """Jump nodes on a spine of length h: Poisson positions (unsorted) at
    rate integral(z m_0(dz)), each with a size-biased initial mass."""
    rates = np.array([p.w * p.unit_first_moment for p in mech0.m])
    total = float(rates.sum())
    count = int(rng.poisson(total * h)) if total > 0 else 0
    pos = rng.uniform(0.0, h, count)
    if not count:
        return pos, np.zeros(0)
    pick = rng.choice(len(rates), p=rates / total, size=count)
    return pos, np.array([float(mech0.m[i].sample_sizes_biased(rng, 1)[0]) for i in pick])


def _spine_tree(pos, kind, delta, h, n):
    """The segment [0, h] with nodes of the given kinds at sorted positions."""
    parent = np.arange(-1, len(pos) + 1, dtype=np.int64)
    length = np.concatenate([[0.0], np.diff(np.concatenate([[0.0], pos, [h]]))])
    kind = np.concatenate([[ROOT], kind, [LEAF]]).astype(np.int8)
    delta = np.concatenate([[0.0], delta, [0.0]])
    return FiniteTree(parent, length, kind, delta, np.zeros(len(pos) + 2), 1.0 / n)


def spine_line(mech0, h, rng, n):
    """The spine of length h with its jump nodes, grafts left out.

    A pruning cut of the spine only feels marks on the spine itself, so the
    grafts (the expensive part of `infinite_crt`) never matter for it.
    """
    pos, sizes = _spine_jumps(mech0, h, rng)
    return _spine_tree(np.sort(pos), np.full(len(pos), INFINITE), sizes, h, n)


def infinite_crt(fam, height_cap, rng, n):
    """The immortal-spine tree truncated at height_cap.

    A spine of that length receives two independent Poisson families of
    grafts: excursions at rate 2*c*n per unit length, and jump forests
    at rate integral(z m_0(dz)), each with a size-biased initial mass.
    """
    mech0 = fam.psi_at(0.0)
    if mech0.criticality() != "critical":
        raise DomainError("spine sampling needs the mechanism at 0 critical")
    if not mech0.is_grey:
        raise DomainError("spine sampling needs c > 0")
    h = float(height_cap)
    if h < 0:
        raise DomainError(f"height cap must be nonnegative, got {height_cap}")
    if h == 0.0:
        return single_root(scale=1.0 / n)
    scheme = GwScheme.build(mech0, n)

    n1 = int(rng.poisson(2.0 * mech0.c * n * h))
    x1 = rng.uniform(0.0, h, n1)
    x2, sizes = _spine_jumps(mech0, h, rng)

    pos = np.concatenate([x1, x2])
    is_jump = np.concatenate([np.zeros(n1, bool), np.ones(len(x2), bool)])
    size_at = np.concatenate([np.zeros(n1), sizes])
    order = np.argsort(pos)
    pos, is_jump, size_at = pos[order], is_jump[order], size_at[order]
    if len(pos) and not (pos[0] > 0 and pos[-1] < h and np.all(np.diff(pos) > 0)):
        raise NumericError("coincident spine graft positions")
    spine = _spine_tree(pos, np.where(is_jump, INFINITE, BINARY), size_at, h, n)

    grafts = []
    for j in range(len(pos)):
        rest = h - pos[j]
        if is_jump[j]:
            sub = forest_under_Pr(scheme, size_at[j], rng, height_cap=rest)
        else:
            sub = gw_tree(scheme, rng, height_cap=rest)
        grafts.append((j + 1, sub))
    return spine.graft(grafts)


def supercritical_window(fam, q, height_cap, rng, n):
    """(tree, weight): a weighted sample targeting the supercritical tree
    below height_cap.

    Draws from the conjugate (subcritical) mechanism and reweights by
    exp(eta * Z_a); with eta = 0 this is plain sampling at weight 1.
    """
    mech_q = fam.psi_at(q)
    eta = mech_q.eta
    conj = mech_q if eta == 0.0 else mech_q.conjugate(eta)
    a = float(height_cap)
    tree = gw_tree(GwScheme.build(conj, n), rng, a).restrict_below(a)
    return tree, math.exp(eta * cap_crossings(tree, a)) if eta > 0 else 1.0


# ---------------------------------------------------------- population counts


@dataclass(frozen=True)
class PopulationRun:
    """Generation counts of a scheme, no trees materialized: individuals
    born up to the stop generation, and those of the cap's generation."""

    n: int
    gamma: float
    totals: np.ndarray
    at_cap: np.ndarray

    def sigma(self):
        """Mass born up to the stop generation, by replicate."""
        return self.totals / (self.n * self.gamma)

    def z_cap(self):
        """Level mass Z at the cap, by replicate."""
        return self.at_cap / self.n


def _level_generation(gamma, a):
    """The generation crossing level a, inf for a = None (no cap):
    individuals of generation g span (g/gamma, (g+1)/gamma].  The one
    check of a height cap."""
    if a is None:
        return math.inf
    if not 0.0 < a < math.inf:
        raise DomainError(f"height cap must be positive and finite, got {a}")
    return int(math.ceil(a * gamma - 1e-9)) - 1


def population_run(scheme, rng, replicates, init=None, height_cap=None, edge_survival=1.0):
    """Evolve the generation counts of many replicates of one scheme.

    init = None starts one ancestor per replicate (excursion sampling);
    init = r starts Poisson(r*n) ancestors, and an array of one r per
    replicate starts replicate i from Poisson(r_i*n).  edge_survival < 1 thins
    every edge independently, which realizes skeleton pruning.  Totals
    accumulate up to extinction or generation `_level_generation(gamma,
    height_cap)`, the one crossing the cap, whose counts are `at_cap`
    (zero without a cap).  Critical runs need a cap.

    Each generation draws the offspring of all live replicates in one
    `GwScheme.offspring_totals` call, and the counts are those of the tree
    samplers:

    * a law on {0, 2} (quadratic at the minimal rate) draws
      2 * Binomial(z, c*n/gamma) per replicate;
    * any other law draws its individuals in replicate order, so with
      init = None and edge_survival = 1 the counts by replicate equal the
      counts by root of the `_grow(scheme, rng, replicates, cap)` forest
      on the same generator;
    * both stop at the cap's generation, which is `_grow`'s
      `max_children_gen`;
    * for a tree grown to cap a, `cap_crossings(tree, a) > 0` exactly when
      `at_cap > 0`, and `total_mass()` is the individual count times
      `mass_unit`.
    """
    if not 0.0 < edge_survival <= 1.0:
        raise DomainError(f"edge survival must be in (0, 1], got {edge_survival}")
    n, gamma = scheme.n, scheme.gamma
    last_gen = _level_generation(gamma, height_cap)
    if last_gen == math.inf and scheme.mech.criticality() == "critical":
        raise DomainError("critical run needs a height cap")

    if init is None:
        z = np.ones(replicates, dtype=np.int64)
    else:
        r = np.asarray(init, dtype=float)
        if r.ndim and r.shape != (replicates,):
            raise DomainError(f"need one initial mass per replicate, got shape {r.shape}")
        if not np.all(r > 0):
            raise DomainError(f"initial mass must be positive, got {r.min() if r.ndim else init}")
        z = rng.poisson(r * n, replicates).astype(np.int64)
    if edge_survival < 1.0:
        z = rng.binomial(z, edge_survival)

    totals = z.copy()
    at_cap = np.zeros(replicates, dtype=np.int64)
    idx = np.flatnonzero(z > 0)
    z = z[idx]
    g = 0
    while len(idx) > 0:
        if g >= last_gen:
            at_cap[idx] = z
            break
        kids = scheme.offspring_totals(rng, z)
        if edge_survival < 1.0:
            kids = rng.binomial(kids, edge_survival)
        totals[idx] += kids
        keep = kids > 0
        idx = idx[keep]
        z = kids[keep]
        g += 1
    return PopulationRun(n, gamma, totals, at_cap)
