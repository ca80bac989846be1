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

`population_run` is the counts-only mode of the same scheme, for every
offspring law: it evolves the generation sizes of many replicates at once
and builds no tree, so level and mass functionals (heights, Z_a, sigma)
come from it; experiments that mark and prune keep `gw_tree`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mechanism import DomainError, Mechanism, NumericError
from .tree import BINARY, INFINITE, LEAF, ROOT, FiniteTree, single_root


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
class WeightedSample:
    tree: FiniteTree
    weight: float


@dataclass(frozen=True)
class GwScheme:
    """Offspring law and rates for one (mechanism, resolution) pair."""

    mech: Mechanism
    n: int
    gamma: float
    probs: np.ndarray
    height_cap: float | None = None
    _cum: np.ndarray = field(default=None, repr=False)

    @classmethod
    def build(cls, mech, n, height_cap=None, gamma=None):
        if mech.criticality() == "supercritical":
            raise DomainError("scheme needs a (sub)critical mechanism; "
                              "sample supercritical windows through the conjugate")
        if not mech.is_grey:
            raise DomainError("scheme needs c > 0")
        n = int(n)
        if n < 1:
            raise DomainError(f"resolution n must be a positive integer, got {n}")
        if height_cap is not None and not height_cap > 0:
            raise DomainError(f"height cap must be positive, got {height_cap}")

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

        return cls(mech, n, float(gamma), probs, height_cap,
                   _cum=np.cumsum(probs))

    def __post_init__(self):
        if self._cum is None:
            object.__setattr__(self, "_cum", np.cumsum(self.probs))

    @property
    def mass_unit(self):
        return 1.0 / (self.n * self.gamma)

    def sample_offspring(self, rng, size):
        u = rng.random(size)
        return np.minimum(np.searchsorted(self._cum, u, side="right"),
                          len(self.probs) - 1)

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
    """Generation-major growth.  Returns (parents, offspring counts,
    generation start offsets); parents of generation 0 are -1.  Raises
    NumericError once the individuals grown pass NODE_BUDGET."""
    gamma = scheme.gamma
    max_children_gen = math.inf
    if height_cap is not None:
        # generation g is born at depth g/gamma; only gens born strictly
        # below the cap exist
        max_children_gen = math.ceil(height_cap * gamma - 1e-9) - 1
    par_blocks = [np.full(n_roots, -1, dtype=np.int64)]
    ks_blocks = []
    offsets = [0]
    g = 0
    cur = n_roots
    while cur > 0:
        if g + 1 > max_children_gen:
            ks = np.zeros(cur, dtype=np.int64)
        else:
            ks = scheme.sample_offspring(rng, cur).astype(np.int64)
        ks_blocks.append(ks)
        offsets.append(offsets[-1] + cur)
        kids = int(ks.sum())
        if kids == 0:
            break
        if offsets[-1] + kids > NODE_BUDGET:
            raise NumericError(
                f"tree growth passed the node budget of {NODE_BUDGET} individuals")
        ids = np.arange(offsets[-2], offsets[-1], dtype=np.int64)
        par_blocks.append(np.repeat(ids, ks))
        cur = kids
        g += 1
    return (np.concatenate(par_blocks),
            np.concatenate(ks_blocks),
            offsets)


def _tree_from_growth(scheme, par, ks, offsets, root_delta=0.0):
    total = len(par)
    n, gamma = scheme.n, scheme.gamma
    unit = scheme.mass_unit

    kind = np.where(ks == 0, LEAF, np.where(ks >= 3, INFINITE, BINARY))
    delta = np.where(ks >= 3, ks / n, 0.0)

    # each individual's mass rides down its first-child chain to a leaf
    is_first = np.empty(total, dtype=bool)
    n0 = offsets[1]
    is_first[:n0] = False
    if total > n0:
        is_first[n0] = True
        is_first[n0 + 1:] = par[n0 + 1:] != par[n0:-1]
    contrib = np.ones(total)
    for lo, hi in zip(offsets[1:-1], offsets[2:]):
        block = slice(lo, hi)
        contrib[block] += np.where(is_first[block], contrib[par[block]], 0.0)
    mu = np.where(ks == 0, contrib * unit, 0.0)

    parent = np.concatenate([[-1], par + 1])
    length = np.concatenate([[0.0], np.full(total, 1.0 / gamma)])
    kind = np.concatenate([[ROOT], kind]).astype(np.int8)
    delta = np.concatenate([[root_delta], delta])
    mu = np.concatenate([[0.0], mu])
    return FiniteTree(parent, length, kind, delta, mu, 1.0 / n)


def gw_tree(scheme, rng, height_cap=None):
    """One excursion: the tree of a single ancestor.

    N[F] is estimated by scheme.n * mean(F) over independent calls, for
    functionals vanishing on the trivial tree.
    """
    cap = scheme.height_cap if height_cap is None else height_cap
    par, ks, offsets = _grow(scheme, rng, 1, cap)
    return _tree_from_growth(scheme, par, ks, offsets)


def forest_under_Pr(scheme, r, rng, height_cap=None):
    """Forest of Poisson(r*n) excursions hanging at a root of mass r."""
    if not r > 0:
        raise DomainError(f"initial mass r must be positive, got {r}")
    cap = scheme.height_cap if height_cap is None else height_cap
    n_exc = int(rng.poisson(r * scheme.n))
    if n_exc == 0:
        root = single_root(scale=1.0 / scheme.n)
        return FiniteTree(root.parent, root.length, root.kind,
                          np.array([float(r)]), root.mu, root.scale)
    par, ks, offsets = _grow(scheme, rng, n_exc, cap)
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
    """Weighted sample targeting the supercritical tree below height_cap.

    Draws from the conjugate (subcritical) mechanism and reweights by
    exp(eta * Z_a); with eta = 0 this is plain sampling at weight 1.
    """
    a = float(height_cap)
    if not (a > 0 and math.isfinite(a)):
        raise DomainError(f"need a finite positive height cap, got {height_cap}")
    mech_q = fam.psi_at(q)
    eta = mech_q.eta
    conj = mech_q if eta == 0.0 else mech_q.conjugate(eta)
    scheme = GwScheme.build(conj, n, height_cap=a)
    tree = gw_tree(scheme, rng).restrict_below(a)
    weight = math.exp(eta * cap_crossings(tree, a)) if eta > 0 else 1.0
    return WeightedSample(tree, weight)


# ---------------------------------------------------------- population counts


@dataclass(frozen=True)
class PopulationRun:
    """Generation counts of a scheme, no trees materialized."""

    n: int
    gamma: float
    levels: tuple
    totals: np.ndarray
    z_counts: np.ndarray

    def sigma(self):
        """Mass born up to the stop generation, by replicate."""
        return self.totals / (self.n * self.gamma)

    def z_at(self, level):
        return self.z_counts[self.levels.index(level)] / self.n

    def alive_at(self, level):
        return self.z_counts[self.levels.index(level)] > 0


def _level_generation(gamma, a):
    # individuals of generation g span (g/gamma, (g+1)/gamma]
    x = a * gamma
    return int(math.ceil(x - 1e-9)) - 1


def population_run(scheme, rng, replicates, levels=(), init=None,
                   height_cap=None, edge_survival=1.0):
    """Evolve the generation counts of many replicates of one scheme.

    init = None starts one ancestor per replicate (excursion sampling);
    init = r starts Poisson(r*n) ancestors.  edge_survival < 1 thins
    every edge independently, which realizes skeleton pruning.  Totals
    accumulate up to extinction, the height cap (the scheme's unless one
    is given), or for critical runs without a cap the last recorded level.

    Each generation draws the offspring of all live replicates in one
    `GwScheme.offspring_totals` call, and the counts are those of the tree
    samplers:

    * a law on {0, 2} (quadratic at the minimal rate) draws
      2 * Binomial(z, c*n/gamma) per replicate;
    * any other law draws its individuals in replicate order, so with
      init = None and edge_survival = 1 the counts by replicate equal the
      counts by root of the `_grow(scheme, rng, replicates, cap)` forest
      on the same generator;
    * both stop at generation `_level_generation(gamma, cap)`, which is
      `_grow`'s `max_children_gen`;
    * for a tree grown to cap a, `cap_crossings(tree, a) > 0` exactly when
      generation `_level_generation(gamma, a)` is nonempty, and
      `total_mass()` is the individual count times `mass_unit`.
    """
    if not 0.0 < edge_survival <= 1.0:
        raise DomainError(f"edge survival must be in (0, 1], got {edge_survival}")
    n, gamma = scheme.n, scheme.gamma
    cap = scheme.height_cap if height_cap is None else height_cap

    level_gens = [_level_generation(gamma, a) for a in levels]
    if any(g < 0 for g in level_gens):
        raise DomainError("levels must be positive")
    if cap is not None:
        last_gen = _level_generation(gamma, cap)
    elif scheme.mech.criticality() == "critical":
        if not levels:
            raise DomainError("critical run needs a height cap or levels")
        last_gen = max(level_gens)
    else:
        last_gen = None

    if init is None:
        z = np.ones(replicates, dtype=np.int64)
    else:
        if not init > 0:
            raise DomainError(f"initial mass must be positive, got {init}")
        z = rng.poisson(init * n, replicates).astype(np.int64)
    if edge_survival < 1.0:
        z = rng.binomial(z, edge_survival)

    totals = z.copy()
    z_counts = np.zeros((len(levels), replicates), dtype=np.int64)
    idx = np.flatnonzero(z > 0)
    z = z[idx]
    g = 0
    while len(idx) > 0:
        for j, ga in enumerate(level_gens):
            if ga == g:
                z_counts[j, idx] = z
        if last_gen is not None and g >= last_gen:
            break
        kids = scheme.offspring_totals(rng, z)
        if edge_survival < 1.0:
            kids = rng.binomial(kids, edge_survival)
        totals[idx] += kids
        keep = kids > 0
        idx = idx[keep]
        z = kids[keep]
        g += 1
    return PopulationRun(n, gamma, tuple(levels), totals, z_counts)
