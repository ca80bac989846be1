"""Random tree generation by rescaled branching processes.

The continuum objects are approximated by Galton-Watson trees in which
one individual is an edge of length 1/gamma carrying mass 1/(n*gamma).
The offspring law comes from the generating function

    g(s) = s + psi(n*(1 - s)) / (n * gamma),

whose coefficients are nonnegative once gamma is at least the minimal
branching rate computed in `GwScheme.build`.  With the minimal rate the
one-child probability vanishes, so every node is a leaf, a binary node,
or a many-child node of mass k/n: the tree's delta is k/n on an individual
of k >= 3 children and 0 elsewhere, so delta > 0 marks the many-child nodes.

Normalization conventions, used consistently by the verification
experiments:

* excursion estimates: N[F] is approximated by n * mean(F(tree)) over
  single-ancestor trees, for F vanishing on the trivial tree;
* level masses: Z_a is the size of the generation crossing a over n
  (`PopulationRun.z_cap`);
* total mass: sigma is (number of individuals) / (n * gamma), stored as
  leaf atoms (each individual's mass rides down first-child edges to
  the leaf that ends the chain).

A `GwScheme` is the offspring law at resolution n and nothing more, and
`GwScheme.build` hands equal arguments one immutable scheme from a bounded
cache, so repeated in-process calls build each law once.  The height cap,
below which a tree is grown, is an argument of each grower (`gw_tree`,
`gw_forest`, `population_run`), None for no cap, and
`_level_generation` is where it is checked.  `GwScheme.offspring_of` maps
uniforms to offspring counts by prefix compares, and `_grow` draws them in
doubling blocks, walking the generations over prefix sums.

`population_run` is the counts-only mode of the same scheme, for every
offspring law: it evolves the generation sizes of many replicates at once
and builds no tree, so mass, the count at the cap and each replicate's
last generation (heights, Z_a, sigma) come from it.  One run capped at the
highest of several levels answers every level: a replicate crosses level
a iff its last generation reaches the generation crossing a.  Most of a
run's generations hold a few survivors, so once at most `TAIL_REPLICATES`
replicates are alive the run leaves numpy for a plain Python loop, with
the same draws in the same order: numpy's scalar binomial yields the values
of its array call and leaves the generator where that call would, and any
other law reads its offspring from chunks of uniforms mapped once, as
`_grow` does, then skips the generator to where the uniforms used leave it.
Experiments that mark and prune grow many replicates as one tree, with
`gw_forest` or, for the immortal spine, `spine_forest`, whose node ->
replicate label lets `MarkedTree.read` and `MarkedTree.first_cut` reduce
every replicate at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .mechanism import DomainError, Mechanism, NumericError
from .tree import FiniteTree, _grown


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
        """The scheme of mech at resolution n and branching rate gamma, None
        for the minimal rate.  Equal (mech, n, gamma) share one scheme while
        it is among the SCHEME_CACHE last built; a failed build is kept by
        no one, so it raises again on every call."""
        return _build_scheme(mech, n, gamma)

    @cached_property
    def _cum(self):
        cum = np.cumsum(self.probs)
        cum[-1] = np.inf  # no count past len(probs) - 1, whatever the rounded total
        return cum

    @property
    def mass_unit(self):
        return 1.0 / (self.n * self.gamma)

    def offspring_of(self, u):
        """Offspring counts of uniforms u, cum.searchsorted(u, "right") taken
        as three prefix compares; searchsorted runs on the rare u >= cum[2]."""
        cum = self._cum
        k = ((u >= cum[0]).view(np.int8) + (u >= cum[1]).view(np.int8)).astype(np.int64)
        tail = (u >= cum[2]).nonzero()[0]
        k[tail] = cum.searchsorted(u[tail], "right")
        return k

    def sample_offspring(self, rng, size):
        return self.offspring_of(rng.random(size))

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


# schemes kept per process: a build evaluates scipy's Poisson pmf and ppf
# for each jump part, and in-process callers repeat a few (mech, n, gamma)
SCHEME_CACHE = 64


@lru_cache(maxsize=SCHEME_CACHE)
def _build_scheme(mech, n, gamma):
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

    probs.setflags(write=False)  # shared by every caller of the cache
    return GwScheme(mech, n, float(gamma), probs)


# individuals one growth may hold: over 20x the largest tree (about 1.1
# million individuals) that the acceptance configs grow
NODE_BUDGET = 25_000_000

# expected nodes in one forest that an experiment marks: enough that the
# per-generation steps of growth are few, few enough that the forest's
# arrays stay small, whatever the replicate count
NODE_TARGET = 30_000


def _grow(scheme, rng, n_roots, height_cap):
    """Generation-major growth of n_roots >= 0 ancestors below height_cap
    (None for no cap).  Returns (parents, offspring counts, generation
    start offsets, offspring prefix sums csum); parents of generation 0 are
    -1, and csum[i] counts the children of individuals 0..i-1 for i up to
    the last individual that drew.  Raises NumericError once the
    individuals grown pass NODE_BUDGET.

    Individual i takes `offspring_of` the i-th uniform of rng, and the
    cap's generation draws none.  Uniforms come in doubling blocks, the
    first as large as generation 0; at the end `_skip_uniforms` leaves rng
    where drawing exactly the uniforms used would, as one draw per
    generation does.  rng must draw from Philox, as `RngStream`'s do."""
    # generation g is born at depth g/gamma; only gens born strictly below
    # the cap exist
    max_children_gen = _level_generation(scheme.gamma, height_cap)
    _need_philox(rng, "growth")
    start = rng.bit_generator.state
    # csum[i]: offspring of individuals 0..i-1 over the uniforms drawn
    csum = np.zeros(1, dtype=np.int64)
    block = max(1, n_roots)
    offsets = [0]
    s, e = 0, n_roots  # generation g is individuals s..e-1
    # every generation but the last adds individuals, so the budget bounds them
    for g in range(NODE_BUDGET + 1):
        offsets.append(e)
        if g + 1 > max_children_gen:
            used = s
            break
        drawn = len(csum) - 1
        if drawn < e:
            # never past the budget, unless generation 0 alone passes it
            ks = scheme.offspring_of(rng.random(max(e - drawn, min(block, NODE_BUDGET - drawn))))
            csum = np.concatenate([csum, np.cumsum(ks) + csum[-1]])
            block *= 2
        cur = int(csum[e] - csum[s])
        if cur == 0:
            used = e
            break
        if e + cur > NODE_BUDGET:
            raise NumericError(
                f"tree growth passed the node budget of {NODE_BUDGET} individuals")
        s, e = e, e + cur
    _skip_uniforms(rng, start, used)
    ks = np.zeros(e, dtype=np.int64)
    ks[:used] = np.diff(csum[:used + 1])
    # children follow their parents' order, generation after generation, so
    # child j's parent is the number of individuals i with csum[i + 1] <= j
    kids = e - n_roots
    par = np.concatenate([np.full(n_roots, -1, dtype=np.int64),
                          np.cumsum(np.bincount(csum[1:used], minlength=kids)[:kids])])
    return par, ks, offsets, csum


def _need_philox(rng, what):
    """Raise DomainError unless rng draws from Philox, as `RngStream`'s do,
    which `_skip_uniforms` needs."""
    if not isinstance(rng.bit_generator, np.random.Philox):
        raise DomainError(f"{what} needs a Philox generator, as RngStream makes; "
                          f"got {type(rng.bit_generator).__name__}")


def _skip_uniforms(rng, start, used):
    """Put the Philox generator rng where `used` doubles drawn from its
    state `start` leave it.  Philox makes four 64-bit words per counter
    step into a buffer, and a double takes one word; drawing doubles never
    touches the buffered 32-bit half (has_uint32, uinteger).  So the words
    left in start's buffer only move buffer_pos; past them, the counter
    skips every full block, and the last 1-4 words are drawn to fill the
    buffer as the redraw would."""
    bits = rng.bit_generator
    pos = start["buffer_pos"]
    if used <= 4 - pos:
        start["buffer_pos"] = pos + used
        bits.state = start
        return
    rest = used - (4 - pos)
    blocks = (rest - 1) // 4
    bits.state = start
    bits.advance(blocks)  # also clears the buffer and the 32-bit half
    rng.random(rest - 4 * blocks)
    if start["has_uint32"]:
        state = bits.state
        state["has_uint32"], state["uinteger"] = start["has_uint32"], start["uinteger"]
        bits.state = state


def _tree_from_growth(scheme, par, ks, offsets, csum):
    """The tree of a `_grow` result, node i + 1 for individual i, with its
    depth and generations handed down: generation g starts at node
    offsets[g] + 1 and sits at `_generation_levels`[g], the same additions
    the depth loop makes.  Its leaf atoms are ranked on the first read of
    mu, by `_leaf_atoms`."""
    size = len(par) + 1

    parent = np.empty(size, dtype=np.int64)
    parent[0] = -1
    np.add(par, 1, out=parent[1:])
    length = np.full(size, 1.0 / scheme.gamma)
    length[0] = 0.0
    many = (ks >= 3).nonzero()[0]
    delta = np.zeros(size)
    delta[many + 1] = ks[many] / scheme.n

    levels = _generation_levels(scheme.gamma, len(offsets) - 1)
    depth = np.empty(size)
    depth[0] = 0.0
    depth[1:] = levels.repeat(np.diff(offsets))
    return _grown(parent, length, delta, depth, np.add(offsets, 1),
                  lambda: _leaf_atoms(scheme, ks, offsets, csum))


def _leaf_atoms(scheme, ks, offsets, csum):
    """The mu column of the tree of a `_grow` result, root slot included.

    Each individual's mass rides down its first-child chain to the leaf
    that ends it, so a leaf's atom counts the individuals on its chain.
    Children sit in parent order from offsets[1] on, so p's first child
    is offsets[1] + csum[p], csum[p] being the children of individuals
    before p.  The counts come from Wyllie list ranking over the links
    from each first child up to its parent: every round adds the count at
    the link's far end and doubles the link, so a chain of length L is
    done in log2(L) rounds.
    The counts are exact integers, so the atoms match a per-generation
    running sum bit for bit."""
    total = len(ks)
    count = np.ones(total, dtype=np.int64)
    up = np.full(total, -1, dtype=np.int64)
    parents = (ks != 0).nonzero()[0]
    firsts = offsets[1] + csum[parents]
    up[firsts] = parents
    live = firsts
    while len(live):
        far = up[live]
        count[live] += count[far]
        up[live] = up[far]
        live = live[up[live] >= 0]
    leaves = (ks == 0).nonzero()[0]
    mu = np.zeros(total + 1)
    mu[leaves + 1] = count[leaves] * scheme.mass_unit
    return mu


def _generation_levels(gamma, count):
    """Depths of generations 0..count-1: the running sum of count steps of
    1/gamma, the additions the depth loop makes down a grown tree.  A
    generation's level is the height of a tree whose last generation it is."""
    return np.add.accumulate(np.full(count, 1.0 / gamma))


def gw_tree(scheme, rng, height_cap=None):
    """One excursion: the tree of a single ancestor.

    N[F] is estimated by scheme.n * mean(F) over independent calls, for
    functionals vanishing on the trivial tree.
    """
    return _tree_from_growth(scheme, *_grow(scheme, rng, 1, height_cap))


def gw_forest(scheme, rng, size, height_cap=None):
    """size excursions under one massless root, and each node's replicate
    (-1 for the root).  Excursion k is the tree of node k + 1.  The root
    has no edge and one child per excursion, so it takes no marks: pruning
    the forest prunes each excursion as it would `gw_tree`'s tree, only
    the order of the draws differs."""
    par, ks, offsets, csum = _grow(scheme, rng, size, height_cap)
    # root individual of each individual by pointer doubling: the roots
    # point at themselves, and pass k reaches 2^k generations up
    anc = par.copy()
    anc[:size] = np.arange(size)
    for _ in range((len(offsets) - 2).bit_length()):
        anc = anc[anc]
    return _tree_from_growth(scheme, par, ks, offsets, csum), np.concatenate([[-1], anc])


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


def spine_forest(mech0, h, rng, size):
    """size spines of length h under one massless root, their grafts left
    out, and each node's replicate (-1 for the root).

    A spine carries Poisson(h * integral(z m_0(dz))) jump nodes at uniform
    heights, each a many-child node whose delta is a size-biased jump
    size, and its chain runs from the root through them in height order to
    a leaf at h.  A pruning cut of the spine only feels marks on the spine
    itself, so the grafts never matter for it.  Raises NumericError, before any height is drawn, once the
    nodes pass NODE_BUDGET.
    """
    rates = np.array([p.w * p.unit_first_moment for p in mech0.m])
    mean = float(rates.sum()) * h
    counts = rng.poisson(mean, size) if mean < NODE_BUDGET else None
    if counts is None or counts.sum() + size > NODE_BUDGET:
        raise NumericError(f"spine growth passed the node budget of {NODE_BUDGET} nodes")
    # chain k takes counts[k] jump slots in height order, then its leaf
    width = counts + 1
    label = np.repeat(np.arange(size), width)
    leaf = np.cumsum(width) - 1
    first = leaf - counts
    jump = np.ones(len(label), dtype=bool)
    jump[leaf] = False
    height = np.full(len(label), float(h))
    u = rng.uniform(0.0, h, len(label) - size)
    height[jump] = u[np.lexsort((u, label[jump]))]
    delta = np.zeros(len(label))
    if len(u):
        pick = rng.choice(len(rates), p=rates / rates.sum(), size=len(u))
        sizes = np.empty(len(u))
        for i, p in enumerate(mech0.m):
            at = pick == i
            sizes[at] = p.sample_sizes_biased(rng, int(at.sum()))
        delta[jump] = sizes

    below = np.concatenate([[0.0], height[:-1]])
    below[first] = 0.0
    parent = np.arange(-1, len(label), dtype=np.int64)
    parent[first + 1] = 0
    tree = FiniteTree(parent, np.concatenate([[0.0], height - below]),
                      np.concatenate([[0.0], delta]), np.zeros(len(label) + 1))
    return tree, np.concatenate([[-1], label])


# ---------------------------------------------------------- population counts


@dataclass(frozen=True)
class PopulationRun:
    """Generation counts of a scheme, no trees materialized, by replicate:

    * totals: individuals born up to the stop generation;
    * at_cap: individuals of the cap's generation, the stop generation;
    * last_gen: the last generation holding an individual, at most the
      stop generation (-1 for a replicate that starts empty), so at_cap > 0
      exactly where last_gen is the stop generation, and the replicate
      crosses a level a below the cap exactly where last_gen >=
      `_level_generation(gamma, a)`.
    """

    n: int
    gamma: float
    totals: np.ndarray
    at_cap: np.ndarray
    last_gen: np.ndarray

    def sigma(self):
        """Mass born up to the stop generation, by replicate."""
        return self.totals / (self.n * self.gamma)

    def z_cap(self):
        """Level mass Z at the cap, by replicate."""
        return self.at_cap / self.n

    def height(self):
        """Height by replicate: the level of its last generation, the
        depth `_tree_from_growth` gives that generation (0 where empty)."""
        levels = _generation_levels(self.gamma, int(self.last_gen.max(initial=-1)) + 1)
        return np.concatenate([[0.0], levels])[self.last_gen + 1]


def _level_generation(gamma, a):
    """The generation crossing level a, inf for a = None (no cap):
    individuals of generation g span (g/gamma, (g+1)/gamma], and the
    roundoff allowance never takes a level below generation 0.  The one
    check of a height cap."""
    if a is None:
        return math.inf
    if not 0.0 < a < math.inf:
        raise DomainError(f"height cap must be positive and finite, got {a}")
    return max(0, int(math.ceil(a * gamma - 1e-9)) - 1)


# live replicates at or below which `population_run` leaves numpy: a Python
# step per replicate then costs less than the fixed cost of an array call
TAIL_REPLICATES = 8

# fewest uniforms the tail draws at once for a law off {0, 2}: it reads them
# generation by generation, and chunks of 1k to 16k timed alike
UNIFORM_CHUNK = 4096


def population_run(scheme, rng, replicates, init=None, height_cap=None, edge_survival=1.0):
    """Evolve the generation counts of many replicates of one scheme.

    init = None starts one ancestor per replicate (excursion sampling);
    init = r starts Poisson(r*n) ancestors, and an array of one r per
    replicate starts replicate i from Poisson(r_i*n).  edge_survival < 1 thins
    every edge independently, which realizes skeleton pruning.  Totals
    accumulate up to extinction or generation `_level_generation(gamma,
    height_cap)`, the one crossing the cap, whose counts are `at_cap`
    (zero without a cap), and `last_gen` is the last generation each
    replicate reaches.  Critical runs need a cap.

    While more than TAIL_REPLICATES replicates are alive, each generation
    draws the offspring of all of them in one `GwScheme.offspring_totals`
    call, and the counts are those of the tree samplers:

    * a law on {0, 2} (quadratic at the minimal rate) draws
      2 * Binomial(z, c*n/gamma) per replicate;
    * any other law draws its individuals in replicate order, so with
      init = None and edge_survival = 1 the counts by replicate equal the
      counts by root of the `_grow(scheme, rng, replicates, cap)` forest
      on the same generator;
    * both stop at the cap's generation, which is `_grow`'s
      `max_children_gen`.

    Then `_population_tail` finishes the run in plain Python with the same
    draws in the same order, so the counts are those of the numpy loop run
    to the end.  An unthinned run of a law off {0, 2} raises DomainError
    unless rng draws from Philox, as `RngStream`'s do: its tail skips the
    uniforms it drew past its need.
    """
    if not 0.0 < edge_survival <= 1.0:
        raise DomainError(f"edge survival must be in (0, 1], got {edge_survival}")
    n, gamma = scheme.n, scheme.gamma
    stop = _level_generation(gamma, height_cap)
    if stop == math.inf and scheme.mech.criticality() == "critical":
        raise DomainError("critical run needs a height cap")
    if scheme._binary_p2 is None and edge_survival == 1.0:
        _need_philox(rng, "a counts run of a law off {0, 2}")  # for its Python tail

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
    last_gen = np.full(replicates, -1, dtype=np.int64)
    idx = np.flatnonzero(z > 0)
    z = z[idx]
    g = 0
    while len(idx) > TAIL_REPLICATES:
        last_gen[idx] = g
        if g >= stop:
            at_cap[idx] = z
            return PopulationRun(n, gamma, totals, at_cap, last_gen)
        kids = scheme.offspring_totals(rng, z)
        if edge_survival < 1.0:
            kids = rng.binomial(kids, edge_survival)
        totals[idx] += kids
        keep = kids > 0
        idx = idx[keep]
        z = kids[keep]
        g += 1
    if len(idx):
        born, last, cap = _population_tail(scheme, rng, z.tolist(), g, stop, edge_survival)
        totals[idx] += born
        last_gen[idx] = last
        at_cap[idx] = cap
    return PopulationRun(n, gamma, totals, at_cap, last_gen)


def _population_tail(scheme, rng, counts, g, stop, edge_survival):
    """The generations of `population_run` from g on, for the few replicates
    alive at g with counts > 0 individuals, one Python step each.

    A law on {0, 2} draws one scalar binomial per replicate in replicate
    order, which yields the values of one array call and leaves rng where
    it would.  Any other law reads its individuals' offspring, in replicate
    order, from uniforms drawn in chunks of at least UNIFORM_CHUNK and
    mapped once by `offspring_of`, as one `offspring_totals` call per
    generation would; at the end `_skip_uniforms` leaves rng where drawing
    exactly the uniforms used would, so rng must draw from Philox.
    Thinning draws one scalar binomial per replicate after the offspring,
    so a thinned law off {0, 2} keeps one `offspring_totals` call per
    generation.  Returns, by replicate, the individuals born from
    generation g + 1 on, the last generation reached and the count at the
    cap."""
    p2, binomial = scheme._binary_p2, rng.binomial
    chunked = p2 is None and edge_survival == 1.0
    if chunked:
        start = rng.bit_generator.state
        # ks[pos:]: offspring of the uniforms drawn and not yet read; used:
        # the uniforms read since start
        ks, pos, used = [], 0, 0
    born = [0] * len(counts)
    last = [0] * len(counts)
    cap = [0] * len(counts)
    live = list(range(len(counts)))  # positions of the live replicates
    while live:
        if g >= stop:
            for j, k in zip(live, counts):
                last[j] = g
                cap[j] = k
            break
        if p2 is not None:
            kids = [2 * binomial(k, p2) for k in counts]
        elif chunked:
            total = sum(counts)
            need = total - (len(ks) - pos)
            if need > 0:
                ks = ks[pos:] + scheme.offspring_of(rng.random(max(need, UNIFORM_CHUNK))).tolist()
                pos = 0
            kids = []
            for k in counts:
                kids.append(sum(ks[pos:pos + k]))
                pos += k
            used += total
        else:
            kids = scheme.offspring_totals(rng, np.array(counts, dtype=np.int64)).tolist()
        if edge_survival < 1.0:
            kids = [binomial(k, edge_survival) for k in kids]
        alive, counts = [], []
        for j, k in zip(live, kids):
            born[j] += k
            if k:
                alive.append(j)
                counts.append(k)
            else:
                last[j] = g
        live = alive
        g += 1
    if chunked:
        _skip_uniforms(rng, start, used)
    return born, last, cap
