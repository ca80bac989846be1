"""Sampler tests.

Offspring laws are checked against the generating function evaluated
directly (series vs closed form on an s-grid); tree statistics against
exact branching-process identities (progeny mean gamma/b, level-mass
means); the exact quadratic total-mass sampler against its Laplace
transform.  Monte Carlo assertions use 4 standard errors plus a small
allowance where the resolution bias enters.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps

from levytree import sampler, tree as trees
from levytree.family import LinearDriftFamily, ShiftFamily, TruncationFamily
from levytree.mechanism import DomainError, GammaDensity, Mechanism, NumericError, PointMass
from levytree.sampler import (
    GwScheme,
    RngStream,
    _grow,
    _level_generation,
    _tree_from_growth,
    exact_sigma_quadratic,
    gw_forest,
    gw_tree,
    population_run,
    spine_forest,
)
from levytree.tree import FiniteTree

QUAD = Mechanism(0.0, 1.0)
SUB = Mechanism(1.0, 1.0)
MIXED = Mechanism(0.5, 1.0, (PointMass(1.3, 0.8), GammaDensity(1.5, 2.0, 0.6)))
JUMP_SHIFT = ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),)), (-0.25, 3.0))
GAMMA_JUMPS = Mechanism(0.3, 1.0, (GammaDensity(1.5, 2.0, 0.6),))


# -- rng plumbing -------------------------------------------------------------


def test_rng_replicates_are_reproducible():
    s = RngStream(123)
    a = s.replicate(7).random(5)
    b = s.replicate(7).random(5)
    c = s.replicate(8).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_children_are_distinct_streams():
    s = RngStream(123)
    assert s.child(1).replicate(0).random() != s.child(2).replicate(0).random()
    assert s.child(1, 2).path == (1, 2)


# -- offspring law ------------------------------------------------------------


def test_quadratic_scheme_is_critical_binary():
    sch = GwScheme.build(QUAD, 5)
    assert sch.gamma == 10.0
    np.testing.assert_allclose(sch.probs, [0.5, 0.0, 0.5])


def test_subcritical_quadratic_scheme():
    sch = GwScheme.build(SUB, 10)
    assert sch.gamma == 21.0
    np.testing.assert_allclose(sch.probs, [11.0 / 21.0, 0.0, 10.0 / 21.0])
    assert np.arange(3) @ sch.probs == pytest.approx(1.0 - 1.0 / 21.0)


def test_offspring_pgf_matches_generating_function():
    n = 50
    sch = GwScheme.build(MIXED, n)
    assert sch.probs[1] == pytest.approx(0.0, abs=1e-12)
    assert sch.probs.sum() == pytest.approx(1.0, abs=1e-12)
    ks = np.arange(len(sch.probs))
    for s in (0.1, 0.37, 0.5, 0.9, 0.99):
        series = float(np.sum(sch.probs * s**ks))
        direct = s + MIXED.psi(n * (1.0 - s)) / (n * sch.gamma)
        assert series == pytest.approx(direct, abs=1e-10)


def test_offspring_moments_monte_carlo():
    n = 50
    sch = GwScheme.build(MIXED, n)
    rng = RngStream(21).replicate(0)
    draws = sch.sample_offspring(rng, 10**6).astype(float)
    mean_target = 1.0 - MIXED.b / sch.gamma
    assert abs(draws.mean() - mean_target) < 4 * draws.std() / 1000.0
    fact = draws * (draws - 1.0)
    target = MIXED.d2psi(0.0) * n / sch.gamma
    assert abs(fact.mean() - target) < 4 * fact.std() / 1000.0


TRUNC = TruncationFamily(Mechanism(0.1, 0.8, (PointMass(0.6, 0.7), PointMass(1.5, 0.4))),
                         h0=2.0, slope=1.0, g_rate=0.3, window=(-1.0, 1.2))


def searchsorted_offspring(scheme, u):
    """The plain map: entries of the cumulative law at or below u, clipped
    to the largest count."""
    cum = np.cumsum(scheme.probs)
    return np.minimum(cum.searchsorted(u, "right"), len(cum) - 1)


@pytest.mark.parametrize("mech", [QUAD, JUMP_SHIFT.psi_at(0.0), TRUNC.psi_at(0.0)],
                         ids=["quadratic", "shift", "truncation"])
def test_offspring_map_matches_searchsorted_at_the_ties(mech):
    sch = GwScheme.build(mech, 100)
    cum = np.cumsum(sch.probs)
    # u = cum[j] and its two neighbours: a prefix compare with > in place
    # of >= would move exactly these
    ties = np.concatenate([cum, np.nextafter(cum, -1.0), np.nextafter(cum, 1.0), [0.0]])
    u = np.concatenate([RngStream(8).replicate(0).random(10**6), ties[ties < 1.0]])
    got = sch.offspring_of(u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, searchsorted_offspring(sch, u))
    if mech is QUAD:
        assert sch.probs[1] == 0.0 and set(np.unique(got)) == {0, 2}
    else:
        assert got.max() >= 3


@pytest.mark.parametrize("n", [20, 100, 200, 2000])
def test_point_mass_offspring_law_is_scipys_poisson_bit_for_bit(n):
    # n*z from 1e-3 to 1e5
    for z in np.logspace(-3.0, 5.0, 33) / n:
        p = PointMass(float(z), 0.7)
        mu = n * p.z
        for q in (0.5, 1.0 - 1e-14):
            assert p.gw_quantile(n, q) == int(sps.poisson.ppf(q, mu)), (z, q)
        ks = np.arange(p.gw_quantile(n, 1.0 - 1e-14) + 3)
        got, want = p.gw_pmf(n, ks), 0.7 * sps.poisson.pmf(ks, mu)
        assert got.tobytes() == want.tobytes(), z


@pytest.mark.parametrize("fam", [JUMP_SHIFT, TRUNC], ids=["shift", "truncation"])
@pytest.mark.parametrize("q", [0.0, 1.0])
@pytest.mark.parametrize("n", [20, 100, 2000])
def test_jump_schemes_keep_the_bytes_of_scipy_stats(fam, q, n, monkeypatch):
    mech = fam.psi_at(q)
    got = sampler._build_scheme.__wrapped__(mech, n).probs
    # the reference: the point-mass law straight from scipy.stats.poisson
    monkeypatch.setattr(PointMass, "gw_pmf",
                        lambda self, n, ks: self.w * sps.poisson.pmf(ks, n * self.z))
    monkeypatch.setattr(PointMass, "gw_quantile",
                        lambda self, n, q: int(sps.poisson.ppf(q, n * self.z)))
    want = sampler._build_scheme.__wrapped__(mech, n).probs
    assert got.tobytes() == want.tobytes()


def test_scheme_rejects_bad_input():
    with pytest.raises(DomainError):
        GwScheme.build(Mechanism(-0.5, 1.0), 10)
    with pytest.raises(DomainError):
        GwScheme.build(Mechanism(1.0, 0.0, (PointMass(1.0, 1.0),)), 10)
    with pytest.raises(DomainError):
        GwScheme.build(QUAD, 0)


def test_equal_arguments_share_one_scheme():
    sch = GwScheme.build(MIXED, 50)
    twin = Mechanism(0.5, 1.0, (PointMass(1.3, 0.8), GammaDensity(1.5, 2.0, 0.6)))
    assert twin is not MIXED and GwScheme.build(twin, 50) is sch
    assert GwScheme.build(MIXED, 51) is not sch
    # a shared scheme's law cannot be written through
    with pytest.raises(ValueError, match="read-only"):
        sch.probs[0] = 0.5
    # a failed build is not kept: it raises again
    for _ in range(2):
        with pytest.raises(DomainError, match=r"\(sub\)critical"):
            GwScheme.build(Mechanism(-0.5, 1.0), 10)
    # the cache is bounded: SCHEME_CACHE other builds push a scheme out
    for n in range(1, sampler.SCHEME_CACHE + 1):
        GwScheme.build(SUB, n)
    again = GwScheme.build(MIXED, 50)
    assert again is not sch and np.array_equal(again.probs, sch.probs)


def cap_crossings(tree, cap):
    """Edges crossing the level a hair below cap; an edge covers the band
    (parent depth, depth].  Depths are running sums of 1/gamma, so a tree
    grown to an aligned cap (cap * gamma integral) can land an ulp under
    it, where the level itself would miss every crossing edge.  For a tree
    grown to cap a, this count is `population_run`'s `at_cap` on the same
    draws (and so Z_a = cap_crossings / n)."""
    a = cap * (1.0 - 1e-9)
    d = tree.depth
    return int(np.count_nonzero((d[tree.parent[1:]] < a) & (a <= d[1:])))


# -- single excursions ----------------------------------------------------------


def test_gw_tree_structure():
    sch = GwScheme.build(SUB, 20)
    tree = gw_tree(sch, RngStream(5).replicate(3))
    individuals = len(tree) - 1
    np.testing.assert_allclose(tree.length[1:], 1.0 / sch.gamma)
    assert tree.mu.sum() == pytest.approx(individuals * sch.mass_unit)
    assert tree.parent[0] == -1 and tree.delta[0] == 0.0
    counts = np.zeros(len(tree), dtype=int)
    for p in tree.parent[1:]:
        counts[p] += 1
    # every individual's mass rides down to a leaf, and every leaf holds some
    np.testing.assert_array_equal(counts[1:] == 0, tree.mu[1:] > 0)


def test_gw_tree_deterministic_per_replicate():
    sch = GwScheme.build(MIXED, 30)
    one = gw_tree(sch, RngStream(9).replicate(4))
    two = gw_tree(sch, RngStream(9).replicate(4))
    for col in ("parent", "length", "delta", "mu"):
        np.testing.assert_array_equal(getattr(one, col), getattr(two, col))


def test_many_child_nodes_carry_their_size():
    sch = GwScheme.build(Mechanism(0.0, 0.05, (PointMass(2.0, 1.0),)), 25)
    rng = RngStream(17).replicate(0)
    seen = 0
    for k in range(200):
        t = gw_tree(sch, rng, height_cap=1.0)
        inf_nodes = t.delta > 0
        seen += int(inf_nodes.sum())
        counts = np.zeros(len(t), dtype=int)
        for p in t.parent[1:]:
            counts[p] += 1
        assert np.all(counts[inf_nodes] >= 3)
        np.testing.assert_allclose(
            t.delta[inf_nodes], counts[inf_nodes] / sch.n)
    assert seen > 0


@pytest.mark.parametrize("mech", [JUMP_SHIFT.psi_at(0.0), GAMMA_JUMPS], ids=["shift", "gamma"])
def test_many_child_nodes_are_the_nodes_with_delta(mech):
    sch = GwScheme.build(mech, 20)
    many = 0
    for k in range(10):
        forest, _ = gw_forest(sch, RngStream(19).replicate(k), 30, height_cap=1.0)
        _, ks, _, _ = _grow(sch, RngStream(19).replicate(k), 30, 1.0)
        np.testing.assert_array_equal(np.flatnonzero(forest.delta > 0) - 1, np.flatnonzero(ks >= 3))
        many += int(np.count_nonzero(ks >= 3))
    assert many > 0


def test_excursion_mass_estimator():
    # n * E[sigma] = 1/psi'(eta) = 1/b exactly at every resolution
    n, reps = 200, 4000
    sch = GwScheme.build(SUB, n)
    rng = RngStream(31).replicate(0)
    sig = np.array([gw_tree(sch, rng).mu.sum() for _ in range(reps)])
    est = n * sig.mean()
    se = n * sig.std() / math.sqrt(reps)
    assert abs(est - 1.0) < 4 * se


def test_tree_and_population_height_laws_agree():
    # same scheme realized two ways; compare alive-at-level frequencies
    n, reps, a = 40, 4000, 0.8
    sch = GwScheme.build(QUAD, n)
    rng = RngStream(13).replicate(0)
    hits = sum(
        cap_crossings(gw_tree(sch, rng, height_cap=1.0), a) > 0
        for _ in range(reps))
    p_tree = hits / reps
    run = population_run(sch, RngStream(13).replicate(1), reps, height_cap=a)
    p_pop = (run.at_cap > 0).mean()
    se = math.sqrt(p_tree * (1 - p_tree) / reps + p_pop * (1 - p_pop) / reps)
    assert abs(p_tree - p_pop) < 4 * se


def test_height_law_approaches_tail_inverse():
    # n * P(H > a) -> v(a) = 1/a for the critical quadratic mechanism
    n, reps, a = 300, 30000, 1.0
    run = population_run(GwScheme.build(QUAD, n), RngStream(41).replicate(0), reps, height_cap=a)
    p = (run.at_cap > 0).mean()
    est = n * p
    se = n * math.sqrt(p * (1 - p) / reps)
    assert abs(est - 1.0) < 4 * se + 0.05


# -- forests --------------------------------------------------------------------


def test_tiny_initial_mass_gives_empty_forest():
    sch = GwScheme.build(SUB, 30)
    run = population_run(sch, RngStream(3).replicate(0), 50, init=1e-4)
    assert np.count_nonzero(run.totals == 0) >= 48


def test_forest_mass_mean():
    # E[sigma] = r/b exactly under the scheme
    n, reps, r = 60, 2000, 0.5
    sch = GwScheme.build(SUB, n)
    sig = population_run(sch, RngStream(23).replicate(0), reps, init=r).sigma()
    se = sig.std() / math.sqrt(reps)
    assert abs(sig.mean() - r) < 4 * se


def test_forest_mass_laplace_transform():
    n, reps, r, lam = 400, 20000, 0.8, 1.0
    run = population_run(GwScheme.build(SUB, n), RngStream(29).replicate(0), reps, init=r)
    vals = 1.0 - np.exp(-lam * run.sigma())
    target = 1.0 - math.exp(-r * SUB.psi_inverse(lam))
    se = vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - target) < 4 * se + 0.01


def test_population_sigma_matches_exact_law():
    n, reps, r = 600, 3000, 1.0
    run = population_run(GwScheme.build(SUB, n), RngStream(37).replicate(0), reps, init=r)
    exact = exact_sigma_quadratic(1.0, 1.0, r, RngStream(37).replicate(1), reps)
    ks = sps.ks_2samp(run.sigma(), exact)
    assert ks.pvalue > 0.01


def test_population_run_takes_one_initial_mass_per_replicate():
    sch = GwScheme.build(SUB, 50)
    reps, r = 400, 0.3
    same = population_run(sch, RngStream(43).replicate(0), reps, init=np.full(reps, r))
    scalar = population_run(sch, RngStream(43).replicate(0), reps, init=r)
    np.testing.assert_array_equal(same.totals, scalar.totals)
    np.testing.assert_array_equal(same.at_cap, scalar.at_cap)
    # a cap inside generation 0 keeps the roots: Poisson(r_i n), drawn in
    # replicate order as one scalar draw each
    masses = np.linspace(0.01, 2.0, reps)
    run = population_run(sch, RngStream(44).replicate(0), reps, init=masses,
                         height_cap=0.5 / sch.gamma)
    ref = RngStream(44).replicate(0)
    roots = [ref.poisson(m * sch.n) for m in masses]
    np.testing.assert_array_equal(run.at_cap, roots)
    np.testing.assert_array_equal(run.totals, roots)
    for bad in (np.full(reps - 1, r), np.zeros(reps), np.full(reps, math.nan)):
        with pytest.raises(DomainError):
            population_run(sch, RngStream(1).replicate(0), reps, init=bad)


def test_forest_rejects_nonpositive_mass():
    sch = GwScheme.build(SUB, 30)
    with pytest.raises(DomainError):
        population_run(sch, RngStream(1).replicate(0), 10, init=0.0)


# -- exact quadratic total mass ---------------------------------------------------


def test_exact_sigma_mean():
    rng = RngStream(51).replicate(0)
    draws = exact_sigma_quadratic(1.0, 1.0, 1.0, rng, 10**6)
    se = draws.std() / 1000.0
    assert abs(draws.mean() - 1.0) < 3 * se


def test_exact_sigma_laplace_subcritical():
    rng = RngStream(52).replicate(0)
    draws = exact_sigma_quadratic(1.0, 1.0, 1.0, rng, 10**6)
    vals = np.exp(-draws)
    target = math.exp(-(math.sqrt(5.0) - 1.0) / 2.0)
    assert target == pytest.approx(0.539, abs=5e-4)
    assert abs(vals.mean() - target) < 3 * vals.std() / 1000.0


def test_exact_sigma_laplace_critical():
    rng = RngStream(53).replicate(0)
    draws = exact_sigma_quadratic(0.0, 1.0, 1.0, rng, 10**6)
    vals = np.exp(-draws)
    assert abs(vals.mean() - math.exp(-1.0)) < 3 * vals.std() / 1000.0


def test_exact_sigma_no_mass_at_zero():
    rng = RngStream(54).replicate(0)
    draws = exact_sigma_quadratic(1.0, 1.0, 1.0, rng, 10**5)
    assert draws.min() > 1e-6


def test_exact_sigma_rejects_negative_drift():
    with pytest.raises(DomainError):
        exact_sigma_quadratic(-1.0, 1.0, 1.0, RngStream(1).replicate(0))


# -- the immortal spine ------------------------------------------------------------


def test_spine_forest_chains():
    mech0 = JUMP_SHIFT.psi_at(0.0)
    forest, label = spine_forest(mech0, 1.5, RngStream(60).replicate(0), 40)
    par, depth = forest.parent, forest.depth
    assert label[0] == -1 and forest.mu.sum() == 0.0
    np.testing.assert_array_equal(label[1:], np.sort(label[1:]))
    for k in range(40):
        nodes = np.flatnonzero(label == k)
        # one chain from the root: jump nodes in height order, then a leaf at h
        np.testing.assert_array_equal(par[nodes], np.concatenate([[0], nodes[:-1]]))
        assert np.all(np.diff(depth[nodes]) > 0)
        assert depth[nodes[-1]] == pytest.approx(1.5, rel=1e-12)
        # every jump node is a many-child node, delta > 0; the leaf has none
        assert forest.delta[nodes[-1]] == 0.0
        assert np.all(forest.delta[nodes[:-1]] == 1.0)


def test_spine_forest_jump_rate_and_sizes():
    # jump nodes at rate integral(z m0(dz)) per unit length, of size-biased
    # mass, and no jump node on a spine without jumps
    z0 = math.pi / 3.0
    base = Mechanism(0.0, 0.5, (PointMass(z0, 1.0), GammaDensity(2.0, 3.0, 0.5)))
    reps, h = 4000, 1.5
    forest, label = spine_forest(base, h, RngStream(62).replicate(0), reps)
    jumps = forest.delta > 0
    # the jump nodes are the inner nodes of the chains
    inner = np.bincount(forest.parent[1:], minlength=len(forest)) > 0
    np.testing.assert_array_equal(jumps[1:], inner[1:])
    counts = np.bincount(label[jumps], minlength=reps)
    target_count = h * (z0 + 0.5 * 2.0 / 3.0)
    assert abs(counts.mean() - target_count) < 4 * counts.std() / math.sqrt(reps)
    sizes = forest.delta[jumps]
    atoms = sizes == z0
    # the atom's share of the rate, and the gamma sizes biased to shape k + 1
    share = z0 / target_count * h
    assert abs(atoms.mean() - share) < 4 * math.sqrt(share * (1 - share) / len(sizes))
    assert sps.kstest(sizes[~atoms], sps.gamma(3.0, scale=1.0 / 3.0).cdf).pvalue > 0.001
    flat, flat_label = spine_forest(QUAD, h, RngStream(62).replicate(1), 50)
    assert len(flat) == 51 and np.all(flat.delta == 0.0)
    np.testing.assert_array_equal(flat_label[1:], np.arange(50))


def test_spine_forest_checks_the_node_budget_before_drawing_heights(monkeypatch):
    mech0 = JUMP_SHIFT.psi_at(0.0)
    with pytest.raises(NumericError, match="node budget"):
        spine_forest(mech0, 1e12, RngStream(63).replicate(0), 100)
    monkeypatch.setattr(sampler, "NODE_BUDGET", 100)
    rng = RngStream(63).replicate(0)
    with pytest.raises(NumericError, match="node budget of 100"):
        spine_forest(mech0, 2.0, rng, 100)
    ref = RngStream(63).replicate(0)
    ref.poisson(2.0, 100)
    assert rng.random() == ref.random()


def test_supercritical_tail_estimate():
    # N[H > a] = v(a) for psi = lam^2 - lam, computed through the conjugate
    fam = LinearDriftFamily(1.0, 1.0)
    a = 0.4
    target = 1.0 / (1.0 - math.exp(-a))  # tail inverse of lam^2 - lam
    n, reps = 150, 30000
    conj = fam.psi_at(-1.0).conjugate(1.0)
    run = population_run(GwScheme.build(conj, n), RngStream(73).replicate(0), reps, height_cap=a)
    vals = np.exp(run.z_cap()) * (run.at_cap > 0)
    est = n * vals.mean()
    se = n * vals.std() / math.sqrt(reps)
    assert abs(est - target) < 4 * se + 0.1


# -- population counts ------------------------------------------------------------


def test_population_thinning_reduces_mass():
    sch = GwScheme.build(SUB, 50)
    full = population_run(sch, RngStream(81).replicate(0), 4000)
    thin = population_run(
        sch, RngStream(81).replicate(0), 4000, edge_survival=0.5)
    assert thin.totals.sum() < full.totals.sum()
    assert thin.totals.max() <= full.totals.max() * 2  # sanity, same seed scale


def test_population_critical_needs_a_cap():
    with pytest.raises(DomainError, match="needs a height cap"):
        population_run(GwScheme.build(QUAD, 50), RngStream(1).replicate(0), 10)


def test_population_takes_jumps_and_rejects_supercritical():
    run = population_run(GwScheme.build(MIXED, 50), RngStream(1).replicate(0), 10)
    assert run.totals.shape == (10,)
    assert np.all(run.totals >= 1)
    for mech in (Mechanism(-1.0, 1.0), Mechanism(1.0, 0.0, (PointMass(1.0, 1.0),))):
        with pytest.raises(DomainError):
            population_run(GwScheme.build(mech, 50), RngStream(1).replicate(0), 10)


def test_population_deterministic():
    sch = GwScheme.build(SUB, 40)
    one = population_run(sch, RngStream(91).replicate(2), 500)
    two = population_run(sch, RngStream(91).replicate(2), 500)
    np.testing.assert_array_equal(one.totals, two.totals)


def _reference_quadratic_run(mech, n, rng, replicates, init=None,
                             height_cap=None, edge_survival=1.0):
    """The mechanism-based generation loop the engine replaced, kept as the
    reference for the quadratic law: (totals, counts at the cap, last
    generation reached, -1 where a replicate starts empty)."""
    b, c = mech.b, mech.c
    gamma = b + 2.0 * c * n
    p2 = c * n / gamma
    last_gen = None if height_cap is None else _level_generation(gamma, height_cap)
    if init is None:
        z = np.ones(replicates, dtype=np.int64)
    else:
        z = rng.poisson(init * n, replicates).astype(np.int64)
    if edge_survival < 1.0:
        z = rng.binomial(z, edge_survival)
    totals = z.copy()
    at_cap = np.zeros(replicates, dtype=np.int64)
    reached = np.full(replicates, -1, dtype=np.int64)
    idx = np.flatnonzero(z > 0)
    z = z[idx]
    g = 0
    while len(idx) > 0:
        reached[idx] = g
        if last_gen is not None and g >= last_gen:
            at_cap[idx] = z
            break
        kids = rng.binomial(z, p2) * 2
        if edge_survival < 1.0:
            kids = rng.binomial(kids, edge_survival)
        totals[idx] += kids
        keep = kids > 0
        idx = idx[keep]
        z = kids[keep]
        g += 1
    return totals, at_cap, reached


@pytest.mark.parametrize("init", [None, 0.5, 0.01])  # 0.01: most replicates start empty
@pytest.mark.parametrize("edge_survival", [1.0, 0.6])
@pytest.mark.parametrize("mech, levels, cap", [
    (QUAD, (0.3, 0.8), None),
    (QUAD, (0.5,), 1.0),
    (SUB, (), None),
    (SUB, (0.4,), 0.7),
    (Mechanism(0.3, 0.7), (0.25,), None),
])
def test_population_quadratic_matches_reference_loop(mech, levels, cap, init, edge_survival):
    # the run capped at cap, and at each of the levels in turn
    n, reps = 50, 300
    for height_cap in (cap, *levels):
        if height_cap is None and mech.b == 0.0:
            continue  # a critical run needs a cap
        run = population_run(GwScheme.build(mech, n), RngStream(95).replicate(0), reps,
                             init=init, height_cap=height_cap, edge_survival=edge_survival)
        totals, at_cap, reached = _reference_quadratic_run(
            mech, n, RngStream(95).replicate(0), reps, init=init,
            height_cap=height_cap, edge_survival=edge_survival)
        np.testing.assert_array_equal(run.totals, totals)
        np.testing.assert_array_equal(run.at_cap, at_cap)
        np.testing.assert_array_equal(run.last_gen, reached)
        if height_cap is not None:
            stop = _level_generation(run.gamma, height_cap)
            np.testing.assert_array_equal(run.at_cap > 0, run.last_gen == stop)
        assert run.gamma == mech.b + 2.0 * mech.c * n


def _reference_run(scheme, rng, replicates, init=None, height_cap=None, edge_survival=1.0):
    """The per-generation vectorized loop that `population_run` runs until
    few replicates are alive, kept as the reference for every law:
    (totals, counts at the cap, last generation reached)."""
    n = scheme.n
    stop = _level_generation(scheme.gamma, height_cap)
    if init is None:
        z = np.ones(replicates, dtype=np.int64)
    else:
        z = rng.poisson(np.asarray(init, dtype=float) * n, replicates).astype(np.int64)
    if edge_survival < 1.0:
        z = rng.binomial(z, edge_survival)
    totals = z.copy()
    at_cap = np.zeros(replicates, dtype=np.int64)
    last_gen = np.full(replicates, -1, dtype=np.int64)
    idx = np.flatnonzero(z > 0)
    z = z[idx]
    g = 0
    while len(idx) > 0:
        last_gen[idx] = g
        if g >= stop:
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
    return totals, at_cap, last_gen


@pytest.mark.parametrize("tail", [None, 0, 10**6])  # None: the package's TAIL_REPLICATES
@pytest.mark.parametrize("cap", [None, 0.3, "aligned", 1e-12])
# the ids the suite has long given these cases
@pytest.mark.parametrize("mech", [
    pytest.param(SUB, id="mech0-None"),  # quadratic: the law on {0, 2}
    pytest.param(JUMP_SHIFT.psi_at(0.5), id="mech2-None"),
    pytest.param(GAMMA_JUMPS, id="mech3-None"),
])
def test_population_run_matches_the_vectorized_loop(monkeypatch, mech, cap, tail):
    # the Python tail draws what the vectorized loop draws, for every law,
    # and leaves the generator where the loop leaves it, whatever the state
    # it enters at: 8 replicates or fewer start in the tail; only the law
    # on {0, 2} thins
    if tail is not None:
        monkeypatch.setattr(sampler, "TAIL_REPLICATES", tail)
    sch = GwScheme.build(mech, 20)
    if cap == "aligned":
        cap = 9 / sch.gamma  # an exact generation boundary
    for reps in (0, 1, 8, 9, 300):
        for init in (None, 0.3, np.linspace(0.05, 0.6, reps)):
            for edge_survival in (1.0, 0.6) if not mech.m else (1.0,):
                for enter in ENTRY_DRAWS if reps <= 8 else ENTRY_DRAWS[:1]:
                    rng, ref = RngStream(97).replicate(reps), RngStream(97).replicate(reps)
                    enter(rng), enter(ref)
                    run = population_run(sch, rng, reps, init=init, height_cap=cap,
                                         edge_survival=edge_survival)
                    totals, at_cap, last_gen = _reference_run(
                        sch, ref, reps, init, cap, edge_survival)
                    np.testing.assert_array_equal(run.totals, totals)
                    np.testing.assert_array_equal(run.at_cap, at_cap)
                    np.testing.assert_array_equal(run.last_gen, last_gen)
                    assert_same_state(rng, ref)


def test_counts_runs_off_the_binary_law_reject_other_bit_generators():
    # the tail of a law off {0, 2} skips the uniforms it drew past its need
    for mech in (JUMP_SHIFT.psi_at(0.5), GAMMA_JUMPS):
        sch = GwScheme.build(mech, 20)
        with pytest.raises(DomainError, match="Philox"):
            population_run(sch, np.random.default_rng(0), 5, height_cap=0.3)
        # and a law off {0, 2} is never thinned, whatever the generator
        for rng in (np.random.default_rng(0), RngStream(0).replicate(0)):
            with pytest.raises(DomainError, match="edge thinning"):
                population_run(sch, rng, 5, height_cap=0.3, edge_survival=0.6)
    # the binary law's scalar binomials need no skip, thinned or not
    for edge_survival in (1.0, 0.6):
        population_run(GwScheme.build(SUB, 20), np.random.default_rng(0), 5,
                       height_cap=0.3, edge_survival=edge_survival)


def test_caps_below_the_first_generation_stop_there():
    # a cap under the 1e-9 roundoff allowance is still generation 0's level
    sch = GwScheme.build(SUB, 20)
    assert _level_generation(sch.gamma, 1e-12) == 0 == _level_generation(sch.gamma, 0.5 / sch.gamma)
    run = population_run(sch, RngStream(5).replicate(0), 100, height_cap=1e-12)
    assert run.at_cap.tolist() == [1] * 100 and run.last_gen.tolist() == [0] * 100


def _forest_counts_by_root(par, offsets, n_roots, gen):
    """Individuals, generation `gen`'s individuals, and the last generation
    holding an individual, below each root."""
    root = np.arange(len(par))
    last = np.zeros(n_roots, dtype=np.int64)
    for g, (lo, hi) in enumerate(zip(offsets[1:-1], offsets[2:]), 1):
        root[lo:hi] = root[par[lo:hi]]
        last[root[lo:hi]] = g
    at_gen = np.zeros(n_roots, dtype=np.int64)
    if gen + 1 < len(offsets):
        at_gen = np.bincount(root[offsets[gen]:offsets[gen + 1]], minlength=n_roots)
    return np.bincount(root, minlength=n_roots), at_gen, last


@pytest.mark.parametrize("seed", range(4))
# the ids the suite has long given these cases
@pytest.mark.parametrize("mech, cap", [
    pytest.param(JUMP_SHIFT.psi_at(0.5), None, id="mech0-None-None"),
    pytest.param(JUMP_SHIFT.psi_at(0.5), 0.3, id="mech1-None-0.3"),
    pytest.param(JUMP_SHIFT.psi_at(0.0), 0.3, id="mech2-None-0.3"),
    pytest.param(JUMP_SHIFT.psi_at(0.0), "aligned", id="mech3-None-aligned"),
])
def test_population_counts_match_grown_forest(seed, mech, cap):
    n, reps = 20, 200
    sch = GwScheme.build(mech, n)
    if cap == "aligned":
        cap = 9 / sch.gamma  # an exact generation boundary
    run = population_run(sch, RngStream(seed).replicate(1), reps, height_cap=cap)
    par, ks, offsets, csum = _grow(sch, RngStream(seed).replicate(1), reps, cap)
    # no cap: the run goes extinct, and its count at the cap is 0
    gen = len(offsets) if cap is None else _level_generation(sch.gamma, cap)
    totals, at_cap, last = _forest_counts_by_root(par, offsets, reps, gen)
    np.testing.assert_array_equal(run.totals, totals)
    np.testing.assert_array_equal(run.at_cap, at_cap)
    np.testing.assert_array_equal(run.last_gen, last)
    np.testing.assert_array_equal(run.at_cap > 0, run.last_gen == gen)
    if cap is not None:
        # the tree readings the experiments used before the engine
        forest = _tree_from_growth(sch, par, ks, offsets, csum)
        assert cap_crossings(forest, cap) == at_cap.sum()
        assert forest.mu.sum() == pytest.approx(totals.sum() * sch.mass_unit, rel=1e-12)


GROWERS = {
    "gw_tree": lambda sch, rng, cap: gw_tree(sch, rng, height_cap=cap),
    "gw_forest": lambda sch, rng, cap: gw_forest(sch, rng, 5, height_cap=cap),
    "gw_forest, no excursion": lambda sch, rng, cap: gw_forest(sch, rng, 0, height_cap=cap),
    "population_run": lambda sch, rng, cap: population_run(sch, rng, 5, height_cap=cap),
}


@pytest.mark.parametrize("cap", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("grower", sorted(GROWERS))
def test_growers_reject_a_cap_that_is_not_positive_and_finite(grower, cap):
    sch = GwScheme.build(SUB, 20)
    with pytest.raises(DomainError, match="height cap must be positive and finite"):
        GROWERS[grower](sch, RngStream(5).replicate(0), cap)


def test_forest_without_excursions_is_its_root():
    sch = GwScheme.build(SUB, 20)
    rng = RngStream(5).replicate(0)
    t, label = gw_forest(sch, rng, 0, height_cap=1.0)
    assert len(t) == 1 and t.parent.tolist() == [-1] and label.tolist() == [-1]
    assert t.mu.sum() == 0.0 and t.depth.tolist() == [0.0]
    # growing no excursion draws nothing
    assert rng.random() == RngStream(5).replicate(0).random()


def labels_by_parent_walk(forest):
    """Each node's excursion, by walking its parents up to a child of the root."""
    par = forest.parent.tolist()
    label = [-1]
    for i in range(1, len(par)):
        while par[i] != 0:
            i = par[i]
        label.append(i - 1)
    return label


@pytest.mark.parametrize("width", [0, trees.SWEEP_WIDTH, math.inf], ids=["sweep", "default", "jump"])
def test_forest_labels_match_the_parent_walk(monkeypatch, width):
    monkeypatch.setattr(trees, "SWEEP_WIDTH", width)
    quad = GwScheme.build(QUAD, 20)
    # wide forests, then single critical excursions 144 and 103 generations deep
    forests = [gw_forest(quad, RngStream(7).replicate(k), 200, height_cap=1.0) for k in range(3)]
    forests += [gw_forest(quad, RngStream(80).replicate(k), 1, height_cap=8.0) for k in (234, 299)]
    assert [len(f.generations) - 1 for f, _ in forests[3:]] == [144, 103]
    for forest, label in forests:
        assert label.dtype == np.int64
        assert label.tolist() == labels_by_parent_walk(forest)


def grow_reference(scheme, rng, n_roots, height_cap):
    """The per-generation growth `_grow` replaced: each generation draws
    its own uniforms and maps them with searchsorted."""
    max_children_gen = _level_generation(scheme.gamma, height_cap)
    ks_blocks = []
    offsets = [0]
    cur = n_roots
    for g in range(sampler.NODE_BUDGET + 1):
        if g + 1 > max_children_gen:
            ks = np.zeros(cur, dtype=np.int64)
        else:
            ks = searchsorted_offspring(scheme, rng.random(cur)).astype(np.int64)
        ks_blocks.append(ks)
        offsets.append(offsets[-1] + cur)
        cur = int(ks.sum())
        if cur == 0:
            break
        if offsets[-1] + cur > sampler.NODE_BUDGET:
            raise NumericError(
                f"tree growth passed the node budget of {sampler.NODE_BUDGET} individuals")
    ks = np.concatenate(ks_blocks)
    par = np.concatenate([np.full(n_roots, -1, dtype=np.int64),
                          np.arange(len(ks), dtype=np.int64).repeat(ks)])
    return par, ks, offsets


def _buffered_uint32(rng):
    rng.integers(0, 2**32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1


# draws made before growth starts: a fresh generator (an empty Philox
# buffer), 1-3 of the buffer's four words spent, and half a word held back
ENTRY_DRAWS = (lambda rng: None, lambda rng: rng.random(1), lambda rng: rng.random(2),
               lambda rng: rng.random(3), _buffered_uint32)


def assert_same_state(rng, ref_rng):
    """The whole bit generator state dicts are equal: counter, key, buffer,
    buffer_pos and the buffered 32-bit half."""
    got, want = rng.bit_generator.state, ref_rng.bit_generator.state
    assert got.keys() == want.keys() and got["state"].keys() == want["state"].keys()
    for part in (got, want):
        part.update(part.pop("state"))
    for key in want:
        assert np.array_equal(got[key], want[key]), key


@pytest.mark.parametrize("mech, cap", [
    (QUAD, 0.5),
    (JUMP_SHIFT.psi_at(0.0), 0.5),
    (GAMMA_JUMPS, 0.8),
    (SUB, None),  # uncapped and subcritical
    (GAMMA_JUMPS, None),
    (QUAD, 0.001),  # the cap's generation is generation 0
], ids=["quadratic", "shift", "gamma", "subcritical-uncapped", "gamma-uncapped", "tiny-cap"])
def test_block_growth_matches_per_generation_growth(mech, cap):
    sch = GwScheme.build(mech, 40)
    extinct = 0
    for seed in range(12):
        for n_roots in (0, 1, 3, 60):
            for enter in ENTRY_DRAWS:
                rng, ref_rng = RngStream(seed).replicate(n_roots), RngStream(seed).replicate(n_roots)
                enter(rng), enter(ref_rng)
                par, ks, offsets, csum = _grow(sch, rng, n_roots, cap)
                want_par, want_ks, want_offsets = grow_reference(sch, ref_rng, n_roots, cap)
                assert par.dtype == want_par.dtype and np.array_equal(par, want_par)
                assert ks.dtype == want_ks.dtype and np.array_equal(ks, want_ks)
                assert offsets == want_offsets
                # each parent's prefix sum counts the children born before its own
                parents = want_ks.nonzero()[0]
                assert np.array_equal(csum[parents], (np.cumsum(want_ks) - want_ks)[parents])
                # the generator is left where per-generation draws leave it
                assert_same_state(rng, ref_rng)
            if cap is not None and n_roots:
                extinct += len(offsets) - 1 <= _level_generation(sch.gamma, cap)
    if cap is not None and cap > 0.01:
        assert extinct > 0  # some forests die out before the cap


def test_skipping_uniforms_leaves_the_state_of_drawing_them():
    for enter in ENTRY_DRAWS:
        for used in list(range(40)) + [255, 256, 257, 1003]:
            rng, ref_rng = RngStream(3).replicate(used), RngStream(3).replicate(used)
            enter(rng), enter(ref_rng)
            start = rng.bit_generator.state
            rng.random(used + 37)  # overshoot, as growth's blocks do
            sampler._skip_uniforms(rng, start, used)
            ref_rng.random(used)
            assert_same_state(rng, ref_rng)


def test_growth_rejects_other_bit_generators():
    with pytest.raises(DomainError, match="Philox"):
        _grow(GwScheme.build(QUAD, 10), np.random.default_rng(0), 1, 0.5)


@pytest.mark.parametrize("budget", [50, 200, 1000])
def test_block_growth_passes_the_node_budget_where_the_reference_does(monkeypatch, budget):
    monkeypatch.setattr(sampler, "NODE_BUDGET", budget)
    sch = GwScheme.build(QUAD, 50)
    raised = 0
    for seed in range(20):
        for n_roots in (1, 20):
            try:
                want = grow_reference(sch, RngStream(seed).replicate(0), n_roots, 1.0)
            except NumericError:
                want = None
            if want is None:
                raised += 1
                with pytest.raises(NumericError, match=f"node budget of {budget}"):
                    _grow(sch, RngStream(seed).replicate(0), n_roots, 1.0)
            else:
                got = _grow(sch, RngStream(seed).replicate(0), n_roots, 1.0)
                assert np.array_equal(got[0], want[0]) and got[2] == want[2]
    assert raised > 0


def test_growth_node_budget_raises(monkeypatch):
    monkeypatch.setattr(sampler, "NODE_BUDGET", 50)
    sch = GwScheme.build(QUAD, 50)
    with pytest.raises(NumericError, match="node budget of 50"):
        gw_forest(sch, RngStream(3).replicate(0), 20, height_cap=1.0)
    # a tree under the budget still grows
    assert len(gw_tree(sch, RngStream(3).replicate(0), height_cap=0.01)) <= 51


def test_cap_crossings_survives_aligned_depth_roundoff():
    # a path of 201 equal steps whose exact depth is 1; the float running
    # sum may land on either side of the cap, the count must not care
    m = 201
    parent = np.arange(-1, m)
    length = np.concatenate([[0.0], np.full(m, 1.0 / m)])
    t = FiniteTree(parent, length, np.zeros(m + 1), np.zeros(m + 1))
    assert cap_crossings(t, 1.0) == 1
