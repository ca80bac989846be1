"""Named Monte Carlo experiments checking sampled trees against the law oracles.

Each experiment draws replicates at two resolutions (n and 2n), uses the drift
between the two estimates as a discretization band, and scores the finer
estimate with z = |est - oracle| / sqrt(se^2 + band^2).  Experiments built on
exact samplers or on paired arms at one resolution skip the band, and the two
deterministic identity checks report no z at all.

Replicates are split into a fixed number of batches, each with its own seeded
generator, and batch results are concatenated in batch order.  The worker pool
size therefore never changes an estimate, only how batches are scheduled.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats as sp_stats

from . import laws
from .family import family_from_dict
from .prune import generate_marks, two_step_consistency
from .sampler import (
    GwScheme,
    RngStream,
    exact_sigma_quadratic,
    gw_tree,
    population_run,
)
from .tree import INFINITE, LEAF, ROOT, FiniteTree

N_BATCHES = 64


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    family: object
    experiment: str
    seed: int
    resolution: int = 200
    replicates: int = 10_000
    height_cap: float = None
    q_grid: tuple = ()
    lambda_grid: tuple = ()
    tolerance_sigmas: float = 3.0

    def __post_init__(self):
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        if not isinstance(self.resolution, int) or self.resolution < 100:
            raise ConfigError(f"resolution must be an integer >= 100, got {self.resolution}")
        if not isinstance(self.replicates, int) or self.replicates < 100:
            raise ConfigError(f"replicates must be an integer >= 100, got {self.replicates}")
        if self.height_cap is not None and not self.height_cap > 0.0:
            raise ConfigError(f"height_cap must be positive, got {self.height_cap}")
        if not self.tolerance_sigmas > 0.0:
            raise ConfigError("tolerance_sigmas must be positive")
        for name in ("q_grid", "lambda_grid"):
            grid = getattr(self, name)
            if not all(math.isfinite(x) for x in grid):
                raise ConfigError(f"{name} entries must be finite")

    @classmethod
    def from_dict(cls, blob):
        if not isinstance(blob, dict):
            raise ConfigError("config must be a JSON object")
        for key in ("family", "experiment"):
            if key not in blob:
                raise ConfigError(f"config needs a '{key}' entry")
        extra = set(blob) - {"family", "experiment", "params"}
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        try:
            fam = family_from_dict(blob["family"])
        except (ValueError, KeyError, TypeError) as err:
            raise ConfigError(f"bad family description: {err}") from err
        params = blob.get("params", {})
        known = {
            "seed",
            "resolution",
            "replicates",
            "height_cap",
            "q_grid",
            "lambda_grid",
            "tolerance_sigmas",
        }
        extra = set(params) - known
        if extra:
            raise ConfigError(f"unknown params: {sorted(extra)}")
        if "seed" not in params:
            raise ConfigError("params.seed is mandatory")
        return cls(
            family=fam,
            experiment=str(blob["experiment"]),
            seed=params["seed"],
            resolution=params.get("resolution", 200),
            replicates=params.get("replicates", 10_000),
            height_cap=params.get("height_cap"),
            q_grid=tuple(params.get("q_grid", ())),
            lambda_grid=tuple(params.get("lambda_grid", ())),
            tolerance_sigmas=params.get("tolerance_sigmas", 3.0),
        )


@dataclass(frozen=True)
class PointResult:
    experiment: str
    point: str
    estimate: float
    stderr: float
    oracle: float
    z: float  # nan for deterministic checks
    passed: bool


# ------------------------------------------------------------ MC plumbing


def _batch_sizes(total):
    base, extra = divmod(total, N_BATCHES)
    sizes = [base + (1 if k < extra else 0) for k in range(N_BATCHES)]
    return [s for s in sizes if s > 0]


def _map_batches(stream, sizes, workers, fn):
    """Concatenate fn(generator_k, size_k) over batches, in batch order."""

    def one(k):
        return np.asarray(fn(stream.replicate(k), sizes[k]))

    if workers <= 1:
        parts = [one(k) for k in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, range(len(sizes))))
    return np.concatenate(parts, axis=0)


def _mean_se(values):
    m = float(np.mean(values))
    if len(values) < 2:
        return m, 0.0
    return m, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _z_of(diff, spread):
    if spread > 0.0:
        return abs(diff) / spread
    return 0.0 if diff == 0.0 else math.inf


def _banded_row(cfg, point, oracle, coarse, fine):
    est, se = fine
    band = abs(est - coarse[0])
    z = _z_of(est - oracle, math.hypot(se, band))
    return PointResult(
        cfg.experiment, point, est, se, oracle, z, z <= cfg.tolerance_sigmas
    )


def _plain_row(cfg, point, oracle, est, se):
    z = _z_of(est - oracle, se)
    return PointResult(
        cfg.experiment, point, est, se, oracle, z, z <= cfg.tolerance_sigmas
    )


def _exact_row(cfg, point, got, want, rel=1e-12):
    err = abs(got - want)
    ok = err <= rel * max(1.0, abs(want))
    return PointResult(cfg.experiment, point, got, 0.0, want, math.nan, ok)


def _arm_resolutions(cfg):
    return (cfg.resolution, 2 * cfg.resolution)


def _need_cap(cfg):
    if cfg.height_cap is None:
        raise ConfigError(f"experiment '{cfg.experiment}' needs params.height_cap")
    return float(cfg.height_cap)


def _sigma_draws(mech, n, stream, sizes, workers):
    """Per-excursion sigma-hat draws from the counts engine."""
    scheme = GwScheme.build(mech, n)

    def fn(rng, size):
        return population_run(scheme, rng, size).sigma()

    return _map_batches(stream, sizes, workers, fn)


def _alive_draws(mech, n, a, stream, sizes, workers):
    """Indicator draws of one excursion crossing level a."""
    scheme = GwScheme.build(mech, n, height_cap=a)

    def fn(rng, size):
        return population_run(scheme, rng, size, levels=[a]).alive_at(a)

    return _map_batches(stream, sizes, workers, fn).astype(float)


# ------------------------------------------------------------- experiments


def _run_height_law(cfg, stream, workers):
    mech = cfg.family.psi_at(0.0)
    heights = tuple(float(a) for a in (cfg.q_grid or (0.5, 1.0, 2.0)))
    if not all(a > 0.0 for a in heights):
        raise ConfigError("height_law needs positive levels in q_grid")
    oracles = [mech.v_of(a) for a in heights]
    sizes = _batch_sizes(cfg.replicates)
    rows = []
    for j, (a, oracle) in enumerate(zip(heights, oracles)):
        arms = []
        for arm, n in enumerate(_arm_resolutions(cfg)):
            vals = n * _alive_draws(mech, n, a, stream.child(j, arm), sizes, workers)
            arms.append(_mean_se(vals))
        rows.append(_banded_row(cfg, f"a={a:g}", oracle, *arms))
    return rows


def _run_sigma_laplace(cfg, stream, workers):
    qs = tuple(float(q) for q in (cfg.q_grid or (1.0,)))
    lams = tuple(float(l) for l in (cfg.lambda_grid or (0.5, 1.0, 2.0)))
    mechs, oracles = [], {}
    for q in qs:
        mech = cfg.family.psi_at(q)
        if mech.criticality() != "subcritical":
            raise ConfigError(
                f"sigma_laplace samples full masses; psi at q={q:g} is not subcritical"
            )
        mechs.append(mech)
        for lam in lams:
            oracles[q, lam] = laws.sigma_laplace(mech, lam)
    sizes = _batch_sizes(cfg.replicates)
    rows = []
    for j, (q, mech) in enumerate(zip(qs, mechs)):
        sigs = [
            (n, _sigma_draws(mech, n, stream.child(j, arm), sizes, workers))
            for arm, n in enumerate(_arm_resolutions(cfg))
        ]
        for lam in lams:
            arms = [_mean_se(n * -np.expm1(-lam * sig)) for n, sig in sigs]
            rows.append(
                _banded_row(cfg, f"q={q:g},lam={lam:g}", oracles[q, lam], *arms)
            )
    return rows


def _prune_arm_draws(fam, q, scheme, heights, rng, size):
    """Rows [sigma, 1{H>a}...] of pruned base trees."""
    out = np.empty((size, 1 + len(heights)))
    for i in range(size):
        base = gw_tree(scheme, rng)
        pruned = generate_marks(base, fam, (0.0, q), rng).pruned_at(q)
        h = pruned.height()
        out[i, 0] = pruned.total_mass()
        out[i, 1:] = [1.0 if h > a else 0.0 for a in heights]
    return out


def _direct_arm_draws(scheme, heights, rng, size):
    out = np.empty((size, 1 + len(heights)))
    for i in range(size):
        t = gw_tree(scheme, rng)
        h = t.height()
        out[i, 0] = t.total_mass()
        out[i, 1:] = [1.0 if h > a else 0.0 for a in heights]
    return out


def _run_prune_marginal(cfg, stream, workers):
    fam = cfg.family
    cap = _need_cap(cfg)
    qs = tuple(float(q) for q in (cfg.q_grid or (1.0,)))
    lams = tuple(float(l) for l in (cfg.lambda_grid or (0.5, 1.0, 2.0)))
    heights = (cap / 4.0, cap / 2.0)
    mech0 = fam.psi_at(0.0)
    sizes = _batch_sizes(cfg.replicates)
    rows = []
    for j, q in enumerate(qs):
        if not q > 0.0:
            raise ConfigError("prune_marginal needs q > 0")
        mech_q = fam.psi_at(q)
        diffs = {}
        for arm, n in enumerate(_arm_resolutions(cfg)):
            s0 = GwScheme.build(mech0, n, height_cap=cap)
            sq = GwScheme.build(mech_q, n, height_cap=cap)
            pruned = _map_batches(
                stream.child(j, arm, 0),
                sizes,
                workers,
                lambda rng, size: _prune_arm_draws(fam, q, s0, heights, rng, size),
            )
            direct = _map_batches(
                stream.child(j, arm, 1),
                sizes,
                workers,
                lambda rng, size: _direct_arm_draws(sq, heights, rng, size),
            )
            stats = []
            for lam in lams:
                stats.append(
                    (
                        _mean_se(n * -np.expm1(-lam * pruned[:, 0])),
                        _mean_se(n * -np.expm1(-lam * direct[:, 0])),
                    )
                )
            for k in range(len(heights)):
                stats.append(
                    (
                        _mean_se(n * pruned[:, 1 + k]),
                        _mean_se(n * direct[:, 1 + k]),
                    )
                )
            diffs[arm] = stats
        labels = [f"q={q:g},lam={lam:g}" for lam in lams]
        labels += [f"q={q:g},a={a:g}" for a in heights]
        for idx, label in enumerate(labels):
            (a_lo, _), (b_lo, _) = diffs[0][idx]
            (a_hi, se_a), (b_hi, se_b) = diffs[1][idx]
            band = abs((a_lo - b_lo) - (a_hi - b_hi))
            se = math.hypot(se_a, se_b)
            z = _z_of(a_hi - b_hi, math.hypot(se, band))
            rows.append(
                PointResult(
                    cfg.experiment,
                    label,
                    a_hi,
                    se,
                    b_hi,
                    z,
                    z <= cfg.tolerance_sigmas,
                )
            )
    return rows


def _subtree_tips(tree):
    """Highest point at or above each node, by pointer doubling: pass k
    hands each running maximum 2^k generations down; the root takes all."""
    tip = tree.depth.copy()
    anc = tree.parent.copy()
    anc[0] = 0
    while anc.any():
        np.maximum.at(tip, anc, tip.copy())
        anc = anc[anc]
    tip[0] = tip.max()
    return tip


def _tall_removed(marked, q, eps, attach_max):
    """Removed components taller than eps > 0, attached at level <= attach_max.

    A closed node sheds all its children as one forest, tip - depth tall.
    """
    base = marked.base
    _, stubs, stub_lengths, closed = marked.cuts_at(q)
    tops = np.concatenate([stubs, closed])
    levels = np.concatenate(
        [base.depth[base.parent[stubs]] + stub_lengths, base.depth[closed]])
    low = levels <= attach_max
    if not low.any():
        return 0
    tip = _subtree_tips(base)
    return int(np.count_nonzero(tip[tops[low]] - levels[low] > eps))


def _run_special_markov(cfg, stream, workers):
    fam = cfg.family
    cap = _need_cap(cfg)
    qs = tuple(float(q) for q in (cfg.q_grid or (1.0,)))
    eps = cap / 4.0
    oracles = [laws.special_markov_intensity(fam, 0.0, q, eps) for q in qs]
    mech0 = fam.psi_at(0.0)
    sizes = _batch_sizes(cfg.replicates)
    rows = []
    for j, (q, oracle) in enumerate(zip(qs, oracles)):
        arms = []
        for arm, n in enumerate(_arm_resolutions(cfg)):
            scheme = GwScheme.build(mech0, n, height_cap=cap)
            # keep two generations of slack so a clipped component can still
            # prove it passed eps
            attach_max = cap - eps - 2.0 / scheme.gamma

            def fn(rng, size):
                out = np.empty((size, 2))
                for i in range(size):
                    base = gw_tree(scheme, rng)
                    marked = generate_marks(base, fam, (0.0, q), rng)
                    out[i, 0] = _tall_removed(marked, q, eps, attach_max)
                    retained = marked.pruned_at(q)
                    out[i, 1] = retained.restrict_below(attach_max).total_mass()
                return out

            pairs = _map_batches(stream.child(j, arm), sizes, workers, fn)
            counts, mass = pairs[:, 0], pairs[:, 1]
            est = float(counts.sum() / mass.sum())
            resid = counts - est * mass
            se = float(
                np.std(resid, ddof=1)
                / math.sqrt(len(resid))
                / np.mean(mass)
            )
            arms.append((est, se))
        rows.append(_banded_row(cfg, f"q={q:g},eps={eps:g}", oracle, *arms))
    return rows


def _run_two_step(cfg, stream, workers):
    fam = cfg.family
    cap = _need_cap(cfg)
    qs = tuple(float(q) for q in (cfg.q_grid or (1.0,)))
    mech0 = fam.psi_at(0.0)
    rows = []
    for j, q in enumerate(qs):
        if not q > 0.0:
            raise ConfigError("two_step_markov needs q > 0")
        scheme = GwScheme.build(mech0, cfg.resolution, height_cap=cap)
        base = gw_tree(scheme, stream.child(j, 0).generator())
        report = two_step_consistency(
            base, fam, 0.0, q / 2.0, q, stream.child(j, 1).generator(), cfg.replicates
        )
        for name, (one, two, se, z) in report.stats.items():
            rows.append(
                PointResult(
                    cfg.experiment,
                    f"q={q:g},{name}",
                    one,
                    se,
                    two,
                    abs(z),
                    abs(z) <= cfg.tolerance_sigmas,
                )
            )
    return rows


def _run_cond_sigma(cfg, stream, workers):
    fam = cfg.family
    if fam.shapes:
        raise ConfigError("cond_sigma uses the exact quadratic sampler; no jumps")
    qs = tuple(float(q) for q in (cfg.q_grid or (1.0,)))
    lams = tuple(float(l) for l in (cfg.lambda_grid or (0.5, 1.0, 2.0)))
    r = 1.0
    mech0 = fam.psi_at(0.0)
    plan = []
    for q in qs:
        mech_q = fam.psi_at(q)
        b_q = mech_q.dpsi(0.0)
        if b_q < 0.0:
            raise ConfigError("cond_sigma needs psi_q (sub)critical")
        for lam in lams:
            inner = mech_q.psi(mech0.psi_inverse(lam))
            oracle = laws.sigma_laplace_Pr(mech0, r, lam)
            plan.append((q, lam, float(inner), oracle, b_q))
    sizes = _batch_sizes(cfg.replicates)
    rows = []
    for j, q in enumerate(qs):
        b_q = fam.psi_at(q).dpsi(0.0)
        draws = _map_batches(
            stream.child(j),
            sizes,
            workers,
            lambda rng, size: exact_sigma_quadratic(b_q, fam.c, r, rng, size=size),
        )
        for qq, lam, inner, oracle, _ in plan:
            if qq != q:
                continue
            est, se = _mean_se(np.exp(-inner * draws))
            rows.append(_plain_row(cfg, f"q={q:g},lam={lam:g}", oracle, est, se))
    return rows


def _conjugate_window_rows(cfg, stream, workers, oracle, reading):
    """Banded rows of n * mean(reading(psi_q, a, run)) against oracle(psi_q, a).

    For each supercritical q, the replicates are counts of the conjugate of
    psi_q at eta_q, run to the level a = height_cap.
    """
    a = _need_cap(cfg)
    qs = tuple(float(q) for q in (cfg.q_grid or (-1.0,)))
    mechs = []
    for q in qs:
        mech_q = cfg.family.psi_at(q)
        if not mech_q.eta > 0.0:
            raise ConfigError(f"{cfg.experiment} reweights at eta_q > 0; pick supercritical q")
        mechs.append(mech_q)
    oracles = [oracle(mech_q, a) for mech_q in mechs]
    sizes = _batch_sizes(cfg.replicates)
    rows = []
    for j, (q, mech_q, want) in enumerate(zip(qs, mechs, oracles)):
        conj = mech_q.conjugate(mech_q.eta)
        arms = []
        for arm, n in enumerate(_arm_resolutions(cfg)):
            scheme = GwScheme.build(conj, n, height_cap=a)

            def fn(rng, size):
                return n * reading(mech_q, a, population_run(scheme, rng, size, levels=[a]))

            arms.append(_mean_se(_map_batches(stream.child(j, arm), sizes, workers, fn)))
        rows.append(_banded_row(cfg, f"q={q:g},a={a:g}", want, *arms))
    return rows


def _run_ascension_tail(cfg, stream, workers):
    # the supercritical window: surviving conjugate draws weighted by exp(eta Z_a)
    def reading(mech_q, a, run):
        return np.where(run.alive_at(a), np.exp(mech_q.eta * run.z_at(a)), 0.0)

    return _conjugate_window_rows(
        cfg, stream, workers, lambda mech_q, a: mech_q.v_of(a), reading)


def _run_exit_tail(cfg, stream, workers):
    fam = cfg.family
    cap = _need_cap(cfg)
    h = cap / 2.0
    qs = tuple(sorted(float(q) for q in (cfg.q_grid or (1.0,))))
    if not all(q >= 0.0 for q in qs):
        raise ConfigError("exit_tail_remark prunes forward from 0; q_grid must be >= 0")
    oracles = [fam.psi_at(q).v_of(h) for q in qs]
    mech0 = fam.psi_at(0.0)
    q_max = max(qs)
    sizes = _batch_sizes(cfg.replicates)
    rows = []
    arms = []
    for arm, n in enumerate(_arm_resolutions(cfg)):
        scheme = GwScheme.build(mech0, n, height_cap=cap)

        def fn(rng, size):
            out = np.empty((size, len(qs)))
            for i in range(size):
                base = gw_tree(scheme, rng)
                marked = generate_marks(base, fam, (0.0, q_max), rng)
                path = marked.sigma_path(qs)
                out[i] = n * (path.height > h)
            return out

        arms.append(_map_batches(stream.child(arm), sizes, workers, fn))
    for k, (q, oracle) in enumerate(zip(qs, oracles)):
        coarse = _mean_se(arms[0][:, k])
        fine = _mean_se(arms[1][:, k])
        rows.append(_banded_row(cfg, f"qp={q:g},h={h:g}", oracle, coarse, fine))
    return rows


def _spine_line(fam, h, rng, n):
    """The half-line spine with its jump nodes, grafts left out.

    The first pruning cut only feels marks on the spine itself, so the
    grafts (the expensive part of the full spine tree) never matter here.
    """
    mech0 = fam.psi_at(0.0)
    rates = np.array([p.w * p.unit_first_moment for p in mech0.m])
    total = float(rates.sum())
    count = int(rng.poisson(total * h)) if total > 0 else 0
    pos = np.sort(rng.uniform(0.0, h, count))
    if count:
        pick = rng.choice(len(rates), p=rates / total, size=count)
        sizes = np.array(
            [float(mech0.m[i].sample_sizes_biased(rng, 1)[0]) for i in pick]
        )
    else:
        sizes = np.zeros(0)
    parent = np.arange(-1, count + 1, dtype=np.int64)
    length = np.concatenate([[0.0], np.diff(np.concatenate([[0.0], pos, [h]]))])
    kind = np.concatenate(
        [[ROOT], np.full(count, INFINITE), [LEAF]]
    ).astype(np.int8)
    delta = np.concatenate([[0.0], sizes, [0.0]])
    return FiniteTree(parent, length, kind, delta, np.zeros(count + 2), 1.0 / n)


def _first_cut(marked, q):
    """Lowest mark level active at q; inf when the window never cuts."""
    depth = marked.base.depth
    live = marked.times <= q
    levels = depth[marked.base.parent[marked.edge_ids[live]]] + marked.offsets[live]
    nodes = depth[marked.node_ids[marked.node_times <= q]]
    return float(min(levels.min(initial=math.inf), nodes.min(initial=math.inf)))


def _exact_spine_cut(fam, q, b_q, rng, n):
    """The first cut level on the uncapped spine, by segmentwise extension."""
    seg = 4.0 / b_q
    base = 0.0
    while True:
        line = _spine_line(fam, seg, rng, n)
        cut = _first_cut(generate_marks(line, fam, (0.0, q), rng), q)
        if math.isfinite(cut):
            return base + cut
        base += seg


def _star_mass_draws(fam, q, b_q, scheme, rng, size):
    """Pruned masses of the spine tree, grafts thinned through the engine.

    Killing an edge when any mark in the window lands on it is Bernoulli with
    survival exp(-alpha/gamma) per edge, so for quadratic mechanisms the
    pruned graft masses come from one thinned population run instead of
    per-graft python trees.  The spine cut itself still runs through the real
    mark pipeline, with no height cap anywhere.
    """
    n = scheme.n
    survival = math.exp(-fam.alpha(0.0, q) / scheme.gamma)
    cuts = np.array([_exact_spine_cut(fam, q, b_q, rng, n) for _ in range(size)])
    counts = rng.poisson(2.0 * scheme.mech.c * n * cuts)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(size)
    # thinned runs die at rate b_q; the engine still wants a cap for the
    # critical mechanism, so give one far past any reachable height
    masses = population_run(
        scheme, rng, total, height_cap=80.0 / b_q, edge_survival=survival
    ).sigma()
    out = np.zeros(size)
    np.add.at(out, np.repeat(np.arange(size), counts), masses)
    return out


def _run_size_bias(cfg, stream, workers):
    fam = cfg.family
    if fam.shapes:
        raise ConfigError(
            "size_bias covers quadratic families; the spine arm thins grafts "
            "through the population engine"
        )
    qs = tuple(float(q) for q in (cfg.q_grid or (1.0,)))
    lams = tuple(float(l) for l in (cfg.lambda_grid or (2.0,)))
    for q in qs:
        # the spine arm grows in segments of 4/b_q until a skeleton mark cuts it
        if not fam.psi_at(q).dpsi(0.0) > 0.0:
            raise ConfigError(f"size_bias needs psi_q subcritical; q={q:g} is not")
        if not fam.alpha(0.0, q) > 0.0:
            raise ConfigError(f"size_bias needs alpha(0, q) > 0 to cut the spine; q={q:g}")
    oracles = {
        (q, lam): laws.size_bias_identity(fam, q, lam) for q in qs for lam in lams
    }
    sizes = _batch_sizes(cfg.replicates)
    rows = []
    for j, q in enumerate(qs):
        mech_q = fam.psi_at(q)
        b_q = mech_q.dpsi(0.0)
        direct_arms, star_arms = [], []
        for arm, n in enumerate(_arm_resolutions(cfg)):
            sig = _sigma_draws(mech_q, n, stream.child(j, arm, 0), sizes, workers)
            scheme0 = GwScheme.build(fam.psi_at(0.0), n)
            star_sig = _map_batches(
                stream.child(j, arm, 1),
                sizes,
                workers,
                lambda rng, size: _star_mass_draws(fam, q, b_q, scheme0, rng, size),
            )
            direct_arms.append(sig)
            star_arms.append(star_sig)
        for lam in lams:
            oracle = oracles[q, lam]
            direct = [
                _mean_se(b_q * n * sig * np.exp(-lam * sig))
                for n, sig in zip(_arm_resolutions(cfg), direct_arms)
            ]
            star = [_mean_se(np.exp(-lam * s)) for s in star_arms]
            rows.append(
                _banded_row(cfg, f"q={q:g},lam={lam:g},pruned", oracle, *direct)
            )
            rows.append(_banded_row(cfg, f"q={q:g},lam={lam:g},star", oracle, *star))
    return rows


def _run_spine_exponential(cfg, stream, workers):
    fam = cfg.family
    cap = _need_cap(cfg)
    if fam.psi_at(0.0).criticality() != "critical":
        raise ConfigError("spine_exponential needs the mechanism at 0 critical")
    qs = tuple(float(q) for q in (cfg.q_grid or (1.0,)))
    rates = []
    for q in qs:
        b_q = fam.psi_at(q).dpsi(0.0)
        if not b_q > 0.0:
            raise ConfigError("spine_exponential needs psi_q subcritical")
        rates.append(b_q)
    sizes = _batch_sizes(cfg.replicates)
    rows = []
    # spine lengths and mark kernels are exact at any resolution, so the cut
    # level has its limit law already and no band is needed
    for j, (q, b_q) in enumerate(zip(qs, rates)):

        def fn(rng, size):
            out = np.empty(size)
            for i in range(size):
                line = _spine_line(fam, cap, rng, cfg.resolution)
                marked = generate_marks(line, fam, (0.0, q), rng)
                out[i] = _first_cut(marked, q)
            return out

        vals = _map_batches(stream.child(j), sizes, workers, fn)
        est, se = _mean_se(np.minimum(vals, cap))
        mean_oracle = -math.expm1(-b_q * cap) / b_q  # E[min(xi, cap)]
        rows.append(_plain_row(cfg, f"q={q:g},mean", mean_oracle, est, se))
        seen = vals[np.isfinite(vals)]
        if len(seen) < 10:
            pval = 0.0
        else:
            denom = -math.expm1(-b_q * cap)

            def trunc_cdf(x):
                return -np.expm1(-b_q * np.clip(x, 0.0, cap)) / denom

            pval = float(sp_stats.kstest(seen, trunc_cdf).pvalue)
        rows.append(
            PointResult(
                cfg.experiment, f"q={q:g},ks", pval, 0.0, 0.01, math.nan, pval >= 0.01
            )
        )
    return rows


def _run_girsanov(cfg, stream, workers):
    def reading(mech_q, a, run):
        theta = mech_q.eta
        return -np.expm1(theta * run.z_at(a) + float(mech_q.psi(theta)) * run.sigma())

    return _conjugate_window_rows(
        cfg, stream, workers, lambda mech_q, a: -mech_q.eta, reading)


def _run_mz_cocycle(cfg, stream, workers):
    fam = cfg.family
    lo, hi = fam.window
    top = min(hi, 2.0) if math.isfinite(hi) else 2.0
    if not top > 0.0:
        raise ConfigError("mz_cocycle needs a window reaching above 0")
    t, mid, q = 0.0, 0.45 * top, 0.9 * top
    rows = [
        _exact_row(
            cfg,
            f"alpha,split={mid:g}",
            fam.alpha(t, q),
            fam.alpha(t, mid) + fam.alpha(mid, q),
        )
    ]
    for i in range(len(fam.shapes)):
        rows.append(
            _exact_row(
                cfg,
                f"atom{i},split={mid:g}",
                fam.mz(t, q, i),
                fam.mz(t, mid, i) * fam.mz(mid, q, i),
            )
        )
    for delta in (0.5, 1.0, 2.0):
        rows.append(
            _exact_row(
                cfg,
                f"delta={delta:g},split={mid:g}",
                fam.node_survival(t, q, delta),
                fam.node_survival(t, mid, delta) * fam.node_survival(mid, q, delta),
            )
        )
    return rows


# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class ExperimentInfo:
    name: str
    oracle: str
    description: str


_REGISTRY = {
    "height_law": (
        _run_height_law,
        "mechanism.v_of",
        "n*P(one excursion crosses level a) against v(a); q_grid holds the levels a",
    ),
    "sigma_laplace": (
        _run_sigma_laplace,
        "laws.sigma_laplace",
        "n*E[1-exp(-lam sigma)] of full excursions against psi_q^{-1}(lam)",
    ),
    "prune_marginal": (
        _run_prune_marginal,
        "direct psi_q sample (reference arm in the oracle column)",
        "pruned base trees against directly sampled target trees, capped alike; "
        "sigma-Laplace at lambda_grid and height tails at cap/4, cap/2",
    ),
    "special_markov_intensity": (
        _run_special_markov,
        "laws.special_markov_intensity",
        "removed components taller than cap/4 per unit retained mass below the cap",
    ),
    "two_step_markov": (
        _run_two_step,
        "prune.two_step_consistency (paired arms)",
        "one-pass prune 0->q against 0->q/2->q with fresh re-marking; "
        "exact in law at fixed resolution, so no band",
    ),
    "cond_sigma": (
        _run_cond_sigma,
        "laws.sigma_laplace_Pr via laws.cond_sigma_laplace",
        "conditional mass transition integrated against exact pruned-mass draws "
        "(quadratic families, initial mass 1)",
    ),
    "ascension_tail": (
        _run_ascension_tail,
        "mechanism.v_of at psi_q (tail of laws.ascension_tail's law)",
        "supercritical height tail via the conjugate window sampler and its "
        "exponential weight; weights grow heavy near blow-up heights",
    ),
    "exit_tail_remark": (
        _run_exit_tail,
        "laws.exit_time_laws tail",
        "N[exit time at height cap/2 beyond q'] against v_{q'}(cap/2)",
    ),
    "size_bias": (
        _run_size_bias,
        "laws.size_bias_identity",
        "size-biased pruned-tree estimator and the pruned half-line tree "
        "estimator against the same analytic value; quadratic families, "
        "uncapped spine",
    ),
    "spine_exponential": (
        _run_spine_exponential,
        "Exponential(psi_q'(0)) reference law, censored at the cap",
        "first pruning cut along the half-line spine; exact at any resolution, "
        "scored by the censored mean and a KS test at 1%",
    ),
    "girsanov_gir2": (
        _run_girsanov,
        "laws.girsanov_weight consistency (constant -theta)",
        "n*E[1-exp(theta Z_a + psi(theta) int Z)] under the conjugate against -eta_q",
    ),
    "mz_cocycle": (
        _run_mz_cocycle,
        "family.alpha / family.mz / family.node_survival multiplicativity",
        "deterministic split consistency of pruning rates; z undefined",
    ),
}


def list_experiments():
    """Catalog of built-in experiments with their oracle functions."""
    return [
        ExperimentInfo(name, oracle, desc)
        for name, (_, oracle, desc) in _REGISTRY.items()
    ]


def run_experiment(cfg, workers=1):
    """All point results for one configured experiment.

    Oracles are evaluated before any sampling starts; the worker count only
    schedules batches and never changes a result.
    """
    if cfg.experiment not in _REGISTRY:
        raise ConfigError(f"unknown experiment '{cfg.experiment}'")
    runner = _REGISTRY[cfg.experiment][0]
    return runner(cfg, RngStream(cfg.seed), max(1, int(workers)))
