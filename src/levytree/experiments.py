"""Named Monte Carlo experiments checking sampled trees against the law oracles.

Each experiment is a `Spec`: its oracle callable, a description, a plan and
an arm layout.  `plan(cfg, oracle)`, handed the oracle bound at the dotted name
the catalog prints, validates the config and evaluates every oracle value
before anything is sampled, then returns sample groups: a stream path, one or
two draw functions (n, rng, size) -> array (the sides), and the points read
from them, each reducing one side's draws at resolution n to a statistic
(estimate, stderr).  `_arm_rows` lays out the arms:

* banded: each side is drawn at n and 2n from stream child(*path, arm[, side]);
  the drift between the two estimates is a discretization band, and the finer
  one scores z = |est - oracle| / sqrt(se^2 + band^2);
* paired: banded, scoring side 0 against side 1 (its mean in the oracle
  column), with the band taken on their difference;
* plain: one resolution from stream child(*path), z = |est - oracle| / se, for
  samplers that are exact at any resolution.

two_step_markov (paired at one resolution in `prune.two_step_consistency`)
and the deterministic mz_cocycle keep their own row code.

Each side of an arm is one draw of all its replicates from the one generator
of its stream, so an estimate depends on (seed, path, replicate count) alone.
A draw at resolution n takes its offspring law from `GwScheme.build(mech,
n)`, whose cache shares one scheme among the draws, plans and calls of a
process that ask for the same mechanism and resolution.
A counts draw is one `population_run` or exact-sampler call; height_law's
is one run capped at its highest level, whose per-replicate last generation
says which of the levels each replicate crosses, and prune_marginal's
unpruned psi_q arm is one run at the cap, read as mass and as the level of
each replicate's last generation (`PopulationRun.height`), the depth a grown
tree gives that generation.  A pruning draw grows marked forests, read by
`MarkedTree.read`, one after another from that generator; only the columns
a reading uses are computed.  `_forest_chunks` sizes the forests from the
config alone, which bounds the memory of one forest.  A spine cut draw
marks one `spine_forest` of all its replicates and reads it with
`MarkedTree.first_cut`; two_step_markov prunes tiled copies of its base
tree the same way.

height_law, exit_tail_remark, sigma_laplace, special_markov_intensity and
size_bias's pruned arm average values that rare events carry, whose sample
standard error shrinks along with a low estimate; they report the standard
error their oracle implies instead (the score form), and a negative null
variance, which no law allows, fails the point.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np
from scipy import stats as sp_stats

from . import laws
from .family import AdmissibleFamily, family_from_dict
from .mechanism import DomainError, Mechanism, NumericError
from .prune import generate_marks, two_step_consistency
from .sampler import (NODE_TARGET, GwScheme, PopulationRun, RngStream, _level_generation,
                      exact_sigma_quadratic, gw_forest, gw_tree, population_run, spine_forest)

# segments of 4/b_q that size_bias grows on an uncut spine before it gives
# up: its spines have no jumps and are cut at rate b_q, so one survives a
# segment with probability e^-4 and all of them with e^-128
SPINE_SEGMENTS = 32


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _number(name, x):
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {x!r}")
    return float(x)


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
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        if not isinstance(self.resolution, int) or self.resolution < 100:
            raise ConfigError(f"resolution must be an integer >= 100, got {self.resolution}")
        if not isinstance(self.replicates, int) or self.replicates < 100:
            raise ConfigError(f"replicates must be an integer >= 100, got {self.replicates}")
        if self.height_cap is not None:
            cap = _number("height_cap", self.height_cap)
            if not 0.0 < cap < math.inf:
                raise ConfigError(f"height_cap must be positive and finite, got {cap}")
            object.__setattr__(self, "height_cap", cap)
        if not _number("tolerance_sigmas", self.tolerance_sigmas) > 0.0:
            raise ConfigError("tolerance_sigmas must be positive")
        for name in ("q_grid", "lambda_grid"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)):
                raise ConfigError(f"{name} must be a list of numbers, got {grid!r}")
            grid = tuple(_number(f"{name} entry", x) for x in grid)
            if not all(math.isfinite(x) for x in grid):
                raise ConfigError(f"{name} entries must be finite")
            object.__setattr__(self, name, grid)

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
        except DomainError as err:
            raise ConfigError(f"bad family description: {err}") from err
        params = blob.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("config params must be a JSON object")
        extra = set(params) - ({f.name for f in fields(cls)} - {"family", "experiment"})
        if extra:
            raise ConfigError(f"unknown params: {sorted(extra)}")
        if "seed" not in params:
            raise ConfigError("params.seed is mandatory")
        return cls(family=fam, experiment=str(blob["experiment"]), **params)


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


def _forest_chunks(scheme, cap, size):
    """Replicate counts of the forests that grow size excursions below cap,
    one after another: balanced, each at most max(1, NODE_TARGET // E), where
    E is the expected number of individuals of one excursion, summed until a
    term m^g leaves it unchanged or it reaches NODE_TARGET: at any cap, the
    chunks of the full sum over the generations below cap."""
    m = 1.0 - scheme.mech.b / scheme.gamma
    e, g, top = 0.0, 0, _level_generation(scheme.gamma, cap)
    while g <= top and e < NODE_TARGET and e + m**g != e:
        e, g = e + m**g, g + 1
    chunks = -(-size // max(1, int(NODE_TARGET // e)))
    base, extra = divmod(size, chunks)
    return [base + 1] * extra + [base] * (chunks - extra)


def _mean_se(n, values):
    """Mean and its sample standard error."""
    m = float(np.mean(values))
    if len(values) < 2:
        return m, 0.0
    return m, float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _null_se(var):
    """sqrt(var), or nan for a negative null variance: no law has one, so
    the point fails."""
    return math.sqrt(var) if var >= 0.0 else math.nan


def _null_mean_se(var_of):
    """Statistic: the mean, with the standard error that the oracle implies,
    var_of(n) being the variance of one value under the oracle at resolution n."""
    return lambda n, values: (float(np.mean(values)), _null_se(var_of(n) / len(values)))


def _poisson_ratio_se(theta):
    """Statistic: sum(count) / sum(mass) over (count, mass) rows.  Given the
    masses, the summed count is Poisson(theta * sum(mass)) under the oracle
    theta, so the standard error is sqrt(theta / sum(mass))."""
    def stat(n, pairs):
        mass = pairs[:, 1].sum()
        return float(pairs[:, 0].sum() / mass), _null_se(theta / mass)

    return stat


def _z_of(diff, spread):
    if spread > 0.0 or math.isnan(spread):
        return abs(diff) / spread
    return 0.0 if diff == 0.0 else math.inf


def _row(cfg, point, est, se, oracle, band=0.0):
    z = _z_of(est - oracle, math.hypot(se, band))
    return PointResult(cfg.experiment, point, est, se, oracle, z, z <= cfg.tolerance_sigmas)


def _exact_row(cfg, point, got, want, rel=1e-12):
    err = abs(got - want)
    ok = err <= rel * max(1.0, abs(want))
    return PointResult(cfg.experiment, point, got, 0.0, want, math.nan, ok)


class Point(NamedTuple):
    """One CSV row: stat(n, reduce(n, draws of side)) against oracle; at_least
    marks a p-value, which passes once it reaches oracle, with z nan."""

    label: str
    oracle: float | None  # None under the paired layout
    reduce: Callable = lambda n, draws: draws
    side: int = 0
    stat: Callable = _mean_se
    at_least: bool = False


class Group(NamedTuple):
    """Draws (n, rng, size) -> array under one stream path, and their points."""

    path: tuple
    draws: tuple
    points: list


def _arm_rows(cfg, layout, group, stream):
    """The rows of one sample group under the banded, paired or plain layout."""
    plain = layout == "plain"
    arms = []
    for arm, n in enumerate((cfg.resolution,) if plain else (cfg.resolution, 2 * cfg.resolution)):
        path = group.path if plain else group.path + (arm,)
        sides = [
            draw(n, stream.child(*path, *([side] if len(group.draws) > 1 else [])).generator(),
                 cfg.replicates)
            for side, draw in enumerate(group.draws)
        ]
        arms.append((n, sides))

    def read(p, arm, side):
        n, sides = arms[arm]
        return p.stat(n, p.reduce(n, sides[side]))

    rows = []
    for p in group.points:
        if plain:
            est, se = read(p, 0, p.side)
            if p.at_least:
                rows.append(PointResult(
                    cfg.experiment, p.label, est, se, p.oracle, math.nan, est >= p.oracle))
            else:
                rows.append(_row(cfg, p.label, est, se, p.oracle))
        elif layout == "banded":
            (coarse, _), (est, se) = read(p, 0, p.side), read(p, 1, p.side)
            rows.append(_row(cfg, p.label, est, se, p.oracle, abs(est - coarse)))
        else:
            (a_lo, _), (b_lo, _), (a_hi, se_a), (b_hi, se_b) = (
                read(p, arm, side) for arm in (0, 1) for side in (0, 1))
            band = abs((a_lo - b_lo) - (a_hi - b_hi))
            rows.append(_row(cfg, p.label, a_hi, math.hypot(se_a, se_b), b_hi, band))
    return rows


def _need_cap(cfg):
    if cfg.height_cap is None:
        raise ConfigError(f"experiment '{cfg.experiment}' needs params.height_cap")
    return cfg.height_cap


def _counts(mech, reading, cap=None):
    """Draws reading(run) of the counts engine grown to cap, one replicate per excursion."""
    return lambda n, rng, size: reading(
        population_run(GwScheme.build(mech, n), rng, size, height_cap=cap))


def _forest_draw(mech, cap, read):
    """Draws stacking read(scheme, rng, forest, label, k) over forests of
    k excursions of mech's scheme grown below cap, k running over
    `_forest_chunks`."""
    def draw(n, rng, size):
        scheme = GwScheme.build(mech, n)
        return np.concatenate([read(scheme, rng, *gw_forest(scheme, rng, k, cap), k)
                               for k in _forest_chunks(scheme, cap, size)])

    return draw


# --------------------------------------------------------------- registry


class Spec(NamedTuple):
    """An experiment; layout None means plan(cfg, oracle, stream) -> rows."""

    oracle: Callable
    description: str
    plan: Callable
    layout: str | None


@dataclass(frozen=True)
class ExperimentInfo:
    name: str
    oracle: str
    description: str


_SPECS = {}


def _experiment(name, oracle, layout, description):
    def register(plan):
        _SPECS[name] = Spec(oracle, description, plan, layout)
        return plan

    return register


# ------------------------------------------------------------- experiments


@_experiment("height_law", Mechanism.v_of, "banded",
             "n*P(one excursion crosses level a) against v(a); q_grid holds the levels a, "
             "all read from one counts run per side capped at the highest")
def _height_law(cfg, v_of):
    mech = cfg.family.psi_at(0.0)
    heights = cfg.q_grid or (0.5, 1.0, 2.0)
    if not all(a > 0.0 for a in heights):
        raise ConfigError("height_law needs positive levels in q_grid")
    points = []
    for k, a in enumerate(heights):
        v = v_of(mech, a)
        # n * 1{crosses a} with P(crosses) = v / n has variance n v - v^2
        points.append(Point(f"a={a:g}", v, lambda n, x, k=k: n * x[:, k],
                            stat=_null_mean_se(lambda n, v=v: n * v - v * v)))

    def crossings(run):
        """Column k: 1{the replicate crosses heights[k]}."""
        return np.column_stack([run.last_gen >= _level_generation(run.gamma, a)
                                for a in heights]).astype(float)

    return [Group((0,), (_counts(mech, crossings, max(heights)),), points)]


@_experiment("sigma_laplace", laws.sigma_laplace, "banded",
             "n*E[1-exp(-lam sigma)] of full excursions against psi_q^{-1}(lam)")
def _sigma_laplace(cfg, sigma_laplace):
    groups = []
    for j, q in enumerate(cfg.q_grid or (1.0,)):
        mech = cfg.family.psi_at(q)
        if mech.criticality() != "subcritical":
            raise ConfigError(
                f"sigma_laplace samples full masses; psi at q={q:g} is not subcritical")
        points = []
        for lam in cfg.lambda_grid or (0.5, 1.0, 2.0):
            # N[(1 - e^{-lam sigma})^2] = 2 psi^{-1}(lam) - psi^{-1}(2 lam), so
            # n (1 - e^{-lam sigma}) has null variance n (2 u1 - u2) - u1^2
            u1, u2 = sigma_laplace(mech, lam), sigma_laplace(mech, 2.0 * lam)
            points.append(Point(
                f"q={q:g},lam={lam:g}", u1, lambda n, sig, lam=lam: n * -np.expm1(-lam * sig),
                stat=_null_mean_se(lambda n, u1=u1, u2=u2: n * (2.0 * u1 - u2) - u1 * u1)))
        groups.append(Group((j,), (_counts(mech, PopulationRun.sigma),), points))
    return groups


@_experiment("prune_marginal", AdmissibleFamily.psi_at, "paired",
             "pruned psi_0 forests against counts runs of psi_q (their mean in the oracle "
             "column), capped alike; sigma-Laplace at lambda_grid and height tails at cap/4, "
             "cap/2")
def _prune_marginal(cfg, psi_at):
    fam = cfg.family
    cap = _need_cap(cfg)
    qs = cfg.q_grid or (1.0,)
    if not all(q > 0.0 for q in qs):
        raise ConfigError("prune_marginal needs q > 0")
    heights = (cap / 4.0, cap / 2.0)
    base = fam.psi_at(0.0)

    def pruned(scheme, rng, forest, label, size, q):
        """Columns mass, 1{height > a} by a, of the forest pruned at q."""
        got = generate_marks(forest, fam, (0.0, q), rng).read(q, label, size)
        return np.column_stack([got.mass] + [got.height > a for a in heights])

    def direct(run):
        """The same columns of unpruned psi_q excursions: mass and height
        on the generation lattice that grown trees take as depths."""
        height = run.height()
        return np.column_stack([run.sigma()] + [height > a for a in heights])

    groups = []
    for j, q in enumerate(qs):
        draws = (_forest_draw(base, cap, functools.partial(pruned, q=q)),
                 _counts(psi_at(fam, q), direct, cap))
        points = [Point(f"q={q:g},lam={lam:g}", None,
                        lambda n, x, lam=lam: n * -np.expm1(-lam * x[:, 0]))
                  for lam in cfg.lambda_grid or (0.5, 1.0, 2.0)]
        points += [Point(f"q={q:g},a={a:g}", None, lambda n, x, k=k: n * x[:, k])
                   for k, a in enumerate(heights, 1)]
        groups.append(Group((j,), draws, points))
    return groups


@_experiment("special_markov_intensity", laws.special_markov_intensity, "banded",
             "removed components taller than cap/4 per unit retained mass below the cap")
def _special_markov(cfg, intensity):
    fam = cfg.family
    cap = _need_cap(cfg)
    eps = cap / 4.0
    mech0 = fam.psi_at(0.0)

    def attach_max(scheme):
        # keep two generations of slack so a clipped component can still
        # prove it passed eps
        return cap - eps - 2.0 / scheme.gamma

    coarse = GwScheme.build(mech0, cfg.resolution)
    if attach_max(coarse) < 1.0 / coarse.gamma:
        raise ConfigError(f"height_cap {cap:g} leaves no retained mass at resolution "
                          f"{cfg.resolution}: no node lies at depth <= {attach_max(coarse):g}")

    def removed_and_mass(scheme, rng, forest, label, size, q):
        got = generate_marks(forest, fam, (0.0, q), rng).read(
            q, label, size, eps, attach_max(scheme))
        return np.column_stack([got.tall, got.low_mass])

    groups = []
    for j, q in enumerate(cfg.q_grid or (1.0,)):
        theta = intensity(fam, 0.0, q, eps)
        draw = _forest_draw(mech0, cap, functools.partial(removed_and_mass, q=q))
        groups.append(Group((j,), (draw,), [
            Point(f"q={q:g},eps={eps:g}", theta, stat=_poisson_ratio_se(theta))]))
    return groups


@_experiment("two_step_markov", two_step_consistency, None,
             "one-pass prune 0->q against 0->q/2->q with fresh re-marking; "
             "exact in law at fixed resolution, so no band")
def _run_two_step(cfg, consistency, stream):
    fam = cfg.family
    cap = _need_cap(cfg)
    qs = cfg.q_grid or (1.0,)
    if not all(q > 0.0 for q in qs):
        raise ConfigError("two_step_markov needs q > 0")
    scheme = GwScheme.build(fam.psi_at(0.0), cfg.resolution)
    rows = []
    for j, q in enumerate(qs):
        base = gw_tree(scheme, stream.child(j, 0).generator(), cap)
        stats = consistency(
            base, fam, 0.0, q / 2.0, q, stream.child(j, 1).generator(), cfg.replicates)
        rows += [_row(cfg, f"q={q:g},{name}", one, se, two)
                 for name, (one, two, se) in stats.items()]
    return rows


@_experiment("cond_sigma", laws.sigma_laplace_Pr, "plain",
             "conditional mass transition exp(-psi_q(psi_0^{-1}(lam)) sigma_q) integrated "
             "against exact pruned-mass draws (quadratic families, initial mass 1)")
def _cond_sigma(cfg, sigma_laplace_Pr):
    fam = cfg.family
    if fam.shapes:
        raise ConfigError("cond_sigma uses the exact quadratic sampler; no jumps")
    r = 1.0
    mech0 = fam.psi_at(0.0)
    groups = []
    for j, q in enumerate(cfg.q_grid or (1.0,)):
        mech_q = fam.psi_at(q)
        b_q = mech_q.dpsi(0.0)
        if b_q < 0.0:
            raise ConfigError("cond_sigma needs psi_q (sub)critical")
        points = [
            Point(f"q={q:g},lam={lam:g}", sigma_laplace_Pr(mech0, r, lam),
                  lambda n, sig, s=float(mech_q.psi(mech0.psi_inverse(lam))): np.exp(-s * sig))
            for lam in cfg.lambda_grid or (0.5, 1.0, 2.0)
        ]
        draw = lambda n, rng, size, b_q=b_q: exact_sigma_quadratic(b_q, fam.c, r, rng, size=size)
        groups.append(Group((j,), (draw,), points))
    return groups


def _conjugate_window(cfg, oracle, reading):
    """Groups of n * mean(reading(psi_q, run)) against oracle(psi_q, a), the
    runs being counts of psi_q conjugated at eta_q > 0 up to a = height_cap."""
    a = _need_cap(cfg)
    groups = []
    for j, q in enumerate(cfg.q_grid or (-1.0,)):
        mech_q = cfg.family.psi_at(q)
        if not mech_q.eta > 0.0:
            raise ConfigError(f"{cfg.experiment} reweights at eta_q > 0; pick supercritical q")
        draw = _counts(mech_q.conjugate(mech_q.eta), functools.partial(reading, mech_q), a)
        point = Point(f"q={q:g},a={a:g}", oracle(mech_q, a), lambda n, x: n * x)
        groups.append(Group((j,), (draw,), [point]))
    return groups


@_experiment("ascension_tail", Mechanism.v_of, "banded",
             "supercritical height tail v_q(a) via the conjugate window sampler and its "
             "exponential weight; weights grow heavy near blow-up heights")
def _ascension_tail(cfg, v_of):
    # the supercritical window: surviving conjugate draws weighted by exp(eta Z_a)
    return _conjugate_window(cfg, v_of, lambda mech_q, run: np.where(
        run.at_cap > 0, np.exp(mech_q.eta * run.z_cap()), 0.0))


@_experiment("exit_tail_remark", Mechanism.v_of, "banded",
             "N[exit time at height cap/2 beyond q'] against v_{q'}(cap/2), the tail in "
             "laws.exit_time_laws")
def _exit_tail(cfg, v_of):
    fam = cfg.family
    cap = _need_cap(cfg)
    h = cap / 2.0
    qs = tuple(sorted(cfg.q_grid or (1.0,)))
    if not all(q >= 0.0 for q in qs):
        raise ConfigError("exit_tail_remark prunes forward from 0; q_grid must be >= 0")
    # n * 1{exit beyond q'} is height_law's rare count: null variance n v - v^2
    vs = [v_of(fam.psi_at(q), h) for q in qs]
    points = [Point(f"qp={q:g},h={h:g}", v, lambda n, x, k=k: x[:, k],
                    stat=_null_mean_se(lambda n, v=v: n * v - v * v))
              for k, (q, v) in enumerate(zip(qs, vs))]

    def exits(scheme, rng, forest, label, size):
        marked = generate_marks(forest, fam, (0.0, qs[-1]), rng)
        return scheme.n * np.column_stack([marked.read(q, label, size).height > h for q in qs])

    return [Group((), (_forest_draw(fam.psi_at(0.0), cap, exits),), points)]


def _spine_cuts(fam, q, h, rng, size):
    """First cut levels at q of size spines of length h, inf where uncut."""
    forest, label = spine_forest(fam.psi_at(0.0), h, rng, size)
    return generate_marks(forest, fam, (0.0, q), rng).first_cut(q, label, size)


def _exact_spine_cuts(fam, q, b_q, rng, size):
    """First cut levels on size uncapped spines: each round grows one more
    segment of 4/b_q on the spines still uncut, at most SPINE_SEGMENTS."""
    seg = 4.0 / b_q
    cuts = np.full(size, np.inf)
    uncut = np.arange(size)
    for k in range(SPINE_SEGMENTS):
        cuts[uncut] = k * seg + _spine_cuts(fam, q, seg, rng, len(uncut))
        uncut = uncut[np.isinf(cuts[uncut])]
        if not len(uncut):
            return cuts
    raise NumericError(f"{len(uncut)} spines uncut after {SPINE_SEGMENTS} segments of 4/b_q")


def _star_mass_draws(fam, q, b_q, scheme, rng, size):
    """Pruned masses of the spine tree, grafts thinned through the engine.

    Killing an edge when any mark in the window lands on it is Bernoulli with
    survival exp(-alpha/gamma) per edge, so for quadratic mechanisms the
    pruned graft masses come from one thinned population run instead of
    per-graft python trees.  A replicate's Poisson(2 c n cut) grafts form one
    forest by the branching property, so the run starts each replicate from
    mass 2 c cut.  The spine cut itself still runs through the real mark
    pipeline, with no height cap anywhere.
    """
    survival = math.exp(-fam.alpha(0.0, q) / scheme.gamma)
    cuts = _exact_spine_cuts(fam, q, b_q, rng, size)
    # thinned runs die at rate b_q; the engine still wants a cap for the
    # critical mechanism, so give one far past any reachable height
    return population_run(scheme, rng, size, init=2.0 * scheme.mech.c * cuts,
                          height_cap=80.0 / b_q, edge_survival=survival).sigma()


@_experiment("size_bias", laws.size_bias_identity, "banded",
             "size-biased pruned-tree estimator and the pruned half-line tree estimator "
             "against the same analytic value; quadratic families, uncapped spine")
def _size_bias(cfg, identity):
    fam = cfg.family
    if fam.shapes:
        raise ConfigError("size_bias covers quadratic families; the spine arm thins grafts "
                          "through the population engine")
    mech0 = fam.psi_at(0.0)
    groups = []
    for j, q in enumerate(cfg.q_grid or (1.0,)):
        mech_q = fam.psi_at(q)
        b_q = mech_q.dpsi(0.0)
        # the spine arm grows in segments of 4/b_q until a skeleton mark cuts it
        if not b_q > 0.0:
            raise ConfigError(f"size_bias needs psi_q subcritical; q={q:g} is not")
        if not fam.alpha(0.0, q) > 0.0:
            raise ConfigError(f"size_bias needs alpha(0, q) > 0 to cut the spine; q={q:g}")
        # the star spine is cut at rate alpha(0, q) and the size-biased psi_q
        # spine ends at rate b_q = b_0 + alpha(0, q): they agree for b_0 = 0 only
        if fam.psi_at(0.0).criticality() != "critical":
            raise ConfigError("size_bias needs psi_0 critical: the star arm grows the "
                              "immortal spine of psi_0")
        points = []
        for lam in cfg.lambda_grid or (2.0,):
            want = identity(fam, q, lam)
            # b_q n sigma e^{-lam sigma} has null variance n b_q^2 N[sigma^2 e^{-2 lam sigma}]
            # - want^2, with N[sigma^2 e^{-2 lam sigma}] = psi_q''(u2) / psi_q'(u2)^3
            u2 = mech_q.psi_inverse(2.0 * lam)
            second = b_q * b_q * mech_q.d2psi(u2) / mech_q.dpsi(u2) ** 3
            points += [
                Point(f"q={q:g},lam={lam:g},pruned", want,
                      lambda n, sig, lam=lam, b_q=b_q: b_q * n * sig * np.exp(-lam * sig),
                      stat=_null_mean_se(lambda n, s=second, w=want: n * s - w * w)),
                Point(f"q={q:g},lam={lam:g},star", want,
                      lambda n, sig, lam=lam: np.exp(-lam * sig), side=1),
            ]
        star = lambda n, rng, size, q=q, b_q=b_q: _star_mass_draws(
            fam, q, b_q, GwScheme.build(mech0, n), rng, size)
        groups.append(Group((j,), (_counts(mech_q, PopulationRun.sigma), star), points))
    return groups


def _truncated_exp_ks(rate, cap):
    """Statistic: KS p-value of the finite draws against Exponential(rate)
    truncated at cap (0 with fewer than 10 of them), stderr 0."""
    denom = -math.expm1(-rate * cap)

    def stat(n, vals):
        seen = vals[np.isfinite(vals)]
        if len(seen) < 10:
            return 0.0, 0.0
        cdf = lambda x: -np.expm1(-rate * np.clip(x, 0.0, cap)) / denom
        return float(sp_stats.kstest(seen, cdf).pvalue), 0.0

    return stat


@_experiment("spine_exponential", laws.spine_cut_mean, "plain",
             "first pruning cut along the half-line spine, Exponential(psi_q'(0)); exact at "
             "any resolution, scored by the censored mean and a KS test at 1%")
def _spine_exponential(cfg, cut_mean):
    fam = cfg.family
    cap = _need_cap(cfg)
    if fam.psi_at(0.0).criticality() != "critical":
        raise ConfigError("spine_exponential needs the mechanism at 0 critical")

    groups = []
    # spine lengths and mark kernels are exact at any resolution, so the cut
    # level has its limit law already and no band is needed
    for j, q in enumerate(cfg.q_grid or (1.0,)):
        b_q = fam.psi_at(q).dpsi(0.0)
        if not b_q > 0.0:
            raise ConfigError("spine_exponential needs psi_q subcritical")
        points = [
            Point(f"q={q:g},mean", cut_mean(fam, q, cap), lambda n, x: np.minimum(x, cap)),
            Point(f"q={q:g},ks", 0.01, stat=_truncated_exp_ks(b_q, cap), at_least=True),
        ]
        draw = lambda n, rng, size, q=q: _spine_cuts(fam, q, cap, rng, size)
        groups.append(Group((j,), (draw,), points))
    return groups


@_experiment("girsanov_gir2", laws.girsanov_defect, "banded",
             "n*E[1-exp(theta Z_a + psi(theta) int Z)] under the conjugate against -eta_q")
def _girsanov(cfg, defect):
    return _conjugate_window(cfg, defect, lambda mech_q, run: -np.expm1(
        mech_q.eta * run.z_cap() + float(mech_q.psi(mech_q.eta)) * run.sigma()))


@_experiment("mz_cocycle", AdmissibleFamily.alpha, None,
             "alpha additivity, mz and node_survival multiplicativity across a split; "
             "deterministic, z undefined")
def _run_mz_cocycle(cfg, alpha, stream):
    fam = cfg.family
    top = min(fam.window[1], 2.0)
    if not top > 0.0:
        raise ConfigError("mz_cocycle needs a window reaching above 0")
    t, mid, q = 0.0, 0.45 * top, 0.9 * top
    checks = [("alpha", alpha(fam, t, q), alpha(fam, t, mid) + alpha(fam, mid, q))]
    checks += [(f"atom{i}", fam.mz(t, q, i), fam.mz(t, mid, i) * fam.mz(mid, q, i))
               for i in range(len(fam.shapes))]
    checks += [(f"delta={d:g}", fam.node_survival(t, q, d),
                fam.node_survival(t, mid, d) * fam.node_survival(mid, q, d))
               for d in (0.5, 1.0, 2.0)]
    return [_exact_row(cfg, f"{name},split={mid:g}", got, want) for name, got, want in checks]


def _bound(fn):
    """fn as bound now at the name the catalog prints (patched or wrapped alike)."""
    obj = sys.modules[fn.__module__]
    for name in fn.__qualname__.split("."):
        obj = getattr(obj, name)
    return obj


def list_experiments():
    """Catalog of built-in experiments, each naming the oracle its spec calls."""
    return [
        ExperimentInfo(name, f"{s.oracle.__module__}.{s.oracle.__qualname__}", s.description)
        for name, s in _SPECS.items()
    ]


def run_experiment(cfg):
    """All point results for one configured experiment; oracles are
    evaluated before any sampling starts."""
    if cfg.experiment not in _SPECS:
        raise ConfigError(f"unknown experiment '{cfg.experiment}'")
    spec = _SPECS[cfg.experiment]
    stream, oracle = RngStream(cfg.seed), _bound(spec.oracle)
    if spec.layout is None:
        return spec.plan(cfg, oracle, stream)
    groups = spec.plan(cfg, oracle)
    return [row for g in groups for row in _arm_rows(cfg, spec.layout, g, stream)]
