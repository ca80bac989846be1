"""Experiment engine: config fences, worker invariance, small verification runs.

Statistical assertions here run tiny replicate counts on fixed seeds, so they
are deterministic; the heavy sweeps live in the acceptance module.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levytree import cli, experiments, laws
from levytree.experiments import (
    ConfigError,
    ExperimentConfig,
    list_experiments,
    run_experiment,
)
from levytree.family import LinearDriftFamily, ReflectedFamily, ShiftFamily, family_from_dict
from levytree.mechanism import Mechanism, NumericError, PointMass
from levytree.prune import (
    MarkedTree,
    _by_copy,
    _component_tips,
    generate_marks,
)
from levytree.sampler import (GwScheme, RngStream, _grow, _level_generation, gw_forest, gw_tree,
                              population_run, spine_forest)
from levytree.tree import FiniteTree
from test_sampler import _forest_counts_by_root

LD = LinearDriftFamily(1.0, 1.0)
SHIFT = ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),)), (-0.25, 3.0))

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def cfg_for(experiment, family=LD, **kw):
    kw.setdefault("seed", 5)
    kw.setdefault("resolution", 100)
    kw.setdefault("replicates", 1000)
    return ExperimentConfig(family=family, experiment=experiment, **kw)


# ---------------------------------------------------------------- config


def test_seed_must_be_a_nonnegative_integer():
    with pytest.raises(ConfigError):
        cfg_for("height_law", seed=-1)
    with pytest.raises(ConfigError):
        cfg_for("height_law", seed=1.5)


def test_resolution_floor():
    with pytest.raises(ConfigError):
        cfg_for("height_law", resolution=99)


def test_replicates_floor():
    with pytest.raises(ConfigError):
        cfg_for("height_law", replicates=99)


def test_height_cap_must_be_positive():
    with pytest.raises(ConfigError):
        cfg_for("height_law", height_cap=0.0)


def test_grids_must_be_finite():
    with pytest.raises(ConfigError):
        cfg_for("height_law", q_grid=(0.5, math.inf))
    with pytest.raises(ConfigError):
        cfg_for("height_law", lambda_grid=(math.nan,))


def test_tolerance_must_be_positive():
    with pytest.raises(ConfigError):
        cfg_for("height_law", tolerance_sigmas=0.0)


LD_BLOB = {
    "family": {
        "type": "lineardrift",
        "window": [-1.0, 1.0],
        "left_closed": True,
        "b_rate": 1.0,
        "c": 1.0,
    },
    "experiment": "sigma_laplace",
    "params": {"seed": 9, "replicates": 2000},
}


def test_from_dict_fills_defaults():
    cfg = ExperimentConfig.from_dict(LD_BLOB)
    assert cfg.seed == 9
    assert cfg.replicates == 2000
    assert cfg.resolution == 200
    assert cfg.q_grid == () and cfg.lambda_grid == ()
    assert cfg.tolerance_sigmas == 3.0
    assert cfg.family.b_rate == 1.0


def test_from_dict_requires_family_and_experiment():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "height_law", "params": {"seed": 1}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"family": LD_BLOB["family"], "params": {"seed": 1}})


def test_from_dict_requires_seed():
    blob = dict(LD_BLOB, params={"replicates": 2000})
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig.from_dict(blob)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict(dict(LD_BLOB, extra=1))
    bad = dict(LD_BLOB, params={"seed": 1, "replicas": 500})
    with pytest.raises(ConfigError, match="unknown params"):
        ExperimentConfig.from_dict(bad)


def test_from_dict_rejects_bad_family():
    blob = dict(LD_BLOB, family={"type": "nosuch"})
    with pytest.raises(ConfigError, match="bad family"):
        ExperimentConfig.from_dict(blob)


def test_unknown_experiment_name():
    with pytest.raises(ConfigError, match="unknown experiment"):
        run_experiment(cfg_for("nosuch_experiment"))


# ------------------------------------------------------------- run fences


def test_height_law_needs_positive_levels():
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("height_law", q_grid=(0.0,)))


def test_sigma_laplace_needs_subcritical_target():
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("sigma_laplace", q_grid=(0.0,)))


def test_capped_experiments_demand_a_cap():
    for name in (
        "prune_marginal",
        "special_markov_intensity",
        "two_step_markov",
        "ascension_tail",
        "exit_tail_remark",
        "spine_exponential",
        "girsanov_gir2",
    ):
        with pytest.raises(ConfigError, match="height_cap"):
            run_experiment(cfg_for(name))


def test_prune_marginal_needs_forward_q():
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("prune_marginal", height_cap=1.0, q_grid=(-0.5,)))


def test_two_step_needs_forward_q():
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("two_step_markov", height_cap=1.0, q_grid=(0.0,)))


def test_configs_are_rejected_before_any_sampling(monkeypatch):
    grown = []
    monkeypatch.setattr(experiments, "gw_tree", lambda *args, **kw: grown.append(args))
    for name in ("prune_marginal", "two_step_markov"):
        with pytest.raises(ConfigError, match="q > 0"):
            run_experiment(cfg_for(name, family=SHIFT, height_cap=0.5, q_grid=(1.0, -1.0)))
    assert grown == []


def test_cond_sigma_rejects_jump_families():
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("cond_sigma", family=SHIFT))


def test_size_bias_rejects_a_spine_that_is_never_cut():
    # no jumps and alpha(0, 0) = 0: no mark ever lands on the spine
    fam = ShiftFamily(Mechanism(0.5, 1.0), (-0.25, 3.0))
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("size_bias", family=fam, q_grid=(0.0,)))


def test_size_bias_rejects_a_critical_target():
    fam = ShiftFamily(Mechanism(-2.0, 1.0), (-0.25, 3.0))
    assert fam.psi_at(1.0).dpsi(0.0) == 0.0
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("size_bias", family=fam, q_grid=(1.0,)))


def test_size_bias_rejects_jump_families():
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("size_bias", family=SHIFT))


def test_size_bias_bounds_the_segments_of_an_uncut_spine(monkeypatch):
    monkeypatch.setattr(experiments, "SPINE_SEGMENTS", 0)
    with pytest.raises(NumericError, match="uncut after 0 segments"):
        run_experiment(cfg_for("size_bias", replicates=100, q_grid=(1.0,), lambda_grid=(2.0,)))


def test_ascension_needs_supercritical_q():
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("ascension_tail", height_cap=0.5, q_grid=(1.0,)))


def test_girsanov_needs_supercritical_q():
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("girsanov_gir2", height_cap=0.5, q_grid=(1.0,)))


def test_spine_needs_critical_origin():
    fam = ShiftFamily(Mechanism(1.0, 1.0, (PointMass(1.0, 1.0),)), (-0.25, 3.0))
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("spine_exponential", family=fam, height_cap=1.0))


def test_spine_needs_subcritical_target():
    with pytest.raises(ConfigError):
        run_experiment(
            cfg_for("spine_exponential", height_cap=1.0, q_grid=(-0.5,))
        )


def test_mz_cocycle_needs_room_above_zero():
    fam = LinearDriftFamily(1.0, 1.0, window=(-1.0, 0.0))
    with pytest.raises(ConfigError):
        run_experiment(cfg_for("mz_cocycle", family=fam))


# ---------------------------------------------------------------- catalog


def test_runner_calls_the_oracle_bound_at_its_catalog_name(monkeypatch):
    monkeypatch.setattr(laws, "sigma_laplace", lambda mech, lam: 42.0)
    cfg = cfg_for("sigma_laplace", replicates=100, q_grid=(1.0,), lambda_grid=(1.0,))
    assert [r.oracle for r in run_experiment(cfg)] == [42.0]


def test_catalog_lists_every_experiment_once():
    infos = list_experiments()
    names = [e.name for e in infos]
    assert len(names) == len(set(names)) == 13
    assert "height_law" in names
    assert "mz_cocycle" in names
    assert "ascension_representation" in names
    assert all(e.oracle and e.description for e in infos)


def test_readme_experiments_table_matches_the_catalog():
    """README's Experiments table lists the catalog in order: name, layout
    ("own rows" for layout None) and the oracle `levytree list` prints."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Experiments\n", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| ")][2:]
    want = [[e.name, experiments._SPECS[e.name].layout or "own rows", f"`{e.oracle}`"]
            for e in list_experiments()]
    assert [[name, layout, oracle] for name, layout, _, oracle in rows] == want


# -------------------------------------------- null standard errors and draws


def fine_arm_draws(cfg, group=0, side=0):
    """The finer arm's draws of one sample group, from the stream
    `run_experiment` gives them."""
    spec = experiments._SPECS[cfg.experiment]
    g = spec.plan(cfg, spec.oracle)[group]
    path = g.path + (1,) + ((side,) if len(g.draws) > 1 else ())
    return g.draws[side](2 * cfg.resolution, RngStream(cfg.seed).child(*path).generator(),
                         cfg.replicates)


def test_rare_count_points_report_their_null_standard_error():
    n, reps = 100, 1000
    rows = run_experiment(cfg_for("height_law", replicates=reps, q_grid=(0.5, 1.0)))
    for row, a in zip(rows, (0.5, 1.0)):
        v = 1.0 / a  # v(a) = 1/(c a) for psi_0 = lam^2
        assert row.stderr == pytest.approx(math.sqrt((2 * n * v - v * v) / reps), rel=1e-12)

    rows = run_experiment(cfg_for("sigma_laplace", replicates=reps, q_grid=(1.0,),
                                  lambda_grid=(0.5, 1.0)))
    inv = lambda lam: (math.sqrt(1.0 + 4.0 * lam) - 1.0) / 2.0  # psi_1 = lam + lam^2
    for row, lam in zip(rows, (0.5, 1.0)):
        u1, u2 = inv(lam), inv(2.0 * lam)
        want = math.sqrt((2 * n * (2.0 * u1 - u2) - u1 * u1) / reps)
        assert row.stderr == pytest.approx(want, rel=1e-12)

    # exit beyond q' at h = cap / 2 is the same rare count
    rows = run_experiment(cfg_for("exit_tail_remark", replicates=reps, height_cap=0.5,
                                  q_grid=(0.5, 1.0)))
    for row, q in zip(rows, (0.5, 1.0)):
        v = LD.psi_at(q).v_of(0.25)
        assert row.oracle == v
        assert row.stderr == pytest.approx(math.sqrt((2 * n * v - v * v) / reps), rel=1e-12)

    # b_q n sigma e^{-lam sigma}: n b_q^2 psi''(u2) / psi'(u2)^3 - (b_q / psi'(u1))^2,
    # with b_q = 1, psi'' = 2 and psi' = 1 + 2u for psi_1 = lam + lam^2
    rows = run_experiment(cfg_for("size_bias", replicates=reps, q_grid=(1.0,),
                                  lambda_grid=(1.0, 2.0)))
    pruned = [row for row in rows if row.point.endswith(",pruned")]
    for row, lam in zip(pruned, (1.0, 2.0), strict=True):
        u1, u2 = inv(lam), inv(2.0 * lam)
        want = math.sqrt((2 * n * 2.0 / (1.0 + 2.0 * u2) ** 3 - (1.0 / (1.0 + 2.0 * u1)) ** 2) / reps)
        assert row.stderr == pytest.approx(want, rel=1e-12)

    cfg = cfg_for("special_markov_intensity", replicates=reps, height_cap=1.0, q_grid=(1.0,))
    (row,) = run_experiment(cfg)
    tall, low = fine_arm_draws(cfg).T
    assert row.estimate == tall.sum() / low.sum()
    assert row.stderr == pytest.approx(math.sqrt(row.oracle / low.sum()), rel=1e-12)


def test_a_negative_null_variance_fails_the_point(monkeypatch):
    # N[(1 - e^{-sigma})^2] = 2 u(1) - u(2) < 0: no law has these values
    monkeypatch.setattr(laws, "sigma_laplace", lambda mech, lam: 1.0 if lam < 1.5 else 50.0)
    (row,) = run_experiment(cfg_for("sigma_laplace", replicates=100, q_grid=(1.0,),
                                    lambda_grid=(1.0,)))
    assert math.isnan(row.stderr) and math.isnan(row.z) and not row.passed


def test_forest_chunks_are_a_function_of_the_config():
    cases = ((LD, 0.0, 100, 0.5), (LD, 0.0, 400, 2.0), (LD, 1.0, 200, 2.0),
             (SHIFT, 0.0, 100, 0.5), (LD, 0.0, 20_000, 2.0))
    for fam, q, n, cap in cases:
        scheme = GwScheme.build(fam.psi_at(q), n)
        # expected individuals of one excursion: generations 0..G, mean m each step
        m = 1.0 - scheme.mech.b / scheme.gamma
        e = sum(m**g for g in range(math.ceil(cap * scheme.gamma - 1e-9)))
        most = max(1, experiments.NODE_TARGET // e)
        for size in (1, 100, 999, 10_000, 123_457):
            chunks = experiments._forest_chunks(scheme, cap, size)
            assert sum(chunks) == size
            assert max(chunks) <= most and max(chunks) - min(chunks) <= 1
            assert chunks == experiments._forest_chunks(
                GwScheme.build(fam.psi_at(q), n), cap, size)


def test_forest_chunks_match_the_full_sum_and_return_at_any_cap():
    def full_sum_chunks(scheme, cap, size):
        m = 1.0 - scheme.mech.b / scheme.gamma
        e = sum(m**g for g in range(math.ceil(cap * scheme.gamma - 1e-9)))
        return -(-size // max(1, int(experiments.NODE_TARGET // e)))

    for fam, q, n in ((LD, 0.0, 100), (LD, 1.0, 100), (SHIFT, 0.0, 100), (SHIFT, 1.0, 200)):
        scheme = GwScheme.build(fam.psi_at(q), n)
        for cap in (0.5, 2.0, 20.0, 200.0):
            for size in (1, 1000, 123_457):
                chunks = experiments._forest_chunks(scheme, cap, size)
                assert len(chunks) == full_sum_chunks(scheme, cap, size)
    # a cap of 1e9 spans 2e11 generations: the critical sum passes NODE_TARGET,
    # the subcritical one stops moving at its limit 1/(1 - m) = 201
    critical = GwScheme.build(LD.psi_at(0.0), 100)
    assert experiments._forest_chunks(critical, 1e9, 100) == [1] * 100
    sub = GwScheme.build(LD.psi_at(1.0), 100)
    assert experiments._forest_chunks(sub, 1e9, 1000) == experiments._forest_chunks(sub, 200.0, 1000)
    # a cap below the roundoff allowance still grows generation 0
    assert experiments._forest_chunks(critical, 1e-12, 100) == [100]


@pytest.mark.parametrize("name", ["prune_marginal", "special_markov_intensity",
                                  "exit_tail_remark"])
def test_equal_configs_give_equal_csv_bytes_over_many_forests(name, tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "NODE_TARGET", 3_000)
    cfg = cfg_for(name, family=SHIFT, replicates=300, height_cap=0.5, q_grid=(1.0,),
                  lambda_grid=(1.0,))
    assert len(experiments._forest_chunks(GwScheme.build(SHIFT.psi_at(0.0), 200), 0.5, 300)) > 5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": SHIFT.to_dict(), "params": {
        "seed": cfg.seed, "resolution": cfg.resolution, "replicates": cfg.replicates,
        "height_cap": cfg.height_cap, "q_grid": list(cfg.q_grid),
        "lambda_grid": list(cfg.lambda_grid)}}))
    outs = []
    for k in range(2):
        out = tmp_path / f"rows-{k}.csv"
        assert cli.main(["verify", name, "--config", str(path), "--out", str(out)]) in (0, 1)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# ------------------------------------------------------- small MC passes


def test_height_law_quadratic():
    rows = run_experiment(cfg_for("height_law", replicates=4000, q_grid=(0.5, 1.0)))
    assert [r.point for r in rows] == ["a=0.5", "a=1"]
    assert rows[0].oracle == pytest.approx(2.0, rel=1e-12)
    assert all(r.passed for r in rows)


# parent bytes of one-level height_law configs, from before the levels
# shared one run: a single level draws exactly what it drew alone
ONE_LEVEL_HEIGHT_LAW = {
    0.5: "height_law,a=0.5,1.3,0.386079952574,1.50185514214,0.266999080668,true\n",
    1.0: "height_law,a=1,0.6,0.26149423204,0.686146317748,0.307706175869,true\n",
}


@pytest.mark.parametrize("a", sorted(ONE_LEVEL_HEIGHT_LAW))
def test_one_level_height_law_keeps_its_csv_bytes(a, tmp_path):
    fam = {"type": "shift", "window": [-0.25, 3.0], "left_closed": True,
           "base": {"b": 0.0, "c": 1.0, "m": [{"type": "point", "z": 1.0, "w": 1.0},
                                              {"type": "point", "z": 0.5, "w": 2.0}]}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": fam, "params": {
        "seed": 17, "resolution": 100, "replicates": 2000, "q_grid": [a]}}))
    out = tmp_path / "out.csv"
    assert cli.main(["verify", "height_law", "--config", str(cfg), "--out", str(out)]) == 0
    header = "experiment,point,mc_estimate,mc_stderr,oracle_value,z_score,pass\n"
    assert out.read_text() == header + ONE_LEVEL_HEIGHT_LAW[a]


def test_height_law_reads_its_top_level_from_a_run_capped_there():
    cfg = cfg_for("height_law", replicates=400, q_grid=(1.0, 0.25, 0.5))
    cols = fine_arm_draws(cfg)
    assert cols.shape == (400, 3)
    rng = RngStream(cfg.seed).child(0, 1).generator()
    run = population_run(GwScheme.build(LD.psi_at(0.0), 200), rng, 400, height_cap=1.0)
    np.testing.assert_array_equal(cols[:, 0], run.at_cap > 0)
    assert 0 < cols[:, 0].sum() < cols[:, 2].sum() < cols[:, 1].sum() < 400


def test_height_law_lower_levels_match_a_grown_jump_forest():
    levels = (0.1, 0.4, 0.2)
    cfg = cfg_for("height_law", family=SHIFT, replicates=400, q_grid=levels)
    cols = fine_arm_draws(cfg)
    scheme = GwScheme.build(SHIFT.psi_at(0.0), 200)
    rng = RngStream(cfg.seed).child(0, 1).generator()
    par, _, offsets, _ = _grow(scheme, rng, 400, max(levels))
    for k, a in enumerate(levels):
        _, at_gen, _ = _forest_counts_by_root(
            par, offsets, 400, _level_generation(scheme.gamma, a))
        np.testing.assert_array_equal(cols[:, k], at_gen > 0)
    assert 0 < cols[:, 1].sum() < cols[:, 2].sum() < cols[:, 0].sum() < 400


def test_height_law_counts_trees_at_aligned_cap():
    # gamma is exactly 201 at resolution 100, so the cap a=1 sits on a
    # generation boundary; this config used to count zero crossings
    rows = run_experiment(
        cfg_for("height_law", family=SHIFT, replicates=2000, q_grid=(1.0,))
    )
    assert rows[0].estimate > 0.0
    assert rows[0].passed


def test_sigma_laplace_golden_point():
    rows = run_experiment(
        cfg_for("sigma_laplace", replicates=4000, q_grid=(1.0,), lambda_grid=(1.0,))
    )
    assert rows[0].point == "q=1,lam=1"
    assert rows[0].oracle == pytest.approx(GOLDEN, rel=1e-12)
    assert rows[0].passed


def test_prune_marginal_rows():
    rows = run_experiment(
        cfg_for(
            "prune_marginal",
            height_cap=2.0,
            replicates=1000,
            q_grid=(1.0,),
            lambda_grid=(1.0,),
        )
    )
    assert [r.point for r in rows] == ["q=1,lam=1", "q=1,a=0.5", "q=1,a=1"]
    assert all(r.passed for r in rows)


def unmarked_reading(forest, label, size):
    """The forest read with no mark: the columns of the reference arm when
    it grew trees."""
    none = np.zeros(0, dtype=np.int64)
    marked = MarkedTree(forest, (0.0, 0.0), none, np.zeros(0), np.zeros(0), none, np.zeros(0))
    return marked.read(0.0, label, size)


@pytest.mark.parametrize("cap", [0.5, 100.0 / 403.0])
def test_prune_marginal_reference_arm_reads_the_grown_forest_columns(cap):
    # on the shift family (a jump law) a counts run draws, replicate by
    # replicate, the offspring of the forest of all replicates grown on the
    # same generator; gamma is 403 at the finer resolution, so the cap
    # 100/403 puts both levels cap/4 and cap/2 on the 1/gamma lattice
    size = 400
    cfg = cfg_for("prune_marginal", family=SHIFT, replicates=size, height_cap=cap,
                  q_grid=(1.0,), lambda_grid=(1.0,))
    cols = fine_arm_draws(cfg, side=1)
    scheme = GwScheme.build(SHIFT.psi_at(1.0), 2 * cfg.resolution)
    assert scheme.gamma == 403.0 and scheme.mech.m
    aligned = [(a * scheme.gamma).is_integer() for a in (cap / 4.0, cap / 2.0)]
    assert aligned == ([True, True] if cap < 0.5 else [False, False])
    rng = RngStream(cfg.seed).child(0, 1, 1).generator()
    forest, label = gw_forest(scheme, rng, size, cap)
    want = unmarked_reading(forest, label, size)
    for k, a in enumerate((cap / 4.0, cap / 2.0), 1):
        np.testing.assert_array_equal(cols[:, k], want.height > a)
        assert 0 < cols[:, k].sum() < size
    np.testing.assert_allclose(cols[:, 0], want.mass, rtol=1e-12, atol=0.0)
    # the counts run's heights are the forest's, bit for bit
    rng = RngStream(cfg.seed).child(0, 1, 1).generator()
    run = population_run(scheme, rng, size, height_cap=cap)
    np.testing.assert_array_equal(run.height(), want.height)


def test_special_markov_small():
    rows = run_experiment(
        cfg_for(
            "special_markov_intensity", height_cap=1.0, replicates=1500, q_grid=(1.0,)
        )
    )
    assert rows[0].point == "q=1,eps=0.25"
    assert rows[0].passed


def test_two_step_statistics():
    rows = run_experiment(
        cfg_for(
            "two_step_markov",
            family=SHIFT,
            height_cap=1.0,
            replicates=600,
            q_grid=(1.0,),
        )
    )
    assert {r.point for r in rows} == {"q=1,sigma", "q=1,height", "q=1,nodes"}
    assert all(r.passed for r in rows)


def test_cond_sigma_exact_sampler():
    rows = run_experiment(
        cfg_for("cond_sigma", replicates=20000, q_grid=(1.0,), lambda_grid=(1.0, 2.0))
    )
    assert all(r.passed for r in rows)


def test_ascension_tail_small():
    rows = run_experiment(
        cfg_for("ascension_tail", height_cap=0.4, replicates=3000, q_grid=(-1.0,))
    )
    # the capped tail exceeds the ascension limit eta_{-1} = 1
    assert rows[0].oracle > 1.0
    assert rows[0].passed


def test_exit_tail_frozen_point():
    rows = run_experiment(
        cfg_for(
            "exit_tail_remark",
            height_cap=2.0 * math.log(2.0),
            replicates=2000,
            q_grid=(1.0,),
        )
    )
    assert rows[0].oracle == pytest.approx(1.0, rel=1e-9)
    assert rows[0].passed


def test_size_bias_two_estimators():
    rows = run_experiment(
        cfg_for("size_bias", replicates=800, q_grid=(1.0,), lambda_grid=(2.0,))
    )
    assert {r.point for r in rows} == {"q=1,lam=2,pruned", "q=1,lam=2,star"}
    assert all(r.oracle == pytest.approx(1.0 / 3.0, rel=1e-9) for r in rows)
    assert all(r.passed for r in rows)


def test_spine_exponential_small():
    rows = run_experiment(
        cfg_for("spine_exponential", height_cap=2.0, replicates=3000, q_grid=(1.0,))
    )
    mean_row, ks_row = rows
    assert mean_row.point == "q=1,mean"
    assert mean_row.oracle == pytest.approx(-math.expm1(-2.0), rel=1e-12)
    assert mean_row.passed
    assert ks_row.point == "q=1,ks"
    assert ks_row.passed


def test_girsanov_small():
    rows = run_experiment(
        cfg_for("girsanov_gir2", height_cap=0.4, replicates=2000, q_grid=(-1.0,))
    )
    assert rows[0].oracle == pytest.approx(-1.0, rel=1e-12)
    assert rows[0].passed


def test_mz_cocycle_rows_are_exact():
    rows = run_experiment(cfg_for("mz_cocycle", family=SHIFT))
    assert rows
    assert all(math.isnan(r.z) for r in rows)
    assert all(r.stderr == 0.0 for r in rows)
    assert all(r.passed for r in rows)


ATOMLESS_TRUNCATION = family_from_dict(
    {"type": "truncation", "base": {"b": 0.0, "c": 1.0, "m": []}, "h0": 1.0, "slope": 0.0,
     "g_rate": 0.5, "window": [-1.0, 1.0]})


@pytest.mark.parametrize("family", [
    LinearDriftFamily(1.0, 1.0, window=(-1.0, 1.0)),
    ATOMLESS_TRUNCATION,  # qbar by the base-class root finder
    ReflectedFamily(ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),)), (-0.5, 0.0))),
], ids=["lineardrift", "truncation", "reflected"])
def test_ascension_representation_rows_are_exact(family):
    q_grid, lambda_grid = (-0.2, -0.1, -0.05), (0.5, 1.0, 2.0)
    rows = run_experiment(cfg_for("ascension_representation", family=family,
                                  q_grid=q_grid, lambda_grid=lambda_grid))
    assert [r.point for r in rows] == [f"q={q:g},lam={lam:g}"
                                       for q in q_grid for lam in lambda_grid]
    assert all(r.passed and r.stderr == 0.0 and math.isnan(r.z) for r in rows)
    for r, (q, lam) in zip(rows, [(q, lam) for q in q_grid for lam in lambda_grid]):
        assert r.estimate == laws.tree_at_ascension(family, q, lam)
        assert r.oracle == laws.size_bias_identity(family, family.qbar(q), lam)


# ------------------------------------- cut helpers against node-by-node sweeps

JUMPY = ShiftFamily(Mechanism(0.0, 0.2, (PointMass(1.0, 4.0),)), (-0.5, 3.0))


def subtree_tips_reference(tree):
    tip = tree.depth.copy()
    par = tree.parent
    for i in range(len(tip) - 1, 0, -1):
        if tip[i] > tip[par[i]]:
            tip[par[i]] = tip[i]
    return tip


def assert_component_tips(marked, q, tips):
    """`_component_tips` at every stub and closed node of pruning at q
    against the subtree sweep's tips; returns the number of closed nodes."""
    base = marked.base
    keep, stubs, _, closed = marked.cuts_at(q)
    tops = np.concatenate([stubs, closed])
    got = _component_tips(base, keep, closed)
    np.testing.assert_array_equal(got[tops], tips[tops])
    return len(closed)


def tall_removed_reference(marked, q, eps, attach_max):
    base = marked.base
    par = base.parent
    n_nodes = len(par)
    depth = base.depth
    tip = subtree_tips_reference(base)
    first = np.full(n_nodes, np.inf)
    live = marked.times <= q
    np.minimum.at(first, marked.edge_ids[live], marked.offsets[live])
    node_marked = np.zeros(n_nodes, dtype=bool)
    node_marked[marked.node_ids[marked.node_times <= q]] = True
    hit = np.isfinite(first)
    cut = np.zeros(n_nodes, dtype=bool)
    count = 0
    for i in range(1, n_nodes):
        p = par[i]
        cut[i] = cut[p] or node_marked[p] or hit[i]
        if hit[i] and not cut[p] and not node_marked[p]:
            level = depth[p] + first[i]
            if level <= attach_max and tip[i] - level > eps:
                count += 1
    for p in np.flatnonzero(node_marked & ~cut):
        kids = np.flatnonzero(par == p)
        if len(kids) and depth[p] <= attach_max and tip[kids].max() - depth[p] > eps:
            count += 1
    return count


def first_cut_reference(tree, marked, q):
    depth = tree.depth
    best = math.inf
    live = marked.times <= q
    for e, off in zip(marked.edge_ids[live], marked.offsets[live]):
        level = depth[tree.parent[e]] + off
        if level < best:
            best = level
    marked_nodes = marked.node_ids[marked.node_times <= q]
    if len(marked_nodes):
        best = min(best, float(depth[marked_nodes].min()))
    return best


def marked_gw_tree(fam, seed, min_nodes=30):
    sch = GwScheme.build(fam.psi_at(0.0), 40)
    rng = RngStream(seed).replicate(0)
    for _ in range(50):
        tree = gw_tree(sch, rng, height_cap=1.0)
        if len(tree) >= min_nodes:
            break
    return generate_marks(tree, fam, (0.0, 2.0), rng)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), fam=st.sampled_from([LD, SHIFT, JUMPY]))
def test_cut_helpers_match_the_node_sweeps(seed, fam):
    marked = marked_gw_tree(fam, seed)
    tree = marked.base
    tips = subtree_tips_reference(tree)
    rng = np.random.default_rng(seed)
    own = np.concatenate([marked.times, marked.node_times])[:4]
    for q in np.concatenate([[0.0, 2.0], rng.uniform(0.0, 2.0, 2), own]):
        assert_component_tips(marked, q, tips)
        assert marked.read(q).first_cut.tolist() == [first_cut_reference(tree, marked, q)]
        for eps, attach_max in ((0.05, 1.0), (0.2, 0.5), (1e-9, 2.0)):
            assert marked.read(q, eps=eps, attach_max=attach_max).tall[0] == (
                tall_removed_reference(marked, q, eps, attach_max))


def test_component_tips_of_closed_nodes_match_the_subtree_sweep():
    # SHIFT marks the many-child node (delta = 1) in the window (0, 1) with
    # probability about 0.63; it hangs a binary subtree and two leaves
    tree = FiniteTree(np.array([-1, 0, 1, 1, 1, 2, 2]),
                      np.array([0.0, 0.4, 0.3, 0.5, 0.6, 0.2, 0.3]),
                      np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
                      np.array([0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4]))
    forest, _ = tree.tiled(200)
    tips = subtree_tips_reference(forest)
    rng = RngStream(31).replicate(0)
    closed = 0
    for _ in range(5):
        marked = generate_marks(forest, SHIFT, (0.0, 1.0), rng)
        for q in (0.25, 0.5, 1.0):
            closed += assert_component_tips(marked, q, tips)
    assert closed > 0


# -------------------------- the forest reader against per-tree node sweeps


def split_forest(marked, label, k):
    """Replicate k of a marked forest as its own tree with the same marks;
    its depth is left to the loop."""
    forest = marked.base
    nodes = np.concatenate([[0], np.flatnonzero(label == k)])
    remap = np.full(len(forest), -1)
    remap[nodes] = np.arange(len(nodes))
    tree = FiniteTree(np.where(nodes == 0, -1, remap[forest.parent[nodes]]),
                      forest.length[nodes], forest.delta[nodes], forest.mu[nodes])
    assert "depth" not in tree.__dict__
    edges = remap[marked.edge_ids] >= 0
    at = remap[marked.node_ids] >= 0
    return MarkedTree(tree, marked.window, remap[marked.edge_ids[edges]],
                      marked.offsets[edges], marked.times[edges],
                      remap[marked.node_ids[at]], marked.node_times[at])


def pruned_reference(marked, q, attach_max):
    """(mass, height, kept mass at depth <= attach_max) of pruning at q, by
    one top-down sweep over the nodes."""
    base = marked.base
    par, depth, mu = base.parent, base.depth, base.mu
    first = np.full(len(par), np.inf)
    live = marked.times <= q
    np.minimum.at(first, marked.edge_ids[live], marked.offsets[live])
    node_marked = np.zeros(len(par), dtype=bool)
    node_marked[marked.node_ids[marked.node_times <= q]] = True
    cut = np.zeros(len(par), dtype=bool)
    mass = low = height = 0.0
    for i in range(1, len(par)):
        p = par[i]
        cut[i] = cut[p] or node_marked[p] or math.isfinite(first[i])
        if not (cut[p] or node_marked[p]) and math.isfinite(first[i]):
            height = max(height, depth[p] + first[i])
        if not cut[i]:
            height = max(height, depth[i])
            mass += mu[i]
            if depth[i] <= attach_max:
                low += mu[i]
    return mass, height, low


# lattice-aligned caps: cap * gamma is an integer, so the top generation
# and a level of cap - eps - 2/gamma sit on running sums of 1/gamma
FOREST_SCHEMES = {
    "lineardrift": (LD, GwScheme.build(LD.psi_at(0.0), 40), 0.5),
    "jump": (JUMPY, GwScheme.build(JUMPY.psi_at(0.0), 40), None),
}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), name=st.sampled_from(sorted(FOREST_SCHEMES)))
def test_the_forest_reader_matches_per_tree_sweeps(seed, name):
    fam, scheme, cap = FOREST_SCHEMES[name]
    gamma = scheme.gamma
    cap = cap or 24.0 / gamma
    assert (cap * gamma).is_integer()
    rng = RngStream(seed).replicate(0)
    size = 12
    forest, label = gw_forest(scheme, rng, size, height_cap=cap)
    marked = generate_marks(forest, fam, (0.0, 2.0), rng)
    # replicate k is the excursion of root individual k, node k + 1
    par = forest.parent
    assert label[0] == -1 and np.array_equal(np.flatnonzero(par == 0), np.arange(1, size + 1))
    np.testing.assert_array_equal(label[1:size + 1], np.arange(size))
    np.testing.assert_array_equal(label[size + 1:], label[par[size + 1:]])
    trees = [split_forest(marked, label, k) for k in range(size)]
    assert sum(len(t.base) - 1 for t in trees) == len(forest) - 1
    eps = cap / 4.0
    own = np.concatenate([marked.times[:3], marked.node_times[:3]])
    qs = np.sort(np.concatenate([[0.0, 2.0], own, rng.uniform(0.0, 2.0, 2)]))
    tips = subtree_tips_reference(forest)
    for q in qs:
        assert_component_tips(marked, q, tips)
        for attach_max in (cap - eps - 2.0 / gamma, cap / 2.0, cap):
            got = marked.read(q, label, size, eps, attach_max)
            for k, tree in enumerate(trees):
                mass, height, low = pruned_reference(tree, q, attach_max)
                assert got.height[k] == height
                assert got.mass[k] == pytest.approx(mass, rel=1e-12, abs=1e-300)
                assert got.low_mass[k] == pytest.approx(low, rel=1e-12, abs=1e-300)
                assert got.tall[k] == tall_removed_reference(tree, q, eps, attach_max)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), fam=st.sampled_from([LD, JUMPY]))
def test_first_cut_on_the_spine_matches_the_sweep(seed, fam):
    rng = RngStream(seed).replicate(0)
    size = 8
    forest, label = spine_forest(fam.psi_at(0.0), 2.0, rng, size)
    marked = generate_marks(forest, fam, (0.0, 1.0), rng)
    spines = [split_forest(marked, label, k) for k in range(size)]
    for q in (0.0, 0.5, 1.0):
        np.testing.assert_array_equal(marked.read(q, label, size).first_cut, [
            first_cut_reference(spine.base, spine, q) for spine in spines])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), fam=st.sampled_from([LD, SHIFT, JUMPY]))
def test_two_step_forest_matches_pruning_each_copy(seed, fam):
    tree = marked_gw_tree(fam, seed).base
    rng = np.random.default_rng(seed)
    size = 6
    # one pass 0 -> 1, and two passes 0 -> 0.5 -> 1 with the re-mark
    for windows in (((0.0, 1.0),), ((0.0, 0.5), (0.5, 1.0))):
        forest, label = tree.tiled(size)
        for t, q in windows:
            marked = generate_marks(forest, fam, (t, q), rng)
            copies = [split_forest(marked, label, k) for k in range(size)]
            copies = [copy.pruned(q, np.zeros(len(copy.base), dtype=np.int64))[0]
                      for copy in copies]
            forest, label = marked.pruned(q, label)
            got = _by_copy(forest, label, size)
            for k, want in enumerate(copies):
                assert got[k, 0] == pytest.approx(want.mu.sum(), rel=1e-12, abs=1e-300)
                assert got[k, 1] == want.depth.max() and got[k, 2] == len(want)


def test_girsanov_small_jump_family():
    # the counts engine on a jump law, through the conjugate of psi_{-0.2}
    rows = run_experiment(
        cfg_for("girsanov_gir2", family=SHIFT, height_cap=0.4, q_grid=(-0.2,))
    )
    assert rows[0].oracle == pytest.approx(-SHIFT.psi_at(-0.2).eta, rel=1e-12)
    assert rows[0].passed
