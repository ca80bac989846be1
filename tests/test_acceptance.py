"""Acceptance gate: one test per advertised guarantee, at its stated size.

Each test prints a single [pass]/[FAIL] line (run with -s to see them all).
Monte Carlo runs use fixed seeds, so a rerun reproduces the numbers exactly;
the heavier sweeps take a few minutes in total.
"""

import json
import math
import time

import numpy as np
import pytest

from levytree import cli, laws, prune
from levytree.experiments import ExperimentConfig, run_experiment
from levytree.family import LinearDriftFamily, ShiftFamily
from levytree.mechanism import GammaDensity, Mechanism, PointMass
from levytree.sampler import RngStream
from levytree.tree import FiniteTree

LD = LinearDriftFamily(1.0, 1.0)
SHIFT = ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),)), (-0.25, 3.0))

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _report(label, ok, detail=""):
    tag = "pass" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def _worst_z(rows):
    return max((r.z for r in rows if not math.isnan(r.z)), default=0.0)


def _mc_report(label, rows):
    _report(label, all(r.passed for r in rows), f"worst z = {_worst_z(rows):.2f}")


def test_01_mechanism_value_suite():
    t0 = time.time()
    quad = Mechanism(0.0, 1.0)
    sub = Mechanism(1.0, 1.0)
    checks = [
        (quad.psi_inverse(4.0), 2.0),
        (quad.v_of(0.5), 2.0),
        (quad.u_of(1.0, 1.0), 0.5),
        (sub.v_of(math.log(2.0)), 1.0),
        (sub.psi_inverse(1.0), GOLDEN),
    ]
    worst = max(abs(got - want) / abs(want) for got, want in checks)
    elapsed = time.time() - t0
    _report(
        "mechanism values: psi_inverse, v, u frozen points (1e-9 rel, <1s)",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst rel err = {worst:.1e}, {elapsed:.2f}s",
    )


def test_02_flow_identities():
    t0 = time.time()
    rng = np.random.default_rng(17)
    mechs = [
        Mechanism(0.0, 1.0),
        Mechanism(1.0, 1.0),
        Mechanism(0.5, 1.0, (PointMass(1.3, 0.8), GammaDensity(1.5, 2.0, 0.6))),
    ]
    worst_semi = worst_ode = 0.0
    for k in range(1000):
        mech = mechs[k % len(mechs)]
        a, ap = rng.uniform(0.05, 1.5, size=2)
        lam = rng.uniform(0.1, 5.0)
        rhs = mech.u_of(a + ap, lam)
        worst_semi = max(
            worst_semi, abs(mech.u_of(a, mech.u_of(ap, lam)) - rhs) / abs(rhs)
        )
        h = 1e-5 * a
        dv = (mech.v_of(a + h) - mech.v_of(a - h)) / (2.0 * h)
        psi_v = mech.psi(mech.v_of(a))
        worst_ode = max(worst_ode, abs(dv + psi_v) / abs(psi_v))
    elapsed = time.time() - t0
    _report(
        "flow identities: semigroup of u (1e-9) and dv/da = -psi(v) (1e-6), "
        "1000 random points, <10s",
        worst_semi <= 1e-9 and worst_ode <= 1e-6 and elapsed < 10.0,
        f"semigroup {worst_semi:.1e}, derivative {worst_ode:.1e}, {elapsed:.1f}s",
    )


def test_03_height_law_bulk():
    cfg = ExperimentConfig(
        family=LD,
        experiment="height_law",
        seed=101,
        resolution=2000,
        replicates=100_000,
        q_grid=(0.5, 1.0, 2.0),
    )
    rows = run_experiment(cfg)
    assert [r.oracle for r in rows] == pytest.approx([2.0, 1.0, 0.5], rel=1e-12)
    _mc_report("height law: n*P(H > a) vs 1/a at n=2000, N=1e5, a in {0.5,1,2}", rows)


def test_04_total_mass_laplace():
    cfg = ExperimentConfig(
        family=LD,
        experiment="sigma_laplace",
        seed=102,
        resolution=400,
        replicates=40_000,
        q_grid=(1.0,),
        lambda_grid=(1.0,),
    )
    rows = run_experiment(cfg)
    assert rows[0].oracle == pytest.approx(0.618034, abs=1e-6)
    _mc_report("total-mass Laplace: n*E[1-exp(-sigma)] vs 0.618034", rows)


def test_05_prune_marginal():
    cfg = ExperimentConfig(
        family=LD,
        experiment="prune_marginal",
        seed=103,
        resolution=200,
        replicates=10_000,
        height_cap=2.0,
        q_grid=(1.0,),
        lambda_grid=(0.5, 1.0, 2.0),
    )
    rows = run_experiment(cfg)
    points = [r.point for r in rows]
    assert points == ["q=1,lam=0.5", "q=1,lam=1", "q=1,lam=2", "q=1,a=0.5", "q=1,a=1"]
    _mc_report(
        "pruning marginal: pruned 0->1 trees vs direct target trees, "
        "sigma-Laplace and height tails, N=1e4/arm",
        rows,
    )


def test_06_two_step_and_cocycle():
    cfg = ExperimentConfig(
        family=SHIFT,
        experiment="two_step_markov",
        seed=104,
        resolution=200,
        replicates=20_000,
        height_cap=2.0,
        q_grid=(1.0,),
    )
    rows = run_experiment(cfg)
    worst_split = 0.0
    for delta in (0.5, 1.0, 2.0):
        whole = SHIFT.node_survival(0.0, 2.0, delta)
        split = SHIFT.node_survival(0.0, 1.0, delta) * SHIFT.node_survival(1.0, 2.0, delta)
        worst_split = max(worst_split, abs(whole - split))
    worst_split = max(worst_split, abs(SHIFT.mz(0.0, 2.0, 0) - SHIFT.mz(0.0, 1.0, 0) * SHIFT.mz(1.0, 2.0, 0)))
    ok = all(r.passed for r in rows) and worst_split <= 1e-12
    _report(
        "two-step pruning: 0->1 vs 0->0.5->1 re-marked, plus exact survival "
        "cocycle split at 1 of (0,2)",
        ok,
        f"worst z = {_worst_z(rows):.2f}, cocycle err = {worst_split:.1e}",
    )


def test_06b_two_step_with_node_marks(monkeypatch):
    # test_06's base tree has no many-child node, so it never draws a node
    # mark.  Here SHIFT marks the many-child node (delta = 1) in the window
    # (0, 1) with probability about 0.63, dropping a binary subtree and two
    # leaves at once.
    tree = FiniteTree(np.array([-1, 0, 1, 1, 1, 2, 2]),
                      np.array([0.0, 0.4, 0.3, 0.5, 0.6, 0.2, 0.3]),
                      np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
                      np.array([0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4]))
    assert np.flatnonzero(tree.delta > 0).tolist() == [1]
    node_marks = []
    mark = prune.generate_marks

    def counted(*args):
        marked = mark(*args)
        node_marks.append(len(marked.node_ids))
        return marked

    monkeypatch.setattr(prune, "generate_marks", counted)
    stats = prune.two_step_consistency(
        tree, SHIFT, 0.0, 0.5, 1.0, RngStream(113).replicate(0), 20_000)
    worst = max(abs(one - two) / se for one, two, se in stats.values())
    _report(
        "two-step pruning with node marks: 0->1 vs 0->0.5->1 re-marked on a "
        "many-child node",
        sum(node_marks) > 0 and worst <= 3.0,
        f"worst z = {worst:.2f}, node marks = {sum(node_marks)}",
    )


def test_07_special_markov_intensity():
    rows = []
    for fam, n, reps, seed in ((LD, 200, 10_000, 105), (SHIFT, 100, 4_000, 106)):
        cfg = ExperimentConfig(
            family=fam,
            experiment="special_markov_intensity",
            seed=seed,
            resolution=n,
            replicates=reps,
            height_cap=1.0,
            q_grid=(1.0,),
        )
        rows += run_experiment(cfg)
    _mc_report(
        "special Markov property: tall removed components per unit retained "
        "mass, height-truncated, drift and jump families",
        rows,
    )


def test_08_conditional_mass_transition():
    cfg = ExperimentConfig(
        family=LD,
        experiment="cond_sigma",
        seed=107,
        replicates=200_000,
        q_grid=(0.5, 1.0),
        lambda_grid=(0.5, 1.0, 2.0),
    )
    rows = run_experiment(cfg)
    _mc_report(
        "conditional mass transition: exact pruned-mass sampler vs "
        "exp(-psi_q(psi_0^{-1}(lam)) sigma_q)",
        rows,
    )


def test_09_ascension_tail():
    worst_eta = max(abs(LD.eta_at(q) + q) for q in (-0.25, -0.5, -1.0, -2.0))
    cfg = ExperimentConfig(
        family=LD,
        experiment="ascension_tail",
        seed=108,
        resolution=200,
        replicates=20_000,
        height_cap=math.log(2.0),
        q_grid=(-1.0,),
    )
    rows = run_experiment(cfg)
    # v at psi_{-1} of ln 2 is exactly 2
    ok = worst_eta <= 1e-10 and abs(rows[0].oracle - 2.0) <= 1e-9 and all(
        r.passed for r in rows
    )
    _report(
        "ascension tail: eta_q = -q exact (1e-10) and supercritical window MC "
        "at q=-1, a=ln2",
        ok,
        f"eta err = {worst_eta:.1e}, z = {_worst_z(rows):.2f}",
    )


def test_10_size_bias_representation():
    cfg = ExperimentConfig(
        family=LD,
        experiment="size_bias",
        seed=109,
        resolution=200,
        replicates=4_000,
        q_grid=(1.0,),
        lambda_grid=(2.0,),
    )
    rows = run_experiment(cfg)
    assert all(r.oracle == pytest.approx(1.0 / 3.0, rel=1e-12) for r in rows)
    spine_cfg = ExperimentConfig(
        family=LD,
        experiment="spine_exponential",
        seed=110,
        resolution=200,
        replicates=20_000,
        height_cap=3.0,
        q_grid=(1.0,),
    )
    spine_rows = run_experiment(spine_cfg)
    ok = all(r.passed for r in rows + spine_rows)
    ks_p = next(r.estimate for r in spine_rows if r.point.endswith("ks"))
    _report(
        "size bias at q=1, lam=2: pruned-tree and half-line estimators vs 1/3, "
        "spine cut Exponential(1) mean and KS at 1%",
        ok,
        f"worst z = {_worst_z(rows + spine_rows):.2f}, KS p = {ks_p:.3f}",
    )


def test_11_exit_time_remark():
    cfg = ExperimentConfig(
        family=LD,
        experiment="exit_tail_remark",
        seed=111,
        resolution=200,
        replicates=10_000,
        height_cap=2.0 * math.log(2.0),
        q_grid=(1.0,),
    )
    rows = run_experiment(cfg)
    oracle_ok = abs(rows[0].oracle - 1.0) <= 1e-9
    law = laws.exit_time_laws(LD, -1.0, -0.5, math.log(2.0))
    frozen_ok = abs(law.beyond - 0.6588830833596719) <= 1e-5
    near = laws.exit_time_laws(LD, -1.0, -1.0 + 1e-8, math.log(2.0))
    complement_ok = abs(near.beyond + near.at_ascension - 1.0) <= 1e-6
    ok = oracle_ok and frozen_ok and complement_ok and all(r.passed for r in rows)
    _report(
        "exit-time remark: N[A_h >= 1] = v_{psi_1}(ln2) = 1 by MC, conditional "
        "split frozen at 0.658883 and complement identity",
        ok,
        f"z = {_worst_z(rows):.2f}, beyond = {law.beyond:.9f}",
    )


def test_12_csv_determinism(tmp_path):
    config = {
        "family": {
            "type": "lineardrift",
            "window": [None, None],
            "left_closed": None,
            "b_rate": 1.0,
            "c": 1.0,
        },
        "params": {
            "seed": 7,
            "replicates": 2000,
            "resolution": 100,
            "q_grid": [0.5, 1.0],
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    outs = []
    for workers in ("1", "7"):
        out = tmp_path / f"rows-{workers}.csv"
        code = cli.main(
            [
                "verify",
                "height_law",
                "--config",
                str(path),
                "--workers",
                workers,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    _report(
        "determinism: same seed, worker counts 1 and 7, byte-identical CSV",
        outs[0] == outs[1],
    )
