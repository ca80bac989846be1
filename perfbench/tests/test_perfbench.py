"""Tests of the benchmark itself (not of the package).

    python3 -m pytest -q perfbench/tests

Runs are tiny: a fraction of a second of measuring and replicate counts cut
to the package minimum, so only the plumbing is exercised.
"""

import functools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from levytree import laws  # noqa: E402

from perfbench import compare, run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.01  # replicate scale; every call drops to the package minimum of 100


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "run", functools.partial(run.run, scale=TINY))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, tiny, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--out-dir", str(tmp_path)]
    assert run.main(argv + ["--trace", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    summary = json.loads(out[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert summary["metrics"][metric["name"]]["value"] > 0
        assert any(line.startswith(f"{workload} {metric['name']} = ")
                   and line.endswith(f" {metric['unit']}") for line in out)
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    assert run.main(argv + ["--trace", "1"]) == 0
    traced = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.round_inputs(workload, 5, 2) == workloads.round_inputs(workload, 5, 2)
        assert workloads.round_inputs(workload, 5, 2) != workloads.round_inputs(workload, 6, 2)


def test_wrong_oracle_shows_in_fail_rate(monkeypatch, tmp_path):
    def wrong(mech, lam):
        return mech.psi_inverse(lam) * 1.001

    monkeypatch.setattr(laws, "sigma_laplace", wrong)
    result = run.run("population", 4, 0, 0, tmp_path, scale=TINY)
    calls = result["record"]["rounds"][0]["calls"]
    notes = {c["config"]["experiment"]: c["notes"] for c in calls}
    assert any("recomputed" in n for n in notes["sigma_laplace"])
    assert result["summary"]["failed"] >= 1
    assert result["summary"]["correct"] is False


def test_raising_oracle_shows_in_fail_rate(monkeypatch, tmp_path):
    def boom(fam, q, lam):
        raise RuntimeError("broken oracle")

    monkeypatch.setattr(laws, "size_bias_identity", boom)
    result = run.run("analytic", 4, 0.5, 0, tmp_path)
    failures = [f for r in result["record"]["rounds"] for f in r["failures"]]
    assert failures and all("broken oracle" in f["note"] for f in failures)
    assert result["summary"]["failed"] == len(failures)


@pytest.mark.parametrize("workload", ("analytic", "prune"))
def test_layer_self_times_fit_in_traced_wall(workload, tmp_path):
    result = run.run(workload, 8, 0, 1, tmp_path, scale=TINY)
    info = result["record"]["summary"]
    total_self = sum(v["self_s"] for v in info["span_self_s"].values())
    assert 0 < total_self <= info["traced_wall_s"]
    assert (tmp_path / info["span_file"]).exists()
    assert result["metrics"]["trace.overhead_ratio"][0] > 0


def test_tracer_restores_the_package(tmp_path):
    from levytree import cli, experiments, mechanism, sampler, tree

    before = (cli.main, experiments.gw_tree, sampler.gw_tree, mechanism.Mechanism.psi,
              tree.FiniteTree.__dict__["depth"], sampler.GwScheme.__dict__["build"])
    run.run("trees", 9, 0, 1, tmp_path, scale=TINY)
    after = (cli.main, experiments.gw_tree, sampler.gw_tree, mechanism.Mechanism.psi,
             tree.FiniteTree.__dict__["depth"], sampler.GwScheme.__dict__["build"])
    assert before == after


@pytest.mark.parametrize(
    "base, new, better, expect",
    [
        ([10.0] * 10, [12.0] * 10, "higher", "better"),
        ([10.0] * 10, [8.0] * 10, "higher", "worse"),
        ([10.0] * 10, [9.9] * 10, "higher", "no change"),
        ([10.0, 20.0, 5.0, 15.0] * 3, [11.0, 19.0, 6.0, 14.0] * 3, "lower", "unresolved"),
        ([10.0, 10.5, 9.5, 10.2, 9.8] * 2, [8.0, 8.1, 7.9, 8.2, 12.0] + [8.0] * 5, "lower", "better"),
        ([10.0, 10.5, 9.5, 10.2, 9.8] * 2, [8.0, 8.1, 7.9, 8.2, 12.0] * 2, "lower", "no change"),
    ],
)
def test_compare_verdicts(base, new, better, expect):
    assert compare.verdict(base, new, better, bound=0.1) == expect
