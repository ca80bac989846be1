"""CLI exit codes, CSV shape and determinism, calculator subcommands."""

import csv
import io
import json
import math
import runpy
import sys
import warnings

import pytest

from levytree import cli
from levytree.mechanism import NumericError

LD_FAM = {
    "type": "lineardrift",
    "window": [None, None],
    "left_closed": None,
    "b_rate": 1.0,
    "c": 1.0,
}

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def write_config(tmp_path, name="cfg.json", family=LD_FAM, **params):
    path = tmp_path / name
    path.write_text(json.dumps({"family": family, "params": params}))
    return str(path)


def run(argv):
    return cli.main(argv)


# ----------------------------------------------------------------- verify


def test_verify_writes_passing_csv(tmp_path):
    cfg = write_config(tmp_path, seed=7, replicates=1500, resolution=100, q_grid=[0.5])
    out = tmp_path / "rows.csv"
    assert run(["verify", "height_law", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "experiment,point,mc_estimate,mc_stderr,oracle_value,z_score,pass"
    assert len(lines) == 2
    row = next(csv.reader(io.StringIO(lines[1])))
    assert row[0] == "height_law" and row[1] == "a=0.5" and row[6] == "true"
    assert float(row[4]) == pytest.approx(2.0, rel=1e-12)


def test_verify_stdout_and_summary(tmp_path, capsys):
    cfg = write_config(
        tmp_path, seed=7, replicates=500, resolution=100, q_grid=[1.0], lambda_grid=[1.0]
    )
    assert run(["verify", "sigma_laplace", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("experiment,point,")
    assert "points passed" in captured.err
    assert "worst z" in captured.err


def test_csv_quotes_labels_containing_commas(tmp_path):
    cfg = write_config(
        tmp_path, seed=7, replicates=500, resolution=100, q_grid=[1.0], lambda_grid=[1.0]
    )
    out = tmp_path / "rows.csv"
    run(["verify", "sigma_laplace", "--config", cfg, "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    assert '"q=1,lam=1"' in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1][1] == "q=1,lam=1"


def test_worker_count_leaves_csv_bytes_alone(tmp_path):
    cfg = write_config(
        tmp_path, seed=11, replicates=800, resolution=100, q_grid=[0.5, 1.0]
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["verify", "height_law", "--config", cfg, "--out", str(a), "--workers", "1"])
    run(["verify", "height_law", "--config", cfg, "--out", str(b), "--workers", "5"])
    assert a.read_bytes() == b.read_bytes()


def test_flags_override_config_params(tmp_path):
    path = tmp_path / "noseed.json"
    path.write_text(json.dumps({"family": LD_FAM, "params": {"q_grid": [0.5]}}))
    argv = ["verify", "height_law", "--config", str(path), "--out", str(tmp_path / "o.csv")]
    assert run(argv) == 2  # seed still missing
    assert run(argv + ["--seed", "4", "--replicates", "500", "--resolution", "100"]) == 0


def test_statistical_failure_exits_one(tmp_path):
    cfg = write_config(
        tmp_path,
        seed=7,
        replicates=500,
        resolution=100,
        q_grid=[1.0],
        lambda_grid=[1.0],
        tolerance_sigmas=1e-9,
    )
    out = tmp_path / "rows.csv"
    assert run(["verify", "sigma_laplace", "--config", cfg, "--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8").strip().endswith("false")


def test_bad_configs_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, seed=7, replicates=500, resolution=100)
    assert run(["verify", "nosuch", "--config", cfg]) == 2
    assert run(["verify", "height_law", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", "height_law", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_size_bias_without_spine_cuts_exits_two(tmp_path, capsys):
    # jump-free shift family at q = 0: no mark can ever cut the spine
    fam = {
        "type": "shift",
        "window": [-0.25, 3.0],
        "left_closed": True,
        "base": {"b": 0.5, "c": 1.0, "m": []},
    }
    cfg = write_config(tmp_path, family=fam, seed=7, replicates=100, q_grid=[0.0])
    assert run(["verify", "size_bias", "--config", cfg]) == 2
    assert "alpha(0, q) > 0" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["levytree", "levytree.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path, monkeypatch, capsys):
    def run_module(*argv):
        monkeypatch.setattr(sys, "argv", [module, *argv])
        with warnings.catch_warnings():
            # levytree.cli is already imported by this test module
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(SystemExit) as stop:
                runpy.run_module(module, run_name="__main__")
        return stop.value.code

    assert run_module("list", "--json") == 0
    assert len(json.loads(capsys.readouterr().out)) == 12
    cfg = write_config(tmp_path, seed=7)
    assert run_module("verify", "nosuch", "--config", cfg) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_numeric_failure_exits_three(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, seed=7, replicates=500, resolution=100)

    def boom(cfg, workers=1):
        raise NumericError("quadrature stalled")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert run(["verify", "height_law", "--config", cfg]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_growth_over_the_node_budget_exits_three(tmp_path, monkeypatch, capsys):
    from levytree import sampler

    monkeypatch.setattr(sampler, "NODE_BUDGET", 20)
    cfg = write_config(tmp_path, seed=7, replicates=100, resolution=100,
                       height_cap=0.5, q_grid=[1.0])
    assert run(["verify", "prune_marginal", "--config", cfg]) == 3
    assert "node budget of 20" in capsys.readouterr().err


# ------------------------------------------------------------------- list


def test_list_json(capsys):
    assert run(["list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert len(catalog) == 12
    assert all(set(e) == {"name", "oracle", "description"} for e in catalog)
    assert any(e["name"] == "girsanov_gir2" for e in catalog)


def test_list_human(capsys):
    assert run(["list"]) == 0
    text = capsys.readouterr().out
    assert "height_law" in text
    assert "oracle:" in text


# ------------------------------------------------------------ calculators


QUAD = json.dumps({"b": 0.0, "c": 1.0, "m": []})
SUB = json.dumps({"b": 1.0, "c": 1.0, "m": []})


def test_mech_eval(capsys):
    assert run(["mech", "eval", "--mech", SUB, "2", "0.5"]) == 0
    vals = [float(x) for x in capsys.readouterr().out.split()]
    assert vals == [6.0, 0.75]


def test_mech_invert_v_u(capsys):
    assert run(["mech", "invert", "--mech", QUAD, "4"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.0, rel=1e-12)
    assert run(["mech", "v", "--mech", QUAD, "0.5"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.0, rel=1e-12)
    assert run(["mech", "u", "--mech", QUAD, "1", "1"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.5, rel=1e-12)


def test_mech_accepts_a_file(tmp_path, capsys):
    path = tmp_path / "mech.json"
    path.write_text(QUAD)
    assert run(["mech", "eval", "--mech", str(path), "3"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(9.0, rel=1e-12)


def test_mech_rejects_broken_json(capsys):
    assert run(["mech", "eval", "--mech", "{oops", "1"]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_mech_domain_error_exits_two(capsys):
    assert run(["mech", "v", "--mech", QUAD, "-1"]) == 2
    capsys.readouterr()


LD_JSON = json.dumps(
    {"type": "lineardrift", "window": [-1.0, 1.0], "left_closed": True,
     "b_rate": 1.0, "c": 1.0}
)


def test_family_table(capsys):
    assert run(["family", "table", "--family", LD_JSON, "--q", "-1", "0", "1"]) == 0
    text = capsys.readouterr().out
    assert "criticality" in text
    assert "supercritical" in text and "subcritical" in text


def test_family_check(capsys):
    assert run(["family", "check", "--family", LD_JSON]) == 0
    text = capsys.readouterr().out
    assert "overall: admissible" in text
