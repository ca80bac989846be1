"""Smoke test of scripts/z_sweep.py, the calibration sweep that the z-score
gates are measured with: it counts every call, and its table reads the z
that `levytree verify` prints."""

import contextlib
import csv
import importlib.util
import io
import json
from pathlib import Path

import pytest

from levytree import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "tests" / "data" / "golden" / "sigma_laplace.json"


def sweep(tmp_path, *argv):
    """The JSON table of one in-process z_sweep run."""
    spec = importlib.util.spec_from_file_location("z_sweep", ROOT / "scripts" / "z_sweep.py")
    z_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(z_sweep)
    out = tmp_path / "sweep.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert z_sweep.main([*argv, "--json", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("argv, rounds", [
    (["--experiment", "sigma_laplace", "--config", str(CONFIG), "--seed", "3", "--rounds", "2"], 2),
    (["--workload", "population", "--seed", "3", "--rounds", "1"], 1),
])
def test_sweep_counts_every_call(tmp_path, argv, rounds):
    table = sweep(tmp_path, *argv)
    assert table["failed_calls"] == 0 and table["rounds"] == rounds
    assert table["points"]
    for point in table["points"].values():
        assert point["calls"] == rounds


def test_one_round_reads_the_z_that_verify_prints(tmp_path):
    table = sweep(tmp_path, "--experiment", "sigma_laplace", "--config", str(CONFIG),
                  "--seed", "4", "--rounds", "1")
    config = json.loads(CONFIG.read_text())
    config["params"]["seed"] = 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "sigma_laplace", "--config", json.dumps(config)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(rows) == len(table["points"]) > 0
    for row in rows:
        point = table["points"][f"sigma_laplace[shift] {row['point']}"]
        assert point["max_abs"] == abs(float(row["z_score"]))
