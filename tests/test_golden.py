"""Byte-for-byte CSV of every experiment at small fixed-seed configs.

tests/data/golden holds one config per experiment (the shift family with two
atoms wherever the experiment takes jumps) and the CSV `levytree verify`
wrote for it.  A change that moves a random draw, a reduction order or a
point label shows up here as a byte difference.
"""

import io
import contextlib
from pathlib import Path

import pytest

from levytree import cli
from levytree.experiments import list_experiments

GOLDEN = Path(__file__).parent / "data" / "golden"
NAMES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def test_every_experiment_has_a_golden_config():
    assert NAMES == sorted(e.name for e in list_experiments())


@pytest.mark.parametrize("name", NAMES)
def test_verify_csv_bytes_match_the_golden_file(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(["verify", name, "--config", str(GOLDEN / f"{name}.json"), "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
