"""CLI exit codes, CSV shape and determinism, calculator subcommands."""

import contextlib
import csv
import importlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import levytree
from levytree import cli, experiments, mechanism
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


def test_a_seed_flag_does_not_carry_over_to_the_next_call(tmp_path):
    # main keeps one parser; a call without --seed reads the config's seed
    cfg = write_config(tmp_path, seed=7, replicates=300, resolution=100, q_grid=[0.5])
    flagged, plain, seven = (tmp_path / name for name in ("s4.csv", "plain.csv", "s7.csv"))
    verify = ["verify", "height_law", "--config", cfg, "--out"]
    assert run(verify + [str(flagged), "--seed", "4"]) in (0, 1)
    assert run(verify + [str(plain)]) in (0, 1)
    assert cli._parser() is cli._parser()
    assert run(verify + [str(seven), "--seed", "7"]) in (0, 1)
    assert plain.read_bytes() == seven.read_bytes() != flagged.read_bytes()


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
    assert len(json.loads(capsys.readouterr().out)) == 13
    cfg = write_config(tmp_path, seed=7)
    assert run_module("verify", "nosuch", "--config", cfg) == 2
    assert "unknown experiment" in capsys.readouterr().err


COLD_START = """
import contextlib, io, json, sys
from levytree import cli

def loaded():
    return "scipy.stats" in sys.modules

def call(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) in (0, 1), argv

seen = [loaded()]
call("list")
seen.append(loaded())
fam = {"type": "shift", "window": [-0.25, 3.0], "left_closed": True,
       "base": {"b": 0.0, "c": 1.0, "m": [{"type": "point", "z": 1.0, "w": 1.0}]}}
params = {"seed": 7, "resolution": 100, "replicates": 200, "q_grid": [0.5],
          "lambda_grid": [1.0], "height_cap": 1.0}
config = json.dumps({"family": fam, "params": params})
for name in ("height_law", "sigma_laplace"):
    call("verify", name, "--config", config)
    seen.append(loaded())
call("verify", "spine_exponential", "--config", config)
seen.append(loaded())
print(json.dumps(seen))
"""


def test_scipy_stats_stays_unloaded_until_spine_exponential():
    # this process has scipy.stats already (test_sampler imports it), so
    # the check runs in a fresh interpreter
    src = str(Path(levytree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", COLD_START], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # after import, list, height_law and sigma_laplace; then spine_exponential
    assert json.loads(done.stdout) == [False, False, False, False, True]


SCIPY_ON_FIRST_USE = """
import contextlib, io, json, sys
from levytree import cli

MODULES = ("scipy.special", "scipy.integrate", "scipy.optimize", "scipy.stats",
           "scipy.linalg", "scipy.sparse")
closed_form, jump = json.load(sys.stdin)

def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return [code, out.getvalue(), [m for m in MODULES if m in sys.modules]]

print(json.dumps({"import": [m for m in MODULES if m in sys.modules],
                  "closed_form": [call(argv) for argv in closed_form],
                  "jump": [call(argv) for argv in jump]}))
"""


def test_closed_form_runs_leave_scipy_unloaded(capsys):
    # at c = 1 the quadratic mechanisms of a linear-drift family have
    # closed-form eta, psi^-1, v and u: no quadrature, root-find or Poisson
    # pmf, so no scipy; quadrature and root-finding are the package's own, so
    # a jump mechanism's flows load none either
    quadratic = json.dumps({"b": 0.5, "c": 1.0, "m": []})
    point_mass = json.dumps({"b": 0.0, "c": 1.0, "m": [{"type": "point", "z": 1.0, "w": 1.0}]})
    params = {"seed": 7, "resolution": 100, "replicates": 200, "height_cap": 1.0}

    def verify(name, family, **extra):
        return ["verify", name, "--config",
                json.dumps({"family": family, "params": {**params, **extra}})]

    closed_form = [
        ["list"],
        ["family", "check", "--family", json.dumps(LD_FAM)],
        ["mech", "eval", "--mech", quadratic, "--", "0.5", "2.0"],
        ["mech", "v", "--mech", quadratic, "0.5", "2.0"],
        *(verify(name, LD_FAM) for name in (
            "height_law", "sigma_laplace", "prune_marginal", "special_markov_intensity",
            "exit_tail_remark", "cond_sigma")),
        verify("ascension_tail", LD_FAM, q_grid=[-0.5]),
    ]
    jump = [
        ["mech", "v", "--mech", point_mass, "0.5", "2.0"],
        verify("height_law", SHIFT_ONE_ATOM, q_grid=[0.5]),
    ]
    src = str(Path(levytree.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", SCIPY_ON_FIRST_USE], env=env, timeout=120,
                          input=json.dumps([closed_form, jump]), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["import"] == []
    for argv, (code, _, mods) in zip(closed_form, got["closed_form"]):
        assert code in (0, 1) and mods == [], argv
    (_, _, mech_mods), (_, _, verify_mods) = got["jump"]
    # v of a jump mechanism integrates, in the package; a point-mass scheme
    # takes the Poisson pmf from scipy.special, which loads no other of them
    assert mech_mods == [] and verify_mods == ["scipy.special"]
    # a call that loads scipy computes what one in this warm process does
    capsys.readouterr()
    for argv, (code, out, _) in zip(jump, got["jump"]):
        assert run(argv) == code
        assert capsys.readouterr().out == out


def test_numeric_failure_exits_three(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, seed=7, replicates=500, resolution=100)

    def boom(cfg):
        raise NumericError("quadrature stalled")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert run(["verify", "height_law", "--config", cfg]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_out_of_memory_exits_three(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, seed=7, replicates=500, resolution=100)

    def hungry(cfg):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "run_experiment", hungry)
    assert run(["verify", "height_law", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "out of memory" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


SHIFT_ONE_ATOM = {"type": "shift", "window": [-0.25, 3.0], "left_closed": True,
                  "base": {"b": 0.0, "c": 1.0, "m": [{"type": "point", "z": 1.0, "w": 1.0}]}}


@pytest.mark.parametrize("family,q_grid,message", [
    (SHIFT_ONE_ATOM, [-0.1, 0.0], "needs q < 0"),
    (SHIFT_ONE_ATOM, [0.5], "needs q < 0"),
    # q + eta_q = 0.205 lies past the window's end at 0.1
    ({**SHIFT_ONE_ATOM, "window": [-0.25, 0.1]}, [-0.2], "no conjugate time"),
    ({**SHIFT_ONE_ATOM, "base": {**SHIFT_ONE_ATOM["base"], "b": -0.5}}, [-0.1],
     "need psi_0 critical, got psi_0 supercritical"),
])
def test_ascension_representation_without_a_conjugate_time_exits_two(
        family, q_grid, message, tmp_path, capsys):
    cfg = write_config(tmp_path, family=family, seed=1, q_grid=q_grid)
    assert run(["verify", "ascension_representation", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_size_bias_with_a_subcritical_start_exits_two(tmp_path, capsys):
    # b_0 = 0.1 and alpha(0, q) = 1e-9: the star arm's spine, cut at rate
    # alpha(0, q) where the size-biased spine ends at rate b_q, would grow
    # about 2.5e7 segments of 4/b_q per replicate before its first cut
    fam = {"type": "truncation", "window": [-1.0, 1.0], "base": {"b": 0.1, "c": 1.0, "m": []},
           "h0": 1.0, "slope": 0.0, "g_rate": 1e-9}
    cfg = write_config(tmp_path, family=fam, seed=7, replicates=100, resolution=100,
                       q_grid=[1.0], lambda_grid=[2.0])
    assert run(["verify", "size_bias", "--config", cfg]) == 2
    assert "psi_0 critical" in capsys.readouterr().err


@pytest.mark.parametrize("cap", [0.005, 0.018])
def test_special_markov_with_no_retained_mass_exits_two(cap, tmp_path, capsys):
    # gamma = 200 at n = 100, so the attachment level cap - cap/4 - 2/gamma
    # lies below the first generation's depth 1/gamma: no mass to divide by
    cfg = write_config(tmp_path, seed=7, replicates=200, resolution=100,
                       height_cap=cap, q_grid=[1.0])
    assert run(["verify", "special_markov_intensity", "--config", cfg]) == 2
    assert "no retained mass" in capsys.readouterr().err


def test_growth_over_the_node_budget_exits_three(tmp_path, monkeypatch, capsys):
    from levytree import sampler

    monkeypatch.setattr(sampler, "NODE_BUDGET", 20)
    cfg = write_config(tmp_path, seed=7, replicates=100, resolution=100,
                       height_cap=0.5, q_grid=[1.0])
    assert run(["verify", "prune_marginal", "--config", cfg]) == 3
    assert "node budget of 20" in capsys.readouterr().err


def test_spine_growth_over_the_node_budget_exits_three(tmp_path, capsys):
    # one jump node per unit height: spines of height 1e12 pass the node
    # budget on their jump count, before any height is drawn
    fam = {"type": "shift", "window": [-0.25, 3.0], "left_closed": True,
           "base": {"b": 0.0, "c": 1.0, "m": [{"type": "point", "z": 1.0, "w": 1.0}]}}
    cfg = write_config(tmp_path, family=fam, seed=7, replicates=100, resolution=100,
                       height_cap=1e12, q_grid=[1.0])
    assert run(["verify", "spine_exponential", "--config", cfg]) == 3
    assert "node budget" in capsys.readouterr().err


# ------------------------------------------------------------------- list


def test_list_json(capsys):
    assert run(["list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert len(catalog) == 13
    assert all(set(e) == {"name", "oracle", "description"} for e in catalog)
    assert any(e["name"] == "girsanov_gir2" for e in catalog)


def resolve(dotted):
    """Import the longest module prefix of a dotted name, then getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def test_list_json_oracles_resolve_to_the_spec_callables(capsys):
    assert run(["list", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert len(catalog) == 13
    for entry in catalog:
        assert resolve(entry["oracle"]) is experiments._SPECS[entry["name"]].oracle


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
    # a zero-weight atom is dropped, so psi = -lam meets no 0 * inf on the way
    zero_atom = json.dumps({"b": -1, "c": 0, "m": [{"type": "point", "z": 1, "w": 0}]})
    assert run(["mech", "invert", "--mech", zero_atom, "0"]) == 2
    # JSON reads 1e400 as inf: a gamma primitive with a non-finite parameter
    for key in ("k", "rho", "w"):
        prim = ",".join(f'"{p}":{"1e400" if p == key else 1}' for p in ("k", "rho", "w"))
        inf_gamma = '{"b":0,"c":1,"m":[{"type":"gamma",' + prim + '}]}'
        for op in ("eval", "v"):
            assert run(["mech", op, "--mech", inf_gamma, "1.0"]) == 2
            assert "gamma primitive needs finite" in capsys.readouterr().err
    capsys.readouterr()


def test_mech_eval_outside_the_domain_exits_two(capsys):
    # psi is infinite at lam <= -rho for a gamma term
    gamma = json.dumps({"b": 0, "c": 0.2, "m": [{"type": "gamma", "k": 3, "rho": 1, "w": 0.2}]})
    for lam in ("-1.5", "-1"):
        assert run(["mech", "eval", "--mech", gamma, "--", "0.5", lam]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "lam > -rho" in captured.err
    assert run(["mech", "eval", "--mech", gamma, "--", "-0.5"]) == 0
    assert math.isfinite(float(capsys.readouterr().out))


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


SHIFT_NO_BASE = {"type": "shift", "window": [-0.25, 3.0]}
ONE_END_WINDOW = dict(LD_FAM, window=[0])


@pytest.mark.parametrize("argv", [
    ["verify", "mz_cocycle", "--config", json.dumps({"family": LD_FAM, "params": p})]
    for p in ({"seed": 1, "tolerance_sigmas": "3"}, {"seed": 1, "height_cap": "x"},
              {"seed": 1, "q_grid": 5}, {"seed": 1, "q_grid": ["a"]},
              {"seed": 1, "lambda_grid": [None]}, [1, 2])
] + [
    ["verify", "mz_cocycle", "--config", json.dumps({"family": fam, "params": {"seed": 1}})]
    for fam in ([1], SHIFT_NO_BASE, ONE_END_WINDOW)
] + [
    ["mech", "eval", "--mech", '{"b": "x", "c": 1}', "1"],
    ["mech", "eval", "--mech", '{"c": 1}', "1"],
    ["family", "table", "--family", json.dumps(SHIFT_NO_BASE)],
    ["verify", "mz_cocycle", "--config", json.dumps({"family": LD_FAM, "params": {"seed": True}})],
])
def test_malformed_json_exits_two(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_numeric_edge_cases_exit_three(capsys):
    # a subnormal drift: brentq runs out of iterations inverting psi
    mech = json.dumps({"b": 1.1125369292536007e-308, "c": 1.17,
                       "m": [{"type": "point", "w": 5e-324, "z": 1.93}]})
    assert run(["mech", "invert", "--mech", mech, "--", "1.1125369292536007e-308"]) == 3
    assert "root finding" in capsys.readouterr().err
    # psi(e^s) underflows to 0 on the chart of a critical jump mechanism
    assert run(["mech", "v", "--mech", json.dumps(CRITICAL_POINT), "2.5e299"]) == 3
    assert "numeric failure" in capsys.readouterr().err


CRITICAL_POINT = {"b": 0.0, "c": 1.0, "m": [{"type": "point", "z": 1.0, "w": 1.0}]}


def test_quadratic_flows_past_the_exp_range_print_their_value(capsys):
    # e^{ab} overflows: the flows print b e^{-ab} / c and its u, down to 0
    quadratic = json.dumps({"b": 1.0, "c": 1.0, "m": []})
    for argv, want in ((["v", "710"], "4.47628622568e-309"), (["u", "710", "1.0"], "2.23814311284e-309"),
                       (["u", "3e5", "1"], "0")):
        assert run(["mech", argv[0], "--mech", quadratic, *argv[1:]]) == 0
        assert capsys.readouterr().out == want + "\n"


# ------------------------------------------------------- exit-code contract

JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=2),
    st.floats(-1e3, 1e3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def num(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def corrupted(valid):
    """Valid objects half the time, else one key dropped or set to junk, or junk."""

    def spoil(d):
        keys = st.sampled_from(sorted(d))
        return st.one_of(
            keys.map(lambda k: {x: v for x, v in d.items() if x != k}),
            st.tuples(keys, JUNK).map(lambda kv: {**d, kv[0]: kv[1]}),
        )

    return st.sampled_from([valid, valid, valid.flatmap(spoil), JUNK]).flatmap(lambda s: s)


POINT = st.fixed_dictionaries({"type": st.just("point"), "z": num(0.05, 3.0), "w": num(0.0, 3.0)})
GAMMA = st.fixed_dictionaries(
    {"type": st.just("gamma"), "k": num(0.2, 3.0), "rho": num(0.2, 3.0), "w": num(0.0, 3.0)})


def mechanisms(prims):
    return corrupted(st.fixed_dictionaries(
        {"b": num(-3.0, 3.0), "c": num(0.0, 3.0), "m": st.lists(corrupted(prims), max_size=2)}))


WINDOWS = st.tuples(num(-2.0, 0.0), num(0.1, 3.0)).map(list)
SPOILED_WINDOWS = st.sampled_from(
    [WINDOWS, WINDOWS, WINDOWS.map(lambda w: w[:1]), JUNK]).flatmap(lambda s: s)
FAMILIES = corrupted(st.one_of(
    st.fixed_dictionaries({"type": st.just("shift"), "window": SPOILED_WINDOWS,
                           "base": mechanisms(POINT)}),
    st.fixed_dictionaries({"type": st.just("lineardrift"), "window": SPOILED_WINDOWS,
                           "b_rate": num(0.1, 3.0), "c": num(0.1, 3.0)}),
    st.fixed_dictionaries({"type": st.just("truncation"), "window": WINDOWS,
                           "base": mechanisms(POINT), "h0": num(0.1, 3.0),
                           "slope": num(-1.0, 1.0), "g_rate": num(0.0, 2.0)}),
    st.fixed_dictionaries({"type": st.just("reflected"), "negative": st.fixed_dictionaries(
        {"type": st.just("lineardrift"), "window": st.just([-1.0, 0.0]),
         "b_rate": num(0.1, 3.0), "c": num(0.1, 3.0)})}),
))
PARAMS = corrupted(st.fixed_dictionaries({
    "seed": st.integers(0, 9), "replicates": st.just(100), "resolution": st.just(100),
    "q_grid": st.lists(num(-1.0, 1.0), max_size=2),
    "lambda_grid": st.lists(num(0.0, 3.0), max_size=2),
    "tolerance_sigmas": num(0.5, 5.0), "height_cap": num(0.1, 2.0),
}))
ARGS = st.lists(num(-1.0, 5.0).map("{:.6f}".format), min_size=2, max_size=2)

COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["eval", "invert", "v"]), mechanisms(st.one_of(POINT, GAMMA)),
              ARGS).map(lambda c: ["mech", c[0], "--mech", json.dumps(c[1]), c[2][0]]),
    st.tuples(mechanisms(st.one_of(POINT, GAMMA)), ARGS).map(
        lambda c: ["mech", "u", "--mech", json.dumps(c[0]), *c[1]]),
    st.tuples(st.sampled_from(["table", "check"]), FAMILIES).map(
        lambda c: ["family", c[0], "--family", json.dumps(c[1])]),
    st.tuples(st.sampled_from(["mz_cocycle", "cond_sigma", "ascension_representation"]),
              FAMILIES, PARAMS).map(
        lambda c: ["verify", c[0], "--config", json.dumps({"family": c[1], "params": c[2]})]),
)


# a gamma flow with a near-zero c, whose quadrature once warned through quadpack
GAMMA_FLOW = ["mech", "u", "--mech", json.dumps(
    {"b": -2.7040968044533953, "c": 2.0229266734773702e-28,
     "m": [{"type": "gamma", "k": 1.5498929589073607, "rho": 0.5606011298539593,
            "w": 0.30415206286450486}]}), "2.1752587430481047", "1.6101914672354252"]


def test_quadrature_warns_nothing_at_a_near_zero_c(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(GAMMA_FLOW) == 0
    assert capsys.readouterr().out == "5.72845558071e+14\n"


def test_quadrature_past_its_panel_budget_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(mechanism, "_PANEL_BUDGET", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(GAMMA_FLOW) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: quadrature on") and "panels" in err


# like the rest of the suite this runs with every warning an error: no input
# drawn here makes quadrature, root-finding or numpy warn
@settings(max_examples=200, deadline=None)
@given(argv=COMMANDS)
def test_every_input_exits_with_a_contract_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(argv)
        except SystemExit as stop:  # argparse usage errors exit 2 by design
            code = stop.code
    assert code in (0, 1, 2, 3)
