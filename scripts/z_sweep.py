#!/usr/bin/env python3
"""Calibration sweep of the z-scores that `verify` calls report.

    python3 scripts/z_sweep.py --workload <population|trees|prune> --seed <n> \
        --rounds <k> [--start <r>] [--json PATH]
    python3 scripts/z_sweep.py --experiment <name> --config <file> --seed <n> \
        --rounds <k> [--start <r>] [--json PATH]

Run from the repository root.  The calls go through `levytree.cli.main` in
this process.  With --workload, they are rounds start..start+k-1 of the
workload's inputs (`perfbench.workloads.round_inputs`, the calls and seeds a
benchmark run makes).  With --experiment, they run one config file (family
and params, as `verify --config` reads it) once per seed
seed+start..seed+start+k-1, which replaces its params.seed.  For every
scored point, named by experiment, family type and point label, it prints
the number of calls, the shares of calls with |z| > 3 and |z| > 4, the signed
1 % and 99 % quantiles of z and the largest |z|.  The sign is that of
estimate - oracle (for prune_marginal, of the pruned arm against the direct
one), so a lopsided tail shows as quantiles of unequal size.  A calibrated
score has P(|z| > 3) at most 0.27 % (the Gaussian share; the
discretization band only lowers it) and no |z| above 4 in a few thousand
calls.  --json writes the same table as JSON.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402

from levytree import cli  # noqa: E402
from perfbench import workloads  # noqa: E402


def signed_z(row):
    """The row's z with the sign of estimate - oracle; None where z is undefined."""
    z = float(row["z_score"])
    if math.isnan(z):
        return None
    return math.copysign(z, float(row["mc_estimate"]) - float(row["oracle_value"]))


def workload_calls(workload, seed, start, rounds):
    """The verify calls of rounds start..start+rounds-1 of a benchmark workload."""
    for r in range(start, start + rounds):
        yield from workloads.round_inputs(workload, seed, r)


def config_calls(experiment, config, seed, start, rounds):
    """One verify call of experiment per seed seed+start..seed+start+rounds-1."""
    for s in range(seed + start, seed + start + rounds):
        yield {"experiment": experiment, "family": config["family"],
               "params": dict(config["params"], seed=s)}


def sweep(calls):
    """{point key: [signed z per call]} and the number of calls that exited nonzero."""
    zs, failed = {}, 0
    for call in calls:
        config = json.dumps({"family": call["family"], "params": call["params"]})
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            failed += cli.main(["verify", call["experiment"], "--config", config]) != 0
        for row in csv.DictReader(io.StringIO(out.getvalue())):
            z = signed_z(row)
            if z is not None:
                key = f"{call['experiment']}[{call['family']['type']}] {row['point']}"
                zs.setdefault(key, []).append(z)
    return zs, failed


def summary(zs):
    table = {}
    for key, values in zs.items():
        z = np.asarray(values)
        size = np.abs(z)
        table[key] = {
            "calls": len(z),
            "p_over_3": float(np.mean(size > 3.0)),
            "p_over_4": float(np.mean(size > 4.0)),
            "q01": float(np.quantile(z, 0.01)),
            "q99": float(np.quantile(z, 0.99)),
            "max_abs": float(size.max()),
        }
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=("population", "trees", "prune"))
    source.add_argument("--experiment", help="sweep one experiment; needs --config")
    parser.add_argument("--config", help="config file of --experiment: family and params")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--json", help="also write the table to this path")
    args = parser.parse_args(argv)
    if (args.experiment is None) != (args.config is None):
        parser.error("--experiment and --config go together")

    if args.workload:
        calls = workload_calls(args.workload, args.seed, args.start, args.rounds)
    else:
        config = json.loads(Path(args.config).read_text())
        calls = config_calls(args.experiment, config, args.seed, args.start, args.rounds)
    zs, failed = sweep(calls)
    table = summary(zs)
    print(f"{'point':<56} {'calls':>6} {'P|z|>3':>8} {'P|z|>4':>8} "
          f"{'q01':>7} {'q99':>7} {'max|z|':>7}")
    for key, s in table.items():
        print(f"{key:<56} {s['calls']:>6} {s['p_over_3']:>8.4%} {s['p_over_4']:>8.4%} "
              f"{s['q01']:>7.3f} {s['q99']:>7.3f} {s['max_abs']:>7.3f}")
    print(f"calls that exited nonzero: {failed}")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "workload": args.workload, "experiment": args.experiment, "config": args.config,
            "seed": args.seed, "start": args.start,
            "rounds": args.rounds, "failed_calls": failed, "points": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
