"""Command line front end.

Three small calculators (mechanism values, family tables, admissibility
reports) and the experiment runner.  `verify` loads a JSON config, runs one
named experiment and writes CSV; the summary goes to stderr so a CSV piped
from stdout stays clean.

Exit codes: 0 all points passed, 1 a statistical check failed (or a family
report came back not admissible), 2 bad configuration or domain error,
3 numeric failure inside quadrature or root finding, or a run that does
not fit in memory.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict

from .experiments import (
    ConfigError,
    ExperimentConfig,
    list_experiments,
    run_experiment,
)
from .family import check_admissibility, family_from_dict
from .mechanism import DomainError, Mechanism, NumericError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERIC = 3

CSV_FIELDS = (
    "experiment",
    "point",
    "mc_estimate",
    "mc_stderr",
    "oracle_value",
    "z_score",
    "pass",
)


def _fmt(x):
    x = float(x)
    if math.isnan(x):
        return "nan"
    return "%.12g" % x


def _load_blob(text, what):
    """JSON from an inline object or from a file path."""
    raw = text.strip()
    if not raw.startswith("{"):
        with open(text, encoding="utf-8") as fh:
            raw = fh.read()
    try:
        blob = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what} is not valid JSON: {err}") from err
    if not isinstance(blob, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return blob


def _mechanism(args):
    return Mechanism.from_dict(_load_blob(args.mech, "mechanism"))


def _family(args):
    return family_from_dict(_load_blob(args.family, "family"))


# ---------------------------------------------------------------- commands


def _cmd_mech_eval(args):
    mech = _mechanism(args)
    for lam in args.lam:
        if not mech.theta_ok(lam):
            raise DomainError(f"psi is infinite at lam = {lam:g}: a gamma term needs lam > -rho")
    for lam in args.lam:
        print(_fmt(mech.psi(lam)))
    return EXIT_OK


def _cmd_mech_invert(args):
    mech = _mechanism(args)
    print(_fmt(mech.psi_inverse(args.value)))
    return EXIT_OK


def _cmd_mech_v(args):
    mech = _mechanism(args)
    for a in args.a:
        print(_fmt(mech.v_of(a)))
    return EXIT_OK


def _cmd_mech_u(args):
    mech = _mechanism(args)
    print(_fmt(mech.u_of(args.a, args.lam)))
    return EXIT_OK


def _table_grid(fam):
    lo, hi = fam.window
    lo = lo if math.isfinite(lo) else -3.0
    hi = hi if math.isfinite(hi) else 3.0
    return [lo + (hi - lo) * k / 8.0 for k in range(9)]


def _cmd_family_table(args):
    fam = _family(args)
    qs = args.q if args.q else _table_grid(fam)
    print(f"{'q':>12} {'b_q':>14} {'eta_q':>14} {'criticality':>13} {'alpha(0,q)':>14}")
    for q in qs:
        mech = fam.psi_at(q)
        alpha = fam.alpha(0.0, q) if q >= 0.0 else -fam.alpha(q, 0.0)
        print(
            f"{q:>12.6g} {mech.b:>14.6g} {mech.eta:>14.6g} "
            f"{mech.criticality():>13} {alpha:>14.6g}"
        )
    return EXIT_OK


def _cmd_family_check(args):
    fam = _family(args)
    report = check_admissibility(fam, t_grid=args.q if args.q else None)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_FAIL


def _csv_text(results):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in results:
        writer.writerow(
            [
                r.experiment,
                r.point,
                _fmt(r.estimate),
                _fmt(r.stderr),
                _fmt(r.oracle),
                _fmt(r.z),
                "true" if r.passed else "false",
            ]
        )
    return buf.getvalue()


def _summary_line(results):
    n_pass = sum(1 for r in results if r.passed)
    head = f"{n_pass}/{len(results)} points passed"
    scored = [(r.z, r.point) for r in results if not math.isnan(r.z)]
    if not scored:
        return f"{head}; all checks deterministic"
    worst, point = max(scored)
    return f"{head}; worst z = {worst:.3g} at {point}"


def _cmd_verify(args):
    blob = dict(_load_blob(args.config, "config"), experiment=args.experiment)
    params = blob.get("params", {})
    if isinstance(params, dict):  # from_dict rejects any other kind
        flags = {key: getattr(args, key) for key in ("seed", "replicates", "resolution")}
        blob["params"] = {**params, **{k: v for k, v in flags.items() if v is not None}}
    cfg = ExperimentConfig.from_dict(blob)
    results = run_experiment(cfg)
    text = _csv_text(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(_summary_line(results), file=sys.stderr)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAIL


def _cmd_list(args):
    infos = list_experiments()
    if args.json:
        print(json.dumps([asdict(i) for i in infos], indent=2))
        return EXIT_OK
    for i in infos:
        print(f"{i.name:<26} oracle: {i.oracle}")
        print(f"{'':<26} {i.description}")
    return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser():
    top = argparse.ArgumentParser(
        prog="levytree",
        description="Branching mechanism calculus, tree pruning and "
        "Monte Carlo verification of the closed-form laws.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    mech = sub.add_parser("mech", help="pointwise mechanism calculator")
    ops = mech.add_subparsers(dest="op", required=True)

    def mech_op(name, help_text):
        p = ops.add_parser(name, help=help_text)
        p.add_argument(
            "--mech",
            required=True,
            help="mechanism JSON, inline or a file path",
        )
        return p

    p = mech_op("eval", "psi(lam) at each given lam")
    p.add_argument("lam", type=float, nargs="+")
    p.set_defaults(fn=_cmd_mech_eval)

    p = mech_op("invert", "largest root of psi(x) = value")
    p.add_argument("value", type=float)
    p.set_defaults(fn=_cmd_mech_invert)

    p = mech_op("v", "level-a crossing intensity v(a)")
    p.add_argument("a", type=float, nargs="+")
    p.set_defaults(fn=_cmd_mech_v)

    p = mech_op("u", "Laplace flow u(a, lam)")
    p.add_argument("a", type=float)
    p.add_argument("lam", type=float)
    p.set_defaults(fn=_cmd_mech_u)

    family = sub.add_parser("family", help="admissible family reports")
    fops = family.add_subparsers(dest="op", required=True)

    p = fops.add_parser("table", help="b_q, eta_q, criticality, alpha along q")
    p.add_argument("--family", required=True, help="family JSON, inline or a file path")
    p.add_argument("--q", type=float, nargs="+", help="grid (default: spread over the window)")
    p.set_defaults(fn=_cmd_family_table)

    p = fops.add_parser("check", help="grid admissibility report")
    p.add_argument("--family", required=True, help="family JSON, inline or a file path")
    p.add_argument("--q", type=float, nargs="+", help="grid (default: spread over the window)")
    p.set_defaults(fn=_cmd_family_check)

    verify = sub.add_parser("verify", help="run one experiment against its oracle")
    verify.add_argument("experiment", help="experiment name; see `levytree list`")
    verify.add_argument("--config", required=True, help="JSON config file path")
    verify.add_argument("--seed", type=int, help="overrides params.seed")
    verify.add_argument("--replicates", type=int, help="overrides params.replicates")
    verify.add_argument("--resolution", type=int, help="overrides params.resolution")
    verify.add_argument("--workers", type=int,
                        help="accepted and ignored: every draw runs in one thread")
    verify.add_argument("--out", help="CSV output path (default: stdout)")
    verify.set_defaults(fn=_cmd_verify)

    lst = sub.add_parser("list", help="experiment catalog")
    lst.add_argument("--json", action="store_true", help="machine-readable catalog")
    lst.set_defaults(fn=_cmd_list)

    return top


@functools.cache
def _parser():
    """The parser, built on first use and kept: parse_args starts each call
    from a fresh namespace, so no parsed value carries over."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (NumericError, ArithmeticError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as err:
        print(f"out of memory: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
