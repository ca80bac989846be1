#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <analytic|population|trees|prune> \
        --seed <n> --seconds <s> --trace <0|1> [--out-dir DIR]

Run from the repository root; the package is imported from src/.  With
--trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 each round runs once untraced and once traced on the same inputs
and the run reports per-layer metrics.  Round and set-up times are CPU times
of the single-threaded process doing the work, which on an idle machine equal
wall times but leave out the time a shared host keeps the process waiting for
a CPU; analytic per-call latencies are wall times.  End-to-end times are
scaled to a reference machine speed (see "machine speed" below).  Every
metric is printed on its own line with its unit; the last line of standard
output is the JSON summary.
The full run record (versions, revision, every verify config, CSV digests,
failures) goes to DIR/<workload>-seed<n>-trace<t>.json, default
perfbench/results.  Where src/levytree is missing, the run exits with
status 2 and prints no summary.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
SETUP_SPEED_SAMPLES = 3  # reference-kernel timings before and after each set-up probe


def _import_paths():
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _git_revision():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (git / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quantile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Workload:
    """Objects a workload needs before its first timed operation."""

    def __init__(self, name, seed, scale=1.0):
        from levytree.family import family_from_dict
        from levytree.mechanism import Mechanism

        from perfbench import workloads

        self.name, self.seed, self.scale = name, seed, scale
        self.mechs = [Mechanism.from_dict(m) for m in workloads.MECHANISMS]
        self.fams = {k: family_from_dict(v) for k, v in workloads.FAMILIES.items()}
        self.first_inputs = self.inputs(0)  # part of set-up, as setup_s counts it

    def inputs(self, round_index):
        from perfbench import workloads

        return workloads.round_inputs(self.name, self.seed, round_index, self.scale)


# -- machine speed -----------------------------------------------------------------
#
# On a shared host the speed of a CPU moves by a third or more in phases that
# last tens of seconds, so a time measured in one run says as much about the
# phase as about the program.  A fixed kernel that no change to the package can
# touch (a pure-Python loop, then a numpy draw and sort) is timed between
# operations all through a run: before every operation of a round and after
# its last.  Each time measured in a round (or a set-up probe) is scaled by
# REFERENCE_CPU_S / (median kernel time around it), i.e. to the speed at which
# the kernel takes REFERENCE_CPU_S.  The raw figures and the scales go into the
# run record.  Why this kernel: perfbench/README.md, "Machine speed".

REFERENCE_CPU_S = 0.004


def reference_kernel():
    import numpy

    total = 0
    for i in range(30000):
        total += i * i % 7
    return total + numpy.sort(numpy.random.default_rng(0).standard_normal(60000))[0]


class Speed:
    """CPU times of the reference kernel, taken between operations."""

    def __init__(self):
        self.samples = []

    def sample(self):
        c0 = time.process_time()
        reference_kernel()
        self.samples.append(time.process_time() - c0)

    def scale_since(self, start):
        """Factor that takes a CPU time measured since samples[start] to the reference speed."""
        return REFERENCE_CPU_S / statistics.median(self.samples[start:])


# -- one round -------------------------------------------------------------------


def _traced(tracer):
    """Context in which the tracer (if any) records spans."""
    return contextlib.nullcontext() if tracer is None else tracer


def _verify_call(blob, tracer=None):
    """One `levytree verify` call in-process; returns its record."""
    from levytree import cli
    from levytree.family import family_from_dict

    from perfbench import checks

    config = json.dumps({"family": blob["family"], "params": blob["params"]})
    argv = ["verify", blob["experiment"], "--config", config, "--workers", "1"]
    out, err = io.StringIO(), io.StringIO()
    record = {"config": blob, "replicates": blob["params"]["replicates"]}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _traced(tracer):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raising operation is a failed one
        record.update(wall=time.perf_counter() - t0, cpu=time.process_time() - c0,
                      notes=[f"raised {exc!r}"], relvar={})
        return record
    record["wall"] = time.perf_counter() - t0
    record["cpu"] = time.process_time() - c0
    text = out.getvalue()
    record["exit_code"] = code
    record["csv_sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    try:
        rows = checks.parse_rows(text)
        fam = family_from_dict(blob["family"])
        expected = checks.expected_points(blob["experiment"], fam, blob["params"])
        record["notes"] = checks.check_verify(blob["experiment"], expected, code, rows)
        record["relvar"] = checks.relative_variances(rows)
    except Exception as exc:  # an output the checks cannot read is wrong output
        record["notes"] = [f"unreadable output: {exc!r}; stderr {err.getvalue()!r}"]
        record["relvar"] = {}
    return record


def run_mc_round(workload, round_index, tracer=None, speed=None):
    calls = []
    for blob in workload.inputs(round_index):
        if speed is not None:
            speed.sample()
        if tracer is not None:
            tracer.op_id += 1
        calls.append(_verify_call(blob, tracer))
    # CPU time to 1 % relative stderr on every scored point, summed over calls
    t1 = sum(c["cpu"] * max(c["relvar"].values()) for c in calls if c["relvar"])
    return {
        "wall": sum(c["wall"] for c in calls),
        "cpu": sum(c["cpu"] for c in calls),
        "work": sum(c["replicates"] for c in calls),
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c["notes"]),
        "wrong": sum(1 for c in calls if any("pass=" not in n for n in c["notes"])),
        "time_to_1pct_s": t1,
        "calls": calls,
    }


def run_analytic_round(workload, round_index, tracer=None, speed=None):
    from perfbench import checks

    latencies, failures = [], []
    # Reading a CPU-time clock is a system call whose cost is a large and
    # phase-dependent part of a 2 us call; the wall clock is read without one,
    # and a call that short is seldom interrupted.
    clock = time.perf_counter_ns

    def call(fn, *args):
        with _traced(tracer):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                latencies.append(clock() - t0)

    failed = 0
    if speed is not None:
        speed.sample()
    t0, c0 = time.perf_counter(), time.process_time()
    for probe in workload.inputs(round_index):
        if tracer is not None:
            tracer.op_id += 1
        before = len(latencies)
        try:
            note = checks.run_probe(probe, workload.mechs, workload.fams, call)
        except Exception as exc:
            note = f"raised {exc!r}"
        if note is not None:
            failed += len(latencies) - before
            failures.append({"probe": list(probe), "note": note})
    return {
        "wall": time.perf_counter() - t0,
        "cpu": time.process_time() - c0,
        "work": len(latencies),
        "attempted": len(latencies),
        "failed": failed,
        "wrong": failed,  # every analytic failure is a wrong value or a raise
        "latencies_ns": latencies,
        "failures": failures,
    }


def run_round(workload, round_index, tracer=None, speed=None):
    start = len(speed.samples) if speed is not None else None
    if workload.name == "analytic":
        result = run_analytic_round(workload, round_index, tracer, speed)
    else:
        result = run_mc_round(workload, round_index, tracer, speed)
    if speed is not None:
        speed.sample()
        result["speed_scale"] = speed.scale_since(start)
    return result


# -- a whole run -------------------------------------------------------------------


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload, seed):
    """Fresh processes that import the package and build the inputs: [{cpu, wall, scale}]."""
    probes = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        speed = Speed()
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        t0, c0 = time.perf_counter(), _children_cpu()
        subprocess.run(argv, check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, timeout=120)
        cpu, wall = _children_cpu() - c0, time.perf_counter() - t0
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        probes.append({"cpu": cpu, "wall": wall, "speed_scale": speed.scale_since(0)})
    return probes


def run_untraced(workload, seconds):
    rounds, speed = [], Speed()
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(run_round(workload, len(rounds), speed=speed))
    return rounds


def run_traced(workload, seconds, tracer):
    """Each round untraced and traced on the same inputs, alternating which goes first."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while not traced or time.perf_counter() < deadline:
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                tracer.install()
                try:
                    traced.append(run_round(workload, k, tracer))
                finally:
                    tracer.uninstall()
            else:
                plain.append(run_round(workload, k))
        k += 1
    return plain, traced


def end_to_end(workload, rounds, setup, scaled=True):
    """End-to-end metrics; CPU times are taken to the reference speed unless not `scaled`."""
    f = (lambda r: r["speed_scale"]) if scaled else (lambda r: 1.0)
    rates = [r["work"] / (r["cpu"] * f(r)) for r in rounds]
    if workload.name == "analytic":
        lat = sorted(x * 1e-6 * f(r) for r in rounds for x in r["latencies_ns"])
    else:
        lat = sorted(r["cpu"] * 1e3 * f(r) for r in rounds)
    return {
        "setup_s": (statistics.median(p["cpu"] * f(p) for p in setup), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (_quantile(lat, 50), "ms"),
        "op_p99_ms": (_quantile(lat, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, len(lat)


def _run_info(workload, seconds, trace):
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": _git_revision(),
        "platform": platform.platform(),
    }


def _round_record(r):
    return {k: v for k, v in r.items() if k != "latencies_ns"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=str(ROOT / "perfbench" / "results"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_paths()
    try:
        import levytree.cli  # noqa: F401  (the whole package, as a user loads it)
    except ImportError as exc:
        print(f"error: cannot import the levytree package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.setup_probe:
        Workload(args.workload, args.seed)
        return 0

    result = run(args.workload, args.seed, args.seconds, args.trace, Path(args.out_dir))
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    info = result["record"]["summary"]
    print(f"{args.workload} fail_rate = {info['fail_rate']:.6g} "
          f"({info['failed']} of {info['attempted']} operations)")
    if info.get("time_to_1pct_s") is not None:
        print(f"{args.workload} time_to_1pct_s = {info['time_to_1pct_s']:.6g} s (run information)")
    print(json.dumps(result["summary"]))
    return 0


def run(name, seed, seconds, trace, out_dir, scale=1.0):
    """Run one workload; returns {"summary", "metrics", "record"}."""
    setup = measure_setup(name, seed) if not trace else []
    workload = Workload(name, seed, scale)
    info = _run_info(workload, seconds, trace)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}-trace{trace}"
    if trace:
        from perfbench.tracing import Tracer, layer_metrics

        tracer = Tracer()
        plain, traced = run_traced(workload, seconds, tracer)
        ratio = sum(r["wall"] for r in traced) / sum(r["wall"] for r in plain)
        metrics = layer_metrics(tracer, len(traced), ratio)
        rounds = plain + traced
        spans = tracer.self_times()
        info["traced_wall_s"] = sum(r["wall"] for r in traced)
        info["span_self_s"] = {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(spans.items())}
        info["span_file"] = stem.name + ".spans.json.gz"
        tracer.write(stem.with_name(info["span_file"]))
    else:
        rounds = run_untraced(workload, seconds)
        metrics, samples = end_to_end(workload, rounds, setup)
        raw, _ = end_to_end(workload, rounds, setup, scaled=False)
        info["raw_metrics"] = {k: v for k, (v, _) in raw.items()}
        info["setup_probes"] = setup
        info["latency_samples"] = samples
        info["latency_unit"] = "one pointwise call" if name == "analytic" else "one round of verify calls"
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wrong = sum(r["wrong"] for r in rounds)
    info.update(
        rounds=len(rounds),
        attempted=attempted,
        failed=failed,
        fail_rate=failed / attempted,
        wrong_outputs=wrong,
    )
    if name != "analytic":
        info["time_to_1pct_s"] = statistics.median(r["time_to_1pct_s"] * r.get("speed_scale", 1.0)
                                                   for r in rounds)
    summary = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"summary": info, "metrics": summary["metrics"],
              "rounds": [_round_record(r) for r in rounds]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    return {"summary": summary, "metrics": metrics, "record": record}


if __name__ == "__main__":
    sys.exit(main())
