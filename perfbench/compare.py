#!/usr/bin/env python3
"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the untraced result files (`*-trace0.json`) that
perfbench/run.py wrote for one commit, ideally ten seeds per workload with
the same seeds on both sides.  For every end-to-end metric in BENCHMARK.json
this prints one row per workload: median, quartiles and run count of each
side, the ratio of the medians with its base, and a verdict:

* better: the new side wins at least 9 of every 10 runs paired by seed
  (ties count for neither) and the medians differ by more than the base's
  interquartile range;
* unresolved: the base's own spread (IQR / median) exceeds the metric's
  bound, unless every new run beats every base run;
* worse: the new median is worse than the base median by more than the bound;
* no change: none of the above.

Run information that has no bound (time_to_1pct_s, fail_rate) is shown
with its medians and ratio only.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INFO_METRICS = (("time_to_1pct_s", "s", "lower"), ("fail_rate", "ratio", "lower"))


def load(directory):
    """{workload: {seed: record}} from the untraced result files of a directory."""
    out = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        info = record["summary"]
        out.setdefault(info["workload"], {})[info["seed"]] = record
    return out


def _value(record, name):
    if name in record["metrics"]:
        return record["metrics"][name]["value"]
    return record["summary"].get(name)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """Verdict of `new` against `base` (lists paired by index) under the metric's bound."""
    sign = 1.0 if better == "higher" else -1.0
    q1, med_b, q3 = quartiles(base)
    med_n = statistics.median(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(med_n - med_b) > q3 - q1:
        return "better"
    if (q3 - q1) / abs(med_b) > bound:
        beats_all = all(sign * (n - b) > 0 for n in new for b in base)
        return "better" if beats_all else "unresolved"
    if sign * (med_b - med_n) / abs(med_b) > bound:
        return "worse"
    return "no change"


def _side(values):
    q1, med, q3 = quartiles(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(base_dir, new_dir, spec):
    base, new = load(base_dir), load(new_dir)
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [(name, unit, better, None) for name, unit, better in INFO_METRICS]
    lines = []
    for name, unit, better, bound in metrics:
        lines.append(f"{name} ({unit}, {better} is better"
                     + (f", bound {bound:g})" if bound is not None else ", run information)"))
        for workload in sorted(set(base) & set(new)):
            seeds_b, seeds_n = sorted(base[workload]), sorted(new[workload])
            common = [s for s in seeds_b if s in new[workload]]
            if common:  # pair runs by seed; otherwise by order
                seeds_b = seeds_n = common
            vb = [_value(base[workload][s], name) for s in seeds_b]
            vn = [_value(new[workload][s], name) for s in seeds_n]
            if None in vb or None in vn:
                continue
            med_b = statistics.median(vb)
            ratio = statistics.median(vn) / med_b if med_b else float("nan")
            row = f"  {workload:<11} base {_side(vb)} | new {_side(vn)} | new/base {ratio:.4f}"
            if bound is not None:
                row += f" | {verdict(vb, vn, better, bound)}"
            lines.append(row)
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(compare(argv[0], argv[1], spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
