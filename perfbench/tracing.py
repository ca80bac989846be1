"""Spans and counts at the package's layer boundaries, recorded from outside.

`Tracer.install()` wraps the public functions of each layer (the package
modules) in place and `uninstall()` restores them; no package file changes.
While `active` is set (the benchmark sets it only around the package
calls it times, never around its own checks), each wrapped call records a
span (name, start, end, parent span, operation id) in flat arrays kept in
memory, plus counts taken from its arguments and result.  A span's self
time is its duration minus the durations of its direct children, which
tile part of it because the benchmark runs one thread.
"""

import functools
import gzip
import json
import sys
import time
from array import array

import numpy as np

from levytree import cli, experiments, family, laws, mechanism, prune, sampler, tree

def _laws_functions():
    return tuple(name for name, obj in vars(laws).items()
                 if callable(obj) and not name.startswith("_")
                 and getattr(obj, "__module__", None) == laws.__name__
                 and not isinstance(obj, type))


def _family_classes():
    out, pending = [], [family.AdmissibleFamily]
    while pending:
        cls = pending.pop()
        out.append(cls)
        pending.extend(cls.__subclasses__())
    return out


def _count_tree_nodes(counts, args, result):
    counts["sampler.tree_nodes"] += len(result)


def _count_individuals(counts, args, result):
    counts["sampler.population_individuals"] += int(result.totals.sum())


def _count_marks(counts, args, result):
    counts["prune.marks"] += len(result.edge_ids) + len(result.node_ids)


def _count_kept(counts, args, result):
    counts["prune.kept_nodes"] += len(result)
    counts["prune.base_nodes"] += len(args[0].base)


# (span name, owner, attribute names, count hook); span names start with the layer
def _targets():
    return (
        ("cli", cli, ("main",), None),
        ("experiments", experiments, ("run_experiment",), None),
        ("mechanism", mechanism.Mechanism, ("psi_inverse", "v_of", "u_of", "tail_time"), None),
        *(("family", cls, ("psi_at", "alpha", "node_survival", "node_mark_time", "mark_times"), None)
          for cls in _family_classes()),
        ("family", family, ("check_admissibility",), None),
        ("laws", laws, _laws_functions(), None),
        ("sampler.scheme_build", sampler.GwScheme, ("build",), None),
        ("sampler.gw_tree", sampler, ("gw_tree",), _count_tree_nodes),
        ("sampler.supercritical_window", sampler, ("supercritical_window",), None),
        ("sampler.population_run", sampler, ("population_run",), _count_individuals),
        ("tree.construct", tree.FiniteTree, ("__post_init__",), None),
        ("tree.depth", tree.FiniteTree, ("depth",), None),
        ("tree.query", tree.FiniteTree, ("height", "total_mass", "level_mass", "restrict_below"), None),
        ("prune.generate_marks", prune, ("generate_marks",), _count_marks),
        ("prune.pruned_at", prune.MarkedTree, ("pruned_at",), _count_kept),
        ("prune.sigma_path", prune.MarkedTree, ("sigma_path",), None),
    )


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.counts = {}
        self.op_id = -1
        self.active = False
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, span_name, fn, hook):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._name_ids[span_name]
        start, end, parent, name, op = self.start, self.end, self.parent, self.name, self.op
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(name_id)
            op.append(self.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counts, args, result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        self.active = True
        return self

    def __exit__(self, *exc):
        self.active = False

    # -- installing ----------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_attr(self, span_name, owner, attr, hook):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._replace(owner, attr, classmethod(self._span_wrapper(span_name, raw.__func__, hook)))
        elif isinstance(raw, functools.cached_property):
            prop = functools.cached_property(self._span_wrapper(span_name, raw.func, hook))
            prop.__set_name__(owner, attr)
            self._replace(owner, attr, prop)
        elif isinstance(owner, type):
            self._replace(owner, attr, self._span_wrapper(span_name, raw, hook))
        else:
            # a module function is also bound by name in every module that
            # imported it with `from ... import`; rebind all of them
            wrapped = self._span_wrapper(span_name, raw, hook)
            for mod in [m for k, m in sys.modules.items() if k.startswith("levytree")]:
                if mod.__dict__.get(attr) is raw:
                    self._replace(mod, attr, wrapped)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for key in ("sampler.tree_nodes", "sampler.population_individuals", "prune.marks",
                    "prune.kept_nodes", "prune.base_nodes", "mechanism.psi_evals"):
            self.counts.setdefault(key, 0)
        for span_name, owner, attrs, hook in _targets():
            for attr in attrs:
                if attr in owner.__dict__:
                    self._wrap_attr(span_name, owner, attr, hook)
        self._replace(mechanism.Mechanism, "psi",
                      self._count_wrapper("mechanism.psi_evals", mechanism.Mechanism.psi))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        self._stack.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self):
        """{span name: (calls, total self seconds)}."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        names = np.frombuffer(self.name, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        calls = np.bincount(names, minlength=len(self.names))
        self_ns = np.bincount(names, weights=dur - covered, minlength=len(self.names))
        return {span_name: (int(calls[i]), float(self_ns[i]) * 1e-9)
                for i, span_name in enumerate(self.names) if calls[i]}

    def write(self, path):
        """All spans as gzip-compressed JSON of parallel arrays."""
        blob = {
            "names": self.names,
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "name": self.name.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(blob, fh)


def layer_metrics(tracer, rounds, overhead_ratio):
    """Per-layer metrics, per traced round, named as in BENCHMARK.json."""
    spans = tracer.self_times()
    counts = tracer.counts

    def calls(prefix):
        return sum(c for k, (c, _) in spans.items() if k == prefix or k.startswith(prefix + "."))

    def self_s(prefix):
        return sum(s for k, (_, s) in spans.items() if k == prefix or k.startswith(prefix + "."))

    per = 1.0 / max(rounds, 1)
    out = {}
    for layer in ("mechanism", "family", "laws"):
        out[f"{layer}.calls"] = (calls(layer) * per, "count")
        out[f"{layer}.self_s"] = (self_s(layer) * per, "s")
    out["mechanism.psi_evals"] = (counts["mechanism.psi_evals"] * per, "count")
    for span in ("sampler.scheme_build", "sampler.gw_tree", "sampler.population_run",
                 "tree.construct", "prune.generate_marks", "prune.pruned_at"):
        out[f"{span}.calls"] = (calls(span) * per, "count")
        out[f"{span}.self_s"] = (self_s(span) * per, "s")
    for span in ("sampler.supercritical_window", "tree.depth", "tree.query", "prune.sigma_path"):
        out[f"{span}.self_s"] = (self_s(span) * per, "s")
    out["sampler.tree_nodes"] = (counts["sampler.tree_nodes"] * per, "count")
    out["sampler.population_individuals"] = (counts["sampler.population_individuals"] * per, "count")
    out["prune.marks"] = (counts["prune.marks"] * per, "count")
    base = counts["prune.base_nodes"]
    out["prune.kept_node_ratio"] = (counts["prune.kept_nodes"] / base if base else 0.0, "ratio")
    out["experiments.self_s"] = (self_s("experiments") * per, "s")
    out["cli.self_s"] = (self_s("cli") * per, "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
