"""The benchmark's workloads and the seeded inputs they feed the package.

Every input is a plain dict (a family or mechanism description, a `verify`
config) drawn from the workload seed, so the package only ever receives
generated configs through its public entry points.  Why each workload
exists, and why its sizes are what they are, is in perfbench/README.md.
"""

import random

WORKLOADS = ("analytic", "population", "trees", "prune")

# -- families (JSON form, as `levytree verify --config` takes them) ---------

LINEAR_DRIFT = {
    "type": "lineardrift", "window": [None, None], "left_closed": None,
    "b_rate": 1.0, "c": 1.0,
}
SHIFT = {
    "type": "shift", "window": [-0.25, 3.0], "left_closed": None,
    "base": {"b": 0.0, "c": 1.0, "m": [{"type": "point", "z": 1.0, "w": 1.0}]},
}
TRUNCATION = {
    "type": "truncation", "window": [-1.0, 1.2], "left_closed": None,
    "base": {"b": 0.1, "c": 0.8, "m": [{"type": "point", "z": 0.6, "w": 0.7},
                                       {"type": "point", "z": 1.5, "w": 0.4}]},
    "h0": 2.0, "slope": 1.0, "g_rate": 0.3,
}
FAMILIES = {"lineardrift": LINEAR_DRIFT, "shift": SHIFT, "truncation": TRUNCATION}

# the three mechanisms of the acceptance suite's flow-identity check
MECHANISMS = (
    {"b": 0.0, "c": 1.0, "m": []},
    {"b": 1.0, "c": 1.0, "m": []},
    {"b": 0.5, "c": 1.0, "m": [{"type": "point", "z": 1.3, "w": 0.8},
                               {"type": "gamma", "k": 1.5, "rho": 2.0, "w": 0.6}]},
)

# -- Monte Carlo workloads -----------------------------------------------------
#
# One round is one pass over a workload's `verify` calls, each with a fresh
# seed.  Sizes are fixed here and must not change between commits that are
# compared.  Every call runs at the smallest resolution the package accepts
# (n = 100) with levels and caps of at most 2 and mostly below 0.5: each
# scored point then sees about ten or more events in its finer arm, and tree
# sizes, which are heavy-tailed under critical branching, stay small enough
# that a 20 s run averages over thousands of trees.  A run scores thousands
# of points, so points are held to 4 standard deviations, not the package
# default of 3, to keep false alarms rare (see perfbench/README.md).

TOLERANCE_SIGMAS = 4.0

MC_CALLS = {
    "population": (
        ("height_law", LINEAR_DRIFT,
         {"resolution": 100, "replicates": 4000, "q_grid": [0.5, 1.0, 2.0]}),
        ("sigma_laplace", LINEAR_DRIFT,
         {"resolution": 100, "replicates": 3000, "q_grid": [1.0], "lambda_grid": [1.0]}),
    ),
    "trees": (
        ("height_law", SHIFT,
         {"resolution": 100, "replicates": 800, "q_grid": [0.1, 0.2, 0.4]}),
        ("sigma_laplace", SHIFT,
         {"resolution": 100, "replicates": 1000, "q_grid": [1.0], "lambda_grid": [1.0]}),
        ("ascension_tail", LINEAR_DRIFT,
         {"resolution": 100, "replicates": 600, "height_cap": 0.25, "q_grid": [-1.0]}),
    ),
    "prune": (
        ("prune_marginal", LINEAR_DRIFT,
         {"resolution": 100, "replicates": 400, "height_cap": 0.5, "q_grid": [1.0],
          "lambda_grid": [0.5, 1.0, 2.0]}),
        ("special_markov_intensity", LINEAR_DRIFT,
         {"resolution": 100, "replicates": 1000, "height_cap": 0.5, "q_grid": [1.0]}),
        ("special_markov_intensity", SHIFT,
         {"resolution": 100, "replicates": 500, "height_cap": 0.5, "q_grid": [1.0]}),
        ("exit_tail_remark", LINEAR_DRIFT,
         {"resolution": 100, "replicates": 400, "height_cap": 0.5, "q_grid": [1.0]}),
    ),
}


def mc_round(workload, rng, scale=1.0):
    """The `verify` calls of one round: [{"experiment", "family", "params"}].

    `scale` shrinks replicate counts (never below the package minimum of
    100); only the benchmark's own tests use it.
    """
    calls = []
    for experiment, family, params in MC_CALLS[workload]:
        params = dict(params, seed=rng.randrange(2**31), tolerance_sigmas=TOLERANCE_SIGMAS)
        params["replicates"] = max(100, int(params["replicates"] * scale))
        calls.append({"experiment": experiment, "family": family, "params": params})
    return calls


# -- the analytic workload -------------------------------------------------------
#
# A closed loop with one caller: each probe is a few pointwise oracle calls
# whose results are checked against an identity.  Every round holds the same
# mix: each probe kind PROBES_PER_KIND times, spread evenly over the
# mechanisms or families it takes, in seeded order with seeded arguments.  A
# third of mechanism probes hit the jump mechanism, whose quadrature-backed
# v/u make the slow tail.  With the mix fixed, the median call, which sits
# where cheap closed forms give way to dearer calls, does not move with the
# seed.

KINDS = (
    "semigroup", "flow_ode", "psi_inverse", "tail_time", "alpha",
    "node_survival", "node_mark_time", "admissibility", "exit_time_laws",
    "special_markov_intensity", "size_bias_identity",
)
PROBES_PER_KIND = 6
LAW_FAMILIES = ("lineardrift", "shift")

# time ranges that stay inside each family's window
_SPAN = {"lineardrift": (-2.0, 2.0), "shift": (-0.25, 3.0), "truncation": (-1.0, 1.2)}
# ranges where the conditional exit-time law is defined (psi_0 critical)
_EXIT_Q = {"lineardrift": (-2.0, -0.1), "shift": (-0.2, -0.02)}


def _ordered(rng, lo, hi, k):
    return sorted(rng.uniform(lo, hi) for _ in range(k))


def _probe(rng, kind, j):
    """The j-th probe of its kind in a round."""
    mech = j % len(MECHANISMS)
    fam = tuple(FAMILIES)[j % len(FAMILIES)]
    if kind == "semigroup":
        return (kind, mech, rng.uniform(0.05, 1.5), rng.uniform(0.05, 1.5), rng.uniform(0.1, 5.0))
    if kind == "flow_ode":
        return (kind, mech, rng.uniform(0.05, 1.5))
    if kind == "psi_inverse":
        return (kind, mech, rng.uniform(0.1, 10.0))
    if kind == "tail_time":
        return (kind, mech, rng.uniform(0.2, 10.0))
    if kind == "alpha":
        return (kind, fam, *_ordered(rng, *_SPAN[fam], 3))
    if kind == "node_survival":
        return (kind, fam, *_ordered(rng, *_SPAN[fam], 3), rng.uniform(0.1, 2.0))
    if kind == "node_mark_time":
        return (kind, fam, rng.uniform(*_SPAN[fam]), rng.uniform(0.1, 2.0), rng.uniform(0.01, 0.99))
    if kind == "admissibility":
        return (kind, fam)
    fam = LAW_FAMILIES[j % len(LAW_FAMILIES)]
    if kind == "exit_time_laws":
        return (kind, fam, rng.uniform(*_EXIT_Q[fam]), rng.uniform(0.2, 2.0))
    if kind == "special_markov_intensity":
        lo, hi = _SPAN[fam]
        return (kind, fam, *_ordered(rng, lo, min(hi, 1.5), 2), rng.uniform(0.1, 1.0))
    return (kind, fam, rng.uniform(0.1, 2.0), rng.uniform(0.1, 5.0))


def analytic_round(rng):
    """The probes of one round of the analytic workload."""
    probes = [_probe(rng, kind, j) for kind in KINDS for j in range(PROBES_PER_KIND)]
    rng.shuffle(probes)
    return probes


def round_inputs(workload, seed, round_index, scale=1.0):
    """Inputs of one round; a pure function of (workload, seed, round)."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    if workload == "analytic":
        return analytic_round(rng)
    return mc_round(workload, rng, scale)
