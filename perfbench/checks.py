"""Output checks: every `verify` row and every analytic probe is checked.

`verify` rows: the oracle column is recomputed by calling the mechanism or
laws oracle directly and must match to 1e-12 (after rounding to the 12
significant digits the CSV carries), and every point must report
pass=true.  Analytic probes: each checks an identity of the calls it makes.
A check returns a note describing the failure, or None.
"""

import csv
import io
import math

from levytree import family as family_module
from levytree import laws

def expected_points(experiment, fam, params):
    """[(point label, oracle value or None)] in the order `verify` reports them."""
    qs = params.get("q_grid", ())
    cap = params.get("height_cap")
    if experiment == "height_law":
        mech = fam.psi_at(0.0)
        return [(f"a={a:g}", mech.v_of(a)) for a in qs]
    if experiment == "sigma_laplace":
        return [(f"q={q:g},lam={lam:g}", fam.psi_at(q).psi_inverse(lam))
                for q in qs for lam in params["lambda_grid"]]
    if experiment == "ascension_tail":
        return [(f"q={q:g},a={cap:g}", fam.psi_at(q).v_of(cap)) for q in qs]
    if experiment == "special_markov_intensity":
        eps = cap / 4.0
        return [(f"q={q:g},eps={eps:g}", laws.special_markov_intensity(fam, 0.0, q, eps))
                for q in qs]
    if experiment == "exit_tail_remark":
        h = cap / 2.0
        return [(f"qp={q:g},h={h:g}", fam.psi_at(q).v_of(h)) for q in sorted(qs)]
    if experiment == "prune_marginal":
        labels = [f"q={q:g},lam={lam:g}" for q in qs for lam in params["lambda_grid"]]
        labels += [f"q={q:g},a={a:g}" for q in qs for a in (cap / 4.0, cap / 2.0)]
        return [(label, None) for label in labels]
    raise ValueError(f"no oracle table for experiment {experiment!r}")


def parse_rows(csv_text):
    return list(csv.DictReader(io.StringIO(csv_text)))


def check_verify(experiment, expected, exit_code, rows):
    """Failure notes for one `verify` call (empty when every check holds)."""
    notes = []
    labels = [r["point"] for r in rows]
    if labels != [label for label, _ in expected]:
        return [f"points {labels} != expected {[label for label, _ in expected]}"]
    for row, (label, want) in zip(rows, expected):
        if row["experiment"] != experiment:
            notes.append(f"{label}: experiment column {row['experiment']!r}")
        got = float(row["oracle_value"])
        if want is None:
            if not math.isfinite(got):
                notes.append(f"{label}: reference arm {got}")
        else:
            printed = float("%.12g" % want)
            if not abs(got - printed) <= 1e-12 * max(1.0, abs(printed)):
                notes.append(f"{label}: oracle {got!r} != recomputed {want!r}")
        if row["pass"] != "true":
            notes.append(f"{label}: pass={row['pass']} (z={row['z_score']})")
    if (exit_code == 0) != (not any("pass=" in n for n in notes)):
        notes.append(f"exit code {exit_code} disagrees with the pass column")
    return notes


def relative_variances(rows):
    """(mc_stderr / (0.01 |oracle|))^2 per scored point; zero-stderr and nan-z points skipped."""
    out = {}
    for r in rows:
        se, oracle = float(r["mc_stderr"]), float(r["oracle_value"])
        if se > 0.0 and not math.isnan(float(r["z_score"])) and oracle != 0.0:
            out[r["point"]] = (se / (0.01 * abs(oracle))) ** 2
    return out


# -- analytic probes ---------------------------------------------------------------


def _rel(got, want, tol, what):
    if abs(got - want) <= tol * max(abs(want), 1e-300):
        return None
    return f"{what}: {got!r} vs {want!r} (rel tol {tol:g})"


def _close(got, want, tol, what):
    if abs(got - want) <= tol * max(1.0, abs(want)):
        return None
    return f"{what}: {got!r} vs {want!r} (tol {tol:g})"


def run_probe(probe, mechs, fams, call):
    """Run one analytic probe, making every oracle call through `call(fn, *args)`.

    Oracles are looked up on their module or instance at call time, so a
    traced run sees the wrapped versions.
    """
    kind = probe[0]
    if kind in ("semigroup", "flow_ode", "psi_inverse", "tail_time"):
        mech = mechs[probe[1]]
        if kind == "semigroup":
            _, _, a, ap, lam = probe
            whole = call(mech.u_of, a + ap, lam)
            split = call(mech.u_of, a, call(mech.u_of, ap, lam))
            return _rel(split, whole, 1e-9, "u semigroup")
        if kind == "flow_ode":
            a = probe[2]
            h = 1e-5 * a
            dv = (call(mech.v_of, a + h) - call(mech.v_of, a - h)) / (2.0 * h)
            psi_v = mech.psi(call(mech.v_of, a))
            return _rel(-dv, psi_v, 1e-6, "dv/da = -psi(v)")
        if kind == "psi_inverse":
            y = probe[2]
            return _rel(mech.psi(call(mech.psi_inverse, y)), y, 1e-9, "psi(psi_inverse(y))")
        v = probe[2]
        return _rel(call(mech.v_of, call(mech.tail_time, v)), v, 1e-9, "v_of(tail_time(v))")

    fam = fams[probe[1]]
    if kind == "alpha":
        _, _, t, mid, q = probe
        split = call(fam.alpha, t, mid) + call(fam.alpha, mid, q)
        return _close(call(fam.alpha, t, q), split, 1e-12, "alpha additivity")
    if kind == "node_survival":
        _, _, t, mid, q, delta = probe
        split = call(fam.node_survival, t, mid, delta) * call(fam.node_survival, mid, q, delta)
        return _close(call(fam.node_survival, t, q, delta), split, 1e-12,
                      "node_survival multiplicativity")
    if kind == "node_mark_time":
        _, name, t, delta, u = probe
        tm = call(fam.node_mark_time, t, delta, u)
        if math.isinf(tm):
            return None
        if not tm >= t:
            return f"node mark time {tm!r} before t={t!r}"
        if name == "shift":  # continuous survival: the time inverts it exactly
            return _close(1.0 - call(fam.node_survival, t, tm, delta), u, 1e-9,
                          "node_mark_time inverts node_survival")
        return None
    if kind == "admissibility":
        report = call(family_module.check_admissibility, fam)
        return None if report.passed else f"{probe[1]} reported not admissible"
    if kind == "exit_time_laws":
        _, _, q, h = probe
        law = call(laws.exit_time_laws, fam, q, q + 1e-8, h)
        return _close(law.beyond + law.at_ascension, 1.0, 1e-6,
                      "exit-time complement as q0 -> q")
    if kind == "special_markov_intensity":
        _, name, t, q, eps = probe
        got = call(laws.special_markov_intensity, fam, t, q, eps)
        skeleton = fam.alpha(t, q) * fam.psi_at(t).v_of(eps)
        if name == "lineardrift":  # no jumps: the skeleton term is everything
            return _close(got, skeleton, 1e-12, "special Markov intensity")
        if not got >= skeleton * (1.0 - 1e-12):
            return f"special Markov intensity {got!r} below its skeleton term {skeleton!r}"
        return None
    if kind == "size_bias_identity":
        _, _, q, lam = probe
        val = call(laws.size_bias_identity, fam, q, lam)
        return None if 0.0 < val <= 1.0 + 1e-12 else f"size-bias value {val!r} outside (0, 1]"
    raise ValueError(f"unknown probe kind {kind!r}")
