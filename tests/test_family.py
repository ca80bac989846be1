"""Family behavior against hand-derived oracles.

Closed forms used here are worked out independently of the implementation:
the shift family has w_i(q) = w_i e^{-z_i q} and b_q = b + 2cq +
sum w z (1 - e^{-zq}); the pure-drift family has psi_q = q*b_rate*lam +
c*lam^2 with eta_q = -q*b_rate/c.  CustomShift, a family defined here the
one way a family is defined (a subclass of AdmissibleFamily), carries the
data of SHIFT_TWIN and none of its closed-form hooks, so every base-class
default is compared with an analytic twin.
"""

import inspect
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levytree import mechanism
from levytree.family import (
    AdmissibilityReport,
    AdmissibleFamily,
    LinearDriftFamily,
    ReflectedFamily,
    ShiftFamily,
    TruncationFamily,
    _cocycle_condition,
    _psi_table,
    check_admissibility,
    family_from_dict,
)
from levytree.laws import exit_time_laws, tree_at_ascension
from levytree.mechanism import DomainError, GammaDensity, Mechanism, PointMass
from levytree.prune import generate_marks
from levytree.tree import FiniteTree

SHIFT_BASE = Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),))
SHIFT = ShiftFamily(SHIFT_BASE, window=(-0.5, 3.0))
LD = LinearDriftFamily(1.0, 1.0)
LD_FIN = LinearDriftFamily(1.0, 1.0, window=(-1.0, 1.0))
TRUNC_BASE = Mechanism(0.1, 0.8, (PointMass(0.6, 0.7), PointMass(1.5, 0.4)))
TRUNC = TruncationFamily(TRUNC_BASE, h0=2.0, slope=1.0, g_rate=0.3, window=(-1.0, 1.2))
REFL_NEG = ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.2, 0.5),)), window=(-0.8, 0.1))
REFL = ReflectedFamily(REFL_NEG)
SHIFT_TWIN = ShiftFamily(Mechanism(0.0, 0.5, (PointMass(1.0, 0.8),)), window=(-1.0, 1.0))
SHORT_SHIFT = ShiftFamily(SHIFT_BASE, window=(-0.5, 1.0))
FLAT_TRUNC = TruncationFamily(TRUNC_BASE, h0=2.0, slope=0.0, window=(-1.0, 1.2))
RISING_TRUNC = TruncationFamily(TRUNC_BASE, h0=2.0, slope=-1.0, window=(-1.0, 1.2))


class CustomShift(AdmissibleFamily):
    """SHIFT_TWIN's data, with every hook but _alpha left to the base class."""

    W0, Z, C = 0.8, 1.0, 0.5

    def __init__(self):
        super().__init__((-1.0, 1.0), self.C, (PointMass(self.Z, 1.0),))

    def b_at(self, q):
        return 2.0 * self.C * q + self.W0 * self.Z * -math.expm1(-self.Z * q)

    def beta_at(self, q):
        return 2.0 * self.C

    def weights_at(self, q):
        return np.array([self.W0 * math.exp(-self.Z * q)])

    def weight_rates_at(self, q):
        return self.Z * self.weights_at(q)

    def _alpha(self, t, q):
        return 2.0 * self.C * (q - t)

    def to_dict(self):
        raise DomainError("CustomShift has no JSON form")


CUSTOM = CustomShift()


# -- psi_at -----------------------------------------------------------------


def test_linear_drift_psi_values():
    mech = LD.psi_at(1.0)
    assert mech.b == 1.0 and mech.c == 1.0 and mech.m == ()
    assert LD.psi_at(0.0).criticality() == "critical"


def test_psi_at_window_start_is_the_family_there():
    fam = ShiftFamily(SHIFT_BASE, window=(0.0, 2.0))
    mech = fam.psi_at(0.0)
    assert mech.b == SHIFT_BASE.b
    assert mech.m[0].w == 1.0
    assert LD_FIN.psi_at(-1.0).b == -1.0


def test_shift_psi_at_one():
    mech = SHIFT.psi_at(1.0)
    assert mech.b == pytest.approx(2.0 + (1.0 - math.exp(-1.0)), rel=1e-14)
    assert mech.c == 1.0
    assert mech.m[0].z == 1.0
    assert mech.m[0].w == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_psi_at_outside_window_raises():
    with pytest.raises(DomainError):
        SHIFT.psi_at(5.0)
    with pytest.raises(DomainError):
        LD_FIN.psi_at(-2.0)


# -- zeta ---------------------------------------------------------------------


def test_zeta_linear_drift():
    for q in (-2.0, 0.0, 4.5):
        assert LD.zeta(q, 3.0) == 3.0


def test_zeta_at_zero_is_zero():
    for fam in (SHIFT, LD, TRUNC, REFL, CUSTOM):
        assert fam.zeta(0.0, 0.0) == 0.0


def test_zeta_shift_value():
    want = 2.0 + (1.0 - math.exp(-1.0))
    assert SHIFT.zeta(0.0, 1.0) == pytest.approx(want, rel=1e-14)


def _fd_dpsi_dq(fam, q, lam, h=1e-5):
    return (fam.psi_at(q + h).psi(lam) - fam.psi_at(q - h).psi(lam)) / (2.0 * h)


def test_zeta_is_time_derivative_of_psi():
    cases = [
        (SHIFT, (-0.3, 0.4, 1.7, 2.6)),
        (LD, (-1.5, 0.2, 3.0)),
        (REFL, (-0.6, -0.2, 0.25, 0.6)),
        (CUSTOM, (-0.7, 0.1, 0.8)),
    ]
    for fam, qs in cases:
        for q in qs:
            for lam in (0.3, 1.0, 4.0):
                want = _fd_dpsi_dq(fam, q, lam)
                got = fam.zeta(q, lam)
                assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_zeta_rejects_negative_lambda():
    with pytest.raises(DomainError):
        SHIFT.zeta(0.0, -1.0)


# -- survival factors ---------------------------------------------------------


def test_shift_mz_halves_at_log_two():
    fam = ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),)), window=(0.0, 3.0))
    assert fam.mz(0.0, math.log(2.0), 0) == pytest.approx(0.5, rel=1e-14)


def test_mz_identity_at_equal_times():
    assert SHIFT.mz(0.7, 0.7, 0) == 1.0
    assert TRUNC.mz(-0.5, -0.5, 1) == 1.0


def test_mz_cocycle_machine_precision():
    lhs = SHIFT.mz(0.0, 2.0, 0)
    rhs = SHIFT.mz(0.0, 1.0, 0) * SHIFT.mz(1.0, 2.0, 0)
    assert lhs == pytest.approx(rhs, rel=1e-15)
    lhs = REFL.mz(-0.6, 0.7, 0)
    rhs = REFL.mz(-0.6, 0.1, 0) * REFL.mz(0.1, 0.7, 0)
    assert abs(lhs - rhs) < 1e-15


def test_mz_degenerate_primitive_raises():
    # atom z=1.5 is gone from time 0.5 on
    with pytest.raises(DomainError):
        TRUNC.mz(0.8, 1.0, 1)


def test_mz_bad_arguments():
    with pytest.raises(DomainError):
        SHIFT.mz(1.0, 0.5, 0)
    with pytest.raises(DomainError):
        SHIFT.mz(0.0, 1.0, 7)
    with pytest.raises(DomainError):
        SHIFT.node_mark_time(0.0, -1.0, 0.5)  # would mark before t


# -- pruning parameters ----------------------------------------------------------


def test_prune_parameters_linear_drift():
    fam = LinearDriftFamily(1.0, 1.0)
    assert fam.alpha(0.0, 3.0) == pytest.approx(3.0, rel=1e-14)
    assert fam.node_survival(0.0, 3.0, 0.7) == 1.0
    assert fam.node_survival(0.0, 3.0, 5.0) == 1.0


def test_prune_parameters_empty_slice():
    assert SHIFT.alpha(1.2, 1.2) == 0.0
    assert SHIFT.node_survival(1.2, 1.2, 1.0) == 1.0


def test_shift_node_mark_probability():
    fam = ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),)), window=(0.0, 3.0))
    assert fam.node_survival(0.0, math.log(2.0), 1.0) == pytest.approx(0.5, rel=1e-13)


def test_truncation_hazard_is_infinite_after_drop():
    # survival 0: a node above the ceiling is marked with certainty
    assert TRUNC.node_survival(0.0, 1.0, 1.5) == 0.0
    assert TRUNC.node_survival(0.0, 1.0, 0.6) == 1.0


def test_node_survival_nearest_atom_default():
    fam = CUSTOM
    # single atom at z=1: any size keys off it
    want = fam.mz(-0.5, 0.5, 0)
    assert fam.node_survival(-0.5, 0.5, 0.97) == pytest.approx(want, rel=1e-12)


def test_node_mark_time_inverts_survival():
    tm = SHIFT.node_mark_time(0.3, 2.0, 0.5)
    assert tm == pytest.approx(0.3 + math.log(2.0) / 2.0, rel=1e-13)
    assert SHIFT.node_survival(0.3, tm, 2.0) == pytest.approx(0.5, rel=1e-12)
    # generic solver path
    tm = REFL.node_mark_time(-0.4, 1.2, 0.3)
    assert REFL.node_survival(-0.4, tm, 1.2) == pytest.approx(0.7, abs=1e-10)


def test_node_mark_time_beyond_window_is_inf():
    fam = ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),)), window=(0.0, 0.1))
    assert fam.node_mark_time(0.0, 1.0, 0.9) == math.inf
    assert LD.node_mark_time(0.0, 1.0, 0.5) == math.inf
    # 0.05 + log(2) / delta against the window end 1.0
    assert SHORT_SHIFT.node_mark_time(0.05, 0.5, 0.5) == math.inf
    assert SHORT_SHIFT.node_mark_time(0.05, 3.0, 0.5) == pytest.approx(
        0.05 + math.log(2.0) / 3.0, rel=1e-14)


def test_truncation_node_mark_time_is_the_drop_time():
    assert TRUNC.node_mark_time(0.0, 1.5, 0.37) == pytest.approx(0.5, rel=1e-14)
    assert TRUNC.node_mark_time(0.0, 0.6, 0.37) == math.inf  # drops at 1.4 > window end
    assert TRUNC.node_mark_time(0.6, 1.5, 0.37) == 0.6  # dropped at 0.5, before t
    # a flat ceiling never drops an atom
    for t, delta in ((-0.5, 0.6), (0.0, 1.5), (0.05, 2.0)):
        assert FLAT_TRUNC.node_mark_time(t, delta, 0.37) == math.inf


def test_truncation_marks_a_node_above_the_ceiling_at_once():
    # delta = 2.5 sits above the ceiling 2 at t = 0, whatever the slope
    for fam in (FLAT_TRUNC, RISING_TRUNC, TRUNC):
        assert fam.node_mark_time(0.0, 2.5, 0.37) == 0.0
        assert [fam.node_survival(0.0, q, 2.5) for q in (0.0, 0.5, 0.9, 1.2)] == [0.0] * 4
    # below the ceiling at t, a rising ceiling never drops it
    assert RISING_TRUNC.node_survival(-0.3, 1.2, 1.5) == 1.0
    assert RISING_TRUNC.node_mark_time(-0.3, 1.5, 0.37) == math.inf


# -- the base-class defaults against the shift closed forms -------------------------


def test_base_class_defaults_match_the_shift_closed_forms():
    # CUSTOM runs each default on SHIFT_TWIN's data; SHIFT_TWIN runs its closed form
    for q in (-0.8, -0.2, 0.0, 0.6):
        for lam in (0.0, 0.4, 3.0):
            assert CUSTOM.zeta(q, lam) == pytest.approx(SHIFT_TWIN.zeta(q, lam), rel=1e-14, abs=1e-15)
    for t, q in ((-1.0, 1.0), (-0.4, 0.3), (0.2, 0.2)):
        want = SHIFT_TWIN.node_survival(t, q, 1.0)
        assert CUSTOM.node_survival(t, q, 1.0) == pytest.approx(want, rel=1e-14)
    u = np.random.default_rng(5).random(200)
    for t in (-0.9, -0.3, 0.4):
        got = np.array([CUSTOM.node_mark_time(t, 1.0, x) for x in u])
        want = np.array([SHIFT_TWIN.node_mark_time(t, 1.0, x) for x in u])
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        assert np.isinf(want).any() and np.isfinite(want).any()
        np.testing.assert_allclose(got[np.isfinite(want)], want[np.isfinite(want)],
                                   rtol=0.0, atol=1e-12)
    got, want = check_admissibility(CUSTOM), check_admissibility(SHIFT_TWIN)
    assert got.passed and want.passed
    for name in AdmissibilityReport.__dataclass_fields__:
        assert getattr(got, name).worst == pytest.approx(getattr(want, name).worst, abs=1e-12)


# -- the input contract of the pruning methods ------------------------------------


CONTRACT_FAMILIES = {
    "shift": SHIFT,
    "lineardrift": LD_FIN,
    "truncation": TRUNC,
    "reflected": REFL,
    "custom": CUSTOM,
}


def _bad_calls(fam):
    """(label, thunk) for every input the public pruning methods must reject;
    0.0, 0.2 and 0.5 lie inside every contract family's window."""
    t0, t1 = fam.window
    nan, inf = math.nan, math.inf
    rng = np.random.default_rng(0)
    pairs = [(t0 - 1.0, 0.0), (0.0, t1 + 1.0), (nan, 0.0), (0.0, nan),
             (-inf, 0.0), (0.0, inf), (0.5, 0.2)]
    calls = []
    for t, q in pairs:
        calls += [
            (f"alpha({t}, {q})", lambda t=t, q=q: fam.alpha(t, q)),
            (f"node_survival({t}, {q}, 1)", lambda t=t, q=q: fam.node_survival(t, q, 1.0)),
            (f"mark_times({t}, {q})", lambda t=t, q=q: fam.mark_times(t, q, rng, 3)),
        ]
    for t in (t0 - 1.0, t1 + 1.0, nan, -inf, inf):
        calls.append((f"node_mark_time({t}, 1, 0.5)", lambda t=t: fam.node_mark_time(t, 1.0, 0.5)))
    for delta in (0.0, -1.0, nan):
        calls += [
            (f"node_survival(0, 0.5, {delta})", lambda d=delta: fam.node_survival(0.0, 0.5, d)),
            (f"node_mark_time(0, {delta}, 0.5)", lambda d=delta: fam.node_mark_time(0.0, d, 0.5)),
        ]
    for u in (0.0, 1.0, -0.5, 7.0, nan):
        calls.append((f"node_mark_time(0, 1, {u})", lambda u=u: fam.node_mark_time(0.0, 1.0, u)))
    for q in (t0 - 1.0, nan, -inf, 0.0, 0.5, t1 + 1.0):
        calls.append((f"qbar({q})", lambda q=q: fam.qbar(q)))
    return calls


@pytest.mark.parametrize("name", sorted(CONTRACT_FAMILIES))
def test_every_family_rejects_bad_pruning_inputs(name):
    fam = CONTRACT_FAMILIES[name]
    accepted = []
    for label, thunk in _bad_calls(fam):
        try:
            thunk()
        except DomainError:
            continue
        accepted.append(label)
    assert not accepted, f"{name} accepted {accepted}"


MARK_FAMILIES = dict(CONTRACT_FAMILIES, short_shift=SHORT_SHIFT, flat_truncation=FLAT_TRUNC)


@pytest.mark.parametrize("name", sorted(MARK_FAMILIES))
def test_generate_marks_maps_the_scalar_node_mark_time(name):
    # a spine of many-child nodes, each with a leaf
    fam = MARK_FAMILIES[name]
    k = 60
    rng = np.random.default_rng(3)
    parent = np.concatenate([[-1], np.arange(k), np.arange(1, k + 1)])
    delta = np.concatenate([[0.0], rng.uniform(0.05, 3.0, k), np.zeros(k)])
    mu = np.concatenate([np.zeros(k + 1), np.ones(k)])
    tree = FiniteTree(parent, np.concatenate([[0.0], rng.uniform(0.1, 1.0, 2 * k)]), delta, mu)
    t, t_max = -0.3, 0.8
    marks = generate_marks(tree, fam, (t, t_max), np.random.default_rng(19))
    # a twin generator replays the skeleton draws (the total along the
    # edges laid end to end, then edges, offsets and times), then the node
    # uniforms
    twin = np.random.default_rng(19)
    alpha = fam.alpha(t, t_max)
    if alpha > 0.0:
        total = twin.poisson(alpha * np.cumsum(tree.length)[-1])
        twin.random(total)
        twin.random(total)
        fam.mark_times(t, t_max, twin, total)
    nodes = np.flatnonzero(delta > 0.0)
    u = twin.random(k)
    want = np.array([fam.node_mark_time(t, d, x) for d, x in zip(delta[nodes].tolist(), u.tolist())])
    hit = want <= t_max
    assert hit.any() == (name != "lineardrift")
    np.testing.assert_array_equal(marks.node_ids, nodes[hit])
    np.testing.assert_array_equal(marks.node_times, want[hit])


NODE_FAMILIES = dict(MARK_FAMILIES, rising_truncation=RISING_TRUNC)


@pytest.mark.parametrize("name", sorted(NODE_FAMILIES))
def test_node_mark_time_and_survival_agree(name):
    # survival is nonincreasing in q, and the node is marked by q iff its
    # mark probability over [t, q] reaches u, away from ties
    fam = NODE_FAMILIES[name]
    lo, hi = fam.window
    grid = np.linspace(lo, hi, 9)[1:-1]
    for t in grid[:-1]:
        qs = [t] + [q for q in grid if q > t] + [hi]
        for delta in (0.3, 0.6, 1.0, 1.5, 2.5):
            surv = [fam.node_survival(t, q, delta) for q in qs]
            assert all(b <= a for a, b in zip(surv, surv[1:])), (t, delta, surv)
            for u in (0.1, 0.37, 0.8):
                tm = fam.node_mark_time(t, delta, u)
                for q, s in zip(qs, surv):
                    if abs(tm - q) > 1e-9 and abs(1.0 - s - u) > 1e-9:
                        assert (tm <= q) == (1.0 - s >= u), (t, q, delta, u, tm, s)


def test_interval_errors_name_the_first_bad_input():
    with pytest.raises(DomainError, match=r"^t=nan outside window \[-1.0, 1.2\]$"):
        TRUNC.alpha(math.nan, 2.0)
    with pytest.raises(DomainError, match=r"^q=2.0 outside window \[-1.0, 1.2\]$"):
        TRUNC.node_survival(0.0, 2.0, 1.0)
    with pytest.raises(DomainError, match=r"^need t <= q, got t=0.5 > q=0.2$"):
        TRUNC.mark_times(0.5, 0.2, np.random.default_rng(0), 1)
    with pytest.raises(DomainError, match=r"^t=inf outside window \[-inf, inf\]$"):
        LD.alpha(math.inf, math.inf)
    with pytest.raises(DomainError, match=r"^need u in \(0, 1\), got 7.0$"):
        TRUNC.node_mark_time(0.0, 1.0, 7.0)
    with pytest.raises(DomainError, match=r"^need node size > 0, got -1.0$"):
        LD_FIN.node_mark_time(0.5, -1.0, 0.5)
    with pytest.raises(DomainError, match=r"^qbar needs q < 0, got 0.0$"):
        REFL.qbar(0.0)


# -- alpha ------------------------------------------------------------------------


def test_alpha_closed_forms():
    assert SHIFT.alpha(0.0, 1.5) == pytest.approx(3.0, rel=1e-14)
    assert LD.alpha(-1.0, 2.0) == pytest.approx(3.0, rel=1e-14)
    assert TRUNC.alpha(0.0, 1.0) == pytest.approx(0.3, rel=1e-14)


def test_alpha_additivity():
    for fam, (t, mid, q) in [
        (SHIFT, (-0.2, 0.9, 2.5)),
        (REFL, (-0.7, -0.1, 0.65)),
        (CUSTOM, (-0.9, 0.05, 0.85)),
    ]:
        whole = fam.alpha(t, q)
        parts = fam.alpha(t, mid) + fam.alpha(mid, q)
        assert abs(whole - parts) < 1e-12


def test_every_family_supplies_alpha_as_the_drift_integral():
    # the base class has no quadrature fallback, so each family's own
    # closed form is what runs; it must integrate its beta
    from scipy.integrate import quad

    assert "_alpha" in AdmissibleFamily.__abstractmethods__
    for fam, (t, q) in [(SHIFT, (-0.2, 2.5)), (LD, (-1.0, 2.0)), (TRUNC, (0.0, 1.0)),
                        (REFL, (-0.7, 0.65))]:
        want, _ = quad(fam.beta_at, t, q, epsabs=1e-12)
        assert fam.alpha(t, q) == pytest.approx(want, abs=1e-9)


def test_reflected_alpha_matches_drift_integral():
    # beta of the reflected side, integrated by an outside quadrature
    from scipy.integrate import quad

    want, _ = quad(REFL.beta_at, 0.1, 0.7, epsabs=1e-12)
    assert REFL.alpha(0.1, 0.7) == pytest.approx(want, abs=1e-9)


def test_kernel_drift_identity():
    # b_q - b_t = alpha + sum z_i (w_i(t) - w_i(q)) for every family
    for fam, (t, q) in [
        (SHIFT, (-0.4, 2.2)),
        (LD, (-2.0, 5.0)),
        (TRUNC, (-0.8, 1.1)),
        (REFL, (-0.75, 0.6)),
        (CUSTOM, (-0.95, 0.9)),
    ]:
        fm = np.array([s.unit_first_moment for s in fam.shapes])
        jump = float(np.sum(fm * (fam.weights_at(t) - fam.weights_at(q)))) if fm.size else 0.0
        lhs = fam.b_at(q) - fam.b_at(t)
        assert lhs == pytest.approx(fam.alpha(t, q) + jump, rel=1e-9, abs=1e-9)


def test_b_monotone_in_q():
    for fam in (SHIFT, LD, TRUNC, REFL, CUSTOM):
        lo = max(fam.window[0], -3.0)
        hi = min(fam.window[1], 3.0)
        qs = np.linspace(lo, hi, 41)
        bs = [fam.b_at(q) for q in qs]
        assert np.all(np.diff(bs) >= -1e-12)


# -- mark times ---------------------------------------------------------------------


def test_mark_times_stay_in_slice():
    rng = np.random.default_rng(7)
    for fam, (t, q) in [(SHIFT, (0.2, 1.8)), (REFL, (-0.5, 0.5)), (CUSTOM, (-0.9, 0.9))]:
        times = fam.mark_times(t, q, rng, 500)
        assert times.shape == (500,)
        assert np.all((times >= t) & (times <= q))


def test_mark_times_follow_the_drift_density():
    # the trapezoid default inverts the cumulative drift: for a constant beta
    # it maps the shift family's uniforms to the same uniform times
    got = CUSTOM.mark_times(-0.9, 0.7, np.random.default_rng(11), 1000)
    want = SHIFT_TWIN.mark_times(-0.9, 0.7, np.random.default_rng(11), 1000)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
    # the reflected beta varies: the mean is int t beta / alpha
    from scipy.integrate import quad

    t, q = -0.7, 0.6
    times = REFL.mark_times(t, q, np.random.default_rng(12), 40000)
    mean = quad(lambda x: x * REFL.beta_at(x), t, q, epsabs=1e-12)[0] / REFL.alpha(t, q)
    se = times.std() / math.sqrt(len(times))
    assert abs(times.mean() - mean) < 4.0 * se


@pytest.mark.parametrize("fam", [REFL, ReflectedFamily(SHIFT_TWIN), CUSTOM],
                         ids=["reflected", "reflected_twin", "custom"])
def test_trapezoid_mark_times_keep_scipys_bits(fam):
    # the mark times invert the running trapezoid integral of the drift
    # density that scipy.integrate.cumulative_trapezoid computes, bit for bit
    from scipy import integrate

    lo, hi = fam.window
    for t, q in ((lo, hi), (lo + 0.1, 0.0), (-0.05, hi), (0.3 * lo, 0.7 * hi)):
        grid = np.linspace(t, q, 1025)
        cum = integrate.cumulative_trapezoid([fam.beta_at(x) for x in grid], grid, initial=0.0)
        want = np.interp(np.random.default_rng(5).random(4000) * cum[-1], cum, grid)
        got = fam.mark_times(t, q, np.random.default_rng(5), 4000)
        assert got.tobytes() == want.tobytes()


def test_mark_times_need_positive_alpha():
    fam = TruncationFamily(TRUNC_BASE, h0=2.0, slope=1.0, g_rate=0.0, window=(-1.0, 1.2))
    with pytest.raises(DomainError):
        fam.mark_times(0.0, 1.0, np.random.default_rng(0), 4)


@pytest.mark.parametrize("fam", [SHIFT, LD, TRUNC, REFL, CUSTOM],
                         ids=["shift", "lineardrift", "truncation", "reflected", "custom"])
def test_mark_times_on_a_degenerate_slice(fam):
    rng = np.random.default_rng(0)
    empty = fam.mark_times(0.2, 0.2, rng, 0)
    assert empty.shape == (0,) and empty.dtype == np.float64
    with pytest.raises(DomainError, match=r"^alpha\(0.2, 0.2\) = 0: no mark-time density$"):
        fam.mark_times(0.2, 0.2, rng, 3)


# -- eta, window infimum, qbar ----------------------------------------------------------


def test_eta_linear_drift():
    assert LD.eta_at(-1.0) == pytest.approx(1.0, rel=1e-14)
    assert LD.eta_at(0.5) == 0.0
    assert LD.eta_at(0.0) == 0.0


def test_eta_from_root_finder_agrees_with_closed_form():
    fam = LinearDriftFamily(1.3, 0.7, window=(-2.0, 2.0))
    q = -1.1
    assert fam.psi_at(q).eta == pytest.approx(1.3 * 1.1 / 0.7, rel=1e-12)
    assert fam.eta_at(q) == pytest.approx(1.3 * 1.1 / 0.7, rel=1e-12)


def test_t_infinity_flags():
    # the window infimum; a finite one is a time of the family
    for fam, t_inf in ((LD, -math.inf), (LD_FIN, -1.0), (SHIFT, -0.5)):
        assert fam.window[0] == t_inf
        if math.isfinite(t_inf):
            assert fam.psi_at(t_inf).b == fam.b_at(t_inf)
    with pytest.raises(DomainError):
        LD.psi_at(-math.inf)


def test_qbar_linear_drift():
    assert LD.qbar(-1.0) == pytest.approx(1.0, rel=1e-14)
    assert LD.qbar(-1e-9) == pytest.approx(1e-9, rel=1e-12)
    assert LD_FIN.qbar(-0.3) == pytest.approx(0.3, rel=1e-14)


def test_qbar_outside_window_is_none():
    fam = LinearDriftFamily(1.0, 1.0, window=(-2.0, 1.0))
    assert fam.qbar(-1.5) is None


def test_qbar_requires_negative_q_and_critical_origin():
    with pytest.raises(DomainError):
        LD.qbar(0.5)
    tilted = ShiftFamily(Mechanism(0.3, 1.0, ()), window=(-1.0, 1.0))
    with pytest.raises(DomainError, match="need psi_0 critical"):
        tilted.qbar(-0.5)


def test_qbar_shift_conjugacy():
    fam = ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),)), window=(-0.5, 3.0))
    q = -0.4
    qb = fam.qbar(q)
    assert qb == pytest.approx(q + fam.eta_at(q), rel=1e-12)
    mech = fam.psi_at(q)
    eta = fam.eta_at(q)
    grid = np.linspace(0.1, 10.0, 40)
    gap = np.max(np.abs(fam.psi_at(qb).psi(grid) - mech.psi(eta + grid)))
    assert gap < 1e-9


def test_qbar_generic_solver_on_custom_family():
    # root-finding on b, which is not linear in q here, against q + eta_q
    for q in (-0.8, -0.5, -0.1):
        got = CUSTOM.qbar(q)
        assert got == pytest.approx(q + SHIFT_TWIN.eta_at(q), rel=1e-10)
        mech = CUSTOM.psi_at(q)
        grid = np.linspace(0.1, 10.0, 40)
        gap = np.max(np.abs(CUSTOM.psi_at(got).psi(grid) - mech.psi(mech.eta + grid)))
        assert gap < 1e-9
    assert CUSTOM.qbar(-0.9) is None and SHIFT_TWIN.qbar(-0.9) is None  # past the window
    # an atomless truncation family is psi_q = q lam / 2 + lam^2: qbar(q) = -q
    fam = family_from_dict({"type": "truncation", "base": {"b": 0.0, "c": 1.0, "m": []},
                            "h0": 1.0, "slope": 0.0, "g_rate": 0.5, "window": [-1.0, 1.0]})
    assert type(fam)._qbar is AdmissibleFamily._qbar
    for q in (-0.9, -0.5, -0.1):
        assert fam.qbar(q) == pytest.approx(-q, rel=1e-12)


def test_reflected_qbar_is_reflection():
    assert REFL.qbar(-0.6) == 0.6


# -- reflected family vs direct conjugation --------------------------------------------


def test_reflected_matches_conjugate_mechanism():
    grid = np.linspace(0.0, 8.0, 50)
    for q in (0.15, 0.4, 0.75):
        neg = REFL_NEG.psi_at(-q)
        eta = neg.eta
        direct = neg.psi(eta + grid)  # psi_q(lam) = psi_{-q}(eta + lam)
        got = REFL.psi_at(q).psi(grid)
        np.testing.assert_allclose(got, direct, rtol=1e-11, atol=1e-11)


def test_reflected_psi_at_root_finds_one_mirror(monkeypatch):
    calls = []
    real = mechanism.brentq

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(mechanism, "brentq", counting)
    for q in (0.15, 0.5, 0.75):
        calls.clear()
        got = REFL.psi_at(q)
        assert len(calls) == 1
        # the base class builds b and the weights from a mirror each: same bits
        calls.clear()
        ref = AdmissibleFamily.psi_at(REFL, q)
        assert len(calls) == 2
        assert got.b == ref.b and got.c == ref.c and got.m == ref.m


def test_reflected_is_continuous_at_zero():
    below = REFL.psi_at(-1e-9).psi(2.0)
    above = REFL.psi_at(1e-9).psi(2.0)
    assert above == pytest.approx(below, rel=1e-6)


def test_reflected_linear_drift_is_itself():
    fam = ReflectedFamily(LinearDriftFamily(1.0, 1.0, window=(-2.0, 2.0)))
    for q in (-1.5, -0.2, 0.4, 1.7):
        assert fam.b_at(q) == pytest.approx(q, rel=1e-12, abs=1e-12)
        assert fam.beta_at(q) == pytest.approx(1.0, rel=1e-12)
    assert fam.alpha(-1.0, 1.5) == pytest.approx(2.5, rel=1e-11)


def test_reflected_node_survival_tilts_with_eta():
    t, q, delta = -0.5, 0.5, 1.2
    eta = REFL_NEG.psi_at(-0.5).eta
    w_t = REFL_NEG.weights_at(-0.5)[0]
    w_q = REFL_NEG.weights_at(-0.5)[0] * math.exp(-delta * eta)
    assert REFL.node_survival(t, q, delta) == pytest.approx(w_q / w_t, rel=1e-12)


# -- truncation specifics ---------------------------------------------------------------


def test_truncation_weights_drop_at_crossing():
    w = TRUNC.weights_at(0.49)
    assert w[1] == 0.4
    w = TRUNC.weights_at(0.51)
    assert w[1] == 0.0
    assert w[0] == 0.7  # z=0.6 never crosses inside the window


def test_truncation_b_jump_compensates_dropped_atom():
    before = TRUNC.psi_at(0.499)
    after = TRUNC.psi_at(0.501)
    # psi increases by roughly w(1 - e^{-lam z}) across the drop
    lam = 2.0
    gap = after.psi(lam) - before.psi(lam)
    want = 0.4 * (1.0 - math.exp(-lam * 1.5))
    assert gap == pytest.approx(want + 0.3 * 0.002 * lam, abs=1e-3)
    assert gap > 0.0


def test_truncation_needs_positive_ceiling():
    with pytest.raises(DomainError):
        TruncationFamily(TRUNC_BASE, h0=1.0, slope=1.0, window=(-1.0, 1.5))
    with pytest.raises(DomainError):
        TruncationFamily(TRUNC_BASE, h0=1.0, slope=1.0, window=(-1.0, math.inf))


# -- admissibility reports ----------------------------------------------------------------


def test_linear_drift_report_passes():
    report = check_admissibility(LD)
    assert report.passed
    assert report.h1_weights.note == "no jump part"
    assert "admissible" in report.summary()


def test_shift_and_reflected_reports_pass():
    assert check_admissibility(SHIFT).passed
    assert check_admissibility(REFL).passed
    assert check_admissibility(CUSTOM).passed


def test_negative_kernel_drift_rejected_at_construction():
    with pytest.raises(DomainError):
        LinearDriftFamily(-1.0, 1.0)


def test_truncation_with_rising_ceiling_fails_h1():
    fam = TruncationFamily(TRUNC_BASE, h0=1.5, slope=-1.0, g_rate=0.5, window=(-1.0, 1.0))
    report = check_admissibility(fam)
    assert not report.h1_weights.passed
    assert not report.passed
    assert "FAIL" in report.summary()


def test_truncation_with_falling_ceiling_passes_with_note():
    report = check_admissibility(TRUNC)
    assert report.passed
    assert report.h1_weights.note == "a weight reaches zero"


def test_non_grey_family_flagged():
    fam = ShiftFamily(Mechanism(0.0, 0.0, (PointMass(1.0, 1.0),)), window=(-0.5, 0.5))
    report = check_admissibility(fam)
    assert not report.h3_grey.passed


@pytest.mark.parametrize("b_end, alpha_end", [
    (1.5e308, None),        # b_1 - b_-1 overflows: the lhs is inf
    (None, math.nan),       # the rhs is NaN
    (None, math.inf),       # the rhs is inf
    (1.5e308, math.inf),    # both are inf, and their difference NaN
])
def test_a_non_finite_kernel_side_reports_inf(b_end, alpha_end):
    class Edge(CustomShift):
        """CUSTOM, non-finite on the pair (-1, 1) of its default grid only."""

        def b_at(self, q):
            if b_end is not None and abs(q) == 1.0:
                return math.copysign(b_end, q)
            return super().b_at(q)

        def _alpha(self, t, q):
            if alpha_end is not None and (t, q) == (-1.0, 1.0):
                return alpha_end
            return super()._alpha(t, q)

    with np.errstate(over="ignore", invalid="ignore"):  # psi overflows with such a b
        kernel = check_admissibility(Edge()).kernel_integrals
    assert kernel.worst == math.inf and not kernel.passed


def test_a_non_finite_drift_stops_the_report_at_its_mechanism():
    class Edge(CustomShift):
        def b_at(self, q):
            return math.inf if q == 1.0 else super().b_at(q)

    with pytest.raises(DomainError, match="finite b"):
        check_admissibility(Edge())


def reference_cocycle(fam, ts):
    """The H2 loop check_admissibility ran before it read its weight table:
    one mz call per factor, over every i <= j <= k and primitive p."""
    weights = np.array([fam.weights_at(t) for t in ts])
    worst, skipped = 0.0, False
    for i in range(len(ts)):
        for j in range(i, len(ts)):
            for k in range(j, len(ts)):
                for p in range(weights.shape[1] if weights.size else 0):
                    if weights[i, p] == 0.0 or weights[j, p] == 0.0:
                        skipped = True
                        continue
                    err = abs(fam.mz(ts[i], ts[k], p)
                              - fam.mz(ts[i], ts[j], p) * fam.mz(ts[j], ts[k], p))
                    worst = max(worst, err)
    return worst, "degenerate triples skipped" if skipped else ""


COCYCLE_FAMILIES = [
    SHIFT, LD_FIN, TRUNC, REFL, CUSTOM, SHIFT_TWIN,
    ShiftFamily(Mechanism(0.0, 0.5, (PointMass(0.7, 0.8), PointMass(2.5, 0.3))), window=(-1.0, 1.0)),
    # atom z=1.5 drops at q=0.5: zero weights from mid-window on
    TruncationFamily(TRUNC_BASE, h0=1.0, slope=1.0, window=(-1.0, 0.6)),
    # rising ceiling: atom z=1.5 is absent until q=0
    TruncationFamily(TRUNC_BASE, h0=1.5, slope=-1.0, g_rate=0.5, window=(-1.0, 1.0)),
]


@pytest.mark.parametrize("k", range(len(COCYCLE_FAMILIES)))
def test_cocycle_condition_equals_the_mz_loop(k):
    fam = COCYCLE_FAMILIES[k]
    lo, hi = max(fam.window[0], -3.0), min(fam.window[1], 3.0)
    rng = np.random.default_rng(800 + k)
    grids = [np.sort(rng.uniform(lo, hi, size)) for size in (2, 2, 3, 5, 8, 12)]
    grids += [np.array([lo, hi]), np.linspace(lo, hi, 9)]
    for ts in grids:
        h2 = check_admissibility(fam, t_grid=ts).h2_cocycle
        worst, note = reference_cocycle(fam, ts)
        assert (h2.worst, h2.note, h2.passed) == (worst, note, worst < 1e-12), ts


def reference_kernel(fam, ts):
    """The kernel-integral loop check_admissibility ran before its one array
    pass: b_at, weights_at and alpha per grid pair t < q."""
    fm = np.array([s.unit_first_moment for s in fam.shapes])
    bs = [fam.b_at(t) for t in ts]
    weights = [fam.weights_at(t) for t in ts]
    worst = 0.0
    for i in range(len(ts) - 1):
        for j in range(i + 1, len(ts)):
            lhs = bs[j] - bs[i]
            jump = float(np.sum(fm * (weights[i] - weights[j]))) if fm.size else 0.0
            rhs = fam.alpha(ts[i], ts[j]) + jump
            if not (math.isfinite(lhs) and math.isfinite(rhs)):
                return math.inf
            worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("k", range(len(COCYCLE_FAMILIES)))
def test_kernel_integrals_equal_the_pair_loop(k):
    fam = COCYCLE_FAMILIES[k]
    lo, hi = max(fam.window[0], -3.0), min(fam.window[1], 3.0)
    rng = np.random.default_rng(900 + k)
    grids = [np.sort(rng.uniform(lo, hi, size)) for size in (1, 2, 3, 5, 8, 12)]
    grids += [np.array([lo, hi]), np.linspace(lo, hi, 9)]
    for ts in grids:
        kernel = check_admissibility(fam, t_grid=ts).kernel_integrals
        worst = reference_kernel(fam, ts)
        assert (kernel.worst, kernel.passed) == (worst, worst < 1e-8), ts


def reference_report(fam, t_grid=None, lam_grid=None):
    """The report check_admissibility made before its grid table: one
    mechanism per grid time from psi_at, its psi, b, weights and Grey flag,
    and one alpha call per grid pair."""
    if t_grid is None:
        t0, t1 = fam.window
        t_grid = np.linspace(t0 if math.isfinite(t0) else -3.0, t1 if math.isfinite(t1) else 3.0, 9)
    ts = np.sort(np.asarray(t_grid))
    lams = np.asarray(lam_grid if lam_grid is not None else (0.1, 0.5, 1.0, 2.0, 5.0, 10.0))
    mechs = [fam.psi_at(t) for t in ts]
    psi_tab = np.array([m.psi(lams) for m in mechs])
    worst_mono = float(np.min(np.diff(psi_tab, axis=0), initial=0.0))
    monotone = (worst_mono >= -1e-9, min(worst_mono, 0.0), "")
    bs = np.array([m.b for m in mechs])
    weights = np.array([[p.w for p in m.m] for m in mechs])
    if weights.size:
        growth = float(np.max(np.diff(weights, axis=0), initial=0.0))
        negative = float(np.min(weights))
        note = "a weight reaches zero" if np.any(weights == 0.0) else ""
        h1 = (growth <= 1e-12 and negative >= 0.0, max(growth, -negative, 0.0), note)
    else:
        h1 = (True, 0.0, "no jump part")
    h2 = _cocycle_condition(weights)
    grey_fail = [t for t, m in zip(ts, mechs) if not m.is_grey]
    h3 = (not grey_fail, float(len(grey_fail)), "" if not grey_fail else f"fails at t={grey_fail[0]:g}")
    upper = np.arange(len(ts))[:, None] < np.arange(len(ts))
    rhs = np.array([fam.alpha(t, q) for i, t in enumerate(ts) for q in ts[i + 1:]], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = (bs[None, :] - bs[:, None])[upper]
        if weights.size:
            fm = np.array([s.unit_first_moment for s in fam.shapes])
            rhs += np.sum(fm * (weights[:, None, :] - weights[None, :, :])[upper], axis=1)
        worst_kernel = float(np.max(np.abs(lhs - rhs), initial=0.0))
    if math.isnan(worst_kernel):
        worst_kernel = math.inf
    kernel = (worst_kernel < 1e-8, worst_kernel, "")
    return [monotone, h1, (h2.passed, h2.worst, h2.note), h3, kernel], ts, lams, mechs


def _random_family(rng, kind):
    if kind == "lineardrift":
        window = (-math.inf, math.inf) if rng.random() < 0.3 else (-rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
        return LinearDriftFamily(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), window)
    atoms = tuple(PointMass(rng.uniform(0.2, 3.0), rng.uniform(0.05, 2.0))
                  for _ in range(rng.integers(0 if kind == "shift" else 1, 4)))
    c = 0.0 if rng.random() < 0.05 else rng.uniform(0.1, 2.0)
    base = Mechanism(rng.uniform(-1.0, 1.0), c, atoms)
    if kind == "shift":
        return ShiftFamily(base, (-rng.uniform(0.1, 2.0), rng.uniform(0.1, 3.0)))
    # a ceiling that crosses some atoms inside the window, so rows hold zero weights
    t0, t1 = -rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
    slope = rng.uniform(-1.5, 1.5)
    h0 = max(slope * t1, slope * t0, 0.0) + rng.uniform(0.05, 3.0)
    return TruncationFamily(base, h0, slope, rng.uniform(0.0, 1.0), (t0, t1))


def _random_grid(rng, fam):
    """None (the default grid) or an unsorted grid with repeated times."""
    if rng.random() < 0.25:
        return None
    lo, hi = max(fam.window[0], -3.0), min(fam.window[1], 3.0)
    ts = rng.uniform(lo, hi, rng.integers(1, 12))
    ts = np.concatenate([ts, rng.choice(ts, rng.integers(0, 3)), [lo, hi][:rng.integers(0, 3)]])
    rng.shuffle(ts)
    return ts


# the default, grids inside the series band of psi's jump terms (|lam| below
# 1e-3 / z, z in [0.2, 3]), and grids holding 0
LAM_GRIDS = [None, (0.0, 0.1, 1.0, 5.0), (1e-5, 2e-4, 9e-4, 0.5), (0.0,),
             (0.0, 1e-7, 3e-4, 2e-3, 30.0), (4e-3, 1e-3, 3e-4)]


@pytest.mark.parametrize("kind", ["shift", "truncation", "lineardrift"])
def test_report_equals_the_per_mechanism_reference(kind):
    # report equality cannot see the table's last bits (the monotone worst is
    # min(diff, 0)), so each psi row is also compared with psi_at(t).psi bits
    rng = np.random.default_rng({"shift": 3301, "truncation": 3302, "lineardrift": 3303}[kind])
    zero_rows = 0
    for _ in range(700):
        fam = _random_family(rng, kind)
        t_grid = _random_grid(rng, fam)
        lam_grid = LAM_GRIDS[rng.integers(len(LAM_GRIDS))]
        got = check_admissibility(fam, t_grid, lam_grid)
        want, ts, lams, mechs = reference_report(fam, t_grid, lam_grid)
        for f, w in zip(fields(AdmissibilityReport), want):
            g = getattr(got, f.name)
            assert (g.passed, g.worst.hex(), g.note) == (w[0], float(w[1]).hex(), w[2]), (fam.to_dict(), f.name)
        b, weights = fam._grid(ts)
        zero_rows += bool(np.any(weights == 0.0))
        table = _psi_table(fam, b, weights, np.asarray(lams, dtype=float))
        for row, mech in zip(table, mechs):
            assert row.tobytes() == np.asarray(mech.psi(lams), dtype=float).tobytes(), fam.to_dict()
    if kind == "truncation":
        assert zero_rows > 100


def test_grid_rows_are_b_at_and_weights_at_bits():
    ts = np.array([-1.0, -0.3, 0.0, 0.49, 0.5, 0.51, 1.2])
    for fam in (SHIFT_TWIN, TRUNC, LD_FIN, REFL, CUSTOM):
        inside = ts[(ts >= fam.window[0]) & (ts <= fam.window[1])]
        b, weights = fam._grid(inside)
        assert b.tobytes() == np.array([fam.b_at(t) for t in inside]).tobytes()
        want = np.array([fam.weights_at(t) for t in inside]).reshape(len(inside), len(fam.shapes))
        assert weights.tobytes() == want.tobytes()


def test_a_bad_grid_raises_psi_at_errors():
    with pytest.raises(DomainError, match="outside window"):
        check_admissibility(TRUNC, t_grid=[0.0, 1.5])
    with pytest.raises(DomainError, match="outside window"):
        check_admissibility(SHIFT, t_grid=[0.0, math.nan])

    class Edge(ShiftFamily):
        def __init__(self, db=0.0, dw=0.0, sign=1.0):
            super().__init__(SHIFT_BASE, window=(-0.5, 1.0))
            self.db, self.dw, self.sign = db, dw, sign

        def b_at(self, q):
            return super().b_at(q) + self.db

        def weights_at(self, q):
            return self.sign * super().weights_at(q) + self.dw

    with pytest.raises(DomainError, match="finite b"):
        check_admissibility(Edge(db=math.inf))
    for fam in (Edge(sign=-1.0), Edge(dw=math.inf), Edge(dw=math.nan)):
        with pytest.raises(DomainError, match="w >= 0"):
            check_admissibility(fam)


def test_reflected_report_root_finds_one_mirror_per_time(monkeypatch):
    # the default grid hook keeps one mirror root-find per positive time
    calls = []
    real = mechanism.brentq

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(mechanism, "brentq", counting)
    assert check_admissibility(REFL).passed
    assert len(calls) == 36


def test_require_critical_origin_builds_psi_0_once(monkeypatch):
    built = []
    real = AdmissibleFamily.psi_at
    monkeypatch.setattr(AdmissibleFamily, "psi_at", lambda self, q: built.append(q) or real(self, q))
    fam = ShiftFamily(SHIFT_BASE, window=(-0.5, 3.0))
    for _ in range(3):
        fam.require_critical_origin()
        exit_time_laws(fam, -0.3, -0.2, 1.0)
        tree_at_ascension(fam, -0.3, 1.0)
    assert built.count(0.0) == 1
    # a non-critical origin raises on every call, from the one psi_0 it built
    sub = ShiftFamily(Mechanism(0.3, 1.0, ()), window=(-1.0, 0.5))
    for _ in range(3):
        with pytest.raises(DomainError, match="need psi_0 critical, got psi_0 subcritical"):
            sub.require_critical_origin()
    assert built.count(0.0) == 2


# -- construction errors --------------------------------------------------------------------


def test_windows_must_contain_zero():
    with pytest.raises(DomainError):
        ShiftFamily(SHIFT_BASE, window=(0.5, 2.0))
    with pytest.raises(DomainError):
        LinearDriftFamily(1.0, 1.0, window=(-3.0, -1.0))


def test_shift_rejects_density_primitives():
    base = Mechanism(0.0, 1.0, (GammaDensity(1.5, 2.0, 0.3),))
    with pytest.raises(DomainError):
        ShiftFamily(base, window=(-1.0, 1.0))
    with pytest.raises(DomainError):
        TruncationFamily(base, h0=2.0, slope=1.0, window=(-1.0, 1.0))


def test_reflection_needs_critical_origin():
    with pytest.raises(DomainError, match="need psi_0 critical"):
        ReflectedFamily(ShiftFamily(Mechanism(0.3, 1.0, ()), window=(-1.0, 0.5)))


# -- serialization -----------------------------------------------------------------------


def test_family_json_roundtrip():
    for fam in (SHIFT, LD, LD_FIN, TRUNC, REFL):
        clone = family_from_dict(json.loads(json.dumps(fam.to_dict())))
        assert clone.to_dict() == fam.to_dict()
        assert clone.window == fam.window
        q = 0.5 * (max(fam.window[0], -2.0) + min(fam.window[1], 2.0))
        assert clone.psi_at(q).psi(1.7) == fam.psi_at(q).psi(1.7)


def _concrete_families(cls=AdmissibleFamily):
    """Concrete subclasses of cls that the package defines, at any depth."""
    for sub in cls.__subclasses__():
        if not inspect.isabstract(sub) and sub.__module__ == "levytree.family":
            yield sub
        yield from _concrete_families(sub)


def test_every_family_class_round_trips_through_json():
    examples = {type(fam): fam for fam in (SHIFT, LD, TRUNC, REFL)}
    assert set(_concrete_families()) == set(examples)
    for cls, fam in examples.items():
        clone = family_from_dict(json.loads(json.dumps(fam.to_dict())))
        assert type(clone) is cls and clone.to_dict() == fam.to_dict()


def test_left_closed_key_is_read_and_dropped():
    # family JSON written with the former left_closed flag still loads
    for d in (LD_FIN.to_dict(), SHIFT.to_dict(), TRUNC.to_dict()):
        fam = family_from_dict({**d, "left_closed": False})
        assert fam.to_dict() == d and "left_closed" not in d
    refl = family_from_dict({"type": "reflected", "negative": {**REFL_NEG.to_dict(), "left_closed": False}})
    assert "left_closed" not in refl.to_dict()["negative"]


def test_infinite_window_serializes_as_null():
    blob = json.loads(json.dumps(LD.to_dict()))
    assert blob["window"] == [None, None]


def test_unknown_family_type_rejected():
    with pytest.raises(DomainError):
        family_from_dict({"type": "mystery"})


# -- property tests over random shift families ------------------------------------------------


@st.composite
def shift_families(draw):
    n_atoms = draw(st.integers(min_value=0, max_value=2))
    atoms = tuple(
        PointMass(
            draw(st.floats(min_value=0.3, max_value=2.5)),
            draw(st.floats(min_value=0.05, max_value=1.5)),
        )
        for _ in range(n_atoms)
    )
    c = draw(st.floats(min_value=0.2, max_value=2.0))
    span = draw(st.floats(min_value=0.3, max_value=2.0))
    return ShiftFamily(Mechanism(0.0, c, atoms), window=(-span, span))


@given(shift_families(), st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_shift_kernel_identity_property(fam, lam):
    t0, t1 = fam.window
    t, q = t0 * 0.6, t1 * 0.8
    fm = np.array([s.unit_first_moment for s in fam.shapes])
    jump = float(np.sum(fm * (fam.weights_at(t) - fam.weights_at(q)))) if fm.size else 0.0
    assert fam.b_at(q) - fam.b_at(t) == pytest.approx(fam.alpha(t, q) + jump, rel=1e-10, abs=1e-10)
    assert fam.zeta(q, lam) >= -1e-12
    want = _fd_dpsi_dq(fam, 0.5 * q, lam)
    assert fam.zeta(0.5 * q, lam) == pytest.approx(want, rel=1e-5, abs=1e-7)


@given(shift_families())
@settings(max_examples=30, deadline=None)
def test_shift_cocycle_property(fam):
    if not fam.shapes:
        return
    t0, t1 = fam.window
    t, mid, q = 0.9 * t0, 0.1 * (t0 + t1), 0.9 * t1
    for i in range(len(fam.shapes)):
        lhs = fam.mz(t, q, i)
        rhs = fam.mz(t, mid, i) * fam.mz(mid, q, i)
        assert abs(lhs - rhs) < 1e-14
        assert 0.0 < fam.mz(t, q, i) <= math.exp(fam.shapes[i].z * (t1 + t1))
