"""Family behavior against hand-derived oracles.

Closed forms used here are worked out independently of the implementation:
the shift family has w_i(q) = w_i e^{-z_i q} and b_q = b + 2cq +
sum w z (1 - e^{-zq}); the pure-drift family has psi_q = q*b_rate*lam +
c*lam^2 with eta_q = -q*b_rate/c.  A custom family is pointed at the same
data as a shift family so every quadrature-backed path can be compared to
an analytic twin.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levytree.family import (
    AdmissibilityReport,
    CustomFamily,
    LinearDriftFamily,
    ReflectedFamily,
    ShiftFamily,
    TruncationFamily,
    check_admissibility,
    family_from_dict,
)
from levytree.mechanism import DomainError, GammaDensity, Mechanism, PointMass

SHIFT_BASE = Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),))
SHIFT = ShiftFamily(SHIFT_BASE, window=(-0.5, 3.0))
LD = LinearDriftFamily(1.0, 1.0)
LD_FIN = LinearDriftFamily(1.0, 1.0, window=(-1.0, 1.0))
TRUNC_BASE = Mechanism(0.1, 0.8, (PointMass(0.6, 0.7), PointMass(1.5, 0.4)))
TRUNC = TruncationFamily(TRUNC_BASE, h0=2.0, slope=1.0, g_rate=0.3, window=(-1.0, 1.2))
REFL_NEG = ShiftFamily(Mechanism(0.0, 1.0, (PointMass(1.2, 0.5),)), window=(-0.8, 0.1))
REFL = ReflectedFamily(REFL_NEG)


def make_custom_shift_twin():
    # same data as ShiftFamily(Mechanism(0, 0.5, PointMass(1, 0.8)), (-1, 1))
    w0, z, c = 0.8, 1.0, 0.5
    b0 = 2.0 * c * -1.0 + w0 * z * (1.0 - math.exp(z))
    return CustomFamily(
        window=(-1.0, 1.0),
        c=c,
        b0=b0,
        beta=lambda q: 2.0 * c,
        shapes=(PointMass(z, 1.0),),
        weights=lambda q: [w0 * math.exp(-z * q)],
        weight_rates=lambda q: [z * w0 * math.exp(-z * q)],
    )


CUSTOM_TWIN = make_custom_shift_twin()
SHIFT_TWIN = ShiftFamily(Mechanism(0.0, 0.5, (PointMass(1.0, 0.8),)), window=(-1.0, 1.0))


def make_custom_quadratic():
    # b_q = q + q^2/4, c = 1: analytic alpha(t, q) = (q - t) + (q^2 - t^2)/4
    return CustomFamily(
        window=(-1.0, 1.0),
        c=1.0,
        b0=-0.75,
        beta=lambda q: 1.0 + 0.5 * q,
    )


CUSTOM_QUAD = make_custom_quadratic()


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
    for fam in (SHIFT, LD, TRUNC, REFL, CUSTOM_TWIN):
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
        (CUSTOM_TWIN, (-0.7, 0.1, 0.8)),
        (CUSTOM_QUAD, (-0.5, 0.3)),
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
    fam = CUSTOM_TWIN
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


def test_truncation_node_mark_time_is_the_drop_time():
    assert TRUNC.node_mark_time(0.0, 1.5, 0.37) == pytest.approx(0.5, rel=1e-14)
    assert TRUNC.node_mark_time(0.0, 0.6, 0.37) == math.inf  # drops at 1.4 > window end


# -- alpha ------------------------------------------------------------------------


def test_alpha_closed_forms():
    assert SHIFT.alpha(0.0, 1.5) == pytest.approx(3.0, rel=1e-14)
    assert LD.alpha(-1.0, 2.0) == pytest.approx(3.0, rel=1e-14)
    assert TRUNC.alpha(0.0, 1.0) == pytest.approx(0.3, rel=1e-14)


def test_alpha_additivity():
    for fam, (t, mid, q) in [
        (SHIFT, (-0.2, 0.9, 2.5)),
        (REFL, (-0.7, -0.1, 0.65)),
        (CUSTOM_TWIN, (-0.9, 0.05, 0.85)),
        (CUSTOM_QUAD, (-0.8, 0.2, 0.95)),
    ]:
        whole = fam.alpha(t, q)
        parts = fam.alpha(t, mid) + fam.alpha(mid, q)
        assert abs(whole - parts) < 1e-12


def test_custom_alpha_against_closed_form():
    for t, q in [(-1.0, 1.0), (-0.33, 0.87), (0.1, 0.1001)]:
        want = (q - t) + (q * q - t * t) / 4.0
        assert CUSTOM_QUAD.alpha(t, q) == pytest.approx(want, abs=1e-12)


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
        (CUSTOM_TWIN, (-0.95, 0.9)),
    ]:
        fm = np.array([s.unit_first_moment for s in fam.shapes])
        jump = float(np.sum(fm * (fam.weights_at(t) - fam.weights_at(q)))) if fm.size else 0.0
        lhs = fam.b_at(q) - fam.b_at(t)
        assert lhs == pytest.approx(fam.alpha(t, q) + jump, rel=1e-9, abs=1e-9)


def test_b_monotone_in_q():
    for fam in (SHIFT, LD, TRUNC, REFL, CUSTOM_QUAD):
        lo = max(fam.window[0], -3.0)
        hi = min(fam.window[1], 3.0)
        qs = np.linspace(lo, hi, 41)
        bs = [fam.b_at(q) for q in qs]
        assert np.all(np.diff(bs) >= -1e-12)


# -- mark times ---------------------------------------------------------------------


def test_mark_times_stay_in_slice():
    rng = np.random.default_rng(7)
    for fam, (t, q) in [(SHIFT, (0.2, 1.8)), (REFL, (-0.5, 0.5)), (CUSTOM_QUAD, (-0.9, 0.9))]:
        times = fam.mark_times(t, q, rng, 500)
        assert times.shape == (500,)
        assert np.all((times >= t) & (times <= q))


def test_mark_times_follow_the_drift_density():
    # density (1 + theta/2) / 2 on [-1, 1]: E[T] = (1/2) int t (1 + t/2) dt = 1/6
    rng = np.random.default_rng(11)
    times = CUSTOM_QUAD.mark_times(-1.0, 1.0, rng, 40000)
    se = times.std() / math.sqrt(len(times))
    assert abs(times.mean() - 1.0 / 6.0) < 4.0 * se


def test_mark_times_need_positive_alpha():
    fam = TruncationFamily(TRUNC_BASE, h0=2.0, slope=1.0, g_rate=0.0, window=(-1.0, 1.2))
    with pytest.raises(DomainError):
        fam.mark_times(0.0, 1.0, np.random.default_rng(0), 4)


# -- eta, t_infinity, qbar, gamma ----------------------------------------------------


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
    assert LD.t_infinity() == (-math.inf, False)
    assert LD_FIN.t_infinity() == (-1.0, True)
    assert SHIFT.t_infinity() == (-0.5, True)
    open_fam = LinearDriftFamily(1.0, 1.0, window=(-1.0, 1.0), left_closed=False)
    assert open_fam.t_infinity() == (-1.0, False)


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
    with pytest.raises(DomainError):
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
    q = -1.0
    want = 2.0 * (math.sqrt(1.75) - 1.0)  # b_qbar = -b_q for b_q = q + q^2/4
    got = CUSTOM_QUAD.qbar(q)
    assert got == pytest.approx(want, rel=1e-10)
    mech = CUSTOM_QUAD.psi_at(q)
    eta = CUSTOM_QUAD.eta_at(q)
    grid = np.linspace(0.1, 10.0, 40)
    gap = np.max(np.abs(CUSTOM_QUAD.psi_at(got).psi(grid) - mech.psi(eta + grid)))
    assert gap < 1e-9


def test_reflected_qbar_is_reflection():
    assert REFL.qbar(-0.6) == 0.6


def test_gamma_and_density_linear_drift():
    gamma, dens = LD.gamma_and_U_density(-1.0)
    assert gamma == pytest.approx(1.0, rel=1e-12)
    assert dens == pytest.approx(1.0, rel=1e-12)
    gamma, dens = LD.gamma_and_U_density(-0.35)
    assert gamma == pytest.approx(1.0, rel=1e-12)
    assert dens == pytest.approx(1.0, rel=1e-12)


def test_qbar_derivative_matches_gamma():
    for fam, t in [(LD, -0.8), (CUSTOM_QUAD, -0.6)]:
        gamma, _ = fam.gamma_and_U_density(t)
        h = 1e-6
        dqbar = (fam.qbar(t + h) - fam.qbar(t - h)) / (2.0 * h)
        want = -gamma / fam.dzeta_dlam(fam.qbar(t), 0.0)
        assert dqbar == pytest.approx(want, rel=1e-5)


# -- reflected family vs direct conjugation --------------------------------------------


def test_reflected_matches_conjugate_mechanism():
    grid = np.linspace(0.0, 8.0, 50)
    for q in (0.15, 0.4, 0.75):
        neg = REFL_NEG.psi_at(-q)
        eta = neg.eta
        direct = neg.psi(eta + grid)  # psi_q(lam) = psi_{-q}(eta + lam)
        got = REFL.psi_at(q).psi(grid)
        np.testing.assert_allclose(got, direct, rtol=1e-11, atol=1e-11)


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
    assert check_admissibility(CUSTOM_TWIN).passed


def test_negative_kernel_drift_rejected_at_construction():
    with pytest.raises(DomainError):
        LinearDriftFamily(-1.0, 1.0)
    with pytest.raises(DomainError):
        CustomFamily(window=(-1.0, 1.0), c=1.0, b0=0.0, beta=lambda q: -1.0)


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


def test_custom_family_needs_finite_window():
    with pytest.raises(DomainError):
        CustomFamily(window=(-math.inf, 1.0), c=1.0, b0=0.0, beta=lambda q: 1.0)


def test_reflection_needs_critical_origin():
    with pytest.raises(DomainError):
        ReflectedFamily(ShiftFamily(Mechanism(0.3, 1.0, ()), window=(-1.0, 0.5)))


# -- serialization -----------------------------------------------------------------------


def test_family_json_roundtrip():
    for fam in (SHIFT, LD, LD_FIN, TRUNC, REFL):
        clone = family_from_dict(json.loads(json.dumps(fam.to_dict())))
        assert clone.to_dict() == fam.to_dict()
        assert clone.window == fam.window
        q = 0.5 * (max(fam.window[0], -2.0) + min(fam.window[1], 2.0))
        assert clone.psi_at(q).psi(1.7) == fam.psi_at(q).psi(1.7)


def test_infinite_window_serializes_as_null():
    blob = json.loads(json.dumps(LD.to_dict()))
    assert blob["window"] == [None, None]


def test_custom_family_has_no_json_form():
    with pytest.raises(DomainError):
        CUSTOM_TWIN.to_dict()


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
