"""Closed-form law oracles: frozen values, invariants, domain fences."""

import math

import numpy as np
import pytest

from levytree.family import LinearDriftFamily, ShiftFamily
from levytree.laws import (
    ExitTimeLaw,
    cond_sigma_laplace,
    exit_time_laws,
    sigma_laplace,
    sigma_laplace_Pr,
    size_bias_identity,
    special_markov_intensity,
    tree_at_ascension,
)
from levytree.mechanism import DomainError, Mechanism, PointMass

CRIT = Mechanism(0.0, 1.0)  # lam^2
SUB = Mechanism(1.0, 1.0)  # lam + lam^2
SUP = Mechanism(-1.0, 1.0)  # lam^2 - lam
LD = LinearDriftFamily(1.0, 1.0)
LDW = LinearDriftFamily(1.0, 1.0, window=(-1.0, 1.0))
JUMP_BASE = Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),))
SHIFT = ShiftFamily(JUMP_BASE, (-0.25, 3.0))

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ------------------------------------------------------------- sigma laplace


def test_sigma_laplace_quadratic_root():
    assert sigma_laplace(SUB, 1.0) == pytest.approx(GOLDEN, rel=1e-12)


def test_sigma_laplace_at_zero():
    assert sigma_laplace(SUB, 0.0) == 0.0
    assert sigma_laplace(CRIT, 0.0) == 0.0
    # supercritical defect at 0 is the mass of infinite trees
    assert sigma_laplace(SUP, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_sigma_laplace_rejects_negative():
    with pytest.raises(DomainError):
        sigma_laplace(SUB, -0.5)


def test_sigma_laplace_forest():
    assert sigma_laplace_Pr(SUB, 2.0, 1.0) == pytest.approx(
        math.exp(-2.0 * GOLDEN), rel=1e-12
    )
    assert sigma_laplace_Pr(SUB, 0.0, 3.0) == 1.0
    with pytest.raises(DomainError):
        sigma_laplace_Pr(SUB, -1.0, 1.0)


# --------------------------------------------------------- conditional sigma


def test_cond_sigma_laplace_value():
    # psi_0 = lam^2 inverts 1 to 1; psi_1(1) = 2
    got = cond_sigma_laplace(LD, 0.0, 1.0, 1.0, 1.0)
    assert got == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_cond_sigma_laplace_edges():
    assert cond_sigma_laplace(LD, 0.0, 1.0, 0.0, 5.0) == 1.0
    assert cond_sigma_laplace(LD, 1.0, 1.0, 2.0, 1.5) == pytest.approx(
        math.exp(-2.0 * 1.5), rel=1e-12
    )
    with pytest.raises(DomainError):
        cond_sigma_laplace(LD, 1.0, 0.5, 1.0, 1.0)


def test_cond_sigma_laplace_takes_an_array_of_masses():
    sig = np.array([0.0, 0.5, 1.0, 3.0])
    got = cond_sigma_laplace(LD, 0.0, 1.0, 1.0, sig)
    np.testing.assert_array_equal(got, [cond_sigma_laplace(LD, 0.0, 1.0, 1.0, x) for x in sig])
    assert got[2] == pytest.approx(math.exp(-2.0), rel=1e-12)
    with pytest.raises(DomainError):
        cond_sigma_laplace(LD, 0.0, 1.0, 1.0, np.array([1.0, -0.5]))


# ------------------------------------------------------------ ascension time


def test_eta_at_values():
    # the ascension tail N[A > q] is eta_q
    assert LD.eta_at(-0.5) == pytest.approx(0.5, abs=1e-12)
    assert LD.eta_at(0.3) == 0.0


def test_eta_at_vanishes_at_origin():
    assert abs(LD.eta_at(-1e-6)) <= 1e-3
    assert abs(SHIFT.eta_at(-1e-6)) <= 1e-3


def test_tree_at_ascension_value():
    # psi_{-1} = lam^2 - lam: eta = 1, slope there 1; inverse of 2 is 2, slope 3
    assert tree_at_ascension(LD, -1.0, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_tree_at_ascension_normalized():
    for q in (-0.1, -1.0, -3.0):
        assert tree_at_ascension(LD, q, 0.0) == 1.0


def test_tree_at_ascension_decreasing_to_zero():
    vals = [tree_at_ascension(LD, -1.0, lam) for lam in (0.5, 2.0, 10.0, 1e4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2


def test_tree_at_ascension_domain():
    with pytest.raises(DomainError):
        tree_at_ascension(LD, 0.5, 1.0)
    with pytest.raises(DomainError):
        tree_at_ascension(LDW, -2.0, 1.0)  # below the window
    subcritical_origin = ShiftFamily(Mechanism(1.0, 1.0), (-0.25, 1.0))
    with pytest.raises(DomainError, match="need psi_0 critical, got psi_0 subcritical"):
        tree_at_ascension(subcritical_origin, -0.1, 1.0)


# ---------------------------------------------------------------- exit times


def _pf_tail2(v):
    # integral_v^inf dr / (r^2 + r)^2 by partial fractions:
    # 1/(r(r+1))^2 = 1/r^2 + 1/(r+1)^2 - 2/r + 2/(r+1)
    return 1.0 / v + 1.0 / (v + 1.0) + 2.0 * math.log(v / (v + 1.0))


def test_exit_time_frozen_values():
    law = exit_time_laws(LD, -1.0, -0.5, math.log(2.0))
    assert isinstance(law, ExitTimeLaw)
    integral = 1.5 - 2.0 * math.log(2.0)
    assert integral == pytest.approx(0.11370563888010938, rel=1e-15)
    assert law.beyond == pytest.approx(0.6588830833596719, abs=1e-10)
    assert law.at_ascension == pytest.approx(0.22741127776021876, abs=1e-10)
    assert law.tail(1.0) == pytest.approx(1.0, rel=1e-10)


def test_exit_time_quadrature_matches_partial_fractions():
    # conjugate of psi_{-1} at eta = 1 is lam + lam^2, whose height tail is
    # v(h) = 1/(e^h - 1); both probabilities then have elementary forms
    for h in (0.1, 0.5, math.log(2.0), 2.0):
        v = 1.0 / math.expm1(h)
        shared = (v + v * v) * _pf_tail2(v)
        law = exit_time_laws(LD, -1.0, -0.5, h)
        assert law.at_ascension == pytest.approx(shared, rel=1e-9)
        assert law.beyond == pytest.approx(1.0 - 1.5 * shared, rel=1e-9)


def test_exit_time_complement_identity():
    q = -1.0
    law = exit_time_laws(LD, q, q + 1e-8, math.log(2.0))
    assert law.beyond + law.at_ascension == pytest.approx(1.0, abs=1e-6)


def test_exit_time_tail_is_height_tail():
    law = exit_time_laws(LD, -1.0, -0.5, 0.5)
    for qp in (0.5, 1.0, 2.0):
        mech = LD.psi_at(qp)
        assert law.tail(qp) == pytest.approx(mech.v_of(0.5), rel=1e-12)


def test_exit_time_domain():
    with pytest.raises(DomainError):
        exit_time_laws(LD, -0.5, -1.0, 1.0)  # q0 below q
    with pytest.raises(DomainError):
        exit_time_laws(LD, -1.0, 0.5, 1.0)  # q0 not negative
    with pytest.raises(DomainError):
        exit_time_laws(LD, -1.0, -0.5, 0.0)  # flat height
    supercritical_origin = ShiftFamily(Mechanism(-0.5, 1.0), (-0.25, 1.0))
    with pytest.raises(DomainError, match="need psi_0 critical, got psi_0 supercritical"):
        exit_time_laws(supercritical_origin, -0.2, -0.1, 1.0)


# ----------------------------------------------- size bias and reweighting


def test_size_bias_value():
    assert size_bias_identity(LD, 1.0, 0.0) == 1.0
    assert size_bias_identity(LD, 1.0, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_size_bias_decreasing_in_unit_interval():
    vals = [size_bias_identity(LD, 1.0, lam) for lam in (0.0, 0.3, 1.0, 4.0, 20.0)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_size_bias_needs_subcritical():
    with pytest.raises(DomainError):
        size_bias_identity(LD, 0.0, 1.0)
    with pytest.raises(DomainError):
        size_bias_identity(LD, -0.5, 1.0)


# ------------------------------------------------------ removal intensities


def test_special_markov_intensity_skeleton_only():
    # linear drift has no jumps: alpha(0,1) = 1 and v_0(0.5) = 2
    assert special_markov_intensity(LD, 0.0, 1.0, 0.5) == pytest.approx(
        2.0, rel=1e-12
    )


def test_special_markov_intensity_with_jumps():
    t, q, eps = 0.0, 1.0, 1.0
    v = SHIFT.psi_at(t).v_of(eps)
    # tilting leaves the quadratic part alone, so the skeleton rate is 2c;
    # the atom's weight decays as e^{-q} and the spent part feeds the nodes
    alpha = 2.0 * (q - t)
    node = (math.exp(-t) - math.exp(-q)) * (1.0 - math.exp(-v))
    want = alpha * v + node
    assert special_markov_intensity(SHIFT, t, q, eps) == pytest.approx(
        want, rel=1e-12
    )


def test_special_markov_intensity_domain():
    with pytest.raises(DomainError):
        special_markov_intensity(LD, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        special_markov_intensity(LD, 1.0, 0.0, 0.5)
