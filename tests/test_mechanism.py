"""Mechanism-level checks.

Expected values were computed independently of the implementation:
closed forms for quadratic mechanisms are worked out by hand (roots of
b*lam + c*lam^2 = y, v(a) = b/(c*(exp(a*b)-1)) etc.), and everything
involving jump primitives is cross-checked against mpmath quadrature
inside the test, so the package's own integrator is never its own
oracle.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levytree import mechanism
from levytree.mechanism import (
    DomainError,
    GammaDensity,
    Mechanism,
    NumericError,
    PointMass,
    _over_x,
    _tail_time_quad,
    brentq,
)

SQ = Mechanism(b=0.0, c=1.0)               # psi = lam^2
SUB = Mechanism(b=1.0, c=1.0)              # psi = lam + lam^2
SUPER = Mechanism(b=-1.0, c=1.0)           # psi = lam^2 - lam, eta = 1
MIXED = Mechanism(
    b=0.5,
    c=1.0,
    m=(PointMass(z=1.3, w=0.8), GammaDensity(k=1.5, rho=2.0, w=0.6)),
)
MIXED_SUPER = Mechanism(
    b=-2.0,
    c=0.7,
    m=(PointMass(z=0.9, w=1.1), GammaDensity(k=2.2, rho=1.7, w=0.4)),
)


def mp_psi(mech, lam):
    lam = mpmath.mpf(lam)
    out = mech.b * lam + mech.c * lam ** 2
    for p in mech.m:
        if isinstance(p, PointMass):
            out += p.w * (mpmath.exp(-lam * p.z) - 1 + lam * p.z)
        else:
            out += p.w * ((p.rho / (p.rho + lam)) ** p.k - 1 + p.k * lam / p.rho)
    return out


def mp_tail(mech, v, power=1):
    # direct mpmath quadrature over [v, inf); no shared code with the package
    return mpmath.quad(lambda r: 1 / mp_psi(mech, r) ** power, [v, mpmath.inf])


# ---------------------------------------------------------------- closed forms


def test_quadratic_frozen_values():
    # psi = lam^2: inverse sqrt(y), v(a) = 1/a, u(a, lam) = lam/(1+a*lam)
    assert SQ.psi_inverse(4.0) == pytest.approx(2.0, rel=1e-9)
    assert SQ.v_of(0.5) == pytest.approx(2.0, rel=1e-9)
    assert SQ.u_of(1.0, 1.0) == pytest.approx(0.5, rel=1e-9)
    # psi = lam + lam^2: v(a) = 1/(e^a - 1); psi_inverse(1) = (sqrt(5)-1)/2
    assert SUB.v_of(math.log(2.0)) == pytest.approx(1.0, rel=1e-9)
    assert SUB.psi_inverse(1.0) == pytest.approx((math.sqrt(5.0) - 1) / 2, rel=1e-9)


def test_quadratic_supercritical_values():
    # largest root of lam^2 - lam
    assert SUPER.eta == pytest.approx(1.0, rel=1e-12)
    # v(ln 2) = e^a/(e^a - 1) = 2
    assert SUPER.v_of(math.log(2.0)) == pytest.approx(2.0, rel=1e-9)
    # conjugate at eta: psi(1+lam) = lam + lam^2
    conj = SUPER.conjugate(1.0)
    assert conj.b == pytest.approx(1.0, rel=1e-12)
    assert conj.c == 1.0
    assert conj.psi(3.0) == pytest.approx(12.0, rel=1e-12)


def test_psi_values_and_derivatives():
    assert SQ.psi(3.0) == pytest.approx(9.0)
    assert SUB.psi(2.0) == pytest.approx(6.0)
    # derivative oracle by mpmath numerical differentiation
    for mech in (SUB, MIXED, MIXED_SUPER):
        for lam in (0.3, 1.0, 4.2):
            d1 = float(mpmath.diff(lambda x: mp_psi(mech, x), lam))
            d2 = float(mpmath.diff(lambda x: mp_psi(mech, x), lam, 2))
            assert mech.dpsi(lam) == pytest.approx(d1, rel=1e-8)
            assert mech.d2psi(lam) == pytest.approx(d2, rel=1e-7)
    assert MIXED.dpsi(0.0) == pytest.approx(MIXED.b, rel=1e-12)


def test_subnormal_drift_takes_the_critical_limit():
    # a*b underflows to 0 here; the closed forms used to divide by it
    tiny = Mechanism(b=5e-324, c=1.0)
    assert tiny.v_of(0.5) == pytest.approx(SQ.v_of(0.5), rel=1e-15)
    assert tiny.u_of(0.5, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert tiny.tail_time(3.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    for b in (1e-10, -1e-10, 1e-300):
        near = Mechanism(b=b, c=1.0)
        assert near.v_of(0.5) == pytest.approx(2.0, rel=1e-9)
        assert near.tail_time(near.v_of(0.5)) == pytest.approx(0.5, rel=1e-12)
        assert near.u_of(0.5, 2.0) == pytest.approx(1.0, rel=1e-9)


def test_psi_small_lambda_cancellation():
    # term is O(lam^2) near 0; naive evaluation loses all digits
    lam = 1e-8
    got = MIXED.psi(lam)
    want = float(mp_psi(MIXED, mpmath.mpf(lam)))
    assert got == pytest.approx(want, rel=1e-6)
    assert got > 0


@pytest.mark.parametrize("prim", [PointMass(1.0, 1.0), GammaDensity(1.5, 2.0, 0.6)])
@pytest.mark.parametrize("lam", [1e-20, 1e-12, 1e-8, 9.99e-4, 1e-3, 0.01])
def test_jump_terms_keep_their_second_order(prim, lam):
    # the series below |y| = 1e-3 and the direct form above it both keep the
    # lam^2 term that expm1(-lam z) + lam z cancels to nothing at small lam
    mech = Mechanism(0.0, 1.0, (prim,))
    with mpmath.workdps(80):
        want = float(mp_psi(mech, mpmath.mpf(lam)))
        wants = [float(mp_psi(mech, mpmath.mpf(x))) for x in (lam, 2.0 * lam)]
    assert mech.psi(lam) == pytest.approx(want, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(mech.psi(np.array([lam, 2.0 * lam])), wants, rtol=1e-12, atol=0.0)


def test_tiny_roots_see_the_jumps():
    # psi = b lam + (c + w z^2 / 2) lam^2 + O(lam^3) near a root of 1e-25
    mech = Mechanism(-3.4e-25, 1.0, (PointMass(1.0, 1.0),))
    assert mech.eta == pytest.approx(3.4e-25 / 1.5, rel=1e-12, abs=0.0)
    # a flow of psi'(eta) = 3.4e-25 over a = 1 moves eta / 2 by no float
    assert mech.u_of(1.0, mech.eta / 2.0) == mech.eta / 2.0
    # psi subnormal at its root: bracketed, not raised
    deep = Mechanism(-8.75e-163, 0.7, (PointMass(2.77, 1.21), PointMass(1.51, 1.24)))
    assert 0.0 < deep.eta <= 8.75e-163 / 0.7
    assert deep.u_of(1.0, deep.eta / 2.0) == deep.eta / 2.0
    # a root of 6.7e-14, where the flow of lam = eta / 1000 moves its chart
    # coordinate by less than a float from the first guess: the quadratic
    # psi of the same second order, in closed form, to the O(lam z) left out
    near = Mechanism(-1e-13, 1.0, (PointMass(1.0, 1.0),))
    lam = near.eta / 1000.0
    assert near.u_of(1.0, lam) == pytest.approx(Mechanism(-1e-13, 1.5).u_of(1.0, lam), rel=1e-9)


# ------------------------------------------------------- quadrature vs oracle


def test_tail_time_against_mpmath():
    for mech in (MIXED, MIXED_SUPER):
        eta = mech.eta
        for v in (eta + 0.05, eta + 0.8, eta + 4.0, eta + 60.0):
            want = float(mp_tail(mech, v))
            assert mech.tail_time(v) == pytest.approx(want, rel=1e-9)


def test_tail_time_just_above_eta():
    # psi(eta + x) cancels to psi'(eta) x plus the rounding of psi(eta); the
    # near chart reads the conjugate at eta, which has no such floor, and
    # converges without a quadrature warning, which pytest turns into an error
    mech = MIXED_SUPER
    eta = mech.eta
    for d in (1e-8, 1e-10, 1e-11):
        x0 = (eta + d) - eta
        with mpmath.workdps(30):
            root = mp_psi(mech, eta)
            near = lambda s: mpmath.exp(s) / (mp_psi(mech, eta + mpmath.exp(s)) - root)
            far = lambda x: 1 / (mp_psi(mech, eta + x) - root)
            want = mpmath.quad(near, [mpmath.log(x0), 0]) + mpmath.quad(far, [1, mpmath.inf])
        assert mech.tail_time(eta + d) == pytest.approx(float(want), rel=1e-12)
    u = mech.u_of(0.5, eta + 1e-8)
    assert eta < u < eta + 1e-8
    assert mech.tail_time(u) - mech.tail_time(eta + 1e-8) == pytest.approx(0.5, rel=1e-7)


def test_tail_time_power2_against_mpmath():
    for mech in (SUB, MIXED):
        for v in (0.4, 1.0, 7.0):
            want = float(mp_tail(mech, v, power=2))
            assert mech.tail_time(v, power=2) == pytest.approx(want, rel=1e-9)


def test_quadrature_path_matches_closed_form():
    # the generic split quadrature must agree with the quadratic closed forms
    for mech in (SQ, SUB, SUPER):
        for v in (mech.eta + 0.2, mech.eta + 3.0):
            assert _tail_time_quad(mech, v, 1) == pytest.approx(
                mech.tail_time(v), rel=1e-10
            )


def test_v_of_against_mpmath():
    for mech in (MIXED, MIXED_SUPER):
        for a in (0.1, 0.7, 3.0):
            v = mech.v_of(a)
            assert float(mp_tail(mech, v)) == pytest.approx(a, rel=1e-9)


def test_u_of_against_mpmath():
    mech = MIXED
    for a, lam in ((0.3, 2.0), (1.1, 0.4), (2.0, 9.0)):
        u = mech.u_of(a, lam)
        got = float(mpmath.quad(lambda r: 1 / mp_psi(mech, r), [u, lam]))
        assert got == pytest.approx(a, rel=1e-8)


def test_u_of_below_root_supercritical():
    # for lam below the largest root the flow moves up toward it
    mech = MIXED_SUPER
    eta = mech.eta
    lam = 0.3 * eta
    u = mech.u_of(0.8, lam)
    assert lam < u < eta
    got = float(mpmath.quad(lambda r: 1 / mp_psi(mech, r), [u, lam]))
    assert got == pytest.approx(0.8, rel=1e-8)


def test_eta_mixed_supercritical():
    eta = MIXED_SUPER.eta
    assert MIXED_SUPER.psi(eta) == pytest.approx(0.0, abs=1e-11)
    assert eta > 0
    # independent root via mpmath
    root = float(mpmath.findroot(lambda x: mp_psi(MIXED_SUPER, x), 2.0))
    assert eta == pytest.approx(root, rel=1e-10)


def test_eta_at_a_tiny_negative_drift():
    # psi values near a root of 1.9e-130 are about 1e-260, and their
    # products underflow inside brentq unless it sees them scaled
    mech = Mechanism(b=-3.8424268759994057e-131, c=0.2)
    assert mech.eta == pytest.approx(-mech.b / mech.c, rel=1e-15)
    assert mech.v_of(1.0) > mech.eta


@pytest.mark.parametrize("b, c, ys", [
    (1.0, 1.0, (1e-12, 1e-10, 1e-6, 0.5, 50.0)),
    (0.3, 2.5, (1e-12, 1e-10, 1e-6, 0.5, 50.0)),
    (40.0, 0.01, (1e-12, 1e-10, 1e-6, 0.5, 50.0)),
    (-1.0, 1.0, (-1e-12, -1e-6, -0.1, -0.2)),  # minimum -1/4
    (-0.7, 0.4, (-1e-10, -0.05, -0.2)),  # minimum -0.30625
])
def test_quadratic_psi_inverse_against_mpmath(b, c, ys):
    # the larger root of c lam^2 + b lam = y to 4e-16: -b + sqrt(b^2 + 4cy)
    # cancels as y -> 0 when b > 0, and no branch of it may
    mech = Mechanism(b, c)
    with mpmath.workdps(50):
        B, C = mpmath.mpf(b), mpmath.mpf(c)
        for y in ys:
            want = (-B + mpmath.sqrt(B * B + 4 * C * mpmath.mpf(y))) / (2 * C)
            got = mech.psi_inverse(y)
            assert type(got) is float and abs(got - want) <= 4e-16 * want, y
    if b < 0:
        with pytest.raises(DomainError, match="below the minimum"):
            mech.psi_inverse(-b * b / (4.0 * c) * 1.001)


def test_quadratic_psi_inverse_near_the_float_maximum():
    # 2y overflows here, but not the root sqrt(y / c) = 1e154 * sqrt(10)
    got = Mechanism(1.0, 0.1).psi_inverse(1e308)
    assert got == pytest.approx(1e154 * math.sqrt(10.0), rel=1e-15)
    # where b^2 + 4cy overflows, a typed error rather than inf, nan or 0
    for b, c, y in ((1e200, 1.0, 1.0), (1.0, 1.0, 1e308), (-1e200, 1.0, -1.0)):
        with pytest.raises(NumericError, match="overflows"):
            Mechanism(b, c).psi_inverse(y)


@pytest.mark.parametrize("b", [0.5, 1.0, 3.0])
def test_quadratic_flows_past_the_exp_range_against_mpmath(b):
    # v = b / (c (e^{ab} - 1)) and u = x b / (e^{ab} (b + c x) - c x): e^{ab}
    # overflows past ab = 709.78, and the values fall below the normal range
    # near there; the exact a and b are the floats, whose product rounds
    mech, lam = Mechanism(b, 1.0), 1.0
    with mpmath.workdps(50):
        for ab in (709.0, 709.78, 709.8, 710.0, 745.0, 1000.0, 1e300):
            a = ab / b
            e = mpmath.exp(mpmath.mpf(a) * b)
            for got, want in ((mech.v_of(a), b / (e - 1)),
                              (mech.u_of(a, lam), lam * b / (e * (b + lam) - lam))):
                assert type(got) is float
                if want >= np.finfo(float).tiny:
                    assert abs(got - want) <= 1e-12 * want, (ab, got)
                elif want > mpmath.mpf(2) ** -1075:  # subnormal: 2 ulps of 2^-1074
                    assert abs(got - want) <= 2 * 5e-324, (ab, got)
                else:  # rounds to 0
                    assert got == 0.0, (ab, got)


def test_jump_flows_past_the_exp_range_raise_no_overflow():
    # the same closed forms are first guesses here: no OverflowError or
    # ValueError from them, a value or a NumericError from the chart
    mech = Mechanism(1.0, 1.0, (PointMass(1.0, 1.0),))
    for call in (lambda: mech.v_of(710.0), lambda: mech.u_of(710.0, 1.0),
                 lambda: mech.u_of(700.0, 1e-20)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = call()
            except NumericError:
                continue
        assert 0.0 <= got < 1e-300


def test_charts_warn_nothing_where_psi_underflows():
    # psi(e^s) of a critical mechanism underflows to 0 once v < 1e-154 or so:
    # a NumericError, not a numpy warning (an error under -W error)
    mech = Mechanism(0.0, 1.0, (PointMass(1.0, 1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: mech.v_of(2.5e299), lambda: mech.tail_time(1e-200),
                     lambda: mech.u_of(2.5e299, 1.0)):
            with pytest.raises(NumericError):
                call()


def test_psi_inverse_roundtrip_mixed():
    for y in (0.0, 0.3, 5.0, 400.0):
        lam = MIXED.psi_inverse(y)
        assert MIXED.psi(lam) == pytest.approx(y, abs=1e-9 * max(1.0, y))
    assert MIXED_SUPER.psi_inverse(0.0) == pytest.approx(MIXED_SUPER.eta, rel=1e-12)


# ----------------------------------------------------------- flow and limits


def test_flow_composition_spot():
    for mech in (SQ, SUB, MIXED, MIXED_SUPER):
        for a, ap, lam in ((0.4, 0.9, 2.0), (1.5, 0.2, 0.7)):
            lhs = mech.u_of(a, mech.u_of(ap, lam))
            rhs = mech.u_of(a + ap, lam)
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_u_large_lambda_approaches_v():
    # relative gap at finite lam is psi(v)/(v*c*lam); points below keep
    # that coefficient under 1 so the 1e-6 budget at lam=1e6 is attainable
    for mech in (SQ, MIXED):
        for a in (2.0, 3.0, 5.0):
            v = mech.v_of(a)
            assert mech.psi(v) / (v * mech.c) < 1.0
            assert abs(mech.u_of(a, 1e6) - v) / v < 1e-6


def test_v_and_u_return_float():
    for mech in (SQ, SUPER, MIXED, MIXED_SUPER):
        eta = mech.eta
        for a in (0.5, np.float64(0.5)):
            assert type(mech.v_of(a)) is float
            for lam in (0.0, eta, eta + 1.0, np.float64(eta + 2.0), 0.5 * eta):
                assert type(mech.u_of(a, lam)) is float


def test_u_fixed_points():
    assert SUB.u_of(2.0, 0.0) == 0.0
    assert SUPER.u_of(2.0, SUPER.eta) == pytest.approx(SUPER.eta, rel=1e-12)


def test_u_fixed_point_band_is_relative_to_eta():
    # psi(eta + x) = bt x + c x^2 with bt = psi'(eta) = 1e-20: the flow moves
    # lam = eta / 2 by the closed form bt x e^{-bt a} / (bt + c x (1 - e^{-bt a}))
    mech, a = Mechanism(-1e-20, 1.0), 1.0
    eta, bt = mech.eta, mech.dpsi(mech.eta)
    x = -eta / 2.0
    want = eta + bt * x * math.exp(-bt * a) / (bt - mech.c * x * math.expm1(-bt * a))
    assert want == pytest.approx(5e-21, rel=1e-9, abs=0.0)
    assert mech.u_of(a, eta / 2.0) == pytest.approx(want, rel=1e-9, abs=0.0)
    assert mech.u_of(a, eta * (1.0 + 1e-13)) == eta


def test_dv_da_equals_minus_psi_spot():
    for mech in (SUB, MIXED):
        for a in (0.3, 1.2):
            h = 1e-6
            fd = (mech.v_of(a + h) - mech.v_of(a - h)) / (2 * h)
            assert fd == pytest.approx(-mech.psi(mech.v_of(a)), rel=1e-5)


# ------------------------------------------------------------------ hypothesis

mech_strategy = st.builds(
    Mechanism,
    b=st.floats(-1.5, 2.0),
    c=st.floats(0.2, 2.5),
    m=st.lists(
        st.one_of(
            st.builds(
                PointMass,
                z=st.floats(0.3, 2.5),
                w=st.floats(0.05, 1.5),
            ),
            st.builds(
                GammaDensity,
                k=st.floats(0.6, 3.0),
                rho=st.floats(0.7, 3.0),
                w=st.floats(0.05, 1.0),
            ),
        ),
        max_size=2,
    ).map(tuple),
)


@settings(max_examples=60, deadline=None)
@given(mech=mech_strategy, lam=st.floats(0.01, 20.0))
def test_psi_convex_increasing_past_root(mech, lam):
    assert mech.d2psi(lam) > 0
    x = mech.eta + lam
    assert mech.psi(x) >= -1e-12
    assert mech.dpsi(x) > 0


@settings(max_examples=40, deadline=None)
@given(mech=mech_strategy, y=st.floats(0.001, 50.0))
def test_psi_inverse_roundtrip(mech, y):
    lam = mech.psi_inverse(y)
    assert mech.psi(lam) == pytest.approx(y, rel=1e-8, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(mech=mech_strategy, a=st.floats(0.05, 3.0))
def test_v_solves_tail_equation(mech, a):
    v = mech.v_of(a)
    assert v > mech.eta
    assert mech.tail_time(v) == pytest.approx(a, rel=1e-8)


@settings(max_examples=30, deadline=None)
@given(
    mech=mech_strategy,
    a=st.floats(0.05, 2.0),
    ap=st.floats(0.05, 2.0),
    lam=st.floats(0.05, 8.0),
)
def test_flow_property(mech, a, ap, lam):
    lhs = mech.u_of(a, mech.u_of(ap, lam))
    rhs = mech.u_of(a + ap, lam)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(mech=mech_strategy, theta=st.floats(0.0, 2.0), lam=st.floats(0.0, 6.0))
def test_conjugate_identity(mech, theta, lam):
    conj = mech.conjugate(theta)
    assert conj.psi(lam) == pytest.approx(
        mech.psi(theta + lam) - mech.psi(theta), rel=1e-10, abs=1e-10
    )


# -------------------------------------------------------------- housekeeping


def test_criticality_classification():
    assert SUB.criticality() == "subcritical"
    assert SQ.criticality() == "critical"
    assert SUPER.criticality() == "supercritical"
    assert MIXED_SUPER.criticality() == "supercritical"


def test_grey_gate():
    thin = Mechanism(b=1.0, c=0.0, m=(PointMass(z=1.0, w=0.5),))
    assert not thin.is_grey
    assert SQ.is_grey
    with pytest.raises(DomainError):
        thin.v_of(1.0)
    with pytest.raises(DomainError):
        thin.u_of(1.0, 2.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        SQ.v_of(0.0)
    with pytest.raises(DomainError):
        SQ.v_of(-1.0)
    with pytest.raises(DomainError):
        SUB.psi_inverse(-0.5)
    with pytest.raises(DomainError):
        SQ.tail_time(-0.1)
    with pytest.raises(DomainError):
        Mechanism(b=0.0, c=-1.0)
    with pytest.raises(DomainError):
        Mechanism(b=0.0, c=1.0, m=(PointMass(z=-1.0, w=1.0),))


GAMMA_ONLY = Mechanism(0.5, 1.0, (GammaDensity(1.5, 2.0, 0.6),))


# the formula reads NaN (psi, dpsi), a complex power (d2psi at -2.5) and a
# division by zero (d2psi at -rho) there
@pytest.mark.parametrize("method, lam", [
    ("psi", -2.5), ("dpsi", -2.5), ("d2psi", -2.5), ("d2psi", -2.0),
    ("psi", -2.0), ("dpsi", -2.0),
])
def test_gamma_terms_reject_lam_at_or_below_minus_rho(method, lam):
    fn = getattr(GAMMA_ONLY, method)
    with pytest.raises(DomainError, match="lam > -rho"):
        fn(lam)
    with pytest.raises(DomainError, match="lam > -rho"):
        fn(np.array([0.5, lam, 1.0]))


def test_gamma_primitive_methods_share_the_domain():
    prim = GAMMA_ONLY.m[0]
    inside = math.nextafter(-2.0, 0.0)
    for name in ("term", "dterm", "d2term", "unit_laplace_defect"):
        fn = getattr(prim, name)
        for lam in (-2.0, -2.5, -math.inf, np.array([1.0, -2.0])):
            with pytest.raises(DomainError):
                fn(lam)
        assert np.isfinite(fn(inside)) and np.isfinite(fn(np.array([inside, 3.0]))).all()
    assert math.isnan(GAMMA_ONLY.psi(math.nan))


JUMP_PRIMITIVES = [PointMass(1.3, 0.8), PointMass(0.02, 2.0),
                   GammaDensity(1.5, 2.0, 0.6), GammaDensity(0.4, 0.3, 1.7)]


@pytest.mark.parametrize("prim", JUMP_PRIMITIVES, ids=repr)
def test_scalar_and_array_paths_agree_bit_for_bit(prim):
    # floats skip the array wrapping that arrays take: the same bits either way,
    # across the series bound and out to large lam
    sb = prim.series_below
    low = -0.5 * prim.rho if isinstance(prim, GammaDensity) else -0.5
    lams = np.concatenate([sb * np.array([-0.9, -1e-3, 0.0, 1e-6, 0.5, 0.999, 1.001, 2.0]),
                           [low, 0.3, 1.0, 7.5, 40.0, 1e3, 1e6]])
    small = np.abs(lams) < sb
    for name in ("term", "small_term", "dterm", "unit_laplace_defect"):
        fn = getattr(prim, name)
        xs = lams[small] if name == "small_term" else lams
        arr = fn(xs)
        assert arr.shape == xs.shape
        for x, want in zip(xs.tolist(), arr.tolist()):
            assert float(fn(x)).hex() == want.hex(), (name, x)


def test_psi_inverse_negative_supercritical():
    # between the dip minimum and the root there is a largest solution
    mech = SUPER  # min at lam=1/2, value -1/4
    lam = mech.psi_inverse(-0.1)
    assert 0.5 < lam < 1.0
    assert mech.psi(lam) == pytest.approx(-0.1, abs=1e-10)
    with pytest.raises(DomainError):
        mech.psi_inverse(-0.3)


def test_conjugate_gamma_rate_shift():
    conj = MIXED.conjugate(0.5)
    gammas = [p for p in conj.m if isinstance(p, GammaDensity)]
    assert gammas and gammas[0].rho == pytest.approx(2.5)
    with pytest.raises(DomainError):
        MIXED.conjugate(-2.5)  # would need rho + theta > 0


def test_serialization_roundtrip():
    for mech in (SQ, MIXED, MIXED_SUPER):
        again = Mechanism.from_dict(mech.to_dict())
        assert again == mech
    d = MIXED.to_dict()
    assert d["m"][0]["type"] == "point"
    assert Mechanism.from_dict({**d, "m": d["m"] + [{"type": "point", "z": 2.0, "w": 0.0}]}) == MIXED
    with pytest.raises(DomainError):
        Mechanism.from_dict({**d, "m": [{"type": "point", "z": -1.0, "w": 0.0}]})
    assert d["m"][1]["type"] == "gamma"


def test_vectorized_psi():
    lam = np.array([0.0, 0.5, 2.0])
    out = MIXED.psi(lam)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(0.0, abs=1e-15)
    assert out[2] == pytest.approx(float(mp_psi(MIXED, 2.0)), rel=1e-12)


# ------------------------------------------- Newton inversion vs the old one


QUADPACK = dict(epsabs=1e-13, epsrel=1e-12, limit=400)


def quad_reference(f, lo, hi):
    from scipy import integrate

    return integrate.quad(f, lo, hi, **QUADPACK)[0]


def brentq_reference(f, lo, hi):
    from scipy import optimize

    try:
        return optimize.brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
    except (ValueError, RuntimeError) as err:
        raise NumericError(str(err)) from err


def tail_time_reference(mech, v):
    """integral_v^inf dr/psi(r) by quadpack, split as the package splits it:
    r = eta + e^s below lam_big on the conjugate at eta, r = 1/x above."""
    eta = mech.eta
    lam_big = max(2.0 * eta + 1.0, 10.0)
    far = lambda x: 1.0 / (x * x * mech.psi(1.0 / x))
    if v >= lam_big:
        return quad_reference(far, 0.0, 1.0 / v)
    root = mech.conjugate(eta)
    near = lambda s: math.exp(s) / root.psi(math.exp(s))
    return (quad_reference(near, math.log(v - eta), math.log(lam_big - eta))
            + quad_reference(far, 0.0, 1.0 / lam_big))


def invert_tail_reference(mech, a, lam=math.inf):
    """v_of(a) (lam = inf) or u_of(a, lam) of a jump mechanism by the solver
    the Newton one replaced: a bracket stepped by whole tail quadratures,
    brentq over them, then up to three polishing steps.  Its quadrature and
    root-finder are scipy's, quadpack and brentq, not the package's."""
    eta = mech.eta
    if abs(lam - eta) <= 1e-12 * eta:  # u_of's fixed points
        return eta
    if lam < eta and math.log(eta - lam) - a * mech.dpsi(eta) == math.log(eta - lam):
        return lam  # a flow shorter than the chart resolves, as u_of reads it
    if lam < eta:  # chart r = eta - e^t
        g = lambda t: math.exp(t) / (-mech.psi(eta - math.exp(t)))
        t_lam = math.log(eta - lam)
        f = lambda t: quad_reference(g, t, t_lam) - a
        lo = t_lam - 1.0
        for _ in range(800):
            if f(lo) >= 0:
                break
            lo -= 1.0
        else:
            raise NumericError("failed to bracket u below the root")
        u = eta - math.exp(brentq_reference(f, lo, t_lam))
        for _ in range(3):
            step = -f(math.log(eta - u)) * abs(mech.psi(u))
            if lam < u + step < eta:
                u += step
            if abs(step) <= 1e-14 * max(u, 1e-30):
                break
        return u
    target = a if lam == math.inf else a + tail_time_reference(mech, lam)
    proxy = 1.0 / (mech.c * target * _over_x(math.expm1, target * mech.b))
    f = lambda s: tail_time_reference(mech, eta + math.exp(s)) - target
    lo = hi = math.log(max(proxy - eta, proxy * 1e-3, 1e-290))
    flo = fhi = f(lo)
    for _ in range(800):
        if flo > 0:
            break
        lo -= 1.0
        if eta + math.exp(lo) == eta:
            return eta  # u is within eta's float resolution, as u_of reads it
        flo = f(lo)
    for _ in range(800):
        if fhi < 0:
            break
        hi += 1.0
        fhi = f(hi)
    if not (flo > 0 > fhi):
        raise NumericError("failed to bracket the tail-time inverse")
    v = eta + math.exp(brentq_reference(f, lo, hi))
    for _ in range(3):
        step = (tail_time_reference(mech, v) - target) * mech.psi(v)
        if eta < v + step:
            v += step
        if abs(step) <= 1e-14 * v:
            break
    return v


def reference_or_none(mech, a, lam):
    # the reference warns and fails near eta, where its integrand cancels
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return invert_tail_reference(mech, a, lam)
        except (DomainError, NumericError):
            return None


jump_mech_strategy = st.builds(
    Mechanism,
    b=st.floats(-3.0, 3.0),
    c=st.floats(0.05, 3.0),
    m=st.lists(
        st.one_of(
            st.builds(PointMass, z=st.floats(0.05, 3.0), w=st.floats(0.01, 2.0)),
            st.builds(
                GammaDensity,
                k=st.floats(0.3, 3.0),
                rho=st.floats(0.3, 3.0),
                w=st.floats(0.01, 2.0),
            ),
        ),
        min_size=1,
        max_size=2,
    ).map(tuple),
)


@st.composite
def inversion_cases(draw):
    mech = draw(jump_mech_strategy)
    a = 10.0 ** draw(st.floats(-3.0, math.log10(20.0)))
    eta = mech.eta
    if eta > 0 and draw(st.booleans()):
        return mech, a, eta * draw(st.floats(0.05, 0.95))
    return mech, a, eta + 10.0 ** draw(st.floats(-3.0, 2.0))


NEAR_ROOT = Mechanism(-0.7, 0.5, (PointMass(1.0, 1.0), PointMass(0.4, 2.0)))
ONE_ATOM_SUPER = Mechanism(-3.0, 1.0, (PointMass(1.0, 1.0),))


@settings(max_examples=80, deadline=None)
@given(case=inversion_cases())
# u lies within 1e-5 of eta in the first two; in the first, a psi(eta + e^s)
# integrand that does not use the conjugate warns, and so does the reference;
# in the third, u - eta is about 2e-21 (a psi'(eta) is about 47.5), so u
# rounds to eta, and the reference's bracket must not step below eta's ulp
@example(case=(MIXED_SUPER, 4.0, MIXED_SUPER.eta + 1e-3))
@example(case=(NEAR_ROOT, 17.59, 1.925))
@example(case=(ONE_ATOM_SUPER, 17.78279410038923, 3.3811426857181446))
def test_inversion_matches_bracket_reference(case):
    mech, a, lam = case
    eta = mech.eta
    for got, ref_lam in ((mech.v_of(a), math.inf), (mech.u_of(a, lam), lam)):
        assert type(got) is float
        want = reference_or_none(mech, a, ref_lam)
        if want is None:
            continue
        # 1e-12 relative in the root or in the time F it inverts, as
        # dF = du / |psi(u)|: where a psi'(eta) is large, a quadrature's last
        # digits move the root by more (by mpmath the reference's v is 1.6e-12
        # off at b = 1.718, c = 0.2445, a = 14.16)
        time = a + (mech.tail_time(lam) if eta < ref_lam < math.inf else 0.0)
        assert abs(got - want) <= 1e-12 * max(abs(want), time * abs(mech.psi(want)))


def test_inversion_makes_few_quadratures(monkeypatch):
    # invert_tail_reference's bracket search makes 10-22 per v_of on MIXED here
    calls = []
    real = mechanism._quad
    monkeypatch.setattr(mechanism, "_quad", lambda *args: calls.append(args) or real(*args))
    for mech in (MIXED, MIXED_SUPER):
        eta = mech.eta
        lams = [lam for lam in (0.2 * eta, 0.9 * eta, eta + 1e-3, eta + 1.0, 9.0, 100.0) if lam > 0]
        for a in (1e-3, 0.05, 0.5, 2.0, 8.0, 20.0):
            for lam in [None] + lams:
                calls.clear()
                mech.v_of(a) if lam is None else mech.u_of(a, lam)
                assert len(calls) <= 8, (mech, a, lam, len(calls))


# ------------------------------------------ the package's brentq and quadrature


def _brentq_cases():
    """(f, lo, hi, xtol, rtol): random brackets of smooth functions, and of psi
    at a supercritical root, at the tolerances the package passes."""
    rng = np.random.default_rng(20261021)
    cases = []
    for i in range(2400):
        root, lo, hi = rng.uniform(-5, 5), rng.uniform(1e-6, 4), rng.uniform(1e-6, 4)
        a, p, s = rng.uniform(0.1, 3), rng.uniform(-1, 1), 10.0 ** rng.uniform(-200, 200)
        kind = i % 4
        if kind == 0:  # cubic with one real root
            f = lambda x, r=root, a=a, p=p, s=s: s * (x - r) * ((x - p) ** 2 + a)
        elif kind == 1:  # steep near the root: extrapolation steps
            f = lambda x, r=root, a=a: math.tanh(a * (x - r)) + 0.3 * (x - r) ** 3
        elif kind == 2:  # flat on one side: bisection steps
            f = lambda x, r=root, a=a: math.expm1(a * (x - r)) if x > r else (x - r) ** 3
        else:  # psi of a supercritical jump mechanism around its root
            mech = Mechanism(-a, rng.uniform(0.05, 2),
                             (PointMass(rng.uniform(0.1, 3), rng.uniform(0.1, 2)),
                              GammaDensity(rng.uniform(0.3, 3), rng.uniform(0.3, 3),
                                           rng.uniform(0.1, 2))))
            f, root = mech.psi, a / mech.c
            lo, hi = root * 1e-3 / (1 + lo), root * (2 + hi)
        xtol, rtol = ((1e-300, 8.9e-16), (1e-14, 8.881784197001252e-16))[i // 4 % 2]
        cases.append((f, root - lo if kind < 3 else lo, root + hi if kind < 3 else hi,
                      xtol, rtol))
    return cases


def test_brentq_is_scipys_to_the_bit():
    from scipy import optimize

    compared = 0
    for f, lo, hi, xtol, rtol in _brentq_cases():
        try:
            want = optimize.brentq(f, lo, hi, xtol=xtol, rtol=rtol)
        except (ValueError, RuntimeError):  # one sign on the bracket, or 100 steps
            with pytest.raises(NumericError):
                brentq(f, lo, hi, xtol=xtol, rtol=rtol)
            continue
        assert brentq(f, lo, hi, xtol=xtol, rtol=rtol).hex() == want.hex(), (lo, hi, xtol)
        compared += 1
    assert compared >= 2000, compared


@pytest.mark.parametrize("f, lo, hi", [
    (lambda x: math.nan, 0.0, 1.0),
    (lambda x: x - 0.5 if x < 0.9 else math.nan, 0.0, 1.0),
    (lambda x: x * x + 1.0, -1.0, 1.0),
    (lambda x: -1e-200, 0.0, 1.0),
], ids=["nan", "nan_inside", "same_sign", "same_sign_tiny"])
def test_brentq_raises_numeric_error(f, lo, hi):
    with pytest.raises(NumericError):
        brentq(f, lo, hi, xtol=1e-14)


def test_brentq_returns_an_exact_zero_end():
    assert brentq(lambda x: x, 0.0, 1.0, xtol=1e-14) == 0.0
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-14) == 1.0


def test_kronrod_rule_is_exact_to_degree_31():
    # the 21 nodes integrate x^k over [-1, 1] exactly for k <= 31, the
    # 10 Gauss nodes for k <= 19: the QUADPACK constants carry no typo
    x = [mpmath.mpf(v) for v in mechanism._XGK]
    wk = [mpmath.mpf(v) for v in mechanism._WGK]
    wg = [mpmath.mpf(v) for v in mechanism._WG]

    def rule(nodes, weights, k):  # nodes +-x, the last one 0 for Kronrod
        return mpmath.fsum(w * (xi**k + (-xi) ** k if xi else xi**k) for w, xi in zip(weights, nodes))

    for k in range(0, 34, 2):  # odd moments vanish by symmetry
        exact = mpmath.mpf(2) / (k + 1)
        assert (abs(rule(x, wk, k) - exact) < 1e-15) == (k < 32), k
        if k < 22:
            assert (abs(rule(x[1:10:2], wg, k) - exact) < 1e-15) == (k < 20), k
    assert list(mechanism._GK_X) == sorted([-v for v in mechanism._XGK] + list(mechanism._XGK[:10]))


@pytest.mark.parametrize("f, lo, hi, want", [
    (np.exp, 0.0, 1.0, math.e - 1.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1e3, math.atan(1e3)),
    (lambda x: np.sqrt(x), 0.0, 1.0, 2.0 / 3.0),  # a branch point at the end
    (lambda x: np.cos(50 * x), 0.0, 3.0, math.sin(150.0) / 50.0),
    (np.exp, 1.0, 0.0, 1.0 - math.e),  # reversed ends
])
def test_quad_reaches_its_tolerance(f, lo, hi, want):
    assert mechanism._quad(f, lo, hi) == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_quad_agrees_with_quadpack_on_tail_integrands():
    from scipy import integrate

    for mech in (MIXED, MIXED_SUPER):
        eta = mech.eta
        for lo, hi in ((math.log(1e-3), math.log(eta + 9.0)), (-2.0, -1.5), (0.5, 2.0)):
            got = mechanism._quad(mech._rate, lo, hi)
            want = integrate.quad(lambda s: float(mech._rate(s)), lo, hi, **QUADPACK)[0]
            assert got == pytest.approx(want, rel=4e-15)


def test_quad_panel_budget_and_nonfinite_values_raise(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="not finite"):
            mechanism._quad(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)
        with pytest.raises(NumericError, match="needs over 400 panels"):
            mechanism._quad(lambda x: 1.0 / x, 0.0, 1.0)  # divergent
    lorentz = lambda x: 1.0 / (1.0 + x * x)
    assert mechanism._quad(lorentz, 0.0, 1e3) == pytest.approx(math.atan(1e3), rel=1e-12)
    monkeypatch.setattr(mechanism, "_PANEL_BUDGET", 2)
    with pytest.raises(NumericError, match="needs over 2 panels"):
        mechanism._quad(lorentz, 0.0, 1e3)
