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
    _quad,
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


# ------------------------------------------------------- quadrature vs oracle


def test_tail_time_against_mpmath():
    for mech in (MIXED, MIXED_SUPER):
        eta = mech.eta
        for v in (eta + 0.05, eta + 0.8, eta + 4.0, eta + 60.0):
            want = float(mp_tail(mech, v))
            assert mech.tail_time(v) == pytest.approx(want, rel=1e-9)


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


def invert_tail_reference(mech, a, lam=math.inf):
    """v_of(a) (lam = inf) or u_of(a, lam) of a jump mechanism by the solver
    the Newton one replaced: a bracket stepped by whole tail quadratures,
    brentq over them, then up to three polishing steps."""
    eta = mech.eta
    if abs(lam - eta) < 1e-12 * max(1.0, eta):  # u_of's fixed points
        return eta
    if lam < eta:  # chart r = eta - e^t
        g = lambda t: math.exp(t) / (-mech.psi(eta - math.exp(t)))
        t_lam = math.log(eta - lam)
        f = lambda t: _quad(g, t, t_lam) - a
        lo = t_lam - 1.0
        for _ in range(800):
            if f(lo) >= 0:
                break
            lo -= 1.0
        else:
            raise NumericError("failed to bracket u below the root")
        u = eta - math.exp(brentq(f, lo, t_lam, xtol=1e-14, rtol=8.9e-16))
        for _ in range(3):
            step = -f(math.log(eta - u)) * abs(mech.psi(u))
            if lam < u + step < eta:
                u += step
            if abs(step) <= 1e-14 * max(u, 1e-30):
                break
        return u
    target = a if lam == math.inf else a + mech.tail_time(lam)
    proxy = 1.0 / (mech.c * target * _over_x(math.expm1, target * mech.b))
    f = lambda s: mech.tail_time(eta + math.exp(s)) - target
    lo = hi = math.log(max(proxy - eta, proxy * 1e-3, 1e-290))
    flo = fhi = f(lo)
    for _ in range(800):
        if flo > 0:
            break
        lo -= 1.0
        flo = f(lo)
    for _ in range(800):
        if fhi < 0:
            break
        hi += 1.0
        fhi = f(hi)
    if not (flo > 0 > fhi):
        raise NumericError("failed to bracket the tail-time inverse")
    v = eta + math.exp(brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16))
    for _ in range(3):
        step = (mech.tail_time(v) - target) * mech.psi(v)
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


@settings(max_examples=80, deadline=None)
@given(case=inversion_cases())
# u lies within 1e-5 of eta in both; in the first, a psi(eta + e^s) integrand
# that does not use the conjugate warns, and so does the reference
@example(case=(MIXED_SUPER, 4.0, MIXED_SUPER.eta + 1e-3))
@example(case=(NEAR_ROOT, 17.59, 1.925))
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
