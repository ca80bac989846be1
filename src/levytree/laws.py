"""Closed-form laws for trees and their pruned descendants.

Every function here is an analytic oracle: an exact formula, quadrature-backed
where the integral has no elementary form, and nothing in this module samples.
Laws conditioned on measure-zero events (the tree at its ascension time, exit
times hitting the ascension time) are exposed as formulas only; the simulation
side can reach them solely through integrated identities, and does.

Conventions: `mech` is a Mechanism, `fam` an AdmissibleFamily, and all Laplace
arguments are nonnegative reals.  Excursion-measure quantities are normalized
the same way as the sampler (an estimate of N[F] is n times a sample mean).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .mechanism import DomainError


def _check_lam(lam):
    if not lam >= 0.0:
        raise DomainError(f"Laplace argument must be >= 0, got {lam}")


def _check_critical_origin(fam):
    if fam.psi_at(0.0).criticality() != "critical":
        raise DomainError("ascension laws need psi_0 critical")


# ---------------------------------------------------------------- total mass


def sigma_laplace(mech, lam):
    """Excursion Laplace defect of total mass: N[1 - e^{-lam sigma}] = psi^{-1}(lam).

    At lam = 0 this is the mass carried by infinite trees: zero in the
    (sub)critical case and the largest root of psi otherwise.
    """
    _check_lam(lam)
    return mech.psi_inverse(lam)


def sigma_laplace_Pr(mech, r, lam):
    """Total-mass Laplace transform of a forest of initial mass r."""
    _check_lam(lam)
    if not r >= 0.0:
        raise DomainError(f"initial mass must be >= 0, got {r}")
    return math.exp(-r * mech.psi_inverse(lam))


def cond_sigma_laplace(fam, t, q, lam, sigma_q):
    """Laplace transform of the unpruned mass given the pruned one.

    Conditionally on the tree pruned down to time q having total mass
    sigma_q, the mass at the earlier time t <= q has Laplace transform
    exp{-psi_q(psi_t^{-1}(lam)) * sigma_q}.
    """
    _check_lam(lam)
    if not t <= q:
        raise DomainError(f"need t <= q, got t={t}, q={q}")
    if not sigma_q >= 0.0:
        raise DomainError(f"conditioning mass must be >= 0, got {sigma_q}")
    inner = fam.psi_at(t).psi_inverse(lam)
    return math.exp(-fam.psi_at(q).psi(inner) * sigma_q)


def cond_sigma_mean(fam, t, q, sigma_q):
    """Conditional mean of sigma_t given sigma_q: b_q * sigma_q / b_t.

    Only meaningful when psi_t is subcritical; at a critical psi_t the
    division by b_t = 0 is allowed to surface.
    """
    if not t <= q:
        raise DomainError(f"need t <= q, got t={t}, q={q}")
    if not sigma_q >= 0.0:
        raise DomainError(f"conditioning mass must be >= 0, got {sigma_q}")
    b_t = fam.psi_at(t).dpsi(0.0)
    if b_t < 0.0:
        raise DomainError("conditional mean needs psi_t subcritical")
    return fam.psi_at(q).dpsi(0.0) * sigma_q / b_t


# ------------------------------------------------------------ ascension time

# The ascension time A is the first pruning time at which the total mass
# becomes infinite (scanning toward the supercritical end of the window).


def ascension_tail(fam, q):
    """N[A > q]: the largest root of psi_q."""
    return fam.eta_at(q)


def ascension_density(fam, q):
    """Density of A at q < 0: zeta_q(eta_q) / psi_q'(eta_q)."""
    if not q < 0.0:
        raise DomainError(f"the ascension density lives on q < 0, got {q}")
    mech = fam.psi_at(q)
    eta = mech.eta
    return fam.zeta(q, eta) / mech.dpsi(eta)


def boundary_mass(fam):
    """Mass of {A = t_inf}: zero or infinite, by whether the window attains it."""
    return math.inf if fam.left_closed else 0.0


def tree_at_ascension(fam, q, lam):
    """Laplace transform of sigma_A given A = q: psi_q'(eta_q) / psi_q'(psi_q^{-1}(lam)).

    The mass at the moment of ascension is finite even though the mass
    explodes immediately before it.  Needs psi_0 critical and q inside
    (t_inf, 0).
    """
    _check_lam(lam)
    _check_critical_origin(fam)
    if not fam.window[0] < q < 0.0:
        raise DomainError(f"need q in ({fam.window[0]}, 0), got {q}")
    if lam == 0.0:
        return 1.0
    mech = fam.psi_at(q)
    return mech.dpsi(mech.eta) / mech.dpsi(mech.psi_inverse(lam))


def boundary_ascension(fam, lam):
    """Laplace defect of sigma_A on {A = t_inf}: psi_{t_inf}^{-1}(lam) - eta_{t_inf}.

    Only defined when the window actually attains its infimum.
    """
    _check_lam(lam)
    if not fam.left_closed:
        raise DomainError("the window does not attain its infimum")
    mech = fam.psi_at(fam.window[0])
    return mech.psi_inverse(lam) - mech.eta


# --------------------------------------------------------------- exit times

# A_h is the last pruning time at which the tree still exceeds height h.


class ExitTimeLaw(NamedTuple):
    beyond: float  # P[A_h > q0 | A = q]
    at_ascension: float  # P[A_h = A | A = q]
    tail: Callable[[float], float]  # q' -> N[A_h >= q']


def exit_time_laws(fam, q, q0, h):
    """Exit-time law of the height-h crossing, conditionally on A = q.

    Returns P[A_h > q0 | A = q], P[A_h = A | A = q], and the unconditional
    tail function q' -> N[A_h >= q'] = v_{q'}(h).  The two probabilities
    share the factor psi-tilde(v-tilde(h)) * integral_{v-tilde(h)}^inf
    dr / psi-tilde(r)^2, where psi-tilde is psi_q conjugated at its largest
    root; they differ only in the slope factor in front (psi_{q0}' versus
    psi_q', both at eta_q), so they sum to one as q0 -> q.
    """
    _check_critical_origin(fam)
    if not fam.window[0] < q < q0 < 0.0:
        raise DomainError(f"need {fam.window[0]} < q < q0 < 0, got q={q}, q0={q0}")
    if not h > 0.0:
        raise DomainError(f"need a positive height, got {h}")
    mech_q = fam.psi_at(q)
    eta_q = mech_q.eta
    conj = mech_q.conjugate(eta_q)
    v_h = conj.v_of(h)
    shared = conj.psi(v_h) * conj.tail_time(v_h, power=2)
    at_asc = mech_q.dpsi(eta_q) * shared
    beyond = 1.0 - fam.psi_at(q0).dpsi(eta_q) * shared
    return ExitTimeLaw(beyond, at_asc, lambda qp: fam.psi_at(qp).v_of(h))


# ----------------------------------------------- size bias and reweighting


def size_bias_identity(fam, q, lam):
    """Common value of the size-biased pruned-tree pair at F = e^{-lam sigma}.

    b_q * N[sigma_q e^{-lam sigma_q}] and the pruned infinite-tree expectation
    E*[e^{-lam sigma(T*_q)}] both equal psi_q'(0) / psi_q'(psi_q^{-1}(lam)).
    """
    _check_lam(lam)
    mech = fam.psi_at(q)
    b_q = mech.dpsi(0.0)
    if not b_q > 0.0:
        raise DomainError("size bias needs psi_q subcritical")
    if lam == 0.0:
        return 1.0
    return b_q / mech.dpsi(mech.psi_inverse(lam))


def girsanov_weight(mech, theta, z0, za, int_z):
    """Exponential change-of-measure weight exp{theta z0 - theta za - psi(theta) int_z}.

    z0 and za are the level masses at the endpoints and int_z the integral of
    the level mass over the slab; with psi(theta) = 0 and z0 = 0 the weight
    collapses to e^{-theta za}.
    """
    if not mech.theta_ok(theta):
        raise DomainError(f"theta = {theta} outside the reweighting domain")
    return math.exp(theta * (z0 - za) - mech.psi(theta) * int_z)


def girsanov_defect(mech, a):
    """N~[1 - e^{eta Z_a + psi(eta) sigma_a}] = -eta, psi~ being psi conjugated
    at its largest root eta: the Laplace flow u~(a, -eta) of the Girsanov
    weight stays at -eta, a zero of psi~, at every level a > 0.
    """
    if not a > 0.0:
        raise DomainError(f"need a positive level, got {a}")
    return -mech.eta


def spine_cut_mean(fam, q, h):
    """E[min(xi, h)] for the first pruning cut xi on the spine of T*: with
    psi_0 critical, marks land on the spine at rate psi_q'(0), so xi is
    Exponential(psi_q'(0)).
    """
    b_q = fam.psi_at(q).dpsi(0.0)
    if not b_q > 0.0:
        raise DomainError("the spine cut needs psi_q subcritical")
    return -math.expm1(-b_q * h) / b_q


def special_markov_intensity(fam, t, q, eps):
    """Rate of removed components taller than eps, per unit retained mass.

    Pruning from t down to q throws away a Poisson cloud of subtrees hung on
    the retained tree, positioned by its mass measure: excursions at rate
    alpha(t, q) plus mass-ell forests at the spent jump weight, all built
    from psi_t.  A component taller than eps
    appears at rate alpha(t,q) * v_t(eps) plus, per jump primitive, the weight
    drop (w_i(t) - w_i(q)) times the chance 1 - E[e^{-ell v_t(eps)}] that a
    forest of that initial mass reaches eps.
    """
    if not eps > 0.0:
        raise DomainError(f"need a positive height cutoff, got {eps}")
    v_eps = fam.psi_at(t).v_of(eps)
    out = fam.alpha(t, q) * v_eps
    w_t = fam.weights_at(t)
    w_q = fam.weights_at(q)
    for shape, wt, wq in zip(fam.shapes, w_t, w_q):
        if wt != wq:
            out += (wt - wq) * shape.unit_laplace_defect(v_eps)
    return out
