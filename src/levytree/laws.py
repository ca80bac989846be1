"""Closed-form laws for trees and their pruned descendants.

Every function here is an analytic oracle: an exact formula, quadrature-backed
where the integral has no elementary form, and nothing in this module samples.

The catalog checks by Monte Carlo sigma_laplace, sigma_laplace_Pr and
cond_sigma_laplace (cond_sigma), special_markov_intensity, size_bias_identity,
spine_cut_mean, girsanov_defect and exit_time_laws' tail.  Like mz_cocycle for
the family's kernel, ascension_representation checks an exact identity only:
tree_at_ascension, the mass at the ascension time A = q, is size_bias_identity
at the conjugate time qbar(q).  Nothing samples the conditional law given A.

Conventions: `mech` is a Mechanism, `fam` an AdmissibleFamily, and all Laplace
arguments are nonnegative reals.  Excursion-measure quantities are normalized
the same way as the sampler (an estimate of N[F] is n times a sample mean).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .mechanism import DomainError, NumericError


def _check_lam(lam):
    if not lam >= 0.0:
        raise DomainError(f"Laplace argument must be >= 0, got {lam}")


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
    exp{-psi_q(psi_t^{-1}(lam)) * sigma_q}; sigma_q may be an array of
    masses, one value each.
    """
    _check_lam(lam)
    if not t <= q:
        raise DomainError(f"need t <= q, got t={t}, q={q}")
    if not np.all(np.asarray(sigma_q) >= 0.0):
        raise DomainError(f"conditioning mass must be >= 0, got {sigma_q}")
    inner = fam.psi_at(t).psi_inverse(lam)
    return np.exp(-fam.psi_at(q).psi(inner) * sigma_q)


# ------------------------------------------------------------ ascension time

# The ascension time A is the first pruning time at which the total mass
# becomes infinite (scanning toward the supercritical end of the window);
# its tail N[A > q] is eta_q, the family's eta_at(q).


def tree_at_ascension(fam, q, lam):
    """Laplace transform of sigma_A given A = q: psi_q'(eta_q) / psi_q'(psi_q^{-1}(lam)).

    The mass at the moment of ascension is finite even though the mass
    explodes immediately before it.  Needs psi_0 critical and q inside
    (t_inf, 0).
    """
    _check_lam(lam)
    fam.require_critical_origin()
    if not fam.window[0] < q < 0.0:
        raise DomainError(f"need q in ({fam.window[0]}, 0), got {q}")
    if lam == 0.0:
        return 1.0
    mech = fam.psi_at(q)
    return mech.dpsi(mech.eta) / mech.dpsi(mech.psi_inverse(lam))


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
    psi_q', both at eta_q), so they sum to one as q0 -> q.  Where v-tilde(h)
    rounds to 0 or the shared factor is not finite (psi-tilde overflowing
    against a tail that underflows) it raises NumericError.
    """
    fam.require_critical_origin()
    if not fam.window[0] < q < q0 < 0.0:
        raise DomainError(f"need {fam.window[0]} < q < q0 < 0, got q={q}, q0={q0}")
    if not h > 0.0:
        raise DomainError(f"need a positive height, got {h}")
    mech_q = fam.psi_at(q)
    eta_q = mech_q.eta
    conj = mech_q.conjugate(eta_q)
    v_h = conj.v_of(h)
    if not v_h > 0.0:
        raise NumericError(f"v-tilde({h}) = {v_h}: the height is past the float range")
    shared = conj.psi(v_h) * conj.tail_time(v_h, power=2)
    if not math.isfinite(shared):
        raise NumericError(f"psi-tilde(v) * tail integral at h = {h} is {shared}")
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
