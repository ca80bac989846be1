"""Admissible families of branching mechanisms.

A family assigns to every time q in a window a mechanism (b_q, c, m_q)
whose jump measure rides on a fixed tuple of unit primitives with
time-dependent weights w_i(q).  Differentiating in q recovers the kernel

    zeta_q(lam) = beta_q lam + sum_i rate_i(q) * D_i(lam),

where rate_i = -dw_i/dq and D_i is the unit Laplace defect of primitive i.
Because every weight is a plain scalar per primitive, the survival factor
of a jump carried by primitive i over [t, q] is exactly w_i(q) / w_i(t):
monotonicity and the cocycle identity hold by construction rather than by
numerical accident.

Pruning reads three things from a family: the skeleton mark rate
alpha(t, q) = integral of beta, the survival factor survival(t, q, delta)
of a branch point of size delta (its mark probability is 1 - survival),
and the time node_mark_time(t, delta, u) at which that mark falls.  The
conjugate time qbar(q), with psi_qbar = psi_q(eta_q + .), is read only by
the ascension_representation experiment.

AdmissibleFamily checks every input of these public methods, and of
mark_times, in one place: t and q finite and inside the window with
t <= q, delta > 0, u in (0, 1), q < 0 for qbar, and alpha(t, q) > 0 for
a nonempty mark_times.  The hooks only ever see checked input.

node_mark_time is scalar and the one node-mark path: prune.generate_marks
calls it per many-child node.  Those are few (a handful in a jump forest of
10^5 nodes, about 2 000 on a spine forest), so a bulk closed form would save
under a millisecond and round the same time a second way.

A family is a subclass of AdmissibleFamily; each built-in one round-trips
through JSON (to_dict, family_from_dict).  It supplies data (b_at, beta_at,
weights_at, weight_rates_at, to_dict) and the closed form _alpha.  Each
other hook has a default, which a built-in family runs:

* _node_survival, keyed off the nearest atom: LinearDriftFamily and
  ReflectedFamily;
* _node_mark_time by root-finding and the trapezoid _mark_times:
  ReflectedFamily;
* _qbar by root-finding on b: TruncationFamily.
"""

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from .mechanism import DomainError, Mechanism, PointMass, brentq, parsed

_QBAR_GRID = np.linspace(0.1, 10.0, 100)
_QBAR_TOL = 1e-9


class AdmissibleFamily(ABC):
    """Base class wiring weights and drift into mechanisms and kernels; the
    window must contain 0 and c stays constant across it."""

    def __init__(self, window, c, shapes):
        t0, t1 = float(window[0]), float(window[1])
        if math.isnan(t0) or math.isnan(t1) or not t0 < t1:
            raise DomainError(f"bad window [{t0}, {t1}]")
        if not t0 <= 0.0 <= t1:
            raise DomainError(f"window [{t0}, {t1}] must contain 0")
        if not (math.isfinite(c) and c >= 0.0):
            raise DomainError(f"need c >= 0, got {c}")
        for s in shapes:
            s.validate()
            if s.w != 1.0:
                raise DomainError(
                    "shapes carry unit weight; put the scale in the weights"
                )
        self.window = (t0, t1)
        # the window clipped to finite floats: one chained comparison then
        # checks membership and finiteness together
        self._lo = max(t0, -sys.float_info.max)
        self._hi = min(t1, sys.float_info.max)
        self.c = float(c)
        self.shapes = tuple(shapes)
        self._atom_idx = tuple(
            i for i, s in enumerate(self.shapes) if isinstance(s, PointMass)
        )

    # -- data supplied by each concrete family ------------------------------

    @abstractmethod
    def b_at(self, q):
        """Drift coefficient b_q."""

    @abstractmethod
    def beta_at(self, q):
        """Drift part of the kernel, beta_q >= 0."""

    @abstractmethod
    def weights_at(self, q):
        """Array of w_i(q) aligned with self.shapes."""

    @abstractmethod
    def weight_rates_at(self, q):
        """Array of -dw_i/dq (the absolutely continuous part)."""

    @abstractmethod
    def to_dict(self):
        """JSON-ready description, inverse of family_from_dict."""

    # -- validation helpers --------------------------------------------------

    def _check_time(self, q, name="q"):
        if not self._lo <= q <= self._hi:
            t0, t1 = self.window
            raise DomainError(f"{name}={q} outside window [{t0}, {t1}]")

    def _check_interval(self, t, q):
        if not self._lo <= t <= q <= self._hi:
            self._check_time(t, "t")
            self._check_time(q, "q")
            raise DomainError(f"need t <= q, got t={t} > q={q}")

    # -- mechanisms and kernels ----------------------------------------------

    def psi_at(self, q):
        self._check_time(q)
        w = self.weights_at(q)
        prims = tuple(s.scaled(wi) for s, wi in zip(self.shapes, w))
        return Mechanism(self.b_at(q), self.c, prims)

    def zeta(self, q, lam):
        self._check_time(q)
        if lam < 0:
            raise DomainError(f"need lam >= 0, got {lam}")
        out = self.beta_at(q) * lam
        rates = self.weight_rates_at(q)
        for s, r in zip(self.shapes, rates):
            if r != 0.0:
                out += r * s.unit_laplace_defect(lam)
        return out

    def mz(self, t, q, i):
        """Survival factor of primitive i over [t, q]: w_i(q) / w_i(t)."""
        self._check_interval(t, q)
        if not 0 <= i < len(self.shapes):
            raise DomainError(f"no jump primitive with index {i}")
        wt = self.weights_at(t)[i]
        if wt == 0.0:
            raise DomainError(f"primitive {i} is degenerate at t={t} (zero weight)")
        return self.weights_at(q)[i] / wt

    # -- pruning parameters: checked here, computed by the hooks ---------------

    def alpha(self, t, q):
        """Skeleton mark rate: integral of beta over [t, q]."""
        self._check_interval(t, q)
        return self._alpha(t, q)

    def node_survival(self, t, q, delta):
        """Survival factor for a branch point of size delta over [t, q]."""
        self._check_interval(t, q)
        if not delta > 0:
            raise DomainError(f"need node size > 0, got {delta}")
        return self._node_survival(t, q, delta)

    def node_mark_time(self, t, delta, u):
        """First time q with 1 - survival(t, q, delta) >= u; inf if never."""
        self._check_time(t, "t")
        if not 0.0 < u < 1.0:
            raise DomainError(f"need u in (0, 1), got {u}")
        if not delta > 0:
            raise DomainError(f"need node size > 0, got {delta}")
        return self._node_mark_time(t, delta, u)

    def mark_times(self, t, q, rng, size):
        """iid mark times on [t, q] with density beta / alpha(t, q); size 0
        gives an empty array, and alpha(t, q) = 0, with no density, allows
        no other."""
        self._check_interval(t, q)
        if size == 0:
            return np.zeros(0)
        total = self._alpha(t, q)
        if not total > 0.0:
            raise DomainError(f"alpha({t}, {q}) = {total:g}: no mark-time density")
        return self._mark_times(t, q, rng, size)

    def qbar(self, q):
        """Time with psi_qbar = psi_q(eta_q + .), or None if none exists."""
        self._check_time(q)
        if q >= 0:
            raise DomainError(f"qbar needs q < 0, got {q}")
        return self._qbar(q)

    @abstractmethod
    def _alpha(self, t, q):
        """Integral of beta over [t, q], for t <= q inside the window."""

    def _nearest_atom(self, delta):
        """Index of the atom whose size is nearest delta; None without atoms."""
        if not self._atom_idx:
            return None
        return min(self._atom_idx, key=lambda j: abs(self.shapes[j].z - delta))

    def _node_survival(self, t, q, delta):
        # keyed off the nearest atom; families whose survival law extends
        # smoothly off the atoms override this
        i = self._nearest_atom(delta)
        return 1.0 if i is None else self.mz(t, q, i)

    def _node_mark_time(self, t, delta, u):
        target = 1.0 - u
        t1 = self.window[1]
        hi = min(t1, t + 1.0)
        while self._node_survival(t, hi, delta) > target:
            if hi >= t1 or hi - t > 1e9:
                return math.inf
            hi = min(t1, t + 2.0 * (hi - t))
        return brentq(lambda s: self._node_survival(t, s, delta) - target, t, hi, xtol=1e-14)

    def _mark_times(self, t, q, rng, size):
        grid = np.linspace(t, q, 1025)
        dens = np.array([self.beta_at(x) for x in grid])
        # scipy.integrate.cumulative_trapezoid(dens, grid, initial=0), in its operations and order
        cum = np.concatenate(([0.0], np.cumsum(np.diff(grid) * (dens[1:] + dens[:-1]) / 2.0)))
        return np.interp(rng.random(size) * cum[-1], cum, grid)

    def _qbar(self, q):
        # match the drift coefficient by root-finding, then verify the
        # conjugacy on a lambda grid
        self.require_critical_origin()
        mech = self.psi_at(q)
        eta = mech.eta
        target = mech.dpsi(eta)
        t1 = self.window[1]
        hi = min(t1, 1.0)
        while self.b_at(hi) < target:
            if hi >= t1 or hi > 1e12:
                return None
            hi = min(t1, 2.0 * hi)
        qb = brentq(lambda s: self.b_at(s) - target, 0.0, hi, xtol=1e-14)
        gap = np.max(np.abs(self.psi_at(qb).psi(_QBAR_GRID) - mech.psi(eta + _QBAR_GRID)))
        return qb if gap < _QBAR_TOL else None

    # -- family-level quantities ----------------------------------------------

    def eta_at(self, q):
        """Largest root of psi_q."""
        return self.psi_at(q).eta

    def require_critical_origin(self):
        """The one psi_0-critical check: qbar, reflection and ascension laws."""
        kind = self.psi_at(0.0).criticality()
        if kind != "critical":
            raise DomainError(f"need psi_0 critical, got psi_0 {kind}")


# -- built-in families ---------------------------------------------------------


class _ConstantKernelFamily(AdmissibleFamily):
    """A family whose kernel drift beta is one constant: alpha is beta times
    the slice length and mark times are uniform on the slice."""

    def __init__(self, window, c, shapes, beta):
        super().__init__(window, c, shapes)
        self._beta = beta

    def beta_at(self, q):
        return self._beta

    def _alpha(self, t, q):
        return self._beta * (q - t)

    def _mark_times(self, t, q, rng, size):
        return t + (q - t) * rng.random(size)

    def _to_dict(self, kind, **params):
        return {"type": kind, "window": _window_out(self.window), **params}


class _AtomicBaseFamily(_ConstantKernelFamily):
    """A constant-kernel family moving the atoms of a base mechanism given
    at q = 0; the base jump measure must be purely atomic."""

    def __init__(self, kind, base, window, beta):
        if any(not isinstance(s, PointMass) for s in base.m):
            raise DomainError(f"{kind} families carry atomic jump measures only")
        shapes = tuple(PointMass(s.z, 1.0) for s in base.m)
        super().__init__(window, base.c, shapes, beta)
        self.base = base
        self._w0 = np.array([s.w for s in base.m], dtype=float)
        self._z = np.array([s.z for s in base.m], dtype=float)


class ShiftFamily(_AtomicBaseFamily):
    """psi_q(lam) = psi(q + lam) - psi(q) for a base mechanism given at q = 0.

    The base jump measure must be purely atomic: exponential tilting keeps
    each atom in place with weight w_i e^{-z_i q}, which is the scalar
    structure the family machinery needs.  Gamma primitives change shape
    under tilting and are rejected.
    """

    def __init__(self, base, window):
        super().__init__("shift", base, window, 2.0 * float(base.c))

    def b_at(self, q):
        zq = self._z * q
        return self.base.b + 2.0 * self.c * q + float(np.sum(self._w0 * self._z * -np.expm1(-zq)))

    def weights_at(self, q):
        return self._w0 * np.exp(-self._z * q)

    def weight_rates_at(self, q):
        return self._z * self.weights_at(q)

    def _node_survival(self, t, q, delta):
        return math.exp(-delta * (q - t))

    def _node_mark_time(self, t, delta, u):
        tm = t - math.log1p(-u) / delta
        return tm if tm <= self.window[1] else math.inf

    def _qbar(self, q):
        self.require_critical_origin()
        qb = q + self.eta_at(q)
        return qb if qb <= self.window[1] else None

    def to_dict(self):
        return self._to_dict("shift", base=self.base.to_dict())


class LinearDriftFamily(_ConstantKernelFamily):
    """psi_q(lam) = q * b_rate * lam + c * lam^2: pure drift kernel, no jumps."""

    def __init__(self, b_rate, c, window=(-math.inf, math.inf)):
        if not b_rate > 0:
            raise DomainError(f"kernel drift must be positive, got {b_rate}")
        if not c > 0:
            raise DomainError(f"need c > 0, got {c}")
        super().__init__(window, c, (), float(b_rate))
        self.b_rate = self._beta

    def b_at(self, q):
        return self.b_rate * q

    def weights_at(self, q):
        return np.zeros(0)

    def weight_rates_at(self, q):
        return np.zeros(0)

    def eta_at(self, q):
        self._check_time(q)
        return -self.b_rate * q / self.c if q < 0 else 0.0

    def _node_mark_time(self, t, delta, u):
        return math.inf

    def _qbar(self, q):
        return -q if -q <= self.window[1] else None

    def to_dict(self):
        return self._to_dict("lineardrift", b_rate=self.b_rate, c=self.c)


class TruncationFamily(_AtomicBaseFamily):
    """Atoms above the moving ceiling h(q) = h0 - slope * q are dropped whole.

    With an atomic base the kernel is singular in time: an atom leaves at
    the single instant h crosses its site, psi_q jumps there, and zeta only
    carries the drift part g_rate.  check_admissibility reports the gap
    instead of smoothing it over.  A node of size delta survives [t, q]
    iff the ceiling stays >= delta on all of it, which for a linear ceiling
    is at both ends; so it is marked at t when it is above the ceiling
    there, else when a falling ceiling crosses delta, and node_mark_time is
    deterministic.
    """

    def __init__(self, base, h0, slope, g_rate=0.0, window=(-1.0, 1.0)):
        super().__init__("truncation", base, window, float(g_rate))
        if not h0 > 0:
            raise DomainError(f"need a positive ceiling, got h0={h0}")
        if g_rate < 0:
            raise DomainError(f"kernel drift must be nonnegative, got {g_rate}")
        for end in self.window:
            if math.isfinite(end):
                if not h0 - slope * end > 0:
                    raise DomainError(f"ceiling is not positive at window end {end}")
            elif slope != 0.0:
                raise DomainError("a sloped ceiling needs a finite window")
        self.h0 = float(h0)
        self.slope = float(slope)
        self.g_rate = self._beta

    def ceiling(self, q):
        return self.h0 - self.slope * q

    def b_at(self, q):
        dropped = self._z > self.ceiling(q)
        return self.base.b + self.g_rate * q + float(np.sum(self._w0[dropped] * self._z[dropped]))

    def weights_at(self, q):
        return self._w0 * (self._z <= self.ceiling(q))

    def weight_rates_at(self, q):
        # the true kernel is a time-atom at each drop; the a.c. part is zero
        return np.zeros_like(self._w0)

    def _node_survival(self, t, q, delta):
        return 1.0 if delta <= min(self.ceiling(t), self.ceiling(q)) else 0.0

    def _node_mark_time(self, t, delta, u):
        if delta > self.ceiling(t):
            return t
        if self.slope <= 0.0:
            return math.inf
        td = (self.h0 - delta) / self.slope
        return td if td <= self.window[1] else math.inf

    def to_dict(self):
        return self._to_dict("truncation", base=self.base.to_dict(), h0=self.h0,
                             slope=self.slope, g_rate=self.g_rate)


class ReflectedFamily(AdmissibleFamily):
    """Extend a family living on [t0, 0] with psi_0 critical to [t0, -t0].

    For q > 0 the mechanism is the conjugate at the largest root of the
    mirror time: psi_q = psi_{-q}(eta_{-q} + .).  All kernel quantities on
    the positive side follow from the negative side by the chain rule with
    d eta_t / dt = -zeta_t(eta_t) / psi'_t(eta_t); the mark rate integral
    collapses to alpha(0, q) = 2 c eta_{-q} - alpha_neg(-q, 0).
    """

    def __init__(self, negative):
        t0 = negative.window[0]
        if not math.isfinite(t0) or t0 >= 0:
            raise DomainError("reflection needs a finite negative window start")
        if negative.window[1] < 0:
            raise DomainError("the negative-side family must reach 0")
        if any(not isinstance(s, PointMass) for s in negative.shapes):
            raise DomainError("reflection supports atomic jump measures only")
        super().__init__((t0, -t0), negative.c, negative.shapes)
        negative.require_critical_origin()
        self.negative = negative
        self._z = np.array([s.z for s in negative.shapes], dtype=float)

    def _mirror(self, q):
        """(eta, psi', zeta) of the negative side at t = -q."""
        t = -q
        mech = self.negative.psi_at(t)
        eta = mech.eta
        return t, eta, mech.dpsi(eta), self.negative.zeta(t, eta)

    def psi_at(self, q):
        if q <= 0:
            return super().psi_at(q)
        # b_at and weights_at from one mirror mechanism: one root-find of eta
        self._check_time(q)
        mech = self.negative.psi_at(-q)
        eta = mech.eta
        w = self.negative.weights_at(-q) * np.exp(-self._z * eta)
        prims = tuple(s.scaled(wi) for s, wi in zip(self.shapes, w))
        return Mechanism(mech.dpsi(eta), self.c, prims)

    def b_at(self, q):
        if q <= 0:
            return self.negative.b_at(q)
        return self.psi_at(q).b

    def beta_at(self, q):
        if q <= 0:
            return self.negative.beta_at(q)
        t, eta, dps, zet = self._mirror(q)
        return -self.negative.beta_at(t) + 2.0 * self.c * zet / dps

    def weights_at(self, q):
        if q <= 0:
            return self.negative.weights_at(q)
        return np.array([p.w for p in self.psi_at(q).m], dtype=float)

    def weight_rates_at(self, q):
        if q <= 0:
            return self.negative.weight_rates_at(q)
        t, eta, dps, zet = self._mirror(q)
        w = self.negative.weights_at(t)
        r = self.negative.weight_rates_at(t)
        return np.exp(-self._z * eta) * (w * self._z * zet / dps - r)

    def _alpha(self, t, q):
        return self._alpha_from_zero(q) - self._alpha_from_zero(t)

    def _alpha_from_zero(self, s):
        if s <= 0:
            return -self.negative.alpha(s, 0.0)
        return 2.0 * self.c * self.negative.eta_at(-s) - self.negative.alpha(-s, 0.0)

    def eta_at(self, q):
        self._check_time(q)
        return self.negative.eta_at(q) if q <= 0 else 0.0

    def _qbar(self, q):
        return -q

    def to_dict(self):
        return {"type": "reflected", "negative": self.negative.to_dict()}


# -- admissibility report --------------------------------------------------------


@dataclass(frozen=True)
class Condition:
    passed: bool
    worst: float
    note: str = ""


@dataclass(frozen=True)
class AdmissibilityReport:
    monotone_psi: Condition
    h1_weights: Condition
    h2_cocycle: Condition
    h3_grey: Condition
    kernel_integrals: Condition

    @property
    def passed(self):
        return all(getattr(self, f.name).passed for f in fields(self))

    def summary(self):
        rows = [
            ("psi increasing in q", self.monotone_psi),
            ("H1 weights", self.h1_weights),
            ("H2 cocycle", self.h2_cocycle),
            ("H3 grey", self.h3_grey),
            ("kernel integrals", self.kernel_integrals),
        ]
        lines = []
        for label, cond in rows:
            state = "pass" if cond.passed else "FAIL"
            note = f"  ({cond.note})" if cond.note else ""
            lines.append(f"{label:<22} {state}  worst={cond.worst:.3e}{note}")
        verdict = "admissible" if self.passed else "NOT admissible"
        lines.append(f"overall: {verdict}")
        return "\n".join(lines)


def _cocycle_condition(weights):
    """H2 over every grid triple i <= j <= k and primitive p: the ratio
    w_k/w_i against (w_j/w_i)(w_k/w_j), the divisions mz makes; triples
    with a zero weight at i or j are skipped."""
    if not weights.size:
        return Condition(True, 0.0)
    idx = np.arange(len(weights))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = weights[None, :, :] / weights[:, None, :]  # [i, k, p] = w_k / w_i
        err = np.abs(ratio[:, None, :, :] - ratio[:, :, None, :] * ratio[None, :, :, :])
    ordered = (idx[:, None, None] <= idx[None, :, None]) & (idx[None, :, None] <= idx[None, None, :])
    live = weights != 0.0
    valid = ordered[..., None] & live[:, None, None, :] & live[None, :, None, :]
    # NaN errors are dropped, as a running max() from 0.0 drops them
    worst = float(np.fmax.reduce(err[valid], initial=0.0))
    return Condition(worst < 1e-12, worst, "" if live.all() else "degenerate triples skipped")


def check_admissibility(fam, t_grid=None, lam_grid=None):
    """Grid verification of the defining properties; report-only."""
    if t_grid is None:
        t0, t1 = fam.window
        t_grid = np.linspace(t0 if math.isfinite(t0) else -3.0, t1 if math.isfinite(t1) else 3.0, 9)
    ts = np.sort(np.asarray(t_grid))
    lams = np.asarray(lam_grid if lam_grid is not None else (0.1, 0.5, 1.0, 2.0, 5.0, 10.0))

    mechs = [fam.psi_at(t) for t in ts]
    psi_tab = np.array([m.psi(lams) for m in mechs])
    worst_mono = float(np.min(np.diff(psi_tab, axis=0), initial=0.0))
    monotone = Condition(worst_mono >= -1e-9, min(worst_mono, 0.0))

    # psi_at scales unit-weight shapes, so these are b_at(t) and weights_at(t)
    bs = np.array([m.b for m in mechs])
    weights = np.array([[p.w for p in m.m] for m in mechs])
    if weights.size:
        growth = float(np.max(np.diff(weights, axis=0), initial=0.0))
        negative = float(np.min(weights))
        note = "a weight reaches zero" if np.any(weights == 0.0) else ""
        h1 = Condition(growth <= 1e-12 and negative >= 0.0, max(growth, -negative, 0.0), note)
    else:
        h1 = Condition(True, 0.0, "no jump part")

    h2 = _cocycle_condition(weights)

    grey_fail = [t for t, m in zip(ts, mechs) if not m.is_grey]
    h3 = Condition(not grey_fail, float(len(grey_fail)), "" if not grey_fail else f"fails at t={grey_fail[0]:g}")

    # b_q - b_t = alpha(t, q) + sum_p m_p (w_p(t) - w_p(q)) over the grid pairs
    # t < q, in row-major order of the upper triangle [t, q]
    upper = np.arange(len(ts))[:, None] < np.arange(len(ts))
    rhs = np.array([fam.alpha(t, q) for i, t in enumerate(ts) for q in ts[i + 1:]], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = (bs[None, :] - bs[:, None])[upper]
        if weights.size:
            fm = np.array([s.unit_first_moment for s in fam.shapes])
            rhs += np.sum(fm * (weights[:, None, :] - weights[None, :, :])[upper], axis=1)
        # a non-finite side makes its residual inf or NaN, which the max carries
        worst_kernel = float(np.max(np.abs(lhs - rhs), initial=0.0))
    if math.isnan(worst_kernel):
        worst_kernel = math.inf
    kernel = Condition(worst_kernel < 1e-8, worst_kernel)

    return AdmissibilityReport(monotone, h1, h2, h3, kernel)


# -- serialization ----------------------------------------------------------------


def _window_out(window):
    return [None if not math.isfinite(x) else x for x in window]


def _window_in(pair):
    lo = -math.inf if pair[0] is None else float(pair[0])
    hi = math.inf if pair[1] is None else float(pair[1])
    return (lo, hi)


def family_from_dict(d):
    return parsed(_family, d, "family")


def _family(d):
    kind = d.get("type")
    if kind == "shift":
        return ShiftFamily(Mechanism.from_dict(d["base"]), _window_in(d["window"]))
    if kind == "lineardrift":
        return LinearDriftFamily(d["b_rate"], d["c"], _window_in(d["window"]))
    if kind == "truncation":
        return TruncationFamily(Mechanism.from_dict(d["base"]), d["h0"], d["slope"],
                                d.get("g_rate", 0.0), _window_in(d["window"]))
    if kind == "reflected":
        return ReflectedFamily(family_from_dict(d["negative"]))
    raise DomainError(f"unknown family type {kind!r}")

