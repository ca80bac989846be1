"""Branching mechanisms and the scale quantities built from them.

A mechanism is the convex function

    psi(lam) = b*lam + c*lam**2 + sum_i term_i(lam)

where each jump term is either a point mass at z with weight w,

    w * (exp(-lam*z) - 1 + lam*z),

or a Gamma(k, rho) density with weight w,

    w * ((rho/(rho+lam))**k - 1 + k*lam/rho).

Both are O(lam**2) differences of O(lam) parts, so psi sums a term as a
short series where its argument is below 1e-3 (`series_below` in lam), and
keeps its second order at any lam.  A gamma term is defined for lam > -rho
only; its methods raise DomainError below that, where the formula reads
inf, NaN or a complex power.

The jump terms take a float or an array lam through the same formulas,
around numpy's transcendental ufuncs (np.log1p, np.expm1, np.exp), never
the math.* functions, which differ from numpy's in the last bit on 2.5-4.6 %
of inputs.  A float is not wrapped in a 0-d array first, and the ufunc's
value at a float is taken back as a float (float(np.expm1(..))): IEEE
arithmetic rounds a Python float and an np.float64 alike, at about a third
of the cost.

Conventions used throughout the package:

* criticality is read off the sign of b = psi'(0): b > 0 subcritical,
  b = 0 critical, b < 0 supercritical;
* eta is the largest nonnegative root of psi; eta > 0 exactly in the
  supercritical case;
* the Grey condition (finite tail integral of 1/psi) holds within this
  parametric class if and only if c > 0, and the height/flow quantities
  below require it;
* v_of(a) solves  integral_{v}^{inf} dr/psi(r) = a  (height tail under
  the excursion normalization) and u_of(a, lam) solves
  integral_{u}^{lam} dr/psi(r) = a  (Laplace flow of the level mass).

Quadratic mechanisms (no jump part) take closed forms.  Otherwise tail
integrals are evaluated on two smooth charts: r = eta + e^s near the root
and r = 1/x at infinity, where x**2*psi(1/x) -> c removes the singularity.
The part of the far chart past r = lam_big is a constant of the mechanism,
computed once per power.  v_of and u_of invert them by Newton steps on s
that add each step's integral to one full quadrature.  There psi(eta + .)
is the conjugate at eta, whose exact parameters and drift psi'(eta) > 0 do
not cancel.

Quadrature and root-finding are the package's own.  _quad is quadpack's
21-point Gauss-Kronrod rule (QK21), with its error estimate, tolerances and
limit of 400 panels, on integrands that take arrays: each round evaluates
all its new panels in one call.  Past that limit, or at a value that is not
finite, it raises NumericError and warns nothing.  brentq is a port of
scipy's, with its bits.

Each jump primitive also gives its part of the Galton-Watson offspring law
at resolution n.  A point mass's is Poisson(n*z), computed with the
scipy.special functions that scipy.stats.poisson calls, to its bits.  A
gamma density's is negative binomial, from scipy.stats.

No scipy module is imported at load time, and the flows, inverse and
root of a mechanism load none.  The offspring laws import theirs in the
call that uses it: special for a point mass and stats for a gamma
density.  Loading scipy is most of a short process's start-up cost:
scipy.integrate or scipy.optimize would also load scipy.linalg and
scipy.sparse, and take a process's resident memory from about 32 MB to
80 MB (scipy.special alone: 54 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


class NumericError(RuntimeError):
    """Quadrature or root-finding failed to reach its tolerance."""


_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)  # for narrow tail increments

# QUADPACK's QK21 on [-1, 1]: Kronrod nodes from the edge in (the odd ones,
# from 0, are the 10-point Gauss nodes), Kronrod weights, Gauss weights
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_GK_X = np.array([-x for x in _XGK[:10]] + list(_XGK[::-1]))  # the 21 nodes, increasing
_EPSABS, _EPSREL = 1e-13, 1e-12  # the tolerances the package gave quadpack
_PANEL_BUDGET = 400  # quadpack's limit on subintervals
_EPS = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)


def _over_x(fn, x):
    """fn(x) / x for fn = math.expm1 or math.log1p, continued to 1 at x = 0.

    Near 0 both are x + O(x^2) to full relative precision, subnormals
    included, so only the x = 0 that a product with a tiny drift can
    underflow to needs the series.
    """
    return fn(x) / x if x else 1.0


# below this size the jump terms' e^y - 1 - y and r - log1p(r) are summed
# as series (error under 1e-18 relative): directly they cancel, to an
# error of about 1e-16 / |y|
_SERIES_BELOW = 1e-3


def _exp_series(y):
    return y * y * (0.5 + y * (1 / 6 + y * (1 / 24 + y * (1 / 120 + y / 720))))


def _log1p_series(r):
    return r * r * (0.5 - r * (1 / 3 - r * (0.25 - r * (0.2 - r * (1 / 6 - r / 7)))))


def _exp_excess(y):
    """e^y - 1 - y for a float or an array y."""
    if not isinstance(y, np.ndarray):
        return _exp_series(y) if -_SERIES_BELOW < y < _SERIES_BELOW else np.expm1(y) - y
    small = np.abs(y) < _SERIES_BELOW
    # the series only sees small y, so a large one cannot overflow it
    return np.where(small, _exp_series(np.where(small, y, 0.0)), np.expm1(y) - y)


def brentq(f, lo, hi, xtol, rtol=4 * _EPS):
    """A root of f on [lo, hi], where f(lo) and f(hi) differ in sign.

    A line-for-line port of the C routine behind scipy.optimize.brentq
    (Brent 1973), so its iterates, and its root, are scipy's to the bit.  A
    NaN value, a bracket without a sign change and 100 steps (scipy's
    maxiter) without convergence raise NumericError.
    """
    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise NumericError(f"root finding on [{lo}, {hi}] met f = NaN at {x}")
        return fx

    xpre, xcur, xtol, rtol = float(lo), float(hi), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NumericError(f"root finding on [{lo}, {hi}]: f has one sign at both ends")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C reads inf or NaN, which bisects below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise NumericError(f"root finding on [{lo}, {hi}] did not converge in 100 steps")


def _qk21(fv, hlgth):
    """QUADPACK's QK21 on one panel, in its order of operations: (error,
    value) from the integrand at the panel's 21 nodes, in increasing order,
    and its half-width.  A panel's value is so quadpack's to the bit."""
    fc = fv[10]
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first
        fval1, fval2 = fv[j], fv[20 - j]
        fsum = fval1 + fval2
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv[j] - reskh) + abs(fv[20 - j] - reskh))
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0 and abserr != 0:
        ratio = 200.0 * abserr / resasc  # min(1, ratio**1.5), which cannot overflow
        abserr = resasc if ratio >= 1.0 else resasc * ratio**1.5
    if resabs > _UFLOW / (50 * _EPS):
        abserr = max(_EPS * 50 * resabs, abserr)
    return abserr, resk * hlgth


def _quad(f, lo, hi):
    """integral_lo^hi f, for an f that maps an array of points to its values.

    Adaptive QK21 panels to quadpack's tolerances: each round calls f once on
    the nodes of its new panels, and while the error estimates sum past
    max(epsabs, epsrel |value|) it bisects the panels with the largest, all
    but those that fit in half that bound.  Panels split at quadpack's
    midpoints, so an integral that one panel resolves is quadpack's to the
    bit.  A value that is not finite, or a need for more than _PANEL_BUDGET
    panels, raises NumericError.
    """
    todo = [(lo, hi)]  # the ends of the panels to evaluate
    done = []  # (error, value, a, b) of evaluated panels
    for _ in range(_PANEL_BUDGET):
        mid = np.array([(0.5 * (a + b), 0.5 * (b - a)) for a, b in todo])
        fx = np.asarray(f(mid[:, :1] + mid[:, 1:] * _GK_X), dtype=float)
        halves = mid[:, 1].tolist()
        done += [(*_qk21(fv, h), a, b) for fv, h, (a, b) in zip(fx.tolist(), halves, todo)]
        total, error = math.fsum(p[1] for p in done), sum(p[0] for p in done)
        if not (math.isfinite(total) and math.isfinite(error)):
            raise NumericError(
                f"quadrature on [{lo}, {hi}] reached {total} (error {error}): not finite")
        bound = max(_EPSABS, _EPSREL * abs(total))
        if error <= bound:
            return total
        done.sort()
        kept, fits = 0, 0.5 * bound
        while fits >= done[kept][0]:
            fits -= done[kept][0]
            kept += 1
        split, done = done[kept:], done[:kept]
        if kept + 2 * len(split) > _PANEL_BUDGET:
            break
        todo = ([(a, 0.5 * (a + b)) for *_, a, b in split]
                + [(0.5 * (a + b), b) for *_, a, b in split])
    raise NumericError(f"quadrature on [{lo}, {hi}] needs over {_PANEL_BUDGET} panels "
                       f"(value {total}, error {error})")


def _newton_chart(g, s, value, start, target, edge=math.inf):
    """The root of F = target, F decreasing on a log chart with F' = -g and
    F(s) = value, from start if on the root's side of s.  Newton on log F
    steps by (log F - log target) F / g, bisects the known bracket rather
    than leave it, and moves at most 2, 4, 8, ... toward an unknown side.
    F(s') = F(s) + integral_{s'}^s g, by _quad past width 0.25, else by the
    12-point rule, exact to roundoff: g = e^s / psi(eta + e^s) is analytic
    on |Im s| < pi/2, where Re psi(eta + x)/x >= psi'(eta) > 0 (a gamma
    branch point sits at pi), so it errs by about 25^-24.  Below eta, spans
    keep twice their width from the pole at edge = ln(eta) (rho > 9)."""
    lo, hi = (s, math.inf) if value > target else (-math.inf, s)
    new, reach = (start if lo < start < hi else s), 2.0
    for _ in range(100):
        if abs(new - s) > min(0.25, 0.5 * (edge - max(s, new))):
            value += _quad(g, new, s)
        elif new != s:
            half = 0.5 * (s - new)
            value += half * float((_GL_W * g(new + half + half * _GL_X)).sum())
        s = new
        lo, hi = (s, hi) if value > target else (lo, s)
        slope = float(g(s))
        if not (value > 0 and 0 < slope < math.inf):
            raise NumericError(f"tail inverse left its chart at s = {s}")
        step = math.log(value / target) * value / slope
        if min(abs(step), hi - lo) <= 1e-14 * max(1.0, abs(s)):
            return s + step if lo < s + step < hi else s
        if math.isinf(hi if step > 0 else lo):
            step, reach = max(-reach, min(reach, step)), 2.0 * reach
        new = s + step if lo < s + step < hi else 0.5 * (lo + hi)
    raise NumericError("tail inverse took over 100 Newton steps")


@dataclass(frozen=True)
class PointMass:
    """Jump primitive: atom of weight w at size z."""

    z: float
    w: float

    def validate(self):
        if not (self.z > 0 and self.w >= 0 and math.isfinite(self.z + self.w)):
            raise DomainError(f"point primitive needs z > 0, w >= 0: {self}")

    def term(self, lam):
        x = lam * self.z
        e = np.expm1(-x)
        return self.w * ((float(e) if type(x) is float else e) + x)

    @property
    def series_below(self):
        return _SERIES_BELOW / self.z

    def small_term(self, lam):
        """term for |lam| < series_below, where its difference cancels."""
        return self.w * _exp_series(-lam * self.z)

    def dterm(self, lam):
        # d/dlam = w*z*(1 - e^{-lam z})
        e = np.expm1(-lam * self.z)
        return -self.w * self.z * (float(e) if type(lam) is float else e)

    def d2term(self, lam):
        return self.w * self.z * self.z * np.exp(-lam * self.z)

    def x2term(self, x):
        # x^2 * term(1/x) at an array x > 0, stable as x -> 0
        z, w = self.z, self.w
        return w * (x * x * np.exp(-z / x) - x * x + z * x)

    # unit-measure quantities (weight stripped), used by family kernels
    def unit_laplace_defect(self, lam):
        return -np.expm1(-lam * self.z)

    @property
    def unit_first_moment(self):
        return self.z

    def scaled(self, factor):
        return PointMass(self.z, self.w * factor)

    def conjugate(self, theta):
        return PointMass(self.z, self.w * math.exp(-theta * self.z))

    def gw_pmf(self, n, ks):
        """Weighted offspring pmf contribution: w * Poisson(n*z) at ks >= 0.

        The ufuncs and operation order of scipy.stats.poisson.pmf, so the
        values are its values bit for bit.
        """
        from scipy import special

        mu = n * self.z
        return self.w * np.exp(special.xlogy(ks, mu) - special.gammaln(ks + 1) - mu)

    def gw_quantile(self, n, q):
        """Least k with Poisson(n*z) cdf at k >= q, for 0 < q < 1, as
        scipy.stats.poisson.ppf finds it."""
        from scipy import special

        mu = n * self.z
        v = math.ceil(special.pdtrik(q, mu))
        below = max(v - 1, 0)
        return below if special.pdtr(below, mu) >= q else v

    def sample_sizes_biased(self, rng, size):
        return np.full(size, self.z)

    def to_dict(self):
        return {"type": "point", "z": self.z, "w": self.w}


@dataclass(frozen=True)
class GammaDensity:
    """Jump primitive: Gamma(k, rho) density with total weight w."""

    k: float
    rho: float
    w: float

    def validate(self):
        if not (self.k > 0 and self.rho > 0 and self.w >= 0 and math.isfinite(self.k + self.rho + self.w)):
            raise DomainError(f"gamma primitive needs finite k, rho > 0, w >= 0: {self}")

    def _ratio(self, lam):
        """lam / rho for a float or an array lam, inside the domain lam > -rho
        (r > -1: the division rounds no lam above -rho to -1)."""
        r = lam / self.rho
        if (r <= -1.0).any() if isinstance(r, np.ndarray) else r <= -1.0:
            raise DomainError(f"a gamma term needs lam > -rho = {-self.rho:g}, got {lam}")
        return r

    def term(self, lam):
        r = self._ratio(lam)
        if type(r) is float:
            return self.w * (float(np.expm1(-self.k * float(np.log1p(r)))) + self.k * r)
        return self.w * (np.expm1(-self.k * np.log1p(r)) + self.k * r)

    @property
    def series_below(self):
        return _SERIES_BELOW * self.rho

    def small_term(self, lam):
        """term for |lam| < series_below, where its difference cancels:
        (1 + r)^-k - 1 + k r = (e^y - 1 - y) + k (r - log1p(r)), y = -k log1p(r)."""
        r = lam / self.rho
        return self.w * (_exp_excess(-self.k * np.log1p(r)) + self.k * _log1p_series(r))

    def dterm(self, lam):
        # d/dlam = w*(k/rho)*(1 - (rho/(rho+lam))^{k+1})
        r = self._ratio(lam)
        if type(r) is float:
            return -self.w * self.k / self.rho * float(np.expm1(-(self.k + 1) * float(np.log1p(r))))
        return -self.w * self.k / self.rho * np.expm1(-(self.k + 1) * np.log1p(r))

    def d2term(self, lam):
        self._ratio(lam)  # for its domain check
        base = self.rho / (self.rho + lam)
        return self.w * self.k * (self.k + 1) / self.rho**2 * base ** (self.k + 2)

    def x2term(self, x):
        k, rho, w = self.k, self.rho, self.w
        s = rho * x
        return w * (x * x * (s / (s + 1.0)) ** k - x * x + k * x / rho)

    def unit_laplace_defect(self, lam):
        r = self._ratio(lam)
        return -np.expm1(-self.k * np.log1p(r))

    @property
    def unit_first_moment(self):
        return self.k / self.rho

    def scaled(self, factor):
        return GammaDensity(self.k, self.rho, self.w * factor)

    def conjugate(self, theta):
        if self.rho + theta <= 0:
            raise DomainError(
                f"conjugate shift {theta} leaves gamma rate {self.rho} nonpositive"
            )
        factor = (self.rho / (self.rho + theta)) ** self.k
        return GammaDensity(self.k, self.rho + theta, self.w * factor)

    def gw_pmf(self, n, ks):
        """Weighted offspring pmf: w * NegBinomial(k, rho/(rho+n)) at ks."""
        from scipy import stats  # only gamma-jump schemes load scipy.stats

        p = self.rho / (self.rho + n)
        return self.w * stats.nbinom.pmf(ks, self.k, p)

    def gw_quantile(self, n, q):
        from scipy import stats

        return int(stats.nbinom.ppf(q, self.k, self.rho / (self.rho + n)))

    def sample_sizes_biased(self, rng, size):
        # z-weighted gamma density is again gamma with shape k+1
        return rng.gamma(self.k + 1.0, 1.0 / self.rho, size)

    def to_dict(self):
        return {"type": "gamma", "k": self.k, "rho": self.rho, "w": self.w}


def parsed(build, d, what):
    """build(d) for a JSON object d; malformed input raises DomainError."""
    if not isinstance(d, dict):
        raise DomainError(f"{what} must be a JSON object, got {d!r}")
    try:
        return build(d)
    except DomainError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise DomainError(f"bad {what} ({type(err).__name__}: {err})") from err


def primitive_from_dict(d):
    kind = d["type"]
    if kind == "point":
        return PointMass(float(d["z"]), float(d["w"]))
    if kind == "gamma":
        return GammaDensity(float(d["k"]), float(d["rho"]), float(d["w"]))
    raise DomainError(f"unknown jump primitive type {kind!r}")


@dataclass(frozen=True)
class Mechanism:
    b: float
    c: float
    m: tuple = field(default_factory=tuple)

    _series_below = 0.0  # |lam| below which some jump term takes its series in psi

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(self.m))
        if not (math.isfinite(self.b) and math.isfinite(self.c)) or self.c < 0:
            raise DomainError(f"need finite b and c >= 0, got b={self.b}, c={self.c}")
        for p in self.m:
            p.validate()
        if self.m:
            object.__setattr__(self, "_series_below", max([p.series_below for p in self.m]))

    # ------------------------------------------------------------ evaluation

    def psi(self, lam):
        scalar = isinstance(lam, (float, int))  # np.float64 is a float
        if not scalar:
            lam = np.asarray(lam, dtype=float)
        out = self.b * lam + self.c * lam * lam
        # a jump term sums its series below its own bound on |lam|
        if scalar and abs(lam) < self._series_below:
            for p in self.m:
                out = out + (p.small_term(lam) if abs(lam) < p.series_below else p.term(lam))
            return out
        if not scalar and self.m and np.count_nonzero(np.abs(lam) < self._series_below):
            for p in self.m:
                small = np.abs(lam) < p.series_below
                out = out + np.where(small, p.small_term(np.where(small, lam, 0.0)), p.term(lam))
            return out
        for p in self.m:
            out = out + p.term(lam)
        return out

    def dpsi(self, lam):
        out = self.b + 2.0 * self.c * lam
        for p in self.m:
            out = out + p.dterm(lam)
        return out

    def d2psi(self, lam):
        out = 2.0 * self.c + 0.0 * lam
        for p in self.m:
            out = out + p.d2term(lam)
        return out

    def _psi_x2(self, x):
        # x^2 * psi(1/x) on the 1/r chart; smooth down to x = 0 (value c)
        out = self.c + self.b * x
        for p in self.m:
            out += p.x2term(x)
        return out

    def criticality(self):
        if self.b > 0:
            return "subcritical"
        if self.b == 0:
            return "critical"
        return "supercritical"

    @property
    def is_grey(self):
        return self.c > 0

    def _require_grey(self, what):
        if not self.is_grey:
            raise DomainError(f"{what} requires the Grey condition (c > 0 here)")

    # ------------------------------------------------------------- root, inverse

    @cached_property
    def eta(self):
        """Largest root of psi; 0 unless supercritical."""
        if self.b >= 0:
            return 0.0
        if self.c == 0 and not self.m:
            raise DomainError("psi = b*lam with b < 0 has no positive root")
        hi = -self.b / self.c if self.c > 0 else 1.0
        for _ in range(2000):
            if self.psi(hi) >= 0:
                break
            hi *= 2.0
        else:
            raise DomainError("psi stays negative: no largest root")
        if self.psi(hi) == 0.0:
            return hi
        lo = hi * 1e-12
        if not self.psi(lo) < 0:
            # b < 0 makes psi negative near 0, but where psi is subnormal b * lo
            # underflows: halve down from hi to where psi is not positive
            lo = 0.5 * hi
            for _ in range(1100):  # past the smallest subnormal
                if self.psi(lo) <= 0:
                    break
                hi, lo = lo, 0.5 * lo
        # products of psi values underflow near a tiny root; 2^k ~ 1/hi^2 moves no iterate
        scale = math.ldexp(1.0, max(-1000, min(1000, -2 * math.frexp(hi)[1])))
        root = brentq(lambda x: scale * self.psi(x), lo, hi, xtol=1e-300, rtol=8.9e-16)
        for _ in range(2):
            d = self.dpsi(root)
            if d > 0:
                root -= self.psi(root) / d
        return float(root)

    def psi_inverse(self, y):
        """Largest lam with psi(lam) = y."""
        if not math.isfinite(y):
            raise DomainError(f"psi_inverse needs finite y, got {y}")
        b, c = self.b, self.c
        if y < 0 and b >= 0:
            raise DomainError(f"psi >= 0 on [0, inf): no solution of psi = {y}")
        if y == 0.0:
            return self.eta
        if not self.m and c > 0:
            # the larger root of c lam^2 + b lam - y; for b > 0 the product
            # form 2y / (b + root), since -b + root cancels as y -> 0, with
            # the 2 moved to the denominator, where it cannot overflow
            disc = b * b + 4.0 * c * y
            if disc < 0:
                raise DomainError(f"{y} below the minimum {-b * b / (4.0 * c)} of psi")
            if disc == math.inf:
                raise NumericError(f"b^2 + 4cy overflows at b = {b}, c = {c}, y = {y}")
            root = math.sqrt(disc)
            return y / (0.5 * (b + root)) if b > 0 else (-b + root) / (2.0 * c)
        if y < 0:
            return self._psi_inverse_dip(y)
        eta = self.eta
        hi = max(eta, 1.0)
        for _ in range(2000):
            if self.psi(hi) >= y:
                break
            hi *= 2.0
        else:
            raise DomainError(f"psi never reaches {y}")
        lam = brentq(
            lambda x: self.psi(x) - y, eta, hi, xtol=1e-300, rtol=8.9e-16
        )
        for _ in range(2):
            lam -= (self.psi(lam) - y) / self.dpsi(lam)
        return float(lam)

    def _psi_inverse_dip(self, y):
        # supercritical psi dips below zero on (0, eta); take the larger branch
        eta = self.eta
        lam_min = brentq(self.dpsi, 0.0, eta, xtol=1e-300, rtol=8.9e-16)
        if y < self.psi(lam_min):
            raise DomainError(f"{y} below the minimum {self.psi(lam_min)} of psi")
        return float(
            brentq(
                lambda x: self.psi(x) - y, lam_min, eta, xtol=1e-300, rtol=8.9e-16
            )
        )

    # ---------------------------------------------------------- tail integrals

    def tail_time(self, v, power=1):
        """integral_v^inf dr / psi(r)**power; needs v > eta and Grey."""
        self._require_grey("tail_time")
        if power == 1 and not self.m:
            if v <= self.eta:
                raise DomainError(f"tail integral needs v > eta = {self.eta}")
            cv = self.c * v  # log1p(b/(c v)) / b
            return _over_x(math.log1p, self.b / cv) / cv
        return _tail_time_quad(self, v, power)

    @cached_property
    def _at_root(self):
        return self.conjugate(self.eta)

    def _rate(self, s, side=1.0, power=1):
        # g of _newton_chart above eta; side = -1 gives it on ln(eta - r) below;
        # at power 2 the integrand of tail_time(., 2) on the same chart
        x = side * np.exp(s)
        return x / self._at_root.psi(x) ** power

    def _far(self, x, power=1):
        # the tail integrand on the chart r = 1/x, at an array x > 0
        return 1.0 / self._psi_x2(x) if power == 1 else x * x / self._psi_x2(x) ** 2

    @cached_property
    def _far_tails(self):
        # {power: the integral of _far over [0, 1 / lam_big]}, filled on first use
        return {}

    def v_of(self, a):
        """Height tail: the unique v > eta with tail_time(v) = a (see _newton_chart)."""
        self._require_grey("v_of")
        if not a > 0:
            raise DomainError(f"v_of needs a > 0, got {a}")
        proxy = float(1.0 / (self.c * a * _over_x(math.expm1, a * self.b)))
        if not self.m:
            return proxy
        eta, b = self.eta, self._at_root.b  # first guess: the form for psi(eta + .)
        s = math.log(max(proxy - eta, proxy * 1e-3, 1e-290))
        start = -math.log(self.c * a * _over_x(math.expm1, a * b))
        s = _newton_chart(self._rate, s, self.tail_time(eta + math.exp(s)), start, a)
        return float(eta + math.exp(s))

    def u_of(self, a, lam):
        """Laplace flow: solves integral_u^lam dr/psi(r) = a.

        The flow contracts toward eta from both sides: u lies between lam
        and eta, and u -> v_of(a) as lam -> inf.  Inputs within a relative
        1e-12 of eta (or lam = 0) are fixed points and returned unchanged.  With jumps,
        _newton_chart solves from lam on ln(u - eta) or ln(eta - u).
        """
        self._require_grey("u_of")
        if a < 0 or not math.isfinite(lam) or lam < 0:
            raise DomainError(f"u_of needs a >= 0 and lam >= 0, got a={a}, lam={lam}")
        if a == 0:
            return float(lam)
        eta = self.eta
        if lam == 0.0 or abs(lam - eta) <= 1e-12 * eta:
            return float(lam) if lam == 0.0 else eta
        if not self.m or lam > eta:
            # x b / (e^{ab}(b + c x) - c x), the flow of b x + c x^2 without the
            # cancelling pair: exact without jumps, else a first guess on psi(eta + .)
            x, ab = (lam - eta, a * self._at_root.b) if self.m else (lam, a * self.b)
            flow = float(x / (math.exp(ab) + self.c * a * x * _over_x(math.expm1, ab)))
            if not self.m:
                return flow
            tail = self.tail_time(lam)
            s = _newton_chart(self._rate, math.log(x), tail, math.log(flow), a + tail)
            return float(eta + math.exp(s))
        # pole at t = ln(eta) (psi(0) = 0); h rises from 1/psi'(eta) to h(t_lam)
        # so t moves by at most a psi'(eta): where that rounds away, u is lam
        h = lambda t: self._rate(t, -1.0)
        t_lam = math.log(eta - lam)
        if t_lam - a * self._at_root.b == t_lam:
            return float(lam)
        # Newton on log F needs F(start) > 0: start at least a float below t_lam
        start = min(t_lam - a / max(float(h(t_lam)), 1.0 / self._at_root.b),
                    math.nextafter(t_lam, -math.inf))
        return float(eta - math.exp(_newton_chart(h, t_lam, 0.0, start, a, math.log(eta))))

    # ------------------------------------------------------------- conjugation

    def theta_ok(self, theta):
        """Whether psi(theta + .) - psi(theta) is again a valid mechanism."""
        if theta >= 0:
            return True
        return all(
            not isinstance(p, GammaDensity) or p.rho + theta > 0 for p in self.m
        )

    def conjugate(self, theta):
        """Mechanism lam -> psi(theta + lam) - psi(theta), exact in parameters."""
        if not self.theta_ok(theta):
            raise DomainError(f"theta = {theta} outside the conjugation domain")
        return Mechanism(
            b=float(self.dpsi(theta)),
            c=self.c,
            m=tuple(p.conjugate(theta) for p in self.m),
        )

    # ------------------------------------------------------------ serialization

    def to_dict(self):
        return {"b": self.b, "c": self.c, "m": [p.to_dict() for p in self.m]}

    @classmethod
    def from_dict(cls, d):
        """The mechanism of a JSON object; zero-weight primitives are validated
        and dropped, since they add nothing to psi and their terms read 0 * inf
        far out on the negative axis."""
        def build(d):
            m = tuple(primitive_from_dict(p) for p in d.get("m", []))
            for p in m:
                p.validate()
            return cls(b=float(d["b"]), c=float(d["c"]), m=tuple(p for p in m if p.w > 0))

        return parsed(build, d, "mechanism")


def _tail_time_quad(mech, v, power=1):
    """Split quadrature for integral_v^inf dr/psi(r)**power (any mechanism)."""
    mech._require_grey("tail_time")
    eta = mech.eta
    if v <= eta:
        raise DomainError(f"tail integral needs v > eta = {eta}")
    lam_big = max(2.0 * eta + 1.0, 10.0)
    far = lambda x: mech._far(x, power)
    if v >= lam_big:
        return _quad(far, 0.0, 1.0 / v)
    head = _quad(lambda s: mech._rate(s, 1.0, power), math.log(v - eta), math.log(lam_big - eta))
    tails = mech._far_tails
    if power not in tails:  # a constant of the mechanism
        tails[power] = _quad(far, 0.0, 1.0 / lam_big)
    return head + tails[power]
