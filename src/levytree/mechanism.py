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

The jump terms take a float or an array lam through the same code: float
arithmetic around numpy's transcendental ufuncs (np.log1p, np.expm1,
np.exp), never the math.* functions, which differ from numpy's in the last
bit on 2.5-4.6 % of inputs.  A float is not wrapped in a 0-d array first:
IEEE arithmetic rounds a Python float and an array element alike, and the
wrapping cost about as much as the rest of a gamma term.

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
v_of and u_of invert them by Newton steps on s that add each step's
integral to one full quadrature.  There psi(eta + .) is the conjugate at
eta, whose exact parameters and drift psi'(eta) > 0 do not cancel.

Each jump primitive also gives its part of the Galton-Watson offspring law
at resolution n.  A point mass's is Poisson(n*z), computed with the
scipy.special functions that scipy.stats.poisson calls, to its bits.  A
gamma density's is negative binomial, from scipy.stats, which is imported
in that call only: its import (about 20 MB) is a large share of the cost
of a short process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import integrate, optimize, special


class DomainError(ValueError):
    """Input outside an operation's stated domain."""


class NumericError(RuntimeError):
    """Quadrature or root-finding failed to reach its tolerance."""


_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)  # for narrow tail increments


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


def brentq(f, lo, hi, **tol):
    """optimize.brentq, its bracket and convergence failures raised as NumericError."""
    try:
        return optimize.brentq(f, lo, hi, **tol)
    except (DomainError, NumericError):
        raise
    except (ValueError, RuntimeError) as err:
        raise NumericError(f"root finding on [{lo}, {hi}] failed: {err}") from err


def _quad(f, lo, hi):
    val, err = integrate.quad(f, lo, hi, **_QUAD_OPTS)
    if not math.isfinite(val) or err > 1e-8 * max(1.0, abs(val)):
        raise NumericError(f"quadrature failed on [{lo}, {hi}]: value {val}, err {err}")
    return val


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
            value += half * float(_GL_W @ g(new + half + half * _GL_X))
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
        return self.w * (np.expm1(-x) + x)

    @property
    def series_below(self):
        return _SERIES_BELOW / self.z

    def small_term(self, lam):
        """term for |lam| < series_below, where its difference cancels."""
        return self.w * _exp_series(-lam * self.z)

    def dterm(self, lam):
        # d/dlam = w*z*(1 - e^{-lam z})
        return -self.w * self.z * np.expm1(-lam * self.z)

    def d2term(self, lam):
        return self.w * self.z * self.z * np.exp(-lam * self.z)

    def x2term(self, x):
        # x^2 * term(1/x), stable as x -> 0
        z, w = self.z, self.w
        return w * (x * x * math.exp(-z / x) - x * x + z * x)

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
        mu = n * self.z
        return self.w * np.exp(special.xlogy(ks, mu) - special.gammaln(ks + 1) - mu)

    def gw_quantile(self, n, q):
        """Least k with Poisson(n*z) cdf at k >= q, for 0 < q < 1, as
        scipy.stats.poisson.ppf finds it."""
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
        if y < 0:
            return self._psi_inverse_dip(y)
        if y == 0.0:
            return self.eta
        if not self.m and self.c > 0:
            return (-self.b + math.sqrt(self.b * self.b + 4.0 * self.c * y)) / (
                2.0 * self.c
            )
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
        if self.b >= 0:
            raise DomainError(f"psi >= 0 on [0, inf): no solution of psi = {y}")
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

    def _rate(self, s, side=1.0):
        # g of _newton_chart above eta; side = -1 gives it on ln(eta - r) below
        x = side * np.exp(s)
        return x / self._at_root.psi(x)

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
    c = mech.c

    if power == 1:
        far = lambda x: 1.0 / mech._psi_x2(x) if x > 0 else 1.0 / c
    else:
        far = lambda x: x * x / mech._psi_x2(x) ** 2 if x > 0 else 0.0

    if v >= lam_big:
        return _quad(far, 0.0, 1.0 / v)
    near = lambda s: math.exp(s) / mech._at_root.psi(math.exp(s)) ** power
    head = _quad(near, math.log(v - eta), math.log(lam_big - eta))
    return head + _quad(far, 0.0, 1.0 / lam_big)
