"""Time-indexed potential functions, their one-round plays, and their envelopes.

Four families are implemented, all convex radial functions q_t(||theta||)
of the cumulative negative-gradient state theta:

* QuadraticPotential      (eta/2) x^2, the same for every t            (tag ogd)
* PowerPotential          (W/p) * (x^2 + G^2 (T-t))^(p/2),  p in [1, 2] (tag power)
* NormalKnownTPotential   eps * (1 - pi G^2 (T-t) / (2aT))^(-1/2)
                              * exp(x^2 / (2aT - pi G^2 (T-t)))        (tag normal_knownT)
* AdaptiveNormalPotential beta_t * exp(x^2 / (2at)),  beta_t = eps / log^2(t+1)
                                                                        (tag adaptive_normal)

The power and known-horizon Normal families are horizon-aware (indexed
t = 0..T); the adaptive family has no horizon and is defined for t >= 1
with the convention that its value at t = 0 is zero (beta_0 is undefined,
and the first-round borrowing is carried by the slack ledger instead).

Each class carries its spec ``tag``, the ``regime`` of the one-round game
against it, and the one radial quantity the minimax play in that regime
needs (see ``strategies.PotentialPlayer``): the slope q_t'(x) for the
orthogonal (power) family, the radial difference D_t(r) = q_t(r + G) -
q_t(r - G) for the parallel ones.  These quantities and ``radial`` itself
are written once, over numpy arrays: t is an int or an array and x an
array, so one formula serves a single play, a lockstep batch of plays
(``engine.run_games``) and a run's whole slack ledger.  np.exp overflows to
inf rather than raising; the engine traps that.  Each class also carries its
regret envelope ``regret_bound(u_norm, T)``.

The conjugate side: ``conjugate_numeric`` evaluates sup_a (a*u - f(a)) by
golden-section search, ``exp_conjugate_upper_bound`` is the closed-form
envelope for exponential-quadratic potentials, and ``regret_bound`` checks
its arguments and returns a potential's regret envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._search import golden_section_max
from .core import norm
from .one_round import ORTHOGONAL, PARALLEL

SIGMA2 = math.pi / 2.0  # per-step variance of the Gaussian surrogate

VACUOUS = math.inf


class BoundaryHitError(RuntimeError):
    """Numeric conjugate maximizer landed on the search boundary."""


def _check_rounds(t, lo: int, hi) -> None:
    """Raise unless every round index in t (an int or an array) lies in [lo, hi]."""
    low, high = (t.min(), t.max()) if isinstance(t, np.ndarray) else (t, t)
    if not lo <= low <= high <= hi:
        raise ValueError(f"round index t={t} outside [{lo}, {hi}]")


def _value(self, t: int, theta) -> float:
    """q_t(theta) = radial(t, ||theta||).

    Each family's ``radial``, ``radial_diff`` and ``slope`` take an int or
    array t and an array x (or r), and broadcast.  A concrete class binds
    this as its own ``value`` (a base class would carry it too, and
    perfbench/tracing.py wraps ``value`` on every class of this module)."""
    return float(self.radial(t, norm(theta)))


@dataclass(frozen=True)
class QuadraticPotential:
    """Fixed potential (eta/2) ||theta||^2, the gradient-descent ledger view."""

    eta: float
    G: float

    tag = "ogd"
    value = _value
    regime = PARALLEL

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if not self.G > 0:
            raise ValueError("G must be positive")

    def radial(self, t, x):
        return 0.5 * self.eta * x * x

    def radial_diff(self, t, r):
        """q(r + G) - q(r - G) = 2 eta G r, so the play is w = eta * theta."""
        return 2.0 * self.eta * self.G * r

    def regret_bound(self, u_norm: float, T: int) -> float:
        return u_norm * u_norm / (2.0 * self.eta) + 0.5 * self.eta * self.G * self.G * T


@dataclass(frozen=True)
class PowerPotential:
    """Power-family potential; at t = T it is the benchmark (W/p) x^p."""

    W: float
    p: float
    G: float
    T: int

    tag = "power"
    value = _value
    regime = ORTHOGONAL

    def __post_init__(self):
        if not self.W > 0:
            raise ValueError("W must be positive")
        if not 1.0 <= self.p <= 2.0:
            raise ValueError("p must lie in [1, 2]")
        if not self.G > 0:
            raise ValueError("G must be positive")
        if self.T < 1:
            raise ValueError("T must be >= 1")

    @property
    def q(self) -> float:
        """Conjugate exponent; infinite at p = 1."""
        return math.inf if self.p == 1.0 else self.p / (self.p - 1.0)

    def _s2(self, t, x):
        """x^2 + G^2 (T - t)."""
        _check_rounds(t, 0, self.T)
        return x * x + self.G * self.G * (self.T - t)

    def radial(self, t, x):
        s2 = self._s2(t, x)
        return (self.W / self.p) * np.where(t == self.T, np.abs(x) ** self.p, s2 ** (self.p / 2.0))

    def slope(self, t, x):
        """q_t'(x) = W x (x^2 + G^2 (T-t))^((p-2)/2) for x >= 0; zero at x = 0."""
        s2 = self._s2(t, x)
        return self.W * x * np.where(s2 > 0.0, s2, 1.0) ** ((self.p - 2.0) / 2.0)

    def regret_bound(self, u_norm: float, T: int) -> float:
        """At p = 1 there is no bound for u_norm > W; VACUOUS (inf) is returned
        there, and where u_norm**q leaves the float64 range."""
        root_t = self.G * math.sqrt(T)
        if self.p == 1.0:
            return self.W * root_t if u_norm <= self.W else VACUOUS
        q = self.q
        try:
            conjugate = u_norm**q / (self.W ** (q - 1.0) * q)
        except OverflowError:  # float ** raises where float * gives inf
            return VACUOUS
        return conjugate + (self.W / self.p) * root_t**self.p


class _ExpQuadratic:
    """q_t(x) = c_t exp(x^2 / d_t); a subclass supplies shape(t) = (c_t, d_t)."""

    regime = PARALLEL

    def radial(self, t, x):
        c, d = self.shape(t)
        return c * np.exp(x * x / d)

    def radial_diff(self, t, r):
        """q_t(r + G) - q_t(r - G) = c exp((r + G)^2 / d) (1 - exp(-4 G r / d)),
        through expm1, so without cancellation; +0 at r = 0."""
        c, d = self.shape(t)
        return -c * np.exp((r + self.G) ** 2 / d) * np.expm1(-4.0 * self.G / d * r)


@dataclass(frozen=True)
class NormalKnownTPotential(_ExpQuadratic):
    """Gaussian-smoothed exponential potential for a known horizon T."""

    eps: float
    a: float
    G: float
    T: int
    sigma2: float = field(default=SIGMA2, init=False)

    tag = "normal_knownT"
    value = _value

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.G > 0:
            raise ValueError("G must be positive")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if not self.a > math.pi * self.G * self.G / 2.0:
            raise ValueError(
                f"require a > pi*G^2/2 = {math.pi * self.G * self.G / 2.0:.6g}, got a={self.a}"
            )

    def shape(self, t):
        _check_rounds(t, 0, self.T)
        shrink = math.pi * self.G * self.G * (self.T - t)
        pref = (1.0 - shrink / (2.0 * self.a * self.T)) ** -0.5
        return self.eps * pref, 2.0 * self.a * self.T - shrink

    def regret_bound(self, u_norm: float, T: int) -> float:
        eps, a, G = self.eps, self.a, self.G
        envelope = u_norm * math.sqrt(
            2.0 * a * T * math.log(math.sqrt(a * T) * u_norm / eps + 1.0)
        )
        return envelope + eps * ((1.0 - math.pi * G * G / (2.0 * a)) ** -0.5 - 1.0)


@dataclass(frozen=True)
class AdaptiveNormalPotential(_ExpQuadratic):
    """Horizon-free exponential potential with decreasing scale beta_t."""

    eps: float
    a: float
    G: float

    tag = "adaptive_normal"
    value = _value

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.G > 0:
            raise ValueError("G must be positive")
        if not self.a > 3.0 * math.pi * self.G * self.G / 4.0:
            raise ValueError(
                f"require a > 3*pi*G^2/4 = {3 * math.pi * self.G * self.G / 4.0:.6g}, got a={self.a}"
            )

    def beta(self, t):
        _check_rounds(t, 1, math.inf)
        return self.eps / np.log(t + 1.0) ** 2

    def shape(self, t):
        """(beta_t, 2 a t), for t >= 1."""
        return self.beta(t), 2.0 * self.a * t

    def radial(self, t, x):
        """q_t(x), with q_0 = 0 since beta_0 is undefined."""
        if not isinstance(t, np.ndarray) and t == 0:
            return 0.0 * x
        return super().radial(t, x)

    def regret_bound(self, u_norm: float, T: int) -> float:
        eps, a, G = self.eps, self.a, self.G
        envelope = u_norm * math.sqrt(
            2.0 * a * T * math.log(math.sqrt(a * T) * u_norm * math.log(T + 1.0) ** 2 / eps + 1.0)
        )
        return envelope + eps * (math.pi * G * G / a - 1.0)


def conjugate_numeric(f, u_norm: float, search_bound: float, tol: float = 1e-8) -> float:
    """sup over [0, search_bound] of a*u_norm - f(a), by golden-section search.

    f must be convex on the interval so the objective is concave.  If the
    maximizer lands on the right boundary the supplied bound was too small
    and BoundaryHitError is raised; the caller should enlarge it.
    """
    if u_norm < 0:
        raise ValueError("u_norm must be nonnegative")
    if not search_bound > 0:
        raise ValueError("search_bound must be positive")

    def objective(a):
        # f may overflow well past the true maximizer; mask that region
        try:
            val = a * u_norm - f(a)
        except OverflowError:
            return -math.inf
        return val if not math.isnan(val) else -math.inf

    hi = search_bound
    overflowed = not math.isfinite(objective(hi))
    if overflowed:
        # shrink to the finite region; the maximizer is interior to it
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if math.isfinite(objective(mid)):
                lo = mid
            else:
                hi = mid
        hi = lo

    x, v = golden_section_max(objective, 0.0, hi, tol=min(tol, 1e-10 * (1.0 + hi)))
    obj_zero = objective(0.0)
    obj_edge = objective(hi)
    v = max(v, obj_zero, obj_edge)
    # a genuine boundary escape has the edge value dominating the interior;
    # flat objectives (e.g. u_norm = 0 with constant f) are not escapes
    if not overflowed and obj_edge >= v - 1e-12 * (1.0 + abs(v)) and obj_edge > obj_zero:
        raise BoundaryHitError(
            f"conjugate maximizer at search bound {search_bound}; enlarge the bound"
        )
    return v


def default_exp_search_bound(alpha: float, u_norm: float) -> float:
    """Initial search bound for conjugates of exp-type potentials."""
    return 10.0 * (u_norm + 1.0) * (math.sqrt(alpha) + 1.0)


def exp_conjugate_numeric(alpha: float, beta: float, u_norm: float) -> float:
    """Numeric conjugate of f(x) = beta*exp(x^2/(2 alpha)), doubling on boundary hits."""
    f = lambda x: beta * math.exp(x * x / (2.0 * alpha))
    bound = default_exp_search_bound(alpha, u_norm)
    for _ in range(60):
        try:
            return conjugate_numeric(f, u_norm, bound)
        except BoundaryHitError:
            bound *= 2.0
    raise BoundaryHitError("conjugate search bound did not stabilize")


def exp_conjugate_upper_bound(alpha: float, beta: float, w_norm: float) -> float:
    """Closed-form envelope of the conjugate of beta*exp(x^2/(2 alpha)).

    Returns ||w|| sqrt(2 alpha log(sqrt(alpha) ||w|| / beta + 1)) - beta, which
    dominates the numeric conjugate for all alpha, beta > 0 and w.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if w_norm < 0:
        raise ValueError("w_norm must be nonnegative")
    return w_norm * math.sqrt(2.0 * alpha * math.log(math.sqrt(alpha) * w_norm / beta + 1.0)) - beta


def regret_bound(potential, u_norm: float, T: int) -> float:
    """Theoretical regret envelope of the player of ``potential`` at comparator
    norm u_norm after T rounds.

    T is explicit, also for the known-horizon families, so that an envelope
    can be read off at every round t <= T of a run.
    """
    if u_norm < 0:
        raise ValueError("u_norm must be nonnegative")
    if T < 1:
        raise ValueError("T must be >= 1")
    return potential.regret_bound(u_norm, T)
