"""Time-indexed potential functions, their one-round plays, and their envelopes.

Four families of convex radial functions q_t(||theta||) of the cumulative
negative-gradient state theta.  With the slack ledger of ``engine``, eps_s =
q_s(theta_s) - q_{s-1}(theta_{s-1}) + <w_s, g_s> and theta_0 = 0, the regret
telescopes to

    Regret_t(u) = q_0(0) + sum_{s<=t} eps_s + <theta_t, u> - q_t(theta_t)
               <= budget(t) + q_t^*(u),   q_t^*(u) = sup_x (<x, u> - q_t(x)),

so each family gives ``budget(t)`` and ``conjugate_bound(u_norm, t)``, and
``regret_bound`` adds them.  A known-horizon envelope is the one of the
player tuned to T, and it holds at every t <= T.

* ogd (QuadraticPotential): (eta/2) x^2.  eps_t = (eta/2) ||g_t||^2, so
  budget(t) = eta G^2 t / 2; the conjugate is u^2 / (2 eta).
* power (PowerPotential): (W/p) (x^2 + G^2 (T-t))^(p/2), p in [1, 2].
  eps_t <= 0, so budget(t) = q_0(0).  q_t >= q_T, whose conjugate is
  u^q / (q W^(q-1)), q = p/(p-1); at p = 1, 0 for u <= W and VACUOUS past W.
* normal_knownT (NormalKnownTPotential): c_t exp(x^2 / d_t), c_t = eps (1 -
  pi G^2 (T-t) / (2aT))^(-1/2), d_t = 2aT - pi G^2 (T-t).  eps_t <= 0, so
  budget(t) = q_0(0); conjugate ``exp_conjugate_upper_bound(d_t/2, c_t, u)``.
* adaptive_normal (AdaptiveNormalPotential): beta_t exp(x^2 / (2at)), beta_t
  = eps / log^2(t+1), for t >= 1, and q_0 = 0 (beta_0 is undefined).
  budget(t) is beta_1 e^(G^2/(2a)) >= eps_1 plus, for s = 2..t, the Gaussian
  step beta_s (1 - pi G^2/(2as))^(-1/2) - beta_{s-1}: the coin is dominated
  by N(0, pi G^2 / 2) (``checks.gaussian_dominance``) and the gap peaks at
  the origin (``checks.argmax_zero``).  Conjugate
  ``exp_conjugate_upper_bound(a t, beta_t, u)``.

Each class also carries its spec ``tag``, the ``regime`` of the one-round
game against it, and the one radial quantity the minimax play in that
regime needs (see ``strategies.PotentialPlayer``): the slope q_t'(x) for
the orthogonal (power) family, the radial difference D_t(r) = q_t(r + G) -
q_t(r - G) for the parallel ones.  These, ``radial`` and the envelope
halves are written once over numpy arrays (t an int or an array, x an
array), so one formula serves a play, a lockstep batch of plays
(``engine.run_games``), a run's slack ledger and an envelope column.
np.exp overflows to inf rather than raising; the engine traps that.
The numeric conjugate that referees the closed-form envelopes is
``oracles.exp_conjugate_numeric``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import ORTHOGONAL, PARALLEL, norm

SIGMA2 = math.pi / 2.0  # per-step variance of the Gaussian surrogate

VACUOUS = math.inf


def _check_rounds(t, lo: int, hi) -> None:
    """Raise unless every round index in t (an int or an array) lies in [lo, hi]."""
    low, high = (t.min(initial=lo), t.max(initial=lo)) if isinstance(t, np.ndarray) else (t, t)
    if not lo <= low <= high <= hi:
        raise ValueError(f"round index {low if low < lo else high} outside [{lo}, {hi}]")


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

    def budget(self, t):
        return 0.5 * self.eta * self.G * self.G * t

    def conjugate_bound(self, u_norm, t):
        return u_norm * u_norm / (2.0 * self.eta)


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

    def _s2_power(self, t, x, e):
        """(x^2 + G^2 (T - t))^e, with 0^e = 1 at e < 0 (x = 0 at t = T, where
        the slope's factor x is 0); where the sum overflows, the root
        np.hypot(x, G sqrt(T - t)) to the power 2e, so no square overflows."""
        _check_rounds(t, 0, self.T)
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 at t = T once G * G overflows
            s2 = x * x + self.G * self.G * (self.T - t)
        if e < 0.0:
            s2 = np.where(s2 == 0.0, 1.0, s2)
        finite = np.isfinite(s2)
        if finite.all():
            return s2 ** e
        return np.where(finite, s2, np.hypot(x, self.G * np.sqrt(self.T - t))) ** np.where(finite, e, 2.0 * e)

    def radial(self, t, x):
        return (self.W / self.p) * np.where(t == self.T, np.abs(x) ** self.p, self._s2_power(t, x, self.p / 2.0))

    def slope(self, t, x):
        """q_t'(x) = W x (x^2 + G^2 (T-t))^((p-2)/2) for x >= 0; zero at x = 0."""
        return self.W * x * self._s2_power(t, x, (self.p - 2.0) / 2.0)

    def budget(self, t):
        return self.radial(0, 0.0 * t)

    def conjugate_bound(self, u_norm, t):
        """q_T's conjugate at every t; VACUOUS past W at p = 1, and where
        u_norm**q leaves the float64 range.  Where both powers leave it (0/0
        or inf/inf: u_norm = 0 with a tiny W, or u_norm and W both huge), the
        same value as W (u_norm/W)^q / q, which is exactly 0 at u_norm = 0.
        Every power is a numpy one, so none raises OverflowError, and none
        warns."""
        if self.p == 1.0:
            return np.where(u_norm <= self.W, 0.0, VACUOUS)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            bound = u_norm**self.q / (np.float64(self.W) ** (self.q - 1.0) * self.q)
            return np.where(np.isnan(bound), (u_norm / self.W) ** self.q * self.W / self.q, bound)


def _exponent(x, d, square):
    """x^2 / d as square(x) / d, square(x) being x^2 as the caller spells it,
    where that is finite, and as (x / sqrt(d))^2 where it is not, which leaves
    float64 only where x^2 / d does.  Below 1e154, where no square of |x|
    overflows, it is square(x) / d at once."""
    if np.abs(x).max(initial=0.0) < 1e154:
        return square(x) / d
    with np.errstate(over="ignore"):
        s = square(x)
    return np.where(np.isfinite(s), s / d, (x / np.sqrt(d)) ** 2)


class _ExpQuadratic:
    """q_t(x) = c_t exp(x^2 / d_t); a subclass supplies shape(t) = (c_t, d_t).
    Where x^2 passes the float64 range, x is divided by sqrt(d_t) before it is
    squared, so the exponent is finite wherever x^2 / d_t is."""

    regime = PARALLEL

    def radial(self, t, x):
        c, d = self.shape(t)
        return c * np.exp(_exponent(x, d, lambda x: x * x))

    def radial_diff(self, t, r):
        """q_t(r + G) - q_t(r - G) = -c exp(A) m, with A = (r + G)^2 / d and
        m = expm1(-4 G r / d), so without cancellation.  Where that product is
        not finite (c exp(A) overflows, or is inf times m = -0.0 at r = 0), it
        is exp(log c + A + log(-m)), finite wherever D is: +0 at r = 0
        wherever c is finite, NaN where c is inf.  Wherever the product is
        finite these are its bits; only a D that leaves float64 (overflow) or
        an infinite c (invalid) warns."""
        c, d = self.shape(t)
        m = np.expm1(-4.0 * self.G / d * r)
        A = _exponent(r + self.G, d, lambda x: x ** 2)
        with np.errstate(over="ignore", invalid="ignore"):
            D = -c * np.exp(A) * m
        if np.isfinite(D).all():
            return D
        with np.errstate(divide="ignore"):  # log(-m) is -inf at r = 0
            return np.where(np.isfinite(D), D, np.exp(np.log(c) + A + np.log(-m)))

    def conjugate_bound(self, u_norm, t):
        c, d = self.shape(t)
        return exp_conjugate_upper_bound(d / 2.0, c, u_norm)


@dataclass(frozen=True)
class NormalKnownTPotential(_ExpQuadratic):
    """Gaussian-smoothed exponential potential for a known horizon T."""

    eps: float
    a: float
    G: float
    T: int

    tag = "normal_knownT"
    value = _value

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.G > 0:
            raise ValueError("G must be positive")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        # a > pi G^2 / 2, in shape(0)'s own arithmetic, so that q_0 is finite also where a rounds onto the edge
        if not (self.a > 0.0 and 1.0 - math.pi * self.G * self.G * self.T / (2.0 * self.a * self.T) > 0.0):
            raise ValueError(
                f"require a > pi*G^2/2 = {math.pi * self.G * self.G / 2.0:.6g}, got a={self.a}"
            )

    def shape(self, t):
        _check_rounds(t, 0, self.T)
        shrink = math.pi * self.G * self.G * (self.T - t)
        pref = (1.0 - shrink / (2.0 * self.a * self.T)) ** -0.5
        return self.eps * pref, 2.0 * self.a * self.T - shrink

    def budget(self, t):
        return self.radial(0, 0.0 * t)


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
        if self.eps < sys.float_info.min:  # a subnormal eps: beta_t = eps / log^2(t+1) underflows to 0
            raise ValueError(f"eps must be at least {sys.float_info.min!r}, the smallest normal float64")
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

    def budget(self, t):
        """Round 1's bound, then the Gaussian steps (module docstring), summed."""
        s = np.arange(1, np.max(t, initial=1) + 1)
        beta = self.beta(s)
        steps = beta * (1.0 - SIGMA2 * self.G * self.G / (self.a * s)) ** -0.5
        steps[0] = beta[0] * math.exp(self.G * self.G / (2.0 * self.a))
        steps[1:] -= beta[:-1]
        return np.cumsum(steps)[np.asarray(t) - 1]


def exp_conjugate_upper_bound(alpha, beta, w_norm):
    """Closed-form envelope of the conjugate of beta*exp(x^2/(2 alpha)).

    Returns ||w|| sqrt(2 alpha log(sqrt(alpha) ||w|| / beta + 1)) - beta, which
    dominates the numeric conjugate for all alpha, beta > 0 and w.  Each
    argument is a number or an array; they broadcast.
    """
    alpha, beta, w_norm = np.asarray(alpha), np.asarray(beta), np.asarray(w_norm)
    if not (np.all(alpha > 0) and np.all(beta > 0)):
        raise ValueError("alpha and beta must be positive")
    if np.any(w_norm < 0):
        raise ValueError("w_norm must be nonnegative")
    return w_norm * np.sqrt(2.0 * alpha * np.log(np.sqrt(alpha) * w_norm / beta + 1.0)) - beta


def regret_bound(potential, u_norm, t):
    """budget(t) + conjugate_bound(u_norm, t), the ledger envelope of the
    module docstring: the regret of the player of ``potential`` after t
    rounds against every comparator of norm u_norm.  u_norm and t (>= 1, and
    <= T for a known horizon) are numbers or arrays; they broadcast, and two
    numbers give a float.  A conjugate that leaves the float64 range is
    VACUOUS (inf), silently.
    """
    u_norm = np.asarray(u_norm, dtype=np.float64)
    if np.any(u_norm < 0):
        raise ValueError("u_norm must be nonnegative")
    _check_rounds(t, 1, getattr(potential, "T", math.inf))
    with np.errstate(over="ignore"):
        bound = potential.budget(t) + potential.conjugate_bound(u_norm, t)
    return bound if np.ndim(bound) else float(bound)
