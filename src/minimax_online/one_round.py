"""The one-round game H = min_w max_{||g||<=G} <w,g> + h(||theta - g||).

For an even convex h increasing on [0, inf) there are two closed-form
regimes, distinguished by the sign of h''(x) - h'(x)/x:

* orthogonal (h'' <= h'/x, d > 1): the adversary plays any g orthogonal to
  theta at full norm, and H = h(sqrt(||theta||^2 + G^2));
* parallel (h'' >= h'/x, or d = 1): the adversary plays +-G along theta, and
  H = (h(||theta|| + G) + h(||theta|| - G)) / 2.

``solve_scalar_grid`` is the independent numeric referee: it evaluates the
equivalent scalar reduction min_a max_{b in [-G, G]} ab +
h(sqrt(||theta||^2 - 2 b ||theta|| + G^2)) by nested search, and is used to
validate both closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._search import eval_on_array, finite_difference, golden_section_max, golden_section_min
from .core import (
    UnsupportedDimensionError,
    fallback_direction,
    make_rng,
    orthonormal_complement_sample,
    unit_direction,
)

ORTHOGONAL = "orthogonal"
PARALLEL = "parallel"
NUMERIC = "numeric"


@dataclass
class OneRoundSpec:
    """One-round game data: scalar profile h, state theta, gradient bound G.

    h must be even, convex, and increasing on [0, inf); it is always evaluated
    at nonnegative arguments here.  Optional derivative handles sharpen the
    closed forms; central differences are used when absent.
    """

    h: Callable[[float], float]
    theta: np.ndarray
    G: float
    h_prime: Optional[Callable[[float], float]] = None
    h_second: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if not self.G > 0:
            raise ValueError("G must be positive")


@dataclass
class OneRoundSolution:
    value: float
    player_play: np.ndarray
    adversary_play: np.ndarray
    regime: str


def classify_regime(h, probe_grid, h_prime=None, h_second=None, tol: float = 1e-6) -> str:
    """Tag h as orthogonal / parallel / numeric from its derivative ratio.

    A quadratic h satisfies both conditions with equality; the boundary case
    is tagged parallel (both closed forms coincide there).
    """
    probes = np.asarray(probe_grid, dtype=np.float64)
    if probes.size < 32:
        raise ValueError("probe_grid must contain at least 32 points")
    if np.any(probes <= 0):
        raise ValueError("probe points must be positive")
    d1 = h_prime if h_prime is not None else (lambda x: finite_difference(h, x, 1))
    d2 = h_second if h_second is not None else (lambda x: finite_difference(h, x, 2))
    numeric_second = h_second is None
    ortho_ok = True
    par_ok = True
    for x in probes:
        x = float(x)
        ratio = d1(x) / x
        second = d2(x)
        slack = tol * (1.0 + abs(ratio) + abs(second))
        if numeric_second:
            # rounding floor of the central second difference
            step = 1e-5 * max(abs(x), 1.0)
            slack += 32.0 * np.finfo(float).eps * (abs(float(h(x))) + 1.0) / (step * step)
        if second > ratio + slack:
            ortho_ok = False
        if second < ratio - slack:
            par_ok = False
    if par_ok:
        return PARALLEL
    if ortho_ok:
        return ORTHOGONAL
    return NUMERIC


def solve_orthogonal(spec: OneRoundSpec, rng: Optional[np.random.Generator] = None) -> OneRoundSolution:
    """Closed form for the orthogonal regime (requires dim >= 2)."""
    if spec.theta.size < 2:
        raise UnsupportedDimensionError("orthogonal regime requires dim >= 2")
    if rng is None:
        rng = make_rng(0)
    r = float(np.linalg.norm(spec.theta))
    s = np.sqrt(r * r + spec.G * spec.G)
    slope = spec.h_prime(s) if spec.h_prime is not None else finite_difference(spec.h, s)
    w_star = spec.theta * (slope / s)
    g_star = spec.G * orthonormal_complement_sample(spec.theta, rng)
    return OneRoundSolution(float(spec.h(s)), w_star, g_star, ORTHOGONAL)


def solve_parallel(
    spec: OneRoundSpec,
    sign: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> OneRoundSolution:
    """Closed form for the parallel regime (any dim, including d = 1).

    The adversary play is sign * G * theta_hat; both signs are optimal, and
    sign=+1 (shrinking ||theta||) is the default.  When theta = 0 the play is
    G along the first axis, or a random unit direction if rng is given.
    """
    if sign not in (1.0, -1.0):
        raise ValueError("sign must be +1 or -1")
    r = float(np.linalg.norm(spec.theta))
    hi = float(spec.h(r + spec.G))
    lo = float(spec.h(abs(r - spec.G)))  # h is even
    value = 0.5 * (hi + lo)
    that = unit_direction(spec.theta)
    w_star = that * ((hi - lo) / (2.0 * spec.G))
    g_star = spec.G * fallback_direction(spec.theta.size, rng) if r == 0.0 else sign * spec.G * that
    return OneRoundSolution(value, w_star, g_star, PARALLEL)


def _inner_max(h, alpha: float, r: float, G: float, betas: np.ndarray, hvals: np.ndarray) -> float:
    """max over beta in [-G, G] of alpha*beta + h(x(beta)), grid + refinement."""
    vals = alpha * betas + hvals
    k = int(np.argmax(vals))
    lo = betas[max(k - 1, 0)]
    hi = betas[min(k + 1, betas.size - 1)]
    if hi - lo <= 0:
        return float(vals[k])

    def payoff(b):
        x = np.sqrt(max(r * r - 2.0 * b * r + G * G, 0.0))
        return alpha * b + float(h(x))

    _, refined = golden_section_max(payoff, lo, hi, tol=1e-12 * max(1.0, G))
    return max(float(vals[k]), refined)


def solve_scalar_grid(spec: OneRoundSpec, grid_n: int = 1001) -> float:
    """Numeric one-round value via the scalar reduction (the grid oracle).

    Nested search: golden-section over the player scalar alpha (the payoff is
    convex in alpha), dense grid plus local refinement over the adversary
    scalar beta.  Valid for d >= 2 geometry; accuracy ~1e-3 relative or
    better on the families used here.
    """
    if grid_n < 101:
        raise ValueError("grid_n must be >= 101")
    r = float(np.linalg.norm(spec.theta))
    G = spec.G
    betas = np.linspace(-G, G, grid_n)
    xs = np.sqrt(np.maximum(r * r - 2.0 * betas * r + G * G, 0.0))
    hvals = eval_on_array(spec.h, xs)
    # alpha bracket from the largest slope of h over the reachable range
    probe = np.linspace(0.0, r + G, 256)
    hp = eval_on_array(spec.h, probe)
    max_slope = float(np.max(np.abs(np.diff(hp)))) / (probe[1] - probe[0]) if r + G > 0 else 0.0
    L = 2.0 * max_slope + 1e-6

    def psi(alpha):
        return _inner_max(spec.h, alpha, r, G, betas, hvals)

    _, value = golden_section_min(psi, -L, L, tol=1e-11 * max(1.0, L))
    return float(value)


def lower_bound_value(spec: OneRoundSpec) -> float:
    """h(sqrt(||theta||^2 + G^2)), a lower bound on H whenever d >= 2."""
    if spec.theta.size < 2:
        raise UnsupportedDimensionError("lower bound requires dim >= 2")
    r = float(np.linalg.norm(spec.theta))
    return float(spec.h(np.sqrt(r * r + spec.G * spec.G)))
