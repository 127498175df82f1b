"""The one-round game H = min_w max_{||g||<=G} <w,g> + h(||theta - g||).

For an even convex h increasing on [0, inf) there are two closed-form
regimes, distinguished by the sign of h''(x) - h'(x)/x:

* orthogonal (h'' <= h'/x, d > 1): the adversary plays any g orthogonal to
  theta at full norm, and H = h(sqrt(||theta||^2 + G^2));
* parallel (h'' >= h'/x, or d = 1): the adversary plays +-G along theta, and
  H = (h(||theta|| + G) + h(||theta|| - G)) / 2.

The independent numeric referee is ``minmax_values``, one kernel for the
scalar reduction min_a max_{b in [-G, G]} ab + h(x(r, b)), where r = ||theta||
and x is ||theta - g|| for a full-norm g with component b along theta:
sqrt(r^2 - 2 b r + G^2) when d >= 2, |r - b| when d = 1.  It solves a batch
of radii in lockstep: one table of h on a beta grid per block of radii, a
golden-section search on alpha that advances every radius by one new point
per step, and, inside each step, the best grid beta refined on a local grid
spanning its two neighbours.  ``solve_scalar_grid`` is the kernel at one
radius and validates both closed forms; the backward-induction oracle runs
it over a whole radial grid at each stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._search import INVPHI, eval_on_array, finite_difference
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


BLOCK = 32  # radii solved together
REFINE_N = 65  # points of the local beta grid that refines each argmax
_PROBE = np.arange(256.0)  # the alpha bracket's slope probes on [0, r + G], in steps of (r + G) / 255
_REFINE = np.linspace(0.0, 1.0, REFINE_N)


def plane_distance(r, beta, G):
    """||theta - g|| for ||theta|| = r and a full-norm g whose component along theta is beta (d >= 2)."""
    return np.sqrt(np.maximum(r * r - 2.0 * beta * r + G * G, 0.0))


def line_distance(r, beta, G):
    """|theta - g| for theta = r and g = beta on the line (d = 1)."""
    return np.abs(r - beta)


def minmax_values(h, xmap, radii, G: float, grid_n: int) -> np.ndarray:
    """min over alpha of max over beta in [-G, G] of alpha*beta + h(xmap(r, beta, G)), per radius r.

    All radii are solved in lockstep, BLOCK at a time, which bounds the
    temporaries at BLOCK x grid_n.  h is tabulated once on a grid_n-point beta
    grid.  The payoff is convex in alpha, so a golden-section search brackets
    alpha by [-L, L], L = 2 * (largest slope of h on [0, r + G]) + 1e-6, and
    stops at width 1e-11 * max(1, L); each step evaluates one new alpha per
    radius.  The inner max takes the best grid point and refines it on a
    REFINE_N-point grid spanning its two neighbours.  Every operation acts row
    by row, so a radius gets the same value alone as in a batch.
    """
    radii = np.asarray(radii, dtype=np.float64)
    betas = np.linspace(-G, G, grid_n)
    out = np.empty(radii.size)
    for s in range(0, radii.size, BLOCK):
        out[s:s + BLOCK] = _minmax_block(h, xmap, radii[s:s + BLOCK, None], G, betas)
    return out


def _minmax_block(h, xmap, r, G: float, betas: np.ndarray) -> np.ndarray:
    """``minmax_values`` for one block of radii r, shaped (m, 1)."""
    hvals = eval_on_array(h, xmap(r, betas, G))
    step = (r + G) / (_PROBE.size - 1)
    probe = _PROBE * step  # np.linspace(0, r + G, 256) row by row, bit for bit
    probe[:, -1:] = r + G
    max_slope = np.max(np.abs(np.diff(eval_on_array(h, probe), axis=1)), axis=1) / step[:, 0]
    L = 2.0 * max_slope + 1e-6
    tol = 1e-11 * np.maximum(1.0, L)

    rows = np.arange(r.shape[0])
    # the refinement interval of grid point k runs from its left to its right neighbour
    left_of = np.concatenate((betas[:1], betas[:-1]))[:, None]
    width_of = np.concatenate((betas[1:], betas[-1:]))[:, None] - left_of

    def psi(alpha):
        vals = alpha[:, None] * betas + hvals
        k = np.argmax(vals, axis=1)
        fine = left_of[k] + width_of[k] * _REFINE
        refined = alpha[:, None] * fine + eval_on_array(h, xmap(r, fine, G))
        return np.maximum(vals[rows, k], np.max(refined, axis=1))

    # golden-section search on alpha by the rule of _search.golden_section_min, row by row;
    # a row whose bracket is within its tolerance keeps its state
    a, b = -L, L
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = psi(c), psi(d)
    for _ in range(300):
        active = b - a > tol
        if not active.any():
            break
        left = fc < fd
        lo = np.where(left, a, c)
        hi = np.where(left, d, b)
        x = np.where(left, hi - INVPHI * (hi - lo), lo + INVPHI * (hi - lo))
        fx = psi(x)
        a, b, c, fc, d, fd = (np.where(active, new, old) for new, old in (
            (lo, a), (hi, b), (np.where(left, x, d), c), (np.where(left, fx, fd), fc),
            (np.where(left, c, x), d), (np.where(left, fc, fx), fd)))
    return np.where(fc < fd, fc, fd)


def solve_scalar_grid(spec: OneRoundSpec, grid_n: int = 1001) -> float:
    """Numeric one-round value via the scalar reduction (the grid oracle).

    The value min over alpha of max over beta in [-G, G] of alpha*beta +
    h(sqrt(||theta||^2 - 2 beta ||theta|| + G^2)) from ``minmax_values`` at
    the one radius ||theta||: golden-section search over the player scalar
    alpha, and a grid_n-point beta grid refined around its best point for
    the adversary scalar beta.  Valid for d >= 2 geometry; accuracy ~1e-3
    relative or better on the families used here.
    """
    if grid_n < 101:
        raise ValueError("grid_n must be >= 101")
    r = float(np.linalg.norm(spec.theta))
    return float(minmax_values(spec.h, plane_distance, [r], spec.G, grid_n)[0])


def lower_bound_value(spec: OneRoundSpec) -> float:
    """h(sqrt(||theta||^2 + G^2)), a lower bound on H whenever d >= 2."""
    if spec.theta.size < 2:
        raise UnsupportedDimensionError("lower bound requires dim >= 2")
    r = float(np.linalg.norm(spec.theta))
    return float(spec.h(np.sqrt(r * r + spec.G * spec.G)))
