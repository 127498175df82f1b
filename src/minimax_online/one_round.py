"""The one-round game H = min_w max_{||g||<=G} <w,g> + h(||theta - g||).

For an even convex h increasing on [0, inf) there are two closed-form
regimes, distinguished by the sign of h''(x) - h'(x)/x:

* orthogonal (h'' <= h'/x, d > 1): the adversary plays any g orthogonal to
  theta at full norm, and H = h(sqrt(||theta||^2 + G^2));
* parallel (h'' >= h'/x, or d = 1): the adversary plays +-G along theta, and
  H = (h(||theta|| + G) + h(||theta|| - G)) / 2.

Only the values live here.  The plays are ``strategies.PotentialPlayer``'s
and the minimax adversaries'; ``checks.player`` holds both to the kernel below.

The independent numeric referee is ``minmax_values``, one kernel for the
scalar reduction min_a max_{b in [-G, G]} ab + h(x(r, b)), where r = ||theta||
and x is ||theta - g|| for a full-norm g with component b along theta:
sqrt(r^2 - 2 b r + G^2) when d >= 2, |r - b| when d = 1.  It solves a batch
of radii in lockstep: one table of h on a beta grid per block of radii, and a
safeguarded cutting-plane search on alpha (Kelley 1960).  Each step
evaluates one alpha per radius: the best grid beta, refined on a local grid
spanning its two neighbours, gives the payoff and its maximizing beta, a
subgradient, so the payoff's tangent line there.  The next alpha is where the
lines at the two ends of the bracket cross, or the midpoint; the crossing
value is a certified lower bound that stops a radius early.  The preamble
and the loop are written once, over five operations spelled for arrays or,
for a block of one radius, for Python floats; both give the same bits.  ``worst_case_payoff`` is
that inner max at given alphas: the payoff of a play alpha * theta_hat
against its best reply.  ``solve_scalar_grid`` is the kernel at one radius
and validates both closed forms; the backward-induction oracle runs the
kernel over the radial grid at each stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ORTHOGONAL, PARALLEL, UnsupportedDimensionError, row_norms

NUMERIC = "numeric"


@dataclass
class OneRoundSpec:
    """One-round game data: scalar profile h, state theta, gradient bound G.

    h must be even, convex, and increasing on [0, inf); it is always evaluated
    at nonnegative arguments here.  theta must be finite and G finite and > 0
    (ValueError).
    """

    h: Callable[[float], float]
    theta: np.ndarray
    G: float

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta must be finite")
        if not 0 < self.G < np.inf:
            raise ValueError("G must be positive and finite")


@dataclass
class OneRoundSolution:
    value: float
    regime: str


REGIME_TOL = 1e-6  # classify_regime's relative slack on h'' against h'/x


def finite_difference(f, x: float, order: int = 1) -> float:
    """Central difference of order 1 or 2 with step 1e-5 * max(|x|, 1)."""
    h = 1e-5 * max(abs(x), 1.0)
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    raise ValueError("order must be 1 or 2")


def classify_regime(h, probe_grid) -> str:
    """Tag h as orthogonal / parallel / numeric from its derivative ratio by central differences,
    whose slack adds the second difference's rounding floor.

    A quadratic h satisfies both conditions with equality; the boundary case
    is tagged parallel (both closed forms coincide there).
    """
    probes = np.asarray(probe_grid, dtype=np.float64)
    if probes.size < 32:
        raise ValueError("probe_grid must contain at least 32 points")
    if np.any(probes <= 0):
        raise ValueError("probe points must be positive")
    ortho_ok = par_ok = True
    for x in probes:
        x = float(x)
        ratio = finite_difference(h, x, 1) / x
        second = finite_difference(h, x, 2)
        step = 1e-5 * max(abs(x), 1.0)
        slack = (REGIME_TOL * (1.0 + abs(ratio) + abs(second))
                 + 32.0 * np.finfo(float).eps * (abs(float(h(x))) + 1.0) / (step * step))
        if second > ratio + slack:
            ortho_ok = False
        if second < ratio - slack:
            par_ok = False
    return PARALLEL if par_ok else ORTHOGONAL if ortho_ok else NUMERIC


def _theta_norm(theta: np.ndarray) -> float:
    """||theta||: np.linalg.norm's value where that is finite, bit for bit, else ``row_norms``' exact
    one (where the squares overflow), with no warning."""
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(theta))
    return r if r < math.inf else float(row_norms(theta))


def solve_orthogonal(spec: OneRoundSpec) -> OneRoundSolution:
    """The orthogonal regime's value h(sqrt(||theta||^2 + G^2)), by hypot where the squares overflow;
    requires dim >= 2."""
    if spec.theta.size < 2:
        raise UnsupportedDimensionError("orthogonal regime requires dim >= 2")
    r = _theta_norm(spec.theta)
    s = r * r + spec.G * spec.G
    return OneRoundSolution(float(spec.h(np.sqrt(s) if s < math.inf else np.hypot(r, spec.G))), ORTHOGONAL)


def solve_parallel(spec: OneRoundSpec) -> OneRoundSolution:
    """The parallel regime's value (h(||theta|| + G) + h(||theta|| - G)) / 2 (any dim, including d = 1)."""
    r = _theta_norm(spec.theta)
    return OneRoundSolution(0.5 * (float(spec.h(r + spec.G)) + float(spec.h(abs(r - spec.G)))), PARALLEL)


BLOCK = 32  # radii solved together
REFINE_N = 65  # points of the local beta grid that refines each argmax
_PROBE = np.arange(256.0)[None]  # the alpha bracket's slope probes on [0, r + G], in steps of (r + G) / 255
_REFINE = np.linspace(0.0, 1.0, REFINE_N)[None]  # one row: a lone radius's grid is (1, REFINE_N)
_ROOM = 2.0 ** 1019  # float64's maximum / 32: what the cutting planes' magnitudes may reach


def eval_on_array(f, xs) -> np.ndarray:
    """f at every entry of xs: one vectorized call when f accepts arrays, else entry by entry."""
    arr = np.asarray(xs, dtype=np.float64)
    try:
        vals = np.asarray(f(arr), dtype=np.float64)
        if vals.shape == arr.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([float(f(float(x))) for x in arr.ravel()]).reshape(arr.shape)


def plane_distance(r, beta, G):
    """||theta - g|| for ||theta|| = r and a full-norm g whose component along theta is beta (d >= 2)."""
    return np.sqrt(np.maximum(r * r - 2.0 * beta * r + G * G, 0.0))


def line_distance(r, beta, G):
    """|theta - g| for theta = r and g = beta on the line (d = 1)."""
    return np.abs(r - beta)


def _by_block(radii, G: float, grid_n: int, solve) -> np.ndarray:
    """solve(rows, radii[rows] shaped (m, 1), the grid_n-point beta grid) for each slice rows of BLOCK
    radii, which bounds the temporaries at BLOCK x grid_n; ValueError unless radii >= 0 and 0 < G < inf."""
    radii = np.asarray(radii, dtype=np.float64)
    if not np.all((0.0 <= radii) & (radii < np.inf)):
        raise ValueError("radii must be nonnegative and finite")
    if not 0 < G < np.inf:
        raise ValueError("G must be positive and finite")
    betas = np.linspace(-G, G, grid_n)
    out = np.empty(radii.size)
    for s in range(0, radii.size, BLOCK):
        rows = slice(s, s + BLOCK)
        out[rows] = solve(rows, radii[rows, None], betas)
    return out


def minmax_values(h, xmap, radii, G: float, grid_n: int) -> np.ndarray:
    """min over alpha of max over beta in [-G, G] of alpha*beta + h(xmap(r, beta, G)), per radius r.

    Radii are solved BLOCK at a time, in lockstep.  A block of one radius
    (every ``solve_scalar_grid`` call) computes its step, L, tol and rescale
    test after the h table on Python floats, runs the same loop on them, and
    calls h on a refinement grid once per distinct coarse argmax, reusing
    that grid and h's values on it when an evaluation repeats the argmax.
    h is tabulated once on a grid_n-point beta grid.  The payoff is convex in
    alpha and, by Danskin's theorem, the beta attaining the inner max is a
    subgradient of it: the evaluation at alpha gives the line value + beta
    (alpha' - alpha) below the payoff, and beta < 0 puts the minimum right of
    alpha, beta >= 0 left of it.  The bracket starts at [-L, L], L = 2 *
    (largest slope of h on [0, r + G]) + 1e-6, and each end keeps the line
    of the evaluation that set it.  Each step evaluates one alpha per radius:
    where the two lines cross, if that is inside the bracket and the bracket
    has kept the pace of one halving per two evaluations, else the midpoint.
    A radius stops when its bracket is within tol = 1e-11 * max(1, L) or when
    its best payoff is within 1e-3 * G * tol of the lines' value where they
    cross, a lower bound on the minimum.  The pace rule caps a solve at 77
    evaluations, twice bisection's 38 halvings plus one; smooth and piecewise
    linear payoffs take about 4-20.  The value is the smallest payoff
    evaluated.  The inner max is ``_inner_max`` (``_inner_max_one`` alone).  Every operation acts row by
    row, and its Python-float spelling does the same arithmetic in the same
    order, with np.minimum's and np.maximum's NaN rules and argmax's first
    index, so a radius gets the same value alone as in a batch, bit for bit.
    Radii must be finite and >= 0 and G finite and > 0 (ValueError); a NaN
    payoff gives NaN, and an h that overflows to inf on [0, r + G], or whose
    slope there does, gives inf.  A radius whose h and slope are finite there
    but whose bracket or payoffs would not be (h near the float64 maximum) is
    solved with h, and so alpha, divided by a power of two, which is exact, and
    gives its finite value, with no warning, alone as in a batch.
    """
    return _by_block(radii, G, grid_n, lambda rows, r, betas: _minmax_block(h, xmap, r, G, betas))


def worst_case_payoff(h, xmap, radii, G: float, alphas, grid_n: int) -> np.ndarray:
    """max over beta in [-G, G] of alpha*beta + h(xmap(r, beta, G)) for each
    radius r and its alpha (alphas broadcasts against radii): the payoff of
    the play alpha * theta_hat against the best reply, by ``minmax_values``'
    inner max on the same grid_n-point beta grid."""
    alphas = np.broadcast_to(np.asarray(alphas, dtype=np.float64), np.shape(radii))
    return _by_block(radii, G, grid_n, lambda rows, r, betas: _inner_max(
        h, xmap, r, G, betas, eval_on_array(h, xmap(r, betas, G)), alphas[rows])[0])


def _inner_max(h, xmap, r, G: float, betas: np.ndarray, hvals: np.ndarray, alpha: np.ndarray):
    """max over beta of alpha*beta + h(xmap(r, beta, G)) for each row of r (m, 1) at its alpha, and
    the beta attaining it: the best point of the grid betas, where h is hvals (m, grid_n), refined on
    a REFINE_N-point grid spanning its two neighbours."""
    rows = np.arange(r.shape[0])
    vals = alpha[:, None] * betas + hvals
    k = vals.argmax(axis=1)
    left = betas[np.maximum(k - 1, 0), None]
    fine = left + (betas[np.minimum(k + 1, betas.size - 1), None] - left) * _REFINE
    refined = alpha[:, None] * fine + eval_on_array(h, xmap(r, fine, G))
    j = refined.argmax(axis=1)
    coarse_top, fine_top = vals[rows, k], refined[rows, j]
    return np.maximum(coarse_top, fine_top), np.where(fine_top > coarse_top, fine[rows, j], betas[k])


def _minmax_block(h, xmap, r, G: float, betas: np.ndarray) -> np.ndarray:
    """``minmax_values`` for one block of radii r, shaped (m, 1): the h table, slope probe, L and tol
    of every radius, then ``_planes`` on the block's arrays.  A lone radius takes all of it after the
    h table on Python floats (on (1,) arrays numpy's call overhead would triple a solve's cost)."""
    hvals = eval_on_array(h, xmap(r, betas, G))
    lone = r.shape[0] == 1
    where, _, maximum, any_, isfinite = ops = _FLOAT_OPS if lone else _ARRAY_OPS
    radius = r[0, 0].item() if lone else r
    step = (radius + G) / (_PROBE.size - 1)
    probe = _PROBE * step  # np.linspace(0, r + G, 256) row by row, bit for bit
    probe[:, -1:] = radius + G
    hprobe = eval_on_array(h, probe)
    top = np.abs(hprobe).max(axis=1)  # NaN if the probe holds a NaN, else inf if it holds an inf
    # h or its slope overflows on the probe, or the bound below does
    with np.errstate(over="ignore", invalid="ignore"):
        max_slope = np.abs(np.diff(hprobe, axis=1)).max(axis=1) / (step if lone else step[:, 0])
        if lone:
            top, max_slope = top.item(), max_slope.item()
        L = 2.0 * where(isfinite(top), max_slope, top) + 1e-6
        tol = 1e-11 * maximum(1.0, L)
        # every magnitude of the cutting planes (a payoff, a line's value, the bracket's width) is at
        # most 4 (G + 2) max(L, top); a block with a row where that passes _ROOM is solved again with
        # that row's h divided by a power of two, and so its alphas too, which is exact, so that none
        # leaves float64
        scaled = isfinite(L) & (4.0 * (G + 2.0) * maximum(L, top) > _ROOM)
    if any_(scaled):
        L, top, scaled = np.atleast_1d(L, top, scaled)  # a lone radius's floats as a block's arrays
        shift = np.ceil(np.log2(4.0 * (G + 2.0)) + np.log2(np.maximum(L, top)) - math.log2(_ROOM))
        scale = np.ldexp(1.0, np.where(scaled, np.minimum(shift, 1023.0), 0.0).astype(int))[:, None]
        return _minmax_block(lambda x: eval_on_array(h, x) / scale, xmap, r, G, betas) * scale[:, 0]
    if lone:
        seen = {}  # the refinement grid and h on it, per coarse argmax, for this solve
        inner = lambda a: _inner_max_one(h, xmap, radius, G, betas, hvals[0], a, seen)
        return np.array([_planes(L, tol, G, inner, ops)])
    return _planes(L, tol, G, lambda a: _inner_max(h, xmap, r, G, betas, hvals, a), ops)


def _minimum(x: float, y: float) -> float:
    """np.minimum on two floats: NaN if either is NaN, else y unless x < y."""
    return x if x < y or x != x else y


def _maximum(x: float, y: float) -> float:
    """np.maximum on two floats: NaN if either is NaN, else y unless x > y."""
    return x if x > y or x != x else y


# the five operations of a block's preamble and cutting planes: (where, minimum, maximum, any, isfinite)
_ARRAY_OPS = (np.where, np.minimum, np.maximum, np.ndarray.any, np.isfinite)
_FLOAT_OPS = (lambda c, x, y: x if c else y, _minimum, _maximum, bool, math.isfinite)


def _planes(L, tol, G: float, inner, ops):
    """The cutting planes on alpha from the bracket [-L, L] to tol, where inner(alpha) is the inner
    max and its maximizing beta: on arrays, a block's radii in lockstep (ops ``_ARRAY_OPS``), or on
    Python floats, a lone radius (``_FLOAT_OPS``).  Both spellings of the ops do the same
    arithmetic in the same order, so a radius gets the same value either way, bit for bit."""
    where, minimum, _, any_, isfinite = ops
    # an evaluation at x gives beta < 0 (the minimum is right of x: x becomes a) or
    # beta >= 0 or NaN (x becomes b); each end keeps the line value + beta (alpha - x) of
    # the evaluation that set it, NaN until one has.  A stopped row keeps its state.  A
    # NaN or infinite slope (h is NaN or overflows on the probe) makes its row's value L,
    # NaN or inf: its bracket is NaN, so that it never steps and its midpoint is NaN
    # without a warning
    a = -where(isfinite(L), L, math.nan)
    b = -a
    va = ga = vb = gb = cross = math.nan
    best = where(isfinite(L), math.inf, L)
    lower = -math.inf
    for n in range(300):
        active = (b - a > tol) & (best - lower > 1e-3 * G * tol)
        if not any_(active):
            break
        # cut where the two lines cross while the bracket keeps the pace of one halving per
        # two evaluations; the midpoint otherwise
        cutting = (b - a <= 2.0 * L * 0.5 ** (0.5 * n)) & (cross > a) & (cross < b)
        x = where(cutting, cross, 0.5 * (a + b))
        value, beta = inner(x)
        best = where(active, minimum(best, value), best)
        right = active & (beta < 0.0)
        left = active ^ right  # the other active rows, a NaN beta's too (~True is -2, not False)
        a, va, ga = where(right, x, a), where(right, value, va), where(right, beta, ga)
        b, vb, gb = where(left, x, b), where(left, value, vb), where(left, beta, gb)
        # no division is by zero: both ends are set only with ga < 0 <= gb, and an unset
        # end's NaN slope makes the crossing NaN
        cross = (vb - va + ga * a - gb * b) / (ga - gb)
        # both lines lie below the payoff, so their value where they cross bounds its minimum
        lower = where(active & (ga < 0.0) & (gb >= 0.0),
                      minimum(va + ga * (cross - a), vb + gb * (cross - b)), lower)
    return best


def _inner_max_one(h, xmap, r: float, G: float, betas: np.ndarray, hrow: np.ndarray, alpha: float,
                   seen: dict):
    """``_inner_max`` for a lone radius r, whose h table is hrow, as two floats.  seen holds, per
    coarse argmax k, the refinement grid and h on it, so that h is called once per distinct k in a
    solve; h sees the same (1, REFINE_N) array as in a batch, and argmax keeps its first index on a
    tie or NaN."""
    vals = alpha * betas + hrow
    k = vals.argmax()
    if k not in seen:
        left = betas.item(max(k - 1, 0))
        fine = left + (betas.item(min(k + 1, betas.size - 1)) - left) * _REFINE
        seen[k] = fine, eval_on_array(h, xmap(r, fine, G))
    fine, hfine = seen[k]
    refined = alpha * fine + hfine
    j = refined.argmax()
    coarse_top, fine_top = vals.item(k), refined.item(j)
    return _maximum(coarse_top, fine_top), fine.item(j) if fine_top > coarse_top else betas.item(k)


def solve_scalar_grid(spec: OneRoundSpec) -> float:
    """Numeric one-round value via the scalar reduction (the grid oracle).

    The value min over alpha of max over beta in [-G, G] of alpha*beta +
    h(||theta - g||) from ``minmax_values`` at the one radius ||theta||, on
    Python floats after the h table (the value a batch gives that radius, bit
    for bit), with h called once per distinct coarse argmax:
    cutting planes from the maximizing beta (a subgradient) over the player
    scalar alpha, and a 1001-point beta grid refined around its best point
    for the adversary scalar beta.  ||theta - g|| is ``line_distance`` when
    theta has one coordinate and ``plane_distance`` otherwise; accuracy ~1e-3
    relative or better on the families used here.  ||theta|| is exact where
    its squares overflow.  At d >= 2, where ``plane_distance`` squares ||theta - g||,
    at most ||theta|| + G, ValueError past sqrt(float64 max): one that names
    ||theta|| where its square leaves float64, else one that names G.
    """
    r, G = _theta_norm(spec.theta), spec.G
    if spec.theta.size > 1 and not (r + G) * (r + G) < math.inf:
        limit = math.sqrt(np.finfo(float).max)
        if not r * r < math.inf:
            raise ValueError(f"||theta|| = {r:.6g} is past the grid oracle's range at d >= 2: plane_distance "
                             f"needs ||theta||^2 finite, ||theta|| <= {limit:.6g}")
        raise ValueError(f"G = {G:.6g} is past the grid oracle's range at ||theta|| = {r:.6g}, d >= 2: "
                         f"plane_distance needs (||theta|| + G)^2 finite, ||theta|| + G <= {limit:.6g}")
    xmap = line_distance if spec.theta.size == 1 else plane_distance
    return float(minmax_values(spec.h, xmap, [r], spec.G, 1001)[0])
