"""Independent ground-truth machinery used to referee every closed form.

Nothing in this module reuses the closed-form potentials or strategies: the
game values come from brute backward induction over discretized states, the
expectations from exact binomial sums, Gauss-Hermite quadrature, or adaptive
quadrature, and the conjugates from golden-section search.  Tests and the
``verify`` suites compare these against the analytic implementations.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .one_round import eval_on_array, line_distance, minmax_values, plane_distance
from .one_round import solve_scalar_grid  # noqa: F401  (the benchmark's tracer wraps it by name here)

MAX_GH_NODES = 256
MIN_GH_NODES = 16
GH_STABILITY_RTOL = 1e-8
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # the golden section


class ResourceBudgetError(RuntimeError):
    """Requested exact computation exceeds the desk-scale budget."""


class DivergenceError(RuntimeError):
    """Quadrature failed to stabilize; the integral likely diverges."""


class BoundaryHitError(RuntimeError):
    """Numeric conjugate maximizer landed on the search boundary."""


def rademacher_smoothing_exact(f, x: float, tau: int, G: float) -> float:
    """E[f(|x + r_tau G|)] for r_tau a sum of tau fair +-1 coins, exactly.

    Binomial weights: sum_k C(tau, k) 2^-tau f(|x + (2k - tau) G|).
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if tau > 30:
        raise ResourceBudgetError("tau > 30 would need 2^tau-scale weights")
    if tau == 0:
        return float(f(abs(x)))
    scale = 0.5**tau
    total = 0.0
    for k in range(tau + 1):
        total += math.comb(tau, k) * scale * float(f(abs(x + (2 * k - tau) * G)))
    return total


def _call_safe(f, x: float) -> float:
    try:
        return float(f(x))
    except OverflowError:
        return math.inf


@lru_cache(maxsize=None)
def _gh_nodes(n: int):
    """Gauss-Hermite nodes and weights for n points, computed once per n and read-only."""
    z, w = np.polynomial.hermite.hermgauss(n)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


def _gh_eval(f, mean: float, variance: float, n: int) -> float:
    z, w = _gh_nodes(n)
    xs = mean + math.sqrt(2.0 * variance) * z
    vals = np.array([_call_safe(f, float(x)) for x in xs])
    return float(np.sum(w * vals) / math.sqrt(math.pi))


def _quad_fallback(f, mean: float, variance: float) -> float:
    from scipy import integrate  # here, not at module level: only this fallback uses scipy

    s = math.sqrt(variance)

    def integrand(z):
        return f(mean + s * z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    results = []
    for half_width in (12.0, 20.0):
        try:
            val, _ = integrate.quad(integrand, -half_width, half_width,
                                    limit=300, epsabs=0.0, epsrel=1e-12)
        except Exception as exc:  # overflow inside scipy
            raise DivergenceError(f"adaptive quadrature failed: {exc}") from exc
        if not math.isfinite(val):
            raise DivergenceError("adaptive quadrature returned a non-finite value")
        results.append(val)
    if abs(results[1] - results[0]) > 1e-9 * (abs(results[1]) + 1e-300):
        raise DivergenceError("Gaussian expectation has escaping mass; likely divergent")
    return results[1]


def gaussian_expectation(f, mean: float, variance: float, nodes: int = 64) -> float:
    """E[f(mean + phi)] for phi ~ N(0, variance).

    Gauss-Hermite with node doubling until successive estimates agree to
    1e-8 relative, capped at 256 nodes.  If the ladder keeps growing the
    integral is treated as divergent; if it merely creeps (nonsmooth f, e.g.
    |x|), an adaptive-quadrature fallback supplies the value.
    """
    if not variance > 0:
        raise ValueError("variance must be positive")
    if not MIN_GH_NODES <= nodes <= MAX_GH_NODES:
        raise ValueError(f"nodes must lie in [{MIN_GH_NODES}, {MAX_GH_NODES}]")
    ladder = [_gh_eval(f, mean, variance, nodes)]
    n = nodes
    while n < MAX_GH_NODES:
        n = min(2 * n, MAX_GH_NODES)
        ladder.append(_gh_eval(f, mean, variance, n))
        if math.isfinite(ladder[-1]) and \
                abs(ladder[-1] - ladder[-2]) <= GH_STABILITY_RTOL * (abs(ladder[-1]) + 1e-300):
            return ladder[-1]
    finite = all(math.isfinite(v) for v in ladder)
    magnitudes = [abs(v) + 1e-300 for v in ladder]
    if not finite or max(magnitudes) / min(magnitudes) > 10.0:
        raise DivergenceError("Gauss-Hermite ladder did not stabilize; integral likely diverges")
    return _quad_fallback(f, mean, variance)


def _convexity_precheck(f, lo: float = -5.0, hi: float = 5.0, n: int = 65) -> None:
    xs = np.linspace(lo, hi, n)
    h = xs[1] - xs[0]
    for x in xs[1:-1]:
        second = f(x + h) - 2.0 * f(x) + f(x - h)
        if second < -1e-7 * (abs(f(x)) + 1.0):
            raise ValueError(f"function is not convex near x={x:.3f}")


def gaussian_dominance_check(f, tol: float = 1e-8) -> bool:
    """Whether the fair-coin mean of a convex f is dominated by the N(0, pi/2) mean."""
    _convexity_precheck(f)
    lhs = 0.5 * (float(f(1.0)) + float(f(-1.0)))
    rhs = gaussian_expectation(f, 0.0, math.pi / 2.0)
    return lhs <= rhs + tol


def argmax_at_zero_check(eps: float, a: float, G: float, t: int, grid_n: int = 1000) -> bool:
    """Whether the Gaussian-step gap of the adaptive potential peaks at the origin.

    Evaluates D(x) = E_phi[beta_{t+1} exp((x + phi G)^2 / (2a(t+1)))]
    - beta_t exp(x^2/(2at)) on x in [0, 10 sqrt(at)] using the closed-form
    Gaussian expectation, and confirms the maximum sits at x = 0.
    """
    if not a > 3.0 * math.pi * G * G / 4.0:
        raise ValueError("requires a > 3*pi*G^2/4")
    if t < 1:
        raise ValueError("t must be >= 1")
    beta_t = eps / math.log(t + 1.0) ** 2
    beta_next = eps / math.log(t + 2.0) ** 2
    c = a * (t + 1.0)
    s2 = math.pi * G * G / 2.0
    pref = beta_next / math.sqrt(1.0 - s2 / c)
    xs = np.linspace(0.0, 10.0 * math.sqrt(a * t), grid_n)
    gap = pref * np.exp(xs * xs / (2.0 * (c - s2))) - beta_t * np.exp(xs * xs / (2.0 * a * t))
    return bool(np.all(gap <= gap[0] + 1e-12 * (1.0 + abs(gap[0]))))


@dataclass
class RecursionSpec:
    """Backward-induction oracle configuration (desk scale only).

    f is the scalar benchmark profile: B(theta) = f(||theta||).  dim selects
    the state geometry (1 or 2); n_r the radial grid resolution; grid_n the
    adversary-scalar resolution of the inner one-round solves; r_pad extra
    slack on the reachable radius.
    """

    f: Callable[[float], float]
    G: float
    T: int
    dim: int = 2
    n_r: int = 257
    grid_n: int = 513
    r_pad: float = 1.0

    def __post_init__(self):
        for name in ("T", "n_r", "grid_n"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.T < 1 or self.T > 6:
            raise ResourceBudgetError("recursion oracle supports 1 <= T <= 6")
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if not 0.0 < self.G < math.inf:
            raise ValueError("G must be positive and finite")
        if not 0.0 <= self.r_pad < math.inf:
            raise ValueError("r_pad must be nonnegative and finite")
        if self.n_r < 2:
            raise ValueError("n_r must be >= 2")
        if self.grid_n < 101:
            raise ValueError("grid_n must be >= 101")
        if self.n_r > 4097 or self.grid_n > 8193:
            raise ResourceBudgetError("grid resolution beyond the desk-scale budget")


def conditional_value_recursive(spec: RecursionSpec, t: int, theta) -> float:
    """Game value after round t at state theta, by backward induction.

    The value function is tabulated on a radial grid (the benchmark and the
    gradient ball are rotation invariant, so the value depends on theta only
    through its norm; tests/test_oracles.py cross-checks that reduction
    against a full 2-D solve).  Each stage solves the scalar one-round
    reduction against the interpolated table of the next stage, at every
    radius it needs at once, with ``one_round.minmax_values``.

    A stage tabulates only the grid prefix the stage before it reads.  Stage t
    needs the radii up to the first grid point >= ||theta||.  The solve at
    radius r reads the next table at xmap(r, beta, G) for beta in [-G, G],
    which is largest at beta = -G in floating point too, and at r + G (the
    slope probe), so stage s + 1 needs the radii up to the first grid point
    >= the larger of the two at stage s's last radius.  Every kernel row
    depends on its radius alone, and ``np.interp`` on a prefix that covers x
    returns the bits it returns on the whole grid, so the value is the one
    every stage solved on the whole grid would give.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if theta.shape != (spec.dim,) or not np.all(np.isfinite(theta)):
        raise ValueError(f"theta must be a finite vector of shape ({spec.dim},), got shape {theta.shape}")
    if not isinstance(t, numbers.Integral) or not 0 <= t <= spec.T:
        raise ValueError(f"t must be an integer in [0, T={spec.T}], got {t!r}")
    r0 = float(np.linalg.norm(theta))
    r_max = r0 + spec.G * (spec.T - t + 1) + spec.r_pad
    grid = np.linspace(0.0, r_max, spec.n_r)
    xmap = plane_distance if spec.dim == 2 else line_distance
    rows = [int(np.searchsorted(grid, r0)) + 1]  # rows[k]: the grid points the table of stage t + k needs
    for _ in range(spec.T - t):
        r = grid[rows[-1] - 1]
        reach = max(r + spec.G, float(xmap(r, -spec.G, spec.G)))
        rows.append(min(spec.n_r, int(np.searchsorted(grid, reach)) + 1))
    # f on the whole grid (one cheap call): a profile whose bits depend on the array's length cannot move the value
    table = eval_on_array(spec.f, grid)[:rows[-1]]
    for n in reversed(rows[:-1]):
        table = minmax_values(lambda xs, tab=table: np.interp(xs, grid[:tab.size], tab),
                              xmap, grid[:n], spec.G, spec.grid_n)
    return float(np.interp(r0, grid[:table.size], table))


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 300):
    """The maximum of a unimodal scalar function on [lo, hi].

    The bracket shrinks by the golden ratio per iteration, so ~60 iterations
    reduce it by 1e-12; max_iter is a guard.
    """
    a, b = float(lo), float(hi)
    if not b >= a:
        raise ValueError("need hi >= lo")
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return fc if fc > fd else fd


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

    v = golden_section_max(objective, 0.0, hi, tol=min(tol, 1e-10 * (1.0 + hi)))
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
