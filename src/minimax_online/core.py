"""Vector arithmetic, direction conventions, and deterministic randomness.

All state vectors live in R^d as float64 numpy arrays.  Conventions used
throughout the package: the player's plays w, the adversary's gradients g,
the cumulative negative-gradient state theta = -sum(g), and comparators u
are all plain 1-D arrays of the same dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

UNKNOWN_HORIZON = "unknown"

# The two one-round regimes a potential declares (see ``one_round``): here, so
# that the players import them without the one-round solvers.
ORTHOGONAL = "orthogonal"
PARALLEL = "parallel"

Point = np.ndarray


class DimensionMismatchError(ValueError):
    """Two vectors with different dimensions were combined."""


class UnsupportedDimensionError(ValueError):
    """Operation requires a higher-dimensional space (typically d >= 2)."""


# Within this range ||a||^2 is a normal float64, so the root of the summed
# squares is exact to rounding.
_NORM_SAFE_MIN = 1e-150
_NORM_SAFE_MAX = 1e150
# up to this many norms, Python's min and max of a list test the range faster than numpy's two reductions
# (about 2.2 us each call, where the list takes 0.6 us at 4 norms and 2.3 us at 48): a round's (R, d) rows
# take the list, a (R, T, d) block the reductions
_LIST_SCAN_MAX = 48


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of a, exact to rounding for every
    finite float64 row.  Inside [1e-150, 1e150] a norm is the root of the
    summed squares; a row outside it, whose squared coordinates would
    underflow or overflow, is first divided by its largest |a_i|.  The squares
    are summed by np.einsum, which raises no floating-point error when they
    overflow, and each row's norm depends on that row alone.  A row with an
    infinite coordinate has norm inf and a row with a NaN has norm NaN, as
    with np.linalg.norm, and neither warns."""
    n = np.sqrt(np.einsum("...i,...i->...", a, a))
    if n.size > _LIST_SCAN_MAX:  # a NaN fails both tests, and its row then keeps its NaN
        inside = _NORM_SAFE_MIN <= n.min() and n.max() <= _NORM_SAFE_MAX
    else:  # Python's min and max skip a NaN that is not first, but never an out-of-range norm
        listed = n.ravel().tolist()
        inside = not listed or (_NORM_SAFE_MIN <= min(listed) and max(listed) <= _NORM_SAFE_MAX)
    if not inside:
        n = np.array(n)  # writable, also for a single row
        outside = (n < _NORM_SAFE_MIN) | (n > _NORM_SAFE_MAX)
        rows = a[outside]  # only these rows are rescaled
        scale = np.abs(rows).max(axis=-1, initial=0.0)
        b = rows / np.where((scale > 0.0) & (scale < np.inf), scale, 1.0)[:, None]  # an infinite row stays as it is
        with np.errstate(over="ignore"):  # a finite row past float64's range: inf
            n[outside] = scale * np.sqrt(np.einsum("ij,ij->i", b, b))
    return n


def nonzero_norms(r) -> np.ndarray:
    """r with each 0 replaced by 5e-324, the smallest subnormal, which no
    positive norm is below: dividing a state by it maps theta = 0 to 0 and
    leaves every other row as it was."""
    return np.maximum(r, 5e-324)


def norm(a: Point) -> float:
    """Euclidean norm ||a||, exact to rounding for every finite float64 vector:
    ``row_norms`` of one row, bit for bit, so that a one-state computation and
    a batch one take the same norms.  Inside the safe range it skips
    row_norms' array steps."""
    a = np.asarray(a, dtype=np.float64)
    n = math.sqrt(np.einsum("...i,...i->...", a, a))
    return n if _NORM_SAFE_MIN <= n <= _NORM_SAFE_MAX else float(row_norms(a))


def linalg_norms(a: np.ndarray) -> np.ndarray:
    """The norm of each row of the (n, d) array a as a sweep spells it (u_norm, a
    trace CSV's theta_norm), with no warning: np.linalg.norm's bits inside [1e-150,
    1e150] (its 1-D dot is the matmul of a (1, d) row by its (d, 1) column), and
    ``row_norms``' outside, where np.linalg.norm's squares overflow or underflow."""
    with np.errstate(over="ignore"):
        n = np.sqrt(np.matmul(a[:, None, :], a[:, :, None])).ravel()
    outside = ~((n >= _NORM_SAFE_MIN) & (n <= _NORM_SAFE_MAX))
    n[outside] = row_norms(a[outside])
    return n


def unit_direction(theta: Point) -> Point:
    """theta / ||theta||, or the zero vector when theta is the zero vector.

    Exact for every finite float64 theta, because ``norm`` is; a theta whose
    norm is below 1e-150 is first divided by its largest |theta_i|, because a
    subnormal norm has too few digits to divide by.  A theta whose norm is
    inf is divided by its largest |theta_i| as well, or, when that is inf,
    replaced by the signs of its infinite coordinates; a theta with a NaN gives
    all NaN.  An infinite or NaN coordinate raises no warning here.
    """
    theta = np.asarray(theta, dtype=np.float64)
    n = norm(theta)
    if n == 0.0:
        return np.zeros_like(theta)
    if n < _NORM_SAFE_MIN:
        theta = theta / np.abs(theta).max()
        n = norm(theta)
    elif n == np.inf:
        m = np.abs(theta).max()
        theta = theta / m if m < np.inf else np.where(np.isinf(theta), np.sign(theta), 0.0)
        n = norm(theta)
    return theta / n


def unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of the (n, d) array v divided by its norm, in place; a row of
    norm below 1e-12 becomes e_1."""
    n = row_norms(v)
    if n.min(initial=1.0) < 1e-12:  # a probability-zero draw: a fixed answer, so a row reads d normals
        small = n < 1e-12
        v[small], n[small] = np.eye(1, v.shape[1]), 1.0
    v /= n[:, None]
    return v


def random_unit_vector(rng: np.random.Generator, dim: int) -> Point:
    """A uniformly random unit vector: one standard_normal(dim) draw,
    normalized by ``unit_rows`` (e_1 where its norm is below 1e-12)."""
    return unit_rows(rng.standard_normal((1, dim)))[0]


def complement_rows(theta: np.ndarray, r: np.ndarray, rngs) -> np.ndarray:
    """A unit vector orthogonal to each row of theta (R, d), whose norms are
    r; row k reads only rngs[k].  Requires d >= 2.

    In d = 2 a row's vector is its rotated direction (-theta_1, theta_0)/||theta||
    with a sign drawn by rng.random(), and a row with theta = 0 gets
    ``random_unit_vector``.  In higher dimensions every row reads one
    standard_normal(d) draw, which ``orthogonal_unit_rows`` turns into its
    vector, with a fixed answer where the draw lies on theta's line; no row
    is drawn again."""
    d = theta.shape[1]
    if d < 2:
        raise UnsupportedDimensionError("orthogonal complement requires dim >= 2")
    if d > 2:
        return orthogonal_unit_rows(theta, r, np.array([rng.standard_normal(d) for rng in rngs]))
    listed = r.tolist()
    flip = [-1.0 if n != 0.0 and rng.random() < 0.5 else 1.0 for n, rng in zip(listed, rngs)]
    v = np.stack((-theta[:, 1], theta[:, 0]), axis=1) / nonzero_norms(r)[:, None] * np.array(flip)[:, None]
    for k in [k for k, n in enumerate(listed) if n == 0.0]:  # no direction: any unit vector
        v[k] = random_unit_vector(rngs[k], d)
    return v


def orthogonal_unit_rows(theta: np.ndarray, r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The Gaussian draws v (R, d), one row per row of theta, made unit vectors
    orthogonal to theta's rows, in place: each is projected out of theta's
    direction twice and normalized.  A draw whose projected norm is at most
    1e-8 (probability zero) becomes instead the axis least aligned with theta,
    e_k with k = argmin |theta_k|, projected and normalized alike; its
    projected norm is at least sqrt(1 - 1/d).  A row with theta = 0 keeps its
    normalized draw (e_1 at most 1e-8), and a row whose theta is not finite
    gets NaN.  r holds the norms of theta's rows; where r is inf, theta's
    direction is that of theta divided by its largest |theta_i| first."""
    u = theta / nonzero_norms(r)[:, None]
    if math.inf in r.tolist():  # ||theta|| past float64, its coordinates maybe not: theta / inf would be 0
        big = np.isinf(r)
        scaled = theta[big] / np.abs(theta[big]).max(axis=1, keepdims=True)
        u[big] = scaled / row_norms(scaled)[:, None]
    for _ in range(2):  # two projection passes, for orthogonality to ~1e-16
        v -= np.einsum("ij,ij->i", v, u)[:, None] * u
    m = row_norms(v)
    if not min(m.tolist(), default=1.0) > 1e-8:  # a draw on theta's line (probability zero): a fixed answer
        for k in np.flatnonzero(m <= 1e-8):
            v[k] = np.eye(1, v.shape[1], np.abs(theta[k]).argmin())[0]
            for _ in range(2):
                v[k] -= (v[k] @ u[k]) * u[k]
            m[k] = norm(v[k])
    v /= m[:, None]
    return v


SEED_MAX = 2**64 - 1  # make_rng keys each run's stream with one uint64


def _is_int(x) -> bool:
    """x is a Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class GameConfig:
    """Game parameters: dimension, gradient bound G, horizon T (or unknown), seed."""

    dim: int
    grad_bound: float
    horizon: Union[int, str] = UNKNOWN_HORIZON
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.dim):
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not 0.0 < self.grad_bound < math.inf:
            raise ValueError(f"grad_bound G must be positive and finite, got {self.grad_bound!r}")
        if self.horizon != UNKNOWN_HORIZON:
            if not (_is_int(self.horizon) and self.horizon >= 1):
                raise ValueError(f"horizon T must be an integer >= 1 or {UNKNOWN_HORIZON!r}, got {self.horizon!r}")
            object.__setattr__(self, "horizon", int(self.horizon))
        if not (_is_int(self.seed) and 0 <= self.seed <= SEED_MAX):
            raise ValueError(f"seed must be an integer in [0, {SEED_MAX}], got {self.seed!r}")

    @property
    def known_horizon(self) -> bool:
        return self.horizon != UNKNOWN_HORIZON


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator; one independent stream per run."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))
