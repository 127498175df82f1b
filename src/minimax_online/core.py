"""Vector arithmetic, direction conventions, and deterministic randomness.

All state vectors live in R^d as float64 numpy arrays.  Conventions used
throughout the package: the player's plays w, the adversary's gradients g,
the cumulative negative-gradient state theta = -sum(g), and comparators u
are all plain 1-D arrays of the same dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# Orthogonality of sampled complement directions is checked at TOL_ORTHO.
TOL_ORTHO = 1e-12

UNKNOWN_HORIZON = "unknown"

Point = np.ndarray


class DimensionMismatchError(ValueError):
    """Two vectors with different dimensions were combined."""


class UnsupportedDimensionError(ValueError):
    """Operation requires a higher-dimensional space (typically d >= 2)."""


def as_point(coords) -> Point:
    """Validate and convert to a finite float64 vector of dim >= 1."""
    p = np.asarray(coords, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"point must be a 1-D vector of dim >= 1, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def inner(a: Point, b: Point) -> float:
    """Inner product <a, b>; raises DimensionMismatchError on dim mismatch."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dim mismatch: {a.shape} vs {b.shape}")
    return float(a @ b)


# np.linalg.norm squares each coordinate; within this range ||a||^2 is a
# normal float64, so the norm it returns is exact to rounding.
_NORM_SAFE_MIN = 1e-150
_NORM_SAFE_MAX = 1e150


def norm(a: Point) -> float:
    """Euclidean norm ||a||, exact to rounding for every finite float64 vector.

    Inside [1e-150, 1e150] this is np.linalg.norm's arithmetic, the root of
    the dot product a . a (taken with np.vdot, which raises no overflow
    warning).  Outside it, where squaring the coordinates would underflow or
    overflow, a is first divided by max |a_i|.
    """
    a = np.asarray(a, dtype=np.float64)
    n = math.sqrt(np.vdot(a, a))
    if _NORM_SAFE_MIN <= n <= _NORM_SAFE_MAX:
        return n
    scale = float(np.max(np.abs(a), initial=0.0))
    if scale == 0.0:
        return 0.0
    b = a / scale
    return scale * math.sqrt(np.vdot(b, b))


def unit_direction(theta: Point) -> Point:
    """theta / ||theta||, or the zero vector when theta is the zero vector.

    Exact for every finite float64 theta, because ``norm`` is.
    """
    theta = np.asarray(theta, dtype=np.float64)
    n = norm(theta)
    return theta / n if n > 0.0 else np.zeros_like(theta)


def random_unit_vector(rng: np.random.Generator, dim: int) -> Point:
    """A uniformly random unit vector: a Gaussian draw, redrawn while its norm is below 1e-12."""
    v = rng.standard_normal(dim)
    n = norm(v)
    while n < 1e-12:
        v = rng.standard_normal(dim)
        n = norm(v)
    return v / n


def fallback_direction(dim: int, rng: Optional[np.random.Generator] = None) -> Point:
    """A direction for when theta = 0 gives none: a random unit vector drawn
    from rng, or the first axis without one."""
    if rng is not None:
        return random_unit_vector(rng, dim)
    e = np.zeros(dim)
    e[0] = 1.0
    return e


def orthonormal_complement_sample(theta: Point, rng: np.random.Generator) -> Point:
    """A unit vector orthogonal to theta (any unit vector when theta = 0).

    Requires dim >= 2.  In d = 2 the vector is the rotated direction
    (-theta_1, theta_0)/||theta|| with an rng-chosen sign, which is orthogonal
    to working precision; in higher dimensions a random Gaussian draw is
    projected out of theta's direction twice and normalized.
    """
    theta = np.asarray(theta, dtype=np.float64)
    d = theta.size
    if d < 2:
        raise UnsupportedDimensionError("orthogonal complement requires dim >= 2")
    n = norm(theta)
    if n == 0.0:
        return random_unit_vector(rng, d)
    if d == 2:
        v = np.array([-theta[1], theta[0]]) / n
        if rng.random() < 0.5:
            v = -v
        return v
    u = theta / n
    while True:
        v = rng.standard_normal(d)
        v -= (v @ u) * u
        v -= (v @ u) * u  # second projection pass for orthogonality to ~1e-16
        m = norm(v)
        if m > 1e-8:
            return v / m


@dataclass(frozen=True)
class GameConfig:
    """Game parameters: dimension, gradient bound G, horizon T (or unknown), seed."""

    dim: int
    grad_bound: float
    horizon: Union[int, str] = UNKNOWN_HORIZON
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.grad_bound > 0:
            raise ValueError("grad_bound G must be positive")
        if self.horizon != UNKNOWN_HORIZON:
            if int(self.horizon) < 1:
                raise ValueError("horizon T must be >= 1 when numeric")
            object.__setattr__(self, "horizon", int(self.horizon))

    @property
    def known_horizon(self) -> bool:
        return self.horizon != UNKNOWN_HORIZON


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator; one independent stream per run."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))
