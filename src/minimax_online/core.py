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


# Within this range ||a||^2 is a normal float64, so the root of the summed
# squares is exact to rounding.
_NORM_SAFE_MIN = 1e-150
_NORM_SAFE_MAX = 1e150


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of a, exact to rounding for every
    finite float64 row.  Inside [1e-150, 1e150] a norm is the root of the
    summed squares; a row outside it, whose squared coordinates would
    underflow or overflow, is first divided by its largest |a_i|.  The squares
    are summed by np.einsum, which raises no floating-point error when they
    overflow, and each row's norm depends on that row alone."""
    n = np.sqrt(np.einsum("...i,...i->...", a, a))
    listed = n.ravel().tolist()  # min and max of a few floats: faster in Python than two reductions
    if listed and not (_NORM_SAFE_MIN <= min(listed) and max(listed) <= _NORM_SAFE_MAX):
        n = np.array(n)  # writable, also for a single row
        outside = (n < _NORM_SAFE_MIN) | (n > _NORM_SAFE_MAX)
        rows = a[outside]  # only these rows are rescaled
        scale = np.abs(rows).max(axis=-1, initial=0.0)
        b = rows / np.where(scale > 0.0, scale, 1.0)[:, None]
        n[outside] = scale * np.sqrt(np.einsum("ij,ij->i", b, b))
    return n


def nonzero_norms(r) -> np.ndarray:
    """r with each 0 replaced by 5e-324, the smallest subnormal, which no
    positive norm is below: dividing a state by it maps theta = 0 to 0 and
    leaves every other row as it was."""
    return np.maximum(r, 5e-324)


def norm(a: Point) -> float:
    """Euclidean norm ||a||, exact to rounding for every finite float64 vector:
    ``row_norms`` of one row, bit for bit, so that run_game and run_games take
    the same norms.  Inside the safe range it skips row_norms' array steps."""
    a = np.asarray(a, dtype=np.float64)
    n = math.sqrt(np.einsum("...i,...i->...", a, a))
    return n if _NORM_SAFE_MIN <= n <= _NORM_SAFE_MAX else float(row_norms(a))


def unit_direction(theta: Point) -> Point:
    """theta / ||theta||, or the zero vector when theta is the zero vector.

    Exact for every finite float64 theta, because ``norm`` is; a theta whose
    norm is below 1e-150 is first divided by its largest |theta_i|, because a
    subnormal norm has too few digits to divide by.
    """
    theta = np.asarray(theta, dtype=np.float64)
    n = norm(theta)
    if n == 0.0:
        return np.zeros_like(theta)
    if n < _NORM_SAFE_MIN:
        theta = theta / np.abs(theta).max()
        n = norm(theta)
    return theta / n


def random_unit_vector(rng: np.random.Generator, dim: int) -> Point:
    """A uniformly random unit vector: a Gaussian draw, redrawn while its norm is below 1e-12."""
    v = rng.standard_normal(dim)
    n = norm(v)
    while n < 1e-12:
        v = rng.standard_normal(dim)
        n = norm(v)
    return v / n


def random_unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n successive random_unit_vector(rng, dim) draws as the rows of an (n, dim)
    array, reading rng exactly as those n calls would."""
    state = rng.bit_generator.state
    v = rng.standard_normal((n, dim))
    norms = row_norms(v)
    if norms.min(initial=1.0) < 1e-12:  # a redraw shifts the stream: replay it call by call
        rng.bit_generator.state = state
        return np.array([random_unit_vector(rng, dim) for _ in range(n)]).reshape(n, dim)
    return v / norms[:, None]


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


def complement_rows(theta: np.ndarray, r: np.ndarray, rngs) -> np.ndarray:
    """orthonormal_complement_sample for each row of theta (R, d), whose norms
    are r; row k reads rngs[k] exactly as that function reads its stream."""
    R, d = theta.shape
    if d < 2:
        raise UnsupportedDimensionError("orthogonal complement requires dim >= 2")
    listed = r.tolist()
    zero = [k for k, n in enumerate(listed) if n == 0.0]  # no direction: any unit vector, drawn last
    rs = nonzero_norms(r)[:, None]
    if d == 2:
        flip = [-1.0 if n != 0.0 and rng.random() < 0.5 else 1.0 for n, rng in zip(listed, rngs)]
        v = np.stack((-theta[:, 1], theta[:, 0]), axis=1) / rs * np.array(flip)[:, None]
    else:
        u = theta / rs
        v = np.array([rng.standard_normal(d) if n != 0.0 else np.ones(d) for n, rng in zip(listed, rngs)])
        for _ in range(2):  # two projection passes, for orthogonality to ~1e-16
            v -= np.einsum("ij,ij->i", v, u)[:, None] * u
        m = row_norms(v)
        if not min(m.tolist()) > 1e-8:  # a draw too close to theta's line: finish the row as the one-row loop does
            for k in np.flatnonzero(~(m > 1e-8)):
                v[k], m[k] = orthonormal_complement_sample(theta[k], rngs[k]), 1.0
        v /= m[:, None]
    for k in zero:
        v[k] = random_unit_vector(rngs[k], d)
    return v


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
