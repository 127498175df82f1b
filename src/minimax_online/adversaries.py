"""Gradient generators: minimax adversaries plus stochastic and greedy stressors.

Adversaries expose ``grad(t, theta, w, rng) -> g`` with ||g|| <= G.  The
round index t and the player's pending play w are provided because the
adversary moves second; the minimax adversaries ignore w, the greedy one
uses it.  RNG state is owned by the caller (one stream per run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import fallback_direction, orthonormal_complement_sample, random_unit_vector, unit_direction


def orthogonal_minimax_grad(theta, G: float, rng: np.random.Generator) -> np.ndarray:
    """Full-norm gradient orthogonal to theta; grows ||theta|| Pythagorean-style."""
    return G * orthonormal_complement_sample(theta, rng)


def parallel_minimax_grad(theta, G: float, sign: float, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Full-norm gradient along +-theta_hat; any unit direction when theta = 0."""
    theta = np.asarray(theta, dtype=np.float64)
    that = unit_direction(theta)
    if not that.any():
        return G * fallback_direction(theta.size, rng)
    return sign * G * that


def _line(direction, dim: int) -> np.ndarray:
    """Unit vector along direction; the first axis when direction is None."""
    if direction is None:
        return fallback_direction(dim)
    return unit_direction(np.asarray(direction, dtype=np.float64))


def greedy_vs_comparator_grad(w, u, G: float) -> np.ndarray:
    """G * (w-u)/||w-u||, maximizing the instantaneous regret term <g, w-u>."""
    diff = np.asarray(w, dtype=np.float64) - np.asarray(u, dtype=np.float64)
    n = np.linalg.norm(diff)
    if n == 0.0:
        return np.zeros_like(diff)
    return G * diff / n


@dataclass(frozen=True)
class OrthogonalMinimax:
    """Plays G orthogonal to theta; requires dim >= 2."""

    G: float

    tag = "orthogonal_minimax"
    min_dim = 2  # theta has no orthogonal complement at d = 1

    def grad(self, t, theta, w, rng):
        return orthogonal_minimax_grad(theta, self.G, rng)


@dataclass(frozen=True)
class ParallelMinimax:
    """Plays +-G along theta_hat.

    sign_policy: "grow" (default) plays g = -G theta_hat so that
    theta <- theta - g keeps growing, the worst case for exponential
    potentials; "shrink" plays +G theta_hat; "alternate" switches per round;
    "random" draws the sign from rng.
    """

    G: float
    sign_policy: str = "grow"

    tag = "parallel_minimax"

    def __post_init__(self):
        if self.sign_policy not in ("grow", "shrink", "alternate", "random"):
            raise ValueError(f"unknown sign_policy {self.sign_policy!r}")

    def grad(self, t, theta, w, rng):
        if self.sign_policy == "grow":
            sign = -1.0
        elif self.sign_policy == "shrink":
            sign = 1.0
        elif self.sign_policy == "alternate":
            sign = -1.0 if t % 2 == 0 else 1.0
        else:
            sign = 1.0 if rng.random() < 0.5 else -1.0
        return parallel_minimax_grad(theta, self.G, sign, rng)


@dataclass(frozen=True)
class RademacherLine:
    """+-G along a fixed line with fair random signs."""

    G: float
    direction: Optional[tuple] = None  # unit direction; first axis when None

    tag = "rademacher_line"

    def grad(self, t, theta, w, rng):
        e = _line(self.direction, np.size(theta))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return sign * self.G * e


@dataclass(frozen=True)
class GaussianRandom:
    """Uniformly random direction at full norm G."""

    G: float

    tag = "gaussian_random"

    def grad(self, t, theta, w, rng):
        return self.G * random_unit_vector(rng, np.size(theta))


@dataclass(frozen=True)
class FixedDirection:
    """The same gradient G * e every round."""

    G: float
    direction: Optional[tuple] = None  # first axis when None

    tag = "fixed_direction"

    def grad(self, t, theta, w, rng):
        return self.G * _line(self.direction, np.size(theta))


@dataclass(frozen=True)
class GreedyVsComparator:
    """Maximizes the instantaneous regret against a fixed comparator u."""

    G: float
    comparator: tuple

    tag = "greedy_vs_comparator"

    def grad(self, t, theta, w, rng):
        u = np.asarray(self.comparator, dtype=np.float64)
        return greedy_vs_comparator_grad(w, u, self.G)
