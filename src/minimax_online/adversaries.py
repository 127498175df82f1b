"""Gradient generators: minimax adversaries plus stochastic and greedy stressors.

Adversaries expose ``grad(t, theta, w, rng) -> g`` with ||g|| <= G.  The
round index t and the player's pending play w are provided because the
adversary moves second; the minimax adversaries ignore w, the greedy one
uses it.  RNG state is owned by the caller (one stream per run).

The batch form plays R runs in lockstep (``engine.run_games``), each run on
its own stream; row k reads rngs[k] exactly as ``grad`` reads its stream, so
it depends on run k alone.  The state-blind adversaries, whose gradients
depend on neither the state nor the plays, give the whole (R, T, d) gradient
block at once: ``gradient_block(rngs, rounds, dim)``.  The others answer
round by round: ``draws(rngs, rounds, dim)`` is called once per game, and
``grads(t, theta, r, w, draws)`` answers the (R, d) states theta, of norms r,
with an (R, d) block of gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (complement_rows, fallback_direction, nonzero_norms, orthonormal_complement_sample,
                   random_unit_rows, random_unit_vector, row_norms, unit_direction)


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


class _RoundByRound:
    """Batch form of an adversary that reads its streams round by round."""

    def draws(self, rngs, rounds, dim):
        return rngs


@dataclass(frozen=True)
class OrthogonalMinimax(_RoundByRound):
    """Plays G orthogonal to theta; requires dim >= 2."""

    G: float

    tag = "orthogonal_minimax"
    min_dim = 2  # theta has no orthogonal complement at d = 1

    def grad(self, t, theta, w, rng):
        return orthogonal_minimax_grad(theta, self.G, rng)

    def grads(self, t, theta, r, w, rngs):
        return self.G * complement_rows(theta, r, rngs)


@dataclass(frozen=True)
class ParallelMinimax(_RoundByRound):
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

    def _sign(self, t, rng):
        if self.sign_policy == "grow":
            return -1.0
        if self.sign_policy == "shrink":
            return 1.0
        if self.sign_policy == "alternate":
            return -1.0 if t % 2 == 0 else 1.0
        return 1.0 if rng.random() < 0.5 else -1.0

    def grad(self, t, theta, w, rng):
        return parallel_minimax_grad(theta, self.G, self._sign(t, rng), rng)

    def grads(self, t, theta, r, w, rngs):
        if self.sign_policy == "random":
            sign = np.array([self._sign(t, rng) for rng in rngs])[:, None]
        else:
            sign = self._sign(t, None)
        g = sign * self.G * (theta / nonzero_norms(r)[:, None])
        if not all(r.tolist()):  # theta = 0 gives no direction: a random one, as grad draws it
            for k in np.flatnonzero(r == 0.0):
                g[k] = self.G * fallback_direction(theta.shape[1], rngs[k])
        return g


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

    def gradient_block(self, rngs, rounds, dim):
        signs = np.where(np.array([rng.random(rounds) for rng in rngs]) < 0.5, 1.0, -1.0)
        return (signs * self.G)[:, :, None] * _line(self.direction, dim)


@dataclass(frozen=True)
class GaussianRandom:
    """Uniformly random direction at full norm G."""

    G: float

    tag = "gaussian_random"

    def grad(self, t, theta, w, rng):
        return self.G * random_unit_vector(rng, np.size(theta))

    def gradient_block(self, rngs, rounds, dim):
        block = np.empty((len(rngs), rounds, dim))
        for k, rng in enumerate(rngs):
            np.multiply(self.G, random_unit_rows(rng, rounds, dim), out=block[k])
        return block


@dataclass(frozen=True)
class FixedDirection:
    """The same gradient G * e every round."""

    G: float
    direction: Optional[tuple] = None  # first axis when None

    tag = "fixed_direction"

    def grad(self, t, theta, w, rng):
        return self.G * _line(self.direction, np.size(theta))

    def gradient_block(self, rngs, rounds, dim):
        return np.tile(self.G * _line(self.direction, dim), (len(rngs), rounds, 1))


@dataclass(frozen=True)
class GreedyVsComparator:
    """Maximizes the instantaneous regret against a fixed comparator u."""

    G: float
    comparator: tuple

    tag = "greedy_vs_comparator"

    def grad(self, t, theta, w, rng):
        u = np.asarray(self.comparator, dtype=np.float64)
        return greedy_vs_comparator_grad(w, u, self.G)

    def draws(self, rngs, rounds, dim):
        return np.asarray(self.comparator, dtype=np.float64)

    def grads(self, t, theta, r, w, u):
        diff = w - u
        return self.G * diff / nonzero_norms(row_norms(diff))[:, None]
