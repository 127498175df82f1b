"""Gradient generators: minimax adversaries plus stochastic and greedy stressors.

Every adversary plays R runs in lockstep (``engine.run_games``), each run on
its own stream (owned by the caller), so row k depends on run k alone; every
gradient has ||g|| <= G.  The state-blind adversaries, whose gradients
depend on neither the state nor the plays, give the whole (R, T, d) gradient
block at once: ``gradient_block(rngs, rounds, dim)``.  The others answer
round by round, because they move second: ``draws(rngs, rounds, dim)`` is
called once per game, and ``grads(t, theta, r, w, draws)`` answers the
(R, d) states theta, of norms r, and the players' pending plays w with an
(R, d) block of gradients.  The minimax adversaries ignore w, the greedy one
uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import complement_rows, fallback_direction, nonzero_norms, random_unit_rows, row_norms, unit_direction


def _line(direction, dim: int) -> np.ndarray:
    """Unit vector along direction; the first axis when direction is None."""
    if direction is None:
        return fallback_direction(dim)
    return unit_direction(np.asarray(direction, dtype=np.float64))


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

    def grads(self, t, theta, r, w, rngs):
        return self.G * complement_rows(theta, r, rngs)


@dataclass(frozen=True)
class ParallelMinimax(_RoundByRound):
    """Plays +-G along theta_hat.

    sign_policy: "grow" (default) plays g = -G theta_hat so that
    theta <- theta - g keeps growing, the worst case for exponential
    potentials; "shrink" plays +G theta_hat; "alternate" switches per round;
    "random" draws each run's sign from its stream.
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

    def grads(self, t, theta, r, w, rngs):
        if self.sign_policy == "random":
            sign = np.array([self._sign(t, rng) for rng in rngs])[:, None]
        else:
            sign = self._sign(t, None)
        g = sign * self.G * (theta / nonzero_norms(r)[:, None])
        if not all(r.tolist()):  # theta = 0 gives no direction: a random one, from the run's stream
            for k in np.flatnonzero(r == 0.0):
                g[k] = self.G * fallback_direction(theta.shape[1], rngs[k])
        return g


@dataclass(frozen=True)
class RademacherLine:
    """+-G along a fixed line with fair random signs."""

    G: float
    direction: Optional[tuple] = None  # unit direction; first axis when None

    tag = "rademacher_line"

    def gradient_block(self, rngs, rounds, dim):
        signs = np.where(np.array([rng.random(rounds) for rng in rngs]) < 0.5, 1.0, -1.0)
        return (signs * self.G)[:, :, None] * _line(self.direction, dim)


@dataclass(frozen=True)
class GaussianRandom:
    """Uniformly random direction at full norm G."""

    G: float

    tag = "gaussian_random"

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

    def gradient_block(self, rngs, rounds, dim):
        return np.tile(self.G * _line(self.direction, dim), (len(rngs), rounds, 1))


@dataclass(frozen=True)
class GreedyVsComparator:
    """Maximizes the instantaneous regret <g, w - u> against a fixed comparator
    u: g = G (w - u) / ||w - u||, and g = 0 at w = u."""

    G: float
    comparator: tuple

    tag = "greedy_vs_comparator"

    def draws(self, rngs, rounds, dim):
        return np.asarray(self.comparator, dtype=np.float64)

    def grads(self, t, theta, r, w, u):
        diff = w - u
        return self.G * diff / nonzero_norms(row_norms(diff))[:, None]
