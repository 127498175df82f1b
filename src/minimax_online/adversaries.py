"""Gradient generators: minimax adversaries plus stochastic and greedy stressors.

Every adversary plays R runs in lockstep (``engine.run_column``), each run on
its own stream (owned by the caller), so row k depends on run k alone; every
gradient has ||g|| <= G.  An adversary that never reads the player's plays
gives the whole (R, T, d) gradient block at once,
``gradient_block(rngs, rounds, dim)``.  The state-blind ones (Rademacher
line, random direction, fixed direction) draw it.  The minimax adversaries
answer the state alone (G orthogonal to theta, or +-G along it), so their
block is their own recurrence theta <- theta - g: ``grads(t, theta, r,
rngs)`` gives round t's (R, d) gradients against the states theta, of norms
r.  Every random direction follows one rule (``core``): a run reads exactly
the normals it uses, d per unit vector, and one standard_normal(d) row per
round for ``OrthogonalMinimax`` at d >= 3; a draw of probability zero gets a
fixed answer (e_1, or the axis least aligned with theta), so each stream is
read once, in order.  The greedy adversary reads the plays, so it answers
round by round, moving second, and draws nothing: ``grads(t, theta, r, w)``
answers the states and the players' pending plays w with an (R, d) block of
gradients; a column's groups are one game of their runs' rows, one
``grads`` call per round for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (DimensionMismatchError, complement_rows, nonzero_norms, orthogonal_unit_rows, random_unit_vector,
                   row_norms, unit_direction, unit_rows)


def _line(direction, dim: int) -> np.ndarray:
    """Unit vector along direction; the first axis when direction is None."""
    if direction is None:
        return np.eye(1, dim)[0]
    return unit_direction(np.asarray(direction, dtype=np.float64))


class _PlayBlind:
    """An adversary whose gradients read the state and its streams, never the
    plays: its gradient block is its own recurrence, one ``grads`` call per
    round, and the states are the engine's theta - g, bit for bit.  A state
    past the float64 range raises no floating-point error: it gives a play
    past it, which the engine's round checks report."""

    def gradient_block(self, rngs, rounds, dim):
        block = np.empty((len(rngs), rounds, dim))
        theta = np.zeros((len(rngs), dim))
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(rounds):
                g = self.grads(t, theta, row_norms(theta), rngs)
                if g.shape != theta.shape:
                    raise DimensionMismatchError(f"round {t + 1}: gradients {g.shape}, expected {theta.shape}")
                theta = theta - g
                block[:, t] = g
        return block


@dataclass(frozen=True)
class OrthogonalMinimax(_PlayBlind):
    """Plays G orthogonal to theta; requires dim >= 2."""

    G: float

    tag = "orthogonal_minimax"
    min_dim = 2  # theta has no orthogonal complement at d = 1

    def grads(self, t, theta, r, rngs):
        return self.G * complement_rows(theta, r, rngs)

    def gradient_block(self, rngs, rounds, dim):
        """The ``grads`` recurrence's block, bit for bit.  At dim >= 3 each
        run's stream is read by one standard_normal((rounds, dim)) call into
        the block, a row per round, as ``grads`` reads it; each round passes a
        contiguous copy of its rows to ``orthogonal_unit_rows``, which
        ``grads`` uses too, and overwrites them with its g."""
        if dim < 3:
            return super().gradient_block(rngs, rounds, dim)
        block = np.empty((len(rngs), rounds, dim))
        for k, rng in enumerate(rngs):
            rng.standard_normal((rounds, dim), out=block[k])
        theta = np.zeros((len(rngs), dim))
        with np.errstate(over="ignore", invalid="ignore"):  # as the recurrence's: the round checks report it
            for t in range(rounds):
                v = orthogonal_unit_rows(theta, row_norms(theta), block[:, t].copy())
                theta = theta - np.multiply(self.G, v, out=block[:, t])
        return block


@dataclass(frozen=True)
class ParallelMinimax(_PlayBlind):
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

    def grads(self, t, theta, r, rngs):
        if self.sign_policy == "random":
            sign = np.array([self._sign(t, rng) for rng in rngs])[:, None]
        else:
            sign = self._sign(t, None)
        g = sign * self.G * (theta / nonzero_norms(r)[:, None])
        if not all(r.tolist()):  # theta = 0 gives no direction: a random one, from the run's stream
            for k in np.flatnonzero(r == 0.0):
                g[k] = self.G * random_unit_vector(rngs[k], theta.shape[1])
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
            np.multiply(self.G, unit_rows(rng.standard_normal((rounds, dim))), out=block[k])
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

    def grads(self, t, theta, r, w):
        diff = w - self.comparator  # numpy reads the tuple as float64
        n = row_norms(diff)
        g = self.G * diff / nonzero_norms(n)[:, None]
        for k in np.flatnonzero(n < 1e-150):  # too few digits to divide by: unit_direction rescales first
            g[k] = self.G * unit_direction(diff[k])
        return g
