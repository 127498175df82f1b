"""The potential-driven player: every strategy is the one-round minimax play
against its next potential q_{t+1}.

At round t >= 0 with state theta_t (cumulative negative gradients) and
r = ||theta_t||, the play w_{t+1} is the minimax player's response in the
one-round game min_w max_{||g|| <= G} <w, g> + q_{t+1}(||theta_t - g||)
(see ``one_round``):

* orthogonal regime (power family): w = theta * q_{t+1}'(s) / s with
  s = sqrt(r^2 + G^2);
* parallel regime (OGD's quadratic and both Normal families):
  w = theta_hat * (q_{t+1}(r + G) - q_{t+1}(r - G)) / (2G).

All plays are parallel to theta, so the first play (theta_0 = 0) is the zero
vector.  The potential supplies the regime and the radial quantity; the
exponential families compute their radial difference without cancellation.
The orthogonal play needs d > 1 to be minimax; at d = 1 it is still playable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import norm
from .one_round import ORTHOGONAL


@dataclass(frozen=True)
class PotentialPlayer:
    """Plays the one-round minimax response to ``potential`` at the next round."""

    potential: object

    @property
    def tag(self) -> str:
        return self.potential.tag

    @property
    def needs_horizon(self) -> bool:
        return hasattr(self.potential, "T")

    def play(self, t: int, theta) -> np.ndarray:
        if t < 0:
            raise ValueError(f"round index t={t} must be >= 0")
        theta = np.asarray(theta, dtype=np.float64)
        pot = self.potential
        r = norm(theta)
        if pot.regime == ORTHOGONAL:
            s = math.hypot(r, pot.G)
            return theta * (pot.slope(t + 1, s) / s)
        diff = pot.radial_diff(t + 1, r)  # evaluated at r = 0 too: it checks the round index
        if r == 0.0:
            return np.zeros_like(theta)
        return theta * (diff / (2.0 * pot.G * r))
