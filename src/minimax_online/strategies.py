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
``response`` computes the plays of a whole batch of states at once; ``play``
is its one-state form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import nonzero_norms, norm
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
        """The play at round t.  Past the float64 range it is inf or NaN, with
        numpy's RuntimeWarning; run_game raises OverflowError there instead."""
        if t < 0:
            raise ValueError(f"round index t={t} must be >= 0")
        theta = np.asarray(theta, dtype=np.float64)
        return self.response(t, theta, norm(theta))

    def response(self, t: int, theta: np.ndarray, r, out=None) -> np.ndarray:
        """Plays at round t (an int, or an array that broadcasts against r) for
        states theta (..., d) with norms r (...); written into out when given,
        which may be theta itself."""
        pot = self.potential
        if pot.regime == ORTHOGONAL:
            s = np.hypot(r, pot.G)
            coef = pot.slope(t + 1, s) / s
        else:  # the difference is 0 at r = 0, so is the play
            coef = pot.radial_diff(t + 1, r) / nonzero_norms(r) / (2.0 * pot.G)
        return np.multiply(theta, coef[..., None], out=out)
