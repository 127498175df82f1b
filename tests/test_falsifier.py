"""A falsifier for the regret envelopes: every player of the paper's table
against gradient sequences drawn by Hypothesis, not by a scripted adversary.

The envelopes are theorems over every sequence with ||g_t|| <= G, so each
must hold at every prefix t of every drawn game, for u = 0, for the
comparator grid, and for comparators along theta_t (whose regret
L_t + ||u|| ||theta_t|| is the largest of their norm), at ``verify_bound``'s
1e-6 relative tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimax_online import (GameConfig, comparator_grid, make_rng, random_unit_vector, regret_bound, regret_curves,
                            run_games)
from minimax_online.checks import envelope_players
from minimax_online.core import row_norms

G = 1.0
ALONG_NORMS = (0.1, 1.0, 10.0, 100.0)
LABELS = [label for label, _ in envelope_players(1, G)]


class DrawnBlock:
    """A play-blind adversary that answers with a given (R, T, d) block, which
    ``run_games`` plays as one array."""

    tag = "drawn"

    def __init__(self, block):
        self.block = block

    def gradient_block(self, rngs, rounds, dim):
        return self.block


@st.composite
def segment(draw, d):
    """One stretch of rounds, (n, d), every row norm at most G."""
    n = draw(st.integers(1, 120))
    line = random_unit_vector(make_rng(draw(st.integers(0, 3))), d)
    kind = draw(st.sampled_from(["coins", "magnitudes", "zeros", "constant", "random"]))
    if kind == "coins":  # +-G along one line, a drawn sign pattern repeated
        signs = np.where(draw(st.lists(st.booleans(), min_size=1, max_size=8)), G, -G)
        return np.resize(signs, n)[:, None] * line
    if kind == "magnitudes":  # values in [-G, G] along one line, a drawn pattern repeated
        values = draw(st.lists(st.floats(-G, G), min_size=1, max_size=8))
        return np.resize(values, n)[:, None] * line
    if kind == "zeros":
        return np.zeros((n, d))
    if kind == "constant":
        return np.tile(draw(st.floats(0.0, G)) * line, (n, 1))
    rng = make_rng(draw(st.integers(0, 2**32)))  # random directions, norms uniform in [0, G]
    return np.array([rng.uniform(0.0, G) * random_unit_vector(rng, d) for _ in range(n)])


@st.composite
def gradient_blocks(draw):
    """(R, T, d) with R in {1, 2}, T in [200, 400] and d in {1, 2, 3}: each
    run a concatenation of segments, repeated to T rounds."""
    R, T, d = draw(st.integers(1, 2)), draw(st.integers(200, 400)), draw(st.integers(1, 3))
    runs = [np.concatenate(draw(st.lists(segment(d), min_size=1, max_size=4))) for _ in range(R)]
    return np.stack([np.resize(run, (T, d)) for run in runs])


@pytest.mark.parametrize("label", LABELS)
@settings(max_examples=25, deadline=None)
@given(block=gradient_blocks())
def test_every_envelope_holds_at_every_prefix_of_a_drawn_game(label, block):
    R, T, d = block.shape
    player = dict(envelope_players(T, G))[label]
    grid = comparator_grid(d, make_rng(777))
    norms = np.array([np.linalg.norm(u) for u in grid] + list(ALONG_NORMS))
    bounds = regret_bound(player.potential, norms[:, None], np.arange(1, T + 1))  # (comparators, T)
    configs = [GameConfig(dim=d, grad_bound=G, horizon=T, seed=k) for k in range(R)]
    for trace in run_games(player, DrawnBlock(block), configs, T):
        along = np.cumsum(trace.losses) + np.array(ALONG_NORMS)[:, None] * row_norms(trace.theta)
        regrets = np.concatenate((regret_curves(trace, grid), along))  # (comparators, T)
        excess = np.divide(regrets - bounds, 1.0 + np.abs(bounds), where=np.isfinite(bounds),
                           out=np.full(bounds.shape, -np.inf))  # a VACUOUS (inf) envelope holds
        c, t = np.unravel_index(np.argmax(excess), excess.shape)
        assert excess[c, t] <= 1e-6, (
            f"{label}: regret {regrets[c, t]} > envelope {bounds[c, t]} at t = {t + 1}, ||u|| = {norms[c]}"
            + (" along theta_t" if c >= len(grid) else ""))
