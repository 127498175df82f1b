import math

import numpy as np
import pytest

from minimax_online import (
    AdaptiveNormalPotential,
    GameConfig,
    NormalKnownTPotential,
    OrthogonalMinimax,
    PotentialPlayer,
    PowerPotential,
    QuadraticPotential,
    make_rng,
    norm,
    run_game,
)
from minimax_online.one_round import minmax_values, plane_distance, worst_case_payoff
from minimax_online.checks import adversary_quartet


def play(pot, t, theta):
    """The play at round t for the one state theta."""
    theta = np.asarray(theta, dtype=np.float64)
    return PotentialPlayer(pot).response(t, theta, norm(theta))


class TestOgdPlay:
    def test_scaled_state(self):
        w = play(QuadraticPotential(0.1, 1.0), 0, np.array([2.0, 0.0]))
        np.testing.assert_allclose(w, [0.2, 0.0], rtol=1e-15)

    def test_zero_state(self):
        assert np.array_equal(play(QuadraticPotential(0.5, 1.0), 0, np.zeros(3)), np.zeros(3))

    def test_minimax_rate(self):
        G, T = 1.0, 25
        theta = np.array([3.0, -1.0])
        w = play(QuadraticPotential(1.0 / (G * math.sqrt(T)), G), 0, theta)
        np.testing.assert_allclose(w, theta / 5.0, rtol=1e-15)


class TestPowerPlay:
    def test_p1_example(self):
        w = play(PowerPotential(1.0, 1.0, 1.0, 4), 1, np.array([1.0, 0.0]))
        np.testing.assert_allclose(w, [0.5, 0.0], rtol=1e-12)

    def test_p2_is_scaled_state(self):
        theta = np.array([0.3, -0.7])
        w = play(PowerPotential(0.2, 2.0, 1.0, 9), 4, theta)
        np.testing.assert_allclose(w, 0.2 * theta, rtol=1e-15)

    def test_zero_state(self):
        for p in (1.0, 1.5, 2.0):
            assert np.array_equal(play(PowerPotential(1.0, p, 1.0, 5), 2, np.zeros(2)), np.zeros(2))

    def test_round_bound(self):
        with pytest.raises(ValueError):
            play(PowerPotential(1.0, 1.5, 1.0, 4), 4, np.zeros(2))

    def test_p1_stays_in_ball(self):
        strat = PotentialPlayer(PowerPotential(W=0.7, p=1.0, G=1.0, T=60))
        for adv in adversary_quartet(1.0):
            cfg = GameConfig(dim=3, grad_bound=1.0, horizon=60, seed=5)
            trace = run_game(strat, adv, cfg, 60)
            norms = np.linalg.norm(trace.w, axis=1)
            assert np.all(norms <= 0.7 + 1e-12)


class TestNormalKnownTPlay:
    def test_zero_state(self):
        w = play(NormalKnownTPotential(1.0, 2.0, 1.0, 2), 1, np.zeros(2))
        assert np.array_equal(w, np.zeros(2))

    def test_hand_example(self):
        # t = T-1 = 1: denominator is 2aT exactly; play = (e^0.5 - 1)/2
        w = play(NormalKnownTPotential(1.0, 2.0, 1.0, 2), 1, np.array([1.0, 0.0]))
        np.testing.assert_allclose(w, [0.3243606353500641, 0.0], rtol=1e-12)

    def test_linear_in_eps(self):
        theta = np.array([0.5, 1.0])
        one = play(NormalKnownTPotential(1.0, 2.0, 1.0, 5), 2, theta)
        two = play(NormalKnownTPotential(2.0, 2.0, 1.0, 5), 2, theta)
        np.testing.assert_allclose(two, 2.0 * one, rtol=1e-14)

    def test_construction_guard(self):
        with pytest.raises(ValueError):
            PotentialPlayer(NormalKnownTPotential(eps=1.0, a=1.5, G=1.0, T=10))


class TestAdaptiveNormalPlay:
    def test_first_round_zero(self):
        w = play(AdaptiveNormalPotential(1.0, 3.0, 1.0), 0, np.zeros(2))
        assert np.array_equal(w, np.zeros(2))

    def test_hand_example(self):
        # (e^{4/6} - e^0) / (2 log^2 2) along theta_hat
        w = play(AdaptiveNormalPotential(1.0, 3.0, 1.0), 0, np.array([1.0, 0.0]))
        expected = (math.exp(4.0 / 6.0) - 1.0) / (2.0 * math.log(2.0) ** 2)
        np.testing.assert_allclose(w, [expected, 0.0], rtol=1e-12)
        assert w[0] == pytest.approx(0.9862921176471487, rel=1e-10)

    def test_odd_symmetry(self):
        theta = np.array([0.4, -1.1, 0.3])
        plus = play(AdaptiveNormalPotential(1.0, 2.5, 1.0), 7, theta)
        minus = play(AdaptiveNormalPotential(1.0, 2.5, 1.0), 7, -theta)
        np.testing.assert_allclose(minus, -plus, rtol=1e-14)

    def test_construction_guard(self):
        with pytest.raises(ValueError):
            PotentialPlayer(AdaptiveNormalPotential(eps=1.0, a=2.0, G=1.0))


MINIMAX_FAMILIES = [
    QuadraticPotential(eta=0.3, G=1.0),
    PowerPotential(W=1.3, p=1.4, G=0.9, T=6),
    NormalKnownTPotential(eps=1.0, a=2.0, G=1.0, T=5),
    AdaptiveNormalPotential(eps=1.0, a=2.5, G=1.0),
]


class TestMinimaxConsistency:
    """Each play is parallel to theta and is the one-round minimax play for its
    next-step potential: its worst-case payoff is the kernel's game value."""

    @pytest.mark.parametrize("pot", MINIMAX_FAMILIES, ids=[pot.tag for pot in MINIMAX_FAMILIES])
    def test_play_matches_one_round_solver(self, pot):
        player = PotentialPlayer(pot)
        rng = make_rng(31)
        for k in range(40):
            t = int(rng.integers(0, getattr(pot, "T", 12)))
            d = int(rng.integers(2, 17))
            r = 0.0 if k % 10 == 0 else float(rng.uniform(0.0, 4.0))
            v = rng.standard_normal(d)
            theta = r * v / np.linalg.norm(v)
            w = player.response(t, theta, norm(theta))
            alpha = float(w @ theta) / r if r > 0 else 0.0
            np.testing.assert_allclose(w, alpha * theta / max(r, 1e-300), rtol=0, atol=1e-15 * (1 + abs(alpha)))
            h = lambda x: pot.radial(t + 1, np.abs(x))
            value = minmax_values(h, plane_distance, [r], pot.G, 513)[0]
            payoff = worst_case_payoff(h, plane_distance, [r], pot.G, [alpha], 513)[0]
            assert abs(payoff - value) <= 1e-9 * (1.0 + abs(value)), (t, d, r, payoff, value)


class TestIdenticalPlaysAgainstMinimaxAdversary:
    def test_power_family_collapses(self):
        # W = (G sqrt(T))^(1-p): identical trajectories for all p against the
        # orthogonal minimax adversary, matching OGD at eta = 1/(G sqrt(T))
        G, T, d, seed = 1.0, 36, 2, 9
        refs = None
        for p in (1.0, 1.5, 2.0):
            W = (G * math.sqrt(T)) ** (1.0 - p)
            strat = PotentialPlayer(PowerPotential(W=W, p=p, G=G, T=T))
            cfg = GameConfig(dim=d, grad_bound=G, horizon=T, seed=seed)
            trace = run_game(strat, OrthogonalMinimax(G=G), cfg, T)
            if refs is None:
                refs = trace.w
            else:
                np.testing.assert_allclose(trace.w, refs, atol=1e-9)
        ogd = PotentialPlayer(QuadraticPotential(eta=1.0 / (G * math.sqrt(T)), G=G))
        cfg = GameConfig(dim=d, grad_bound=G, horizon=T, seed=seed)
        trace = run_game(ogd, OrthogonalMinimax(G=G), cfg, T)
        np.testing.assert_allclose(trace.w, refs, atol=1e-9)


class TestRotationEquivariance:
    @pytest.mark.parametrize("angle", [0.3, 1.2, 2.8, -0.7])
    def test_d2_rotations(self, angle):
        R = np.array([[math.cos(angle), -math.sin(angle)],
                      [math.sin(angle), math.cos(angle)]])
        theta = np.array([1.1, -0.4])
        plays = [
            (QuadraticPotential(0.3, 1.0), 0),
            (PowerPotential(1.0, 1.5, 1.0, 8), 3),
            (NormalKnownTPotential(1.0, 2.0, 1.0, 8), 3),
            (AdaptiveNormalPotential(1.0, 2.5, 1.0), 3),
        ]
        for pot, t in plays:
            np.testing.assert_allclose(play(pot, t, R @ theta), R @ play(pot, t, theta), atol=1e-9)
