import math

import numpy as np
import pytest

from minimax_online import (
    FixedDirection,
    GameConfig,
    GreedyVsComparator,
    OrthogonalMinimax,
    ParallelMinimax,
    PotentialPlayer,
    PowerPotential,
    RademacherLine,
    GaussianRandom,
    greedy_vs_comparator_grad,
    make_rng,
    orthogonal_minimax_grad,
    parallel_minimax_grad,
    run_game,
)
from minimax_online.core import UnsupportedDimensionError
from minimax_online.checks import adversary_quartet


class TestOrthogonalMinimax:
    def test_orthogonal_full_norm(self):
        g = orthogonal_minimax_grad(np.array([1.0, 0.0]), 2.0, make_rng(0))
        assert g[0] == 0.0
        assert abs(np.linalg.norm(g) - 2.0) <= 1e-12

    def test_pythagorean_growth(self):
        G, T = 1.5, 40
        rng = make_rng(4)
        theta = np.zeros(3)
        for t in range(1, T + 1):
            theta = theta - orthogonal_minimax_grad(theta, G, rng)
            assert np.linalg.norm(theta) == pytest.approx(G * math.sqrt(t), rel=1e-12)

    def test_zero_state_full_norm(self):
        g = orthogonal_minimax_grad(np.zeros(2), 3.0, make_rng(1))
        assert abs(np.linalg.norm(g) - 3.0) <= 1e-12

    def test_dim_one_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            orthogonal_minimax_grad(np.array([1.0]), 1.0, make_rng(0))


class TestParallelMinimax:
    def test_shrink_sign_along_state(self):
        g = parallel_minimax_grad(np.array([0.0, 3.0]), 2.0, sign=1.0)
        np.testing.assert_allclose(g, [0.0, 2.0], rtol=1e-15)

    def test_zero_state_fixed_direction(self):
        g = parallel_minimax_grad(np.zeros(3), 2.0, sign=1.0)
        np.testing.assert_allclose(g, [2.0, 0.0, 0.0])

    def test_default_policy_grows_state(self):
        adv = ParallelMinimax(G=1.0)
        rng = make_rng(0)
        theta = np.array([0.5, 0.0])
        for t in range(5):
            g = adv.grad(t, theta, None, rng)
            new = theta - g
            assert np.linalg.norm(new) > np.linalg.norm(theta)
            theta = new

    def test_alternating_returns_near_origin(self):
        adv = ParallelMinimax(G=1.0, sign_policy="alternate")
        rng = make_rng(2)
        theta = np.zeros(2)
        for t in range(2 * 13):
            theta = theta - adv.grad(t, theta, None, rng)
        assert np.linalg.norm(theta) <= 1.0 + 1e-12

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            ParallelMinimax(G=1.0, sign_policy="zigzag")


class TestGreedyVsComparator:
    def test_unit_direction_of_gap(self):
        g = greedy_vs_comparator_grad(np.array([1.0, 0.0]), np.zeros(2), 1.0)
        np.testing.assert_allclose(g, [1.0, 0.0])

    def test_at_comparator(self):
        u = np.array([0.3, -0.4])
        assert np.array_equal(greedy_vs_comparator_grad(u, u, 1.0), np.zeros(2))

    def test_instantaneous_regret_maximized(self):
        rng = make_rng(8)
        for _ in range(20):
            w = rng.standard_normal(4)
            u = rng.standard_normal(4)
            G = float(rng.uniform(0.5, 3.0))
            g = greedy_vs_comparator_grad(w, u, G)
            assert g @ (w - u) == pytest.approx(G * np.linalg.norm(w - u), rel=1e-12)


class TestNormFeasibility:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_every_adversary_every_round(self, seed):
        G = 1.3
        advs = adversary_quartet(G) + [
            ParallelMinimax(G=G, sign_policy="alternate"),
            ParallelMinimax(G=G, sign_policy="random"),
            RademacherLine(G=G),
            GreedyVsComparator(G=G, comparator=(0.5, -0.5, 0.0)),
        ]
        rng = make_rng(seed)
        for adv in advs:
            theta = np.zeros(3)
            w = np.zeros(3)
            for t in range(30):
                g = adv.grad(t, theta, w, rng)
                assert np.linalg.norm(g) <= G + 1e-12
                theta = theta - g
                w = 0.1 * theta


class TestOrthogonalDuelInvariants:
    def test_state_stays_on_value_shell(self):
        # any orthogonal-minimax trajectory keeps sqrt(||theta||^2 + G^2 (T-t)) = G sqrt(T)
        G, T = 1.0, 25
        cfg = GameConfig(dim=2, grad_bound=G, horizon=T, seed=13)
        strat = PotentialPlayer(PowerPotential(W=1.0, p=1.0, G=G, T=T))
        trace = run_game(strat, OrthogonalMinimax(G=G), cfg, T)
        for t in range(1, T + 1):
            shell = math.sqrt(np.linalg.norm(trace.theta[t - 1]) ** 2 + G * G * (T - t))
            assert shell == pytest.approx(G * math.sqrt(T), abs=1e-9)

    def test_zero_reward_duel(self):
        # plays parallel to theta against orthogonal gradients: reward 0 in
        # exact arithmetic, float rounding kept below 1e-12
        G, T = 1.0, 16
        cfg = GameConfig(dim=2, grad_bound=G, horizon=T, seed=21)
        strat = PotentialPlayer(PowerPotential(W=1.0, p=1.0, G=G, T=T))
        trace = run_game(strat, OrthogonalMinimax(G=G), cfg, T)
        assert np.all(np.abs(trace.losses) <= 1e-13)
        assert abs(trace.reward) <= 1e-12
        assert np.linalg.norm(trace.theta_final) == pytest.approx(4.0, rel=1e-12)

    def test_minimax_value_reproduction(self):
        # Reward = B(theta_T) - f(G sqrt(T)) for the power duel (both minimax)
        G, T = 1.0, 16
        for p in (1.0, 1.5, 2.0):
            strat = PotentialPlayer(PowerPotential(W=1.0, p=p, G=G, T=T))
            cfg = GameConfig(dim=2, grad_bound=G, horizon=T, seed=2)
            trace = run_game(strat, OrthogonalMinimax(G=G), cfg, T)
            benchmark = (1.0 / p) * np.linalg.norm(trace.theta_final) ** p
            game_value = (1.0 / p) * (G * math.sqrt(T)) ** p
            assert trace.reward == pytest.approx(benchmark - game_value, abs=1e-9)


class TestStochasticAdversaries:
    def test_rademacher_line_stays_on_line(self):
        adv = RademacherLine(G=2.0)
        rng = make_rng(5)
        for t in range(20):
            g = adv.grad(t, np.zeros(3), None, rng)
            assert g[1] == 0.0 and g[2] == 0.0
            assert abs(g[0]) == 2.0

    def test_gaussian_random_norm(self):
        adv = GaussianRandom(G=0.7)
        rng = make_rng(6)
        gs = np.array([adv.grad(t, np.zeros(2), None, rng) for t in range(50)])
        np.testing.assert_allclose(np.linalg.norm(gs, axis=1), 0.7, rtol=1e-12)
        assert np.std(gs[:, 0]) > 0.1  # directions actually vary

    def test_fixed_direction_constant(self):
        adv = FixedDirection(G=1.0, direction=(0.0, 1.0))
        rng = make_rng(7)
        for t in range(5):
            np.testing.assert_allclose(adv.grad(t, np.zeros(2), None, rng), [0.0, 1.0])
