import math
import re

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
    QuadraticPotential,
    RademacherLine,
    GaussianRandom,
    make_rng,
    random_unit_vector,
    run_game,
    run_games,
)
from minimax_online.core import DimensionMismatchError, UnsupportedDimensionError, row_norms
from minimax_online.checks import adversary_quartet


def answer(adv, t, theta, w=None, seeds=None):
    """An adversary's round-t gradients against the states theta (one row per
    run), run k on the stream of seeds[k] (seed k by default): a minimax
    adversary's to the states alone, the greedy one's to the pending plays w."""
    theta = np.atleast_2d(np.asarray(theta, dtype=np.float64))
    rngs = [make_rng(k) for k in (range(len(theta)) if seeds is None else seeds)]
    if w is None:
        return adv.grads(t, theta, row_norms(theta), rngs)
    return adv.grads(t, theta, row_norms(theta), w)


def walk(adv, theta, rounds, rngs):
    """theta after each of rounds rounds against the minimax adversary adv;
    one row per run, run k on rngs[k]."""
    states = []
    for t in range(rounds):
        theta = theta - adv.grads(t, theta, row_norms(theta), rngs)
        states.append(theta)
    return states


def recurrence(adv, rngs, rounds, dim):
    """The (R, rounds, dim) gradients of the minimax adversary adv from theta = 0,
    one grads call per round, run k on rngs[k]."""
    theta, block = np.zeros((len(rngs), dim)), np.empty((len(rngs), rounds, dim))
    for t in range(rounds):
        block[:, t] = adv.grads(t, theta, row_norms(theta), rngs)
        theta = theta - block[:, t]
    return block


class ScriptedStream:
    """A stand-in for a run's Generator: its normals are read from a script, in
    order, and its state is its position in the script."""

    def __init__(self, normals):
        self.normals = np.asarray(normals, dtype=np.float64).ravel()
        self.state = 0

    def standard_normal(self, size, out=None):
        values = self.normals[self.state:self.state + int(np.prod(size))].reshape(size)
        self.state += values.size
        if out is None:
            return values.copy()
        out[...] = values
        return out


MINIMAX = {"orthogonal": OrthogonalMinimax(G=1.0), "orthogonal_G0.7": OrthogonalMinimax(G=0.7),
           **{f"parallel_{policy}": ParallelMinimax(G=1.0, sign_policy=policy)
              for policy in ("grow", "shrink", "alternate", "random")}}


class TestGradientBlocks:
    @pytest.mark.parametrize("R", [1, 4])
    @pytest.mark.parametrize("d", [2, 3, 16])
    @pytest.mark.parametrize("name", list(MINIMAX))
    def test_block_is_the_grads_recurrence_bit_for_bit(self, name, d, R):
        adv = MINIMAX[name]
        for seed in (0, 17, 2**31):
            seeds = [seed + 101 * k for k in range(R)]
            got = adv.gradient_block([make_rng(s) for s in seeds], 60, d)
            assert got.tobytes() == recurrence(adv, [make_rng(s) for s in seeds], 60, d).tobytes(), seed

    @pytest.mark.parametrize("spoil", ["draw_on_theta_line", "round_0_draw_of_norm_0"])
    def test_a_degenerate_draw_takes_its_fixed_answer(self, spoil):
        # run 1's draw for round 1 repeats round 0's, which lies on theta's line, or its
        # round-0 draw is 0: either becomes a fixed axis, and no stream reads more than
        # its row of d normals a round
        rounds, d, G = 30, 4, 0.7
        scripts = make_rng(3).standard_normal((3, rounds + 4, d))
        if spoil == "draw_on_theta_line":
            scripts[1, 1] = scripts[1, 0]
        else:
            scripts[1, 0] = 0.0
        adv = OrthogonalMinimax(G=G)
        streams = [ScriptedStream(script) for script in scripts]
        got = adv.gradient_block(streams, rounds, d)
        assert [s.state for s in streams] == [rounds * d] * 3
        assert got.tobytes() == recurrence(adv, [ScriptedStream(script) for script in scripts], rounds, d).tobytes()
        np.testing.assert_allclose(row_norms(got), G, rtol=1e-15)
        theta = np.concatenate((np.zeros((3, 1, d)), -np.cumsum(got, axis=1)[:, :-1]), axis=1)  # each round's state
        assert np.all(np.abs(np.einsum("rtd,rtd->rt", got, theta)) <= 1e-15 * G * row_norms(theta))
        if spoil == "round_0_draw_of_norm_0":
            assert got[1, 0].tolist() == [G, 0.0, 0.0, 0.0]  # e_1
        else:  # the axis least aligned with theta, projected out of it
            u = theta[1, 1] / row_norms(theta[1, 1])
            e = np.eye(d)[np.argmin(np.abs(u))]
            e = e - (e @ u) * u
            np.testing.assert_allclose(got[1, 1], G * e / row_norms(e), rtol=0.0, atol=1e-15)

    def test_a_gradient_of_the_wrong_shape_names_its_round(self):
        class WrongShape(ParallelMinimax):
            def grads(self, t, theta, r, rngs):
                g = super().grads(t, theta, r, rngs)
                return g if t < 2 else g[:, :-1]

        with pytest.raises(DimensionMismatchError, match=re.escape("round 3: gradients (2, 2), expected (2, 3)")):
            WrongShape(G=1.0).gradient_block([make_rng(0), make_rng(1)], 5, 3)


class TestZeroDraw:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_a_zero_draw_is_e1_and_reads_d_normals(self, d):
        stream = ScriptedStream(np.zeros(2 * d))
        assert random_unit_vector(stream, d).tolist() == np.eye(d)[0].tolist()
        assert stream.state == d
        # GaussianRandom: a zero draw between two others, each run reading d normals a round
        scripts = make_rng(9).standard_normal((2, 3, d))
        scripts[1, 1] = 0.0
        streams = [ScriptedStream(script) for script in scripts]
        got = GaussianRandom(G=2.0).gradient_block(streams, 3, d)
        assert [s.state for s in streams] == [3 * d, 3 * d]
        assert got[1, 1].tolist() == (2.0 * np.eye(d)[0]).tolist()
        np.testing.assert_allclose(row_norms(got), 2.0, rtol=1e-15)
        assert got[1, 2].tobytes() == (2.0 * (scripts[1, 2] / row_norms(scripts[1, 2]))).tobytes()


class TestOrthogonalMinimax:
    def test_orthogonal_full_norm(self):
        g = answer(OrthogonalMinimax(G=2.0), 0, [1.0, 0.0])[0]
        assert g[0] == 0.0
        assert abs(np.linalg.norm(g) - 2.0) <= 1e-12

    def test_pythagorean_growth(self):
        G, T = 1.5, 40
        states = walk(OrthogonalMinimax(G=G), np.zeros((2, 3)), T, [make_rng(4), make_rng(5)])
        for t, theta in enumerate(states, start=1):
            np.testing.assert_allclose(row_norms(theta), G * math.sqrt(t), rtol=1e-12)

    def test_zero_state_full_norm(self):
        g = answer(OrthogonalMinimax(G=3.0), 0, np.zeros(2), seeds=[1])[0]
        assert abs(np.linalg.norm(g) - 3.0) <= 1e-12

    def test_dim_one_rejected(self):
        with pytest.raises(UnsupportedDimensionError):
            answer(OrthogonalMinimax(G=1.0), 0, [1.0])


class TestParallelMinimax:
    def test_shrink_sign_along_state(self):
        g = answer(ParallelMinimax(G=2.0, sign_policy="shrink"), 0, [0.0, 3.0])[0]
        np.testing.assert_allclose(g, [0.0, 2.0], rtol=1e-15)

    @pytest.mark.parametrize("policy", ["grow", "shrink", "alternate", "random"])
    def test_zero_state_draws_a_direction_from_its_stream(self, policy):
        # theta = 0 has no direction: each run draws one from its own stream,
        # after the sign a "random" run draws first
        g = answer(ParallelMinimax(G=2.0, sign_policy=policy), 0, [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], seeds=[7, 8])
        rng = make_rng(7)
        if policy == "random":
            rng.random()
        np.testing.assert_array_equal(g[0], 2.0 * random_unit_vector(rng, 3))
        assert abs(g[1, 0]) == 2.0

    def test_default_policy_grows_state(self):
        theta = np.array([[0.5, 0.0]])
        states = walk(ParallelMinimax(G=1.0), theta, 5, [make_rng(0)])
        for before, after in zip([theta] + states, states):
            assert row_norms(after)[0] > row_norms(before)[0]

    def test_alternating_returns_near_origin(self):
        states = walk(ParallelMinimax(G=1.0, sign_policy="alternate"), np.zeros((3, 2)), 2 * 13,
                      [make_rng(seed) for seed in (2, 3, 4)])
        assert row_norms(states[-1]).max() <= 1.0 + 1e-12

    def test_policy_validated(self):
        with pytest.raises(ValueError):
            ParallelMinimax(G=1.0, sign_policy="zigzag")


class TestGreedyVsComparator:
    def test_unit_direction_of_gap(self):
        g = answer(GreedyVsComparator(G=1.0, comparator=(0.0, 0.0)), 0, np.zeros(2), w=np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(g, [[1.0, 0.0]])

    def test_at_comparator(self):
        u = (0.3, -0.4)
        g = answer(GreedyVsComparator(G=1.0, comparator=u), 0, np.zeros(2), w=np.array([u]))
        assert np.array_equal(g, np.zeros((1, 2)))

    def test_a_tiny_gap_gets_a_full_norm_direction(self):
        # the norm of a subnormal gap has too few digits to divide by: (5e-324, 5e-324) / 5e-324 has norm sqrt(2)
        adv = GreedyVsComparator(G=2.0, comparator=(5e-324, 5e-324))
        w = np.array([[0.0, 0.0], [1e-200, -3e-200], [3.0, 4.0], [5e-324, 5e-324]])
        g = answer(adv, 0, np.zeros((4, 2)), w=w)
        np.testing.assert_allclose(row_norms(g), [2.0, 2.0, 2.0, 0.0], rtol=1e-15)
        np.testing.assert_allclose(g[:2], [[-np.sqrt(2.0), -np.sqrt(2.0)], [2.0 * 0.1 ** 0.5, -6.0 * 0.1 ** 0.5]],
                                   rtol=1e-15)
        # the other rows divide as before, bit for bit
        assert g[2].tolist() == (2.0 * (w[2] - 5e-324) / 5.0).tolist()

    def test_instantaneous_regret_maximized(self):
        rng = make_rng(8)
        for _ in range(20):
            w = rng.standard_normal((3, 4))
            u = rng.standard_normal(4)
            G = float(rng.uniform(0.5, 3.0))
            g = answer(GreedyVsComparator(G=G, comparator=tuple(u)), 0, np.zeros((3, 4)), w=w)
            np.testing.assert_allclose(np.einsum("ij,ij->i", g, w - u), G * row_norms(w - u), rtol=1e-12)


class TestNormFeasibility:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_every_adversary_every_round(self, seed):
        # the players play w = 0.1 theta
        G = 1.3
        advs = adversary_quartet(G) + [
            ParallelMinimax(G=G, sign_policy="alternate"),
            ParallelMinimax(G=G, sign_policy="random"),
            RademacherLine(G=G),
            GreedyVsComparator(G=G, comparator=(0.5, -0.5, 0.0)),
        ]
        player = PotentialPlayer(QuadraticPotential(eta=0.1, G=G))
        configs = [GameConfig(dim=3, grad_bound=G, seed=seed + k) for k in range(3)]
        for adv in advs:
            for trace in run_games(player, adv, configs, 30):
                assert row_norms(trace.g).max() <= G + 1e-12


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
        assert np.linalg.norm(trace.theta[-1]) == pytest.approx(4.0, rel=1e-12)

    def test_minimax_value_reproduction(self):
        # Reward = B(theta_T) - f(G sqrt(T)) for the power duel (both minimax)
        G, T = 1.0, 16
        for p in (1.0, 1.5, 2.0):
            strat = PotentialPlayer(PowerPotential(W=1.0, p=p, G=G, T=T))
            cfg = GameConfig(dim=2, grad_bound=G, horizon=T, seed=2)
            trace = run_game(strat, OrthogonalMinimax(G=G), cfg, T)
            benchmark = (1.0 / p) * np.linalg.norm(trace.theta[-1]) ** p
            game_value = (1.0 / p) * (G * math.sqrt(T)) ** p
            assert trace.reward == pytest.approx(benchmark - game_value, abs=1e-9)


class TestStochasticAdversaries:
    def test_rademacher_line_stays_on_line(self):
        gs = RademacherLine(G=2.0).gradient_block([make_rng(5), make_rng(6)], 20, 3)
        assert not gs[:, :, 1:].any()
        assert np.array_equal(np.abs(gs[:, :, 0]), np.full((2, 20), 2.0))

    def test_gaussian_random_norm(self):
        gs = GaussianRandom(G=0.7).gradient_block([make_rng(6)], 50, 2)[0]
        np.testing.assert_allclose(np.linalg.norm(gs, axis=1), 0.7, rtol=1e-12)
        assert np.std(gs[:, 0]) > 0.1  # directions actually vary

    def test_fixed_direction_constant(self):
        gs = FixedDirection(G=1.0, direction=(0.0, 1.0)).gradient_block([make_rng(7)], 5, 2)
        np.testing.assert_allclose(gs, np.tile([0.0, 1.0], (1, 5, 1)))
