import csv
import io
import json
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minimax_online import (
    AdaptiveNormalPotential,
    FixedDirection,
    GameConfig,
    GaussianRandom,
    GreedyVsComparator,
    NormalKnownTPotential,
    OrthogonalMinimax,
    ParallelMinimax,
    PotentialPlayer,
    PowerPotential,
    QuadraticPotential,
    RademacherLine,
    Trace,
    attach_epsilon,
    comparator_grid,
    epsilon_ledger,
    make_rng,
    norm,
    read_trace_json,
    regret,
    run_column,
    run_game,
    run_games,
    verify_bound,
    write_trace_csv,
    write_trace_json,
)
from minimax_online.core import (DimensionMismatchError, UnsupportedDimensionError, complement_rows,
                                 random_unit_vector, row_norms, unit_direction)
from minimax_online.engine import BOUND_TOL, _states, repr_spellings, trace_from_dict, trace_to_dict, write_repr_rows
from minimax_online.oracles import BoundaryHitError, conjugate_numeric


class ZeroPotential:
    def radial(self, t, x):
        return 0.0 * x

    def value(self, t, theta):
        return 0.0


def ogd(eta):
    return PotentialPlayer(QuadraticPotential(eta=eta, G=1.0))


def small_trace(seed=0, rounds=12, dim=2, eta=0.2):
    cfg = GameConfig(dim=dim, grad_bound=1.0, horizon=rounds, seed=seed)
    return run_game(ogd(eta), GaussianRandom(G=1.0), cfg, rounds)


# --- the one-run reference ---------------------------------------------------

def orthonormal_complement_sample(theta, rng):
    """A unit vector orthogonal to theta (any unit vector when theta = 0), for
    one run: in d = 2 the rotated direction (-theta_1, theta_0)/||theta|| with
    an rng-chosen sign; in higher dimensions a Gaussian draw projected out of
    theta's direction twice and normalized, drawn again while its projected
    norm is at most 1e-8."""
    theta = np.asarray(theta, dtype=np.float64)
    d = theta.size
    if d < 2:
        raise UnsupportedDimensionError("orthogonal complement requires dim >= 2")
    n = norm(theta)
    if n == 0.0:
        return random_unit_vector(rng, d)
    if d == 2:
        v = np.array([-theta[1], theta[0]]) / n
        if rng.random() < 0.5:
            v = -v
        return v
    u = theta / n
    while True:
        v = rng.standard_normal(d)
        v -= (v @ u) * u
        v -= (v @ u) * u  # second projection pass for orthogonality to ~1e-16
        m = norm(v)
        if m > 1e-8:
            return v / m


def reference_grad(adversary, t, theta, w, rng):
    """A built-in adversary's gradient at round t for one run: state theta,
    pending play w, the run's stream rng, read as the batch forms read it."""
    G, d = adversary.G, theta.size
    if isinstance(adversary, OrthogonalMinimax):
        return G * orthonormal_complement_sample(theta, rng)
    if isinstance(adversary, ParallelMinimax):
        sign = {"grow": -1.0, "shrink": 1.0, "alternate": -1.0 if t % 2 == 0 else 1.0}.get(
            adversary.sign_policy)
        if sign is None:  # "random"
            sign = 1.0 if rng.random() < 0.5 else -1.0
        that = unit_direction(theta)
        return sign * G * that if that.any() else G * random_unit_vector(rng, d)
    if isinstance(adversary, RademacherLine):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        return sign * G * reference_line(adversary.direction, d)
    if isinstance(adversary, GaussianRandom):
        return G * random_unit_vector(rng, d)
    if isinstance(adversary, FixedDirection):
        return G * reference_line(adversary.direction, d)
    if isinstance(adversary, AgainstThePlay):
        return (-G if w[0] > 0.0 else G) * np.eye(d)[0]
    if isinstance(adversary, GreedyVsComparator):
        diff = w - np.asarray(adversary.comparator, dtype=np.float64)
        n = np.linalg.norm(diff)
        return np.zeros_like(diff) if n == 0.0 else G * diff / n
    raise TypeError(f"no reference gradient for {type(adversary).__name__}")


def reference_line(direction, d):
    return np.eye(d)[0] if direction is None else unit_direction(np.asarray(direction, dtype=np.float64))


def reference_run_game(strategy, adversary, config, rounds):
    """The min-then-max loop for one run, round by round: one play (the
    player's response to one state) and one reference_grad per round.  A value
    that leaves the float64 range raises OverflowError naming the round."""
    rng = make_rng(config.seed)
    d = config.dim
    w_rows, g_rows, th_rows = (np.zeros((rounds, d)) for _ in range(3))
    losses = np.zeros(rounds)
    theta = np.zeros(d)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for t in range(rounds):
                w = strategy.response(t, theta, norm(theta))
                g = reference_grad(adversary, t, theta, w, rng)
                theta = theta - g
                w_rows[t], g_rows[t], th_rows[t], losses[t] = w, g, theta, w @ g
    except FloatingPointError as exc:
        raise OverflowError(f"round {t + 1}: {exc}") from exc
    return Trace(config, strategy.tag, adversary.tag, w_rows, g_rows, th_rows, losses)


@dataclass(frozen=True)
class AgainstThePlay:
    """A test adversary that reads the plays, so run_games answers it round by
    round: G along the first axis, against the sign of the play's first
    coordinate (+G when it is 0).  The players here play along theta, so theta
    runs down that axis as against fixed_direction."""

    G: float

    tag = "against_the_play"

    def grads(self, t, theta, r, w):
        g = np.zeros_like(w)
        g[:, 0] = np.where(w[:, 0] > 0.0, -self.G, self.G)
        return g


class TestRunGame:
    def test_ogd_against_fixed_direction(self):
        eta, T = 0.1, 10
        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=T, seed=0)
        trace = run_game(ogd(eta), FixedDirection(G=1.0), cfg, T)
        np.testing.assert_allclose(trace.w[-1], [-eta * (T - 1), 0.0], rtol=1e-12)
        assert regret(trace, np.zeros(2)) == pytest.approx(-eta * T * (T - 1) / 2.0, rel=1e-12)

    def test_zero_rounds(self):
        cfg = GameConfig(dim=3, grad_bound=1.0, horizon=5, seed=0)
        trace = run_game(ogd(0.1), FixedDirection(G=1.0), cfg, 0)
        assert trace.n_rounds == 0
        assert trace.reward == 0.0

    def test_state_recomputation_is_exact(self):
        trace = small_trace(seed=3, rounds=40)
        recomputed = -np.cumsum(trace.g, axis=0)
        assert np.array_equal(recomputed, trace.theta)

    def test_determinism_bit_identical(self):
        a = small_trace(seed=11)
        b = small_trace(seed=11)
        c = small_trace(seed=12)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.g, b.g)
        assert np.array_equal(a.losses, b.losses)
        assert not np.array_equal(a.g, c.g)

    def test_known_horizon_enforced(self):
        strat = PotentialPlayer(PowerPotential(W=1.0, p=1.5, G=1.0, T=8))
        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=8, seed=0)
        with pytest.raises(ValueError):
            run_game(strat, FixedDirection(G=1.0), cfg, 5)
        cfg_unknown = GameConfig(dim=2, grad_bound=1.0, seed=0)
        with pytest.raises(ValueError):
            run_game(strat, FixedDirection(G=1.0), cfg_unknown, 8)

    def test_adversary_norm_checked(self):
        class Cheater(FixedDirection):
            def gradient_block(self, rngs, rounds, dim):
                return 2.0 * super().gradient_block(rngs, rounds, dim)

        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=3, seed=0)
        with pytest.raises(ValueError, match="round 1: adversary emitted"):
            run_game(ogd(0.1), Cheater(G=1.0), cfg, 3)

    @pytest.mark.parametrize("path", ["block", "round by round"])
    def test_nan_gradient_rejected(self, path):
        class NanBlock(FixedDirection):
            def gradient_block(self, rngs, rounds, dim):
                return np.full((len(rngs), rounds, dim), math.nan)

        class NanRounds(GreedyVsComparator):
            def grads(self, t, theta, r, w):
                return np.full_like(theta, math.nan)

        adversary = NanBlock(G=1.0) if path == "block" else NanRounds(G=1.0, comparator=(1.0, 0.0))
        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=3, seed=0)
        with pytest.raises(ValueError, match="round 1: adversary emitted"):
            run_game(ogd(0.1), adversary, cfg, 3)

    @pytest.mark.parametrize("extra", [(0, 0, 1), (0, 1, 0), (1, 0, 0)], ids=["width", "rounds", "runs"])
    def test_a_gradient_block_of_the_wrong_shape_is_rejected(self, extra):
        class WrongBlock(FixedDirection):
            def gradient_block(self, rngs, rounds, dim):
                return np.zeros((len(rngs) + extra[0], rounds + extra[1], dim + extra[2]))

        configs = [GameConfig(dim=2, grad_bound=1.0, seed=seed) for seed in (0, 1)]
        want = (2 + extra[0], 4 + extra[1], 2 + extra[2])
        with pytest.raises(DimensionMismatchError, match=re.escape(f"gradient block {want}, expected (2, 4, 2)")):
            run_games(ogd(0.1), WrongBlock(G=1.0), configs, 4)

    def test_gradients_of_the_wrong_shape_are_rejected(self):
        class WrongRounds(GreedyVsComparator):
            def grads(self, t, theta, r, w):
                return np.zeros((theta.shape[0], theta.shape[1] + 1))

        configs = [GameConfig(dim=2, grad_bound=1.0, seed=seed) for seed in (0, 1)]
        with pytest.raises(DimensionMismatchError, match=re.escape("round 1: plays (2, 2), gradients (2, 3)")):
            run_games(ogd(0.1), WrongRounds(G=1.0, comparator=(1.0, 0.0)), configs, 4)


def lockstep_player(tag, T):
    return PotentialPlayer({
        "ogd": QuadraticPotential(eta=1.0 / math.sqrt(T), G=1.0),
        "power": PowerPotential(W=1.0, p=1.5, G=1.0, T=T),
        "normal_knownT": NormalKnownTPotential(eps=1.0, a=2.4, G=1.0, T=T),
        "adaptive_normal": AdaptiveNormalPotential(eps=1.0, a=2.4, G=1.0),
    }[tag])


def lockstep_adversary(tag, d):
    """The registry's adversaries with their defaults, plus the sign policies
    of parallel_minimax that return theta to zero and draw there."""
    return {
        "orthogonal_minimax": lambda: OrthogonalMinimax(G=1.0),
        "parallel_minimax": lambda: ParallelMinimax(G=1.0),
        "parallel_shrink": lambda: ParallelMinimax(G=1.0, sign_policy="shrink"),
        "parallel_alternate": lambda: ParallelMinimax(G=1.0, sign_policy="alternate"),
        "parallel_random": lambda: ParallelMinimax(G=1.0, sign_policy="random"),
        "rademacher_line": lambda: RademacherLine(G=1.0),
        "gaussian_random": lambda: GaussianRandom(G=1.0),
        "fixed_direction": lambda: FixedDirection(G=1.0),
        "greedy_vs_comparator": lambda: GreedyVsComparator(G=1.0, comparator=(1.0,) + (0.0,) * (d - 1)),
    }[tag]()


STRATEGY_TAGS = ["ogd", "power", "normal_knownT", "adaptive_normal"]
ADVERSARY_TAGS = ["orthogonal_minimax", "parallel_minimax", "parallel_shrink", "parallel_alternate",
                  "parallel_random", "rademacher_line", "gaussian_random", "fixed_direction",
                  "greedy_vs_comparator"]
# run_games against reference_run_game: the largest gap, over the largest entry of the
# field (for losses, of sum_i |w_i g_i|; for eps, of that plus |q_t|), was
# 5.3e-15 at T = 60 and 1.2e-14 at T = 1000, over every pair here, d in
# {1, 2, 4, 16} and seeds 0-3, with every adversary but the greedy played as a
# gradient block.  The largest is orthogonal_minimax's g, whose row dots
# einsum sums in another order than the reference's v @ u; parallel_minimax's
# largest is 1.9e-15 (its w at T = 60; its g and theta are the reference's),
# the state-blind adversaries' 4.1e-16, and greedy_vs_comparator's 0
LOCKSTEP_RTOL = 1e-13


def lockstep_group(s_tag, a_tag, d, T, seeds):
    player = lockstep_player(s_tag, T)
    configs = [GameConfig(dim=d, grad_bound=1.0, horizon=T, seed=seed) for seed in seeds]
    return player, lockstep_adversary(a_tag, d), configs


def fields_of(trace):
    return {f: getattr(trace, f) for f in ("w", "g", "theta", "losses", "eps")}


class TestRunGames:
    @given(s_tag=st.sampled_from(STRATEGY_TAGS), a_tag=st.sampled_from(ADVERSARY_TAGS),
           d=st.sampled_from([1, 2, 4, 16]), T=st.integers(1, 60),
           seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_row_is_its_own_run_bit_for_bit(self, s_tag, a_tag, d, T, seeds):
        if a_tag == "orthogonal_minimax" and d == 1:
            d = 2  # no orthogonal complement at d = 1
        player, adversary, configs = lockstep_group(s_tag, a_tag, d, T, seeds)
        batch = run_games(player, adversary, configs, T)
        for cfg, trace in zip(configs, batch):
            alone = run_games(player, adversary, [cfg], T)[0]
            for tr in (trace, alone):
                attach_epsilon(tr, player.potential)
            assert trace.config == cfg
            for name, value in fields_of(trace).items():
                assert value.tobytes() == getattr(alone, name).tobytes(), name

    @pytest.mark.parametrize("a_tag", ADVERSARY_TAGS)
    @pytest.mark.parametrize("s_tag", STRATEGY_TAGS)
    def test_agrees_with_reference_run_game(self, s_tag, a_tag):
        T = 60
        for d in (2, 16):
            player, adversary, configs = lockstep_group(s_tag, a_tag, d, T, range(4))
            for cfg, got in zip(configs, run_games(player, adversary, configs, T)):
                ref = reference_run_game(player, adversary, cfg, T)
                for tr in (ref, got):
                    attach_epsilon(tr, player.potential)
                term = np.abs(ref.w * ref.g).sum(axis=1)
                q = np.abs(player.potential.radial(np.arange(1, T + 1), row_norms(ref.theta)))
                scale = {"w": np.abs(ref.w).max(), "g": np.abs(ref.g).max(), "theta": np.abs(ref.theta).max(),
                         "losses": term.max(), "eps": (term + q).max()}
                for name, value in fields_of(ref).items():
                    gap = np.abs(getattr(got, name) - value).max()
                    assert gap <= LOCKSTEP_RTOL * scale[name], (name, d, cfg.seed, gap / scale[name])

    @pytest.mark.parametrize("adversary", [FixedDirection(G=0.7), RademacherLine(G=0.7),
                                           FixedDirection(G=0.7, direction=(0.3, -1.1, 2.0)),
                                           RademacherLine(G=0.7, direction=(0.3, -1.1, 2.0))])
    def test_line_gradients_are_run_games_bit_for_bit(self, adversary):
        player = PotentialPlayer(AdaptiveNormalPotential(eps=1.0, a=2.4, G=0.7))
        configs = [GameConfig(dim=3, grad_bound=0.7, seed=seed) for seed in (0, 5, 9)]
        for cfg, got in zip(configs, run_games(player, adversary, configs, 200)):
            assert got.g.tobytes() == reference_run_game(player, adversary, cfg, 200).g.tobytes()

    # fixed_direction and parallel_minimax give their gradient blocks at once, AgainstThePlay
    # answers the plays round by round
    @pytest.mark.parametrize("adversary", [FixedDirection(G=1.0), ParallelMinimax(G=1.0), AgainstThePlay(G=1.0)])
    def test_overflow_raises_overflow_error(self, adversary):
        # adaptive_normal against one line that theta grows along leaves float64 after about 3.4k rounds:
        # q_t(r + G) overflows from round 3407 on, the play D_t(r) / (2 G r) at round 3430
        player = PotentialPlayer(AdaptiveNormalPotential(eps=1.0, a=2.4, G=1.0))
        configs = [GameConfig(dim=4, grad_bound=1.0, seed=seed) for seed in (0, 1)]
        with pytest.raises(OverflowError, match="round 3430"):
            run_games(player, adversary, configs, 4000)
        with pytest.raises(OverflowError, match="round 3430"):
            reference_run_game(player, adversary, configs[0], 4000)

    @pytest.mark.parametrize("path", ["block", "round by round"])
    @pytest.mark.parametrize("stretch", [1.5, 1e200])
    def test_a_long_gradient_names_its_round(self, path, stretch):
        # a gradient 1e200 long makes the next play overflow; the long gradient comes first
        class LongBlock(FixedDirection):
            def gradient_block(self, rngs, rounds, dim):
                block = super().gradient_block(rngs, rounds, dim)
                block[-1, 1] *= stretch
                return block

        class LongRounds(GreedyVsComparator):
            def grads(self, t, theta, r, w):
                g = super().grads(t, theta, r, w)
                g[-1] *= stretch if t == 1 else 1.0
                return g

        adversary = LongBlock(G=1.0) if path == "block" else LongRounds(G=1.0, comparator=(1.0, 0.0, 0.0))
        player = PotentialPlayer(AdaptiveNormalPotential(eps=1.0, a=2.4, G=1.0))
        configs = [GameConfig(dim=3, grad_bound=1.0, seed=seed) for seed in (0, 1)]
        with pytest.raises(ValueError, match="round 2: adversary emitted"):
            run_games(player, adversary, configs, 50)

    @pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
    def test_row_norms_exact_at_float64_extremes(self, scale):
        states = make_rng(3).standard_normal((6, 5))
        states[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = row_norms(states * scale)
        want = np.array([math.sqrt(sum(float(x) ** 2 for x in row)) for row in states]) * scale
        np.testing.assert_allclose(got, want, rtol=2e-16 * 5, atol=0.0)
        assert [norm(row) for row in states * scale] == got.tolist()
        # the lockstep play of the ogd player is eta * theta at these scales too
        player = PotentialPlayer(QuadraticPotential(eta=0.25, G=1.0))
        np.testing.assert_allclose(player.response(0, states * scale, got), 0.25 * states * scale, rtol=1e-15)

    @pytest.mark.parametrize("adversary", [FixedDirection(G=1e153), GreedyVsComparator(G=1e153, comparator=(1.0, 0.0))])
    def test_a_group_that_fails_raises_alone(self, adversary):
        # adaptive_normal's beta_1 = eps / log(2)^2, about 2.08e308, leaves float64, so its first play does; ogd's
        # group, after it in the column, keeps its traces
        players = [PotentialPlayer(AdaptiveNormalPotential(eps=1e308, a=2.4e306, G=1e153)),
                   PotentialPlayer(QuadraticPotential(eta=1e-154, G=1e153))]
        configs = [GameConfig(dim=2, grad_bound=1e153, seed=seed) for seed in (0, 1)]
        groups = run_column(players, adversary, configs, 20)
        assert len(groups) == 2 and all(callable(group) for group in groups)
        with pytest.raises(OverflowError, match=re.escape("round 1: the play left the float64 range")):
            groups[0]()
        for got, alone in zip(groups[1](), run_games(players[1], adversary, configs, 20), strict=True):
            for key in ("w", "g", "theta", "losses"):
                assert getattr(got, key).tobytes() == getattr(alone, key).tobytes(), key

    def test_configs_must_share_the_game(self):
        player = PotentialPlayer(QuadraticPotential(eta=0.1, G=1.0))
        configs = [GameConfig(dim=2, grad_bound=1.0, seed=0), GameConfig(dim=3, grad_bound=1.0, seed=1)]
        with pytest.raises(ValueError):
            run_games(player, GaussianRandom(G=1.0), configs, 5)
        assert run_games(player, GaussianRandom(G=1.0), [], 5) == []

    def test_a_grad_bound_past_1e154_is_checked_exactly(self):
        # the squared limit leaves the float64 range there: the check compares norms
        player = PotentialPlayer(QuadraticPotential(eta=1e-250, G=1e200))
        config = GameConfig(dim=2, grad_bound=1e200, seed=0)
        trace = run_game(player, FixedDirection(G=1e200), config, 5)
        assert trace.g[:, 0].tolist() == [1e200] * 5
        with pytest.raises(ValueError, match=re.escape("round 1: adversary emitted ||g||=2e+200 > G=1e+200")):
            run_game(player, FixedDirection(G=2e200), config, 5)

    def test_an_orthogonal_state_past_the_float64_range_raises(self):
        # the state overflows by round 2; the complement of an infinite state is NaN, not drawn again forever
        player = PotentialPlayer(QuadraticPotential(eta=1e-300, G=1e308))
        with pytest.raises(OverflowError, match="round 2: the play left the float64 range"), \
                np.errstate(over="ignore", invalid="ignore"):
            run_game(player, OrthogonalMinimax(G=1e308), GameConfig(dim=3, grad_bound=1e308, seed=0), 20)


class TestRegret:
    def test_zero_comparator_is_negative_reward(self):
        trace = small_trace(seed=5)
        assert regret(trace, np.zeros(2)) == pytest.approx(-trace.reward, abs=1e-12)

    def test_single_round(self):
        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=1, seed=0)

        class One:
            tag = "one"
            def response(self, t, theta, r, out=None):
                return np.ones_like(theta) * [1.0, 0.0]

        trace = run_game(One(), FixedDirection(G=1.0), cfg, 1)
        assert regret(trace, np.zeros(2)) == 1.0

    def test_dim_mismatch(self):
        trace = small_trace()
        with pytest.raises(DimensionMismatchError):
            regret(trace, np.zeros(3))

    @given(seed=st.integers(0, 50), norm_u=st.floats(0.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_identity_against_reward(self, seed, norm_u):
        trace = small_trace(seed=seed, rounds=20)
        rng = make_rng(seed + 1000)
        u = rng.standard_normal(2)
        u = norm_u * u / np.linalg.norm(u)
        gap = regret(trace, u) + trace.reward + trace.g.sum(axis=0) @ u
        assert abs(gap) <= 1e-9 * (1 + trace.n_rounds) * max(1.0, norm_u)


class TestEpsilonLedger:
    def test_zero_potential_gives_losses(self):
        trace = small_trace(seed=2)
        np.testing.assert_allclose(epsilon_ledger(trace, ZeroPotential()), trace.losses, atol=1e-15)

    def test_ogd_quadratic_identity(self):
        # with q = (eta/2)||theta||^2 and w = eta*theta the slack is exactly
        # (eta/2)||g_t||^2 every round
        eta = 0.25
        cfg = GameConfig(dim=3, grad_bound=1.0, horizon=30, seed=7)
        strat = ogd(eta)
        trace = run_game(strat, GaussianRandom(G=1.0), cfg, 30)
        eps = epsilon_ledger(trace, strat.potential)
        expected = 0.5 * eta * np.linalg.norm(trace.g, axis=1) ** 2
        np.testing.assert_allclose(eps, expected, atol=1e-12)

    def test_telescoping_closure(self):
        strat = PotentialPlayer(AdaptiveNormalPotential(eps=1.0, a=2.5, G=1.0))
        cfg = GameConfig(dim=2, grad_bound=1.0, seed=1)
        trace = run_game(strat, ParallelMinimax(G=1.0, sign_policy="alternate"), cfg, 60)
        pot = strat.potential
        eps = epsilon_ledger(trace, pot)
        q_T = pot.value(trace.n_rounds, trace.theta[-1])
        q_0 = pot.value(0, np.zeros(2))
        assert q_T - q_0 - eps.sum() == pytest.approx(trace.reward, abs=1e-9 * trace.n_rounds)

    def test_attach_epsilon(self):
        strat = ogd(0.1)
        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=5, seed=0)
        trace = run_game(strat, FixedDirection(G=1.0), cfg, 5)
        attach_epsilon(trace, strat.potential)
        assert trace.eps is not None and trace.eps.size == 5


class TestVerifyBound:
    def test_ogd_bound_holds_on_grid(self):
        T = 50
        strat = ogd(1.0 / math.sqrt(T))
        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=T, seed=3)
        trace = run_game(strat, GaussianRandom(G=1.0), cfg, T)
        grid = comparator_grid(2, make_rng(0))
        reports = verify_bound(trace, strat, grid)
        assert len(reports) == 21
        assert all(r.holds for r in reports)
        # a group's envelopes and norms, computed once and passed in, give the same reports
        given = verify_bound(trace, strat, grid, bounds=[r.regret_bound for r in reports],
                             norms=[r.u_norm for r in reports])
        fields = [(r.u_norm, r.regret_actual, r.regret_bound, r.holds) for r in reports]
        assert [(r.u_norm, r.regret_actual, r.regret_bound, r.holds) for r in given] == fields

    def test_vacuous_bound_reported_as_holding(self):
        T = 9
        strat = PotentialPlayer(PowerPotential(W=0.5, p=1.0, G=1.0, T=T))
        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=T, seed=3)
        trace = run_game(strat, GaussianRandom(G=1.0), cfg, T)
        report = verify_bound(trace, strat, [np.array([10.0, 0.0])])[0]
        assert math.isinf(report.regret_bound) and report.holds

    @pytest.mark.parametrize("bound,actual,holds", [
        (math.nan, 0.0, False), (-math.inf, -1e300, False), (math.inf, math.nan, False), (1.0, math.nan, False),
        (math.inf, math.inf, True), (math.inf, 1e300, True), (1.0, -math.inf, True), (1.0, 1.0 + 1e-7, True),
        (1.0, 1.0 + 1e-5, False)])
    def test_only_a_plus_inf_bound_is_vacuous(self, bound, actual, holds):
        # a trace of one round whose regret at u = 0 is actual
        cfg = GameConfig(dim=1, grad_bound=1.0, seed=0)
        trace = Trace(cfg, "stub", "stub", np.array([[1.0]]), np.array([[actual]]), np.array([[-actual]]),
                      np.array([actual]))
        with np.errstate(invalid="ignore"):
            report = verify_bound(trace, None, [np.zeros(1)], bounds=[bound])[0]
        assert report.holds is holds


    @pytest.mark.parametrize("over,holds", [(0.9, True), (1.1, False)])
    def test_the_tolerance_is_relative_to_the_bound(self, over, holds):
        # regret above a bound of 1e6 by 0.9 or 1.1 times BOUND_TOL (1 + 1e6), about 1
        bound = 1e6
        actual = bound + over * BOUND_TOL * (1.0 + bound)
        cfg = GameConfig(dim=1, grad_bound=1.0, seed=0)
        trace = Trace(cfg, "stub", "stub", np.array([[1.0]]), np.array([[actual]]), np.array([[-actual]]),
                      np.array([actual]))
        report = verify_bound(trace, None, [np.zeros(1)], bounds=[bound])[0]
        assert report.regret_actual == actual and report.holds is holds


class ScriptedNormals:
    """A stand-in for a run's Generator whose standard_normal(d) calls return
    the rows of a script, in order; its state is the number of rows read."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=np.float64)
        self.state = 0

    def standard_normal(self, d):
        row = self.rows[self.state]
        assert row.shape == (d,)
        self.state += 1
        return row.copy()


class TestComplementRedraw:
    def test_a_draw_on_thetas_line_is_drawn_again(self):
        # row 1's first two draws lie on theta's line: it reads two more rows than the
        # others, and its vector is the one-row reference's, bit for bit (a row drawn
        # once is projected in a batch, which sums its dot products in another order)
        theta = np.array([[1.0, 2.0, 2.0], [0.0, 3.0, 4.0], [-1.0, 0.5, 0.0]])
        scripts = make_rng(5).standard_normal((3, 4, 3))
        scripts[1, 0] = 2.0 * theta[1]
        scripts[1, 1] = -1e-9 * theta[1]
        streams = [ScriptedNormals(script) for script in scripts]
        got = complement_rows(theta, row_norms(theta), streams)
        assert [s.state for s in streams] == [1, 3, 1]
        ref = np.array([orthonormal_complement_sample(row, ScriptedNormals(script))
                        for row, script in zip(theta, scripts)])
        assert got[1].tobytes() == ref[1].tobytes()
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(np.einsum("ij,ij->i", got, theta), 0.0, atol=1e-15)


@dataclass
class RadialBenchmark:
    """Benchmark B(theta) = f(||theta||) with numeric conjugate and gradient."""

    f: callable

    def value(self, theta) -> float:
        return float(self.f(float(np.linalg.norm(theta))))

    def conjugate(self, u_norm: float) -> float:
        bound = 10.0 * (u_norm + 1.0)
        for _ in range(60):
            try:
                return conjugate_numeric(self.f, u_norm, bound)
            except BoundaryHitError:
                bound *= 2.0
        raise BoundaryHitError("benchmark conjugate search bound did not stabilize")

    def gradient(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        r = float(np.linalg.norm(theta))
        if r == 0.0:
            return np.zeros_like(theta)
        step = 1e-6 * max(r, 1.0)
        slope = (self.f(r + step) - self.f(r - step)) / (2.0 * step)
        return slope * theta / r


def duality_witness(traces, benchmark, eps_hat, comparators, tol=1e-6):
    """Check the reward/regret duality on a sample of traces.

    Reward side: Reward >= B(theta_T) - eps_hat on every trace.  Regret side:
    Regret(u) <= B*(u) + eps_hat for every grid comparator and for the
    induced comparator u = grad B(theta_T) of each trace.  Returns whether
    the two sides agree (both hold or both fail), which is the sampled form
    of the equivalence.
    """
    reward_ok = True
    for tr in traces:
        b = benchmark.value(tr.theta[-1])
        if tr.reward < b - eps_hat - tol * (1.0 + abs(b)):
            reward_ok = False
            break
    regret_ok = True
    for tr in traces:
        all_u = list(comparators) + [benchmark.gradient(tr.theta[-1])]
        for u in all_u:
            rb = benchmark.conjugate(float(np.linalg.norm(u))) + eps_hat
            if regret(tr, u) > rb + tol * (1.0 + abs(rb)):
                regret_ok = False
                break
        if not regret_ok:
            break
    return reward_ok == regret_ok


class TestDualityWitness:
    def test_zero_benchmark_on_grid(self):
        traces = [small_trace(seed=s, eta=0.05) for s in range(3)]
        bench = RadialBenchmark(f=lambda x: 0.0)
        assert duality_witness(traces, bench, eps_hat=10.0, comparators=[np.zeros(2)])

    def test_adaptive_traces_agree(self):
        strat = PotentialPlayer(AdaptiveNormalPotential(eps=1.0, a=2.5, G=1.0))
        configs = [GameConfig(dim=2, grad_bound=1.0, seed=seed) for seed in range(3)]
        traces = run_games(strat, GaussianRandom(G=1.0), configs, 80)
        pot = strat.potential
        eps_hat = max(epsilon_ledger(tr, pot).sum() for tr in traces)
        T = 80
        bench = RadialBenchmark(f=lambda x: pot.radial(T, abs(x)))
        grid = comparator_grid(2, make_rng(5), norms=(0.0, 0.5, 2.0), directions=3)
        assert duality_witness(traces, bench, eps_hat=eps_hat + 1e-9, comparators=grid)

    def test_violating_trace_fails_both_sides(self):
        # a hand-built trace whose reward falls short of the benchmark must
        # also violate the regret bound at the induced comparator
        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=4, seed=0)
        g = np.tile(np.array([[-1.0, 0.0]]), (4, 1))
        w = np.zeros((4, 2))  # earns nothing
        theta = -np.cumsum(g, axis=0)
        losses = np.einsum("td,td->t", w, g)
        trace = Trace(cfg, "stub", "stub", w, g, theta, losses)
        bench = RadialBenchmark(f=lambda x: x * x)
        # reward side: 0 >= ||theta_T||^2 = 16 fails; witness must certify the
        # regret side fails too (via u = grad B = 2 theta_T)
        assert duality_witness([trace], bench, eps_hat=0.0, comparators=[np.zeros(2)])


def reference_write_trace_csv(trace, path):
    """The row-by-row ``csv.writer`` writer the bulk one must match byte for
    byte.  theta_norm is np.linalg.norm's where that lies in [1e-150, 1e150],
    else ``core.norm``'s, exact where the squares leave the float64 range."""
    d = trace.config.dim
    with_coords = d <= 8
    header = ["t", "loss", "reward_cum", "theta_norm", "eps_t"]
    if with_coords:
        header += [f"w_{i}" for i in range(d)] + [f"g_{i}" for i in range(d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        reward_cum = 0.0
        for t in range(trace.n_rounds):
            reward_cum -= trace.losses[t]
            eps_val = "" if trace.eps is None else repr(float(trace.eps[t]))
            theta_norm = np.linalg.norm(trace.theta[t])
            if not 1e-150 <= theta_norm <= 1e150:  # its squares overflow or underflow: the exact norm
                theta_norm = norm(trace.theta[t])
            row = [t + 1, repr(float(trace.losses[t])), repr(float(reward_cum)), repr(float(theta_norm)), eps_val]
            if with_coords:
                row += [repr(float(x)) for x in trace.w[t]]
                row += [repr(float(x)) for x in trace.g[t]]
            writer.writerow(row)


def special_trace(specials):
    """Hand-built d = 2 trace whose w, g, losses and eps each hold every float of specials."""
    losses = np.array(specials, dtype=np.float64)
    w = np.array([specials, specials[::-1]], dtype=np.float64).T.copy()
    g = np.array([specials[3:] + specials[:3], specials[::2] + specials[1::2]], dtype=np.float64).T.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # max + max, inf - inf
        theta = _states(g)  # what a JSON trace rebuilds
    cfg = GameConfig(dim=2, grad_bound=1.0, horizon=max(len(specials), 1), seed=0)
    return Trace(cfg, "stub", "stub", w, g, theta, losses, eps=losses[::-1].copy())


EXTREME_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308,
                  -1.7976931348623157e308, 1e-7, 1e-5, 1e16, 0.0]


def extreme_trace():
    """Signed zeros, the smallest subnormal and normal, huge values, and the
    floats whose JSON spelling is not their repr."""
    return special_trace(EXTREME_FLOATS)


def nonfinite_trace():
    """extreme_trace's shape, with inf, nan and -inf in w, g, losses and eps."""
    return special_trace(EXTREME_FLOATS[:-3] + [math.inf, math.nan, -math.inf])


def float_trace(floats, d, with_eps):
    """Hand-built trace of T = len(floats) rounds in d dimensions whose w, g,
    losses and (with_eps) eps each hold every float of floats."""
    x = np.array(floats, dtype=np.float64)
    T = x.size
    w = np.resize(x, T * d).reshape(T, d)
    g = np.resize(x[::-1], T * d).reshape(T, d)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = _states(g)
    cfg = GameConfig(dim=d, grad_bound=1.0, horizon=max(T, 1), seed=0)
    return Trace(cfg, "stub", "stub", w, g, theta, x, eps=x[::-1].copy() if with_eps else None)


# the floats on each side of a spelling boundary of the CSV writer (orjson
# spells 1e-9 <= |x| < 1e-5 as 1.2e-7, 1e-5 <= |x| < 1e-4 as 0.0000123, and
# |x| >= 1e16 as 1e16), and the smallest subnormal
SPELLING_BOUNDARIES = [x for b in (1e-9, 1e-5, 1e-4, 1e16) for x in (b, float(np.nextafter(b, 0.0)))] + [5e-324]
# floats that orjson spells 0.0000...: one-digit mantissas (1e-05 to repr, with no
# point) and the largest float below 1e-4
FIXED_RANGE_EDGES = [1e-05, -2e-05, 9.999999999999999e-05]


def at_spelling_boundaries(test):
    """An @example of each float of SPELLING_BOUNDARIES and its negative at
    d = 2 with a ledger, and one of all of them at d = 9 without."""
    for x in SPELLING_BOUNDARIES:
        test = example(floats=[x, -x], d=2, with_eps=True)(test)
    return example(floats=SPELLING_BOUNDARIES, d=9, with_eps=False)(test)


WRITER_CASES = {  # every trace a JSON trace can store
    "d2_ledger": lambda: attach_epsilon(small_trace(rounds=40), QuadraticPotential(eta=0.2, G=1.0)),
    "d9": lambda: small_trace(seed=3, rounds=25, dim=9),
    "eps_none": lambda: small_trace(seed=5, rounds=25),
    "zero_rounds": lambda: run_game(ogd(0.2), GaussianRandom(G=1.0),
                                    GameConfig(dim=2, grad_bound=1.0, seed=0), 0),
    "extreme": extreme_trace,
    "numpy_config": lambda: run_game(ogd(0.2), GaussianRandom(G=1.0),
                                     GameConfig(dim=2, grad_bound=np.float64(1.0), horizon=8, seed=1), 8),
}
ALL_CASES = {**WRITER_CASES, "nonfinite": nonfinite_trace}


def non_contiguous_trace():
    """small_trace with w and g in Fortran order, and eps a strided view."""
    trace = attach_epsilon(small_trace(seed=2, rounds=15, dim=3), QuadraticPotential(eta=0.2, G=1.0))
    trace.w, trace.g = np.asfortranarray(trace.w), np.asfortranarray(trace.g)
    trace.eps = np.repeat(trace.eps, 2)[::2]
    assert not (trace.w.flags.c_contiguous or trace.g.flags.c_contiguous or trace.eps.flags.c_contiguous)
    return trace


def float32_trace():
    """A hand-built trace whose w, g, theta, losses and eps are float32."""
    trace = attach_epsilon(small_trace(seed=4, rounds=12, dim=2), QuadraticPotential(eta=0.2, G=1.0))
    w, g, eps = (x.astype(np.float32) for x in (trace.w, trace.g, trace.eps))
    return Trace(trace.config, "stub", "stub", w, g, _states(g), np.einsum("td,td->t", w, g), eps)


def reference_repr_rows(table, lead, sep, const, blank):
    """The rows of write_repr_rows, cell by cell: lead, const, then each float's repr."""
    rows = []
    for i, floats in enumerate(table.tolist()):
        cells = [str(lead[i])] + ([] if const is None else [const])
        cells += ["" if j == blank else repr(x) for j, x in enumerate(floats)]
        rows.append(",".join(cells).encode() + sep)
    return b"".join(rows)


def json_dumps_with_theta(trace, indent):
    """The trace as files written by json.dumps before theta was dropped hold
    it: theta between g and losses, NaN or Infinity where the trace holds nan
    or inf."""
    items = list(trace_to_dict(trace).items())
    return json.dumps(dict(items[:5] + [("theta", trace.theta.tolist())] + items[5:]), indent=indent)


def assert_same_trace(back, trace):
    assert back.config == trace.config
    assert (back.strategy_tag, back.adversary_tag) == (trace.strategy_tag, trace.adversary_tag)
    for name, value in fields_of(trace).items():  # tobytes: the sign of every zero too
        if value is None:
            assert getattr(back, name) is None, name
        else:
            assert getattr(back, name).tobytes() == value.tobytes(), name


class TestWriterBytes:
    @pytest.mark.parametrize("case", list(ALL_CASES))
    def test_csv_matches_reference(self, tmp_path, case):
        trace = ALL_CASES[case]()
        with np.errstate(all="ignore"):
            reference_write_trace_csv(trace, tmp_path / "ref.csv")
            write_trace_csv(trace, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("case", list(WRITER_CASES))
    def test_json_reads_back_bit_for_bit(self, tmp_path, case):
        trace = WRITER_CASES[case]()
        path = tmp_path / "out.json"
        write_trace_json(trace, path)
        data, ref = json.loads(path.read_text()), trace_to_dict(trace)
        assert list(data) == ["config", "strategy_tag", "adversary_tag", "w", "g", "losses", "eps"]
        assert list(data["config"]) == ["dim", "grad_bound", "horizon", "seed"]
        assert data == ref
        for key in ("w", "g", "losses", "eps"):  # tobytes: the sign of every zero too
            if ref[key] is not None:
                assert np.array(data[key]).tobytes() == np.array(ref[key]).tobytes(), key
        assert_same_trace(read_trace_json(path), trace)

    @pytest.mark.parametrize("case", list(WRITER_CASES) + ["non_contiguous", "float32"])
    def test_json_is_orjson_of_the_list_form(self, tmp_path, case):
        trace = {**WRITER_CASES, "non_contiguous": non_contiguous_trace, "float32": float32_trace}[case]()
        write_trace_json(trace, tmp_path / "out.json")
        want = orjson.dumps(trace_to_dict(trace), option=orjson.OPT_SERIALIZE_NUMPY)
        assert (tmp_path / "out.json").read_bytes() == want

    @settings(max_examples=300, deadline=None)
    @given(floats=st.lists(st.floats(width=64), max_size=30), d=st.sampled_from([2, 9]), with_eps=st.booleans())
    @at_spelling_boundaries
    @example(floats=FIXED_RANGE_EDGES, d=2, with_eps=True)
    @example(floats=FIXED_RANGE_EDGES, d=9, with_eps=False)
    @pytest.mark.parametrize("sep", [b"\r\n", b"\n"])
    def test_repr_rows_match_repr_on_any_floats(self, sep, floats, d, with_eps):
        # with_eps picks the columns around the floats: a curves row's run id (with a %,
        # which must reach the row as it is), or a trace row's blank eps_t
        x = np.array(floats, dtype=np.float64)
        table = np.resize(x, x.size * d).reshape(x.size, d)
        lead = range(1, x.size + 1)
        const, blank = ("s0-%d%%_a1-x_k000", None) if with_eps else (None, d // 2)
        want = reference_repr_rows(table, lead, sep, const, blank)
        fh = io.BytesIO()
        write_repr_rows(fh, table, lead, sep, const=const, blank=blank)
        assert fh.getvalue() == want

    def test_repr_rows_match_repr_for_each_lead_sep_and_const(self):
        # the calls take turns over leads that share T or their first value, and over
        # sep and const, so rows written with another call's cached leads would show
        leads = [range(5, 12), [5, 9, -3, 10**12, 0, 4, 2], range(1, 2), [7], range(1, 8)]
        floats = np.array([*SPELLING_BOUNDARIES, *FIXED_RANGE_EDGES, np.inf, -np.nan, -0.0, 1.5, 1e300])
        for _ in range(2):
            for lead in leads:
                for sep in (b"\r\n", b"\n"):
                    for const, blank in ((None, None), ("s0-%d%%_a1-x_k000", None), (None, 2), ("null", 0)):
                        table = np.resize(floats, (len(lead), 4))
                        want = reference_repr_rows(table, lead, sep, const, blank)
                        fh = io.BytesIO()
                        write_repr_rows(fh, table, lead, sep, const=const, blank=blank)
                        assert fh.getvalue() == want, (lead, sep, const, blank)

    @settings(max_examples=300, deadline=None)
    @given(floats=st.lists(st.floats(width=64), max_size=30))
    @example(floats=[*SPELLING_BOUNDARIES, *(-x for x in SPELLING_BOUNDARIES)])
    @example(floats=FIXED_RANGE_EDGES)
    def test_repr_spellings_match_repr_on_any_floats(self, floats):
        # the spelling of curves' regret column, by the helper that write_repr_rows spells with
        assert repr_spellings(np.array(floats, dtype=np.float64)) == [repr(x).encode() for x in floats]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
    def test_json_round_trip_of_finite_floats(self, tmp_path_factory, floats):
        trace = special_trace(floats)
        path = tmp_path_factory.mktemp("json") / "out.json"
        write_trace_json(trace, path)
        assert_same_trace(read_trace_json(path), trace)

    @settings(max_examples=300, deadline=None)
    @given(floats=st.lists(st.floats(width=64), max_size=30), d=st.sampled_from([2, 9]), with_eps=st.booleans())
    @at_spelling_boundaries
    def test_csv_matches_reference_on_any_floats(self, tmp_path_factory, floats, d, with_eps):
        # st.floats draws nan, inf, subnormals and -0.0 too
        tmp_path = tmp_path_factory.mktemp("any")
        trace = float_trace(floats, d, with_eps)
        with np.errstate(all="ignore"):
            reference_write_trace_csv(trace, tmp_path / "ref.csv")
            write_trace_csv(trace, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_theta_norm_past_1e154_is_the_exact_norm(self, tmp_path):
        # from round 14 ||theta|| = 1.4e154, whose square leaves the float64 range: no inf, and no warning
        player = PotentialPlayer(QuadraticPotential(eta=1e-154, G=1e153))
        trace = run_game(player, FixedDirection(G=1e153), GameConfig(dim=2, grad_bound=1e153, seed=0), 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            write_trace_csv(trace, tmp_path / "out.csv")
        with open(tmp_path / "out.csv", newline="") as fh:
            got = [float(row["theta_norm"]) for row in csv.DictReader(fh)]
        assert got == np.abs(trace.theta[:, 0]).tolist() and got[13] == pytest.approx(1.4e154, rel=1e-15)

    @pytest.mark.parametrize("a_tag", ADVERSARY_TAGS)
    @pytest.mark.parametrize("s_tag", STRATEGY_TAGS)
    def test_csv_of_engine_traces_matches_reference(self, tmp_path, s_tag, a_tag):
        for d in (2, 9):
            player, adversary, configs = lockstep_group(s_tag, a_tag, d, 40, range(2))
            for k, trace in enumerate(run_games(player, adversary, configs, 40)):
                if k:  # run 0 keeps no ledger, so its eps_t is empty
                    attach_epsilon(trace, player.potential)
                reference_write_trace_csv(trace, tmp_path / "ref.csv")
                write_trace_csv(trace, tmp_path / "out.csv")
                assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), (d, k)

    def test_csv_of_a_long_adaptive_run_matches_reference(self, tmp_path):
        # adaptive_normal against fixed_direction: |w| passes 1e16 within 1000 rounds
        player, adversary, configs = lockstep_group("adaptive_normal", "fixed_direction", 4, 1000, range(2))
        for k, trace in enumerate(run_games(player, adversary, configs, 1000)):
            attach_epsilon(trace, player.potential)
            assert np.abs(trace.w).max() > 1e16
            reference_write_trace_csv(trace, tmp_path / "ref.csv")
            write_trace_csv(trace, tmp_path / "out.csv")
            assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), k

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=30))
    def test_reward_cum_matches_running_sum(self, tmp_path_factory, losses):
        tmp_path = tmp_path_factory.mktemp("cum")
        T = len(losses)
        cfg = GameConfig(dim=1, grad_bound=1.0, horizon=max(T, 1), seed=0)
        zeros = np.zeros((T, 1))
        trace = Trace(cfg, "stub", "stub", zeros, zeros, zeros, np.array(losses, dtype=np.float64))
        with np.errstate(all="ignore"):
            reference_write_trace_csv(trace, tmp_path / "ref.csv")
            write_trace_csv(trace, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestSerialization:
    def test_json_round_trip_bit_exact(self, tmp_path):
        strat = ogd(0.2)
        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=15, seed=4)
        trace = run_game(strat, GaussianRandom(G=1.0), cfg, 15)
        attach_epsilon(trace, strat.potential)
        path = tmp_path / "trace.json"
        write_trace_json(trace, path)
        back = read_trace_json(path)
        assert np.array_equal(back.w, trace.w)
        assert np.array_equal(back.g, trace.g)
        assert np.array_equal(back.eps, trace.eps)
        u = make_rng(0).standard_normal(2)
        assert regret(back, u) == regret(trace, u)

    @pytest.mark.parametrize("a_tag", ADVERSARY_TAGS)
    @pytest.mark.parametrize("s_tag", STRATEGY_TAGS)
    def test_json_round_trip_of_engine_traces_bit_for_bit(self, tmp_path, s_tag, a_tag):
        T = 40
        for d in (2, 3):
            player, adversary, configs = lockstep_group(s_tag, a_tag, d, T, range(3))
            traces = run_games(player, adversary, configs, T)
            traces.append(reference_run_game(player, adversary, configs[0], T))
            for k, trace in enumerate(traces):
                attach_epsilon(trace, player.potential)
                path = tmp_path / f"d{d}_{k}.json"
                write_trace_json(trace, path)
                back = read_trace_json(path)
                assert back.config == trace.config
                for name, value in fields_of(trace).items():  # tobytes: the sign of every zero too
                    assert getattr(back, name).tobytes() == value.tobytes(), (name, d, k)

    @pytest.mark.parametrize("case", ["d2_ledger", "zero_rounds", "extreme", "nonfinite"])
    def test_a_file_with_theta_reads_the_same(self, tmp_path, case):
        # files written by json.dumps before theta was dropped hold it between g
        # and losses, and NaN or Infinity where the trace held nan or inf
        trace = ALL_CASES[case]()
        items = list(trace_to_dict(trace).items())
        data = dict(items[:5] + [("theta", trace.theta.tolist())] + items[5:])
        (tmp_path / "old.json").write_text(json.dumps(data))
        assert_same_trace(read_trace_json(tmp_path / "old.json"), trace)

    @settings(max_examples=200, deadline=None)
    @given(floats=st.lists(st.floats(width=64), max_size=30), d=st.sampled_from([2, 9]), with_eps=st.booleans())
    @at_spelling_boundaries
    @pytest.mark.parametrize("indent", [None, 1])
    def test_json_dumps_spellings_read_as_json_reads_them(self, tmp_path_factory, indent, floats, d, with_eps):
        # files written by json.dumps, with theta, ", " and ": " separators (or
        # indented), and NaN, Infinity, -0.0 and subnormals among the floats:
        # orjson's split or the stdlib fallback must give json.loads's bits
        text = json_dumps_with_theta(float_trace(floats, d, with_eps), indent)
        path = tmp_path_factory.mktemp("legacy") / "old.json"
        path.write_text(text)
        assert_same_trace(read_trace_json(path), trace_from_dict(json.loads(text)))

    @pytest.mark.parametrize("indent", [None, 1])
    @pytest.mark.parametrize("case, fallback", [("d2_ledger", False), ("d9", False), ("extreme", False),
                                                ("zero_rounds", True), ("nonfinite", True)])
    def test_only_files_orjson_refuses_or_without_rows_read_with_json(self, tmp_path, monkeypatch,
                                                                       case, fallback, indent):
        # json.dumps's spellings go through orjson; NaN and Infinity, which orjson
        # refuses, and the [] arrays of a trace of no rounds, through json.loads
        trace = ALL_CASES[case]()
        path = tmp_path / "old.json"
        path.write_text(json_dumps_with_theta(trace, indent))
        calls = []
        monkeypatch.setattr(json, "loads", lambda text, loads=json.loads: calls.append(text) or loads(text))
        assert_same_trace(read_trace_json(path), trace)
        assert bool(calls) == fallback

    @pytest.mark.parametrize("key", ["w", "g", "losses", "eps"])
    def test_write_refuses_a_non_finite_float(self, tmp_path, key):
        trace, bad = extreme_trace(), nonfinite_trace()
        setattr(trace, key, getattr(bad, key))
        if key == "g":
            trace.theta = bad.theta
        path = tmp_path / "trace.json"
        with pytest.raises(ValueError, match=f"'{key}' holds inf or nan"):
            write_trace_json(trace, path)
        assert not path.exists()

    def test_write_refuses_a_theta_that_is_not_minus_cumsum_g(self, tmp_path):
        trace = small_trace(rounds=6)
        trace.theta = trace.theta.copy()
        trace.theta[3, 1] = np.nextafter(trace.theta[3, 1], np.inf)
        path = tmp_path / "trace.json"
        with pytest.raises(ValueError, match="cumsum"):
            write_trace_json(trace, path)
        assert not path.exists()

    @pytest.mark.parametrize("edit, match", [
        pytest.param(lambda d: d.pop("g"), "missing key 'g'", id="no_g"),
        pytest.param(lambda d: d["w"].pop(), r"'w' has shape \(5, 2\), expected \(6, 2\)", id="w_short"),
        pytest.param(lambda d: d.update(g=sum(d["g"], [])), r"'g' has shape \(12,\)", id="g_flat"),
        pytest.param(lambda d: d["g"][0].append(0.0), "sequence", id="g_ragged"),
        pytest.param(lambda d: d.update(eps=[0.0]), r"'eps' has shape \(1,\)", id="eps_short"),
        pytest.param(lambda d: d["config"].update(dim="2"), "'<' not supported", id="dim_str"),
        pytest.param(lambda d: d["w"][3].__setitem__(1, None), "'w' holds null", id="null_in_w"),
        pytest.param(lambda d: d["eps"].__setitem__(5, None), "'eps' holds null", id="null_in_eps"),
    ])
    def test_a_malformed_dict_raises_value_error(self, edit, match):
        data = trace_to_dict(attach_epsilon(small_trace(rounds=6), QuadraticPotential(eta=0.2, G=1.0)))
        edit(data)
        with pytest.raises(ValueError, match=match):
            trace_from_dict(data)

    def test_csv_schema_small_dim(self, tmp_path):
        trace = attach_epsilon(small_trace(rounds=6), QuadraticPotential(eta=0.2, G=1.0))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["t", "loss", "reward_cum", "theta_norm", "eps_t"]
        assert "w_0" in header and "g_1" in header
        assert len(lines) == 7
        # every cell is a number, and reward_cum is the running -sum of losses
        rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(rows[:, 2], -np.cumsum(trace.losses))

    def test_csv_drops_coords_for_large_dim(self, tmp_path):
        cfg = GameConfig(dim=9, grad_bound=1.0, horizon=3, seed=0)
        trace = run_game(ogd(0.1), GaussianRandom(G=1.0), cfg, 3)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["t", "loss", "reward_cum", "theta_norm", "eps_t"]

    def test_unknown_horizon_round_trips(self, tmp_path):
        strat = PotentialPlayer(AdaptiveNormalPotential(eps=1.0, a=2.5, G=1.0))
        cfg = GameConfig(dim=2, grad_bound=1.0, seed=0)
        trace = run_game(strat, FixedDirection(G=1.0), cfg, 4)
        path = tmp_path / "t.json"
        write_trace_json(trace, path)
        back = read_trace_json(path)
        assert back.config.horizon == "unknown"
        assert json.loads(path.read_text())["strategy_tag"] == "adaptive_normal"
