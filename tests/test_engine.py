import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimax_online import (
    AdaptiveNormalPotential,
    FixedDirection,
    GameConfig,
    GaussianRandom,
    ParallelMinimax,
    PotentialPlayer,
    PowerPotential,
    QuadraticPotential,
    RadialBenchmark,
    Trace,
    attach_epsilon,
    comparator_grid,
    duality_witness,
    epsilon_ledger,
    make_rng,
    read_trace_json,
    regret,
    run_game,
    verify_bound,
    write_trace_csv,
    write_trace_json,
)
from minimax_online.core import DimensionMismatchError
from minimax_online.engine import trace_to_dict


class ZeroPotential:
    def value(self, t, theta):
        return 0.0


def ogd(eta):
    return PotentialPlayer(QuadraticPotential(eta=eta, G=1.0))


def small_trace(seed=0, rounds=12, dim=2, eta=0.2):
    cfg = GameConfig(dim=dim, grad_bound=1.0, horizon=rounds, seed=seed)
    return run_game(ogd(eta), GaussianRandom(G=1.0), cfg, rounds)


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
        class Cheater:
            tag = "cheater"
            def grad(self, t, theta, w, rng):
                return np.array([2.0, 0.0])

        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=3, seed=0)
        with pytest.raises(ValueError):
            run_game(ogd(0.1), Cheater(), cfg, 3)


class TestRegret:
    def test_zero_comparator_is_negative_reward(self):
        trace = small_trace(seed=5)
        assert regret(trace, np.zeros(2)) == pytest.approx(-trace.reward, abs=1e-12)

    def test_single_round(self):
        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=1, seed=0)

        class One:
            tag = "one"
            needs_horizon = False
            def play(self, t, theta):
                return np.array([1.0, 0.0])

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
        gap = regret(trace, u) + trace.reward + trace.grad_total() @ u
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
        q_T = pot.value(trace.n_rounds, trace.theta_final)
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

    def test_vacuous_bound_reported_as_holding(self):
        T = 9
        strat = PotentialPlayer(PowerPotential(W=0.5, p=1.0, G=1.0, T=T))
        cfg = GameConfig(dim=2, grad_bound=1.0, horizon=T, seed=3)
        trace = run_game(strat, GaussianRandom(G=1.0), cfg, T)
        report = verify_bound(trace, strat, [np.array([10.0, 0.0])])[0]
        assert math.isinf(report.regret_bound) and report.holds


class TestDualityWitness:
    def test_zero_benchmark_on_grid(self):
        traces = [small_trace(seed=s, eta=0.05) for s in range(3)]
        bench = RadialBenchmark(f=lambda x: 0.0)
        assert duality_witness(traces, bench, eps_hat=10.0, comparators=[np.zeros(2)])

    def test_adaptive_traces_agree(self):
        strat = PotentialPlayer(AdaptiveNormalPotential(eps=1.0, a=2.5, G=1.0))
        traces = []
        for seed in range(3):
            cfg = GameConfig(dim=2, grad_bound=1.0, seed=seed)
            traces.append(run_game(strat, GaussianRandom(G=1.0), cfg, 80))
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
    """The row-by-row ``csv.writer`` writer the bulk one must match byte for byte."""
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
            row = [t + 1, repr(float(trace.losses[t])), repr(float(reward_cum)),
                   repr(float(np.linalg.norm(trace.theta[t]))), eps_val]
            if with_coords:
                row += [repr(float(x)) for x in trace.w[t]]
                row += [repr(float(x)) for x in trace.g[t]]
            writer.writerow(row)


def reference_write_trace_json(trace, path):
    """The streaming ``json.dump`` writer the one-call one must match byte for byte."""
    with open(path, "w") as fh:
        json.dump(trace_to_dict(trace), fh)


def extreme_trace():
    """Hand-built d = 2 trace holding signed zeros, subnormals, huge values, inf and nan."""
    specials = [-0.0, 5e-324, 1e300, math.inf, math.nan, 0.0, -1e300, -math.inf]
    losses = np.array(specials)
    w = np.array([specials, specials[::-1]]).T.copy()
    g = np.array([specials[3:] + specials[:3], specials[::2] + specials[1::2]]).T.copy()
    theta = np.cumsum(np.where(np.isfinite(g), -g, 0.0), axis=0)
    cfg = GameConfig(dim=2, grad_bound=1.0, horizon=len(specials), seed=0)
    return Trace(cfg, "stub", "stub", w, g, theta, losses, eps=losses[::-1].copy())


WRITER_CASES = {
    "d2_ledger": lambda: attach_epsilon(small_trace(rounds=40), QuadraticPotential(eta=0.2, G=1.0)),
    "d9": lambda: small_trace(seed=3, rounds=25, dim=9),
    "eps_none": lambda: small_trace(seed=5, rounds=25),
    "zero_rounds": lambda: run_game(ogd(0.2), GaussianRandom(G=1.0),
                                    GameConfig(dim=2, grad_bound=1.0, seed=0), 0),
    "extreme": extreme_trace,
}


class TestWriterBytes:
    @pytest.mark.parametrize("case", list(WRITER_CASES))
    def test_csv_matches_reference(self, tmp_path, case):
        trace = WRITER_CASES[case]()
        with np.errstate(all="ignore"):
            reference_write_trace_csv(trace, tmp_path / "ref.csv")
            write_trace_csv(trace, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("case", list(WRITER_CASES))
    def test_json_matches_reference(self, tmp_path, case):
        trace = WRITER_CASES[case]()
        reference_write_trace_json(trace, tmp_path / "ref.json")
        write_trace_json(trace, tmp_path / "out.json")
        assert (tmp_path / "out.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

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
