import math

import numpy as np
import pytest

from minimax_online import (
    OneRoundSpec,
    RecursionSpec,
    classify_regime,
    conditional_value_recursive,
    lower_bound_value,
    solve_orthogonal,
    solve_parallel,
    solve_scalar_grid,
)
from minimax_online.core import UnsupportedDimensionError, make_rng
from minimax_online import checks
from minimax_online.one_round import NUMERIC, ORTHOGONAL, PARALLEL

PROBES = np.linspace(0.05, 5.0, 40)


class TestClassifyRegime:
    def test_subquadratic_power_is_orthogonal(self):
        assert classify_regime(lambda x: abs(x) ** 1.5, PROBES) == ORTHOGONAL

    def test_quartic_is_parallel(self):
        assert classify_regime(lambda x: x**4, PROBES) == PARALLEL

    def test_quadratic_boundary_goes_parallel(self):
        assert classify_regime(lambda x: x * x, PROBES) == PARALLEL

    def test_exp_quadratic_is_parallel(self):
        assert classify_regime(lambda x: math.exp(x * x / 8.0), PROBES) == PARALLEL

    def test_mixed_curvature_is_numeric(self):
        # x^1.5 for x < 1 (orthogonal-like), x^4 beyond (parallel-like)
        h = lambda x: abs(x) ** 1.5 if abs(x) < 1 else abs(x) ** 4 + (1.0 - 1.0)
        probes = np.concatenate([np.linspace(0.05, 0.9, 20), np.linspace(1.5, 4.0, 20)])
        assert classify_regime(h, probes) == NUMERIC

    def test_uses_derivative_handles(self):
        tag = classify_regime(lambda x: x * x, PROBES,
                              h_prime=lambda x: 2 * x, h_second=lambda x: 2.0)
        assert tag == PARALLEL

    def test_needs_32_probes(self):
        with pytest.raises(ValueError):
            classify_regime(lambda x: x * x, np.linspace(0.1, 1.0, 10))


class TestSolveOrthogonal:
    def test_linear_profile(self):
        spec = OneRoundSpec(h=lambda x: x, theta=np.array([3.0, 0.0]), G=4.0)
        sol = solve_orthogonal(spec)
        assert sol.value == pytest.approx(5.0, rel=1e-9)
        np.testing.assert_allclose(sol.player_play, [0.6, 0.0], atol=1e-9)
        assert abs(np.linalg.norm(sol.adversary_play) - 4.0) <= 1e-9
        assert abs(sol.adversary_play @ spec.theta) <= 1e-10

    def test_zero_state(self):
        spec = OneRoundSpec(h=lambda x: x, theta=np.zeros(2), G=1.0)
        sol = solve_orthogonal(spec)
        assert sol.value == pytest.approx(1.0)
        np.testing.assert_allclose(sol.player_play, [0.0, 0.0])

    def test_smoothed_linear(self):
        spec = OneRoundSpec(h=lambda x: math.sqrt(x * x + 1.0), theta=np.array([1.0, 0.0]), G=1.0)
        sol = solve_orthogonal(spec)
        assert sol.value == pytest.approx(math.sqrt(3.0), rel=1e-9)
        np.testing.assert_allclose(sol.player_play, [1.0 / math.sqrt(3.0), 0.0], atol=1e-7)

    def test_rejects_dim_one(self):
        with pytest.raises(UnsupportedDimensionError):
            solve_orthogonal(OneRoundSpec(h=lambda x: x, theta=np.array([1.0]), G=1.0))


class TestSolveParallel:
    def test_quartic(self):
        spec = OneRoundSpec(h=lambda x: x**4, theta=np.array([1.0, 0.0]), G=1.0)
        sol = solve_parallel(spec)
        assert sol.value == pytest.approx(8.0, rel=1e-12)
        np.testing.assert_allclose(sol.player_play, [8.0, 0.0], rtol=1e-12)

    def test_absolute_value_at_zero(self):
        spec = OneRoundSpec(h=lambda x: abs(x), theta=np.zeros(2), G=1.0)
        sol = solve_parallel(spec)
        assert sol.value == pytest.approx(1.0)
        np.testing.assert_allclose(sol.player_play, [0.0, 0.0])
        assert abs(np.linalg.norm(sol.adversary_play) - 1.0) <= 1e-12

    def test_quadratic_recovers_gradient_play(self):
        theta = np.array([0.0, 2.0])
        spec = OneRoundSpec(h=lambda x: x * x, theta=theta, G=1.0)
        sol = solve_parallel(spec)
        assert sol.value == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_allclose(sol.player_play, 2.0 * theta, rtol=1e-12)

    def test_sign_choices_both_full_norm(self):
        spec = OneRoundSpec(h=lambda x: x**4, theta=np.array([0.0, 3.0]), G=2.0)
        plus = solve_parallel(spec, sign=1.0)
        minus = solve_parallel(spec, sign=-1.0)
        np.testing.assert_allclose(plus.adversary_play, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(minus.adversary_play, [0.0, -2.0], atol=1e-12)
        assert plus.value == minus.value

    def test_quadratic_boundary_matches_orthogonal_formula(self):
        # at h = x^2 the two closed forms coincide in value and play
        theta = np.array([1.5, -0.5])
        spec = OneRoundSpec(h=lambda x: x * x, theta=theta, G=0.8,
                            h_prime=lambda x: 2.0 * x)
        par = solve_parallel(spec)
        orth = solve_orthogonal(spec)
        assert par.value == pytest.approx(orth.value, rel=1e-12)
        np.testing.assert_allclose(par.player_play, orth.player_play, rtol=1e-9)


class TestScalarGrid:
    def test_constant_profile(self):
        for c in (0.0, 2.5):
            spec = OneRoundSpec(h=lambda x, c=c: c, theta=np.array([1.0, 1.0]), G=1.0)
            assert solve_scalar_grid(spec) == pytest.approx(c, abs=1e-9)

    def test_matches_orthogonal_example(self):
        spec = OneRoundSpec(h=lambda x: x, theta=np.array([3.0, 0.0]), G=4.0)
        assert solve_scalar_grid(spec) == pytest.approx(5.0, abs=1e-3)

    def test_matches_parallel_example(self):
        spec = OneRoundSpec(h=lambda x: x**4, theta=np.array([1.0, 0.0]), G=1.0)
        assert solve_scalar_grid(spec) == pytest.approx(8.0, rel=1e-3)

    def test_grid_size_validated(self):
        spec = OneRoundSpec(h=lambda x: x, theta=np.array([1.0, 0.0]), G=1.0)
        with pytest.raises(ValueError):
            solve_scalar_grid(spec, grid_n=50)

    @pytest.mark.parametrize("regime", [ORTHOGONAL, PARALLEL])
    def test_oracle_agreement_random_specs(self, regime):
        rows = list(checks.one_round(seed=7, regime=regime))
        assert len(rows) == 2 and all(row.ok for row in rows), rows

    def test_nan_grid_value_fails_both_rows(self, monkeypatch):
        calls = iter(range(50))
        monkeypatch.setattr(checks, "solve_scalar_grid",
                            lambda spec: math.nan if next(calls) == 25 else solve_scalar_grid(spec))
        rows = list(checks.one_round(seed=7, regime=PARALLEL))
        assert [row.ok for row in rows] == [False, False], rows

    def test_saddle_point_verification(self):
        rng = make_rng(11)
        delta = 1e-3
        for regime in (ORTHOGONAL, PARALLEL):
            for spec in checks.random_one_round_specs(regime, 8, rng):
                sol = (solve_orthogonal(spec, rng) if regime == ORTHOGONAL
                       else solve_parallel(spec))
                r = float(np.linalg.norm(spec.theta))
                that = spec.theta / r if r > 0 else np.zeros_like(spec.theta)
                c_star = float(sol.player_play @ that) if r > 0 else 0.0

                def max_payoff_along_theta(c):
                    betas = np.linspace(-spec.G, spec.G, 801)
                    xs = np.sqrt(np.maximum(r * r - 2 * betas * r + spec.G**2, 0.0))
                    hv = np.array([float(spec.h(x)) for x in xs])
                    return float(np.max(c * betas + hv))

                base = max_payoff_along_theta(c_star)
                assert max_payoff_along_theta(c_star + delta) >= base - 1e-9 * (1 + abs(base))
                assert max_payoff_along_theta(c_star - delta) >= base - 1e-9 * (1 + abs(base))

                # perturbing the adversary play on the sphere never increases payoff
                def payoff(g):
                    return float(sol.player_play @ g + spec.h(np.linalg.norm(spec.theta - g)))

                base_g = payoff(sol.adversary_play)
                perp = np.array([-sol.adversary_play[1], sol.adversary_play[0]])
                if np.linalg.norm(perp) > 0:
                    perp /= np.linalg.norm(perp)
                for angle in (delta, -delta):
                    g_rot = math.cos(angle) * sol.adversary_play + math.sin(angle) * spec.G * perp
                    assert payoff(g_rot) <= base_g + 1e-6 * (1 + abs(base_g))


class TestLowerBound:
    def test_examples(self):
        assert lower_bound_value(OneRoundSpec(h=lambda x: x, theta=np.array([3.0, 0.0]), G=4.0)) == 5.0
        assert lower_bound_value(OneRoundSpec(h=lambda x: x * x, theta=np.zeros(2), G=2.0)) == 4.0
        spec = OneRoundSpec(h=lambda x: math.exp(x * x / 8.0), theta=np.array([1.0, 0.0]), G=1.0)
        assert lower_bound_value(spec) == pytest.approx(1.2840254166877414, rel=1e-12)

    def test_grid_dominates_lower_bound(self):
        rng = make_rng(23)
        for regime in (ORTHOGONAL, PARALLEL):
            for spec in checks.random_one_round_specs(regime, 20, rng):
                assert solve_scalar_grid(spec) >= lower_bound_value(spec) - 1e-6

    def test_rejects_dim_one(self):
        with pytest.raises(UnsupportedDimensionError):
            lower_bound_value(OneRoundSpec(h=lambda x: x, theta=np.array([2.0]), G=1.0))


class TestDimOneParallel:
    """The parallel closed form holds at d = 1 for every convex h tested."""

    @pytest.mark.parametrize("name,h", [
        ("abs", lambda x: np.abs(x)),
        ("square", lambda x: np.asarray(x) ** 2),
        ("quartic", lambda x: np.asarray(x) ** 4),
        ("exp_quad", lambda x: np.exp(np.asarray(x) ** 2 / 6.0)),
    ])
    def test_matches_recursive_oracle(self, name, h):
        G = 1.0
        for r in (0.0, 0.6, 2.0):
            spec1 = RecursionSpec(f=h, G=G, T=1, dim=1, n_r=401)
            oracle = conditional_value_recursive(spec1, 0, np.array([r]))
            closed = solve_parallel(OneRoundSpec(h=h, theta=np.array([r]), G=G)).value
            assert closed == pytest.approx(oracle, rel=2e-3, abs=2e-3)
