import math

import numpy as np
import pytest

from minimax_online import (
    PowerPotential,
    RecursionSpec,
    argmax_at_zero_check,
    conditional_value_recursive,
    gaussian_dominance_check,
    gaussian_expectation,
    one_round_value_full_2d,
    rademacher_smoothing_exact,
)
from minimax_online._search import finite_difference
from minimax_online.oracles import DivergenceError, ResourceBudgetError


class TestFiniteDifference:
    def test_first_order(self):
        assert finite_difference(lambda x: x * x, 3.0, 1) == pytest.approx(6.0, abs=1e-6)

    def test_second_order(self):
        assert finite_difference(lambda x: x**3, 2.0, 2) == pytest.approx(12.0, abs=1e-4)

    def test_exp_slope_at_zero(self):
        assert finite_difference(math.exp, 0.0, 1) == pytest.approx(1.0, abs=1e-8)

    def test_order_validated(self):
        with pytest.raises(ValueError):
            finite_difference(math.exp, 0.0, 3)


class TestRademacherExact:
    def test_single_coin(self):
        assert rademacher_smoothing_exact(abs, 0.0, 1, 1.0) == 1.0

    def test_variance_of_four_coins(self):
        assert rademacher_smoothing_exact(lambda x: x * x, 0.0, 4, 1.0) == 4.0

    def test_tau_zero(self):
        assert rademacher_smoothing_exact(lambda x: x + 1.0, -2.5, 0, 1.0) == 3.5

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            rademacher_smoothing_exact(abs, 0.0, 31, 1.0)


class TestGaussianExpectation:
    def test_second_moment(self):
        assert gaussian_expectation(lambda x: x * x, 0.0, math.pi / 2.0) == pytest.approx(
            math.pi / 2.0, rel=1e-10)

    def test_folded_moment_is_one(self):
        # the sigma^2 = pi/2 calibration makes E|phi| = 1
        assert gaussian_expectation(abs, 0.0, math.pi / 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_reproduces_smoothed_exponential(self):
        a, G, T = 2.0, 1.0, 2
        val = gaussian_expectation(lambda y: math.exp(y * y / (2 * a * T)), 0.0,
                                   (math.pi / 2.0) * G * G)
        assert val == pytest.approx(1.2832108736998058, rel=1e-9)

    def test_node_doubling_stability(self):
        f = lambda x: math.exp(x / 3.0)
        v64 = gaussian_expectation(f, 0.5, 2.0, nodes=64)
        v128 = gaussian_expectation(f, 0.5, 2.0, nodes=128)
        assert abs(v64 - v128) <= 1e-8 * abs(v64)

    def test_ladder_capped_at_max_nodes(self):
        # from 100 nodes the ladder runs 100, 200, 256; at 400 nodes hermgauss overflows
        val = gaussian_expectation(lambda x: abs(x) ** 1.5, 0.0, 1.0, nodes=100)
        assert val == pytest.approx(2**0.75 * math.gamma(1.25) / math.sqrt(math.pi), rel=1e-8)

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError):
            gaussian_expectation(lambda x: math.exp(x * x / 2.0), 0.0, 2.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gaussian_expectation(abs, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_expectation(abs, 0.0, 1.0, nodes=8)


class TestGaussianDominance:
    def test_square(self):
        assert gaussian_dominance_check(lambda x: x * x)

    def test_abs_equality_case(self):
        assert gaussian_dominance_check(abs)
        lhs = 0.5 * (abs(1.0) + abs(-1.0))
        rhs = gaussian_expectation(abs, 0.0, math.pi / 2.0)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-8)

    def test_exp_closed_forms(self):
        assert gaussian_dominance_check(math.exp)
        lhs = math.cosh(1.0)
        rhs = gaussian_expectation(math.exp, 0.0, math.pi / 2.0)
        assert lhs == pytest.approx(1.5430806348152437, rel=1e-12)
        assert rhs == pytest.approx(math.exp(math.pi / 4.0), rel=1e-9)
        assert rhs == pytest.approx(2.1932800507380155, rel=1e-9)

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError):
            gaussian_dominance_check(math.sin)

    def test_iterated_dominance_over_coin_counts(self):
        # tau-fold coin smoothing is dominated by the matched-variance Gaussian
        corpus = [abs, lambda x: x * x, lambda x: abs(x) ** 3,
                  lambda x: math.exp(x * x / 40.0), lambda x: max(0.0, x - 0.5)]
        G = 1.0
        for f in corpus:
            for tau in (1, 2, 5, 10):
                for x in np.linspace(0.0, 3.0, 7):
                    coin = rademacher_smoothing_exact(f, float(x), tau, G)
                    gauss = gaussian_expectation(
                        lambda y, f=f: f(abs(y)), float(x), tau * (math.pi / 2.0) * G * G)
                    assert coin <= gauss + 1e-8 * (1.0 + abs(gauss))


class TestArgmaxAtZero:
    @pytest.mark.parametrize("t", [1, 2, 50])
    def test_holds_above_threshold(self, t):
        assert argmax_at_zero_check(1.0, 3.0, 1.0, t)

    def test_requires_threshold(self):
        with pytest.raises(ValueError):
            argmax_at_zero_check(1.0, 2.0, 1.0, 1)  # 2.0 < 3*pi/4


class TestMonotoneScalarFacts:
    def test_exp_difference_decreasing(self):
        # b*exp(x^2/a) - exp(x^2/c) is nonincreasing for x >= 0 when
        # a >= c > 0, b >= 0, bc <= a
        cases = [(4.0, 2.0, 1.5), (3.0, 3.0, 1.0), (10.0, 1.0, 5.0), (2.0, 2.0, 0.0)]
        xs = np.linspace(0.0, 3.0, 200)
        for a, c, b in cases:
            assert a >= c > 0 and b >= 0 and b * c <= a
            vals = b * np.exp(xs * xs / a) - np.exp(xs * xs / c)
            assert np.all(np.diff(vals) <= 1e-12)

    def test_ratio_capped_at_one(self):
        # a^(3/2) t sqrt(t+1) / (a(t+1) - b)^(3/2) <= 1 when a >= 1.5 b > 0
        ts = np.linspace(0.0, 1e4, 5000)
        for a, b in [(1.5, 1.0), (3.0, 2.0), (10.0, 1.0), (2.4, 1.6)]:
            vals = a**1.5 * ts * np.sqrt(ts + 1.0) / (a * (ts + 1.0) - b) ** 1.5
            assert np.all(vals <= 1.0 + 1e-9)


class TestRecursiveGameValue:
    def test_absolute_value_single_round_1d(self):
        spec = RecursionSpec(f=lambda x: np.abs(x), G=1.0, T=1, dim=1)
        assert conditional_value_recursive(spec, 0, np.array([0.0])) == pytest.approx(1.0, abs=1e-6)

    def test_constant_benchmark(self):
        spec = RecursionSpec(f=lambda x: 0.0 * np.asarray(x) + 3.25, G=1.0, T=3, dim=2)
        for t in (0, 1, 3):
            assert conditional_value_recursive(spec, t, np.array([0.5, 0.0])) == pytest.approx(
                3.25, abs=1e-8)

    def test_matches_power_conditional_value_inside_horizon(self):
        # the potentials-module example: p=1.5, G=2, T=3, round 1, ||theta||=1
        pot = PowerPotential(W=1.0, p=1.5, G=2.0, T=3)
        spec = RecursionSpec(f=lambda x: (1.0 / 1.5) * np.abs(x) ** 1.5, G=2.0, T=3, dim=2,
                             n_r=321)
        oracle = conditional_value_recursive(spec, 1, np.array([1.0, 0.0]))
        assert pot.radial(1, 1.0) == pytest.approx(oracle, rel=1e-2)

    def test_budget_guard(self):
        with pytest.raises(ResourceBudgetError):
            RecursionSpec(f=np.abs, G=1.0, T=7, dim=2)

    # q_0(0) for f = |x|^p / p and G = 1 at default resolution, keyed (dim, p, T): the nine
    # cells of checks.recursion() and the d = 1, T = 3 cell of the oracle benchmark, as
    # computed by the per-radius nested golden-section oracle that the lockstep kernel replaced
    PINNED = {
        (2, 1.0, 1): 1.0000000000024474, (2, 1.0, 2): 1.4142135623748189, (2, 1.0, 3): 1.7320688279698149,
        (2, 1.5, 1): 0.6666742911183511, (2, 1.5, 2): 1.1212080470852617, (2, 1.5, 3): 1.519723334040495,
        (2, 2.0, 1): 0.5000152587915146, (2, 2.0, 2): 1.0000305175339037, (2, 2.0, 3): 1.5001258846828698,
        (1, 1.5, 3): 1.3660663178911006,
    }

    @pytest.mark.parametrize("dim,p,T", sorted(PINNED))
    def test_pinned_values(self, dim, p, T):
        spec = RecursionSpec(f=lambda x: (1.0 / p) * np.abs(x) ** p, G=1.0, T=T, dim=dim)
        val = conditional_value_recursive(spec, 0, np.zeros(dim))
        assert val == pytest.approx(self.PINNED[dim, p, T], rel=1e-6, abs=0.0)

    def test_resolution_doubling_stable(self):
        f = lambda x: 0.5 * np.asarray(x) ** 2
        coarse = conditional_value_recursive(RecursionSpec(f=f, G=1.0, T=2, dim=2, n_r=129), 0, np.zeros(2))
        fine = conditional_value_recursive(RecursionSpec(f=f, G=1.0, T=2, dim=2, n_r=257), 0, np.zeros(2))
        assert abs(coarse - fine) <= 1e-3 * (1.0 + abs(fine))


class TestRadialReductionValidation:
    def test_equal_norm_states_share_value(self):
        # full 2-D one-round solve, no radial shortcut
        h = lambda x: (1.0 / 1.5) * np.abs(x) ** 1.5
        r = 1.3
        val_a = one_round_value_full_2d(h, np.array([r, 0.0]), 1.0)
        val_b = one_round_value_full_2d(h, np.array([r / math.sqrt(2)] * 2), 1.0)
        assert abs(val_a - val_b) <= 1e-3 * (1.0 + abs(val_a))

    def test_full_2d_matches_scalar_reduction(self):
        from minimax_online import OneRoundSpec, solve_scalar_grid
        h = lambda x: np.sqrt(np.asarray(x) ** 2 + 1.0)
        theta = np.array([0.9, -0.6])
        full = one_round_value_full_2d(h, theta, 1.0)
        reduced = solve_scalar_grid(OneRoundSpec(h=h, theta=theta, G=1.0))
        assert abs(full - reduced) <= 1e-3 * (1.0 + abs(reduced))
