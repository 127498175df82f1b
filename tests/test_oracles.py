import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minimax_online
from minimax_online import (
    PowerPotential,
    RecursionSpec,
    argmax_at_zero_check,
    conditional_value_recursive,
    gaussian_dominance_check,
    gaussian_expectation,
    oracles,
    rademacher_smoothing_exact,
)
from minimax_online.one_round import eval_on_array, finite_difference, line_distance, minmax_values, plane_distance
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


def reference_conditional_value_recursive(spec, t, theta):
    """Backward induction with every stage solved on the whole radial grid."""
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    r0 = float(np.linalg.norm(theta))
    grid = np.linspace(0.0, r0 + spec.G * (spec.T - t + 1) + spec.r_pad, spec.n_r)
    table = eval_on_array(spec.f, grid)
    xmap = plane_distance if spec.dim == 2 else line_distance
    for _ in range(spec.T - 1, t - 1, -1):
        table = minmax_values(lambda xs, tab=table: np.interp(xs, grid, tab), xmap, grid, spec.G, spec.grid_n)
    return float(np.interp(r0, grid, table))


PROFILES = {
    "power": lambda c: (lambda x: np.abs(x) ** (1.0 + c) / (1.0 + c)),
    "exp_quadratic": lambda c: (lambda x: np.exp(np.asarray(x) ** 2 / (4.0 + 8.0 * c))),
    "hyperbolic": lambda c: (lambda x: np.sqrt(np.asarray(x) ** 2 + 1.0)),
}


class TestReachableRadii:
    """Each stage solves only the grid prefix the stage before it reads."""

    @given(dim=st.sampled_from([1, 2]), T=st.integers(1, 4), data=st.data(), r0=st.floats(0.0, 4.0),
           angle=st.floats(0.0, 2.0 * math.pi), G=st.floats(0.2, 2.5), n_r=st.integers(2, 160),
           grid_n=st.integers(101, 300), r_pad=st.floats(0.0, 2.0),
           profile=st.sampled_from(sorted(PROFILES)), c=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_whole_grid_bit_for_bit(self, dim, T, data, r0, angle, G, n_r, grid_n, r_pad,
                                               profile, c):
        t = data.draw(st.integers(0, T), label="t")
        theta = [r0 * math.cos(angle), r0 * math.sin(angle)] if dim == 2 else [r0 * math.cos(angle)]
        spec = RecursionSpec(f=PROFILES[profile](c), G=G, T=T, dim=dim, n_r=n_r, grid_n=grid_n, r_pad=r_pad)
        assert conditional_value_recursive(spec, t, theta) == reference_conditional_value_recursive(spec, t, theta)

    @pytest.mark.parametrize("dim,T,counts", [(2, 2, [65, 1]), (1, 3, [105, 53, 1])])
    def test_radii_per_stage_of_the_benchmark_calls(self, monkeypatch, dim, T, counts):
        seen = []

        def counting(h, xmap, radii, G, grid_n):
            seen.append(len(radii))
            return minmax_values(h, xmap, radii, G, grid_n)

        monkeypatch.setattr(oracles, "minmax_values", counting)
        spec = RecursionSpec(f=lambda x: np.abs(x) ** 1.5 / 1.5, G=1.0, T=T, dim=dim)
        conditional_value_recursive(spec, 0, np.zeros(dim))
        assert seen == counts


class TestRecursionValidation:
    SPEC = dict(f=lambda x: np.abs(x) ** 1.5 / 1.5, G=1.0, T=2, dim=2)

    @pytest.mark.parametrize("t", [-1, 3, 1.0])
    def test_rejects_a_bad_round(self, t):
        with pytest.raises(ValueError):
            conditional_value_recursive(RecursionSpec(**self.SPEC), t, np.zeros(2))

    @pytest.mark.parametrize("theta", [np.zeros(3), np.zeros(1), np.zeros((1, 2)), [math.nan, 0.0],
                                       [math.inf, 0.0]], ids=["3-vector", "1-vector", "matrix", "nan", "inf"])
    def test_rejects_a_state_of_the_wrong_shape_or_not_finite(self, theta):
        with pytest.raises(ValueError):
            conditional_value_recursive(RecursionSpec(**self.SPEC), 0, theta)

    @pytest.mark.parametrize("field,value", [
        ("n_r", 1), ("n_r", 65.0), ("grid_n", 1), ("grid_n", 100), ("r_pad", -0.9), ("r_pad", -5.0),
        ("r_pad", math.inf), ("r_pad", math.nan), ("G", math.inf), ("G", math.nan), ("G", 0.0), ("T", 2.5),
    ])
    def test_spec_rejects_a_bad_value(self, field, value):
        with pytest.raises(ValueError):
            RecursionSpec(**{**self.SPEC, field: value})

    def test_smallest_grids_accepted(self):
        spec = RecursionSpec(**self.SPEC, n_r=2, grid_n=101, r_pad=0.0)
        assert math.isfinite(conditional_value_recursive(spec, 0, np.zeros(2)))


def one_round_value_full_2d(h, theta, G, n_phi=720):
    """One-round value at d = 2 without the radial reduction.

    Minimizes over the full 2-D play w (Nelder-Mead from several starts) the
    max over an angular grid of full-norm gradients; used to validate that
    equal-norm states share the same value.
    """
    from scipy import optimize

    theta = np.asarray(theta, dtype=np.float64)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    gx = G * np.cos(phis)
    gy = G * np.sin(phis)
    hx = theta[0] - gx
    hy = theta[1] - gy
    dist = np.sqrt(hx * hx + hy * hy)
    hvals = eval_on_array(h, dist)

    def payoff(w):
        return float(np.max(w[0] * gx + w[1] * gy + hvals))

    best = None
    for start in (np.zeros(2), 0.5 * theta, -0.5 * theta):
        res = optimize.minimize(payoff, start, method="Nelder-Mead",
                                options=dict(xatol=1e-9, fatol=1e-12, maxiter=4000))
        if best is None or res.fun < best:
            best = float(res.fun)
    return best


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


class TestRefereeIndependence:
    """The referee (the one-round kernel and the oracles) imports none of the
    closed forms it checks, nor the code that runs or checks them."""

    CHECKED = {"potentials", "strategies", "adversaries", "engine", "checks"}

    @pytest.mark.parametrize("module", ["one_round.py", "oracles.py"])
    def test_imports_no_closed_form(self, module):
        tree = ast.parse((Path(minimax_online.__file__).parent / module).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):  # from .potentials import x, or from . import potentials
                names.add(node.module or "")
                names.update(alias.name for alias in node.names)
        parts = {part for name in names for part in name.split(".")}
        assert "numpy" in parts and not parts & self.CHECKED, sorted(names)
