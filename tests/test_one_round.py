import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimax_online import (
    OneRoundSpec,
    RecursionSpec,
    classify_regime,
    conditional_value_recursive,
    solve_orthogonal,
    solve_parallel,
    solve_scalar_grid,
)
from minimax_online.core import UnsupportedDimensionError, make_rng
from minimax_online import checks
from minimax_online.one_round import (BLOCK, NUMERIC, ORTHOGONAL, PARALLEL, _PROBE, _REFINE, eval_on_array,
                                      line_distance, minmax_values, plane_distance, worst_case_payoff)
from minimax_online.oracles import INVPHI

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

    def test_needs_32_probes(self):
        with pytest.raises(ValueError):
            classify_regime(lambda x: x * x, np.linspace(0.1, 1.0, 10))


class TestSolveOrthogonal:
    def test_linear_profile(self):
        spec = OneRoundSpec(h=lambda x: x, theta=np.array([3.0, 0.0]), G=4.0)
        sol = solve_orthogonal(spec)
        assert sol.value == 5.0 and sol.regime == ORTHOGONAL

    def test_zero_state(self):
        assert solve_orthogonal(OneRoundSpec(h=lambda x: x, theta=np.zeros(2), G=1.0)).value == 1.0
        assert solve_orthogonal(OneRoundSpec(h=lambda x: x * x, theta=np.zeros(2), G=2.0)).value == 4.0

    def test_smoothed_linear(self):
        spec = OneRoundSpec(h=lambda x: math.sqrt(x * x + 1.0), theta=np.array([1.0, 0.0]), G=1.0)
        assert solve_orthogonal(spec).value == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_exp_quadratic(self):
        spec = OneRoundSpec(h=lambda x: math.exp(x * x / 8.0), theta=np.array([1.0, 0.0]), G=1.0)
        assert solve_orthogonal(spec).value == pytest.approx(1.2840254166877414, rel=1e-12)

    def test_bounds_the_grid_value_from_below(self):
        # any full-norm g orthogonal to theta gets h(sqrt(r^2 + G^2)) whatever w is, so
        # the orthogonal value bounds H from below at d >= 2, in both regimes
        rng = make_rng(23)
        for regime in (ORTHOGONAL, PARALLEL):
            for spec in checks.random_one_round_specs(regime, 20, rng):
                assert solve_scalar_grid(spec) >= solve_orthogonal(spec).value - 1e-6

    def test_rejects_dim_one(self):
        with pytest.raises(UnsupportedDimensionError):
            solve_orthogonal(OneRoundSpec(h=lambda x: x, theta=np.array([1.0]), G=1.0))


class TestSolveParallel:
    def test_quartic(self):
        sol = solve_parallel(OneRoundSpec(h=lambda x: x**4, theta=np.array([1.0, 0.0]), G=1.0))
        assert sol.value == 8.0 and sol.regime == PARALLEL

    def test_absolute_value_at_zero(self):
        assert solve_parallel(OneRoundSpec(h=lambda x: abs(x), theta=np.zeros(2), G=1.0)).value == 1.0

    def test_quadratic(self):
        spec = OneRoundSpec(h=lambda x: x * x, theta=np.array([0.0, 2.0]), G=1.0)
        assert solve_parallel(spec).value == pytest.approx(5.0, rel=1e-15)

    def test_quadratic_boundary_matches_orthogonal_formula(self):
        # at h = x^2 the two closed forms coincide
        spec = OneRoundSpec(h=lambda x: x * x, theta=np.array([1.5, -0.5]), G=0.8)
        assert solve_parallel(spec).value == pytest.approx(solve_orthogonal(spec).value, rel=1e-12)


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


def reference_minmax_values(h, xmap, radii, G, grid_n):
    """``minmax_values`` with the golden-section search on alpha that the
    bisection replaced: same bracket, tolerance, beta grid and refinement."""
    radii = np.asarray(radii, dtype=np.float64)
    betas = np.linspace(-G, G, grid_n)
    out = np.empty(radii.size)
    for s in range(0, radii.size, BLOCK):
        out[s:s + BLOCK] = reference_minmax_block(h, xmap, radii[s:s + BLOCK, None], G, betas)
    return out


def reference_minmax_block(h, xmap, r, G, betas):
    hvals = eval_on_array(h, xmap(r, betas, G))
    step = (r + G) / (_PROBE.size - 1)
    probe = _PROBE * step
    probe[:, -1:] = r + G
    max_slope = np.max(np.abs(np.diff(eval_on_array(h, probe), axis=1)), axis=1) / step[:, 0]
    L = 2.0 * max_slope + 1e-6
    tol = 1e-11 * np.maximum(1.0, L)

    rows = np.arange(r.shape[0])
    left_of = np.concatenate((betas[:1], betas[:-1]))[:, None]
    width_of = np.concatenate((betas[1:], betas[-1:]))[:, None] - left_of

    def psi(alpha):
        vals = alpha[:, None] * betas + hvals
        k = np.argmax(vals, axis=1)
        fine = left_of[k] + width_of[k] * _REFINE
        refined = alpha[:, None] * fine + eval_on_array(h, xmap(r, fine, G))
        return np.maximum(vals[rows, k], np.max(refined, axis=1))

    a, b = -L, L
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = psi(c), psi(d)
    for _ in range(300):
        active = b - a > tol
        if not active.any():
            break
        left = fc < fd
        lo = np.where(left, a, c)
        hi = np.where(left, d, b)
        x = np.where(left, hi - INVPHI * (hi - lo), lo + INVPHI * (hi - lo))
        fx = psi(x)
        a, b, c, fc, d, fd = (np.where(active, new, old) for new, old in (
            (lo, a), (hi, b), (np.where(left, x, d), c), (np.where(left, fx, fd), fc),
            (np.where(left, c, x), d), (np.where(left, fc, fx), fd)))
    return np.where(fc < fd, fc, fd)


KERNEL_CASES = dict(radii=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40), G=st.floats(0.1, 3.0),
                    grid_n=st.integers(101, 257), p=st.floats(1.0, 4.0),
                    xmap=st.sampled_from([plane_distance, line_distance]))


class TestMinmaxKernel:
    @given(table=st.booleans(), **KERNEL_CASES)
    @settings(max_examples=50, deadline=None)
    def test_batch_equals_one_radius_at_a_time(self, table, radii, G, grid_n, p, xmap):
        h = lambda x: np.abs(x) ** p / p
        if table:  # an np.interp table, as every backward-induction stage's h: beta ties at the saddle
            knots = np.linspace(0.0, 8.0, 257)
            h = lambda x, hk=h(knots): np.interp(x, knots, hk)
        batch = minmax_values(h, xmap, radii, G, grid_n)
        alone = [minmax_values(h, xmap, [r], G, grid_n)[0] for r in radii]
        assert batch.tolist() == alone

    @given(**KERNEL_CASES)
    @settings(max_examples=50, deadline=None)
    def test_matches_golden_section_reference(self, radii, G, grid_n, p, xmap):
        h = lambda x: np.abs(x) ** p / p
        got = minmax_values(h, xmap, radii, G, grid_n)
        ref = reference_minmax_values(h, xmap, radii, G, grid_n)
        assert np.all(np.abs(got - ref) <= 1e-9 * (1.0 + np.abs(ref))), (got, ref)

    @pytest.mark.parametrize("h", [lambda x: np.abs(x) ** 1.5, lambda x: np.exp(x * x / 8.0), np.abs],
                             ids=["power", "exponential", "linear"])
    def test_h_calls_per_solve(self, h):
        # one table of h on the beta grid, one slope probe, and one refinement per
        # evaluated alpha; bisection alone takes 38 evaluations on these cases
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return h(x)

        for theta, G in ((np.zeros(2), 1.0), (np.array([1.5, -0.5]), 0.8), (np.array([6.0, 2.0]), 2.0)):
            calls = 0
            solve_scalar_grid(OneRoundSpec(h=counted, theta=theta, G=G))
            assert calls <= 20, (theta, G, calls)

    @given(**KERNEL_CASES)
    @settings(max_examples=50, deadline=None)
    def test_h_calls_within_the_safeguard_bound(self, radii, G, grid_n, p, xmap):
        # per block: two tables, then at most two evaluations per halving of [-L, L] (a cut
        # that does not halve it is followed by a midpoint), 38 halvings to reach tol, and
        # one last cut
        calls = 0

        def h(x):
            nonlocal calls
            calls += 1
            return np.abs(x) ** p / p

        minmax_values(h, xmap, radii, G, grid_n)
        assert calls <= math.ceil(len(radii) / BLOCK) * (2 + 2 * 38 + 1), calls


class TestWorstCasePayoff:
    """The kernel's inner max at given alphas: a play's payoff against the best reply."""

    def test_orthogonal_example(self):
        # h = |x|, ||theta|| = 3, G = 4: the play 0.6 theta_hat is met best by beta = 0
        assert worst_case_payoff(np.abs, plane_distance, [3.0], 4.0, [0.6], 1001)[0] == pytest.approx(5.0, abs=1e-12)

    def test_rejects_alphas_that_do_not_match_the_radii(self):
        with pytest.raises(ValueError):
            worst_case_payoff(np.abs, line_distance, [0.0, 1.0, 2.0], 1.0, [0.5, 0.5], 101)

    @given(alphas=st.lists(st.floats(-5.0, 5.0), min_size=40, max_size=40), **KERNEL_CASES)
    @settings(max_examples=30, deadline=None)
    def test_matches_a_dense_grid_and_never_beats_the_value(self, alphas, radii, G, grid_n, p, xmap):
        h = lambda x: np.abs(x) ** p / p
        alphas = np.array(alphas[:len(radii)])
        got = worst_case_payoff(h, xmap, radii, G, alphas, grid_n)
        betas = np.linspace(-G, G, 100001)
        dense = np.array([np.max(a * betas + h(xmap(r, betas, G))) for r, a in zip(radii, alphas)])
        assert np.all(np.abs(got - dense) <= 1e-6 * (1.0 + np.abs(dense))), (got, dense)
        # min over alpha of the payoff is the value, up to the kernel's stopping tolerance
        value = minmax_values(h, xmap, radii, G, grid_n)
        assert np.all(got >= value - 1e-9 * (1.0 + np.abs(value))), (got, value)

    @given(**KERNEL_CASES)
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_one_radius_at_a_time(self, radii, G, grid_n, p, xmap):
        h = lambda x: np.abs(x) ** p / p
        alphas = np.linspace(-1.0, 1.0, len(radii))
        batch = worst_case_payoff(h, xmap, radii, G, alphas, grid_n)
        alone = [worst_case_payoff(h, xmap, [r], G, [a], grid_n)[0] for r, a in zip(radii, alphas)]
        assert batch.tolist() == alone

    @pytest.mark.parametrize("radii,G", [([-0.5], 1.0), ([np.inf], 1.0), ([1.0], 0.0), ([1.0], np.nan)])
    def test_rejects_what_the_kernel_rejects(self, radii, G):
        with pytest.raises(ValueError):
            worst_case_payoff(np.abs, plane_distance, radii, G, [0.0], 101)


def nan_near_1_3(x):
    return np.where(np.abs(x - 1.3) < 0.05, np.nan, x * x)


def exp_overflowing(x):
    with np.errstate(over="ignore"):  # inf from x = 75.35 on
        return np.exp(x * x / 8.0)


class TestKernelInputs:
    """Inputs the kernel cannot solve raise, a NaN payoff is NaN, never a silent inf, and an
    overflowing one is inf; a radius gets the same value alone as in a batch."""

    @pytest.mark.parametrize("theta", [[np.nan, 0.0], [np.inf, 1.0], [-np.inf]])
    def test_spec_rejects_a_theta_that_is_not_finite(self, theta):
        with pytest.raises(ValueError, match="theta"):
            OneRoundSpec(h=np.abs, theta=np.array(theta), G=1.0)

    def test_spec_rejects_a_G_that_is_not_finite(self):
        with pytest.raises(ValueError, match="G"):
            OneRoundSpec(h=np.abs, theta=np.zeros(2), G=np.inf)

    @pytest.mark.parametrize("radii", [[-0.5], [1.0, -1e-300], [np.inf], [0.0, np.nan]])
    def test_kernel_rejects_radii_that_are_not_finite_and_nonnegative(self, radii):
        with pytest.raises(ValueError, match="radii"):
            minmax_values(np.abs, plane_distance, radii, 1.0, 101)

    @pytest.mark.parametrize("G", [np.inf, np.nan, 0.0, -1.0])
    def test_kernel_rejects_a_G_that_is_not_finite_and_positive(self, G):
        with pytest.raises(ValueError, match="G"):
            minmax_values(np.abs, plane_distance, [1.0], G, 101)

    @pytest.mark.parametrize("h,radii,G,want", [
        (lambda x: np.full_like(x, np.nan), [0.0, 1.0, 4.0], 1.0, np.nan),
        (nan_near_1_3, [0.0, 1.0, 4.0], 1.0, np.nan),
        # the slope probe on [0, r + 1] overflows at its last point only: L is inf, not NaN
        (exp_overflowing, [0.0, 1.0, 74.4, 74.5, 74.6], 1.0, np.inf),
        # h overflows at two or more probe points (76, 80), or only its slope does (74.3): inf
        (exp_overflowing, [0.0, 74.3, 74.5, 76.0, 80.0], 1.0, np.inf),
        # the last block holds one radius: finite values up to r = 0.25, NaN from 0.375 on
        (nan_near_1_3, np.linspace(0.0, 4.0, BLOCK + 1), 1.0, np.nan),
        # h and its slope are finite on [0, r + G], h(75.24) ~ 2.09e307, but 2L and the payoffs near alpha = L
        # are not: the row is solved divided by a power of two, to the closed form's value, and a batch's other
        # rows keep their bits
        (exp_overflowing, [75.14], 0.1, (exp_overflowing(75.24) + exp_overflowing(75.04)) / 2.0),
        (exp_overflowing, [75.14, 1.0], 0.1, (exp_overflowing(1.1) + exp_overflowing(0.9)) / 2.0),
        (exp_overflowing, [1.0, 75.14], 0.1, (exp_overflowing(75.24) + exp_overflowing(75.04)) / 2.0),
        (exp_overflowing, [72.24], 3.0, (exp_overflowing(75.24) + exp_overflowing(69.24)) / 2.0),
    ], ids=["everywhere", "near_x_1.3", "exp_overflows", "exp_overflows_twice", "block_plus_one",
            "near_the_edge", "near_the_edge_first", "near_the_edge_last", "near_the_edge_wide_G"])
    def test_a_non_finite_payoff_is_the_same_alone(self, h, radii, G, want):
        # NaN and inf compare equal to themselves here; a finite value is the parallel closed form's
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plane = solve_scalar_grid(OneRoundSpec(h=h, theta=np.array([radii[-1], 0.0]), G=G))
            got = minmax_values(h, line_distance, radii, G, 101)
            alone = [minmax_values(h, line_distance, [r], G, 101)[0] for r in radii]
        np.testing.assert_allclose(plane, want, rtol=1e-9)
        np.testing.assert_allclose(got[-1], want, rtol=1e-9)
        assert np.array_equal(got, alone, equal_nan=True), (got, alone)


class TestDimOneParallel:
    """The parallel closed form and the grid oracle hold at d = 1 for every convex h tested."""

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
            spec = OneRoundSpec(h=h, theta=np.array([r]), G=G)
            assert solve_parallel(spec).value == pytest.approx(oracle, rel=2e-3, abs=2e-3)
            assert solve_scalar_grid(spec) == pytest.approx(oracle, rel=2e-3, abs=2e-3)

    def test_grid_oracle_plays_on_the_line(self):
        # the plane's geometry would give sqrt(0.6^2 + 1) = 1.16619 for h = |x|
        spec = OneRoundSpec(h=np.abs, theta=np.array([0.6]), G=1.0)
        assert solve_scalar_grid(spec) == pytest.approx(1.0, abs=1e-12)
        assert solve_scalar_grid(spec) == minmax_values(np.abs, line_distance, [0.6], 1.0, 1001)[0]
        assert solve_parallel(spec).value == 1.0
