import math

import numpy as np
import pytest

from minimax_online import (
    AdaptiveNormalPotential,
    NormalKnownTPotential,
    PowerPotential,
    QuadraticPotential,
    conjugate_numeric,
    exp_conjugate_upper_bound,
    regret_bound,
)
from minimax_online import checks
from minimax_online._search import finite_difference
from minimax_online.core import row_norms
from minimax_online.oracles import gaussian_expectation
from minimax_online.potentials import BoundaryHitError


class TestPowerPotential:
    def test_base_case(self):
        pot = PowerPotential(W=1.0, p=2.0, G=1.0, T=4)
        assert pot.radial(4, 3.0) == 4.5

    def test_game_value_at_start(self):
        pot = PowerPotential(W=1.0, p=1.0, G=1.0, T=16)
        assert pot.radial(0, 0.0) == pytest.approx(4.0, rel=1e-12)

    def test_interior_round(self):
        # frozen from the backward-induction oracle (cross-checked in test_oracles)
        pot = PowerPotential(W=1.0, p=1.5, G=2.0, T=3)
        assert pot.radial(1, 1.0) == pytest.approx(3.4641016151377544, rel=1e-12)

    def test_base_case_is_exact_power(self):
        pot = PowerPotential(W=2.0, p=1.5, G=1.0, T=3)
        for x in (0.0, 0.7, 3.0):
            assert pot.radial(3, x) == (2.0 / 1.5) * x**1.5

    def test_round_range_checked(self):
        pot = PowerPotential(W=1.0, p=2.0, G=1.0, T=4)
        with pytest.raises(ValueError):
            pot.radial(5, 1.0)
        with pytest.raises(ValueError):
            pot.radial(-1, 1.0)

    @pytest.mark.parametrize("scale", [1e-170, 1.0])
    def test_value_takes_the_shared_norm(self, scale):
        # the slack ledger reads q_0 through value and q_t through radial over row_norms
        pot = PowerPotential(W=1.0, p=1.0, G=1.0, T=5)
        theta = scale * np.array([1.0, -2.0, 2.0])
        assert pot.value(5, theta) == float(pot.radial(5, row_norms(theta[None])[0])) == 3.0 * scale

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PowerPotential(W=0.0, p=1.5, G=1.0, T=2)
        with pytest.raises(ValueError):
            PowerPotential(W=1.0, p=2.5, G=1.0, T=2)
        assert PowerPotential(W=1.0, p=1.5, G=1.0, T=2).q == pytest.approx(3.0)
        assert PowerPotential(W=1.0, p=1.0, G=1.0, T=2).q == math.inf


class TestNormalKnownTPotential:
    def test_terminal_round(self):
        pot = NormalKnownTPotential(eps=1.0, a=2.0, G=1.0, T=2)
        assert pot.radial(2, 0.0) == 1.0
        assert pot.radial(2, 1.3) == math.exp(1.3**2 / 8.0)

    def test_interior_round_frozen(self):
        # frozen: (1 - pi/8)^(-1/2), cross-checked by quadrature below
        pot = NormalKnownTPotential(eps=1.0, a=2.0, G=1.0, T=2)
        assert pot.radial(1, 0.0) == pytest.approx(1.2832108736998058, rel=1e-12)

    def test_interior_round_vs_quadrature(self):
        pot = NormalKnownTPotential(eps=1.0, a=2.0, G=1.0, T=2)
        quad = gaussian_expectation(lambda y: math.exp(y * y / 8.0), 0.0, math.pi / 2.0, nodes=64)
        assert pot.radial(1, 0.0) == pytest.approx(quad, rel=1e-8)

    def test_linear_in_eps(self):
        one = NormalKnownTPotential(eps=1.0, a=2.0, G=1.0, T=2)
        two = NormalKnownTPotential(eps=2.0, a=2.0, G=1.0, T=2)
        assert two.radial(1, 0.0) == 2.0 * one.radial(1, 0.0)

    def test_variance_precondition(self):
        with pytest.raises(ValueError):
            NormalKnownTPotential(eps=1.0, a=math.pi / 2.0, G=1.0, T=2)

    def test_quadrature_consistency_sample(self):
        pot = NormalKnownTPotential(eps=1.0, a=2.5, G=1.0, T=5)
        for t in range(6):
            for x in np.linspace(0.0, 3.0 * math.sqrt(5.0), 5):
                if t == pot.T:
                    expected = math.exp(x * x / (2 * pot.a * pot.T))
                else:
                    var = (pot.T - t) * (math.pi / 2.0)
                    expected = gaussian_expectation(
                        lambda y: math.exp(y * y / (2 * pot.a * pot.T)), float(x), var)
                assert pot.radial(t, float(x)) == pytest.approx(expected, rel=1e-6)


class TestAdaptivePotential:
    def test_first_round(self):
        pot = AdaptiveNormalPotential(eps=1.0, a=3.0, G=1.0)
        assert pot.value(1, np.zeros(2)) == pytest.approx(2.0813689810056077, rel=1e-12)

    def test_exp_zero(self):
        pot = AdaptiveNormalPotential(eps=0.5, a=3.0, G=1.0)
        assert pot.value(3, np.zeros(3)) == pytest.approx(0.5 / math.log(4.0) ** 2)

    def test_unit_exponent(self):
        pot = AdaptiveNormalPotential(eps=1.0, a=3.0, G=1.0)
        theta = np.array([math.sqrt(2.0 * pot.a), 0.0])
        assert pot.value(1, theta) == pytest.approx(math.e / math.log(2.0) ** 2, rel=1e-12)

    def test_zero_round_convention(self):
        pot = AdaptiveNormalPotential(eps=1.0, a=3.0, G=1.0)
        assert pot.value(0, np.array([5.0, 5.0])) == 0.0

    def test_beta_decreasing(self):
        pot = AdaptiveNormalPotential(eps=1.0, a=3.0, G=1.0)
        betas = [pot.beta(t) for t in range(1, 30)]
        assert all(b > 0 for b in betas)
        assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))

    def test_precondition(self):
        with pytest.raises(ValueError):
            AdaptiveNormalPotential(eps=1.0, a=3.0 * math.pi / 4.0, G=1.0)


class TestConjugateNumeric:
    def test_self_conjugate_quadratic(self):
        val = conjugate_numeric(lambda a: a * a / 2.0, 3.0, search_bound=20.0)
        assert val == pytest.approx(4.5, abs=1e-8)

    def test_exp_at_zero(self):
        val = conjugate_numeric(lambda a: math.exp(a * a / 2.0), 0.0, search_bound=5.0)
        assert val == pytest.approx(-1.0, abs=1e-8)

    def test_power_closed_form(self):
        val = conjugate_numeric(lambda a: a**1.5 / 1.5, 2.0, search_bound=30.0)
        assert val == pytest.approx(8.0 / 3.0, abs=1e-8)

    def test_boundary_hit(self):
        with pytest.raises(BoundaryHitError):
            conjugate_numeric(lambda a: a * a / 2.0, 3.0, search_bound=1.0)


class TestExpConjugateBound:
    def test_at_zero(self):
        assert exp_conjugate_upper_bound(1.0, 1.0, 0.0) == -1.0
        assert exp_conjugate_upper_bound(4.0, 2.0, 0.0) == -2.0

    def test_unit_case(self):
        assert exp_conjugate_upper_bound(1.0, 1.0, 1.0) == pytest.approx(0.17741002251547466, rel=1e-12)

    def test_dominates_numeric_conjugate(self):
        [row] = checks.conjugate_bound(seed=0)
        assert row.ok, row

    def test_nan_conjugate_fails_the_check(self, monkeypatch):
        real, calls = checks.exp_conjugate_numeric, iter(range(200))
        monkeypatch.setattr(checks, "exp_conjugate_numeric",
                            lambda a, b, w: math.nan if next(calls) == 100 else real(a, b, w))
        [row] = checks.conjugate_bound(seed=0)
        assert not row.ok and math.isnan(row.value), row


class TestRegretBound:
    def test_power_p2(self):
        pot = PowerPotential(W=1.0 / 10.0, p=2.0, G=1.0, T=100)
        assert regret_bound(pot, 1.0, 100) == pytest.approx(10.0, rel=1e-12)

    def test_power_p1(self):
        pot = PowerPotential(W=1.0, p=1.0, G=1.0, T=25)
        assert regret_bound(pot, 0.5, 25) == pytest.approx(5.0, rel=1e-12)

    def test_power_p1_vacuous(self):
        pot = PowerPotential(W=1.0, p=1.0, G=1.0, T=25)
        assert regret_bound(pot, 1.5, 25) == math.inf

    def test_adaptive_additive_term(self):
        a = 3.0 * math.pi / 4.0 + 0.1
        pot = AdaptiveNormalPotential(eps=1.0, a=a, G=1.0)
        for T in (1, 10, 1000):
            assert regret_bound(pot, 0.0, T) == pytest.approx(math.pi / a - 1.0, rel=1e-12)

    def test_normal_knownt_additive_term(self):
        pot = NormalKnownTPotential(eps=2.0, a=2.0, G=1.0, T=7)
        expected = 2.0 * ((1.0 - math.pi / 4.0) ** -0.5 - 1.0)
        assert regret_bound(pot, 0.0, 7) == pytest.approx(expected, rel=1e-12)

    def test_ogd_matches_power_p2(self):
        assert regret_bound(QuadraticPotential(eta=0.3, G=1.5), 2.0, 50) == pytest.approx(
            regret_bound(PowerPotential(W=0.3, p=2.0, G=1.5, T=50), 2.0, 50), rel=1e-12)

    def test_known_horizon_envelope_at_earlier_round(self):
        # the horizon argument is used, not the potential's own T, so an
        # envelope can be read at every round of a run
        pot = PowerPotential(W=1.0 / 10.0, p=2.0, G=1.0, T=100)
        assert regret_bound(pot, 1.0, 25) == pytest.approx(6.25, rel=1e-12)

    def test_argument_checks(self):
        pot = QuadraticPotential(eta=0.3, G=1.0)
        with pytest.raises(ValueError):
            regret_bound(pot, -1.0, 10)
        with pytest.raises(ValueError):
            regret_bound(pot, 1.0, 0)


class TestShapeProperties:
    """Monotonicity, convexity, and curvature-ratio conditions on a grid."""

    @pytest.mark.parametrize("pot,tmax", [
        (PowerPotential(W=1.0, p=1.0, G=1.0, T=5), 5),
        (PowerPotential(W=2.0, p=1.5, G=0.7, T=4), 4),
        (NormalKnownTPotential(eps=1.0, a=2.5, G=1.0, T=5), 5),
        (AdaptiveNormalPotential(eps=1.0, a=2.5, G=1.0), 6),
    ])
    def test_nondecreasing_and_convex(self, pot, tmax):
        xs = np.linspace(0.0, 6.0, 61)
        for t in range(0, tmax + 1):
            vals = np.array([pot.radial(t, float(x)) for x in xs])
            assert np.all(np.diff(vals) >= -1e-12)
            second = np.diff(vals, 2)
            assert np.all(second >= -1e-8 * (1.0 + np.abs(vals[1:-1])))

    @staticmethod
    def _fd_noise(f, x):
        # rounding floor of the central second difference at step 1e-5*max(x,1)
        step = 1e-5 * max(abs(x), 1.0)
        return 32.0 * np.finfo(float).eps * (abs(f(x)) + 1.0) / (step * step)

    def test_power_curvature_ratio(self):
        # orthogonal-regime condition: f_t'' <= f_t'/x on (0, 10]
        for p in (1.0, 1.3, 1.7, 2.0):
            pot = PowerPotential(W=1.0, p=p, G=1.0, T=4)
            for t in (0, 2, 4):
                f = lambda x: pot.radial(t, abs(x))
                for x in np.linspace(0.1, 10.0, 25):
                    x = float(x)
                    ratio = finite_difference(f, x, 1) / x
                    second = finite_difference(f, x, 2)
                    assert second <= ratio + 1e-6 * (1 + abs(ratio)) + self._fd_noise(f, x)

    def test_normal_curvature_ratio(self):
        # parallel-regime condition: f_t'' >= f_t'/x
        pot = NormalKnownTPotential(eps=1.0, a=2.5, G=1.0, T=4)
        for t in (0, 2, 4):
            f = lambda x: pot.radial(t, abs(x))
            for x in np.linspace(0.1, 5.0, 20):
                x = float(x)
                ratio = finite_difference(f, x, 1) / x
                second = finite_difference(f, x, 2)
                assert second >= ratio - 1e-6 * (1 + abs(ratio)) - self._fd_noise(f, x)
