import dataclasses
import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimax_online import (
    AdaptiveNormalPotential,
    FixedDirection,
    GameConfig,
    GreedyVsComparator,
    NormalKnownTPotential,
    PotentialPlayer,
    PowerPotential,
    QuadraticPotential,
    conjugate_numeric,
    epsilon_ledger,
    exp_conjugate_upper_bound,
    regret,
    regret_bound,
    run_game,
)
from minimax_online import checks
from minimax_online.core import row_norms
from minimax_online.one_round import finite_difference
from minimax_online.oracles import BoundaryHitError, gaussian_expectation


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

    def test_a_state_past_1e154_keeps_its_play_and_its_ledger(self):
        # x * x overflows past about 1.34e154: the slope must not drop to 0 there, nor q_t rise to inf
        pot = PowerPotential(W=1.0, p=1.5, G=1e153, T=50)
        trace = run_game(PotentialPlayer(pot), FixedDirection(G=1e153),
                         GameConfig(dim=2, grad_bound=1e153, horizon=50, seed=0), 50)
        assert trace.w[1:].any(axis=1).all()  # only the play at theta_0 = 0 is zero
        x = np.array([0.0, 1e150, 1.3e154, 1.4e154, 5e154, 1e300])
        for t in (0, 14, 49, 50):
            # the same powers, with x and G divided by G: no square leaves the float64 range
            inner = [(xi / pot.G) ** 2 + (pot.T - t) for xi in x.tolist()]
            slope = [pot.W * xi * pot.G ** (pot.p - 2.0) * (s2 ** ((pot.p - 2.0) / 2.0) if s2 else 1.0)
                     for xi, s2 in zip(x.tolist(), inner)]
            np.testing.assert_allclose(pot.slope(t, x), slope, rtol=1e-13, atol=0.0)
            if t < pot.T:
                value = [pot.W / pot.p * pot.G ** pot.p * s2 ** (pot.p / 2.0) for s2 in inner]
                np.testing.assert_allclose(pot.radial(t, x[:-1]), value[:-1], rtol=1e-13, atol=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.isfinite(epsilon_ledger(trace, pot)).all()

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
        quad = gaussian_expectation(lambda y: math.exp(y * y / 8.0), 0.0, math.pi / 2.0)
        assert pot.radial(1, 0.0) == pytest.approx(quad, rel=1e-8)

    def test_linear_in_eps(self):
        one = NormalKnownTPotential(eps=1.0, a=2.0, G=1.0, T=2)
        two = NormalKnownTPotential(eps=2.0, a=2.0, G=1.0, T=2)
        assert two.radial(1, 0.0) == 2.0 * one.radial(1, 0.0)

    @pytest.mark.parametrize("a,G,T", [(math.pi / 2.0, 1.0, 2), (-1.0, 1.0, 2), (math.nan, 1.0, 2),
                                       ((1.0 + 2.0**-52) * math.pi * 0.01 * 0.01 / 2.0, 0.01, 1675)])
    def test_variance_precondition(self, a, G, T):
        # the last a passes a > pi G^2 / 2 but rounds 1 - pi G^2 T / (2aT) to 0, where q_0 is not finite
        assert not a > math.pi * G * G / 2.0 or 1.0 - math.pi * G * G * T / (2.0 * a * T) == 0.0
        with pytest.raises(ValueError, match=r"require a > pi\*G\^2/2"):
            NormalKnownTPotential(eps=1.0, a=a, G=G, T=T)

    def test_a_d_T_past_float64_is_refused(self):
        # d_T = 2aT = 2e308 leaves float64: with d = inf every play would be exactly 0
        with pytest.raises(ValueError, match=r"require 2\*a\*T within float64, got a=1e\+305, T=1000"):
            NormalKnownTPotential(eps=1.0, a=1e305, G=1.0, T=1000)

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


@pytest.mark.parametrize("pot", [AdaptiveNormalPotential(eps=1.0, a=2.4e306, G=1e153),
                                 NormalKnownTPotential(eps=1.0, a=2.4e306, G=1e153, T=20)],
                         ids=["adaptive_normal", "normal_knownT"])
def test_an_exponent_whose_square_leaves_float64_is_divided_first(pot):
    # (r + G)^2 and r^2 pass the float64 range from r = 1.34e154 on, though ((r + G) / sqrt(d))^2 is about
    # 2.9 at r = 1.3e154; a state that small keeps the bits of squaring first
    t, r = np.array([14, 14, 15, 15]), np.array([1.3e154, 1e154, 5e153, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        diff, value = pot.radial_diff(t, r), pot.radial(t, r)
    c, d = pot.shape(t)
    want_diff = -c * np.exp(((r + pot.G) / np.sqrt(d)) ** 2) * np.expm1(-4.0 * pot.G / d * r)
    np.testing.assert_allclose(diff, want_diff, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(value, c * np.exp((r / np.sqrt(d)) ** 2), rtol=1e-13, atol=0.0)
    assert np.isfinite(diff).all() and np.isfinite(value).all()
    c, d, r = c[1:], d[1:], r[1:]
    assert diff[1:].tolist() == (-c * np.exp((r + pot.G) ** 2 / d) * np.expm1(-4.0 * pot.G / d * r)).tolist()
    assert value[1:].tolist() == (c * np.exp(r * r / d)).tolist()


@pytest.mark.parametrize("adversary", [FixedDirection(G=1e153), GreedyVsComparator(G=1e153, comparator=(1.0, 0.0))],
                         ids=["block", "round_by_round"])
def test_the_difference_at_r_0_is_0_where_c_is_finite(adversary):
    # beta_1 is about 1.67e308, finite, but c exp(G^2 / d) leaves float64, so the product is inf * -0.0, where
    # D_1(0) = q_1(G) - q_1(G) = 0; the first play is then 0, by symmetry.  At eps = 1e308, beta_1 itself is
    # inf, and so the difference stays NaN and the first play an overflow
    pot = AdaptiveNormalPotential(eps=8e307, a=2.4e306, G=1e153)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (1, np.array([1, 2])):
            diff = pot.radial_diff(t, np.zeros(2))
            assert diff.tolist() == [0.0, 0.0] and not np.signbit(diff).any()
        assert np.isnan(dataclasses.replace(pot, eps=1e308).radial_diff(1, np.zeros(1))).all()
    config = GameConfig(dim=2, grad_bound=1e153)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = run_game(PotentialPlayer(pot), adversary, config, 3)
        assert trace.w[0].tolist() == [0.0, 0.0] and not np.signbit(trace.w[0]).any()
        assert np.isfinite(trace.w).all() and abs(trace.w[1, 0]) > 1e154
        with pytest.raises(OverflowError, match="^round 1: the play left the float64 range$"):
            run_game(PotentialPlayer(dataclasses.replace(pot, eps=1e308)), adversary, config, 3)


def test_a_d_t_past_float64_fails_at_its_round():
    # 2at passes the float64 maximum at t = 899 > 1.797e308 / 2e305: that round's d_t is NaN, so its play is
    # NaN and the engine names the round; with d = inf the difference would be exactly 0 from there on, silently
    pot = AdaptiveNormalPotential(eps=1.0, a=1e305, G=2e152)
    config = GameConfig(dim=2, grad_bound=2e152)
    for adversary in (FixedDirection(G=2e152), GreedyVsComparator(G=2e152, comparator=(1.0, 0.0))):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError, match="^round 899: the play left the float64 range$"):
                run_game(PotentialPlayer(pot), adversary, config, 2000)


def test_the_envelope_past_a_d_t_past_float64_names_its_round():
    # round 898's envelope is vacuous (inf); at 899 d_t = 2at has left float64, and the error names that round
    pot = AdaptiveNormalPotential(eps=1.0, a=1e305, G=2e152)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert regret_bound(pot, 1.0, 898) == math.inf
        for t in (899, np.arange(880, 910), np.array([[905], [900], [1]])):
            first = np.min(t[t >= 899]) if isinstance(t, np.ndarray) else t
            with pytest.raises(ValueError, match=f"^round {first}: d_t left the float64 range$"):
                regret_bound(pot, np.array([0.0, 1.0]) if np.ndim(t) == 2 else 1.0, t)


def test_a_d_t_past_float64_makes_the_round_nan_without_a_warning():
    # 2at = 1.8e308 here, past float64; with d = inf the exponent would be inf / inf, with a warning
    G = 7.4e149
    pot = AdaptiveNormalPotential(eps=1.0, a=165.0 * G * G, G=G)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t in (998404, np.array([998404, 998404])):
            assert np.isnan(pot.shape(t)[1]).all()
            assert np.isnan(pot.radial(t, np.array([1.4e154, 1.0]))).all()
            assert np.isnan(pot.radial_diff(t, np.array([1.4e154, 1.0]))).all()


def test_a_finite_difference_of_terms_that_overflow_is_finite():
    # q_15(r + G) passes the float64 maximum, but D_15(r), about 1.12e308, does not; the reference is D
    # at shape(15)'s float c and d, to 700 digits
    pot = AdaptiveNormalPotential(eps=7e307, a=2.4e306, G=1e153)
    r = np.array([1.4e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        diff = pot.radial_diff(15, r)
    with decimal.localcontext() as ctx:
        ctx.prec = 700
        c, d, x, G = map(decimal.Decimal, (*map(float, pot.shape(15)), float(r[0]), pot.G))
        want = float(c * ((x + G) ** 2 / d).exp() * (1 - (-4 * G * x / d).exp()))
    assert want == pytest.approx(1.120347336934734e308, rel=1e-15)
    assert diff[0] == pytest.approx(want, rel=1e-12, abs=0.0)


@given(eps=st.floats(1e-3, 1e300), a=st.floats(2.4, 1e6), G=st.floats(1e-3, 1e140), t=st.integers(1, 10**6),
       x=st.floats(0.0, 1e160))
@settings(max_examples=200, deadline=None)
def test_a_finite_product_keeps_its_bits(eps, a, G, t, x):
    # wherever -c exp(A) m is finite, radial_diff is that product, bit for bit; where all of it is, nothing
    # warns (a D that leaves float64 may)
    pot = AdaptiveNormalPotential(eps=eps, a=a * G * G, G=G)
    r = np.array([0.0, x, x / 7.0, G])
    c, d = pot.shape(t)
    with np.errstate(over="ignore", invalid="ignore"):
        square = (r + G) ** 2
        A = np.where(np.isfinite(square), square / d, ((r + G) / np.sqrt(d)) ** 2)
        want = -c * np.exp(A) * np.expm1(-4.0 * G / d * r)
    finite = np.isfinite(want)
    with warnings.catch_warnings():
        warnings.simplefilter("error" if finite.all() else "ignore", RuntimeWarning)
        diff = pot.radial_diff(t, r)
    assert diff[finite].tolist() == want[finite].tolist()


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

    @pytest.mark.parametrize("W", [1e-200, 5e-324, 1e-3, 1.0, 1e200, 1.7e308])
    @pytest.mark.parametrize("p", [1.0000001, 1.5, 2.0])
    def test_power_conjugate_is_zero_at_u_0_without_a_warning(self, W, p):
        # at a tiny W, W^(q-1) underflows to 0, and u^q / (q W^(q-1)) was 0/0 = nan at u = 0
        pot = PowerPotential(W=W, p=p, G=1.0, T=10)
        with np.errstate(over="ignore"):  # q_0(0) overflows at W = 1.7e308
            budget = pot.budget(10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert pot.conjugate_bound(np.zeros(3), 10).tolist() == [0.0] * 3
            assert regret_bound(pot, [0.0, 1.0], 10).tolist()[0] == budget

    def test_power_conjugate_bits_past_u_0(self):
        # where neither power leaves the float64 range, u^q / (q W^(q-1)) as it was; where both
        # do (0/0, inf/inf), W (u/W)^q / q
        pot = PowerPotential(W=0.7, p=1.5, G=1.0, T=10)
        u = np.array([1e-300, 0.1, 1.0, 3.0, 1e100, 1e300])
        with np.errstate(over="ignore", under="ignore"):
            direct = u**pot.q / (pot.W ** (pot.q - 1.0) * pot.q)
        assert pot.conjugate_bound(u, 10).tobytes() == direct.tobytes()
        tiny, huge = PowerPotential(W=1e-200, p=1.5, G=1.0, T=10), PowerPotential(W=1e200, p=1.5, G=1.0, T=10)
        assert tiny.conjugate_bound(np.array([1e-150, 1.0]), 10).tolist() == [(1e-150 / 1e-200) ** 3 * 1e-200 / 3,
                                                                              math.inf]
        assert huge.conjugate_bound(np.array([1e200]), 10).tolist() == [1e200 / 3]

    def test_power_p1(self):
        pot = PowerPotential(W=1.0, p=1.0, G=1.0, T=25)
        assert regret_bound(pot, 0.5, 25) == pytest.approx(5.0, rel=1e-12)

    def test_power_p1_vacuous(self):
        pot = PowerPotential(W=1.0, p=1.0, G=1.0, T=25)
        assert regret_bound(pot, 1.5, 25) == math.inf

    def test_power_vacuous_where_the_conjugate_overflows(self):
        # q = 3 at p = 1.5: u_norm**3 leaves float64 at u_norm = 1e150, as ogd's u_norm**2 does at 1e160
        pot = PowerPotential(W=1.0, p=1.5, G=1.0, T=10)
        assert regret_bound(pot, 1e150, 10) == math.inf
        assert regret_bound(QuadraticPotential(eta=0.3, G=1.0), 1e160, 10) == math.inf
        assert regret_bound(pot, 1e100, 10) == pytest.approx(1e300 / 3.0, rel=1e-12)

    def test_adaptive_additive_term(self):
        # budget(T) - beta_T: round 1's beta_1 e^(G^2/(2a)), then the Gaussian steps
        a = 3.0 * math.pi / 4.0 + 0.1
        pot = AdaptiveNormalPotential(eps=1.0, a=a, G=1.0)
        beta = lambda t: 1.0 / math.log(t + 1.0) ** 2
        for T in (1, 10, 1000):
            spent = beta(1) * math.exp(1.0 / (2.0 * a)) + sum(
                beta(s) * (1.0 - math.pi / (2.0 * a * s)) ** -0.5 - beta(s - 1) for s in range(2, T + 1))
            assert regret_bound(pot, 0.0, T) == pytest.approx(spent - beta(T), rel=1e-12)

    @pytest.mark.parametrize("a,constant", [(2.4, 0.931), (3.0, 0.723), (6.0, 0.342)])
    def test_adaptive_constant_at_T_1000(self, a, constant):
        assert regret_bound(AdaptiveNormalPotential(eps=1.0, a=a, G=1.0), 0.0, 1000) == pytest.approx(
            constant, abs=5e-4)

    @settings(max_examples=200, deadline=None)
    @given(eps=st.floats(1e-3, 1e3), ratio=st.floats(1.0, 1e6, exclude_min=True),
           G=st.floats(1e-2, 1e2), T=st.integers(1, 5000), data=st.data())
    def test_envelope_at_u_0_is_nonnegative(self, eps, ratio, G, T, data):
        # a regret of 0 (all g = 0) is always possible, so no envelope may be negative
        t = data.draw(st.integers(1, T))
        for make in (lambda: AdaptiveNormalPotential(eps=eps, a=ratio * 3.0 * math.pi * G * G / 4.0, G=G),
                     lambda: NormalKnownTPotential(eps=eps, a=ratio * math.pi * G * G / 2.0, G=G, T=T)):
            try:
                pot = make()
            except ValueError:  # a that rounds onto its precondition's edge
                continue
            assert regret_bound(pot, 0.0, t) >= 0.0

    def test_the_envelope_is_budget_plus_conjugate_bound_over_arrays(self):
        u, t = np.array([[0.0], [0.5], [30.0]]), np.arange(1, 41)
        for pot in (QuadraticPotential(eta=0.3, G=1.0), PowerPotential(W=1.0, p=1.5, G=1.0, T=40),
                    PowerPotential(W=1.0, p=1.0, G=1.0, T=40), NormalKnownTPotential(eps=1.0, a=2.5, G=1.0, T=40),
                    AdaptiveNormalPotential(eps=1.0, a=2.5, G=1.0)):
            column = regret_bound(pot, u, t)
            assert column.shape == (3, 40)
            assert np.array_equal(column, pot.budget(t) + pot.conjugate_bound(u, t))
            assert [[regret_bound(pot, float(x), int(s)) for s in t] for x in u[:, 0]] == column.tolist()

    def test_normal_knownt_additive_term(self):
        pot = NormalKnownTPotential(eps=2.0, a=2.0, G=1.0, T=7)
        expected = 2.0 * ((1.0 - math.pi / 4.0) ** -0.5 - 1.0)
        assert regret_bound(pot, 0.0, 7) == pytest.approx(expected, rel=1e-12)

    def test_ogd_matches_power_p2(self):
        assert regret_bound(QuadraticPotential(eta=0.3, G=1.5), 2.0, 50) == pytest.approx(
            regret_bound(PowerPotential(W=0.3, p=2.0, G=1.5, T=50), 2.0, 50), rel=1e-12)

    def test_known_horizon_envelope_at_earlier_round(self):
        # the envelope at t < T is the one of the player tuned to T, not of one tuned to t
        pot = PowerPotential(W=1.0 / 10.0, p=2.0, G=1.0, T=100)
        assert regret_bound(pot, 1.0, 25) == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("pot,u_norm,t,measured,envelope", [
        (PowerPotential(W=1.0, p=1.0, G=1.0, T=1000), 1.0, 91, 26.34058, 31.62278),
        (NormalKnownTPotential(eps=1.0, a=2.5, G=1.0, T=1000), 1000.0, 139, 132072.5, 151807.1),
    ], ids=["power_p1", "normal_knownT"])
    def test_known_horizon_envelope_holds_before_T(self, pot, u_norm, t, measured, envelope):
        # against fixed_direction with u along theta_t; a horizon-t envelope drew 9.54 and 82,669
        trace = run_game(PotentialPlayer(pot), FixedDirection(G=1.0), GameConfig(2, 1.0, horizon=1000), 1000)
        u = u_norm * trace.theta[t - 1] / np.linalg.norm(trace.theta[t - 1])
        prefix = dataclasses.replace(trace, w=trace.w[:t], g=trace.g[:t], losses=trace.losses[:t])
        assert regret(prefix, u) == pytest.approx(measured, rel=1e-6)
        assert regret_bound(pot, u_norm, t) == pytest.approx(envelope, rel=1e-6)
        assert regret(prefix, u) <= regret_bound(pot, u_norm, t)

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
