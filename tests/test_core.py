import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minimax_online import GameConfig, make_rng, norm, orthonormal_complement_sample, unit_direction
from minimax_online.core import TOL_ORTHO, UnsupportedDimensionError

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec(dim_min=1, dim_max=6):
    return st.lists(finite_coord, min_size=dim_min, max_size=dim_max).map(np.array)


@given(pair=st.tuples(st.integers(2, 5), st.data()))
@settings(max_examples=50)
def test_triangle_inequality(pair):
    d, data = pair
    a = np.array(data.draw(st.lists(finite_coord, min_size=d, max_size=d)))
    b = np.array(data.draw(st.lists(finite_coord, min_size=d, max_size=d)))
    assert norm(a + b) <= norm(a) + norm(b) + 1e-6 * (1 + norm(a) + norm(b))


def test_norm_at_float64_extremes():
    # squaring these coordinates underflows / overflows float64
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert norm(np.array([1e-200])) == 1e-200
        assert norm(np.array([1e200])) == 1e200
        assert norm(np.zeros(3)) == 0.0


def test_unit_direction_examples():
    assert np.array_equal(unit_direction(np.zeros(2)), np.zeros(2))
    np.testing.assert_allclose(unit_direction(np.array([3.0, 4.0])), [0.6, 0.8], rtol=1e-15)
    np.testing.assert_allclose(unit_direction(np.array([-2.0, 0.0])), [-1.0, 0.0], rtol=1e-15)
    # squaring these coordinates underflows / overflows float64; the direction
    # must still come out exactly, without an overflow warning
    for v, expected in (([1e-200, -5e-201], [2.0 / np.sqrt(5.0), -1.0 / np.sqrt(5.0)]),
                        ([1e300, 1e300], [np.sqrt(0.5), np.sqrt(0.5)])):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            e = unit_direction(np.array(v))
        np.testing.assert_allclose(e, expected, rtol=1e-15)
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-15


@given(v=vec(1, 6))
@example(v=np.array([7.64e-161]))
@example(v=np.array([5e-324, 5e-324]))
def test_unit_direction_idempotent(v):
    once = unit_direction(v)
    twice = unit_direction(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_complement_sample_contract(dim, seed):
    rng = make_rng(seed)
    for trial_theta in (np.zeros(dim), rng.standard_normal(dim), 100.0 * rng.standard_normal(dim)):
        v = orthonormal_complement_sample(trial_theta, rng)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
        assert abs(float(v @ trial_theta)) <= 1e-12 * max(np.linalg.norm(trial_theta), 1.0)


def test_complement_sample_axis():
    v = orthonormal_complement_sample(np.array([1.0, 0.0]), make_rng(0))
    assert v[0] == 0.0
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_complement_sample_needs_dim2():
    with pytest.raises(UnsupportedDimensionError):
        orthonormal_complement_sample(np.array([1.0]), make_rng(0))


@pytest.mark.parametrize("theta", [[1e-200, 2e-200, 0.0], [1e200, 2e200, 0.0]])
def test_complement_sample_at_float64_extremes(theta):
    theta = np.array(theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = orthonormal_complement_sample(theta, make_rng(0))
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert abs(float(v @ unit_direction(theta))) <= TOL_ORTHO


def test_complement_gram_schmidt_case():
    theta = np.array([1.0, 1.0, 0.0])
    v = orthonormal_complement_sample(theta, make_rng(3))
    assert abs(float(v @ theta)) <= 1e-12 * np.linalg.norm(theta)


def test_game_config_validation():
    cfg = GameConfig(dim=3, grad_bound=2.0, horizon=10, seed=1)
    assert cfg.known_horizon and cfg.horizon == 10
    assert not GameConfig(dim=1, grad_bound=1.0).known_horizon
    with pytest.raises(ValueError):
        GameConfig(dim=0, grad_bound=1.0)
    with pytest.raises(ValueError):
        GameConfig(dim=1, grad_bound=0.0)
    with pytest.raises(ValueError):
        GameConfig(dim=1, grad_bound=1.0, horizon=0)


def test_rng_streams_are_deterministic():
    a = make_rng(42).standard_normal(8)
    b = make_rng(42).standard_normal(8)
    c = make_rng(43).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
